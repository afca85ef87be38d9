"""Projection layer: affine-GELU-affine, checked against straight-line
recomputation and a scalar gelu table."""

import math

import numpy as np
import pytest

from oracles import gelu_formula, gelu_grad_formula
from scenefusion.align.projector import (
    gelu,
    gelu_grad,
    gelu_grad_from_term,
    gelu_with_term,
    init_projection_params,
    project,
)
from scenefusion.errors import ConfigError


def _scalar_gelu(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestGelu:
    def test_matches_scalar_table(self):
        xs = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
        expected = [_scalar_gelu(x) for x in xs]
        np.testing.assert_allclose(gelu(xs), expected, rtol=0, atol=1e-15)

    def test_grad_matches_finite_difference(self):
        xs = np.linspace(-4.0, 4.0, 41)
        eps = 1e-6
        fd = (gelu(xs + eps) - gelu(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(xs), fd, atol=1e-9)

    def test_in_place_pieces_equal_the_formulas_bit_for_bit(self):
        """The forward keeps gelu_with_term's erf term for the backward;
        both halves must equal the one-expression formulas exactly, on
        signed zeros, subnormals, huge |x| (exp underflows, x*x overflows)
        and ordinary values, and the public functions on 0-d input too."""
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
                   30.0, -30.0, 1e3, -1e3, 1e154, -1e154, 1e200, -1e200, 1.7e308, -1.7e308]
        xs = np.concatenate([special, np.random.default_rng(0).normal(0.0, 3.0, 1000)])
        with np.errstate(over="ignore", invalid="ignore"):
            want_y, want_dy = gelu_formula(xs), gelu_grad_formula(xs)
            y, c = gelu_with_term(xs)
            dy = gelu_grad_from_term(xs, c)
            assert y.tobytes() == want_y.tobytes()
            assert dy.tobytes() == want_dy.tobytes()
            assert gelu(xs).tobytes() == want_y.tobytes()
            assert gelu_grad(xs).tobytes() == want_dy.tobytes()
            for x, wy, wdy in zip(xs[:len(special)], want_y, want_dy):
                assert np.float64(gelu(x)).tobytes() == wy.tobytes()
                assert np.float64(gelu_grad(x)).tobytes() == wdy.tobytes()


class TestProject:
    def test_zero_params_give_zero(self):
        params = {
            "proj.w1": np.zeros((7, 4)),
            "proj.b1": np.zeros(4),
            "proj.w2": np.zeros((4, 8)),
            "proj.b2": np.zeros(8),
        }
        out = project(np.ones((3, 7)), params)
        np.testing.assert_array_equal(out, np.zeros((3, 8)))

    def test_identity_slices_passthrough_gelu(self):
        # w1 = I (first 4 dims), w2 = I: output equals gelu of the input slice
        params = {
            "proj.w1": np.eye(4),
            "proj.b1": np.zeros(4),
            "proj.w2": np.eye(4),
            "proj.b2": np.zeros(4),
        }
        x = np.array([[0.5, 1.0, 2.0, 3.0]])
        out = project(x, params)
        expected = [_scalar_gelu(v) for v in x[0]]
        np.testing.assert_allclose(out[0], expected, atol=1e-15)

    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(0)
        params = init_projection_params(rng, 19, 8, 16)
        x = rng.normal(size=(5, 19))
        out = project(x, params)
        for i in range(5):
            pre = params["proj.b1"].copy()
            for j in range(19):
                pre += x[i, j] * params["proj.w1"][j]
            hid = np.array([_scalar_gelu(v) for v in pre])
            expected = params["proj.b2"].copy()
            for j in range(8):
                expected += hid[j] * params["proj.w2"][j]
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        params = init_projection_params(rng, 7, 4, 8)
        x = rng.normal(size=(4, 7))
        out = project(x, params)
        for i in range(4):
            # batched and single-vector BLAS paths may differ in the last ulp
            np.testing.assert_allclose(out[i], project(x[i], params), atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        params = init_projection_params(rng, 7, 4, 8)
        with pytest.raises(ConfigError):
            project(np.ones((2, 9)), params)
