"""scenefusion benchmark: one command, one workload seed, every metric.

    python3 perfbench/run.py --workload fusion --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the same units twice, first untraced and then traced, and reports the
per-layer metrics from the traced pass plus the tracing overhead (traced
minus untraced time over the same units). ``--workload all`` runs the three
workloads in one process. Human-readable lines go to stdout first; the last
stdout line is one JSON object {correct, attempted, failed, metrics}. The
exit code is 1 when any correctness check failed.

See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, identically on every commit:
# one thread is faster than two for these small matrices.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
TRACE_MAX_SPANS = 200_000  # spans written to the JSON-lines file; all are aggregated

# Machine-speed calibration. On a shared machine the CPU speed this process
# gets swings by tens of percent within seconds, which no run length averages
# out. Every measured time is therefore scaled by REF_MS over the current time
# of a fixed reference computation (see machine_factor), timed right before and
# right after each unit and each set-up. REF_MS is the reference time on an
# idle 2-vCPU Intel Xeon, so scaled times read as milliseconds on that machine;
# the raw times are printed next to them.
REF_MS = 2.1


def _require_checkout() -> None:
    """Put the checkout's src/ and tests/ on sys.path. The benchmark's own
    modules import scenefusion, so they are imported after this runs."""
    missing = [p for p in ("src/scenefusion/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: not a scenefusion checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def _blas_info() -> tuple[str, int | None]:
    """BLAS library name/version and the thread count it reports, if it can."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return name, threads


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, blas_threads = _blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads_set": BLAS_THREADS, "blas_threads_reported": blas_threads,
        "commit": _git_commit(), "seed": seed,
    }


def _reference_computation(m) -> float:
    """A Python loop and small-array numpy calls, the mix the workloads run."""
    s = 0.0
    for i in range(10_000):
        s += i * 0.5
    for _ in range(75):
        d = (m * m).sum(axis=1)
        s += float(m[np.argsort(d)[:50]].sum())
    return s


def machine_factor() -> float:
    """REF_MS over the median of three timings of the reference computation:
    below 1 while the machine runs slow, above 1 while it runs fast."""
    m = np.random.default_rng(0).normal(size=(300, 16))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_computation(m)
        times.append(time.perf_counter() - t0)
    return REF_MS / (statistics.median(times) * 1e3)


def run_units(wl, tracer, seconds=None, count=None, check=True, plant_fault=False):
    """Run units until `seconds` of measured time or `count` units; check each
    right after it ran (checks are not measured time)."""
    from workloads import Unit

    units = []
    busy = 0.0
    i = 0
    while (busy < seconds) if count is None else (i < count):
        t0 = time.perf_counter()
        try:
            unit = wl.run_unit(i, tracer, machine_factor)
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            unit = Unit([], [], 1, 0.0, dt, dt, "raised", failed=1)
        if check and unit.payload:
            if plant_fault and i == 0:
                wl.corrupt(unit)
            try:
                unit.failed = wl.check(unit)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                unit.failed = unit.ops
        unit.payload = {}
        busy += unit.seconds
        units.append(unit)
        i += 1
    return units


def setup_workload(name: str, seed: int, workdir: str, tracer):
    """Set up SETUP_REPEATS times (each with its warm-up unit); keep the last."""
    from workloads import WORKLOADS

    times, factors = [], []
    for _ in range(SETUP_REPEATS):
        factor = machine_factor()
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, workdir)
        wl.setup(tracer, machine_factor)
        times.append(time.perf_counter() - t0)
        factors.append((factor + machine_factor()) / 2)
    return wl, times, factors


def e2e_metrics(wl, units, setup_times, setup_factors) -> tuple[dict, list]:
    """The benchmark's end-to-end metrics (times scaled by the machine-speed
    factor) plus report rows, raw times included, under the names the
    workload's own users know them by."""
    def percentile(values, q: float) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    def summary(scaled: bool) -> dict:
        op_ms = [x * (g if scaled else 1.0) for u in units for x, g in zip(u.op_ms, u.op_factor)]
        seconds = sum(u.scaled_seconds if scaled else u.seconds for u in units)
        setup = [t * (g if scaled else 1.0) for t, g in zip(setup_times, setup_factors)]
        return {
            "setup_s": statistics.median(setup),
            "op_ms_p50": percentile(op_ms, 50),
            "op_ms_p90": percentile(op_ms, 90),
            "work_per_s": sum(u.work for u in units) / seconds if seconds else 0.0,
        }

    m, raw = summary(True), summary(False)
    n_ops = sum(len(u.op_ms) for u in units)
    ops = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (m["setup_s"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ms_p50": (m["op_ms_p50"], "ms"),
        "op_ms_p90": (m["op_ms_p90"], "ms"),
        "work_per_s": (m["work_per_s"], "1/s"),
    }
    factors = [g for u in units for g in u.op_factor]
    rows = [("machine_factor_p50", statistics.median(factors) if factors else 1.0, "ratio",
             len(factors))]
    for prefix, vals in (("", m), ("raw.", raw)):
        rows += [
            (prefix + "setup_s", vals["setup_s"], "s", len(setup_times)),
            (prefix + f"{wl.op_name}_p50", vals["op_ms_p50"], "ms", n_ops),
            (prefix + f"{wl.op_name}_p90", vals["op_ms_p90"], "ms", n_ops),
            (prefix + wl.work_name, vals["work_per_s"], "1/s", len(units)),
        ]
    rows += [("peak_rss_mb", rss_mb, "MB", 1),
             ("fail_frac", failed / ops if ops else 1.0, "ratio", ops)]
    if wl.name == "train_qa":
        extra = [u.extra for u in units if u.extra]
        rows += [
            ("dataset_load_s", statistics.median(e["load_s"] for e in extra), "s", len(extra)),
            ("stage1_steps_per_s",
             statistics.median(wl.STAGE_STEPS / e["stage1_s"] for e in extra), "1/s",
             len(extra)),
            ("stage2_steps_per_s",
             statistics.median(wl.STAGE_STEPS / e["stage2_s"] for e in extra), "1/s",
             len(extra)),
            ("decode_tokens_per_s", sum(e.get("decode_tokens", 0) for e in extra)
             / sum(e["answer_s"] for e in extra), "1/s", n_ops),
        ]
    return metrics, rows


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 plant_fault: bool = False) -> dict:
    """Run one workload; returns the result record (metrics, report rows, counts)."""
    from spans import Tracer, instrumented, layer_metrics

    tracer = Tracer()
    wl, setup_times, setup_factors = setup_workload(name, seed, workdir, tracer)
    if not trace:
        units = run_units(wl, tracer, seconds=seconds, plant_fault=plant_fault)
        metrics, rows = e2e_metrics(wl, units, setup_times, setup_factors)
        digests = [u.digest for u in units]
    else:
        untraced = run_units(wl, tracer, seconds=seconds / 2, plant_fault=plant_fault)
        tracer.op_id = 0
        with instrumented(tracer):
            traced = run_units(wl, tracer, count=len(untraced), check=False)
        # traced and untraced passes must produce bit-identical outputs
        for u, t in zip(untraced, traced):
            if t.digest != u.digest:
                u.failed = max(u.failed, 1)
        units = untraced
        n_ops = tracer.op_id  # rooms, steps or rounds: each workload counts its ops
        layers = layer_metrics(tracer, n_ops)
        t_un = sum(u.scaled_seconds for u in untraced)
        t_tr = sum(t.scaled_seconds for t in traced)
        layers["trace.overhead_frac"] = (t_tr - t_un) / t_un
        layers["trace.overhead_ms_per_op"] = (t_tr - t_un) * 1e3 / max(n_ops, 1)
        metrics = {k: (v, _unit_of(k)) for k, v in layers.items()}
        rows = [(k, v, u, n_ops) for k, (v, u) in metrics.items()]
        digests = [u.digest for u in untraced]
        out = BENCH_DIR / "out" / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(out, TRACE_MAX_SPANS)
        rows.append(("trace_file", str(out.relative_to(ROOT)), "", len(tracer.names)))
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    return {"workload": name, "metrics": metrics, "rows": rows, "attempted": attempted,
            "failed": failed, "units": len(units), "digests": digests}


def _unit_of(metric: str) -> str:
    if metric.endswith(("_ms", "_ms_per_call", "ms_per_op")) or ".ms_per_token" in metric:
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.startswith("share.") or metric.endswith("_frac"):
        return "ratio"
    return "count"


def roles(name: str, metrics: dict) -> list[str]:
    """The traced run's check of each workload's stated role."""
    share = {k[len("share."):]: v for k, (v, _) in metrics.items() if k.startswith("share.")}
    ranked = sorted(share, key=share.get, reverse=True)
    lines = ["layer shares: " + ", ".join(f"{k} {share[k]:.3f}" for k in ranked)]
    if name == "fusion":
        ok = set(ranked[:2]) == {"voxelizer", "worldsim"} and share["align"] == 0.0
        lines.append(f"role fusion (voxelizer and worldsim lead, align absent): "
                     f"{'confirmed' if ok else 'NOT confirmed'}")
    elif name == "train_qa":
        ok = ranked[0] == "align"
        lines.append(f"role train_qa (align leads): {'confirmed' if ok else 'NOT confirmed'}")
    self_sum = metrics["trace.self_sum_frac"][0]
    lines.append(f"self times sum to {self_sum:.9f} of traced wall time (slack 1e-6): "
                 f"{'ok' if abs(self_sum - 1) <= 1e-6 else 'FAILED'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fusion", "episode", "train_qa", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _require_checkout()

    names = ["fusion", "episode", "train_qa"] if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    print("provenance: " + " ".join(f"{k}={v!r}" for k, v in prov.items()))
    workdir = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), str(workdir))
            results.append(res)
            print(f"workload {name}: closed loop, 1 client, no think time; "
                  f"{res['units']} units, {res['attempted']} ops, {res['failed']} failed; "
                  f"output digest {res['digests'][0] if res['digests'] else '-'}")
            for key, value, unit, n in res["rows"]:
                shown = f"{value:.6g}" if isinstance(value, float) else value
                print(f"  {key:<52} {shown:>14} {unit:<6} (n={n})")
            if args.trace:
                for line in roles(name, res["metrics"]):
                    print("  " + line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    out = {"provenance": prov, "results": [
        {k: v for k, v in r.items() if k != "metrics"} | {"metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()}}
        for r in results]}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
