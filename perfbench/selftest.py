"""Self-tests of the benchmark itself; exits 1 if any fails.

    python3 perfbench/selftest.py [--workload NAME]

For each workload, on a few units:
  * the same seed gives the same output digests, a different seed gives
    different inputs;
  * a planted corrupt output is caught and counted in fail_frac;
  * traced and untraced runs produce bit-identical output digests.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run

UNITS = {"fusion": 2, "episode": 3, "train_qa": 1}


def _units(name: str, seed: int, workdir: str, traced: bool = False):
    from spans import Tracer, instrumented
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir)
    tracer = Tracer()
    wl.setup(tracer, run.machine_factor)
    if not traced:
        return wl, run.run_units(wl, tracer, count=UNITS[name])
    with instrumented(tracer):
        return wl, run.run_units(wl, tracer, count=UNITS[name], check=False)


def selftest(name: str, workdir: str) -> list[str]:
    problems = []
    wl_a, first = _units(name, 5, workdir)
    _, again = _units(name, 5, workdir)
    if [u.digest for u in first] != [u.digest for u in again]:
        problems.append("same seed gave different output digests")
    wl_b, _ = _units(name, 6, workdir)
    if wl_a.input_digest(0) == wl_b.input_digest(0):
        problems.append("seeds 5 and 6 gave the same inputs")

    _, traced = _units(name, 5, workdir, traced=True)
    if [u.digest for u in traced] != [u.digest for u in first]:
        problems.append("traced run changed the output digests")

    clean = run.run_workload(name, 5, 1e-3, False, workdir)
    planted = run.run_workload(name, 5, 1e-3, False, workdir, plant_fault=True)
    frac = {key: value for key, value, _, _ in planted["rows"]}["fail_frac"]
    # a clean unit can fail too (a program defect); then the planted fault
    # must still be counted, so it may not lower the failure count
    caught = planted["failed"] > clean["failed"] or planted["failed"] == clean["failed"] == 1
    if not (caught and frac > 0):
        problems.append(f"planted fault not counted: failed {clean['failed']} -> "
                        f"{planted['failed']}, fail_frac {frac}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(UNITS), action="append")
    args = parser.parse_args()
    run._require_checkout()
    workdir = run.BENCH_DIR / ".work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    failed = False
    try:
        for name in args.workload or sorted(UNITS):
            problems = selftest(name, str(workdir))
            failed |= bool(problems)
            print(f"{name}: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)),
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
