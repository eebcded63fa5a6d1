"""stratfit benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run_bench.py --workload normal-cli --seed 1 --seconds 15 --trace 0

Prints the environment and every metric as comment lines, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exit status: 0 when every answer matches the reference, 1 when one does
not (the timings are then not valid), 2 when the library cannot be loaded.
See bench/README.md for the workloads and metrics.
"""

import os
import sys

# Single-threaded BLAS and no library thread pool, pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STRATFIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("normal-cli", "recovery-small", "tobit", "nine-strata-topk")


def load_library() -> None:
    """Import stratfit from this checkout's src/, never from elsewhere."""
    package = SRC / "stratfit"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no stratfit package at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import stratfit

    if Path(stratfit.__file__).resolve().parent != package.resolve():
        raise ImportError(f"stratfit resolved to {stratfit.__file__}, not {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting passes until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot load stratfit: {exc}", file=sys.stderr)
        return 2
    import measure

    report = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print("# env " + json.dumps(report.info, sort_keys=True))
    for name, value in sorted(report.printed.items()):
        unit = {**measure.END_TO_END, **measure.PER_LAYER}.get(name, "s")
        print(f"# {name} = {value!r} {unit}")
    print(f"# attempted = {report.attempted}, failed = {report.failed}")
    for problem in report.problems:
        print(f"# WRONG ANSWER: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
