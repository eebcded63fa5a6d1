"""Record the answers the benchmark checks against, at the current commit.

Usage (from the repository root):

    python3 bench/record_reference.py --size full --workload tobit

Runs one untraced pass per data seed (0 .. N_REF_SEEDS-1) and stores, per
analysis, the winner's loglik, mapping id, tie ids, EM iterations and effect
SEs, plus the recovery study's fractions, in bench/reference.json. Only run
this at a commit whose answers are the baseline; a change that claims a
gain must not re-record.
"""

import argparse
import fcntl
import json
import shutil
import sys

import run_bench

run_bench.load_library()

import measure  # noqa: E402
import workloads as wl  # noqa: E402


def record(size: str, name: str, seeds) -> dict:
    out = {}
    for seed in seeds:
        work_dir = measure.WORK_ROOT / f"record-{size}-{name}-{seed}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            inputs = wl.build_inputs(name, seed, str(work_dir), size)
            track, result, _ = measure.one_pass(inputs)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        out[str(seed)] = wl.reference_record(inputs, result)
        failed = [a.error for a in result.analyses if not a.ok]
        print(f"{size} {name} seed {seed}: {track.wall():.2f} s, failed {failed}", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seeds", type=int, default=wl.N_REF_SEEDS)
    args = parser.parse_args()
    entries = record(args.size, args.workload, range(args.seeds))
    measure.REFERENCE.touch()
    with open(measure.REFERENCE, "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        text = fh.read()
        data = json.loads(text) if text.strip() else {}
        data.setdefault(args.size, {})[args.workload] = entries
        fh.seek(0)
        fh.truncate()
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
