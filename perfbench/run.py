"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep, regions, queries, engine (see BENCHMARK.json and
perfbench/README.md).  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  Run from the root of a source tree;
linksig is imported from its src/.
"""

import argparse
import json
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (this file's directory is sys.path[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "linksig" / "__init__.py").is_file():
        print(f"run.py: no linksig sources under {workloads.SRC}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT)
    try:
        result = workloads.WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.Path(workdir)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in result.notes:
        print(note, file=sys.stderr)
    units = workloads.declared_units(bool(args.trace))
    if set(units) != set(result.metrics):
        raise SystemExit(f"run.py: metrics {sorted(set(units) ^ set(result.metrics))} "
                         "are declared in BENCHMARK.json but not measured, or the reverse")
    line = {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }
    print(f"{args.workload}: error_rate={result.failed / result.attempted:.6g} "
          f"({result.failed}/{result.attempted} ops failed)")
    if result.raw:
        print("unpaced: " + " ".join(f"{k}={v:.6g}" for k, v in result.raw.items()))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
