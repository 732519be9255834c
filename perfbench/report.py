"""Run every workload through run.py and print each metric by name and unit.

    python3 perfbench/report.py                  # one run of each workload
    python3 perfbench/report.py --trace          # the traced run of each
    python3 perfbench/report.py --runs 10 --out perfbench/steadiness.json

With --runs N each workload runs N times, seed 1..N, and the report gives
the median, the quartiles and the spread (q3 - q1) / median of every
end-to-end metric, flagging a spread above a tenth of the median or above
a third of the metric's bound.  Run from the root of a source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The names the metrics go by on each workload: (name, unit, scale).
ALIASES = {
    ("queries", "items_per_s"): ("queries_per_s", "1/s", 1),
    ("queries", "op_p50_ms"): ("query_p50_ms", "ms", 1),
    ("queries", "op_p90_ms"): ("query_p90_ms", "ms", 1),
    ("engine", "items_per_s"): ("evals_per_s", "1/s", 1),
    ("engine", "op_p50_ms"): ("eval_p50_us", "us", 1000),
    ("engine", "op_p90_ms"): ("eval_p90_us", "us", 1000),
}


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_run(workload: str, line: dict) -> None:
    rate = line["failed"] / line["attempted"]
    print(f"{workload}: correct={line['correct']} error_rate={rate:.6g} ratio "
          f"({line['failed']}/{line['attempted']})")
    for name, m in line["metrics"].items():
        alias, unit, scale = ALIASES.get((workload, name), (name, m["unit"], 1))
        print(f"  {alias} = {m['value'] * scale:.6g} {unit}")


def steadiness(spec: dict, runs: dict[str, list[dict]]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload, lines in runs.items():
        record[workload] = {
            "runs": len(lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {},
        }
        for name in bounds:
            values = [line["metrics"][name]["value"] for line in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            record[workload]["metrics"][name] = {
                "values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name],
                "flag_over_tenth": spread > 0.1,
                "flag_over_third_of_bound": spread > bounds[name] / 3,
            }
    return record


def compare(spec: dict, before: dict, after: dict) -> None:
    """Print each median's change, signed so that positive means worse."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload, rec in after.items():
        for name, s in rec["metrics"].items():
            old = before[workload]["metrics"][name]["median"]
            worse = (s["median"] - old) / old * (1 if better[name] == "lower" else -1)
            verdict = "within bound" if worse <= s["bound"] else "OUTSIDE BOUND"
            print(f"{workload} {name}: {old:.6g} -> {s['median']:.6g}, "
                  f"worse by {worse:+.4f} ({verdict})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append", help="default: all of them")
    parser.add_argument("--out", help="write the steadiness record here (with --runs)")
    parser.add_argument("--against", help="a record from an earlier --runs: report how far "
                        "each median moved, as a share of the earlier median")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {}
    for workload in names:
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            line = run_once(spec, workload, seed, args.trace)
            runs[workload].append(line)
            if args.runs == 1:
                print_run(workload, line)
    if args.runs > 1:
        record = steadiness(spec, runs)
        for workload, rec in record.items():
            print(f"{workload}: {rec['runs']} runs, {rec['failed']} failed ops")
            for name, s in rec["metrics"].items():
                flag = " FLAG" if s["flag_over_tenth"] or s["flag_over_third_of_bound"] else ""
                print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
        if args.against:
            compare(spec, json.loads(Path(args.against).read_text(encoding="utf-8")), record)
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
