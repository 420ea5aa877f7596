"""Run-to-run spread of the end-to-end metrics: several seeds per workload.

    python3 perfbench/spread.py --seeds 1-10 [--workloads topo-q,algebra] [--seconds 30] [--out FILE]

Run from the repository root.  Each (workload, seed) is one untraced
`run.py` run, one after the other.  For every metric it prints the median
of the runs and the spread, (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, which is what a metric's bound in
BENCHMARK.json is compared with.  With --out the summary and every run's
result line are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import workloads  # noqa: E402


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{name} seed {seed}: correct {result['correct']}, {result['failed']}/{result['attempted']} failed; {values}", flush=True)
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            metrics[metric] = summary([r["metrics"][metric]["value"] for r in runs]) | {"unit": first["unit"]}
            m = metrics[metric]
            print(f"  {name} {metric}: median {m['median']:.4g} {m['unit']}, spread {100 * m['spread']:.1f} %", flush=True)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "runs": runs,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
