"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/seeds.py --workload catalog6-map-matrix --seeds 1-10 [--trace 1] [--out runs.json]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, which is how the benchmark's bounds are judged.  Runs use the
``run_seconds`` of ``BENCHMARK.json`` and run one after another, so they do
not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
        spread = summary[name]["spread"]
        print(f"{name:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread "
              + ("-" if spread is None else f"{spread:.4f}"))
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                              "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
