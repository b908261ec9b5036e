"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 cvbench/steadiness.py --workload short_paths --seeds 101 102 103 104 105

Runs the benchmark untraced once per seed, one run at a time, and prints
each end-to-end metric's median and its spread (Q3 - Q1) / median over
the runs, next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from cvbench.formulas import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("the spread needs at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = [
            sys.executable,
            *spec["command"][1:],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, correct={result['correct']}")
            return 1
        runs.append(result)
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}", flush=True)
    print(f"{'metric':<24}{'median':>14}{'spread':>10}{'bound':>8}  values")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        mid = median(values)
        spread = quartile_spread(values) if mid else float("nan")
        bound = bounds.get(name)
        print(
            f"{name:<24}{mid:>14.6g}{spread:>10.4f}{'' if bound is None else bound:>8}  "
            + " ".join(f"{v:.5g}" for v in values)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
