"""cvmc benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 cvbench/run.py --workload short_paths --seed 1 --seconds 20 --trace 0

The workload's inputs are drawn from ``--seed``. Passes of the workload
repeat until ``--seconds`` have elapsed (at least two, so that
bit-identical reruns can be checked). With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics instead. Human-readable lines, the provenance of the
run and every metric are printed before it and written to
``.cvbench_out/``. The exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".cvbench_out"
SETUP_PROBES = 5
MIN_PASSES = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_seconds(workload: str, scenario_path) -> float:
    """Median of SETUP_PROBES cold set-ups, each in a fresh interpreter and
    at reference speed by the speed probe that follows it."""
    from cvbench import speed

    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(ROOT / "cvbench" / "setup_probe.py"), workload, str(scenario_path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"cvbench: set-up probe failed with exit code {done.returncode}")
        seconds, probe_s = map(float, done.stdout.split()[-2:])
        samples.append(speed.at_reference_speed(seconds, probe_s))
    return statistics.median(samples)


def measure(workload, scenario_path, seed: int, seconds: float, tracer=None):
    """Run passes until `seconds` have elapsed; with a tracer, every
    untraced pass is followed by a traced one."""
    untraced, traced = [], []
    started = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - started < seconds:
        untraced.append(workload.run_pass(scenario_path, seed))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced_pass = workload.run_pass(scenario_path, seed, tracer)
            finally:
                tracer.uninstall()
            traced_pass.spans, traced_pass.counters = tracer.spans, tracer.counters
            traced.append(traced_pass)
    return untraced, traced


def emit(result: dict) -> None:
    """Print the human-readable lines, then the last-line JSON result."""
    print(f"workload {result['provenance']['workload']}: {result['why']}")
    print(f"provenance {json.dumps(result['provenance'])}")
    notes = result["notes"]
    for name, metric in result["end_to_end"].items():
        count = f"  (n = {notes['latency_samples']})" if name == "estimate_ms_p50" else ""
        print(f"  {name:<24} {_value(metric)}{count}")
    for name, value in notes.items():
        print(f"  {name:<24} {value}")
    for name, metric in result["per_layer"].items():
        label = " (computed)" if name in result["computed_counts"] else ""
        print(f"  {name:<24} {'absent' if metric.get('absent') else _value(metric)}{label}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))


def _value(metric: dict) -> str:
    return "none" if metric["value"] is None else f"{metric['value']:.6g} {metric['unit']}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "cvmc" / "__init__.py").is_file():
        print(f"cvbench: no cvmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from cvbench import layers, metrics, provenance
    from cvbench.spans import Tracer
    from cvbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"cvbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    scenario_path = OUT / f"scenario-{stem}.yaml"
    scenario_path.write_text(workload.scenario_yaml(args.seed), encoding="utf-8")

    setup_s = _setup_seconds(workload.name, scenario_path)
    workload.set_up(scenario_path)
    tracer = Tracer(layers.ENTRY_POINTS) if args.trace else None
    untraced, traced = measure(workload, scenario_path, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "provenance": provenance.collect(ROOT, workload.name, args.seed),
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        **metrics.summarise(workload, untraced, traced, setup_s, peak_rss_mb, tracer.absent if tracer else set()),
    }
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if traced:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as handle:
            for index, one in enumerate(traced):
                for span in one.spans:
                    handle.write(json.dumps({"pass": index, **asdict(span)}) + "\n")
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
