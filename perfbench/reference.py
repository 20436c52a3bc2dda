"""Regenerate the reference figures in ``perfbench/README.md``.

Usage, from the repository root::

    python3 perfbench/reference.py [--seeds 1 2 3] [--seconds 15] [--scan 1-13]

Runs every workload untraced and traced through ``perfbench/run.py`` and
prints markdown tables: the end-to-end medians with their quartile spread
over the seeds, and the per-layer figures of one traced run each.  With
``--scan`` it also runs the 128 x 16 x 8 scenario for each listed scenario
seed on ``SimBackend`` and reports which merges break cycles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    return result


def _spread(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / abs(median):.1%}"


def end_to_end_table(workloads, seeds, seconds) -> str:
    """Median and quartile spread of every end-to-end metric over ``seeds``."""
    lines = [
        "| workload | metric | median | IQR / median | runs |",
        "| --- | --- | --- | --- | --- |",
    ]
    for workload in workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        for name, entry in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            lines.append(
                f"| {workload} | {name} ({entry['unit']}) | {statistics.median(values):.4g} "
                f"| {_spread(values)} | {len(values)} |"
            )
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        elapsed = [run["elapsed_s"] for run in runs]
        lines.append(
            f"| {workload} | failed / attempted; run length (s) | {failed} / {attempted} "
            f"| median {statistics.median(elapsed):.0f}, max {max(elapsed):.0f} | {len(runs)} |"
        )
    return "\n".join(lines)


def per_layer_table(workloads, seed, seconds) -> str:
    """One traced run per workload, per-layer metrics side by side."""
    runs = {workload: _run(workload, seed, seconds, 1) for workload in workloads}
    names = list(next(iter(runs.values()))["metrics"])
    lines = [
        "| metric | " + " | ".join(workloads) + " |",
        "| --- |" + " --- |" * len(workloads),
    ]
    for name in names:
        cells = [f"{runs[workload]['metrics'][name]['value']:.4g}" for workload in workloads]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def seed_scan(seeds) -> str:
    """Cycles broken and wall per scenario seed at the cyclic shape."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import dataclasses

    from perfbench.workloads import WORKLOADS, build_workload
    from repro.runtime.sim import SimBackend

    lines = [
        "| scenario seed | cycles broken | wall (s) | merge finalize (s) |",
        "| --- | --- | --- | --- |",
    ]
    for scenario_seed in seeds:
        spec = dataclasses.replace(WORKLOADS["sim-cyclic"], scenario_seed=scenario_seed)
        outcome = SimBackend().run(build_workload(spec, 0))
        lines.append(
            f"| {scenario_seed} | {outcome.merge.cycles_broken} | {outcome.wall_seconds:.1f} "
            f"| {outcome.merge.wall_seconds:.2f} |"
        )
    return "\n".join(lines)


def main() -> int:
    """Print the README's reference tables."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--scan", default="", help="scenario seeds to scan, e.g. 1-13")
    args = parser.parse_args()
    workloads = ["sim-cyclic", "procs-acyclic", "serve-live"]
    started = time.perf_counter()
    if args.scan:
        first, _, last = args.scan.partition("-")
        print(seed_scan(range(int(first), int(last or first) + 1)), end="\n\n", flush=True)
    print(end_to_end_table(workloads, args.seeds, args.seconds), end="\n\n", flush=True)
    print(per_layer_table(workloads, args.seeds[0], args.seconds), flush=True)
    print(f"\n({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
