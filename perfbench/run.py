"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-cyclic --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` also runs one traced repetition and reports the per-layer
metrics instead, writing the spans to ``perfbench/out/``.  Every
repetition's output is checked (see :mod:`perfbench.checks`); the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: every end-to-end metric, with its unit
END_TO_END_UNITS: Dict[str, str] = {
    "throughput_msgs_per_s": "msgs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ras_normalized": "ratio",
    "ack_p50_ms": "ms",
}

#: fresh-interpreter set-ups timed per run (repetitions count towards it)
SETUP_SAMPLES = 5
#: repetitions per untraced run, however long one takes (the median of two
#: damps this host's slow swings in CPU speed on the 15 s sim-cyclic runs)
MIN_REPS = 2
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150.0


class RunFailed(Exception):
    """A repetition could not complete (as opposed to a wrong output)."""


def _child_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(extra)
    return env


def _spawn(argv: Sequence[str], text: bool = False, **extra_env: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=_child_env(**extra_env),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=text,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.daemon = True
    watchdog.start()
    process.watchdog = watchdog  # type: ignore[attr-defined]
    return process


def _reap(process: subprocess.Popen) -> Tuple[int, float]:
    """Wait for ``process``; return its exit code and peak RSS in MB."""
    if process.stdin is not None:
        process.stdin.close()
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    process.watchdog.cancel()  # type: ignore[attr-defined]
    process.stdout.close()
    return process.returncode, usage.ru_maxrss / 1024.0


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, read from outside it."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed(f"no VmHWM for pid {pid}")


def _repeat(run_once, seconds: float, min_reps: int) -> List[Dict[str, object]]:
    """Run ``run_once`` at least ``min_reps`` times, then while another fits in ``seconds``."""
    reps: List[Dict[str, object]] = []
    started = time.perf_counter()
    while True:
        reps.append(run_once())
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            return reps


# ------------------------------------------------------------------ frozen
def _frozen_child(spec, seed: int, mode: str, trace_path: str = "") -> Dict[str, object]:
    """Spawn one child; time its set-up; collect its outcome and peak RSS."""
    argv = ["-m", "perfbench.child", mode, spec.to_json(), str(seed)]
    if trace_path:
        argv.append(trace_path)
    spawned = time.perf_counter()
    process = _spawn(argv)
    try:
        if process.stdout.readline() != b"ready\n":
            raise RunFailed(f"{spec.name} child exited before set-up finished")
        rep: Dict[str, object] = {"setup_s": time.perf_counter() - spawned}
        if mode != "setup":
            header = process.stdout.readline().split()
            if len(header) != 2 or header[0] != b"result":
                raise RunFailed(f"{spec.name} child exited before returning an outcome")
            rep.update(pickle.loads(process.stdout.read(int(header[1]))))
            rep["peak_rss_mb"] = _peak_rss_mb(process.pid)
    finally:
        code, _ = _reap(process)
    if code != 0:
        raise RunFailed(f"{spec.name} child exited with code {code}")
    return rep


def _merge_oracle(spec, workload, reference: Dict[str, object]):
    """Fingerprint the oracle for a frozen workload, computed apart from the run.

    ``sim-cyclic``: the offline :meth:`CrossShardMerger.merge` over the
    run's own shard batches.  ``procs-acyclic``: :class:`SimBackend` on the
    same frozen workload, generated again in this process.
    """
    from perfbench.checks import fingerprint, message_index

    if spec.backend == "sim":
        from repro.cluster.merge import CrossShardMerger
        from repro.core.probability import PrecedenceModel

        config = workload.config
        model = PrecedenceModel(
            method=config.probability_method, convolution_points=config.convolution_points
        )
        for client_id, distribution in workload.client_distributions.items():
            model.register_client(client_id, distribution)
        merger = CrossShardMerger(
            model,
            threshold=config.threshold,
            cycle_policy=config.cycle_policy,
            seed=config.seed if config.seed is not None else 0,
        )
        merged = merger.merge(reference["shard_batches"])
        index = message_index(reference["messages"])
        return fingerprint(merged.result.batches, index), "offline CrossShardMerger.merge"
    from repro.runtime.sim import SimBackend

    outcome = SimBackend().run(workload)
    index = message_index(workload.messages)
    return fingerprint(outcome.merge.result.batches, index), "SimBackend"


def _ras(result, messages) -> float:
    from repro.metrics.ras import rank_agreement_score

    return rank_agreement_score(result, messages).normalized_score


def measure_frozen(
    spec, seed: int, seconds: float, trace: bool, min_reps: int, setup_samples: int
) -> Dict[str, object]:
    """Repeat fresh-interpreter runs of a frozen workload for ``seconds``."""
    from perfbench.checks import check_frozen_run, missing_count, same_inputs
    from perfbench.workloads import build_workload

    reps = _repeat(lambda: _frozen_child(spec, seed, "run"), seconds, min_reps)
    setups = [rep["setup_s"] for rep in reps]
    traced = None
    if trace:
        traced = _frozen_child(spec, seed, "trace", str(_trace_path(spec, seed)))
    else:
        while len(setups) < setup_samples:
            setups.append(_frozen_child(spec, seed, "setup")["setup_s"])

    workload = build_workload(spec, seed)
    oracle, oracle_name = _merge_oracle(spec, workload, reps[0])
    problems: List[str] = []
    attempted = failed = 0
    for rep in reps + ([traced] if traced is not None else []):
        rep["ras"] = _ras(rep["result"], rep["messages"])
        problems += same_inputs(rep["messages"], workload.messages)
        problems += check_frozen_run(
            rep["result"].batches,
            rep["shard_batches"],
            rep["messages"],
            oracle,
            oracle_name,
            rep["ras"],
            rep["cycles_broken"],
            spec.cycles,
            rep["worker_restarts"],
        )
        attempted += len(rep["messages"])
        failed += missing_count(rep["result"].batches, rep["messages"])

    walls = [rep["wall"] for rep in reps]
    if traced is not None:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall"] - statistics.median(walls)
        metrics = layers
    else:
        metrics = {
            "throughput_msgs_per_s": statistics.median(
                len(rep["messages"]) / rep["wall"] for rep in reps
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "ras_normalized": statistics.median(rep["ras"] for rep in reps),
            # not a per-message latency: a frozen run acks its whole batch at
            # once when run() returns, so this is the median repetition's
            # wall, messages / throughput under another name
            "ack_p50_ms": statistics.median(walls) * 1e3,
        }
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


# -------------------------------------------------------------------- serve
async def _drive(port: int, slices: Sequence[Sequence], spawned: float) -> Dict[str, object]:
    """Closed loops, one per connection: send, await MSG_ACK, send the next."""
    from repro.edge.client import EdgeClient

    clients = [
        await EdgeClient.connect("127.0.0.1", port, source=f"perfbench-{index}")
        for index in range(len(slices))
    ]
    ready = time.perf_counter()
    latencies: List[float] = []
    admitted = 0

    async def feed(client, messages) -> None:
        nonlocal admitted
        clock = time.perf_counter
        for message in messages:
            sent = clock()
            ack = await client.send_message(message)
            latencies.append(clock() - sent)
            admitted += bool(ack.get("admitted"))
        await client.close()

    first = time.perf_counter()
    await asyncio.gather(*(feed(client, messages) for client, messages in zip(clients, slices)))
    return {
        "setup_s": ready - spawned,
        "first": first,
        "latencies": latencies,
        "admitted": admitted,
        "sent": sum(len(messages) for messages in slices),
    }


def _serve_summary(process: subprocess.Popen) -> Tuple[Dict[str, str], float, List[str]]:
    """Read serve's stdout up to the summary row; time its arrival."""
    lines: List[str] = []
    for line in process.stdout:
        lines.append(line)
        if len(lines) >= 3 and lines[-3].startswith("runtime") and lines[-2].startswith("---"):
            printed = time.perf_counter()
            row = dict(zip(lines[-3].split(), line.split()))
            return row, printed, lines + process.stdout.readlines()
    raise RunFailed("serve exited without printing its summary")


def _serve_rep(argv: Sequence[str], slices: Sequence[Sequence]) -> Dict[str, object]:
    spawned = time.perf_counter()
    process = _spawn(argv, text=True, PYTHONUNBUFFERED="1")
    try:
        listening = process.stdout.readline()
        if not listening.startswith("listening on "):
            raise RunFailed(f"serve did not start: {listening!r}")
        port = int(listening.rsplit(":", 1)[1])
        rep = asyncio.run(_drive(port, slices, spawned))
        row, printed, lines = _serve_summary(process)
    except BaseException:
        process.kill()
        raise
    finally:
        code, peak_rss_mb = _reap(process)
    if code != 0:
        raise RunFailed(f"serve exited with code {code}")
    rep.update(row=row, wall=printed - rep["first"], peak_rss_mb=peak_rss_mb)
    for line in lines:
        if line.startswith("layers "):
            rep["layers"] = json.loads(line[len("layers "):])
    return rep


def measure_serve(
    spec, seed: int, seconds: float, trace: bool, min_reps: int, setup_samples: int
) -> Dict[str, object]:
    """Repeat ``repro serve`` runs over loopback for ``seconds``."""
    from perfbench.checks import check_exactly_once, check_ras, serve_digest
    from perfbench.workloads import build_workload, connection_slices, serve_args
    from repro.runtime.sim import SimBackend

    workload = build_workload(spec, seed)
    slices = connection_slices(workload)
    # the oracle: SimBackend on the very messages the generator sends
    oracle = SimBackend().run(workload)
    digest = serve_digest(oracle.merge)
    ras = _ras(oracle.merge.result, workload.messages)
    problems = check_exactly_once(oracle.merge.result.batches, workload.messages)
    flags = serve_args(spec)

    reps = _repeat(lambda: _serve_rep(["-m", "repro.cli", *flags], slices), seconds, min_reps)
    traced = None
    if trace:
        host = ["-m", "perfbench.serve_host", str(_trace_path(spec, seed)), *flags]
        traced = _serve_rep(host, slices)
    setups = [rep["setup_s"] for rep in reps]
    if not trace:
        while len(setups) < setup_samples:
            setups.append(_serve_rep(["-m", "repro.cli", *flags], [[] for _ in slices])["setup_s"])

    attempted = failed = 0
    for rep in reps + ([traced] if traced is not None else []):
        row = rep["row"]
        sequenced = int(row["messages"])
        if row["fingerprint"] != digest:
            problems.append(f"serve digest {row['fingerprint']} != SimBackend digest {digest}")
        if rep["admitted"] != rep["sent"] or sequenced != rep["sent"]:
            problems.append(
                f"sent {rep['sent']} frames, {rep['admitted']} admitted, {sequenced} sequenced"
            )
        if int(row["late"]) or int(row["duplicates"]):
            problems.append(f"{row['late']} late arrival(s), {row['duplicates']} duplicate(s)")
        attempted += rep["sent"]
        failed += rep["sent"] - min(rep["admitted"], sequenced)
    problems += check_ras(ras)

    walls = [rep["wall"] for rep in reps]
    if traced is not None:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall"] - statistics.median(walls)
    else:
        metrics = {
            "throughput_msgs_per_s": statistics.median(
                rep["sent"] / rep["wall"] for rep in reps
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "ras_normalized": ras,
            "ack_p50_ms": statistics.median(x for rep in reps for x in rep["latencies"]) * 1e3,
        }
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _trace_path(spec, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"trace-{spec.name}-seed{seed}.json"


# --------------------------------------------------------------------- main
def measure(
    spec,
    seed: int,
    seconds: float,
    trace: bool,
    min_reps: int = MIN_REPS,
    setup_samples: int = SETUP_SAMPLES,
) -> Dict[str, object]:
    """Measure ``spec`` and return the result object the CLI prints.

    A traced run needs one untraced repetition only, as the base of
    ``trace.overhead_s``.
    """
    from perfbench.tracer import PER_LAYER_UNITS

    measure_workload = measure_serve if spec.backend == "serve" else measure_frozen
    outcome = measure_workload(
        spec, seed, seconds, trace, 1 if trace else min_reps, setup_samples
    )
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
        "problems": outcome["problems"],
    }


def build_parser() -> argparse.ArgumentParser:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, measure, print; exit 1 when an output check failed."""
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
