"""One frozen-workload repetition in a fresh interpreter.

Started by :mod:`perfbench.run` as ``python3 -m perfbench.child <mode>
<spec json> <seed> [trace path]``.  It imports the system, generates and
freezes the input and builds the backend, then writes ``ready`` to stdout:
the parent's clock from spawn to that line is ``setup_s``.  In ``setup``
mode it exits there.  In ``run`` and ``trace`` modes it runs the workload,
writes ``result <n>`` and an ``n``-byte pickle of the outcome, and waits for
its stdin to close, so the parent can read this process's peak resident
set from ``/proc`` before it exits.  ``trace`` mode installs the span
wrappers first and also writes the spans to the given path.
"""

from __future__ import annotations

import contextlib
import pickle
import sys
import time


def main(argv) -> int:
    """Entry point (see the module docstring for the protocol)."""
    mode, spec_json, seed = argv[0], argv[1], int(argv[2])
    tracer = None
    if mode == "trace":
        from perfbench.tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from perfbench.workloads import WorkloadSpec, build_workload

    spec = WorkloadSpec.from_json(spec_json)
    out = sys.stdout.buffer
    with tracer.root() if tracer is not None else contextlib.nullcontext() as root:
        workload = build_workload(spec, seed)
        if spec.backend == "sim":
            from repro.runtime.sim import SimBackend

            backend = SimBackend()
        else:
            from repro.runtime.procs import ProcBackend

            backend = ProcBackend(num_workers=1)
        out.write(b"ready\n")
        out.flush()
        if mode == "setup":
            return 0
        with backend:
            started = time.perf_counter()
            outcome = backend.run(workload)
            wall = time.perf_counter() - started
    result = {
        "wall": wall,
        "messages": workload.messages,
        "result": outcome.merge.result,
        "shard_batches": outcome.shard_batches,
        "cycles_broken": outcome.merge.cycles_broken,
        "worker_restarts": int(outcome.details.get("worker_restarts", 0)),
    }
    if tracer is not None:
        from perfbench.tracer import outcome_metrics

        metrics = tracer.layer_metrics(root.wall_ns)
        metrics.update(outcome_metrics(outcome))
        tracer.write(argv[3], metrics)
        result["layers"] = metrics
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    out.write(b"result %d\n" % len(payload))
    out.write(payload)
    out.flush()
    sys.stdin.read()  # the parent closes stdin once it has read our peak RSS
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
