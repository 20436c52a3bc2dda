"""``repro serve`` with the span wrappers installed, for the traced serve-live run.

``python3 -m perfbench.serve_host <trace path> <repro serve flags...>``
installs the wrappers, runs :func:`repro.cli.main` with the same flags the
untraced run gives ``python -m repro.cli``, writes the spans to the trace
path and prints the per-layer metrics as the last stdout line, prefixed
with ``layers``.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    """Serve once under the tracer; see the module docstring."""
    from perfbench.tracer import Tracer, install, outcome_metrics

    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    with tracer.root() as root:
        status = repro_main(argv[1:])
    metrics = tracer.layer_metrics(root.wall_ns)
    if tracer.live_outcome is not None:
        metrics.update(outcome_metrics(tracer.live_outcome))
    tracer.write(argv[0], metrics)
    print("layers " + json.dumps(metrics), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
