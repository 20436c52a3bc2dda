"""Span tracing around the public calls of each layer, from outside ``src/``.

:func:`install` replaces a fixed set of public functions and methods with
wrappers that open a span on entry and close it on return.  A span records
its name, start, end and parent (the span open on the same thread when it
began; the root span for a thread with none open).  Spans stay in memory
and are written out by :meth:`Tracer.write` when the traced run ends.

A layer's self time is the sum over its spans of duration minus the time
their child spans cover.  Children nest inside their parent on one thread,
so the covered time is the sum of the children's durations.  A call into a
layer made while a span of that same layer is already open (for example
``add_messages`` calling ``add_message``) opens no span of its own, so
calls are counted once at the layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, class or None for a module function, attributes)
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("workloads.generate", "repro.workloads.cluster", None, ("build_cluster_scenario",)),
    ("workloads.generate", "repro.runtime.base", "ClusterWorkload", ("from_scenario",)),
    ("edge.decode", "repro.edge.protocol", "FrameDecoder", ("feed",)),
    ("live.submit", "repro.runtime.live", "LiveDispatcher", ("submit",)),
    ("live.advance", "repro.runtime.live", "LiveDispatcher", ("advance",)),
    ("live.finish", "repro.runtime.live", "LiveDispatcher", ("finish",)),
    ("intake.admit", "repro.cluster.intake", "IntakeDedupeGate", ("is_duplicate", "admit")),
    (
        "cluster.receive",
        "repro.cluster.sharded",
        "ShardedSequencer",
        ("receive", "receive_at", "receive_many", "receive_many_at"),
    ),
    ("online.receive", "repro.core.online", "OnlineTommySequencer", ("receive", "receive_many")),
    (
        "engine.append",
        "repro.core.engine",
        "IncrementalPrecedenceEngine",
        ("add_message", "add_messages"),
    ),
    (
        "emission.check",
        "repro.core.engine",
        "IncrementalPrecedenceEngine",
        ("first_tentative_group",),
    ),
    ("emission.check", "repro.core.online", "OnlineTommySequencer", ("safe_emission_time",)),
    ("merge.observe", "repro.cluster.merge", "StreamingMerger", ("observe_batch",)),
    ("merge.finalize", "repro.cluster.merge", "StreamingMerger", ("result",)),
    # the coordinator's own time: its run() minus the observe/finalize spans
    ("procs.coordinator_wait", "repro.runtime.procs", "ProcBackend", ("run",)),
)

#: layers whose span counts are reported as ``<layer>_calls``
COUNTED_LAYERS = (
    "edge.decode",
    "live.advance",
    "cluster.receive",
    "online.receive",
    "engine.append",
    "emission.check",
    "merge.observe",
)

#: every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{name}_s": "s" for name in dict.fromkeys(layer[0] for layer in LAYERS)},
    **{f"{name}_calls": "count" for name in COUNTED_LAYERS},
    "intake.admitted": "count",
    "intake.duplicates_rejected": "count",
    "merge.cross_pairs_evaluated": "count",
    "merge.cross_pairs_pruned": "count",
    "merge.pruned_fraction": "ratio",
    "merge.cycles_broken": "count",
    "procs.worker_busy_s": "s",
    "sim.loop_events": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("span_id", "parent", "name", "start", "child_ns")

    def __init__(self, span_id: int, parent: Optional["_Span"], name: str, start: int) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child_ns = 0


class Tracer:
    """In-memory span recorder with per-layer self-time aggregation."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Optional[_Span] = None
        #: finished spans: (id, parent id, name, start ns, end ns)
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {
            "intake.admitted": 0,
            "intake.duplicates_rejected": 0,
        }
        #: the outcome LiveDispatcher.finish returned (serve-live's run)
        self.live_outcome = None

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = _Span(next(self._ids), parent, name, time.perf_counter_ns())
        stack.append(span)
        return span

    def _close(self, span: _Span) -> int:
        end = time.perf_counter_ns()
        self._stack().pop()
        duration = end - span.start
        parent = span.parent
        self.spans.append(
            (span.span_id, parent.span_id if parent is not None else 0, span.name, span.start, end)
        )
        if parent is not None:
            if parent is self._root:
                with self._lock:  # the root gathers children from every thread
                    parent.child_ns += duration
            else:
                parent.child_ns += duration
        if span is not self._root:
            self.self_ns[span.name] = self.self_ns.get(span.name, 0) + duration - span.child_ns
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
        return duration

    def root(self, name: str = "traced") -> "_RootContext":
        """Context manager for the span every other span descends from."""
        return _RootContext(self, name)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, on_result) -> object:
        """Run ``fn`` inside a ``name`` span (or directly when re-entrant)."""
        stack = self._stack()
        if stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if on_result is not None:
            on_result(self, args, result)
        return result

    def count(self, name: str, value: int = 1) -> None:
        """Add to a named counter."""
        self.counts[name] = self.counts.get(name, 0) + value

    def layer_metrics(self, wall_ns: int) -> Dict[str, float]:
        """Self times, call counts and the unattributed rest of ``wall_ns``."""
        metrics: Dict[str, float] = {}
        for name in dict.fromkeys(layer[0] for layer in LAYERS):
            metrics[f"{name}_s"] = self.self_ns.get(name, 0) / 1e9
        for name in COUNTED_LAYERS:
            metrics[f"{name}_calls"] = self.calls.get(name, 0)
        metrics.update(self.counts)
        attributed = sum(self.self_ns.values())
        metrics["trace.wall_s"] = wall_ns / 1e9
        metrics["trace.unattributed_s"] = (wall_ns - attributed) / 1e9
        return metrics

    def write(self, path: str, metrics: Dict[str, float]) -> None:
        """Write the spans and the metrics derived from them as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "metrics": metrics,
                },
                handle,
            )


class _RootContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.wall_ns = 0

    def __enter__(self) -> "_RootContext":
        self._tracer._root = None  # so the new root opens without a parent
        self._tracer._root = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        root = self._tracer._root
        self.wall_ns = self._tracer._close(root)


def _count_intake(tracer: Tracer, args: tuple, result: object, *, rejected_when: bool) -> None:
    from repro.network.message import TimestampedMessage

    # a disabled gate (the frozen sim cluster's) admits without checking
    if args[0].enabled and isinstance(args[1], TimestampedMessage):
        tracer.count(
            "intake.duplicates_rejected" if result is rejected_when else "intake.admitted"
        )


def _keep_live(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.live_outcome = result


_RESULT_HOOKS = {
    ("IntakeDedupeGate", "is_duplicate"): functools.partial(_count_intake, rejected_when=True),
    ("IntakeDedupeGate", "admit"): functools.partial(_count_intake, rejected_when=False),
    ("LiveDispatcher", "finish"): _keep_live,
}


def _wrapper(tracer: Tracer, name: str, fn: Callable, on_result) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls so they record into ``tracer``.

    Call before the traced objects are built: bound methods taken earlier
    keep pointing at the unwrapped functions.
    """
    for name, module_name, class_name, attributes in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name is not None else module
        for attribute in attributes:
            hook = _RESULT_HOOKS.get((class_name, attribute))
            if class_name is None:
                setattr(owner, attribute, _wrapper(tracer, name, getattr(owner, attribute), hook))
                continue
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrapper(tracer, name, original.__func__, hook))
            else:
                wrapped = _wrapper(tracer, name, original, hook)
            setattr(owner, attribute, wrapped)


def outcome_metrics(outcome) -> Dict[str, float]:
    """Counters read from the run's outcome rather than from spans.

    ``outcome`` is the :class:`~repro.runtime.base.RuntimeOutcome` of the
    traced run; its ``details`` carry the event-loop statistics (summed over
    shards on procs) and the procs workers' wall seconds.
    """
    merge = outcome.merge
    pairs = merge.cross_pairs_evaluated + merge.cross_pairs_pruned
    details = outcome.details
    per_shard = details.get("per_shard", {}) or {}
    loops = [details["loop"]] if "loop" in details else [
        shard["loop"] for shard in per_shard.values() if "loop" in shard
    ]
    return {
        "merge.cross_pairs_evaluated": merge.cross_pairs_evaluated,
        "merge.cross_pairs_pruned": merge.cross_pairs_pruned,
        "merge.pruned_fraction": merge.cross_pairs_pruned / pairs if pairs else 0.0,
        "merge.cycles_broken": merge.cycles_broken,
        "procs.worker_busy_s": sum(float(shard["wall_seconds"]) for shard in per_shard.values()),
        "sim.loop_events": sum(int(loop.get("executed", 0)) for loop in loops),
    }
