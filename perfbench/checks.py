"""Output checks for every repetition, against oracles computed apart from the timed path.

A check returns a list of problems (empty when the output is right), so one
repetition can report everything wrong with it at once.  The functions take
plain outcomes (merged batches, shard batches, the workload's messages), so
the tests can feed them tampered copies.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

Fingerprint = List[Tuple[int, Tuple[int, ...]]]


def message_index(messages: Sequence) -> Dict[Tuple[str, int], int]:
    """Position of each message key in the workload's message tuple.

    Message ids come from a per-process counter, so two interpreters that
    built the same workload agree on positions, not on ids.
    """
    return {message.key: index for index, message in enumerate(messages)}


def fingerprint(batches: Sequence, index: Dict[Tuple[str, int], int]) -> Fingerprint:
    """Rank plus message positions per merged batch (ids made portable)."""
    return [
        (batch.rank, tuple(index.get(message.key, -1) for message in batch.messages))
        for batch in batches
    ]


def serve_digest(merge_outcome) -> str:
    """The digest ``repro serve`` prints for a merge outcome."""
    from repro.cluster.merge import merge_fingerprint

    return hashlib.sha256(repr(merge_fingerprint(merge_outcome)).encode()).hexdigest()[:16]


def missing_count(batches: Sequence, messages: Sequence) -> int:
    """Workload messages absent from the merged order (the failed count)."""
    present = {message.key for batch in batches for message in batch.messages}
    return sum(1 for message in messages if message.key not in present)


def check_exactly_once(batches: Sequence, messages: Sequence) -> List[str]:
    """Every workload message appears exactly once in the merged order."""
    problems: List[str] = []
    expected = {message.key for message in messages}
    seen: Dict[Tuple[str, int], int] = {}
    for batch in batches:
        for message in batch.messages:
            seen[message.key] = seen.get(message.key, 0) + 1
    duplicated = sorted(key for key, count in seen.items() if count > 1)
    unknown = sorted(key for key in seen if key not in expected)
    missing = len(expected) - len(expected & seen.keys())
    if duplicated:
        problems.append(f"{len(duplicated)} message(s) merged more than once, e.g. {duplicated[0]}")
    if unknown:
        problems.append(f"{len(unknown)} merged message(s) not in the workload, e.g. {unknown[0]}")
    if missing:
        problems.append(f"{missing} workload message(s) missing from the merged order")
    ranks = [batch.rank for batch in batches]
    if ranks != list(range(len(ranks))):
        problems.append("merged ranks are not 0, 1, 2, ... in order")
    return problems


def check_shard_order(batches: Sequence, shard_batches: Sequence[Sequence]) -> List[str]:
    """Each shard's batches keep their rank order and stay whole in the merge."""
    problems: List[str] = []
    owner: Dict[Tuple[str, int], Tuple[int, int]] = {}
    for shard, stream in enumerate(shard_batches):
        for position, batch in enumerate(stream):
            if batch.rank != position:
                problems.append(f"shard {shard} batch {position} carries rank {batch.rank}")
            for message in batch.messages:
                owner[message.key] = (shard, position)
    last: Dict[int, int] = {}
    placed: Dict[Tuple[int, int], int] = {}
    for merged in batches:
        for message in merged.messages:
            source = owner.get(message.key)
            if source is None:
                continue  # reported by check_exactly_once
            shard, position = source
            if position < last.get(shard, -1):
                problems.append(
                    f"shard {shard} batch {position} merged after batch {last[shard]}"
                )
                return problems
            last[shard] = position
            rank = placed.setdefault(source, merged.rank)
            if rank != merged.rank:
                problems.append(f"shard {shard} batch {position} split across merged ranks")
                return problems
    return problems


def check_fingerprint(actual: Fingerprint, oracle: Fingerprint, oracle_name: str) -> List[str]:
    """The run's merged order equals the oracle's, batch for batch."""
    if actual == oracle:
        return []
    for rank, (got, want) in enumerate(zip(actual, oracle)):
        if got != want:
            return [f"merged order differs from {oracle_name} at rank {rank}"]
    return [
        f"merged order has {len(actual)} batches, {oracle_name} has {len(oracle)}"
    ]


def check_ras(ras: float) -> List[str]:
    """The normalised Rank Agreement Score lies in (0, 1]."""
    return [] if 0.0 < ras <= 1.0 else [f"ras_normalized {ras!r} outside (0, 1]"]


def check_cycles(cycles_broken: int, expected: Optional[int]) -> List[str]:
    """The workload's defining property: the exact number of merge cycles broken.

    Pinned exactly, not as "at least one": the merge's cost grows with the
    cycles it breaks, so an input that broke fewer would measure other work.
    """
    if expected is None or cycles_broken == expected:
        return []
    return [f"the merge broke {cycles_broken} cycle(s), the workload's input breaks {expected}"]


def check_restarts(worker_restarts: int) -> List[str]:
    """No worker was restarted during the run."""
    return [] if worker_restarts == 0 else [f"{worker_restarts} worker restart(s)"]


def check_frozen_run(
    batches: Sequence,
    shard_batches: Sequence[Sequence],
    messages: Sequence,
    oracle: Fingerprint,
    oracle_name: str,
    ras: float,
    cycles_broken: int,
    expected_cycles: Optional[int],
    worker_restarts: int,
) -> List[str]:
    """Every check a frozen-workload repetition must pass."""
    index = message_index(messages)
    return (
        check_exactly_once(batches, messages)
        + check_shard_order(batches, shard_batches)
        + check_fingerprint(fingerprint(batches, index), oracle, oracle_name)
        + check_ras(ras)
        + check_cycles(cycles_broken, expected_cycles)
        + check_restarts(worker_restarts)
    )


def same_inputs(left: Sequence, right: Sequence) -> List[str]:
    """Two interpreters generated the same workload (ids aside)."""

    def shape(message) -> tuple:
        return (message.client_id, message.timestamp, message.true_time, message.sequence_number)

    if len(left) != len(right) or any(shape(a) != shape(b) for a, b in zip(left, right)):
        return ["the run's input differs from the oracle's input"]
    return []
