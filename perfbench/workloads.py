"""The benchmark's three workloads and the inputs they are built from.

Each workload is one fixed scenario (``scenario_seed``) whose defining
property is known: ``sim-cyclic``'s merge breaks exactly two cycles,
``procs-acyclic``'s none, ``serve-live`` runs one shard over loopback.
The merge's cost depends on the scenario's structure far more than on
machine noise (at 128 x 16 x 8 the cyclic seeds take 10.6 to 26 s), so the
run's ``--seed`` does not pick another scenario.  It moves the time origin
of every message (``true_time`` and ``timestamp``) by a seed-derived offset:
the inputs differ from seed to seed, while every decision the system makes
depends only on time differences and stays the same.  Each repetition's
cycle count is checked against the workload's exact count, so a shift that
changed the merge's work would fail the checks.  The merged order is checked
against an oracle built from the same shifted input, so it does not catch a
shift that changed the order alone; over all ``ORIGIN_PERIOD`` origins the
order equals that of the unshifted input (see ``perfbench/README.md``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: seconds between two consecutive seeds' time origins
ORIGIN_STEP_S = 3600.0
#: seeds wrap after this many origins, keeping offsets below ~100 h so the
#: shifted float timestamps keep sub-nanosecond resolution
ORIGIN_PERIOD = 100
#: serve-live connections the generator drives (one per core of the 2-core host)
SERVE_CONNECTIONS = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape and defining property of one workload."""

    name: str
    #: "sim" or "procs" (frozen, run in a fresh interpreter) or "serve"
    backend: str
    clients: int
    messages_per_client: int
    shards: int
    scenario_seed: int
    #: merge cycles every repetition must break, or None (unchecked)
    cycles: Optional[int]

    @property
    def messages(self) -> int:
        """Messages one repetition submits."""
        return self.clients * self.messages_per_client

    def to_json(self) -> str:
        """Serialise for a child interpreter's command line."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        """Inverse of :meth:`to_json`."""
        return cls(**json.loads(text))


WORKLOADS = {
    spec.name: spec
    for spec in (
        # the ROADMAP's cliff shape; seed 7 breaks two cycles
        WorkloadSpec("sim-cyclic", "sim", 128, 16, 8, scenario_seed=7, cycles=2),
        # same shape, a seed whose merge breaks no cycle; one worker process so
        # the coordinator and the worker fill the two cores
        WorkloadSpec("procs-acyclic", "procs", 128, 16, 8, scenario_seed=11, cycles=0),
        # one shard: the edge, the live dispatcher and the engine carry the run
        WorkloadSpec("serve-live", "serve", 128, 32, 1, scenario_seed=7, cycles=None),
    )
}


def origin_offset(seed: int) -> float:
    """Time-origin offset (seconds) of ``seed``'s input."""
    return (seed % ORIGIN_PERIOD) * ORIGIN_STEP_S


def build_workload(spec: WorkloadSpec, seed: int):
    """Generate and freeze ``spec``'s input for run seed ``seed``.

    The scenario comes from the same generator ``repro serve`` provisions
    its clients from (:func:`repro.workloads.cluster.build_cluster_scenario`)
    and is frozen with ``TommyConfig(seed=scenario_seed)``, the config
    ``repro serve --seed`` uses.
    """
    from repro.core.config import TommyConfig
    from repro.runtime.base import ClusterWorkload
    from repro.workloads.cluster import build_cluster_scenario

    scenario = build_cluster_scenario(
        spec.clients, messages_per_client=spec.messages_per_client, seed=spec.scenario_seed
    )
    workload = ClusterWorkload.from_scenario(
        scenario, num_shards=spec.shards, config=TommyConfig(seed=spec.scenario_seed)
    )
    offset = origin_offset(seed)
    messages = tuple(
        dataclasses.replace(
            message, true_time=message.true_time + offset, timestamp=message.timestamp + offset
        )
        for message in workload.messages
    )
    return dataclasses.replace(workload, messages=messages)


def serve_args(spec: WorkloadSpec) -> List[str]:
    """``repro serve`` flags for ``spec`` (also used by the traced host).

    A 20 ms idle grace keeps the drain poll from adding up to 0.2 s (the
    default grace) of sleep to the measured wall.
    """
    return [
        "serve",
        "--runtime",
        "sim",
        "--shards",
        str(spec.shards),
        "--num-clients",
        str(spec.clients),
        "--seed",
        str(spec.scenario_seed),
        "--port",
        "0",
        "--idle-grace",
        "0.02",
    ]


def connection_slices(workload) -> Tuple[List, ...]:
    """Split clients round-robin (sorted) over the connections, each slice in
    ``true_time`` order — the per-source FIFO contract the edge relies on."""
    owner = {
        client: index % SERVE_CONNECTIONS for index, client in enumerate(workload.client_ids)
    }
    slices: Tuple[List, ...] = tuple([] for _ in range(SERVE_CONNECTIONS))
    for message in workload.messages_by_true_time():
        slices[owner[message.client_id]].append(message)
    return slices
