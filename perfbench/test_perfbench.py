"""The benchmark's own tests: its checks catch wrong outputs, and each workload runs.

The checks must not be vacuous, so each is fed a tampered copy of a real
outcome (two cross-shard batches swapped, one message dropped, one message
duplicated) and must report it.  The smoke tests run every workload end to
end through :func:`perfbench.run.measure` at a small shape.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import checks, run
from perfbench.run import END_TO_END_UNITS, ROOT, measure
from perfbench.tracer import PER_LAYER_UNITS
from perfbench.workloads import WORKLOADS, build_workload

#: small shapes, each with the cycle count its scenario seed breaks there
SMALL = {
    "sim-cyclic": dict(clients=24, messages_per_client=8, shards=4, scenario_seed=1, cycles=1),
    "procs-acyclic": dict(clients=16, messages_per_client=4, shards=4, scenario_seed=11, cycles=0),
    "serve-live": dict(clients=8, messages_per_client=4, shards=1, scenario_seed=7),
}


@pytest.fixture(scope="module")
def frozen_run():
    from repro.runtime.sim import SimBackend

    spec = dataclasses.replace(WORKLOADS["sim-cyclic"], **SMALL["procs-acyclic"])
    workload = build_workload(spec, seed=3)
    outcome = SimBackend().run(workload)
    index = checks.message_index(workload.messages)
    oracle = checks.fingerprint(outcome.merge.result.batches, index)
    return workload, outcome, oracle


def _check(workload, outcome, oracle, batches):
    return checks.check_frozen_run(
        batches,
        outcome.shard_batches,
        workload.messages,
        oracle,
        "oracle",
        ras=0.9,
        cycles_broken=0,
        expected_cycles=0,
        worker_restarts=0,
    )


def _renumber(batches):
    return [dataclasses.replace(batch, rank=rank) for rank, batch in enumerate(batches)]


def _shard_of(outcome):
    return {
        message.key: shard
        for shard, stream in enumerate(outcome.shard_batches)
        for batch in stream
        for message in batch.messages
    }


def test_untampered_outcome_passes(frozen_run):
    workload, outcome, oracle = frozen_run
    assert _check(workload, outcome, oracle, outcome.merge.result.batches) == []


def test_swapped_cross_shard_batches_fail(frozen_run):
    workload, outcome, oracle = frozen_run
    batches = list(outcome.merge.result.batches)
    shard = _shard_of(outcome)
    swap = next(
        rank
        for rank in range(len(batches) - 1)
        if {shard[m.key] for m in batches[rank].messages}
        != {shard[m.key] for m in batches[rank + 1].messages}
    )
    batches[swap], batches[swap + 1] = batches[swap + 1], batches[swap]
    tampered = _renumber(batches)
    assert _check(workload, outcome, oracle, tampered)
    assert checks.serve_digest(outcome.merge) != checks.serve_digest(
        dataclasses.replace(
            outcome.merge, result=dataclasses.replace(outcome.merge.result, batches=tuple(tampered))
        )
    )


def test_dropped_message_fails(frozen_run):
    workload, outcome, oracle = frozen_run
    batches = list(outcome.merge.result.batches)
    rank = next(rank for rank, batch in enumerate(batches) if batch.size > 1)
    batches[rank] = dataclasses.replace(batches[rank], messages=batches[rank].messages[1:])
    problems = _check(workload, outcome, oracle, batches)
    assert any("missing" in problem for problem in problems)
    assert checks.missing_count(batches, workload.messages) == 1


def test_duplicated_message_fails(frozen_run):
    workload, outcome, oracle = frozen_run
    batches = list(outcome.merge.result.batches)
    extra = batches[0].messages[0]
    batches[-1] = dataclasses.replace(batches[-1], messages=batches[-1].messages + (extra,))
    problems = _check(workload, outcome, oracle, batches)
    assert any("more than once" in problem for problem in problems)


def test_defining_properties_are_checked():
    assert checks.check_cycles(1, 2)
    assert checks.check_cycles(3, 2)
    assert checks.check_cycles(1, 0)
    assert checks.check_cycles(2, 2) == checks.check_cycles(0, 0) == []
    assert checks.check_cycles(5, None) == []
    assert checks.check_restarts(1)
    assert checks.check_ras(0.0) and checks.check_ras(1.5)


def test_benchmark_json_lists_every_metric():
    described = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in described["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in described["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in described["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_workload_smoke(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    spec = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    result = measure(spec, seed=5, seconds=0.1, trace=trace, min_reps=1, setup_samples=1)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= spec.messages
    expected = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert set(result["metrics"]) == set(expected)
    if trace:
        metrics = {key: value["value"] for key, value in result["metrics"].items()}
        assert metrics["trace.unattributed_s"] >= 0
        assert metrics["merge.observe_calls"] > 0
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())
