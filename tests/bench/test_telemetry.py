"""Telemetry plane end to end: heartbeats and ledger from real runs,
results unaffected, and a null path that costs nothing."""

import dataclasses
import json

import pytest

from repro.bench.parallel import TelemetryConfig, parallel_efficacy_records
from repro.obs.ledger import load_ledger

FAST = dict(num_queries=2, seed=9, techniques=("TC",))


def _run(tmp_path, workers, **kwargs):
    telemetry = TelemetryConfig(directory=tmp_path / "tele", heartbeat_ms=50.0)
    params = dict(FAST)
    params.update(kwargs)
    result = parallel_efficacy_records(
        workers=workers, telemetry=telemetry, **params
    )
    return telemetry, result


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_telemetry_run_writes_heartbeats_and_ledger(tmp_path, workers):
    telemetry, result = _run(tmp_path, workers)
    assert telemetry.heartbeat_path.exists()
    assert telemetry.ledger_path.exists()

    lines = _lines(telemetry.heartbeat_path)
    kinds = {line["type"] for line in lines}
    assert "end" in kinds
    beacons = [line for line in lines if line["type"] == "beacon"]
    assert beacons, "workers must ship at least their final beacon"
    # Parent stamps every written beacon with its own arrival clock.
    assert all("rx" in beacon for beacon in beacons)
    assert lines[-1]["type"] == "end"

    header, entries = load_ledger(telemetry.ledger_path)
    assert header["config"]["workers"] == workers
    assert header["config"]["techniques"] == ["TC"]
    assert header["config"]["queries"] == FAST["num_queries"]
    assert "deadline_ms" in header["config"]
    # One ledger line per merged record, in merge (query) order.
    assert len(entries) == len(result.records)
    assert [e["query"] for e in entries] == [
        r.query_index for r in result.records
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_stats_carry_heartbeat_rollup(tmp_path, workers):
    _, result = _run(tmp_path, workers)
    rollup = result.pool["heartbeats"]
    assert rollup["beacons"] >= 1
    assert rollup["silence_flags"] == 0
    assert len(rollup["workers"]) == workers


def test_records_match_untelemetered_run(tmp_path):
    plain = parallel_efficacy_records(workers=1, **FAST)
    _, telemetered = _run(tmp_path, 1)

    def comparable(record):
        return {
            key: value
            for key, value in dataclasses.asdict(record).items()
            if not key.endswith("_ms")
        }

    assert len(telemetered.records) == len(plain.records)
    for seq, tel in zip(plain.records, telemetered.records):
        assert comparable(seq) == comparable(tel)


def test_null_path_has_no_telemetry_artifacts(tmp_path):
    result = parallel_efficacy_records(workers=1, **FAST)
    assert "heartbeats" not in result.pool
    assert list(tmp_path.iterdir()) == []


def test_ledger_entries_carry_audit_and_counters(tmp_path):
    telemetry, _ = _run(tmp_path, 1)
    _, entries = load_ledger(telemetry.ledger_path)
    for entry in entries:
        assert entry["audit"] in ("certified", "none")
        assert isinstance(entry["counters"], dict)
        assert entry["partial"] is False  # no deadline in this run
        assert set(entry["phase_ms"]) == {
            "generation", "learning", "validation",
        }


def test_deadline_partials_reach_the_ledger(tmp_path):
    telemetry, result = _run(
        tmp_path, 1,
        num_queries=1, techniques=("SIA",), deadline_ms=1.0,
    )
    _, entries = load_ledger(telemetry.ledger_path)
    assert len(entries) == len(result.records)
    assert all(e["deadline_ms"] == 1.0 for e in entries)
    partials = [e for e in entries if e["partial"]]
    assert len(partials) == sum(r.partial for r in result.records)
    assert partials, "a 1ms budget must expire at least one cell"
