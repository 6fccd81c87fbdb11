"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs once at a tiny size, traced and untraced, and must
emit exactly the metrics BENCHMARK.json names, with their units.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fsbb84 import runner, source  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Smallest sizes that still give clock recovery a few thousand tags.
SMOKE_PULSES = {"daylight_780m": 10_000_000, "retro_beacon_weak_v": 10_000_000,
                "dense_short_link": 200_000}


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert set(SMOKE_PULSES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result, record = run.measure(name, seed=3, seconds=0, trace=trace,
                                 n_pulses=SMOKE_PULSES[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1) == record["sessions_attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert record["unmeasured"] == [] and record["never_called"] == []
        assert result["metrics"]["receiver.tags"]["value"] == record["sessions"][0]["tags"]
    else:
        assert len(record["setup_probes_s"]) == run.SETUP_PROBES


def test_corrupted_report_counts_as_failed_session(monkeypatch):
    real = runner.run_in_process

    def corrupted(scenario, **kw):
        bob, alice, quantum = real(scenario, **kw)
        alice = dataclasses.replace(alice, sifted_key_length=alice.sifted_key_length + 1)
        return bob, alice, quantum

    monkeypatch.setattr(runner, "run_in_process", corrupted)
    result, record = run.measure("dense_short_link", seed=3, seconds=0, trace=0,
                                 n_pulses=SMOKE_PULSES["dense_short_link"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert record["sessions"][0]["failures"] == ["parties disagree on sifted_key_length"]


def test_session_checks_flag_abort_and_oracle_miss():
    sc = workloads.build("dense_short_link", 3, 0, SMOKE_PULSES["dense_short_link"])
    bob, alice, _ = runner.run_in_process(sc)
    from fsbb84 import analysis

    predicted = analysis.predict(sc)
    assert checks.session_failures(predicted, bob, alice) == []
    aborted = dataclasses.replace(bob, abort=True, abort_reason="qber-above-threshold")
    assert "bob report aborted: qber-above-threshold" in \
        checks.session_failures(predicted, aborted, alice)
    off = dataclasses.replace(predicted, sifted_rate_bps=2 * predicted.sifted_rate_bps)
    assert checks.session_failures(off, bob, alice) == \
        ["oracle comparison failed on sifted_rate_bps"]


def test_fidelity_mismatch_is_reported():
    assert checks.fidelity_failures({"sifted_bits": 5}, {"sifted_bits": 5}) == []
    assert checks.fidelity_failures({"sifted_bits": 5}, {"sifted_bits": 6}) == \
        ["traced run changed sifted_bits: 5 != 6"]


def test_missing_target_is_unmeasured_not_fatal(capsys):
    original = source.generate_shard
    tracer = spans.Tracer(spans.TARGETS + (("source.gone", "fsbb84.source", "no_such_fn"),))
    with tracer.installed():
        assert source.generate_shard is not original
        source.generate_shard(source.SourceConfig(), 0, 10)
    assert source.generate_shard is original
    assert tracer.unmeasured == ["source.gone"]
    assert "source.gone unmeasured" in capsys.readouterr().err
    assert [s.name for s in tracer.spans] == ["source.generate_shard"]
    assert "analysis.predict" in spans.silent_targets(tracer)


def test_span_self_time_and_roles():
    S = spans.Span
    fake = [
        S(1, "protocol.run_session", "alice", 0.0, 10.0, None, {"role": "alice"}),
        S(2, "transport.recv_message", "alice", 1.0, 5.0, 1, None),
        S(3, "transport.decode_frame", "alice", 4.0, 5.0, 2, None),
        S(4, "channel.transmit_stream", "main", 0.0, 3.0, None, None),
        S(5, "source.generate_shard", "main", 0.5, 2.5, 4, None),
    ]
    sc = workloads.build("dense_short_link", 3, 0, SMOKE_PULSES["dense_short_link"])
    bob, _, quantum = runner.run_in_process(sc)
    m = spans.layer_metrics(fake, sc, bob, quantum)
    assert m["protocol.wait_s.alice"] == 3.0 and m["protocol.wait_s.bob"] == 0.0
    assert m["channel.busy_s"] == 1.0 and m["source.busy_s"] == 2.0
    assert m["protocol.alice_s"] == 10.0
    assert set(m) | {"trace.overhead_s"} == set(spans.LAYER_METRICS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "dense_short_link", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
