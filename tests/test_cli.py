"""CLI: exit codes, report files, determinism, networked party mode."""

import csv
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import make_fast_scenario
from fsbb84.cli import main
from fsbb84.receiver import TimeTags, dump_tags, load_tags


def read_report_csv(path):
    """A report written by ``--format csv``: JSON-encoded values by key."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return {key: json.loads(value) for key, value in rows[1:]}


@pytest.fixture
def scenario_file(tmp_path):
    sc = make_fast_scenario(duration_s=0.002)
    p = tmp_path / "fast.json"
    p.write_text(json.dumps(sc.to_dict(), indent=2))
    return p


def test_run_writes_reports(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "session_report.json").read_text())
    assert report["completed"] and not report["abort"]
    assert report["sifted_key_length"] > 0
    assert (out / "predicted_metrics.json").exists()
    deviation = json.loads((out / "deviation_report.json").read_text())
    assert deviation["passed"]
    assert "ok" in capsys.readouterr().out


def test_run_same_seed_byte_identical(tmp_path, scenario_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", str(scenario_file), "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["run", "--scenario", str(scenario_file), "--seed", "5",
                 "--out", str(out2)]) == 0
    for name in ("session_report.json", "predicted_metrics.json", "deviation_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_different_seed_differs(tmp_path, scenario_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scenario_file), "--seed", "5", "--out", str(out1)])
    main(["run", "--scenario", str(scenario_file), "--seed", "6", "--out", str(out2)])
    a = json.loads((out1 / "session_report.json").read_text())
    b = json.loads((out2 / "session_report.json").read_text())
    assert a["scenario_hash"] != b["scenario_hash"]


def test_run_csv_roundtrip(tmp_path, scenario_file):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(scenario_file), "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    doc = read_report_csv(out / "session_report.csv")
    assert doc["completed"] is True
    assert isinstance(doc["qber"], dict)
    # JSON twin of the same run must carry identical content
    out_j = tmp_path / "outj"
    main(["run", "--scenario", str(scenario_file), "--out", str(out_j)])
    as_json = json.loads((out_j / "session_report.json").read_text())
    assert doc == as_json


def test_run_dumps(tmp_path, scenario_file):
    out = tmp_path / "out"
    tags_p = tmp_path / "tags.bin"
    hist_p = tmp_path / "hist.csv"
    rc = main(["run", "--scenario", str(scenario_file), "--out", str(out),
               "--dump-tags", str(tags_p), "--dump-histogram", str(hist_p)])
    assert rc == 0
    tags = load_tags(tags_p)
    assert len(tags) > 0
    lines = hist_p.read_text().splitlines()
    assert lines[0] == "bin_start_ps,count"
    assert len(lines) == 257
    # folded on the recovered clock, the slots' tags pile up within 1 ns of
    # the middle bin, whatever the clock's offset and drift
    start_ps, count = np.loadtxt(hist_p, delimiter=",", skiprows=1, unpack=True)
    middle = start_ps[128]
    assert middle == pytest.approx(5_000.0)
    assert count[np.abs(start_ps - middle) <= 1_000].sum() >= 0.9 * count.sum()


def test_run_duration_override(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file), "--duration", "0.001",
                 "--out", str(out)]) == 0
    assert json.loads((out / "session_report.json").read_text())["n_pulses"] == 100_000
    # a scenario that fixes its pulse count would ignore --duration
    doc = json.loads(scenario_file.read_text())
    doc["protocol"]["n_pulses"] = 200_000
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(fixed), "--duration", "0.001",
               "--out", str(tmp_path / "o2")])
    assert rc == 2
    assert "protocol.n_pulses" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


def test_malformed_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    bad2 = tmp_path / "bad2.json"
    sc = make_fast_scenario()
    doc = sc.to_dict()
    doc["receiver"]["efficiency_db"] = -3.0
    bad2.write_text(json.dumps(doc))
    rc = main(["run", "--scenario", str(bad2), "--out", str(tmp_path / "o2")])
    assert rc == 2
    assert "efficiency_db" in capsys.readouterr().err

    for field, value in (("protocol", 5), ("protocol", None), ("duration_s", "ten")):
        doc = sc.to_dict()
        doc[field] = value
        bad2.write_text(json.dumps(doc))
        assert main(["predict", "--scenario", str(bad2)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err


def test_predict_cmd(tmp_path, scenario_file, capsys):
    rc = main(["predict", "--scenario", str(scenario_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sifted_rate_bps"] > 0
    rc = main(["predict", "--scenario", "table2_beam_expanders"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sifted_rate_bps"] == pytest.approx(13_794.0, rel=1e-3)


def test_predict_missing_field_named(tmp_path, capsys):
    p = tmp_path / "broken.json"
    doc = make_fast_scenario().to_dict()
    del doc["duration_s"]
    p.write_text(json.dumps(doc))
    rc = main(["predict", "--scenario", str(p)])
    assert rc == 2
    assert "duration_s" in capsys.readouterr().err


def test_party_pair_over_tcp(tmp_path, scenario_file):
    out_a, out_b = tmp_path / "alice", tmp_path / "bob"
    results = {}

    def alice():
        results["alice"] = main(["party", "--role", "alice", "--listen",
                                 "127.0.0.1:43921", "--scenario", str(scenario_file),
                                 "--out", str(out_a), "--timeout", "15"])

    th = threading.Thread(target=alice)
    th.start()
    results["bob"] = main(["party", "--role", "bob", "--connect", "127.0.0.1:43921",
                           "--scenario", str(scenario_file), "--out", str(out_b),
                           "--timeout", "15"])
    th.join(20.0)
    assert results["alice"] == 0 and results["bob"] == 0

    bob_report = json.loads((out_b / "session_report_bob.json").read_text())
    # identical to the in-process run of the same scenario
    out_ip = tmp_path / "ip"
    main(["run", "--scenario", str(scenario_file), "--out", str(out_ip)])
    in_proc = json.loads((out_ip / "session_report.json").read_text())
    assert bob_report == in_proc


def test_party_scenario_mismatch_both_abort(tmp_path, scenario_file):
    other = tmp_path / "other.json"
    other.write_text(json.dumps(make_fast_scenario(extra_loss_db=9.0).to_dict()))
    out_a, out_b = tmp_path / "alice", tmp_path / "bob"
    results = {}

    def alice():
        results["alice"] = main(["party", "--role", "alice", "--listen",
                                 "127.0.0.1:43923", "--scenario", str(scenario_file),
                                 "--out", str(out_a), "--timeout", "15"])

    th = threading.Thread(target=alice)
    th.start()
    results["bob"] = main(["party", "--role", "bob", "--connect", "127.0.0.1:43923",
                           "--scenario", str(other), "--out", str(out_b),
                           "--timeout", "15"])
    th.join(20.0)
    assert results["alice"] == 0 and results["bob"] == 0  # abort is an outcome
    a = json.loads((out_a / "session_report_alice.json").read_text())
    b = json.loads((out_b / "session_report_bob.json").read_text())
    assert a["abort"] and b["abort"]


def test_party_listen_timeout(tmp_path, scenario_file, capsys):
    rc = main(["party", "--role", "bob", "--listen", "127.0.0.1:43925",
               "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
               "--timeout", "0.3"])
    assert rc == 1
    assert "session failed" in capsys.readouterr().err


def test_party_replay_tags(tmp_path, scenario_file):
    # record a tag stream, then replay it through a networked bob
    out = tmp_path / "rec"
    tags_p = tmp_path / "tags.bin"
    main(["run", "--scenario", str(scenario_file), "--out", str(out),
          "--dump-tags", str(tags_p)])

    out_a, out_b = tmp_path / "alice", tmp_path / "bob"
    results = {}

    def alice():
        results["alice"] = main(["party", "--role", "alice", "--listen",
                                 "127.0.0.1:43927", "--scenario", str(scenario_file),
                                 "--out", str(out_a), "--timeout", "15"])

    th = threading.Thread(target=alice)
    th.start()
    results["bob"] = main(["party", "--role", "bob", "--connect", "127.0.0.1:43927",
                           "--scenario", str(scenario_file), "--out", str(out_b),
                           "--timeout", "15", "--replay-tags", str(tags_p)])
    th.join(20.0)
    assert results["bob"] == 0
    replayed = json.loads((out_b / "session_report_bob.json").read_text())
    original = json.loads((out / "session_report.json").read_text())
    assert replayed["qber"] == original["qber"]
    assert replayed["sifted_key_length"] == original["sifted_key_length"]


def test_party_rejects_unsorted_replay_before_listening(tmp_path, scenario_file, capsys):
    # a shuffled recording would mis-bin clock recovery's phase blocks; bob
    # refuses it as a configuration error, without waiting for a peer
    tags_p, shuffled_p = tmp_path / "tags.bin", tmp_path / "shuffled.bin"
    main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "rec"),
          "--dump-tags", str(tags_p)])
    tags = load_tags(tags_p)
    order = np.random.default_rng(21).permutation(len(tags))
    dump_tags(TimeTags(detector=tags.detector[order], time_ps=tags.time_ps[order]), shuffled_p)
    capsys.readouterr()
    rc = main(["party", "--role", "bob", "--listen", "127.0.0.1:43929",
               "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
               "--timeout", "0.3", "--replay-tags", str(shuffled_p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(shuffled_p) in err and "time_ps below" in err


def test_run_reports_clock_recovery_failure(tmp_path, capsys):
    # 0.02 s of this link gives a few hundred tags, below clock recovery's floor
    rc = main(["run", "--scenario", "table1_run2_retro", "--duration", "0.02",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "session failed: need >= 1000 tags for clock recovery" in capsys.readouterr().err


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "fsbb84.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fsbb84" in proc.stdout
