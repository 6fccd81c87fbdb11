"""tools/bench_pairs.py's embedded scripts still run against this tree.

Each script runs only in a fresh process of the A/B harness, so a call
that a refactor broke (a renamed function, a removed default) would fail
nothing here until the harness itself is run. Each script runs once on
tiny inputs, and its output must hold what ``main()`` reads. The module
is loaded from its file, and no process writes bytecode next to the
sources. The ``src/`` line count it records is checked on a small tree,
and the bytecode settings it records on this process.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _run(bench_pairs, script, *args):
    proc = subprocess.run([sys.executable, "-c", getattr(bench_pairs, script), *args],
                          env={**bench_pairs._env(REPO), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_stages_script(bench_pairs):
    out = _run(bench_pairs, "_STAGES", "table2_beam_expanders", "0.05", "0")
    assert len(out["calls"]) == 2
    for call in out["calls"]:
        assert {"transmit_stream", "detect", "recover_clock", "assign_and_gate",
                "run_in_process", "photons", "tags"} <= call.keys()
    assert {"n_pulses", "peak_rss_mb", "transmit_stream_traced_peak_mb"} <= out.keys()


def test_transmit_script(bench_pairs):
    out = _run(bench_pairs, "_TRANSMIT", "daylight_780m", "1", "1")
    assert len(out["transmit_stream_s"]) == 1 and out["traced_peak_mb"] > 0


def test_weak_script(bench_pairs):
    out = _run(bench_pairs, "_WEAK", "1", "300", "1000", "-5.0", "30", "1")
    assert len(out["recover_clock_s"]) == 1
    assert {"tags", "fft_lengths", "drift_error_ppm", "rss_before_mb", "peak_rss_mb"} <= out.keys()


def test_fixed_rss_script(bench_pairs):
    assert _run(bench_pairs, "_FIXED_RSS", "retro_beacon_weak_v", "1", "1") > 0


def test_src_lines_counts_python_under_src(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("\n\nz = 3\n")
    (tmp_path / "src" / "pkg" / "data.json").write_text("{}\n")
    (tmp_path / "setup.py").write_text("pass\n")
    assert bench_pairs._src_lines(tmp_path) == 5


def test_machine_records_bytecode_settings(bench_pairs, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    machine = bench_pairs._machine()
    assert machine["PYTHONDONTWRITEBYTECODE"] == "1"
    assert machine["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
