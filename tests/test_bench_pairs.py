"""tools/bench_pairs.py's embedded scripts still run against this tree.

Each script runs only in a fresh process of the A/B harness, so a call
that a refactor broke (a renamed function, a removed default) would fail
nothing here until the harness itself is run. Each script runs once on
tiny inputs, and its output must hold what ``main()`` reads; each side
runs the scripts of its own copy of the tool. The module
is loaded from its file, and no process writes bytecode next to the
sources. The ``src/`` line count it records is checked on a small tree,
and the bytecode settings it records on this process; a perfbench run
must not read bytecode left in its tree.
"""

import importlib.util
import json
import os
import py_compile
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
    stages = {"transmit_stream", "detect", "recover_clock", "assign_and_gate", "run_in_process"}
    for call in out["calls"]:
        assert stages | {"photons", "tags", "minflt"} <= call.keys()
        assert call["minflt"].keys() == stages
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


def test_interleaved_warm_workers(bench_pairs):
    # both sides on this tree: one warm-up session each, then two rounds
    rec = bench_pairs._interleaved({"parent": REPO, "change": REPO}, "retro_beacon_weak_v",
                                   1, rounds=2, warm_up=1)
    assert rec.keys() == {"parent", "change"}
    for runs in rec.values():
        assert len(runs) == 2
        for r in runs:
            assert r["session_s"] > 0 and r["minflt"] >= 0
            assert r["stage_minflt"].keys() == {"transmit_stream", "detect", "recover_clock",
                                                "assign_and_gate"}


def test_each_side_runs_its_own_scripts(bench_pairs, tmp_path):
    # a parent whose _WEAK differs runs its own text; the scripts its file
    # lacks (or holds as anything but text) run from this tree's
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "bench_pairs.py").write_text(
        '_WEAK = """\nimport json, sys\nprint(json.dumps({"side": "parent", '
        '"args": sys.argv[1:]}))\n"""\n_TRANSMIT = 3\n')
    scripts = bench_pairs._scripts(tmp_path)
    assert scripts["_WEAK"] != bench_pairs._WEAK
    assert bench_pairs._script(tmp_path, "_WEAK", 1, "x") == {"side": "parent",
                                                              "args": ["1", "x"]}
    for name in bench_pairs.SCRIPTS:
        if name != "_WEAK":
            assert scripts[name] == getattr(bench_pairs, name)
    assert bench_pairs._scripts(REPO) == {n: getattr(bench_pairs, n) for n in bench_pairs.SCRIPTS}


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
    assert "src_pycache" in machine


def test_perfbench_run_reads_no_stale_bytecode(bench_pairs, tmp_path):
    # Bytecode whose source changed within the same second at the same size
    # passes Python's staleness check; a run must not find it in src.
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    module = tmp_path / "src" / "probe_mod.py"
    module.write_text("X = 1\n")
    cached = tmp_path / "src" / "__pycache__" / f"probe_mod.{sys.implementation.cache_tag}.pyc"
    py_compile.compile(str(module), cfile=str(cached), doraise=True)
    stamp = module.stat().st_mtime_ns
    module.write_text("X = 2\n")
    os.utime(module, ns=(stamp, stamp))
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\nsys.path.insert(0, 'src')\nimport probe_mod\n"
        "print(json.dumps({'x': probe_mod.X}))\n")
    assert bench_pairs._perfbench(tmp_path, "w", 1, 0) == {"x": 2}
