"""tools/bench_pairs.py's embedded scripts still run against this tree.

Each script runs only in a fresh process of the A/B harness, so a call
that a refactor broke (a renamed function, a removed default) would fail
nothing here until the harness itself is run. Each script runs once on
tiny inputs, and its output must hold what ``main()`` reads; the stages
the probe wraps must be targets of perfbench's spans, so that one list
pins the names both sides are measured through. Modules are loaded from
their files, and no process writes bytecode next to the sources. The
``src/`` line count it records is checked on a small tree, and the
bytecode settings it records on this process; a perfbench run must not
read bytecode left in its tree.
"""

import importlib.util
import os
import py_compile
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def bench_pairs():
    return _load(REPO / "tools" / "bench_pairs.py", "bench_pairs")


@pytest.fixture(autouse=True)
def no_bytecode(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")


def _stage_names(bench_pairs):
    return {stage.split(".")[1] for stage in bench_pairs.STAGES}


def test_probe_records(bench_pairs):
    # a workload session and a bundled run, each untraced and then traced
    sources = ("workload retro_beacon_weak_v 1 0", "bundled table2_beam_expanders 0.05 1")
    out = bench_pairs._probe(REPO, [f"{src} {t}\n" for src in sources for t in (0, 1)])
    assert len(out) == 4
    for r, traced in zip(out, (False, True) * 2):
        assert r["stages"].keys() == _stage_names(bench_pairs)
        assert r["session_s"] > 0 and r["minflt"] >= 0 and r["peak_rss_mb"] > 0
        assert 0 < r["photons"] and 0 < r["tags"] and 0 < r["n_pulses"]
        for stage in r["stages"].values():
            assert stage["s"] > 0 and stage["minflt"] >= 0
            assert ("traced_peak" in stage) is traced
        if traced:
            # the session's high-water bounds every stage's peak
            assert 0 < max(s["traced_peak"] for s in r["stages"].values()) <= r["traced_peak"]
    assert out[2]["n_pulses"] == 5_000_000  # 0.05 s of the bundled 100 MHz source
    worst = {**out[3], "traced_peak": 10**9 * out[3]["tags"]}
    summary = bench_pairs._memory_summary([out[1], worst])
    assert summary["session_bytes_per_tag"] == 1e9
    assert summary["stage_bytes"].keys() == summary["stage_bytes_per_tag"].keys()
    assert summary["stage_bytes"] == {k: v["traced_peak"] for k, v in out[3]["stages"].items()}


def test_probe_stages_are_perfbench_span_targets(bench_pairs):
    targets = _load(REPO / "perfbench" / "spans.py", "perfbench_spans").TARGETS
    for stage in bench_pairs.STAGES:
        module, attr = stage.split(".")
        assert (stage, "fsbb84." + module, attr) in targets


def test_weak_script(bench_pairs):
    out, = bench_pairs._script(REPO, bench_pairs._WEAK, (1, 300, 1000, -5.0, 30, 1))
    assert len(out["recover_clock_s"]) == 1
    assert {"tags", "fft_lengths", "drift_error_ppm", "rss_before_mb", "peak_rss_mb"} <= out.keys()


def test_interleaved_warm_workers(bench_pairs):
    # both sides on this tree: one warm-up session each, then two rounds
    rec = bench_pairs._interleaved({"parent": REPO, "change": REPO}, "retro_beacon_weak_v",
                                   1, rounds=2, warm_up=1)
    assert rec.keys() == {"parent", "change"}
    for runs in rec.values():
        assert len(runs) == 2
        for r in runs:
            assert r["session_s"] > 0 and r["minflt"] >= 0
            assert r["stages"].keys() == _stage_names(bench_pairs)


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
