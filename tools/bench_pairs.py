"""Compare a parent checkout with this one on the session benchmark; write a BENCH file.

Runs ``perfbench/run.py`` of the parent and of this repository in
alternating pairs (the parent first in even pairs, this tree first in odd
ones, workloads interleaved within a pair); the peak RSS of a fixed number
of sessions per workload in fresh processes, in the same alternating pairs;
one warm worker process per side and workload, which run the same sessions
in turn (the parent first in even rounds), so both sides share the host's
drift, with each session's minor page faults; one traced run per side and
workload; ``channel.transmit_stream`` alone on sessions of each workload,
timed and under ``tracemalloc``; the bundled runs of ``STAGE_RUNS`` stage by
stage in fresh processes, with their minor page faults, peak RSS and
``transmit_stream``'s traced peak; and clock recovery on the synthetic weak
streams of ``WEAK_STREAMS``, likewise::

    python3 tools/bench_pairs.py --parent ../parent --seed 701 --out BENCH_8.json

Pair i runs with ``--seed`` + i; pick seeds no earlier BENCH file used, so
no run was seen while writing the change. Each side is imported from its
own ``src``, whose ``__pycache__`` directories are removed before each
perfbench run, so neither side reads bytecode an earlier run left (a
``PYTHONPYCACHEPREFIX`` would hide numpy's and the standard library's too,
and every set-up probe would compile them). Each side runs the embedded
scripts of its own ``tools/bench_pairs.py``, so a script keeps working on
the parent after a change to a function it calls; a script the parent's
file lacks runs from this file. The JSON records the machine, numpy, each
side's count of ``src/`` Python lines and pulse counts with the medians and
quartiles of every end-to-end metric and the count of pairs the change won.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAIRS = 10
SECONDS = 8.0  # --seconds of each perfbench run
TRACE_SEED = 5
STAGE_PROCESSES = 3  # per side and stage run
# (bundled scenario, seconds, beacon-assisted) of each stage run: the 10 s
# beam-expander run the trajectory follows, and the long runs where drift
# acquisition's cost and memory once followed session length, each also
# with the beacon, which skips acquisition.
STAGE_RUNS = (
    ("table2_beam_expanders", 10, False),
    ("table2_collimators", 10, False), ("table2_collimators", 10, True),
    ("table2_collimators", 60, False), ("table2_collimators", 60, True),
    ("table2_beam_expanders", 30, False), ("table2_beam_expanders", 30, True),
)
# (seconds, signal tags/s, background tags/s, drift ppm, seed) of synthetic
# streams too weak for drift acquisition's first sub-span, built as
# tests/test_sync.py builds its long streams; the 1 s and 10 s ones are
# too weak for any sub-span, so the whole stream is transformed after them.
WEAK_STREAMS = (
    (1, 300, 1_000, -5.0, 30), (1, 200, 1_500, 20.0, 30),
    (10, 300, 1_000, -5.0, 40), (10, 200, 1_500, 20.0, 41),
    (60, 300, 1_000, -5.0, 60), (60, 200, 1_500, 20.0, 61),
)
WEAK_CALLS = 5  # recover_clock calls per process
# perfbench's peak_rss_mb is the high-water mark of a fixed-length run, and a
# process's RSS creeps up with the sessions it has run, so a faster side reads
# higher; these runs hold the session count fixed instead.
FIXED_SESSIONS = 24
# Sessions per workload that each warm worker runs before, and then in,
# the interleaved comparison.
WARM_UP = 5
WARM_ROUNDS = 200
WORKLOADS = ("daylight_780m", "retro_beacon_weak_v", "dense_short_link")
END_TO_END = ("setup_s", "session_s", "peak_rss_mb")
TRACED = ("source.busy_s", "channel.busy_s",
          "sync.recover_s", "sync.gate_s", "sync.ns_per_tag", "simulate.quantum_s",
          "receiver.detect_s", "protocol.alice_match_s", "protocol.bob_s", "receiver.tags")

# Bob's stages of one bundled session, each timed on its own, then the whole
# two-party session; two calls per process, the second one warm.
_STAGES = """
import json, resource, sys, time, tracemalloc
from fsbb84 import analysis, channel, receiver, runner, simulate, sync
from fsbb84.scenario import bundled_scenario
sc = bundled_scenario(sys.argv[1]).override(
    {"duration_s": float(sys.argv[2]), "sync.beacon_assisted": sys.argv[3] == "1"})
src, rx = sc.source, sc.receiver
def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
def stage(s, name, call, *args, **kwargs):
    f, t = minflt(), time.perf_counter()
    result = call(*args, **kwargs)
    s[name], s["minflt"][name] = time.perf_counter() - t, minflt() - f
    return result
out = []
for _ in range(2):
    s = {"minflt": {}}
    arr = stage(s, "transmit_stream", channel.transmit_stream, src, sc.channel, sc.n_pulses,
                rx.efficiency, analysis.analyzer_table(rx.misalignment_deg),
                true_clock=sc.sync.true_clock)
    tags = stage(s, "detect", receiver.detect, arr, rx,
                 session_duration_s=sc.simulated_duration_s,
                 window_ps=simulate.receiver_window_ps(sc))
    known = sc.sync.true_clock.drift_ppm if sc.sync.beacon_assisted else None
    clock = stage(s, "recover_clock", sync.recover_clock, tags.time_ps, src.period_ps,
                  known_drift_ppm=known, coarse_reference_ps=simulate.expected_offset_ps(sc))
    stage(s, "assign_and_gate", sync.assign_and_gate, tags, clock, sc.sync.gate_width_ps)
    stage(s, "run_in_process", runner.run_in_process, sc)
    s["photons"], s["tags"] = len(arr), len(tags)
    out.append(s)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tracemalloc.start()
channel.transmit_stream(src, sc.channel, sc.n_pulses, rx.efficiency,
                        analysis.analyzer_table(rx.misalignment_deg),
                        true_clock=sc.sync.true_clock)
traced = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
print(json.dumps({"calls": out, "n_pulses": sc.n_pulses, "peak_rss_mb": rss,
                  "transmit_stream_traced_peak_mb": traced}))
"""

# transmit_stream on sessions 0..n-1 of one workload: the wall time of each
# call, and the largest tracemalloc peak of a second, traced call.
_TRANSMIT = """
import json, sys, time, tracemalloc
import workloads
from fsbb84 import analysis, channel
name, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
wall, peak = [], 0.0
for i in range(n):
    sc = workloads.build(name, seed, i)
    rx = sc.receiver
    args = (sc.source, sc.channel, sc.n_pulses, rx.efficiency,
            analysis.analyzer_table(rx.misalignment_deg))
    t = time.perf_counter()
    channel.transmit_stream(*args, true_clock=sc.sync.true_clock)
    wall.append(time.perf_counter() - t)
    tracemalloc.start()
    channel.transmit_stream(*args, true_clock=sc.sync.true_clock)
    peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
    tracemalloc.stop()
print(json.dumps({"transmit_stream_s": wall, "traced_peak_mb": peak}))
"""

# recover_clock on one weak stream: the FFT lengths of the first call, then
# the wall time of each call; the stream is drawn before the RSS baseline.
_WEAK = """
import json, resource, sys, time
import numpy as np
from fsbb84 import sync
P = 10_000.0
secs, sig, bg, drift, seed, calls = (float(a) for a in sys.argv[1:])
n_pulses = round(secs * 1e12 / P)
rng = np.random.default_rng(int(seed))
p = sig * P * 1e-12
clicked = np.cumsum(rng.geometric(p, size=int(1.2 * n_pulses * p) + 100)) - 1
clicked = clicked[clicked < n_pulses]
rate = 1.0 + drift * 1e-6
t_sig = 2_468.0 + rate * (clicked * P + rng.normal(0.0, 171.0, clicked.size))
t_bg = 2_468.0 + rng.random(rng.poisson(bg * secs)) * n_pulses * P * rate
t = np.sort(np.rint(np.concatenate([t_sig, t_bg])).astype(np.int64))
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
fft, lengths = np.fft.fft, []
np.fft.fft = lambda a, *args, **kw: (lengths.append(len(a)), fft(a, *args, **kw))[1]
wall = []
for i in range(int(calls)):
    s = time.perf_counter()
    clock = sync.recover_clock(t, P, coarse_reference_ps=2_468.0)
    wall.append(time.perf_counter() - s)
    if i == 0:
        np.fft.fft = fft
print(json.dumps({"tags": len(t), "fft_lengths": lengths, "recover_clock_s": wall,
                  "drift_error_ppm": clock.drift_ppm - drift, "rss_before_mb": base,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

# FIXED_SESSIONS sessions of one workload as perfbench runs them, untimed.
_FIXED_RSS = """
import gc, resource, sys
import workloads
from fsbb84 import analysis, runner
name, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for i in range(n):
    gc.collect()
    sc = workloads.build(name, seed, i)
    analysis.predict(sc)
    runner.run_in_process(sc)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

# A warm worker: reads "workload seed index" lines and runs each session as
# perfbench does (numeric pools pinned to one thread; built, collected, then
# timed), printing its wall time and the minor page faults it took, in all
# and in each of Bob's stages.
_WARM = """
import gc, json, os, resource, sys, time
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
import workloads
from fsbb84 import channel, receiver, runner, sync
def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stages = {}
def count_faults(module, name):
    call = getattr(module, name)
    def counted(*args, **kwargs):
        f = minflt()
        try:
            return call(*args, **kwargs)
        finally:
            stages[name] = stages.get(name, 0) + minflt() - f
    setattr(module, name, counted)
for module, name in ((channel, "transmit_stream"), (receiver, "detect"),
                     (sync, "recover_clock"), (sync, "assign_and_gate")):
    count_faults(module, name)
for line in sys.stdin:
    name, seed, i = line.split()
    sc = workloads.build(name, int(seed), int(i))
    gc.collect()
    stages.clear()
    f, t = minflt(), time.perf_counter()
    runner.run_in_process(sc)
    s = time.perf_counter() - t
    print(json.dumps({"session_s": s, "minflt": minflt() - f, "stage_minflt": stages}),
          flush=True)
"""
SCRIPTS = ("_STAGES", "_TRANSMIT", "_WEAK", "_FIXED_RSS", "_WARM")


def _scripts(root: Path) -> dict:
    """The embedded scripts of ``root``'s ``tools/bench_pairs.py``; this file's where it has none."""
    own = {name: globals()[name] for name in SCRIPTS}
    path = root / "tools" / "bench_pairs.py"
    if not path.is_file():
        return own
    found = {target.id: node.value.value
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
             and isinstance(node.value.value, str)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id in own}
    return {**own, **found}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    return env


def _perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    for cache in list((root / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _script(root: Path, name: str, *args):
    """``root``'s embedded script ``name`` in a fresh process on its tree; its JSON output."""
    proc = subprocess.run([sys.executable, "-c", _scripts(root)[name], *map(str, args)],
                          env=_env(root), capture_output=True, text=True, timeout=900,
                          check=True)
    return json.loads(proc.stdout)


def _interleaved(sides: dict, workload: str, seed: int, rounds: int, warm_up: int) -> dict:
    """Sessions 0..rounds-1 of ``workload`` on one warm worker per side, in turn.

    Each worker first runs ``warm_up`` sessions of another seed untimed;
    then round i runs session i on every side, the parent first in even
    rounds. Returns each side's list of ``{"session_s", "minflt"}``.
    """
    workers = {s: subprocess.Popen([sys.executable, "-c", _scripts(root)["_WARM"]],
                                   env=_env(root), stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)
               for s, root in sides.items()}
    try:
        def run(side, seed_, i):
            w = workers[side]
            w.stdin.write(f"{workload} {seed_} {i}\n")
            w.stdin.flush()
            line = w.stdout.readline()
            if not line:
                raise RuntimeError(f"{side} warm worker exited with code {w.wait()}")
            return json.loads(line)

        for i in range(warm_up):
            for side in sides:
                run(side, seed + 1, i)
        rec = {s: [] for s in sides}
        for i in range(rounds):
            for side in (sides if i % 2 == 0 else reversed(list(sides))):
                rec[side].append(run(side, seed, i))
        return rec
    finally:
        for w in workers.values():
            w.stdin.close()
            w.wait(timeout=60)


def _alternating(sides: dict, script: str, args) -> dict:
    """Embedded script ``script`` in STAGE_PROCESSES processes per side, ``args(i)`` in round i.

    Even rounds run the sides in order, odd rounds in reverse.
    """
    rec = {s: [] for s in sides}
    for i in range(STAGE_PROCESSES):
        for s in (sides if i % 2 == 0 else reversed(list(sides))):
            rec[s].append(_script(sides[s], script, *args(i)))
    return rec


def _quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def _compare(parent: list, change: list) -> dict:
    return {"parent": _quartiles(parent), "change": _quartiles(change),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    # setup_s compiles every module on the setup path when no bytecode is written
    return {"cpu": cpu, "arch": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
            "src_pycache": "removed from each side's src before each perfbench run"}


def _src_lines(root: Path) -> int:
    """Lines of Python under ``root``'s ``src``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": REPO}
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "src"))
    import workloads

    runs = {w: {s: [] for s in sides} for w in WORKLOADS}
    rss = {w: {s: [] for s in sides} for w in WORKLOADS}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            for side in order:
                runs[w][side].append(_perfbench(sides[side], w, args.seed + i, 0))
                m = runs[w][side][-1]["metrics"]
                print(f"pair {i} {w} {side}: session_s {m['session_s']['value']:.4f}", flush=True)
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            for side in order:
                rss[w][side].append(_script(sides[side], "_FIXED_RSS", w, args.seed + i,
                                            FIXED_SESSIONS))
                print(f"pair {i} {w} {side}: {FIXED_SESSIONS}-session peak_rss_mb "
                      f"{rss[w][side][-1]:.2f}", flush=True)

    end_to_end = {}
    for w in WORKLOADS:
        rec = {"n_pulses": workloads.WORKLOADS[w].n_pulses}
        for k in END_TO_END:
            rec[k] = _compare(*([r["metrics"][k]["value"] for r in runs[w][s]] for s in sides))
        rec["sessions"] = {f"{s}_{k}": sum(r[k] for r in runs[w][s])
                           for s in sides for k in ("attempted", "failed")}
        rec[f"peak_rss_mb_{FIXED_SESSIONS}_sessions"] = _compare(*(rss[w][s] for s in sides))
        end_to_end[w] = rec

    interleaved = {}
    for w in WORKLOADS:
        rec = _interleaved(sides, w, args.seed + PAIRS, WARM_ROUNDS, WARM_UP)
        interleaved[w] = {
            "session_s": _compare(*([r["session_s"] for r in rec[s]] for s in sides)),
            "minflt": {s: _quartiles([r["minflt"] for r in rec[s]]) for s in sides},
            "stage_minflt": {s: {k: _quartiles([r["stage_minflt"][k] for r in rec[s]])
                                 for k in rec[s][0]["stage_minflt"]} for s in sides},
        }
        c = interleaved[w]["session_s"]
        print(f"{w} interleaved session_s: parent {c['parent']['median']:.5f} change "
              f"{c['change']['median']:.5f} ({c['change_better_pairs']}/{c['pairs']} rounds); "
              "minflt " + ", ".join(f"{s} {interleaved[w]['minflt'][s]['median']:.0f}"
                                    for s in sides), flush=True)

    traced = {s: {} for s in sides}
    for w in WORKLOADS:
        for s, root in sides.items():
            m = _perfbench(root, w, TRACE_SEED, 1)["metrics"]
            traced[s][w] = {k: round(m[k]["value"], 6) for k in TRACED}

    transmit = {}
    for w in WORKLOADS:
        rec = _alternating(sides, "_TRANSMIT", lambda i: (w, args.seed + i, FIXED_SESSIONS))
        transmit[w] = {s: {"transmit_stream_s": _quartiles([t for r in rec[s]
                                                             for t in r["transmit_stream_s"]]),
                           "traced_peak_mb": round(max(r["traced_peak_mb"] for r in rec[s]), 3)}
                       for s in sides}
        print(f"{w} transmit_stream: " + ", ".join(
            f"{s} {transmit[w][s]['transmit_stream_s']['median']:.5f} s / "
            f"{transmit[w][s]['traced_peak_mb']:.2f} MB traced" for s in sides), flush=True)

    stage_runs = []
    for name, seconds, beacon in STAGE_RUNS:
        rec = {"scenario": name, "seconds": seconds, "beacon_assisted": beacon,
               **_alternating(sides, "_STAGES", lambda i: (name, seconds, int(beacon)))}
        print(f"{name} {seconds} s beacon={beacon}: run_in_process / peak_rss_mb "
              + ", ".join(f"{s} {min(r['calls'][1]['run_in_process'] for r in rec[s]):.3f} s / "
                          f"{max(r['peak_rss_mb'] for r in rec[s]):.0f} MB" for s in sides),
              flush=True)
        stage_runs.append(rec)

    weak_streams = []
    for stream in WEAK_STREAMS:
        rec = {"stream": dict(zip(("seconds", "signal_cps", "background_cps", "drift_ppm",
                                   "seed"), stream)),
               **_alternating(sides, "_WEAK", lambda i: (*stream, WEAK_CALLS))}
        wall = {s: statistics.median(w for r in rec[s] for w in r["recover_clock_s"][1:])
                for s in sides}
        print(f"weak stream {stream}: recover_clock median / peak_rss_mb "
              + ", ".join(f"{s} {wall[s]:.4f} s / {max(r['peak_rss_mb'] for r in rec[s]):.0f} MB"
                          for s in sides), flush=True)
        weak_streams.append(rec)

    doc = {
        "machine": _machine(),
        "src_python_lines": {s: _src_lines(root) for s, root in sides.items()},
        "end_to_end": {
            "harness": f"python3 perfbench/run.py --workload W --seed {args.seed}+i "
                       f"--seconds {SECONDS:g} --trace 0",
            "order": "even pairs ran the parent first, odd pairs the change first; "
                     "workloads interleaved within each pair",
            "fixed_sessions": f"peak_rss_mb_{FIXED_SESSIONS}_sessions: ru_maxrss of a fresh "
                              f"process that builds, predicts and runs sessions 0-"
                              f"{FIXED_SESSIONS - 1} of seed {args.seed}+i, untimed, in the "
                              "same alternating pairs",
            "workloads": end_to_end,
        },
        "interleaved": {
            "measure": f"one warm worker process per side and workload runs sessions 0-"
                       f"{WARM_ROUNDS - 1} of seed {args.seed}+{PAIRS}, each session on both "
                       "sides in turn, the parent first in even rounds, after "
                       f"{WARM_UP} untimed sessions of seed {args.seed}+{PAIRS + 1}; "
                       "session_s is run_in_process's wall time, minflt the minor page "
                       "faults of the worker's own usage across it and stage_minflt those "
                       "within each of Bob's stages",
            "workloads": interleaved,
        },
        "per_layer": {
            "harness": f"python3 perfbench/run.py --workload W --seed {TRACE_SEED} "
                       f"--seconds {SECONDS:g} --trace 1 (one run per side)",
            **traced,
        },
        "transmit_stream": {
            "measure": f"channel.transmit_stream alone on sessions 0-{FIXED_SESSIONS - 1} of seed "
                       f"{args.seed}+i, {STAGE_PROCESSES} processes per side, alternating: "
                       "quartiles of the calls' wall time, and the largest tracemalloc peak of "
                       "a second, traced call",
            "workloads": transmit,
        },
        "stage_runs": {
            "measure": "stage wall times of Bob's chain, then run_in_process, with each stage's "
                       "minor page faults (minflt); two calls per "
                       f"process, {STAGE_PROCESSES} processes per side, alternating; "
                       "peak_rss_mb is the process's ru_maxrss before a third, traced "
                       "transmit_stream call, whose tracemalloc peak is "
                       "transmit_stream_traced_peak_mb",
            "runs": stage_runs,
        },
        "weak_streams": {
            "measure": f"recover_clock on a synthetic stream, {WEAK_CALLS} calls per process, "
                       f"{STAGE_PROCESSES} processes per side, alternating; the first call is "
                       "cold and records fft_lengths, its transforms; peak_rss_mb is the "
                       "process's ru_maxrss",
            "runs": weak_streams,
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, rec in end_to_end.items():
        c = rec["session_s"]
        print(f"{w}: session_s parent {c['parent']['median']} change {c['change']['median']} "
              f"({c['change_better_pairs']}/{c['pairs']} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
