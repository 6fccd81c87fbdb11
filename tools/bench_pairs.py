"""Compare a parent checkout with this one on the session benchmark; write a BENCH file.

Runs ``perfbench/run.py`` of the parent and of this repository in
alternating pairs (the parent first in even pairs, this tree first in odd
ones, workloads interleaved within a pair), and one traced run per side and
workload. Every other measurement of a session comes from one stage probe,
which runs whole sessions through ``runner.run_in_process`` with Bob's
stages wrapped at the names ``simulate`` looks them up under: the peak RSS
of a fixed number of sessions per workload in fresh processes, in the same
alternating pairs, with ``channel.transmit_stream``'s time in them; one warm
probe process per side and workload, which run the same sessions in turn
(the parent first in even rounds), so both sides share the host's drift,
with each session's minor page faults; the bundled runs of ``STAGE_RUNS``
stage by stage, cold, warm and traced, in fresh processes; and the
``tracemalloc`` high-water of sessions of each workload and of the bundled
runs of ``MEMORY_RUNS``, whole and per stage, in bytes and bytes per tag.
Clock recovery runs alone on the synthetic weak streams of ``WEAK_STREAMS``::

    python3 tools/bench_pairs.py --parent ../parent --seed 701 --out BENCH_29.json

Pair i runs with ``--seed`` + i; pick seeds no earlier BENCH file used, so
no run was seen while writing the change. Each side is imported from its
own ``src``, whose ``__pycache__`` directories are removed before each
perfbench run, so neither side reads bytecode an earlier run left (a
``PYTHONPYCACHEPREFIX`` would hide numpy's and the standard library's too,
and every set-up probe would compile them). Both sides run this file's two
embedded scripts, so both take the same measurement; besides
``run_in_process`` and the workload and bundled-scenario loaders they call
only names that ``perfbench/spans.py`` pins. The JSON records the machine,
numpy, each side's count of ``src/`` Python lines and pulse counts with the
medians and quartiles of every end-to-end metric and the count of pairs the
change won.
"""

from __future__ import annotations

import argparse
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

# Bob's stages the probe wraps, as perfbench/spans.py names them: each is
# replaced at the name simulate looks it up under.
STAGES = ("channel.transmit_stream", "receiver.detect", "sync.recover_clock",
          "sync.assign_and_gate")

# The stage probe: reads one session a line, "workload NAME SEED INDEX TRACED"
# or "bundled NAME SECONDS BEACON TRACED", and runs it as perfbench does
# (numeric pools pinned to one thread; built, predicted, collected, then
# timed; only a small record kept) with the stages its arguments name
# wrapped. It prints one JSON record a session: wall time and minor page
# faults, in all and per stage; photons and tags; with TRACED 1, under
# tracemalloc, the session's high-water and each stage's traced peak (what
# is held when it starts included), in bytes; and the process's ru_maxrss so
# far. A traced session is not collected first: a collection empties the
# interpreter's free lists, and tracemalloc would then count the blocks they
# serve (10-25 kB more a session).
_PROBE = """
import gc, importlib, json, os, resource, sys, time, tracemalloc
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
import workloads
from fsbb84 import analysis, runner
from fsbb84.scenario import bundled_scenario
def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stages, high = {}, [0]
def wrap(module, name):
    call = getattr(module, name)
    def stage(*args, **kwargs):
        traced = tracemalloc.is_tracing()
        if traced:
            high[0] = max(high[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        f, t = minflt(), time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            rec = stages[name] = {"s": time.perf_counter() - t, "minflt": minflt() - f}
            if traced:
                rec["traced_peak"] = tracemalloc.get_traced_memory()[1]
                high[0] = max(high[0], rec["traced_peak"])
    setattr(module, name, stage)
for target in sys.argv[1:]:
    module, name = target.split(".")
    wrap(importlib.import_module("fsbb84." + module), name)
for line in sys.stdin:
    kind, label, a, b, trace = line.split()
    if kind == "workload":
        sc = workloads.build(label, int(a), int(b))
    else:
        sc = bundled_scenario(label).override(
            {"duration_s": float(a), "sync.beacon_assisted": b == "1"})
    analysis.predict(sc)
    stages.clear()
    high[0] = 0
    if trace == "1":
        tracemalloc.start()
    else:
        gc.collect()
    f, t = minflt(), time.perf_counter()
    quantum = runner.run_in_process(sc)[2]
    rec = {"session_s": time.perf_counter() - t, "minflt": minflt() - f,
           "photons": quantum.n_arrivals, "tags": len(quantum.tags)}
    del quantum
    if trace == "1":
        rec["traced_peak"] = max(high[0], tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    print(json.dumps({**rec, "n_pulses": sc.n_pulses, "stages": stages,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}),
          flush=True)
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

# Sessions per workload, and runs per bundled scenario, of the traced-memory
# runs; (bundled scenario, seconds) of the bundled runs they measure.
MEMORY_SESSIONS = 3
MEMORY_RUNS = (("table2_beam_expanders", 10), ("table2_beam_expanders", 60))


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


def _script(root: Path, script: str, args=(), lines=()) -> list:
    """``script`` on ``root``'s tree in a fresh process, fed ``lines``; its JSON lines."""
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], input="".join(lines),
                          env=_env(root), capture_output=True, text=True, timeout=900,
                          check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _probe(root: Path, lines) -> list:
    """The probe's records of the sessions ``lines`` names, in one process on ``root``'s tree."""
    return _script(root, _PROBE, STAGES, lines)


def _interleaved(sides: dict, workload: str, seed: int, rounds: int, warm_up: int) -> dict:
    """Sessions 0..rounds-1 of ``workload`` on one warm probe process per side, in turn.

    Each worker first runs ``warm_up`` sessions of another seed untimed;
    then round i runs session i on every side, the parent first in even
    rounds. Returns each side's list of probe records.
    """
    workers = {s: subprocess.Popen([sys.executable, "-c", _PROBE, *STAGES],
                                   env=_env(root), stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)
               for s, root in sides.items()}
    try:
        def run(side, seed_, i):
            w = workers[side]
            w.stdin.write(f"workload {workload} {seed_} {i} 0\n")
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


def _alternating(sides: dict, run) -> dict:
    """``run(root)`` in STAGE_PROCESSES rounds per side: even rounds in order, odd ones reversed."""
    rec = {s: [] for s in sides}
    for i in range(STAGE_PROCESSES):
        for s in (sides if i % 2 == 0 else reversed(list(sides))):
            rec[s].append(run(sides[s]))
    return rec


def _quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def _compare(parent: list, change: list) -> dict:
    return {"parent": _quartiles(parent), "change": _quartiles(change),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def _memory_summary(records: list) -> dict:
    """The traced probe record with the highest high-water per tag, in bytes and bytes per tag."""
    worst = max(records, key=lambda r: r["traced_peak"] / r["tags"])
    tags, stage = worst["tags"], {k: v["traced_peak"] for k, v in worst["stages"].items()}
    return {"tags": tags, "session_bytes": worst["traced_peak"],
            "session_bytes_per_tag": round(worst["traced_peak"] / tags, 2), "stage_bytes": stage,
            "stage_bytes_per_tag": {k: round(v / tags, 2) for k, v in stage.items()}}


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
    fixed = {w: {s: [] for s in sides} for w in WORKLOADS}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in WORKLOADS:
            for side in order:
                runs[w][side].append(_perfbench(sides[side], w, args.seed + i, 0))
                fixed[w][side].append(_probe(sides[side], [
                    f"workload {w} {args.seed + i} {j} 0\n" for j in range(FIXED_SESSIONS)]))
                m = runs[w][side][-1]["metrics"]
                print(f"pair {i} {w} {side}: session_s {m['session_s']['value']:.4f}, "
                      f"{FIXED_SESSIONS}-session peak_rss_mb "
                      f"{fixed[w][side][-1][-1]['peak_rss_mb']:.2f}", flush=True)

    end_to_end = {}
    for w in WORKLOADS:
        rec = {"n_pulses": workloads.WORKLOADS[w].n_pulses}
        for k in END_TO_END:
            rec[k] = _compare(*([r["metrics"][k]["value"] for r in runs[w][s]] for s in sides))
        rec["sessions"] = {f"{s}_{k}": sum(r[k] for r in runs[w][s])
                           for s in sides for k in ("attempted", "failed")}
        rec[f"peak_rss_mb_{FIXED_SESSIONS}_sessions"] = _compare(
            *([r[-1]["peak_rss_mb"] for r in fixed[w][s]] for s in sides))
        end_to_end[w] = rec

    interleaved = {}
    for w in WORKLOADS:
        rec = _interleaved(sides, w, args.seed + PAIRS, WARM_ROUNDS, WARM_UP)
        interleaved[w] = {
            "session_s": _compare(*([r["session_s"] for r in rec[s]] for s in sides)),
            "minflt": {s: _quartiles([r["minflt"] for r in rec[s]]) for s in sides},
            "stage_minflt": {s: {k: _quartiles([r["stages"][k]["minflt"] for r in rec[s]])
                                 for k in rec[s][0]["stages"]} for s in sides},
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

    stage_runs = []
    for name, seconds, beacon in STAGE_RUNS:
        lines = [f"bundled {name} {seconds} {int(beacon)} {t}\n" for t in (0, 0, 1)]
        rec = {"scenario": name, "seconds": seconds, "beacon_assisted": beacon,
               **_alternating(sides, lambda root: _probe(root, lines))}
        print(f"{name} {seconds} s beacon={beacon}: run_in_process / peak_rss_mb "
              + ", ".join(f"{s} {min(r[1]['session_s'] for r in rec[s]):.3f} s / "
                          f"{max(r[1]['peak_rss_mb'] for r in rec[s]):.0f} MB" for s in sides),
              flush=True)
        stage_runs.append(rec)

    weak_streams = []
    for stream in WEAK_STREAMS:
        rec = {"stream": dict(zip(("seconds", "signal_cps", "background_cps", "drift_ppm",
                                   "seed"), stream)),
               **_alternating(sides, lambda root: _script(root, _WEAK, (*stream, WEAK_CALLS))[0])}
        wall = {s: statistics.median(w for r in rec[s] for w in r["recover_clock_s"][1:])
                for s in sides}
        print(f"weak stream {stream}: recover_clock median / peak_rss_mb "
              + ", ".join(f"{s} {wall[s]:.4f} s / {max(r['peak_rss_mb'] for r in rec[s]):.0f} MB"
                          for s in sides), flush=True)
        weak_streams.append(rec)

    memory, transmit = {}, {}
    for label, lines in [
            *((w, [f"workload {w} {args.seed} {i} {t}\n"
                   for i in range(MEMORY_SESSIONS) for t in (0, 1)]) for w in WORKLOADS),
            *((f"{name}_{seconds}s", [f"bundled {name} {seconds} 0 {t}\n" for t in (0, 1)])
              for name, seconds in MEMORY_RUNS)]:
        rec = {s: [r for r in _probe(root, lines) if "traced_peak" in r]
               for s, root in sides.items()}
        memory[label] = {s: _memory_summary(rec[s]) for s in sides}
        print(f"{label} traced high-water: " + ", ".join(
            f"{s} {memory[label][s]['session_bytes_per_tag']:.1f} B/tag" for s in sides),
            flush=True)
        if label in WORKLOADS:
            transmit[label] = {s: {
                "transmit_stream_s": _quartiles([r["stages"]["transmit_stream"]["s"]
                                                 for run in fixed[label][s] for r in run]),
                "traced_peak_mb": round(max(r["stages"]["transmit_stream"]["traced_peak"]
                                            for r in rec[s]) / 2**20, 3)} for s in sides}

    doc = {
        "machine": _machine(),
        "src_python_lines": {s: _src_lines(root) for s, root in sides.items()},
        "end_to_end": {
            "harness": f"python3 perfbench/run.py --workload W --seed {args.seed}+i "
                       f"--seconds {SECONDS:g} --trace 0",
            "order": "even pairs ran the parent first, odd pairs the change first; "
                     "workloads interleaved within each pair",
            "fixed_sessions": f"peak_rss_mb_{FIXED_SESSIONS}_sessions: ru_maxrss of a fresh "
                              f"probe process that runs sessions 0-{FIXED_SESSIONS - 1} of seed "
                              f"{args.seed}+i as perfbench does, after that pair's perfbench run",
            "workloads": end_to_end,
        },
        "interleaved": {
            "measure": f"one warm probe process per side and workload runs sessions 0-"
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
            "measure": "channel.transmit_stream within the probe's sessions: quartiles of its "
                       f"wall time over the {FIXED_SESSIONS}-session runs' sessions, and its "
                       "largest tracemalloc peak over the traced_memory runs' sessions",
            "workloads": transmit,
        },
        "stage_runs": {
            "measure": f"{STAGE_PROCESSES} probe processes per side, alternating, each running "
                       "the bundled run three times: untraced cold, untraced warm, then traced; "
                       "the probe's records, per stage of Bob's chain its wall time s, minor "
                       "page faults minflt and, traced, its traced_peak in bytes; session_s is "
                       "run_in_process's wall time and peak_rss_mb the process's ru_maxrss "
                       "after that session",
            "runs": stage_runs,
        },
        "traced_memory": {
            "measure": "tracemalloc around run_in_process in the probe, after one untraced session "
                       f"of the same scenario: the session's high-water (workloads: the largest of "
                       f"sessions 0-{MEMORY_SESSIONS - 1} of seed {args.seed}; bundled runs: one "
                       "run) and the traced peak of each of Bob's stages, what is held when it "
                       "starts included, in bytes and bytes per tag",
            "runs": memory,
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
