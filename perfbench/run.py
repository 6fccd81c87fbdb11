"""fsbb84 session benchmark.

One run measures one workload in a fresh process::

    python3 perfbench/run.py --workload daylight_780m --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times full two-party sessions (``run_in_process``)
back to back for ``--seconds`` and reports the end-to-end metrics
``setup_s``, ``session_s`` and ``peak_rss_mb``. With ``--trace 1`` it runs
each session untraced and traced (alternating which goes first), checks
that both give identical counts, and reports the per-layer metrics. Every session is checked for
correctness; a session that raises or fails a check counts as failed.

Without ``--workload`` it runs every workload, each in its own process,
and prints a summary table. The last line of a single-workload run is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The full
run record (metadata, per-session results, accuracy, spans) goes to
``perfbench/out/``. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up probes per untraced run, spread evenly over it so their median
# samples the whole run rather than its first second.
SETUP_PROBES = 9
END_TO_END_UNITS = {"setup_s": "s", "session_s": "s", "peak_rss_mb": "MB"}
# Numeric thread pools pinned to one thread: the load is then the two
# session threads only.
PINNED_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Process start -> ready scenario, measured in a fresh interpreter: imports
# fsbb84, builds session 0's scenario and runs the oracle.
_SETUP_PROBE = ("import time, workloads; from fsbb84 import analysis; "
                "analysis.predict(workloads.build({name!r}, {seed}, 0)); "
                "print(time.monotonic())")


def import_program():
    """Import fsbb84 from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "fsbb84" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsbb84 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsbb84

    if Path(fsbb84.__file__).resolve().parent != SRC / "fsbb84":
        raise SystemExit(f"error: fsbb84 imported from {fsbb84.__file__}, not {SRC}")


def setup_time(name: str, seed: int) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH_DIR),
                                                      env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE.format(name=name, seed=int(seed))],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1]) - t0


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _metadata(name: str, seed: int, seconds: float, trace: int, n_pulses: int) -> dict:
    import numpy

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "n_pulses": n_pulses,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned_pools": {k: os.environ.get(k) for k in PINNED_POOLS},
    }


class _Session:
    """One session of a workload: scenario, oracle, outcome and timing."""

    def __init__(self, name: str, seed: int, index: int, n_pulses):
        import workloads
        from fsbb84 import analysis

        self.index = index
        self.scenario = workloads.build(name, seed, index, n_pulses)
        self.predicted = analysis.predict(self.scenario)
        self.bob = self.alice = self.quantum = None
        self.session_s = None
        self.failures: list[str] = []

    def run(self) -> "_Session":
        import checks
        from fsbb84 import runner

        gc.collect()  # collect earlier sessions' garbage outside the timed region
        try:
            t0 = time.perf_counter()
            self.bob, self.alice, self.quantum = runner.run_in_process(self.scenario)
            self.session_s = time.perf_counter() - t0
        except Exception as e:  # a failed session is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"raised {type(e).__name__}: {e}")
            return self
        self.failures += checks.session_failures(self.predicted, self.bob, self.alice)
        return self

    def record(self) -> dict:
        rec = {"index": self.index, "session_s": self.session_s, "failures": self.failures}
        if self.bob is not None:
            rec.update(qber=self.bob.qber.qber, sifted_rate_bps=self.bob.sifted_key_rate_bps,
                       sifted_bits=self.bob.sifted_key_length, tags=len(self.quantum.tags),
                       photons=self.quantum.n_arrivals)
        return rec


def _traced_pair(name: str, seed: int, index: int, n_pulses, tracer, layers: list):
    """Session ``index`` untraced and traced, alternating which runs first.

    Appends the traced session's layer metrics to ``layers`` and fails the
    traced session if its deterministic counts differ from the untraced one.
    """
    import checks
    import spans

    mark = len(tracer.spans)
    plain = traced = None
    for tracing in ((False, True) if index % 2 == 0 else (True, False)):
        if tracing:
            with tracer.installed():
                traced = _Session(name, seed, index, n_pulses).run()
        else:
            plain = _Session(name, seed, index, n_pulses).run()
    if plain.bob is not None and traced.bob is not None:
        traced.failures += checks.fidelity_failures(
            checks.deterministic_counts(plain.bob, plain.quantum),
            checks.deterministic_counts(traced.bob, traced.quantum))
        layer = spans.layer_metrics(tracer.spans[mark:], traced.scenario,
                                    traced.bob, traced.quantum)
        layer["trace.overhead_s"] = traced.session_s - plain.session_s
        layers.append(layer)
    return [plain.record(), traced.record()]


def _accuracy(scenario, predicted, sessions: list[dict]) -> dict:
    done = [s for s in sessions if s["session_s"] is not None]
    return {
        "bob_qber_mean": statistics.fmean(s["qber"] for s in done) if done else None,
        "bob_sifted_rate_bps_mean": (statistics.fmean(s["sifted_rate_bps"] for s in done)
                                     if done else None),
        "oracle_qber_total": predicted.qber_total,
        "oracle_sifted_rate_bps": predicted.sifted_rate_bps,
        "paper_reported_qber": scenario.metadata.get("reported_qber"),
        "paper_reported_key_rate_bps": scenario.metadata.get("reported_key_rate_bps"),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: int, n_pulses=None):
    """Run one workload; returns (result line, full run record).

    Sessions are kept only as small records, so ``peak_rss_mb`` is the
    high-water mark of one session rather than of the benchmark's history.
    """
    import spans
    import workloads
    from fsbb84 import analysis

    n_pulses = n_pulses or workloads.WORKLOADS[name].n_pulses
    setup: list[float] = []
    probes = 0 if trace else SETUP_PROBES
    sessions: list[dict] = []
    layers: list[dict] = []
    tracer = spans.Tracer()
    start = time.monotonic()
    index = 0
    while True:
        while len(setup) < probes and time.monotonic() >= start + len(setup) * seconds / probes:
            setup.append(setup_time(name, seed))
        if trace:
            sessions += _traced_pair(name, seed, index, n_pulses, tracer, layers)
        else:
            sessions.append(_Session(name, seed, index, n_pulses).run().record())
        index += 1
        if time.monotonic() >= start + seconds:
            break
    while len(setup) < probes:
        setup.append(setup_time(name, seed))

    failed = sum(1 for s in sessions if s["failures"])
    timed = [s["session_s"] for s in sessions if s["session_s"] is not None]
    if not timed or (trace and not layers):
        raise SystemExit(f"error: every {name} session raised")
    if trace:
        metrics = {k: _metric(statistics.median(layer[k] for layer in layers), unit)
                   for k, unit in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "session_s": _metric(statistics.median(timed), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
    result = {"correct": failed == 0, "attempted": len(sessions), "failed": failed,
              "metrics": metrics}
    first = workloads.build(name, seed, 0, n_pulses)
    record = {
        "metadata": _metadata(name, seed, seconds, trace, n_pulses),
        "sessions_attempted": len(sessions),
        "sessions_failed": failed,
        "setup_probes_s": setup,
        "accuracy": _accuracy(first, analysis.predict(first), sessions),
        "sessions": sessions,
        "result": result,
    }
    if trace:
        record["unmeasured"] = tracer.unmeasured
        record["never_called"] = spans.silent_targets(tracer)
        record["spans"] = [s._asdict() for s in tracer.spans]
    return result, record


def _print_summary(record: dict) -> None:
    md, acc, result = record["metadata"], record["accuracy"], record["result"]
    print(f"{md['workload']} seed={md['seed']} n_pulses={md['n_pulses']:.3g} "
          f"trace={md['trace']}: {record['sessions_failed']} of "
          f"{record['sessions_attempted']} sessions failed")
    for k, m in result["metrics"].items():
        print(f"  {k:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  accuracy: qber {acc['bob_qber_mean']:.4f} (oracle {acc['oracle_qber_total']:.4f}, "
          f"paper {acc['paper_reported_qber']}); sifted rate "
          f"{acc['bob_sifted_rate_bps_mean']:.0f} b/s (oracle "
          f"{acc['oracle_sifted_rate_bps']:.0f}, paper {acc['paper_reported_key_rate_bps']})")
    for s in record["sessions"]:
        for f in s["failures"]:
            print(f"  session {s['index']} failed: {f}")
    for name in record.get("unmeasured", []) + record.get("never_called", []):
        print(f"  warning: span {name} recorded nothing; its layer metrics read 0")


def run_one(args) -> int:
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    _print_summary(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so setup and memory are its own."""
    import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    if rows and not args.trace:
        print(f"\n{'workload':<22}"
              + "".join(f"{f'{k} ({u})':>20}" for k, u in END_TO_END_UNITS.items())
              + f"{'failed':>12}")
        for name, r in rows:
            cells = "".join(f"{r['metrics'][k]['value']:>20.4f}" for k in END_TO_END_UNITS)
            print(f"{name:<22}{cells}{r['failed']:>6} / {r['attempted']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; omit to run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for k in PINNED_POOLS:
        os.environ[k] = "1"
    import_program()
    import workloads

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (have: {', '.join(workloads.WORKLOADS)})")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
