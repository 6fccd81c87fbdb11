"""Traced runs: spans around the public calls into each module.

Each target is replaced at the name its caller looks it up under (for
example ``transmit_stream`` on ``fsbb84.channel``, because ``simulate``
calls ``channel.transmit_stream``), only while a traced session runs, and
the original is put back afterwards. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

# (span name, module, attribute as the caller resolves it)
TARGETS = (
    ("simulate.simulate_quantum_phase", "fsbb84.runner", "simulate_quantum_phase"),
    ("channel.transmit_stream", "fsbb84.channel", "transmit_stream"),
    ("source.generate_shard", "fsbb84.source", "generate_shard"),
    ("receiver.detect", "fsbb84.receiver", "detect"),
    ("receiver.classify_clicks", "fsbb84.receiver", "classify_clicks"),
    ("sync.recover_clock", "fsbb84.sync", "recover_clock"),
    ("sync.assign_and_gate", "fsbb84.sync", "assign_and_gate"),
    ("protocol.run_session", "fsbb84.runner", "run_session"),
    ("protocol.alice_match", "fsbb84.protocol.session", "alice_match"),
    ("transport.recv_message", "fsbb84.protocol.transport", "StreamTransport.recv_message"),
    ("transport.encode_frame", "fsbb84.protocol.transport", "encode_frame"),
    ("transport.decode_frame", "fsbb84.protocol.transport", "decode_frame"),
    ("analysis.predict", "fsbb84.analysis", "predict"),
)

# Per-layer metrics of a traced session: name -> unit.
LAYER_METRICS = {
    "source.busy_s": "s",
    "source.pulses": "count",
    "source.ns_per_pulse": "ns",
    "channel.busy_s": "s",
    "channel.photons": "count",
    "channel.photons_per_pulse": "ratio",
    "receiver.detect_s": "s",
    "receiver.tags": "count",
    "receiver.tags_per_photon": "ratio",
    "receiver.classify_s": "s",
    "receiver.multi_click": "count",
    "sync.recover_s": "s",
    "sync.ns_per_tag": "ns",
    "sync.drift_err_ppm": "ppm",
    "sync.residual_rms_ps": "ps",
    "sync.gate_s": "s",
    "sync.gate_accept_ratio": "ratio",
    "simulate.quantum_s": "s",
    "protocol.alice_match_s": "s",
    "protocol.alice_s": "s",
    "protocol.bob_s": "s",
    "protocol.wait_s.alice": "s",
    "protocol.wait_s.bob": "s",
    "protocol.encode_s": "s",
    "protocol.decode_s": "s",
    "protocol.wire_bytes": "B",
    "protocol.messages": "count",
    "protocol.sifted_bits": "count",
    "protocol.sift_ratio": "ratio",
    "analysis.predict_s": "s",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    id: int
    name: str
    thread: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _thread_label() -> str:
    t = threading.current_thread()
    return "main" if t is threading.main_thread() else t.name


def _attrs(name: str, args: tuple, result) -> Optional[dict]:
    if name == "protocol.run_session" and args:
        return {"role": args[0]}
    if name == "transport.encode_frame" and result is not None:
        return {"bytes": len(result)}
    return None


def _resolve(module: str, attr: str):
    """(owner object, leaf attribute name, current value) for a target."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Collects spans for calls made while :meth:`installed` is active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, _thread_label(), start, end, parent,
                                       _attrs(name, args, result)))

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; a missing one is reported, not fatal."""
        originals = []
        try:
            for name, module, attr in self.targets:
                try:
                    owner, leaf, fn = _resolve(module, attr)
                except (ImportError, AttributeError):
                    if name not in self.unmeasured:
                        self.unmeasured.append(name)
                        print(f"warning: {module}.{attr} not found; layer {name} unmeasured",
                              file=sys.stderr)
                    continue
                originals.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(name, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(originals):
                setattr(owner, leaf, fn)


def _role_of(span: Span, by_id: dict) -> Optional[str]:
    while span is not None:
        if span.name == "protocol.run_session" and span.attrs:
            return span.attrs["role"]
        span = by_id.get(span.parent)
    return None


def layer_metrics(spans: list[Span], scenario, bob, quantum) -> dict[str, float]:
    """Per-layer values of one traced session (``trace.overhead_s`` excluded)."""
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    total = defaultdict(float)
    own = defaultdict(float)  # self time: duration minus direct children
    calls = defaultdict(int)
    wait = defaultdict(float)
    run_session = {}
    wire_bytes = 0
    for s in spans:
        total[s.name] += s.duration
        own[s.name] += s.duration - child_time[s.id]
        calls[s.name] += 1
        if s.name == "transport.recv_message":
            wait[_role_of(s, by_id)] += s.duration - child_time[s.id]
        elif s.name == "protocol.run_session" and s.attrs:
            run_session[s.attrs["role"]] = run_session.get(s.attrs["role"], 0.0) + s.duration
        elif s.name == "transport.encode_frame" and s.attrs:
            wire_bytes += s.attrs["bytes"]

    pulses = scenario.n_pulses
    photons = quantum.n_arrivals
    tags = len(quantum.tags)
    reported = len(quantum.classified_index)
    source_s = total["source.generate_shard"]
    recover_s = total["sync.recover_clock"]
    return {
        "source.busy_s": source_s,
        "source.pulses": pulses,
        "source.ns_per_pulse": source_s / pulses * 1e9,
        "channel.busy_s": own["channel.transmit_stream"],
        "channel.photons": photons,
        "channel.photons_per_pulse": photons / pulses,
        "receiver.detect_s": total["receiver.detect"],
        "receiver.tags": tags,
        "receiver.tags_per_photon": tags / photons if photons else 0.0,
        "receiver.classify_s": total["receiver.classify_clicks"],
        "receiver.multi_click": quantum.n_multi_click,
        "sync.recover_s": recover_s,
        "sync.ns_per_tag": recover_s / tags * 1e9 if tags else 0.0,
        "sync.drift_err_ppm": abs(quantum.clock.drift_ppm - scenario.sync.true_clock.drift_ppm),
        "sync.residual_rms_ps": quantum.clock.residual_rms_ps,
        "sync.gate_s": total["sync.assign_and_gate"],
        "sync.gate_accept_ratio": len(quantum.assignments) / tags if tags else 0.0,
        "simulate.quantum_s": total["simulate.simulate_quantum_phase"],
        "protocol.alice_match_s": total["protocol.alice_match"],
        "protocol.alice_s": run_session.get("alice", 0.0),
        "protocol.bob_s": run_session.get("bob", 0.0),
        "protocol.wait_s.alice": wait["alice"],
        "protocol.wait_s.bob": wait["bob"],
        "protocol.encode_s": total["transport.encode_frame"],
        "protocol.decode_s": total["transport.decode_frame"],
        "protocol.wire_bytes": wire_bytes,
        "protocol.messages": calls["transport.encode_frame"],
        "protocol.sifted_bits": bob.sifted_key_length,
        "protocol.sift_ratio": bob.sifted_key_length / reported if reported else 0.0,
        "analysis.predict_s": total["analysis.predict"],
    }


def silent_targets(tracer: Tracer) -> list[str]:
    """Targets that were wrapped but never called: their layers read 0."""
    seen = {s.name for s in tracer.spans}
    return [name for name, _, _ in tracer.targets
            if name not in seen and name not in tracer.unmeasured]
