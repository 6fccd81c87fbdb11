"""The benchmark's workloads: one generated scenario per link regime.

Every workload starts from a bundled scenario, reseeds it with
``Scenario.with_seed`` and adjusts it with ``dataclasses.replace``. The
program only ever receives the finished ``Scenario``.

Session ``i`` of a run with seed ``s`` uses master seed ``(s << 20) | i``,
so the same benchmark seed always yields the same sequence of sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from fsbb84.scenario import Scenario, bundled_scenario


def _daylight(sc: Scenario) -> Scenario:
    return sc


def _retro_beacon(sc: Scenario) -> Scenario:
    return replace(sc, sync=replace(sc.sync, beacon_assisted=True))


def _dense(sc: Scenario) -> Scenario:
    # 0 m link, ~3 dB in total, lossless receiver: about 4.7e-2 tags per
    # pulse, so detection-side stages dominate instead of the pulse loop.
    return replace(
        sc,
        name="dense_short_link",
        channel=replace(sc.channel, distance_m=0.0, extra_loss_db=3.0),
        receiver=replace(sc.receiver, efficiency_db=0.0, misalignment_deg=6.0),
        metadata={"synthetic": "dense_short_link"},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # bundled scenario it starts from
    n_pulses: int  # pulses per session
    adjust: Callable[[Scenario], Scenario]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("daylight_780m", "table2_beam_expanders", 50_000_000, _daylight,
             "780 m daylight link, ~3.8e-4 tags per pulse: cost follows pulses "
             "(source, channel, Alice's lookup) plus drift acquisition"),
    Workload("retro_beacon_weak_v", "table1_run1_retro", 50_000_000, _retro_beacon,
             "retro path with a weak V emitter and beacon sync: per-state mu source "
             "path, drift acquisition skipped (control for sync changes)"),
    Workload("dense_short_link", "table2_beam_expanders", 5_000_000, _dense,
             "0 m link, ~4.5e-2 tags per pulse: cost follows detections "
             "(clock recovery, dead time, multi-clicks, a large report on the wire)"),
)}


def build(name: str, seed: int, index: int, n_pulses: int | None = None) -> Scenario:
    """Scenario for session ``index`` of workload ``name`` under ``seed``."""
    w = WORKLOADS[name]
    sc = w.adjust(bundled_scenario(w.base).with_seed((int(seed) << 20) | int(index)))
    return replace(sc, protocol=replace(sc.protocol, n_pulses=n_pulses or w.n_pulses))
