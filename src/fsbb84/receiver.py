"""Bob's analyzer bench: passive basis choice, four APDs, time tagging.

The optical part of the bench acts in the channel's Poisson thinning
(:func:`fsbb84.channel.transmit_stream`): the lumped receiver efficiency
(spectral filter, fiber coupling, APD quantum efficiency) scales the
photon mean, and each photon that reaches the APDs picks one from
:func:`fsbb84.analysis.analyzer_table`, a 50/50 passive basis choice
followed by Malus' law on the misaligned analyzer, the table that
:func:`predict <fsbb84.analysis.predict>` uses. :func:`detect` starts
from those photons, each already at its APD, and applies Gaussian timing
jitter and quantization to the tagger resolution.

Background (solar + dark) counts are injected as four independent Poisson
processes, one per APD, at a common configured rate. Signal photons come
in pulse order, not time order once jitter spreads them. Signal and
background times are quantized together and keyed by (time, APD) in one
int64 each. The chain's only time sort orders those keys as two runs: the
signal's, sorted but for jitter, and the background's, sorted alone first;
one stable sort merges them, and each tag's time and APD are read back
from its key. Equal keys are equal tags. Only the truth labels need to
know which tag is which, so with truth a stable argsort of the same keys
orders the tags instead: at equal (time, APD) signal comes before
background and keeps pulse order. Each APD then applies
non-paralyzable dead time to its own tags in that order: a tag at least
one dead time after the previous tag on its APD opens a cluster and is
kept (a head); inside a cluster the kept tags are the chain
``i -> nxt[i]``, the first tag at least one dead time after ``t[i]``,
followed from the head. The chains of all clusters advance together, one
array step per round. The kept tags stay in the merged order, so the tag
stream is non-decreasing.

Detector indices follow the state encoding: H=0, V=1, D=2, A=3, so
``basis = detector >> 1`` and ``bit = detector & 1``.

Memory: beside the caller's photons, :func:`detect` holds one int64 key
per photon and background tag, quantized through BLOCK-entry float
scratch and sorted in place (the stable merge takes up to 4 bytes per
tag), a detector byte and a keep byte per tag, and one APD's indices and
times at a time. The kept tags move to the front of the key buffer, which
shrinks in place into their times: 9 bytes per tag returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import PhotonArrivals
from .errors import ConfigError, ContractViolationError
from .scenario import DISCARD, MAX_TAG_PS, ReceiverConfig
from .seeds import BLOCK, STREAM_BACKGROUND, STREAM_RECEIVER, spawn

DET_H, DET_V, DET_D, DET_A = 0, 1, 2, 3
DETECTOR_NAMES = "HVDA"

# For a 4-bit detector mask: its number of set bits, and its k-th set bit.
_SET_BITS = [[d for d in range(4) if m >> d & 1] for m in range(16)]
_N_SET = np.array([len(b) for b in _SET_BITS], dtype=np.int64)
_NTH_SET = np.array([b + [0] * (4 - len(b)) for b in _SET_BITS], dtype=np.uint8)


@dataclass
class TimeTags:
    """Merged tagger output (times non-decreasing).

    ``truth_pulse_index`` is simulation-only provenance: the originating
    pulse for signal tags, -1 for background. The protocol never reads it.
    """

    detector: np.ndarray  # uint8
    time_ps: np.ndarray  # int64
    truth_pulse_index: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.time_ps)

    def per_detector_counts(self) -> dict[str, int]:
        return dict(zip(DETECTOR_NAMES, np.bincount(self.detector, minlength=4).tolist()))


def _dead_time_filter(times: np.ndarray, dead_ps: int) -> np.ndarray:
    """Boolean keep-mask of non-paralyzable dead time on sorted times.

    Heads and ``nxt`` chains as in the module docstring. Each round steps
    every cluster's chain by one kept tag, so the rounds number the
    longest kept chain of one cluster.
    """
    n = len(times)
    if dead_ps <= 0 or n < 2:
        return np.ones(n, dtype=bool)
    keep = np.empty(n + 1, dtype=bool)  # keep[n]: a chain that runs off the end stops
    keep[0] = keep[n] = True
    for a in range(1, n, BLOCK):  # keep[i]: t[i] - t[i - 1] >= dead_ps
        b = min(a + BLOCK, n)
        np.greater_equal(times[a:b] - times[a - 1:b - 1], dead_ps, out=keep[a:b])
    front = np.flatnonzero(keep[:n - 1] & ~keep[1:n])  # heads of clusters of >= 2
    while front.size:
        front = np.searchsorted(times, times[front] + dead_ps)
        front = front[~keep[front]]  # a chain that reaches the next head stops
        keep[front] = True
    return keep[:n]


def _quantize(key: np.ndarray, t_arr: np.ndarray, config: ReceiverConfig) -> None:
    """Fill ``key`` with tag times quantized to the tagger resolution in float64.

    ``key`` holds the background's times after the signal's place; the
    signal's are its arrivals plus their jitter (its own stream; standard
    normals times sigma are normal(0, sigma)'s draws bit for bit). BLOCK
    entries at a time go through one float buffer.
    """
    jitter = spawn(config.rng_seed, STREAM_RECEIVER).standard_normal
    res, n_sig = int(config.tag_resolution_ps), len(t_arr)
    scratch = np.empty(min(BLOCK, len(key)))
    for a in range(0, len(key), BLOCK):
        t = scratch[:min(BLOCK, len(key) - a)]
        m = min(max(n_sig - a, 0), len(t))  # the block's signal entries
        jitter(out=t[:m])
        t[:m] *= config.jitter_sigma_ps
        t[:m] += t_arr[a:a + m]
        t[m:] = key[a + m:a + len(t)]
        if res != 1:
            t /= res
        np.rint(t, out=t)
        if res != 1:
            t *= res
        key[a:a + len(t)] = t


def detect(arrivals: PhotonArrivals, config: ReceiverConfig, session_duration_s: float,
           window_ps: tuple[int, int], with_truth: bool = False) -> TimeTags:
    """Turn photons at the APDs into the merged, dead-time-filtered tag stream.

    ``window_ps`` bounds the background injection: the session's
    receiver-clock window, so background covers the same span as the
    signal. ``with_truth`` adds each tag's originating pulse.
    """
    t_arr = arrivals.arrival_time_ps
    n_sig = len(t_arr)
    # Background: one Poisson process per APD over the observation window
    bg = spawn(config.rng_seed, STREAM_BACKGROUND)
    w0, w1 = int(window_ps[0]), int(window_ps[1])
    blocks = []
    for _ in range(4):
        n_bg = bg.poisson(config.background_rate_cps_per_apd * session_duration_s)
        blocks.append(bg.integers(w0, max(w1, w0 + 1), size=n_bg, dtype=np.int64))
    n_bg = list(map(len, blocks))
    key = np.empty(n_sig + sum(n_bg), dtype=np.int64)
    np.concatenate(blocks, out=key[n_sig:])
    del blocks
    _quantize(key, t_arr, config)

    # The one time sort, on keys 4 (t - t_min) + APD: the background run
    # sorted alone, then merged with the signal's (sorted but for jitter) by
    # one stable sort. Equal keys are equal tags, so only the truth needs the
    # stable argsort that puts signal first at an equal key. Each APD's dead
    # time acts on its own tags in that order.
    t_min, t_max = (int(key.min()), int(key.max())) if len(key) else (0, 0)
    if max(t_max, -t_min) >= MAX_TAG_PS:
        raise ContractViolationError("tag times past 2^53 ps are not whole picoseconds in float64")
    if 4 * (t_max - t_min) + 3 >= 2**63:
        raise ContractViolationError("tag times span too wide for one int64 key")
    key -= t_min
    key <<= 2
    key[:n_sig] += arrivals.detector
    key[n_sig:] += np.repeat(np.arange(4, dtype=np.uint8), n_bg)
    if with_truth:
        by_time = np.argsort(key, kind="stable")
        key = key.take(by_time)
    else:
        key[n_sig:].sort()
        key.sort(kind="stable")
    det = key.astype(np.uint8)  # the key's low byte
    det &= 3
    t = key
    t >>= 2
    t += t_min
    dead_ps = int(round(config.dead_time_ns * 1000.0))
    keep = np.empty(len(t), dtype=bool)
    for d in range(4):
        on_d = np.flatnonzero(det == d)
        keep[on_d] = _dead_time_filter(t.take(on_d), dead_ps)
    del on_d
    truth = None
    if with_truth:
        background = np.full(len(t) - n_sig, -1, dtype=np.int64)
        truth = np.concatenate([arrivals.pulse_index, background])[by_time[keep]]
    # The kept tags move to the front of their buffers, BLOCK at a time, and
    # the buffers shrink in place to them: the tags keep the key buffer.
    n = 0
    for a in range(0, len(t), BLOCK):
        kept = np.flatnonzero(keep[a:a + BLOCK])
        t[n:n + len(kept)] = t[a:a + BLOCK].take(kept)
        det[n:n + len(kept)] = det[a:a + BLOCK].take(kept)
        n += len(kept)
    for kept in (t, det):
        kept.resize(n, refcheck=False)  # in place: no view of them is left
    return TimeTags(detector=det, time_ps=t, truth_pulse_index=truth)


def classify_clicks(pulse_index: np.ndarray, detector: np.ndarray, policy: str,
                    rng: np.random.Generator):
    """Resolve per-pulse click multiplicity.

    Groups gate-accepted tags by assigned pulse; ``pulse_index`` must be
    non-decreasing, as :func:`fsbb84.sync.assign_and_gate` leaves it. Pulses
    with one tag pass through; multi-click pulses are either dropped
    (``discard``) or resolved to a uniformly chosen detector among the
    distinct clicking detectors (``random_bit``);
    :class:`~fsbb84.scenario.ReceiverConfig` validates the policy. Returns
    (pulse_index, detector, n_multi, n_discarded), strictly increasing in
    pulse index.
    """
    if len(pulse_index) == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 0, 0)

    # first[i]: tag i opens its pulse's run; first[n] closes the last run.
    # A pulse is a multi-click if the tag after its first opens no run.
    n = len(pulse_index)
    first = np.empty(n + 1, dtype=bool)
    first[0] = first[n] = True
    np.not_equal(pulse_index[1:], pulse_index[:-1], out=first[1:n])
    head, nxt = first[:n], first[1:]
    multi = ~nxt[head]
    n_multi = int(np.count_nonzero(multi))

    if policy == DISCARD:
        single = head & nxt
        return pulse_index[single], detector[single], n_multi, n_multi
    # The distinct clicking detectors of each multi-click pulse as a 4-bit
    # mask; one draw per such pulse, in pulse order, picks a set bit.
    in_multi = ~(head & nxt)
    clicks = np.left_shift(np.uint8(1), detector[in_multi])
    mask = np.bitwise_or.reduceat(clicks, np.flatnonzero(head[in_multi]))
    out = detector[head]
    out[multi] = _NTH_SET[mask, rng.integers(0, _N_SET[mask])]
    return pulse_index[head], out, n_multi, 0


# ---------------------------------------------------------------------------
# Binary tag dump (detector u8, time_ps i64 LE)
# ---------------------------------------------------------------------------

_TAG_DTYPE = np.dtype([("detector", "u1"), ("time_ps", "<i8")])


def dump_tags(tags: TimeTags, path) -> None:
    rec = np.empty(len(tags), dtype=_TAG_DTYPE)
    rec["detector"] = tags.detector
    rec["time_ps"] = tags.time_ps
    with open(path, "wb") as f:
        f.write(rec.tobytes())


def load_tags(path) -> TimeTags:
    """Read a tag dump; a ConfigError naming the file unless it is a valid TimeTags."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) % _TAG_DTYPE.itemsize:
        raise ConfigError(f"{len(data)} bytes is not a whole number of 9-byte records", str(path))
    rec = np.frombuffer(data, dtype=_TAG_DTYPE)
    tags = TimeTags(detector=rec["detector"].copy(), time_ps=rec["time_ps"].copy())
    for bad, what in ((np.flatnonzero(tags.detector > 3), "has a detector outside 0-3"),
                      (np.flatnonzero(tags.time_ps[1:] < tags.time_ps[:-1]) + 1,
                       "has time_ps below the record before it")):
        if bad.size:
            raise ConfigError(f"record {bad[0]} {what}", str(path))
    return tags
