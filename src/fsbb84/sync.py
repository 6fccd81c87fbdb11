"""Pulse-grid recovery and temporal gating.

The receiver clock differs from the transmitter grid by an offset and a
slow frequency error (drift, ppm). Hardware provides a beacon that pins
the nominal repetition rate and coarse absolute timing; the fine mapping
is recovered from the quantum tags themselves:

1. *FFT acquisition*: the drift d maximizes the phase coherence
   ``|sum_j exp(2 pi i t_j / P(1+d))|``. Folded at P(1+d), the base phasors
   ``exp(2 pi i t_j / P)`` of grid tags turn at f = d / (P(1+d)), so the
   coherence is the magnitude of their Fourier transform over time, and
   the exact map d = fP / (1 - fP) reads d off the peak (the linear d = fP
   is ~10 cycles off over a 10 s stream at 100 ppm). The phasors are summed
   into time cells a quarter of the period of the guard's highest |f|,
   zero-padded to twice the span and transformed once; a parabolic fit to
   the largest bin within the guard resolves d well below P/(4 span), the
   step at which the grid slips a quarter period across the span.
   The span transformed is a leading sub-span, so the FFT's length and
   memory do not follow session length: 2^12 cells (0.1 s) first, then
   longer ones by powers of two, until the peak is 24x the guard band's
   median magnitude (a false peak that high over background alone has
   probability 2^-576 per bin). The ratio grows as the root of the span,
   so a failed sub-span skips to the first that it predicts will pass.
   The block regression of step 2 carries an acquired drift over the
   sub-span and over spans doubling from it, up to the last one short of
   the whole stream; at that peak ratio each hand-over keeps the next
   span's excursion under P/8 (see ``ACQ_PEAK_TO_MEDIAN``). The sub-spans
   tried take at most half of the whole stream's FFT points together;
   past that, or when none gets there, the whole stream is transformed,
   as it always was for a stream within the first sub-span. The cost is
   one bounded FFT plus work proportional to tags, and at most 1.5
   whole-stream FFTs on a stream too weak for any sub-span.
2. *Block-phase regression*: the full stream is cut into time blocks, each
   block contributes a circular-mean phase, and a weighted linear fit of
   phase versus block midtime refines drift and fixes the offset. Tags
   are non-decreasing, so each block is a run of them, summed in one pass.
3. *Peak refit*: offset and rate are fitted again, by least squares, to
   the wrapped residuals of the tags within a window around the folded
   peak, the window shrinking from P/8 to P/32. Every background tag
   enters the block phases, so at low signal-to-background (a few hundred
   signal tags under a thousand background tags) the regression alone
   leaves the offset about one timing sigma off; the refit brings it to
   a small fraction of one.

Each per-tag phase is one fold (:func:`_cycles`): ``t - kP`` in cycles, a
third of ``np.mod``'s cost. Steps 1 and 2 take its cos and sin in float32
(<= 2.4e-7 rad, 4e-4 ps of a 10 ns period, per tag) and sum them in float64;
that only moves where step 3, float64 and free of trigonometry, starts.

A significance guard rejects streams without a real grid signature (peak
of the histogram folded under the final mapping must exceed 3x its
median), so background-only input raises :class:`SyncFailureError`.

Recovered offsets are only defined modulo one period from tag data alone;
the coarse reference (from the beacon / shared scenario timing) selects
the absolute pulse numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, SyncFailureError

MIN_TAGS = 1000
# Largest |drift| a simulated clock may have (TrueClock) and the band the
# FFT acquisition searches.
DRIFT_GUARD_PPM = 100.0


@dataclass(frozen=True)
class TrueClock:
    """Ground-truth receiver-clock disturbance (simulation input)."""

    offset_ps: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        if abs(self.drift_ppm) > DRIFT_GUARD_PPM:
            raise ConfigError(f"|drift| must be <= {DRIFT_GUARD_PPM} ppm", "sync.true_clock.drift_ppm")

    @property
    def rate(self) -> float:
        return 1.0 + self.drift_ppm * 1e-6

    def to_receiver(self, t_source_ps):
        """Map transmitter-side times onto the receiver clock."""
        return self.offset_ps + self.rate * np.asarray(t_source_ps, dtype=np.float64)


@dataclass(frozen=True)
class ClockModel:
    """Recovered mapping: t_source = (t_receiver - offset_ps) / (1 + drift)."""

    offset_ps: float
    drift_ppm: float
    residual_rms_ps: float
    period_ps: float
    rate = TrueClock.rate


def source_time_ps(t: np.ndarray, offset_ps: float, rate: float) -> np.ndarray:
    """Receiver times mapped to the source clock, (t - offset_ps) / rate, as a new float64 array."""
    r = np.subtract(t, offset_ps, dtype=np.float64)
    r /= rate
    return r


def _cycles(x: np.ndarray, period_ps: float, nearest: bool = False) -> np.ndarray:
    """(x mod P) / P in [0, 1), or in [-1/2, 1/2] with ``nearest``; exact for whole-ps x."""
    r = x / period_ps
    (np.rint if nearest else np.floor)(r, out=r)
    r *= -period_ps
    r += x
    r /= period_ps
    return r


def _bin_counts(cycles: np.ndarray, n_bins: int) -> np.ndarray:
    """Histogram of phases in [0, 1]; overwrites ``cycles``."""
    cycles *= n_bins
    bins = cycles.astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    return np.bincount(bins, minlength=n_bins)


def fold_histogram(times_ps: np.ndarray, period_ps: float, n_bins: int) -> np.ndarray:
    """Counts of (time mod period) per bin; sums to the number of tags."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if period_ps <= 0:
        raise ValueError("period_ps must be > 0")
    return _bin_counts(_cycles(np.asarray(times_ps, dtype=np.float64), period_ps), n_bins)


def export_histogram_csv(counts: np.ndarray, period_ps: float, path) -> None:
    """Write the folded histogram as (bin_start_ps, count) CSV rows."""
    n = len(counts)
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin_start_ps,count\n")
        for i, c in enumerate(counts):
            f.write(f"{i * period_ps / n:.3f},{int(c)}\n")


# First FFT sub-span of step 1: 0.1 s at the 25 us cell of the 100 ppm
# guard, a 2^13-point FFT where a 60 s stream took 2^23 (~0.5 GB), and
# ~10^3 tags even on the sparsest bundled link.
ACQ_FIRST_CELLS = 1 << 12
# Peak-to-median ratio at which a sub-span's FFT is trusted, and the factor
# by which hand-over spans grow (sub-spans tried, by a power of it). Over
# background alone each guard-band bin is Rayleigh, so a false peak at
# ratio r has probability 2^(-r^2) per bin: 1e-11 at 6x, 2^-576 at 24x.
# The threshold is set by the hand-over instead. A peak r times the median
# over background puts the tags' mean phase within 0.85/r rad (1 sigma),
# and the regression's drift within an excursion of sqrt(12)/(2 pi) *
# 0.85/r = 0.47/r periods across its span (0.35-0.47/r measured; less
# where signal dominates). Handed to a span twice as long that is 0.94/r,
# P/25 at r = 24: the next span's excursion stays under P/8 to 3.2 sigma,
# and each later span, with sqrt(2) more peak, further. _block_regression
# takes block phases about the span's circular mean, so an excursion of
# P/8 keeps them within P/16 of it, 8 times clear of the half period where
# a block wraps to a neighbour.
ACQ_PEAK_TO_MEDIAN = 24.0
SPAN_GROWTH = 2
# Share of the whole stream's FFT points that the sub-spans tried may take
# together. A stream no sub-span acquires is transformed whole after them,
# so it costs at most 1.5 whole-stream FFTs, in no more memory. A half, not
# less, leaves room for a quarter-length sub-span: 60 s of 200 signal under
# 1,500 background tags/s tries 2^13 and 2^19 points and acquires on 2^21.
ACQ_TRY_SHARE = 1 / 2
# Blocks of each hand-over regression: at the threshold a sub-span holds
# >= ~400 tags, >= 20 per block.
HANDOVER_BLOCKS = 20


def _fft_length(tau_last: float, dt: float) -> int:
    """Points of the FFT over cells 0 .. rint(tau_last / dt): twice the cells, to a power of two."""
    return 1 << math.ceil(math.log2(2 * (int(np.rint(tau_last / dt)) + 1)))


def _fft_drift(tau: np.ndarray, period_ps: float,
               dt: float) -> tuple[float, float, np.ndarray]:
    """Drift of the strongest grid tone within the guard, its peak and the band's magnitudes."""
    P = period_ps
    g = DRIFT_GUARD_PPM * 1e-6
    cell = np.rint(tau / dt).astype(np.int64)
    m = _fft_length(tau[-1], dt)
    ph = _cycles(tau, P).astype(np.float32) * np.float32(2.0 * np.pi)
    mag = np.abs(np.fft.fft(np.bincount(cell, weights=np.cos(ph), minlength=m)
                            + 1j * np.bincount(cell, weights=np.sin(ph), minlength=m)))
    bin_fp = P / (m * dt)  # bin spacing of f, in units of 1/P
    k = np.arange(-(m // 4), m // 4 + 1)
    k = k[np.abs(k * bin_fp / (1.0 - k * bin_fp)) <= g]
    band = mag[k]
    i = int(k[np.argmax(band)])
    a, b, c = mag[i - 1], mag[i], mag[i + 1]
    curv = a - 2.0 * b + c
    fp = (i + (0.5 * (a - c) / curv if curv < 0 else 0.0)) * bin_fp
    return fp / (1.0 - fp), b, band


def _acquire_drift(tau: np.ndarray, period_ps: float) -> float:
    """Drift (absolute) of the grid: FFT on a leading sub-span, carried on by regression (step 1)."""
    P = period_ps
    g = DRIFT_GUARD_PPM * 1e-6
    # |f| peaks at d = -g; its quarter period keeps the guard within bins
    # |k| <= m/4 and attenuates the band edge by sinc(1/4) = 0.9 at most.
    dt = P * (1.0 - g) / (4.0 * g)
    span = ACQ_FIRST_CELLS * dt
    budget = ACQ_TRY_SHARE * _fft_length(tau[-1], dt)
    while True:
        n = int(np.searchsorted(tau, span - 0.5 * dt))  # tags in cells below span / dt
        if n == len(tau) or (m := _fft_length(tau[n - 1], dt)) > budget:
            return _fft_drift(tau, P, dt)[0]
        d, peak, band = _fft_drift(tau[:n], P, dt)
        ratio = peak / np.median(band)
        if ratio >= ACQ_PEAK_TO_MEDIAN:
            break
        # The peak grows with signal tags and the median with the root of
        # all tags, so the ratio grows as the root of the span: skip to the
        # first sub-span of the ladder where this one would reach the
        # threshold. A peak at background's level (~3.5x over the first
        # sub-span's ~4k band bins) skips 64-fold, so a sparse stream is
        # soon transformed whole.
        budget -= m
        span *= SPAN_GROWTH ** max(1, math.ceil(math.log((ACQ_PEAK_TO_MEDIAN / ratio) ** 2,
                                                         SPAN_GROWTH)))
    while n < len(tau):
        slope, _ = _block_regression(tau[:n] / (1.0 + d), P, HANDOVER_BLOCKS)
        d = (1.0 + d) * (1.0 + slope) - 1.0
        span *= SPAN_GROWTH
        n = int(np.searchsorted(tau, span - 0.5 * dt))
    return d


def _block_regression(u: np.ndarray, period_ps: float, block_count: int) -> tuple[float, float]:
    """Weighted line through per-block circular-mean phases of ``u``.

    Returns (slope, intercept): the grid sits at ``intercept + slope * u``
    (mod one period) in the coordinates of ``u``.
    """
    P = period_ps
    # Block b is the run of tags between the even edges b and b + 1; the last takes the rest.
    bounds = np.searchsorted(u, np.linspace(u[0], u[-1] + 1e-9, block_count + 1))
    bounds[-1] = len(u)
    nb = np.diff(bounds)

    def block_sums(x):
        sums = np.zeros(block_count)
        sums[nb > 0] = np.add.reduceat(x, bounds[:-1][nb > 0], dtype=np.float64)
        return sums

    ph = _cycles(u, P).astype(np.float32) * np.float32(2.0 * np.pi)
    z = block_sums(np.cos(ph)) + 1j * block_sums(np.sin(ph))
    mids = block_sums(u)
    used = nb >= 5
    z[used] /= nb[used]
    mids[used] /= nb[used]
    r = np.abs(z)
    used &= r >= 0.05

    if not used.any():
        raise SyncFailureError("no usable phase blocks")
    # Phases relative to the stream's circular mean, not unwrapped block to
    # block: the drift handed in leaves at most ~P/8 of excursion across
    # the stream, while one noisy block half a period from its neighbour
    # would turn a sequential unwrap into a whole-period step for every
    # block after it.
    z, nb = z[used], nb[used]
    ref = np.angle(np.dot(z, nb))
    psi = (np.angle(z * np.exp(-1j * ref)) + ref) / (2.0 * np.pi) * P
    if len(psi) == 1:
        return 0.0, float(psi[0])
    m = mids[used]
    w = nb * r[used] ** 2
    W = w.sum()
    mw = (w * m).sum() / W
    pw = (w * psi).sum() / W
    var = (w * (m - mw) ** 2).sum()
    slope = 0.0 if var == 0 else float((w * (m - mw) * (psi - pw)).sum() / var)
    return slope, float(pw - slope * mw)


# Half-widths of the peak windows for the final refit, in periods, each
# pass run REFIT_PASSES times. Wide first, so a coarse mapping a few
# hundred ps off still has its peak inside the window; narrow last, so
# little background enters the fit.
REFIT_HALF_WIDTHS = (1 / 8, 1 / 16, 1 / 32)
REFIT_PASSES = 3
# Tags the refit keeps (an even stride through the stream); at 2^15 signal
# tags its statistical error is already below 1 ps.
REFIT_MAX_TAGS = 1 << 15


def _refit_peak(t: np.ndarray, offset: float, rate: float,
                period_ps: float) -> tuple[float, float]:
    """Refit offset and rate on the tags near the folded peak.

    Each pass takes the tags whose wrapped residual under the current
    mapping lies within a window around zero and fits a line (offset and
    rate correction) to those residuals versus time. Background inside a
    symmetric window adds no bias at the fixed point, only noise, which
    the narrowing windows keep small.
    """
    P = period_ps
    ta = source_time_ps(t, offset, rate)
    res = _cycles(ta, P, nearest=True)
    near = np.flatnonzero(np.abs(res) <= 0.25)
    near = near[::max(1, math.ceil(len(near) / REFIT_MAX_TAGS))]
    res = res.take(near) * P
    ta = ta.take(near)
    # Corrections are far below P/4, so residuals are updated in place
    # rather than re-wrapped; the mapping moves by t_src -= A + B t_src.
    A = B = 0.0
    for half_width in REFIT_HALF_WIDTHS:
        for _ in range(REFIT_PASSES):
            sel = np.flatnonzero(np.abs(res) <= half_width * P)
            if len(sel) < 2:
                break
            x, y = ta.take(sel), res.take(sel)
            xm = x.mean()
            dx = x - xm
            var = float(np.dot(dx, dx))
            b = float(np.dot(dx, y) / var) if var > 0 else 0.0
            a = float(y.mean())
            res -= a + b * (ta - xm)
            A += a - b * xm
            B += b
    rate = rate / (1.0 - B)
    return offset + A * rate, rate


def recover_clock(times_ps: np.ndarray, nominal_period_ps: float, coarse_reference_ps: float,
                  block_count: int, known_drift_ppm: Optional[float] = None) -> ClockModel:
    """Estimate offset and drift from a non-decreasing tag stream (as in TimeTags).

    ``coarse_reference_ps`` resolves the whole-period offset ambiguity to
    the grid numbering nearest the given expected offset. ``block_count``
    is the number of phase blocks of the regression
    (``SyncSettings.block_count``).
    ``known_drift_ppm`` skips acquisition (beacon-assisted mode); like an
    acquired drift, it must keep the grid within a fraction of a period
    across the stream.
    """
    t = np.asarray(times_ps, dtype=np.float64)
    n = len(t)
    if n < MIN_TAGS:
        raise SyncFailureError(f"need >= {MIN_TAGS} tags for clock recovery, got {n}")
    P = float(nominal_period_ps)
    t0 = t[0]
    tau = t - t0

    if known_drift_ppm is None:
        d0 = _acquire_drift(tau, P)
    else:
        d0 = known_drift_ppm * 1e-6

    slope, a = _block_regression(np.divide(tau, 1.0 + d0, out=tau), P, block_count)
    del tau  # divided in place above; the refit and the guard need only t
    rate = (1.0 + d0) * (1.0 + slope)
    offset, rate = _refit_peak(t, t0 + a * rate, rate, P)

    # Significance guard on the final mapping, so a stream whose coarse
    # drift is a fraction of a grid step off is judged after refinement.
    # One fold: the wrapped residuals give the rms; shifted by P/2, the
    # folded histogram turned by half its bins, same peak and median.
    res = _cycles(source_time_ps(t, offset, rate), P, nearest=True)
    residual_rms = P * math.sqrt(np.dot(res, res) / n)
    res += 0.5
    hist = _bin_counts(res, 64)
    if hist.max() < 3.0 * np.median(hist):
        raise SyncFailureError("no significant pulse-grid peak in folded histogram")

    k = round((coarse_reference_ps - offset) / (rate * P))
    offset += k * rate * P

    return ClockModel(offset_ps=float(offset), drift_ppm=float((rate - 1.0) * 1e6),
                      residual_rms_ps=residual_rms, period_ps=P)


@dataclass
class Assignments:
    """Gate-accepted tags mapped to pulse indices, in tag order (so by pulse)."""

    pulse_index: np.ndarray  # int64
    detector: np.ndarray  # uint8
    rejected_count: int
    truth_pulse_index: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.pulse_index)


def assign_and_gate(tags, clock: ClockModel, gate_width_ps: float) -> Assignments:
    """Map tags to nearest pulse slots and keep those inside the gate.

    Ties exactly between two slots go to the lower index. Tags mapping to
    negative slots are rejected. Scenarios keep the gate strictly inside one
    period (:class:`fsbb84.scenario.Scenario` checks it); a full-period gate
    accepts every tag. Accepted tags keep the stream's order and each float
    step from time to slot is monotone, so ``pulse_index`` is non-decreasing.
    """
    r = source_time_ps(tags.time_ps, clock.offset_ps, clock.rate)
    P = clock.period_ps
    k = r / P
    np.floor(k, out=k)
    r -= k * P
    upper = r > P / 2.0  # strictly above half: next slot is closer
    k += upper
    np.subtract(r, P, out=r, where=upper)
    keep = np.flatnonzero((np.abs(r, out=r) <= gate_width_ps / 2.0) & (k >= 0))
    truth = tags.truth_pulse_index
    return Assignments(
        pulse_index=k.take(keep).astype(np.int64),
        detector=tags.detector.take(keep),
        rejected_count=len(k) - len(keep),
        truth_pulse_index=truth.take(keep) if truth is not None else None,
    )
