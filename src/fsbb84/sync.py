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
2. *Block-phase regression*: the full stream is cut into ``PHASE_BLOCKS``
   (20) time blocks, as each hand-over's span of step 1 is. Each block
   contributes a circular-mean phase, and a weighted linear fit of phase
   versus block midtime refines drift and fixes the offset. Tags are
   non-decreasing, so each block is a run of them, summed in one pass.
3. *Peak refit*: offset and rate are fitted again, by least squares, to
   the wrapped residuals of the tags within a window around the folded
   peak, the window shrinking from P/8 to P/32. Every background tag
   enters the block phases, so at low signal-to-background (a few hundred
   signal tags under a thousand background tags) the regression alone
   leaves the offset about one timing sigma off; the refit brings it to
   a small fraction of one. A fit needs only sums over the tags it
   selects, so each window sums the tags certainly inside it once and
   each pass re-tests only those in a band around the window's edges
   (see ``_refit_peak``).

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

Memory per tag, beside the tags: :func:`recover_clock` holds the times
relative to the first in float64 (8 bytes) and, in the block regression,
float32 phases and their cosines or sines (4 + 4 bytes, which numpy sums
through a float64 copy, 8 bytes). The FFT's cells, the refit's search for
near tags (a byte per tag, then at most REFIT_MAX_TAGS of them) and the
guard run BLOCK tags at a time. :func:`assign_and_gate` gates BLOCK tags
at a time and returns 9 bytes per accepted tag. No sum goes through BLAS,
whose dot products would wake its thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SyncFailureError
from .scenario import DRIFT_GUARD_PPM, TrueClock
from .seeds import BLOCK

MIN_TAGS = 1000
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


def _phases(x: np.ndarray, period_ps: float) -> np.ndarray:
    """2 pi (x mod P) / P per entry in float32, folded BLOCK entries at a time."""
    ph = np.empty(len(x), dtype=np.float32)
    for a in range(0, len(x), BLOCK):
        ph[a:a + BLOCK] = _cycles(x[a:a + BLOCK], period_ps)
    ph *= np.float32(2.0 * np.pi)
    return ph


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
# Blocks of every block regression, each hand-over's and the whole
# stream's: at the threshold a sub-span holds >= ~400 tags, >= 20 per block.
PHASE_BLOCKS = 20


def _fft_length(tau_last: float, dt: float) -> int:
    """Points of the FFT over cells 0 .. rint(tau_last / dt): twice the cells, to a power of two."""
    return 1 << math.ceil(math.log2(2 * (int(np.rint(tau_last / dt)) + 1)))


def _fft_drift(tau: np.ndarray, period_ps: float,
               dt: float) -> tuple[float, float, np.ndarray]:
    """Drift of the strongest grid tone within the guard, its peak and the band's magnitudes."""
    P = period_ps
    g = DRIFT_GUARD_PPM * 1e-6
    m = _fft_length(tau[-1], dt)
    # The phasors summed per cell, BLOCK tags at a time. A block ends before
    # its last cell, which the next one starts with, so each cell is summed
    # in one block, in tag order: the sums are one whole-stream bincount's.
    cells = np.zeros(m, dtype=complex)
    a, size = 0, BLOCK
    while a < len(tau):
        cell = np.rint(tau[a:a + size] / dt).astype(np.int64)
        if a + size < len(tau):
            if cell[0] == cell[-1]:  # one cell fills the block
                size *= 2
                continue
            cell = cell[:np.searchsorted(cell, cell[-1])]
        ph = _phases(tau[a:a + len(cell)], P)
        c0, c1 = int(cell[0]), int(cell[-1]) + 1
        cell -= c0
        cells.real[c0:c1] += np.bincount(cell, weights=np.cos(ph))
        cells.imag[c0:c1] += np.bincount(cell, weights=np.sin(ph))
        a, size = a + len(cell), BLOCK
    mag = np.abs(np.fft.fft(cells))
    del cells
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
        slope, _ = _block_regression(tau[:n] / (1.0 + d), P)
        d = (1.0 + d) * (1.0 + slope) - 1.0
        span *= SPAN_GROWTH
        n = int(np.searchsorted(tau, span - 0.5 * dt))
    return d


def _block_regression(u: np.ndarray, period_ps: float) -> tuple[float, float]:
    """Weighted line through the circular-mean phases of ``u``'s PHASE_BLOCKS blocks.

    Returns (slope, intercept): the grid sits at ``intercept + slope * u``
    (mod one period) in the coordinates of ``u``.
    """
    P = period_ps
    # Block b is the run of tags between the even edges b and b + 1; the last takes the rest.
    bounds = np.searchsorted(u, np.linspace(u[0], u[-1] + 1e-9, PHASE_BLOCKS + 1))
    bounds[-1] = len(u)
    nb = np.diff(bounds)

    def block_sums(x):
        sums = np.zeros(PHASE_BLOCKS)
        sums[nb > 0] = np.add.reduceat(x, bounds[:-1][nb > 0], dtype=np.float64)
        return sums

    ph = _phases(u, P)
    z = block_sums(np.cos(ph)) + 1j * block_sums(np.sin(ph))
    del ph
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
    ref = np.angle(np.add.reduce(z * nb))
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
# Half-width of the band around each window's edges whose tags every pass
# re-tests, as a share of the window's half-width. A window's first pass
# moves the line by up to ~40 ps at the stream's ends, each later one by a
# few ps, so the tags are rarely counted again.
REFIT_BAND = 1 / 4


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) without BLAS, whose dot would wake its thread pool."""
    return float(np.einsum("i,i->", a, b))


def _refit_peak(t: np.ndarray, offset: float, rate: float,
                period_ps: float) -> tuple[float, float]:
    """Refit offset and rate on the tags near the folded peak.

    Each pass takes the tags whose wrapped residual under the current
    mapping lies within a window around zero and fits a line (offset and
    rate correction) to those residuals versus time. Background inside a
    symmetric window adds no bias at the fixed point, only noise, which
    the narrowing windows keep small.

    A fit needs only the sums (n, x, y, x^2, xy) of the tags it selects,
    with x a tag's time centred on the stream, and taking a line off the
    residuals moves those sums in closed form. So each window counts once
    the tags certainly inside it and keeps their sums; each pass re-tests
    only the tags within REFIT_BAND of the window's edges. A tag's residual
    moves by at most what the line fitted since its count moved at the
    stream's two ends; once that reaches the band, the tags are counted
    again from all the near ones. The selections are the re-selecting
    refit's, and the clock differs from its by rounding.
    """
    P = period_ps
    # The tags within P/4 of the starting mapping, found BLOCK at a time;
    # every stride-th of them, counted through the stream, is kept.
    near = np.empty(len(t), dtype=bool)
    for a in range(0, len(t), BLOCK):
        res = _cycles(source_time_ps(t[a:a + BLOCK], offset, rate), P, nearest=True)
        np.less_equal(np.abs(res, out=res), 0.25, out=near[a:a + BLOCK])
    stride = max(1, math.ceil(np.count_nonzero(near) / REFIT_MAX_TAGS))
    kept, seen = [], 0
    for a in range(0, len(t), BLOCK):
        idx = np.flatnonzero(near[a:a + BLOCK])
        kept.append(idx[(-seen) % stride::stride] + a)
        seen += len(idx)
    near = np.concatenate(kept)
    if len(near) < 2:
        return offset, rate
    # x: each near tag's time, centred; y0: its residual under the starting
    # mapping. The residuals are y0 less the line A + B x fitted so far.
    x = source_time_ps(t.take(near), offset, rate)
    y0 = _cycles(x, P, nearest=True)
    c = 0.5 * (x[0] + x[-1])
    x -= c
    ends = float(x[0]), float(x[-1])  # the tags are non-decreasing
    y0 *= P
    # d: each tag's distance from the line (A0, B0) of the last count;
    # inner: 1 for the tags certainly inside the window, then their x
    d, inner = np.empty_like(x), np.empty_like(x)
    A = B = 0.0
    A0 = B0 = None
    for half_width in REFIT_HALF_WIDTHS:
        h = half_width * P
        band = REFIT_BAND * h
        edge = None
        for _ in range(REFIT_PASSES):
            if A0 is None or max(abs(A - A0 + (B - B0) * e) for e in ends) >= band:
                A0, B0 = A, B
                np.multiply(x, B, out=d)
                d += A
                np.subtract(y0, d, out=d)
                np.abs(d, out=d)
                edge = None
            if edge is None:
                np.less_equal(d, h - band, out=inner)
                n_in, sx, sy = float(inner.sum()), _dot(inner, x), _dot(inner, y0)
                inner *= x
                sxx, sxy = _dot(inner, x), _dot(inner, y0)
                edge = np.flatnonzero((d > h - band) & (d < h + band))
                bx, by = x.take(edge), y0.take(edge)
            keep = np.abs(by - (A + B * bx)) <= h
            kx, ky = bx[keep], by[keep]
            n = n_in + len(kx)
            if n < 2:
                break
            Sx = sx + float(kx.sum())
            Sxx = sxx + _dot(kx, kx)
            # the sums of the residuals the line leaves
            Sy = sy + float(ky.sum()) - n * A - B * Sx
            Sxy = sxy + _dot(kx, ky) - A * Sx - B * Sxx
            xm = Sx / n
            var = Sxx - xm * Sx
            b = (Sxy - xm * Sy) / var if var > 0 else 0.0
            a = Sy / n
            A += a - b * xm
            B += b
    rate = rate / (1.0 - B)
    return offset + (A - B * c) * rate, rate


def recover_clock(times_ps: np.ndarray, nominal_period_ps: float, coarse_reference_ps: float,
                  known_drift_ppm: Optional[float] = None) -> ClockModel:
    """Estimate offset and drift from a non-decreasing tag stream (as in TimeTags).

    ``coarse_reference_ps`` resolves the whole-period offset ambiguity to
    the grid numbering nearest the given expected offset.
    ``known_drift_ppm`` skips acquisition (beacon-assisted mode); like an
    acquired drift, it must keep the grid within a fraction of a period
    across the stream. The tags are read as given (int64 in TimeTags);
    only the times relative to the first are taken in float64.
    """
    t = np.asarray(times_ps)
    n = len(t)
    if n < MIN_TAGS:
        raise SyncFailureError(f"need >= {MIN_TAGS} tags for clock recovery, got {n}")
    P = float(nominal_period_ps)
    t0 = t[0]
    tau = np.subtract(t, t0, dtype=np.float64)

    if known_drift_ppm is None:
        d0 = _acquire_drift(tau, P)
    else:
        d0 = known_drift_ppm * 1e-6

    slope, a = _block_regression(np.divide(tau, 1.0 + d0, out=tau), P)
    del tau  # divided in place above; the refit and the guard need only t
    rate = (1.0 + d0) * (1.0 + slope)
    offset, rate = _refit_peak(t, t0 + a * rate, rate, P)

    # Significance guard on the final mapping, so a stream whose coarse
    # drift is a fraction of a grid step off is judged after refinement.
    # One fold: the wrapped residuals give the rms; shifted by P/2, the
    # folded histogram turned by half its bins, same peak and median.
    squares, hist = 0.0, np.zeros(64, dtype=np.int64)
    for a in range(0, n, BLOCK):
        res = _cycles(source_time_ps(t[a:a + BLOCK], offset, rate), P, nearest=True)
        squares += _dot(res, res)
        res += 0.5
        hist += _bin_counts(res, 64)
    residual_rms = P * math.sqrt(squares / n)
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
    t, truth = tags.time_ps, tags.truth_pulse_index
    P = clock.period_ps
    parts = []  # each block's accepted (pulse index, detector, origin)
    for a in range(0, max(len(t), 1), BLOCK):
        r = source_time_ps(t[a:a + BLOCK], clock.offset_ps, clock.rate)
        k = r / P
        np.floor(k, out=k)
        r -= k * P
        upper = r > P / 2.0  # strictly above half: next slot is closer
        k += upper
        r -= upper * P  # x - 0.0 is x, -0.0 included
        kept = np.flatnonzero((np.abs(r, out=r) <= gate_width_ps / 2.0) & (k >= 0))
        parts.append((k.take(kept).astype(np.int64), tags.detector[a:a + BLOCK].take(kept),
                      None if truth is None else truth[a:a + BLOCK].take(kept)))
    index, detector, origin = (c[0] if len(c) == 1 or c[0] is None else np.concatenate(c)
                               for c in zip(*parts))
    return Assignments(pulse_index=index, detector=detector, rejected_count=len(t) - len(index),
                       truth_pulse_index=origin)
