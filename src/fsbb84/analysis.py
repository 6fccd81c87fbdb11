"""Closed-form link-budget predictions for cross-validating the Monte Carlo.

For a scenario with per-state mean photon numbers ``mu_s``, end-to-end
transmittance ``eta`` (channel loss plus lumped receiver efficiency, which
the Monte Carlo applies together in the Poisson thinning of
:func:`fsbb84.channel.transmit_stream`) and a temporal gate of width ``g``:

* in-gate signal click probability per pulse::

      p_sig = mean_s(1 - exp(-mu_s * eta)) * A_gate

  where ``A_gate = erf(g / (2 sqrt(2) sigma_t))`` is the gate acceptance
  of the total Gaussian timing spread (pulse duration plus detector
  jitter, FWHMs added in quadrature);

* in-gate background probability per pulse over all four APDs::

      p_bg = 4 * rate * g

* dead time: every APD is non-paralyzable with dead time ``tau`` and
  records the fraction ``L_d = 1 / (1 + R_d tau)`` of what reaches it,
  ``R_d`` being its whole incident rate, in gate or not::

      R_d = rep_rate * mean_s(1 - exp(-mu_s * eta * q_sd)) + rate

  where ``q_sd`` is the share of state-s photons sent to APD d (a 50/50
  basis choice, then Malus' law on the misaligned analyzer): the
  :func:`analyzer_table`, the table with which that thinning picks each
  photon's APD. The live
  fraction ``L`` is the mean of the ``L_d`` weighted by each APD's in-gate
  clicks. It scales signal and background alike, so to first order QBER
  keeps its form; ``p_sig`` and ``p_bg`` above are the clicks before it;

* QBER decomposition: background clicks land on a random detector
  (error probability 1/2 after sifting), misaligned analyzers flip
  matched-basis outcomes with probability ``e_pol = sin^2(m)``::

      qber = (0.5 p_bg + e_pol p_sig) / (p_sig + p_bg)

* sifted rate: half of all recorded in-gate clicks survive basis
  reconciliation::

      sifted_rate = rep_rate * (p_sig + p_bg) * L / 2

Neglected, with their size at the bundled scenarios and the randomized
ones of the acceptance suite (``L`` itself is 0.99953-0.99986 at the
bundled scenarios and 0.9921 at the busiest randomized one):

* a signal and a background click in one slot are reported once: a rate
  loss below ``p_bg``, under 1e-5;
* under the ``random_bit`` policy a pulse whose photons click two APDs
  is still reported once, as ``1 - exp(-mu eta)`` counts it, so only QBER
  can move, by at most half the share of such pulses: 0.18% of reported
  pulses at the busiest randomized scenario (at most 0.09 points), none
  seen at the bundled ones;
* clock-recovery residuals: an rms offset error ``e`` costs about
  ``a phi(a) e^2 / sigma_t^2`` of ``A_gate``, with ``a = g / 2 sigma_t``:
  0.45% at ``table2_collimators`` (21 ps over 0.1 s), under 0.1% at the
  others. Over 40 reseeded 0.1 s sessions per scenario the measured
  acceptance lies within 0.3% of ``A_gate``, inside its statistical
  error (0.5% at ``table2_collimators``, at most 0.3% elsewhere);
* gate spill: the neighbouring slots lie over 40 sigma_t from the gate.

Loss model
----------
The link budget (:func:`loss_breakdown`), here so that the oracle loads no
numpy, has three physical contributions plus a calibration residual:

* geometric capture of a Gaussian beam by a circular aperture:
  ``loss = -10 log10(1 - exp(-2 a^2 / w(z)^2))`` with ``w(z)`` the 1/e^2
  beam radius after propagating ``z`` from a waist ``w0 = tx_diameter/2``,
  ``w(z) = w0 sqrt(1 + (z/z_R)^2)``, ``z_R = pi w0^2 / lambda``;
* atmospheric extinction from meteorological visibility (Kim model):
  ``sigma = (3.91/V) (lambda_nm/550)^-q`` per km (natural units), with the
  piecewise size parameter ``q(V)``; in dB: ``4.343 sigma d_km``;
* ``extra_loss_db``: optics train, filter insertion, pointing residual --
  whatever the calibrated scenario needs to match the measured total.

In retro-reflected mode the beam traverses the path twice, so geometric
and atmospheric legs double and the beam-splitter penalty is added.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import ComparisonRefusedError
from .scenario import FWHM_TO_SIGMA, ChannelConfig, Scenario

# Polarizer orientations per state, degrees.
STATE_ANGLES_DEG = (0.0, 90.0, 45.0, -45.0)


def beam_radius_m(waist_radius_m: float, distance_m: float, wavelength_m: float) -> float:
    """1/e^2 Gaussian beam radius after free propagation from the waist."""
    z_r = math.pi * waist_radius_m**2 / wavelength_m
    return waist_radius_m * math.sqrt(1.0 + (distance_m / z_r) ** 2)


def geometric_loss_db(config: ChannelConfig, wavelength_nm: float) -> float:
    """One-way aperture-capture loss in dB at ``config.distance_m``."""
    w0 = config.tx_beam_diameter_e2_cm / 200.0  # cm diameter -> m radius
    a = config.rx_aperture_diameter_e2_cm / 200.0
    w = beam_radius_m(w0, config.distance_m, wavelength_nm * 1e-9)
    captured = 1.0 - math.exp(-2.0 * a * a / (w * w))
    return -10.0 * math.log10(captured)


def _kim_q(visibility_km: float) -> float:
    v = visibility_km
    if v > 50.0:
        return 1.6
    if v > 6.0:
        return 1.3
    if v > 1.0:
        return 0.16 * v + 0.34
    if v > 0.5:
        return v - 0.5
    return 0.0


def atmospheric_loss_db(visibility_km: float, wavelength_nm: float, distance_m: float) -> float:
    """Kim-model extinction over ``distance_m`` in dB."""
    sigma_per_km = (3.91 / visibility_km) * (wavelength_nm / 550.0) ** (-_kim_q(visibility_km))
    return 10.0 / math.log(10.0) * sigma_per_km * (distance_m / 1000.0)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-contribution link loss, already including path doubling."""

    geometric_db: float
    atmospheric_db: float
    extra_db: float
    splitter_db: float

    @property
    def total_db(self) -> float:
        return self.geometric_db + self.atmospheric_db + self.extra_db + self.splitter_db

    def to_dict(self) -> dict:
        return {**asdict(self), "total_db": self.total_db}


def loss_breakdown(config: ChannelConfig, wavelength_nm: float) -> LossBreakdown:
    legs = 2.0 if config.retro_mode else 1.0
    return LossBreakdown(
        geometric_db=legs * geometric_loss_db(config, wavelength_nm),
        atmospheric_db=legs * atmospheric_loss_db(config.visibility_km, wavelength_nm, config.distance_m),
        extra_db=config.extra_loss_db,
        splitter_db=config.splitter_penalty_db if config.retro_mode else 0.0,
    )


def analyzer_table(misalignment_deg: float) -> list[list[float]]:
    """q[s][d]: probability that a state-s photon at the bench reaches APD d.

    Either basis with probability 1/2, then cos^2 of the angle between the
    photon polarization and the APD's analyzer axis, rotated by the
    residual misalignment. Each row sums to 1.
    """
    axis = [45.0 * (d >> 1) + 90.0 * (d & 1) + misalignment_deg for d in range(4)]
    cos = [[math.cos(math.radians(s - a)) for a in axis] for s in STATE_ANGLES_DEG]
    # c * c, not pow's c ** 2: bit for bit the table seeded outputs were pinned with
    return [[0.5 * c * c for c in row] for row in cos]


def gate_acceptance(gate_width_ps: float, pulse_fwhm_ps: float, jitter_fwhm_ps: float) -> float:
    """Fraction of the Gaussian arrival-time spread inside the gate."""
    fwhm = math.hypot(pulse_fwhm_ps, jitter_fwhm_ps)
    if fwhm == 0.0:
        return 1.0
    sigma = fwhm / FWHM_TO_SIGMA
    return math.erf(gate_width_ps / 2.0 / (sigma * math.sqrt(2.0)))


def click_probability(mu_per_state, eta: float) -> float:
    """``mean_s(1 - exp(-mu_s eta))``: a pulse delivers at least one photon to an APD."""
    return sum(1.0 - math.exp(-mu * eta) for mu in mu_per_state) / 4.0


def background_click_probability(rate_cps_per_apd: float, gate_width_ps: float) -> float:
    """``rate * g``: a background count falls inside one APD's gate."""
    return rate_cps_per_apd * gate_width_ps * 1e-12


@dataclass(frozen=True)
class PredictedMetrics:
    p_signal_click_per_pulse: float
    p_background_per_pulse: float
    qber_background_part: float
    qber_misalignment_part: float
    qber_total: float
    sifted_rate_bps: float
    total_loss_db: float
    scenario_hash: str
    live_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def _detector_click_probabilities(mu_per_state, eta: float, misalignment_deg: float) -> list[float]:
    """Per-pulse probability of at least one photon at each APD (H, V, D, A).

    Detector d sees a Poisson photon number of mean ``mu_s eta q_sd`` from
    a state-s pulse, ``q`` being :func:`analyzer_table`.
    """
    p = [[-math.expm1(-mu * eta * q) for q in row]
         for mu, row in zip(mu_per_state, analyzer_table(misalignment_deg))]
    # left to right, as the pinned predictions were summed; sum() compensates from 3.12 on
    return [(h + v + d + a) / 4.0 for h, v, d, a in zip(*p)]


def predict(scenario: Scenario) -> PredictedMetrics:
    """Pure analytic prediction; no RNG involved."""
    src, ch, rx = scenario.source, scenario.channel, scenario.receiver
    link_db = loss_breakdown(ch, src.wavelength_nm).total_db
    eta = 10.0 ** (-(link_db + rx.efficiency_db) / 10.0)

    acc = gate_acceptance(scenario.sync.gate_width_ps, src.pulse_fwhm_ps, rx.jitter_fwhm_ps)
    p_sig = click_probability(src.mu_per_state, eta) * acc
    p_bg_apd = background_click_probability(rx.background_rate_cps_per_apd,
                                            scenario.sync.gate_width_ps)
    p_bg = 4.0 * p_bg_apd

    # dead time: live fraction per APD, weighted by its in-gate clicks
    tau_s = rx.dead_time_ns * 1e-9
    p_det = _detector_click_probabilities(src.mu_per_state, eta, rx.misalignment_deg)
    in_gate = [p * acc + p_bg_apd for p in p_det]
    live = [1.0 / (1.0 + (src.rep_rate_hz * p + rx.background_rate_cps_per_apd) * tau_s)
            for p in p_det]
    gated = sum(in_gate)
    live_fraction = (sum(c * f for c, f in zip(in_gate, live)) / gated) if gated > 0 else 1.0

    total = p_sig + p_bg
    e_pol = math.sin(math.radians(rx.misalignment_deg)) ** 2
    qber_bg = 0.5 * p_bg / total if total > 0 else 0.0
    qber_mis = e_pol * p_sig / total if total > 0 else 0.0

    return PredictedMetrics(
        p_signal_click_per_pulse=p_sig,
        p_background_per_pulse=p_bg,
        qber_background_part=qber_bg,
        qber_misalignment_part=qber_mis,
        qber_total=qber_bg + qber_mis,
        sifted_rate_bps=src.rep_rate_hz * total * live_fraction * 0.5,
        live_fraction=live_fraction,
        total_loss_db=link_db,
        scenario_hash=scenario.hash_hex(),
    )


@dataclass(frozen=True)
class MetricDeviation:
    metric: str
    predicted: float
    observed: float
    deviation: float  # relative for rates, absolute for QBER
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DeviationReport:
    scenario_hash: str
    entries: tuple[MetricDeviation, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failed_metrics(self) -> list[str]:
        return [e.metric for e in self.entries if not e.passed]

    def to_dict(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


def compare(predicted: PredictedMetrics, session_report,
            rate_tolerance: float = 0.15,
            qber_tolerance_pts: float = 0.4,
            stat_floor_sigmas: float = 3.0) -> DeviationReport:
    """Check a Monte-Carlo session against the analytic prediction.

    Tolerances are the configured bands widened to at least
    ``stat_floor_sigmas`` binomial standard deviations, so small sessions
    are judged by statistics, long ones by the configured band. Refuses to
    compare results from different scenarios.
    """
    if predicted.scenario_hash != session_report.scenario_hash:
        raise ComparisonRefusedError(
            f"scenario hash mismatch: prediction {predicted.scenario_hash[:12]}..., "
            f"report {session_report.scenario_hash[:12]}...")

    n_sifted = session_report.sifted_key_length
    rate_floor = stat_floor_sigmas / math.sqrt(n_sifted) if n_sifted else math.inf
    rate_tol = max(rate_tolerance, rate_floor)
    rate_obs = session_report.sifted_key_rate_bps
    rate_dev = (abs(rate_obs - predicted.sifted_rate_bps) / predicted.sifted_rate_bps
                if predicted.sifted_rate_bps > 0 else abs(rate_obs))

    q = predicted.qber_total
    n_disc = session_report.qber.disclosed_count
    qber_floor = (stat_floor_sigmas * math.sqrt(q * (1.0 - q) / n_disc)
                  if n_disc else math.inf)
    qber_tol = max(qber_tolerance_pts / 100.0, qber_floor)
    qber_dev = abs(session_report.qber.qber - q)

    entries = (
        MetricDeviation("sifted_rate_bps", predicted.sifted_rate_bps, rate_obs,
                        rate_dev, rate_tol, rate_dev <= rate_tol),
        MetricDeviation("qber", q, session_report.qber.qber,
                        qber_dev, qber_tol, qber_dev <= qber_tol),
    )
    return DeviationReport(scenario_hash=predicted.scenario_hash, entries=entries)
