"""Inverse link budget: fit unreported receiver/channel parameters.

The reference measurements quote per-run sifted rate, QBER, noise per
APD, visibility and (for the 780 m runs) a lump-sum link loss, but not
receiver efficiency, analyzer misalignment, or gate width. This module
solves for those so that the analytic model reproduces the quoted figures
exactly; the bundled scenario files are generated from these fits by
``tools/make_scenarios.py``.

Conventions:

* target rate fixes the total in-gate click probability:
  ``p_sig + p_bg = 2 * rate / rep_rate``;
* the background share follows from noise rate and gate width;
* QBER then pins ``e_pol`` and hence the misalignment angle;
* the required end-to-end efficiency splits into the quoted (or modeled)
  channel loss plus the receiver's lumped efficiency;
* whatever channel loss the physical terms (geometric, atmospheric,
  splitter) do not cover becomes ``extra_loss_db``.

The fit leaves out detector dead time, which :func:`fsbb84.analysis.predict`
models. At the bundled scenarios its live fraction is 0.99953-0.99986, so
the predicted sifted rate lies less than 0.05% below the fitted target;
QBER is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analysis import (background_click_probability, click_probability, gate_acceptance,
                       loss_breakdown)
from .errors import ConfigError
from .scenario import ChannelConfig


@dataclass(frozen=True)
class RateQberFit:
    """Calibration outputs for one measured run."""

    p_signal_per_pulse: float
    p_background_per_pulse: float
    e_pol: float
    misalignment_deg: float
    eta_total: float
    total_attenuation_db: float  # channel + receiver


def fit_run(sifted_rate_bps: float, qber: float, rep_rate_hz: float,
            mu_per_state: tuple[float, float, float, float],
            background_cps_per_apd: float, gate_width_ps: float,
            pulse_fwhm_ps: float, jitter_fwhm_ps: float) -> RateQberFit:
    """Solve for e_pol and end-to-end efficiency hitting rate and QBER."""
    p_bg = 4.0 * background_click_probability(background_cps_per_apd, gate_width_ps)
    p_total = 2.0 * sifted_rate_bps / rep_rate_hz
    p_sig = p_total - p_bg
    if p_sig <= 0:
        raise ConfigError("background alone exceeds the target rate; "
                          "narrow the gate or lower the noise", "calibration")
    e_pol = (qber * p_total - 0.5 * p_bg) / p_sig
    if e_pol < 0:
        raise ConfigError(f"target QBER {qber} is below the background floor "
                          f"{0.5 * p_bg / p_total:.4f}", "calibration")

    acc = gate_acceptance(gate_width_ps, pulse_fwhm_ps, jitter_fwhm_ps)
    p_click = p_sig / acc

    # click_probability(mu, eta) = p_click, solved by bisection
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if click_probability(mu_per_state, mid) < p_click:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)

    return RateQberFit(
        p_signal_per_pulse=p_sig,
        p_background_per_pulse=p_bg,
        e_pol=e_pol,
        misalignment_deg=math.degrees(math.asin(math.sqrt(e_pol))),
        eta_total=eta,
        total_attenuation_db=-10.0 * math.log10(eta),
    )


def residual_extra_loss_db(total_channel_db: float, config: ChannelConfig,
                           wavelength_nm: float) -> float:
    """Channel loss left over after the modeled physical contributions."""
    modeled = loss_breakdown(replace(config, extra_loss_db=0.0), wavelength_nm).total_db
    extra = total_channel_db - modeled
    if extra < 0:
        raise ConfigError(f"modeled losses ({modeled:.2f} dB) already exceed the "
                          f"calibration target ({total_channel_db:.2f} dB)", "calibration")
    return extra
