"""Regenerate the bundled scenario files from the calibration fits.

Each scenario encodes one measured run: the logged conditions go into
metadata verbatim, the channel carries the modeled/calibrated losses, and
the receiver carries the fitted efficiency and misalignment. Run from the
repository root::

    python3 tools/make_scenarios.py [--check]

--check compares against the committed files instead of rewriting them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from fsbb84.calibration import fit_run, residual_extra_loss_db
from fsbb84.scenario import ChannelConfig

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "fsbb84" / "scenarios"

REP_RATE = 100e6
PULSE_FWHM = 200.0
WAVELENGTH = 852.0
JITTER_FWHM = 350.0
DEAD_TIME_NS = 50.0

# Per-state mean photon numbers. The 780 m runs were tuned to 0.1; the
# retro-reflector runs had one weak vertical-state emitter and an overall
# lower, imprecisely known level.
MU_NOMINAL = (0.1, 0.1, 0.1, 0.1)
MU_RETRO = (0.08, 0.008, 0.08, 0.08)

RUNS = {
    "table1_run1_retro": {
        "metadata": {
            "table": "1", "run": "Run 1",
            "date_time": "2022-08-18, 13:40 CET",
            "temperature_c": 19, "weather": "no clouds",
            "visibility_km": 10.0, "rain_mm_h": 0.0, "wind_m_s": 4.1,
            "noise_per_apd_cps": 4000, "reported_qber": 0.041,
            "reported_key_rate_bps": 8600,
        },
        "mu": MU_RETRO,
        "target_rate_bps": 8600.0,
        "target_qber": 0.041,
        "background_cps": 4000.0,
        "gate_ps": 500.0,
        "channel": {
            "distance_m": 160.0,
            "tx_beam_diameter_e2_cm": 1.45,
            "rx_aperture_diameter_e2_cm": 1.45,
            "visibility_km": 10.0,
            "retro_mode": True,
            "splitter_penalty_db": 6.0,
        },
        "clock": {"offset_ps": 73214.0, "drift_ppm": 12.0},
        "seeds": (11, 12, 13, 14),
    },
    "table1_run2_retro": {
        "metadata": {
            "table": "1", "run": "Run 2",
            "date_time": "2022-08-18, 16:50 CET",
            "temperature_c": 17, "weather": "cloudy",
            "visibility_km": 10.0, "rain_mm_h": 0.5, "wind_m_s": 6.2,
            "noise_per_apd_cps": 700, "reported_qber": 0.049,
            "reported_key_rate_bps": 3400,
        },
        "mu": MU_RETRO,
        "target_rate_bps": 3400.0,
        "target_qber": 0.049,
        "background_cps": 700.0,
        "gate_ps": 500.0,
        "channel": {
            "distance_m": 160.0,
            "tx_beam_diameter_e2_cm": 1.45,
            "rx_aperture_diameter_e2_cm": 1.45,
            "visibility_km": 10.0,
            "retro_mode": True,
            "splitter_penalty_db": 6.0,
        },
        "clock": {"offset_ps": -41932.0, "drift_ppm": -3.0},
        "seeds": (21, 22, 23, 24),
    },
    "table2_beam_expanders": {
        "metadata": {
            "table": "2", "run": "Beam expanders",
            "date_time": "30-09-2022, 17:52 CET",
            "temperature_c": 7, "weather": "no clouds",
            "visibility_km": 2.3, "rain_mm_h": 0.0, "wind_m_s": 4.1,
            "link_loss_db": 13.0, "noise_per_apd_cps": 1500,
            "reported_qber": 0.019, "reported_key_rate_bps": 13794,
        },
        "mu": MU_NOMINAL,
        "target_rate_bps": 13794.0,
        "target_qber": 0.019,
        "background_cps": 1500.0,
        "gate_ps": 500.0,
        # Table 2 quotes the channel total directly: 13 dB.
        "channel_total_db": 13.0,
        "channel": {
            "distance_m": 780.0,
            "tx_beam_diameter_e2_cm": 3.48,
            "rx_aperture_diameter_e2_cm": 4.20,
            "visibility_km": 2.3,
            "retro_mode": False,
        },
        "clock": {"offset_ps": 128457.0, "drift_ppm": 8.0},
        "seeds": (31, 32, 33, 34),
    },
    "table2_collimators": {
        "metadata": {
            "table": "2", "run": "Collimators",
            "date_time": "30-09-2022, 18:22 CET",
            "temperature_c": 7, "weather": "no clouds",
            "visibility_km": 5.0, "rain_mm_h": 0.0, "wind_m_s": 6.2,
            "link_loss_db": 13.0, "noise_per_apd_cps": 2500,
            "reported_qber": 0.083, "reported_key_rate_bps": 1400,
            "note": ("channel config is calibrated to the reported rate; the "
                     "quoted 13 dB entry is inconsistent with the 10x rate gap "
                     "and kept as metadata only"),
        },
        "mu": MU_NOMINAL,
        "target_rate_bps": 1400.0,
        "target_qber": 0.083,
        "background_cps": 2500.0,
        "gate_ps": 400.0,
        "channel": {
            "distance_m": 780.0,
            "tx_beam_diameter_e2_cm": 1.45,
            "rx_aperture_diameter_e2_cm": 1.45,
            "visibility_km": 5.0,
            "retro_mode": False,
        },
        "clock": {"offset_ps": -9021.0, "drift_ppm": -5.0},
        "seeds": (41, 42, 43, 44),
    },
}

# The shared receiver efficiency is fitted once, on the best-characterized
# run (beam expanders, where the channel total is quoted).
EFFICIENCY_ANCHOR = "table2_beam_expanders"


def build_scenarios() -> dict[str, dict]:
    anchor = RUNS[EFFICIENCY_ANCHOR]
    fit0 = fit_run(anchor["target_rate_bps"], anchor["target_qber"], REP_RATE,
                   anchor["mu"], anchor["background_cps"], anchor["gate_ps"],
                   PULSE_FWHM, JITTER_FWHM)
    efficiency_db = fit0.total_attenuation_db - anchor["channel_total_db"]

    docs = {}
    for name, run in RUNS.items():
        fit = fit_run(run["target_rate_bps"], run["target_qber"], REP_RATE,
                      run["mu"], run["background_cps"], run["gate_ps"],
                      PULSE_FWHM, JITTER_FWHM)
        channel_total_db = fit.total_attenuation_db - efficiency_db
        probe = ChannelConfig(**run["channel"], extra_loss_db=0.0)
        extra_db = residual_extra_loss_db(channel_total_db, probe, WAVELENGTH)
        s_src, s_ch, s_rx, s_proto = run["seeds"]
        docs[name] = {
            "name": name,
            "metadata": run["metadata"],
            "duration_s": 10.0,
            "source": {
                "rep_rate_hz": REP_RATE,
                "pulse_fwhm_ps": PULSE_FWHM,
                "wavelength_nm": WAVELENGTH,
                "mu_per_state": list(run["mu"]),
                "rng_seed": s_src,
            },
            "channel": dict(
                run["channel"],
                extra_loss_db=round(extra_db, 4),
                fading_sigma=0.0,
                fading_block_ms=10.0,
                rng_seed=s_ch,
            ),
            "receiver": {
                "efficiency_db": round(efficiency_db, 4),
                "misalignment_deg": round(fit.misalignment_deg, 4),
                "background_rate_cps_per_apd": run["background_cps"],
                "jitter_fwhm_ps": JITTER_FWHM,
                "dead_time_ns": DEAD_TIME_NS,
                "tag_resolution_ps": 1,
                "double_click_policy": "random_bit",
                "rng_seed": s_rx,
            },
            "sync": {
                "gate_width_ps": run["gate_ps"],
                "beacon_assisted": False,
                "true_clock": run["clock"],
            },
            "protocol": {
                "session_id": 1,
                "qber_abort_threshold": 0.10,
                "sample_fraction": 1.0,
                "rng_seed": s_proto,
            },
        }
    return docs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    docs = build_scenarios()
    ok = True
    for name, doc in docs.items():
        path = OUT_DIR / f"{name}.json"
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.check:
            if not path.exists() or path.read_text() != text:
                print(f"STALE: {path}")
                ok = False
            else:
                print(f"ok: {path}")
        else:
            path.write_text(text)
            print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
