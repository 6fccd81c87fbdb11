"""Analysis module: prediction formulas, monotonicity, comparison contract."""

import dataclasses
import math

import pytest

from conftest import make_fast_scenario
from fsbb84.analysis import compare, gate_acceptance, predict
from fsbb84.errors import ComparisonRefusedError
from fsbb84.runner import run_in_process
from fsbb84.scenario import bundled_scenario


def test_predict_zero_source_zero_background():
    sc = make_fast_scenario(mu=0.0, background_cps=0.0)
    p = predict(sc)
    assert p.p_signal_click_per_pulse == 0.0
    assert p.p_background_per_pulse == 0.0
    assert p.qber_total == 0.0
    assert p.sifted_rate_bps == 0.0


def test_predict_beam_expander_run_link_budget():
    # frozen values from the hand link budget: 13 dB channel + 11.96 dB
    # receiver, mu 0.1, gate acceptance 0.856 -> p_sig ~ 2.729e-4,
    # p_bg = 4 x 1500 c/s x 500 ps = 3.0e-6, background QBER part ~ 0.54%,
    # sifted ~ 13.79 kbit/s
    sc = bundled_scenario("table2_beam_expanders")
    p = predict(sc)
    assert p.total_loss_db == pytest.approx(13.0, abs=1e-3)
    assert p.p_signal_click_per_pulse == pytest.approx(2.729e-4, rel=2e-3)
    assert p.p_background_per_pulse == pytest.approx(3.0e-6, rel=1e-12)
    assert p.qber_background_part == pytest.approx(0.00544, abs=2e-4)
    assert p.qber_total == pytest.approx(0.019, abs=1e-4)
    assert p.sifted_rate_bps == pytest.approx(13_794.0, rel=1e-3)


def test_predict_retro_run2_rate():
    # the low-noise retro run: prediction lands on the reported 3.4 kbit/s
    p = predict(bundled_scenario("table1_run2_retro"))
    assert p.sifted_rate_bps == pytest.approx(3_400.0, rel=0.25)
    assert p.qber_total == pytest.approx(0.049, abs=1e-4)


def test_gate_acceptance_limits():
    assert gate_acceptance(500.0, 0.0, 0.0) == 1.0
    # 350 ps FWHM jitter alone, 500 ps gate: the erf value ~ 0.9075
    sigma = 350.0 / (2 * math.sqrt(2 * math.log(2)))
    expected = math.erf(250.0 / (sigma * math.sqrt(2)))
    assert gate_acceptance(500.0, 0.0, 350.0) == pytest.approx(expected, abs=1e-12)
    # FWHMs add in quadrature
    assert gate_acceptance(500.0, 200.0, 350.0) < gate_acceptance(500.0, 0.0, 350.0)


def test_predict_pure_and_deterministic():
    sc = bundled_scenario("table2_collimators")
    assert predict(sc).to_dict() == predict(sc).to_dict()


def test_qber_monotone_in_background_and_misalignment():
    base = make_fast_scenario(background_cps=100.0, misalignment_deg=2.0,
                              jitter_fwhm_ps=350.0)
    qbers = []
    for bg in (0.0, 1_000.0, 5_000.0, 20_000.0):
        qbers.append(predict(base.override({"receiver.background_rate_cps_per_apd": bg})).qber_total)
    assert all(a < b for a, b in zip(qbers, qbers[1:]))
    qbers = []
    for m in (0.0, 2.0, 5.0, 10.0):
        qbers.append(predict(base.override({"receiver.misalignment_deg": m})).qber_total)
    assert all(a < b for a, b in zip(qbers, qbers[1:]))


def test_rate_monotone_decreasing_in_loss():
    base = make_fast_scenario()
    rates = []
    for loss in (0.0, 5.0, 10.0, 20.0):
        rates.append(predict(base.override({"channel.extra_loss_db": loss})).sifted_rate_bps)
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_compare_identical_passes():
    sc = make_fast_scenario(duration_s=0.005)
    bob, _, _ = run_in_process(sc)
    p = predict(sc)
    dev = compare(p, bob)
    assert dev.passed
    assert all(e.deviation >= 0 for e in dev.entries)


def test_compare_flags_large_rate_deviation():
    sc = make_fast_scenario(duration_s=0.005)
    bob, _, _ = run_in_process(sc)
    p = predict(sc)
    wrong = dataclasses.replace(p, sifted_rate_bps=p.sifted_rate_bps * 1.4)
    dev = compare(wrong, bob)
    assert not dev.passed
    assert "sifted_rate_bps" in dev.failed_metrics()


def test_compare_refuses_hash_mismatch():
    sc = make_fast_scenario(duration_s=0.005)
    bob, _, _ = run_in_process(sc)
    other = predict(make_fast_scenario(extra_loss_db=7.0))
    with pytest.raises(ComparisonRefusedError):
        compare(other, bob)


def test_mc_agrees_with_prediction_at_3_sigma(fast_scenario):
    sc = make_fast_scenario(misalignment_deg=5.0, background_cps=2_000.0, jitter_fwhm_ps=350.0,
                            dead_time_ns=50.0, duration_s=0.01)
    bob, _, _ = run_in_process(sc)
    dev = compare(predict(sc), bob, rate_tolerance=0.0, qber_tolerance_pts=0.0)
    assert dev.passed, [e.to_dict() for e in dev.entries]
