"""Scenario loading, validation errors, hashing, and table fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsbb84
from fsbb84.errors import ConfigError
from fsbb84.protocol.session import sample_size
from fsbb84.scenario import (BUNDLED_NAMES, SyncSettings, bundled_scenario,
                             bundled_scenario_text, load_scenario,
                             scenario_from_dict)

# Every numeric row of the two reference tables, as shipped in the
# bundled scenario metadata (weather strings included for provenance).
TABLE_FIXTURES = {
    "table1_run1_retro": {
        "temperature_c": 19, "weather": "no clouds", "visibility_km": 10.0,
        "rain_mm_h": 0.0, "wind_m_s": 4.1, "noise_per_apd_cps": 4000,
        "reported_qber": 0.041, "reported_key_rate_bps": 8600,
    },
    "table1_run2_retro": {
        "temperature_c": 17, "weather": "cloudy", "visibility_km": 10.0,
        "rain_mm_h": 0.5, "wind_m_s": 6.2, "noise_per_apd_cps": 700,
        "reported_qber": 0.049, "reported_key_rate_bps": 3400,
    },
    "table2_beam_expanders": {
        "temperature_c": 7, "weather": "no clouds", "visibility_km": 2.3,
        "rain_mm_h": 0.0, "wind_m_s": 4.1, "link_loss_db": 13.0,
        "noise_per_apd_cps": 1500, "reported_qber": 0.019,
        "reported_key_rate_bps": 13794,
    },
    "table2_collimators": {
        "temperature_c": 7, "weather": "no clouds", "visibility_km": 5.0,
        "rain_mm_h": 0.0, "wind_m_s": 6.2, "link_loss_db": 13.0,
        "noise_per_apd_cps": 2500, "reported_qber": 0.083,
        "reported_key_rate_bps": 1400,
    },
}


@pytest.mark.parametrize("name", BUNDLED_NAMES)
def test_bundled_scenarios_encode_table_rows(name):
    sc = bundled_scenario(name)
    for key, value in TABLE_FIXTURES[name].items():
        assert sc.metadata[key] == value, f"{name}.metadata.{key}"
    # physically active fields mirror the logged conditions
    assert sc.channel.visibility_km == TABLE_FIXTURES[name]["visibility_km"]
    assert sc.receiver.background_rate_cps_per_apd == TABLE_FIXTURES[name]["noise_per_apd_cps"]
    assert sc.source.rep_rate_hz == 100e6
    assert sc.source.pulse_fwhm_ps == 200.0
    assert sc.protocol.qber_abort_threshold == 0.10


def test_table1_scenarios_are_retro_with_6db_splitter():
    for name in ("table1_run1_retro", "table1_run2_retro"):
        sc = bundled_scenario(name)
        assert sc.channel.retro_mode
        assert sc.channel.splitter_penalty_db == 6.0
        assert sc.channel.distance_m == 160.0
        # the weak vertical emitter from the damaged source
        assert sc.source.mu_per_state[1] < 0.2 * sc.source.mu_per_state[0]


def test_table2_scenarios_geometry():
    be = bundled_scenario("table2_beam_expanders")
    assert be.channel.tx_beam_diameter_e2_cm == 3.48
    assert be.channel.rx_aperture_diameter_e2_cm == 4.20
    assert be.channel.distance_m == 780.0
    assert be.source.mu_per_state == (0.1, 0.1, 0.1, 0.1)
    co = bundled_scenario("table2_collimators")
    assert co.channel.tx_beam_diameter_e2_cm == 1.45
    assert co.channel.rx_aperture_diameter_e2_cm == 1.45


def test_unknown_bundled_name():
    with pytest.raises(ConfigError):
        bundled_scenario("table9_imaginary")


@pytest.mark.parametrize("name", BUNDLED_NAMES)
@pytest.mark.parametrize("seed", [None, 0, 7])
def test_load_scenario_takes_bundled_names(name, seed):
    # one loader: a bundled name reaches the same scenario, seeded once
    assert (load_scenario(name, seed=seed).hash_hex()
            == bundled_scenario(name, seed=seed).hash_hex())


def test_load_from_file_and_hash_stability(tmp_path):
    text = bundled_scenario_text("table2_beam_expanders")
    p = tmp_path / "sc.json"
    p.write_text(text)
    a = load_scenario(p)
    b = bundled_scenario("table2_beam_expanders")
    assert a.hash_hex() == b.hash_hex()
    assert len(a.hash_bytes()) == 32


def test_bundled_scenario_hash_pinned():
    # Peers of different versions agree in the handshake only if the
    # canonical serialization, and so this hash, stays the same.
    assert bundled_scenario("table2_beam_expanders").hash_hex() == (
        "54387601005f3f3c81c997e333092cd95c15d198126fbcbb49eaae6dc784600f")


def test_seed_override_changes_hash_deterministically(tmp_path):
    sc = bundled_scenario("table2_beam_expanders")
    s1 = sc.with_seed(7)
    s2 = sc.with_seed(7)
    s3 = sc.with_seed(8)
    assert s1.hash_hex() == s2.hash_hex() != s3.hash_hex() != sc.hash_hex()
    assert s1.source.rng_seed == s2.source.rng_seed


def test_missing_field_names_path():
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    del doc["channel"]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert "channel" in str(err.value)

    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    del doc["source"]["rep_rate_hz"]  # has a default; drop something required
    doc["source"]["bogus_field"] = 1
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert "source" in str(err.value)


def test_invalid_value_names_field():
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    doc["channel"]["visibility_km"] = -2.0
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert "visibility_km" in str(err.value)


def test_sample_fraction_all_means_benchmark():
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    sc = scenario_from_dict(doc)
    assert sc.protocol.benchmark_mode
    assert sc.protocol.sample_fraction == 1.0


def test_sample_fraction_alone_samples_that_share():
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    doc["protocol"] = {"sample_fraction": 0.25}
    protocol = scenario_from_dict(doc).protocol
    assert not protocol.benchmark_mode
    assert sample_size(1000, protocol) == 250


@pytest.mark.parametrize("keys, value, field", [
    (("protocol",), 5, "protocol"),
    (("protocol",), [1, 2], "protocol"),
    (("protocol",), "ab", "protocol"),
    (("protocol",), None, "protocol"),
    (("sync",), [], "sync"),
    (("sync", "true_clock"), 3, "sync.true_clock"),
    (("duration_s",), "ten", "duration_s"),
    (("duration_s",), None, "duration_s"),
    (("duration_s",), float("inf"), "duration_s"),
    (("duration_s",), float("nan"), "duration_s"),
    (("source", "mu_per_state"), ["a", 0.5, 0.5, 0.1], "source.mu_per_state"),
])
def test_malformed_value_names_field(keys, value, field):
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    *parents, leaf = keys
    target = doc
    for key in parents:
        target = target[key]
    target[leaf] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert err.value.field == field


def test_gate_must_fit_in_period():
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    doc["sync"]["gate_width_ps"] = 10_000.0
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_sync_block_count_must_be_positive():
    with pytest.raises(ConfigError) as err:
        SyncSettings(block_count=0)
    assert err.value.field == "sync.block_count"


def test_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.json")


def test_n_pulses_derivation():
    sc = bundled_scenario("table2_beam_expanders")
    assert sc.n_pulses == 10 * 100_000_000
    assert sc.simulated_duration_s == 10.0


def test_bundled_scenarios_match_calibration_fits():
    # the committed scenario files are what tools/make_scenarios.py writes
    src = Path(fsbb84.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "tools/make_scenarios.py", "--check"],
                          cwd=src.parent, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok: ") == len(BUNDLED_NAMES)
