"""Scenario loading, validation errors, hashing, and table fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fsbb84
from fsbb84 import analysis, runner
from fsbb84.errors import ConfigError
from fsbb84.protocol.session import sample_size
from fsbb84.scenario import (BUNDLED_NAMES, MAX_FADING_BLOCKS, Scenario, bundled_scenario,
                             bundled_scenario_text, field_paths, load_scenario,
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


def _doc_with(keys, value, **protocol):
    """The bundled beam-expander document, its protocol section updated with
    ``protocol``, and ``value`` written at the key path ``keys``."""
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    doc["protocol"].update(protocol)
    target = doc
    for key in keys[:-1]:
        target = target.setdefault(key, {})
    target[keys[-1]] = value
    return doc


def _outcome(build):
    """What ``build()`` returns, or the field its ConfigError names."""
    try:
        return build()
    except ConfigError as err:
        return err.field


BASE = bundled_scenario("table2_beam_expanders")


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
        "40cc6a169b77cad8aa89eb99b0c7356b3dd34fe49455ff899ba586678d37134d")


def test_scenario_hashed_once_per_session(monkeypatch, fast_scenario):
    # predict(), Bob's and Alice's parties all need the same digest
    calls = []
    original = Scenario.canonical_json
    monkeypatch.setattr(Scenario, "canonical_json",
                        lambda self: calls.append(self) or original(self))
    predicted = analysis.predict(fast_scenario)
    bob, alice, _ = runner.run_in_process(fast_scenario)
    assert predicted.scenario_hash == bob.scenario_hash == alice.scenario_hash
    assert len(calls) == 1


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
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_doc_with(("channel", "visibility_km"), -2.0))
    assert "visibility_km" in str(err.value)


def test_sample_fraction_alone_samples_that_share():
    protocol = scenario_from_dict(_doc_with(("protocol",), {"sample_fraction": 0.25})).protocol
    assert sample_size(1000, protocol) == 250


SCHEMA = {tuple(path.split(".")): kind for path, kind in field_paths()}
# Per range kind, the values just outside its range and the edges it keeps.
OUTSIDE = {"Positive": [0], "NonNegative": [-1], "Probability": [-0.1, 1.5],
           "Count": [0], "Optional[Count]": [0]}
EDGES = {"NonNegative": [0], "Probability": [0, 1], "Count": [1], "Optional[Count]": [1]}


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
    # integer and flag fields: each once a traceback, a truncation or a truthy string
    (("protocol", "n_pulses"), 2e7 + 0.5, "protocol.n_pulses"),
    (("protocol", "n_pulses"), True, "protocol.n_pulses"),
    (("sync", "block_count"), 20, "sync.block_count"),  # once a setting, now sync.PHASE_BLOCKS
    (("protocol", "session_id"), -1, "protocol.session_id"),
    (("protocol", "session_id"), 2**64, "protocol.session_id"),
    (("protocol", "rng_seed"), -1, "protocol.rng_seed"),
    (("source", "rng_seed"), -3, "source.rng_seed"),
    (("channel", "rng_seed"), "7", "channel.rng_seed"),
    (("receiver", "rng_seed"), 1.5, "receiver.rng_seed"),
    (("receiver", "tag_resolution_ps"), 1.5, "receiver.tag_resolution_ps"),
    (("channel", "propagation_delay_ps"), 1.5, "channel.propagation_delay_ps"),
    (("channel", "retro_mode"), "no", "channel.retro_mode"),
    (("sync", "beacon_assisted"), 0, "sync.beacon_assisted"),
    (("protocol",), {"benchmark_mode": "true"}, "protocol.benchmark_mode"),  # once a flag
    # float, string and array fields: each once loaded, or blamed on another field
    (("channel", "distance_m"), "abc", "channel.distance_m"),
    (("channel", "distance_m"), True, "channel.distance_m"),
    (("channel", "distance_m"), float("nan"), "channel.distance_m"),
    (("receiver", "background_rate_cps_per_apd"), float("inf"),
     "receiver.background_rate_cps_per_apd"),
    (("receiver", "misalignment_deg"), [1], "receiver.misalignment_deg"),
    (("receiver", "misalignment_deg"), float("nan"), "receiver.misalignment_deg"),
    (("protocol", "sample_fraction"), "0.5", "protocol.sample_fraction"),
    (("sync", "true_clock"), {"offset_ps": float("nan")}, "sync.true_clock.offset_ps"),
    (("sync", "gate_width_ps"), float("nan"), "sync.gate_width_ps"),
    (("source", "rep_rate_hz"), float("inf"), "source.rep_rate_hz"),
    (("duration_s",), True, "duration_s"),
    (("duration_s",), "10", "duration_s"),
    (("name",), 5, "name"),
    (("receiver", "dead_time_ns"), float("inf"), "receiver.dead_time_ns"),
    (("receiver", "jitter_fwhm_ps"), float("nan"), "receiver.jitter_fwhm_ps"),
    (("channel", "fading_sigma"), float("nan"), "channel.fading_sigma"),
    # a train or delay past int64 picoseconds: each once loaded
    (("protocol", "n_pulses"), 2**70, "protocol.n_pulses"),
    (("channel", "propagation_delay_ps"), 2**70, "channel.propagation_delay_ps"),
    (("sync", "true_clock", "offset_ps"), 1e300, "sync.true_clock.offset_ps"),
    (("duration_s",), 1e12, "duration_s"),
    (("channel", "distance_m"), 1e300, "channel.distance_m"),
    *((path, v, ".".join(path)) for path, kind in SCHEMA.items() for v in OUTSIDE.get(kind, [])),
    # 1 ps blocks under fading, a generator seeded per block: once loaded, then never ended
    (("channel",), {**BASE.to_dict()["channel"], "fading_block_ms": 1e-9, "fading_sigma": 0.5},
     "channel.fading_block_ms"),
    # past the run's int64 arithmetic: each once loaded, then crashed inside the run
    (("receiver", "dead_time_ns"), 1e300, "receiver.dead_time_ns"),
    (("receiver", "jitter_fwhm_ps"), 1e300, "receiver.jitter_fwhm_ps"),
    (("channel", "fading_block_ms"), 1e-300, "channel.fading_block_ms"),
    (("receiver", "background_rate_cps_per_apd"), 1e300, "receiver.background_rate_cps_per_apd"),
    # jitter tails past detect's 2^61 ps key span: once loaded, then crashed inside the run
    (("receiver", "jitter_fwhm_ps"), 1e18, "receiver.jitter_fwhm_ps"),
    # not a schema field: a file's metadata is free-form, yet no override path
    (("receiver", "bogus"), 1, "receiver.bogus"),
    (("metadata", "weather"), "rain", "metadata.weather"),
    # the "all" shorthand for a sample fraction of 1: once rewritten by the loader
    (("protocol", "sample_fraction"), "all", "protocol.sample_fraction"),
])
def test_malformed_value_names_field(keys, value, field):
    # a file and an override name the same field
    assert _outcome(lambda: BASE.override({".".join(keys): value})) == field
    if keys[0] != "metadata":
        assert _outcome(lambda: scenario_from_dict(_doc_with(keys, value))) == field


def test_override_refuses_a_path_inside_a_section_it_replaces():
    with pytest.raises(ConfigError) as err:
        BASE.override({"sync": {}, "sync.gate_width_ps": 400.0})
    assert err.value.field == "sync.gate_width_ps"


def test_integer_fields_keep_their_edges():
    sc = scenario_from_dict(_doc_with(("channel", "propagation_delay_ps"), -5,
                                      session_id=2**64 - 1, rng_seed=0, n_pulses=1000))
    assert (sc.protocol.session_id, sc.n_pulses, sc.channel.delay_ps()) == (2**64 - 1, 1000, -5)


@pytest.mark.parametrize("keys, value", [
    (("duration_s",), 10),
    (("channel", "distance_m"), 0),
    (("channel", "distance_m"), 780),
    (("channel", "visibility_km"), 2),
    (("receiver", "dead_time_ns"), 50),
    (("source", "mu_per_state"), [1, 0, 0.1, 0.1]),
    (("sync", "true_clock", "offset_ps"), 5),
    (("protocol", "sample_fraction"), 1),
    *((path, v) for path, kind in SCHEMA.items() for v in EDGES.get(kind, [])),
    # the narrowest whole-picosecond gate: a Positive field has no edge at 0
    (("sync", "gate_width_ps"), 1),
])
def test_float_fields_keep_their_edges(keys, value):
    # an int is a number and 0 m is a link; the loader takes both as they are
    sc = scenario_from_dict(_doc_with(keys, value))
    for key in keys:
        sc = getattr(sc, key)
    assert sc == (tuple(value) if isinstance(value, list) else value)


def test_integer_valued_document_hash_pinned():
    # duration_s and the mu entries become floats, every other number stays
    # as written: its canonical form predates the schema-driven loader
    doc = json.loads(bundled_scenario_text("table2_beam_expanders"))
    doc["duration_s"] = 10
    doc["source"]["mu_per_state"] = [1, 0, 0.1, 0.1]
    doc["channel"]["distance_m"] = 780
    doc["sync"]["true_clock"] = {"offset_ps": 5, "drift_ppm": 8}
    assert scenario_from_dict(doc).hash_hex() == (
        "9bec72b7d26d516b4b0d5caf8dbf7e51a1d508de5dc9c7c21627b67fcac802b5")


FIELD_PATHS = sorted(SCHEMA)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
@example(path=("source", "rep_rate_hz"), value=float("nan"))  # once a ValueError
@example(path=("source", "rep_rate_hz"), value=10**400)  # once an OverflowError
@example(path=("duration_s",), value=1e301)  # once an OverflowError: 1e309 pulses
@example(path=("protocol", "n_pulses"), value=2**70)  # these three once loaded
@example(path=("channel", "propagation_delay_ps"), value=2**70)
@example(path=("sync", "true_clock", "offset_ps"), value=1e300)
def test_any_json_value_in_any_field_loads_or_names_its_section(path, value):
    try:
        assert isinstance(scenario_from_dict(_doc_with(path, value)), Scenario)
    except ConfigError as err:
        allowed = [path[0]]
        if path == ("source", "rep_rate_hz"):
            # the period is judged against the gate and the session length
            allowed += ["sync.gate_width_ps", "duration_s"]
        assert any(err.field == a or err.field.startswith(a + ".") for a in allowed), err
    # an override of one field loads the same scenario as the file with that
    # field changed, or names the same field
    assert (_outcome(lambda: BASE.override({".".join(path): value}))
            == _outcome(lambda: scenario_from_dict(_doc_with(path, value))))


@pytest.mark.parametrize("overrides, field", [
    # the arrivals receiver.detect once tagged at 2^53 and 2^54 + 4 ps
    ({"sync.true_clock.offset_ps": 2**53 + 1}, "sync.true_clock.offset_ps"),
    ({"channel.propagation_delay_ps": 2**54 + 3}, "channel.propagation_delay_ps"),
    # 2.5 h of 100 MHz pulses, one train past 2^53 ps
    ({"duration_s": 9_100.0}, "duration_s"),
    ({"protocol.n_pulses": 910_000_000_000}, "protocol.n_pulses"),
    ({"receiver.jitter_fwhm_ps": 1e15}, "receiver.jitter_fwhm_ps"),
])
def test_tag_times_stay_below_2_53_ps(overrides, field):
    assert _outcome(lambda: BASE.override(overrides)) == field


def test_tag_times_just_below_2_53_ps_load():
    # an offset that leaves the 10 s train's last tag under 2^53 ps
    offset = 2**53 - 10**13 - 10**10
    assert BASE.override({"sync.true_clock.offset_ps": offset}).sync.true_clock.offset_ps == offset


def test_gate_must_fit_in_period():
    with pytest.raises(ConfigError):
        scenario_from_dict(_doc_with(("sync", "gate_width_ps"), 10_000.0))


def test_faded_run_spans_at_most_max_fading_blocks():
    # 1 ps blocks over 0.01 s are 1e10 blocks: refused under fading only
    short = BASE.override({"duration_s": 0.01, "channel.fading_block_ms": 1e-9})
    assert _outcome(lambda: short.override({"channel.fading_sigma": 0.5})) == (
        "channel.fading_block_ms")
    # the 10 s run at the limit, and just past it
    at_limit = 10e3 / MAX_FADING_BLOCKS
    assert BASE.override({"channel.fading_sigma": 0.5, "channel.fading_block_ms": at_limit})
    assert _outcome(lambda: BASE.override({"channel.fading_sigma": 0.5,
                                           "channel.fading_block_ms": at_limit * 0.999})) == (
        "channel.fading_block_ms")


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
