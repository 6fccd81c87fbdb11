"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 replay the reference runs at full duration (1e9 pulses each,
under a second apiece); the rest are statistical or structural. Run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import math
import time
from statistics import NormalDist

import numpy as np

from conftest import make_fast_scenario
from fsbb84.analysis import atmospheric_loss_db, predict
from fsbb84.errors import CorruptFrameError, NeedMoreBytes, SyncFailureError
from fsbb84.protocol.framing import (Abort, DetectionReport, Done, Hello,
                                     MatchMask, QberResult, SampleBits,
                                     SampleIndices, decode_frame, encode_frame)
from fsbb84.runner import run_in_process
from fsbb84.scenario import (BUNDLED_NAMES, ChannelConfig, ReceiverConfig, Scenario,
                             SessionParams, SourceConfig, SyncSettings, TrueClock,
                             bundled_scenario)
from fsbb84.simulate import simulate_quantum_phase


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _run_bundled(name: str, duration_s=None):
    sc = bundled_scenario(name)
    if duration_s is not None:
        sc = sc.override({"duration_s": duration_s})
    bob, alice, qp = run_in_process(sc)
    return sc, bob, alice


# -- 1: Table 2 beam-expander reproduction ------------------------------------

def test_criterion_1_beam_expander_table2():
    t0 = time.perf_counter()
    sc, bob, alice = _run_bundled("table2_beam_expanders")  # 10 s, 1e9 pulses
    runtime = time.perf_counter() - t0
    rate = bob.sifted_key_rate_bps
    qber_pt = bob.qber.qber * 100
    ok = (abs(rate - 13_794.0) / 13_794.0 <= 0.15
          and abs(qber_pt - 1.9) <= 0.4
          and sc.n_pulses == 10**9
          and runtime <= 300.0)
    _report("criterion 1 (beam-expander run)", ok,
            f"rate={rate:.0f} b/s (13794 +/- 15%), qber={qber_pt:.2f}% "
            f"(1.9 +/- 0.4 pt), {sc.n_pulses:.0e} pulses in {runtime:.0f}s (<=300s)")


# -- 2: Table 2 collimator reproduction, no abort ------------------------------

def test_criterion_2_collimators_table2():
    sc, bob, alice = _run_bundled("table2_collimators")
    rate = bob.sifted_key_rate_bps
    qber_pt = bob.qber.qber * 100
    ok = (abs(qber_pt - 8.3) <= 1.0
          and abs(rate - 1_400.0) / 1_400.0 <= 0.25
          and not bob.abort and not alice.abort)
    _report("criterion 2 (collimator run)", ok,
            f"qber={qber_pt:.2f}% (8.3 +/- 1.0 pt), rate={rate:.0f} b/s "
            f"(1400 +/- 25%), abort={bob.abort} (must be False: 8.3% < 10%)")


# -- 3: Table 1 run 1 retro-reflector reproduction ------------------------------

def test_criterion_3_retro_run1_table1():
    sc, bob, alice = _run_bundled("table1_run1_retro")
    rate = bob.sifted_key_rate_bps
    qber_pt = bob.qber.qber * 100
    ok = (abs(qber_pt - 4.1) <= 0.8
          and abs(rate - 8_600.0) / 8_600.0 <= 0.25
          and sc.channel.retro_mode and sc.channel.splitter_penalty_db == 6.0)
    _report("criterion 3 (retro-reflector run 1)", ok,
            f"qber={qber_pt:.2f}% (4.1 +/- 0.8 pt), rate={rate:.0f} b/s (8600 +/- 25%)")


# -- 4: oracle equivalence -------------------------------------------------------

def _random_scenario(seed: int) -> Scenario:
    """Randomized-but-sane scenario with >= ~500 expected sifted bits at 1e7."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        retro = bool(rng.random() < 0.3)
        mu0 = float(rng.uniform(0.05, 0.2))
        mus = tuple(float(mu0 * rng.uniform(0.7, 1.3)) for _ in range(4))
        sc = Scenario(
            name=f"randomized_{seed}",
            duration_s=0.1,
            source=SourceConfig(mu_per_state=mus, rng_seed=int(rng.integers(2**31))),
            channel=ChannelConfig(
                distance_m=float(rng.uniform(150, 780)),
                tx_beam_diameter_e2_cm=float(rng.uniform(1.45, 3.48)),
                rx_aperture_diameter_e2_cm=float(rng.uniform(2.0, 4.2)),
                visibility_km=float(rng.uniform(2.0, 20.0)),
                extra_loss_db=float(rng.uniform(2.0, 8.0)),
                retro_mode=retro,
                splitter_penalty_db=6.0 if retro else 0.0,
                rng_seed=int(rng.integers(2**31))),
            receiver=ReceiverConfig(
                efficiency_db=float(rng.uniform(5.0, 11.0)),
                misalignment_deg=float(rng.uniform(0.0, 8.0)),
                background_rate_cps_per_apd=float(rng.uniform(300.0, 4000.0)),
                jitter_fwhm_ps=float(rng.uniform(200.0, 500.0)),
                dead_time_ns=50.0,
                rng_seed=int(rng.integers(2**31))),
            sync=SyncSettings(
                gate_width_ps=float(rng.uniform(400.0, 900.0)),
                true_clock=TrueClock(offset_ps=float(rng.uniform(-5e6, 5e6)),
                                     drift_ppm=float(rng.uniform(-18.0, 18.0)))),
            protocol=SessionParams(rng_seed=int(rng.integers(2**31))),
            metadata={"randomized": seed},
        )
        p = predict(sc)
        expected_bits = p.sifted_rate_bps * sc.duration_s
        if expected_bits >= 500 and p.qber_total < 0.25:
            return sc
    raise RuntimeError("no viable randomized scenario found")


# Each scenario runs once per master seed below; the seeds were fixed
# before any result was seen. The check makes two comparisons per scenario
# (pooled sifted count, pooled error count) and splits its family
# false-alarm rate evenly over them (Bonferroni).
ORACLE_SEEDS = range(16)
ORACLE_FAMILY_ALPHA = 1e-3
# Power at which the smallest detectable bias is quoted.
ORACLE_POWER = 0.9


def _oracle_scenarios() -> list:
    scenarios = []
    for name in BUNDLED_NAMES:
        # table1_run2_retro yields ~1060 tags per 0.1 s, at the 1000-tag floor
        # of clock recovery; at 0.2 s no session falls below it.
        duration = 0.2 if name == "table1_run2_retro" else 0.1
        scenarios.append(bundled_scenario(name).override({"duration_s": duration}))
    return scenarios + [_random_scenario(s) for s in (1, 2, 3)]


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    scenarios = _oracle_scenarios()
    n_comparisons = 2 * len(scenarios)
    z_crit = NormalDist().inv_cdf(1.0 - ORACLE_FAMILY_ALPHA / (2 * n_comparisons))
    z_detect = z_crit + NormalDist().inv_cdf(ORACLE_POWER)
    lines = [f"family false-alarm rate {ORACLE_FAMILY_ALPHA:g} over {n_comparisons} "
             f"comparisons: |z| <= {z_crit:.2f}; {len(ORACLE_SEEDS)} sessions per scenario; "
             f"smallest biases detected with {ORACLE_POWER:.0%} power"]
    all_ok = True
    for sc in scenarios:
        assert sc.n_pulses >= 10**7
        sifted = errors = disclosed = 0
        for seed in ORACLE_SEEDS:
            bob, _, _ = run_in_process(sc.with_seed(seed))
            sifted += bob.sifted_key_length
            errors += bob.qber.error_count
            disclosed += bob.qber.disclosed_count
        p = predict(sc)
        # sifted bits are a thinned pulse train: Poisson about the prediction;
        # errors among the disclosed bits: binomial at the predicted QBER
        expected = p.sifted_rate_bps * sc.simulated_duration_s * len(ORACLE_SEEDS)
        z_rate = (sifted - expected) / math.sqrt(expected)
        q = p.qber_total
        qber_sd = math.sqrt(q * (1.0 - q) / disclosed)
        z_qber = (errors / disclosed - q) / qber_sd
        ok = abs(z_rate) <= z_crit and abs(z_qber) <= z_crit
        all_ok &= ok
        lines.append(f"{sc.name}: {len(ORACLE_SEEDS)}x{sc.n_pulses:.0e} pulses, "
                     f"N={sifted} sifted (predicted {expected:.0f}) z={z_rate:+.2f}, "
                     f"qber={errors / disclosed:.4f} (predicted {q:.4f}) z={z_qber:+.2f}, "
                     f"detects rate bias >= {z_detect / math.sqrt(expected):.2%}, "
                     f"qber shift >= {z_detect * qber_sd * 100:.2f} pt "
                     f"{'ok' if ok else 'FAIL'}")
    lines.append(f"{time.perf_counter() - t0:.0f}s")
    _report("criterion 4 (pooled Monte Carlo vs analytic oracle)", all_ok,
            "\n  ".join(lines))


# -- 5: noiseless invariant -------------------------------------------------------

def test_criterion_5_noiseless_exact_zero_qber():
    rng = np.random.default_rng(5050)
    failures = []
    for i in range(100):
        sc = make_fast_scenario(
            name=f"noiseless_{i}", duration_s=0.001, seed=9_000 + i,
            misalignment_deg=0.0, background_cps=0.0, jitter_fwhm_ps=0.0,
            dead_time_ns=0.0,
            offset_ps=float(rng.uniform(-1e6, 1e6)),
            drift_ppm=float(rng.uniform(-20.0, 20.0)))
        bob, alice, _ = run_in_process(sc)
        exact = (bob.qber.qber == 0.0 and bob.qber.error_count == 0
                 and bob.sifted_key_length > 0
                 and bob.qber.disclosed_count == bob.sifted_key_length
                 and alice.sifted_key_length == bob.sifted_key_length
                 and alice.qber.error_count == 0)
        if not exact:
            failures.append(i)
    _report("criterion 5 (noiseless => QBER exactly 0, keys identical)",
            not failures, f"100-seed sweep, failures: {failures or 'none'}")


# -- 6: abort rule ------------------------------------------------------------------

def _abort_fraction(e_pol_target: float, runs: int) -> float:
    mis = math.degrees(math.asin(math.sqrt(e_pol_target)))
    aborts = 0
    for i in range(runs):
        sc = make_fast_scenario(
            name=f"abort_probe_{e_pol_target}_{i}", duration_s=0.002,
            seed=17_000 + i, misalignment_deg=mis, background_cps=0.0,
            jitter_fwhm_ps=0.0, dead_time_ns=0.0,
            extra_loss_db=0.0, efficiency_db=0.0)
        bob, _, _ = run_in_process(sc)
        assert bob.qber.disclosed_count > 5_000  # enough statistics per run
        aborts += int(bob.abort)
    return aborts / runs


def test_criterion_6_abort_rule():
    frac_12 = _abort_fraction(0.12, 100)
    frac_08 = _abort_fraction(0.08, 100)
    ok = frac_12 == 1.0 and frac_08 == 0.0
    _report("criterion 6 (abort iff QBER > 10%)", ok,
            f"12% scenarios abort {frac_12*100:.0f}/100 (want 100), "
            f"8% scenarios abort {frac_08*100:.0f}/100 (want 0)")


# -- 7: clock recovery ---------------------------------------------------------------

def test_criterion_7_clock_recovery():
    rng = np.random.default_rng(77)
    details = []
    ok = True
    for drift in (-20.0, 0.0, 20.0):
        sc = bundled_scenario("table2_beam_expanders").override({
            "duration_s": 0.3,
            "sync.true_clock": {"offset_ps": float(rng.uniform(-5e6, 5e6)), "drift_ppm": drift}})
        qp = simulate_quantum_phase(sc, with_truth=True)
        truth = qp.assignments.truth_pulse_index
        sig = truth >= 0
        correct = float(np.mean(qp.assignments.pulse_index[sig] == truth[sig]))
        drift_err = abs(qp.clock.drift_ppm - drift)
        ok &= correct >= 0.999 and drift_err < 0.5
        details.append(f"drift {drift:+.0f} ppm: correct={correct*100:.3f}% "
                       f"drift_err={drift_err:.4f} ppm")

    # background-only stream must raise a sync failure
    sc_bg = bundled_scenario("table2_beam_expanders").override({
        "duration_s": 0.3, "source.mu_per_state": (0.0, 0.0, 0.0, 0.0)})
    try:
        simulate_quantum_phase(sc_bg)
        bg_ok = False
    except SyncFailureError:
        bg_ok = True
    ok &= bg_ok
    details.append(f"background-only raises sync-failure: {bg_ok}")
    _report("criterion 7 (clock recovery, >=99.9% correct assignment)", ok,
            "; ".join(details))


# -- 8: wire protocol ------------------------------------------------------------------

def _message_batch(mtype: int, n: int, rng) -> list:
    """``n`` messages of type number ``mtype`` with 0-23 entries (or bytes, or a
    count), their fields drawn in a few calls for the whole batch."""
    sizes = rng.integers(0, 24, size=n)
    ends = np.cumsum(sizes)
    spans = list(zip((ends - sizes).tolist(), ends.tolist()))

    def increasing(high):  # each message's run of sums of gaps in [1, high)
        run = np.cumsum(rng.integers(1, high, ends[-1]))
        return run - np.repeat(np.append(0, run)[ends - sizes], sizes)

    def bits():
        return rng.integers(0, 2, ends[-1], dtype=np.uint8)

    if mtype == 0:
        ids, hashes = rng.integers(2**63, size=n).tolist(), rng.bytes(32 * n)
        return [Hello(session_id=i, role=k & 1, scenario_hash=hashes[32 * k:32 * k + 32])
                for k, i in enumerate(ids)]
    if mtype == 1:
        index, basis = increasing(100), bits()
        return [DetectionReport(pulse_index=index[a:b], basis=basis[a:b]) for a, b in spans]
    if mtype == 2:
        mask = bits()
        return [MatchMask(mask=mask[a:b]) for a, b in spans]
    if mtype == 3:
        positions = increasing(50)
        return [SampleIndices(positions=positions[a:b]) for a, b in spans]
    if mtype == 4:
        sample = bits()
        return [SampleBits(bits=sample[a:b]) for a, b in spans]
    if mtype == 5:
        return [QberResult(disclosed_count=m, error_count=min(m, k % 7), qber=m / 24.0,
                           abort=bool(k & 1)) for k, m in enumerate(sizes.tolist())]
    if mtype == 6:
        return [Abort(reason="r" * m) for m in sizes.tolist()]
    return [Done(session_id=k) for k in range(n)]


def test_criterion_8_wire_protocol():
    rng = np.random.default_rng(88)
    n_types = 8
    per_type = 900_000 // n_types
    # a decoded message must re-encode to the payload it was decoded from
    wrong = 0
    for mtype in range(n_types):
        for msg in _message_batch(mtype, per_type, rng):
            frame = encode_frame(msg)
            back, end = decode_frame(frame)
            wrong += end != len(frame) or type(back) is not type(msg) or back.pack() != frame[10:-4]
    ok = wrong == 0

    # fuzz: 1e6 random buffers, every one rejected cleanly, zero crashes
    n_fuzz = 1_000_000
    blob = rng.integers(0, 256, size=n_fuzz * 24, dtype=np.uint8).tobytes()
    crashes = 0
    parsed = 0
    for i in range(n_fuzz):
        try:
            decode_frame(blob[i * 24:(i + 1) * 24])
            parsed += 1
        except (NeedMoreBytes, CorruptFrameError):
            pass
        except Exception:
            crashes += 1
    ok &= crashes == 0 and parsed == 0

    # networked loopback == in-process, byte for byte (checked in the CLI and
    # session suites over real TCP; re-asserted here on a fresh scenario)
    from fsbb84.scenario import ROLE_ALICE, ROLE_BOB
    from fsbb84.protocol.session import run_session
    from fsbb84.protocol.transport import connect, listen_accept
    import threading

    sc = make_fast_scenario(name="acc8", seed=880, background_cps=1_000.0,
                            jitter_fwhm_ps=350.0, misalignment_deg=3.0)
    in_proc_bob, _, _ = run_in_process(sc)
    box = {}

    def alice_side():
        t = listen_accept("127.0.0.1", 43931, timeout_s=15.0)
        try:
            box["alice"] = run_session(ROLE_ALICE, t, sc)
        finally:
            t.close()

    th = threading.Thread(target=alice_side)
    th.start()
    t = connect("127.0.0.1", 43931, timeout_s=15.0)
    try:
        net_bob = run_session(ROLE_BOB, t, sc)
    finally:
        t.close()
    th.join(20.0)
    identical = net_bob.canonical_json() == in_proc_bob.canonical_json()
    ok &= identical
    _report("criterion 8 (wire protocol)", ok,
            f"{n_types}x{per_type} roundtrips, {wrong} wrong; fuzz 1e6: crashes={crashes} "
            f"parsed={parsed}, "
            f"tcp-vs-inproc byte-identical={identical}")


# -- 9: atmospheric model ----------------------------------------------------------------

def test_criterion_9_atmospheric_model():
    per_km = atmospheric_loss_db(10.0, 850.0, 1000.0)
    ok = abs(per_km - 0.96) <= 0.02
    _report("criterion 9 (Kim model, V=10 km at 850 nm)", ok,
            f"{per_km:.4f} dB/km (want 0.96 +/- 0.02)")
