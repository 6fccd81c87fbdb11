"""Correctness checks on one finished session, and traced-run fidelity."""

from __future__ import annotations

from fsbb84 import analysis

# The oracle comparison widens its bands to this many binomial standard
# deviations. A driver campaign runs about 2000 sessions; at 5 sigma the
# chance that any one of them fails by chance (two metrics each) is about
# 2000 * 2 * 5.7e-7 = 0.2%, where 3 sigma would fail about 10 of them.
ORACLE_SIGMAS = 5.0

# Fields both parties must report identically.
AGREED_FIELDS = ("scenario_hash", "sifted_key_length", "remaining_key_length")
AGREED_QBER_FIELDS = ("disclosed_count", "error_count", "qber", "abort")


def session_failures(predicted, bob, alice) -> list[str]:
    """Every check the session fails; an empty list means it passed."""
    if bob is None or alice is None:
        return ["a party returned no report"]
    out = []
    for role, rep in (("bob", bob), ("alice", alice)):
        if not rep.completed:
            out.append(f"{role} report not completed")
        if rep.abort:
            out.append(f"{role} report aborted: {rep.abort_reason}")
    for f in AGREED_FIELDS:
        if getattr(bob, f) != getattr(alice, f):
            out.append(f"parties disagree on {f}")
    for f in AGREED_QBER_FIELDS:
        if getattr(bob.qber, f) != getattr(alice.qber, f):
            out.append(f"parties disagree on qber.{f}")
    dev = analysis.compare(predicted, bob, stat_floor_sigmas=ORACLE_SIGMAS)
    if not dev.passed:
        out.append(f"oracle comparison failed on {', '.join(dev.failed_metrics())}")
    return out


def deterministic_counts(bob, quantum) -> dict:
    """What a traced and an untraced run of one scenario must share exactly."""
    return {
        "quantum": quantum.counts(),
        "sifted_bits": bob.sifted_key_length,
        "error_count": bob.qber.error_count,
    }


def fidelity_failures(untraced: dict, traced: dict) -> list[str]:
    return [f"traced run changed {k}: {untraced[k]!r} != {traced.get(k)!r}"
            for k in untraced if untraced[k] != traced.get(k)]
