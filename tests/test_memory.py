"""Memory budget of one dense session, as tracemalloc counts it.

tracemalloc traces every allocation numpy makes, so a session's traced
high-water is a deterministic count for a given numpy: it moves only when
the program's arrays do. Each check runs its call once untraced first, so
first-call caches stay out of the count.
"""

import tracemalloc

from conftest import make_fast_scenario
from fsbb84 import analysis, channel
from fsbb84.runner import run_in_process

# Traced high-water of a whole in-process session (Bob's chain, both
# parties and the wire) per tag, on the dense fast scenario below (about
# 50k tags). The whole-array stages once held about 62 B/tag here. Passes
# that run BLOCK entries at a time carry about 0.6 MB of scratch whatever
# the stream's length, about 12 B/tag at 50k tags and 3 B/tag at the
# 223k of the benchmark's dense_short_link (36 B/tag there).
SESSION_BYTES_PER_TAG = 46
# transmit_stream's traced peak over the photons it returns: their four
# columns, plus one column while they are joined, plus each pass's scratch
# (it was 3.3x before the passes ran in blocks).
TRANSMIT_PEAK_OVER_OUTPUT = 2.3


def _dense():
    # 0 m, lossless, mu 0.1: about 0.1 photons per pulse
    return make_fast_scenario(duration_s=0.005, extra_loss_db=0.0, efficiency_db=0.0)


def _traced_peak(call):
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_session_high_water_per_tag():
    sc = _dense()
    (bob, _, quantum), peak = _traced_peak(lambda: run_in_process(sc))
    tags = len(quantum.tags)
    assert 40_000 < tags < 60_000 and not bob.abort
    assert peak / tags <= SESSION_BYTES_PER_TAG, f"{peak / tags:.1f} B/tag"


def test_transmit_stream_peak_is_its_output_plus_a_margin():
    sc = _dense()
    rx = sc.receiver
    arrivals, peak = _traced_peak(lambda: channel.transmit_stream(
        sc.source, sc.channel, sc.n_pulses, rx.efficiency,
        analysis.analyzer_table(rx.misalignment_deg), true_clock=sc.sync.true_clock))
    output = sum(column.nbytes for column in vars(arrivals).values())
    assert peak <= TRANSMIT_PEAK_OVER_OUTPUT * output, f"{peak / output:.2f}x its output"
