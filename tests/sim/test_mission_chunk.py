"""The one mission chunk: what the screen settles equals what the walk finds.

Lifecycle has the ``event`` kernel to hold its screen to the walk; fleet
has none, so the likelihood statistics the screen reports for a clean
mission (lifetimes consumed, and their sum) were never compared with the
cursor's tally of the same mission. ``_mission_chunk`` is the body both
simulators run, so the comparison is made here once, bit for bit, at the
nominal rate and at a boosted one.
"""

import numpy as np
import pytest

from repro.layouts import Raid50Layout
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.columnar import ChunkSpec
from repro.sim.lifecycle import (
    MissionColumns,
    _mission_chunk,
    _mission_state,
    guaranteed_tolerance,
)
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB

# Six-hour single-disk rebuilds against ~5 failures a mission: about a
# third of the missions overlap two failures, a few percent end inside a
# rebuild, and a 3 % strike chance per rebuild leaves most missions unstruck.
DISK = DiskModel(capacity_bytes=256 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)
MTTF, HORIZON, MISSIONS, START = 2000.0, 500.0, 160, 37


@pytest.fixture(scope="module", params=["oi", "raid50"])
def state(request, fano_layout):
    """The broadcast state; RAID50 (tolerance 1) is the one that loses data."""
    layout = fano_layout if request.param == "oi" else Raid50Layout(7, 3)
    return _mission_state(layout, DISK, "distributed", "analytic", 8)


def chunk(state, seed, boost, lse_rate, screened, tel=NULL_TELEMETRY):
    return _mission_chunk(
        state, ChunkSpec(0, START, MISSIONS, seed), tel, screened=screened,
        lambd=boost / MTTF, nominal_lambd=1.0 / MTTF, horizon_hours=HORIZON,
        lse_rate_per_byte=lse_rate,
    )


@pytest.mark.parametrize("seed", [0, 1, 29])
@pytest.mark.parametrize("lse_mean", [0.0, 0.03])
@pytest.mark.parametrize("boost", [1.0, 1.4])
def test_screened_columns_are_the_walked_columns(state, seed, lse_mean, boost):
    layout, _timer, tables = state
    lse_rate = lse_mean / float(tables.bytes_read.max())
    tel = Telemetry()
    screened = chunk(state, seed, boost, lse_rate, True, tel)
    walked = chunk(state, seed, boost, lse_rate, False)

    assert walked.replays == MISSIONS
    for name, fast, exact in zip(MissionColumns._fields, screened, walked):
        if name == "replays":
            continue
        if exact is None:  # no sum is kept at the nominal rate, by either path
            assert name == "draw_sum" and fast is None and boost == 1.0
            continue
        assert fast.dtype == exact.dtype, name
        assert np.array_equal(fast, exact), name
    # The sum is kept exactly when the two rates differ: observed, not flagged.
    assert (screened.draw_sum is not None) == (boost != 1.0)

    # The config holds every outcome the screen tells apart: missions it
    # settles whole, a rebuild cut off by the horizon, an overlap and (with
    # latent errors on) a strike — which only a replayed mission logs, so
    # the collecting screened run narrated it.
    overlapped = walked.peak >= 2
    lost = walked.lost_at <= HORIZON
    truncated = ~lost & ~overlapped & (walked.failures > walked.repairs)
    assert 0 < screened.replays < MISSIONS
    assert overlapped.any() and truncated.any()
    settled = ~overlapped & ~lost
    assert np.all(
        walked.draws[settled] == layout.n_disks + walked.repairs[settled]
    )
    strikes = dict(tel.metrics.counters()).get("lifecycle.lse_strikes", 0)
    assert (strikes > 0) == (lse_mean > 0)
    assert screened.replays >= np.count_nonzero(overlapped)
    if guaranteed_tolerance(layout) == 1:  # RAID50: two failures in a leg lose
        assert lost.any()
        assert walked.lost_to_lse.any() == (lse_mean > 0)

