"""The lockstep screen settles overlap episodes on a warm memo, as the walk does.

A round's incident is a degraded *episode*: a failure at or before the
pending completion joins the failed set, whose rebuild clock (or
memoised loss) the screen reads from the layout's pattern memo, and
restarts the completion. A mission leaves for the exact walk only when
its episode asks for a set the memo lacks, a latent sector error
strikes, or the layout tolerates no failure. So on a memo a first run
has warmed, the screen settles what the walk would find, and every
document of a ``vectorized`` run must equal the ``event`` kernel's, bit
for bit.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import repro.sim.lifecycle as lifecycle
from repro.core.oi_layout import OIRAIDLayout
from repro.design import find_bibd
from repro.errors import DataLossError
from repro.layouts import Raid5Layout, Raid50Layout
from repro.obs import Telemetry
from repro.obs.ledger import result_digest
from repro.schemes import build_scheme_layout
from repro.sim.columnar import MISSION, LifecycleTables, LockstepScreen, lanes
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB


def fresh_oi():
    """``oi_raid(7, 3)`` built anew: warming the shared cached object with
    these physics would leave other modules' cold-pass tests nothing to plan."""
    return OIRAIDLayout(find_bibd(7, 3, lam=1), 3)


@pytest.fixture
def walks(monkeypatch):
    """How many missions went through the exact walk (``jobs=1`` runs)."""
    calls = []
    walk = lifecycle._lifecycle_trial

    def counting(*args):
        calls.append(None)
        return walk(*args)

    monkeypatch.setattr(lifecycle, "_lifecycle_trial", counting)
    return calls


def test_a_warm_fleet_walks_no_mission(walks):
    """``fleet_boosted``'s physics, 2 100 missions, twice on one layout."""
    layout = fresh_oi()

    def fleet():
        return simulate_fleet(
            layout, 10_000, 8_766, arrays=100, trials=21, lambda_boost=1.4,
            seed=0,
        )

    cold = fleet()
    assert len(walks) > 0 and cold.replays > 0
    del walks[:]
    warm = fleet()
    assert walks == []
    assert result_digest(warm.to_dict()) == result_digest(cold.to_dict())
    assert warm.replays == cold.replays  # overlaps, settled or walked


#: ``tests/sim/test_mission_chunk.py``'s physics: six-hour single-disk
#: rebuilds against ~5 failures a mission, so a third of them overlap.
DISK = DiskModel(capacity_bytes=256 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)
MTTF, HORIZON, TRIALS, SEED = 2000.0, 500.0, 320, 5
LSE_RATE = 1e-13

LAYOUTS = {
    "raid5": lambda: Raid5Layout(7),
    "raid50": lambda: Raid50Layout(7, 3),
    "oi": fresh_oi,
    "xorbas": lambda: build_scheme_layout("xorbas"),
}

#: What the screen settles in each layout's table rows: RAID5 loses every
#: pair; the rest keep some, so episodes grow to three disks and run into
#: the horizon; RAID50 also loses pairs inside a leg.
SETTLES = {
    "raid5": {"loss"},
    "raid50": {"loss", "three_disks", "truncated"},
    "oi": {"three_disks", "truncated"},
    "xorbas": {"three_disks", "truncated"},
}


@pytest.fixture(scope="module")
def warm():
    """One layout object per name, its memo warmed by a first run."""
    layouts = {name: make() for name, make in LAYOUTS.items()}
    for layout in layouts.values():
        for lse in (0.0, LSE_RATE):
            simulate_lifecycle(
                layout, MTTF, HORIZON, disk=DISK, lse_rate_per_byte=lse,
                trials=TRIALS, seed=SEED,
            )
    return layouts


def recorded(layout, kernel, lse, jobs, chunk_trials):
    """Digest, metrics document and non-span trace lines of one run."""
    tel = Telemetry()
    result = simulate_lifecycle(
        layout, MTTF, HORIZON, disk=DISK, lse_rate_per_byte=lse,
        trials=TRIALS, seed=SEED, telemetry=tel, kernel=kernel, jobs=jobs,
        chunk_trials=chunk_trials,
    )
    lines = tel.trace.to_jsonl(tel.events).splitlines()
    return (
        result_digest(result.to_dict()),
        tel.metrics.to_json(),
        [line for line in lines if '"record": "span"' not in line],
    )


def settled(screens):
    """The kinds of episode the *screens* settled without a walk."""
    kinds = set()
    for screen in screens:
        for trial, episodes in screen.episodes.items():
            if screen.walked[trial]:
                continue
            for _start, rows in episodes:
                if max(row[3] for row in rows if row[0] == "failure") >= 3:
                    kinds.add("three_disks")
                if rows[-1][0] == "data_loss":
                    kinds.add("loss")
                elif rows[-1][0] != "repair_complete":
                    kinds.add("truncated")
    return kinds


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_vectorized_equals_event_on_a_warm_memo(warm, monkeypatch, name):
    """Every cell of the layout's table — latent errors off and on, one
    and two jobs, chunks of 1, 7 and the default — reads the same
    documents under either kernel."""
    screens = []
    rounds = LockstepScreen.rounds

    def keeping(screen):
        rounds(screen)
        screens.append(screen)

    monkeypatch.setattr(LockstepScreen, "rounds", keeping)
    layout, kinds = warm[name], set()
    for lse, jobs, chunk_trials in itertools.product(
        (0.0, LSE_RATE), (1, 2), (1, 7, None)
    ):
        del screens[:]
        vectorized = recorded(layout, "vectorized", lse, jobs, chunk_trials)
        assert vectorized == recorded(layout, "event", lse, jobs, chunk_trials)
        if jobs == 1:  # the screens ran here
            kinds |= settled(screens)
            if not lse:  # nothing strikes, and the memo holds every set
                assert not any(screen.walked.any() for screen in screens)
    assert kinds >= SETTLES[name]


def test_an_episode_follows_the_walks_tie_rules():
    """Exact ties, which sampled clocks never produce: a failure at the
    pending completion or at the horizon joins the episode, tied failures
    join lowest disk first, and each restarts the completion from its own
    time; the rows and the rebuild count are the walk's."""
    inf = math.inf
    loss = DataLossError("disks 0, 3")
    memo = {(0, 1): (10.0, 1.0), (0, 1, 2): (20.0, 3.0), (0, 3): loss}
    timer = SimpleNamespace(cached=memo.get)
    screen = LockstepScreen(
        SimpleNamespace(n_disks=4),
        LifecycleTables(hours=np.full(4, 10.0), bytes_read=np.ones(4)),
        lanes(0, MISSION, 0, 1, 5), 1e-3, 100.0, 0.0, 1, timer=timer,
    )

    def episode(clocks, done_at=10.0):
        failed, rows = [0], []
        end, read = screen._episode(clocks, failed, done_at, 1.0, 4, rows)
        return end, read, failed, rows

    # At the completion instant: disk 1 joins, the rebuild restarts.
    assert episode([inf, 10.0, 30.0, 50.0])[:3] == (20.0, 1.0, [0, 1])
    # At the horizon: joins, though the new completion lies past it.
    assert episode([inf, 100.0, inf, inf], 150.0)[:3] == (110.0, 1.0, [0, 1])
    # Tied at 5 h: disk 1 first, then disk 2, each logged at 5 h.
    end, read, failed, rows = episode([inf, 5.0, 5.0, 50.0])
    assert (end, read, failed) == (25.0, 3.0, [0, 1, 2])
    assert rows == [
        ("failure", 5.0, 1, 2), ("repair_abandon", 5.0, 4),
        ("repair_start", 5.0, 2, 10.0),
        ("failure", 5.0, 2, 3), ("repair_abandon", 5.0, 5),
        ("repair_start", 5.0, 3, 20.0),
    ]
    # A memoised loss ends the episode at the failure that caused it.
    end, read, failed, rows = episode([inf, inf, inf, 7.0])
    assert (end, read, failed) == (7.0, loss, [0, 3])
    assert rows[-1] == ("data_loss", 7.0, "pattern", 2)
    # A set the memo lacks: the caller parks on it.
    assert episode([inf, 4.0, inf, 6.0])[1:3] == (None, [0, 1, 3])
