"""A losing failed set is decided once per layout object.

``layout.patterns`` memoises an undecodable set as its ``DataLossError``,
whether the walk's ``is_recoverable`` or the chunk's plan-ahead
(``pattern_entries``) decided it first, so no later chunk, mission or
run on the same layout peels it again. Tolerance-1 layouts are where it
shows: RAID5 loses every pair, RAID50 the pairs inside a group.
"""

from collections import Counter

import pytest

import repro.layouts.recovery as recovery
from repro.errors import DataLossError
from repro.layouts import Raid5Layout, Raid50Layout
from repro.sim.fleet import simulate_fleet

LAYOUTS = {"raid5": lambda: Raid5Layout(7), "raid50": lambda: Raid50Layout(7, 3)}


@pytest.fixture
def peeled(monkeypatch):
    """Every failed set handed to ``recoverable_many``, in call order."""
    rows = []
    recoverable_many = recovery.recoverable_many

    def counting(layout, down):
        rows.extend(tuple(row.nonzero()[0].tolist()) for row in down)
        return recoverable_many(layout, down)

    monkeypatch.setattr(recovery, "recoverable_many", counting)
    return rows


def fleet(layout):
    """``fleet_boosted``'s physics, 2 100 missions in three chunks."""
    return simulate_fleet(
        layout, 10_000, 8_766, arrays=100, trials=21, lambda_boost=1.4, seed=0
    ).to_dict()


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_a_losing_set_is_peeled_once_per_layout(peeled, name):
    layout = LAYOUTS[name]()
    first = fleet(layout)
    losses = [
        key for key, entry in layout.patterns.items()
        if isinstance(entry, DataLossError)
    ]
    assert losses and first["raw_losses"] > len(losses)
    counts = Counter(peeled)
    assert all(counts[key] == 1 for key in losses)
    if name == "raid5":  # every set past the tolerance loses
        assert len(peeled) == len(set(peeled)) == len(losses)
    # Every set the walk decided is in the memo, as a loss or as a plan.
    assert set(peeled) <= layout.patterns.keys()
    del peeled[:]
    assert fleet(layout) == first
    assert peeled == []


def test_a_memoised_loss_raises_from_the_memo():
    layout = Raid5Layout(7)
    assert not recovery.is_recoverable(layout, (1, 4))
    with pytest.raises(DataLossError, match=r"disks \[1, 4\] is not recoverable"):
        recovery.pattern_entry(layout, (4, 1))
    assert recovery.pattern_entries(layout, [(1, 4), (2,)])[0] is layout.patterns[(1, 4)]
