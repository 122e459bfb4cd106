"""The batched peel decides every lost set the work-queue peel does.

``recoverable_many`` runs one fixpoint over a whole matrix of failed sets
on the layout's ``DiskPeelingIndex``, and ``cells_recoverable`` is the
same fixpoint over one explicit cell set. Their reference is ``_peel``
in ``reference_peel.py``: the work-queue peel over tuple-keyed ``(disk,
addr)`` cells, which shares no code with them.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.oi_layout import oi_raid
from repro.errors import LayoutError
from repro.layouts import recovery
from repro.layouts.recovery import (
    cells_recoverable,
    failure_matrix,
    is_recoverable,
    lost_cells,
    recoverable_many,
)
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.schemes import build_scheme_layout, scheme_names
from tests.layouts.reference_peel import _peel

#: Catalog designs of up to 57 disks (``oi_raid`` picks the group size),
#: slow-marked where their every-triple sweep takes more than a few seconds.
SMALL_DESIGNS = [
    pytest.param(7, id="v7"),
    pytest.param(9, id="v9"),
    pytest.param(13, id="v13"),
    pytest.param(15, id="v15", marks=pytest.mark.slow),
    pytest.param(19, id="v19", marks=pytest.mark.slow),
]
#: The random sweep adds the 93-disk design, whose masks need two words.
RANDOM_DESIGNS = [
    pytest.param(7, id="v7"),
    pytest.param(9, id="v9"),
    pytest.param(13, id="v13"),
    pytest.param(15, id="v15"),
    pytest.param(19, id="v19", marks=pytest.mark.slow),
    pytest.param(31, id="v31", marks=pytest.mark.slow),
]


def assert_agrees(layout, patterns):
    got = recoverable_many(layout, failure_matrix(layout, patterns))
    assert got.dtype == bool and got.shape == (len(patterns),)
    expected = [_peel(layout, lost_cells(layout, p)) for p in patterns]
    mismatches = [p for p, g, e in zip(patterns, got, expected) if g != e]
    assert not mismatches, (layout.name, mismatches[:5])


def every_pattern(n_disks, largest):
    return [
        pattern
        for size in range(1, largest + 1)
        for pattern in itertools.combinations(range(n_disks), size)
    ]


@pytest.mark.parametrize("name", scheme_names())
def test_every_pattern_of_up_to_four_failures_of_each_scheme(name):
    """The ``oi`` scheme is ``oi_raid(7, 3)``."""
    layout = build_scheme_layout(name)
    assert_agrees(layout, every_pattern(layout.n_disks, 4))


@pytest.mark.parametrize("v", SMALL_DESIGNS)
def test_every_pattern_of_up_to_three_failures_of_a_design(v):
    layout = oi_raid(v, 3)
    assert_agrees(layout, every_pattern(layout.n_disks, 3))


@pytest.mark.parametrize("v", RANDOM_DESIGNS)
def test_random_patterns_of_five_to_nine_failures(v):
    layout = oi_raid(v, 3)
    rng = random.Random(v)
    patterns = [
        tuple(sorted(rng.sample(range(layout.n_disks), rng.randint(5, 9))))
        for _ in range(2000)
    ]
    assert_agrees(layout, patterns)


@pytest.mark.parametrize("name", [*scheme_names(), "oi_raid(31, 3)"])
def test_edge_rows(name):
    layout = oi_raid(31, 3) if name == "oi_raid(31, 3)" else build_scheme_layout(name)
    assert_agrees(
        layout, [(), (0,), (layout.n_disks - 1,), tuple(range(layout.n_disks))]
    )


@pytest.mark.parametrize("name", scheme_names())
def test_cell_sets_of_each_scheme(name):
    """Whole failed disks plus a few stranded cells (a rebuild's latent
    sector errors), and scattered cells; the ``oi`` scheme is
    ``oi_raid(7, 3)``."""
    layout = build_scheme_layout(name)
    rng = random.Random(name)
    n, u = layout.n_disks, layout.units_per_disk
    cells = [(disk, addr) for disk in range(n) for addr in range(u)]
    sets = [set()]
    for _ in range(100):
        failed = rng.sample(range(n), rng.randint(1, 3))
        survivors = [cell for cell in cells if cell[0] not in failed]
        stranded = rng.sample(survivors, rng.randint(1, 3))
        sets.append(lost_cells(layout, failed) | set(stranded))
        sets.append(set(rng.sample(cells, rng.randint(1, len(cells) // 3))))
    got = [cells_recoverable(layout, lost) for lost in sets]
    assert got == [_peel(layout, set(lost)) for lost in sets]
    assert got[0] and not all(got)


def test_empty_batch(fano_layout):
    got = recoverable_many(fano_layout, np.zeros((0, 21), dtype=bool))
    assert got.dtype == bool and got.shape == (0,)


def test_slices_decide_what_one_slice_does(fano_layout, monkeypatch):
    rng = random.Random(5)
    down = failure_matrix(
        fano_layout,
        [rng.sample(range(21), rng.randint(0, 8)) for _ in range(500)],
    )
    whole = recoverable_many(fano_layout, down)
    monkeypatch.setattr(recovery, "_PEEL_BUDGET", 2_000)  # a few rows a slice
    assert recoverable_many(fano_layout, down).tolist() == whole.tolist()
    monkeypatch.setattr(recovery, "_PEEL_BUDGET", 1)  # one row a slice
    assert recoverable_many(fano_layout, down).tolist() == whole.tolist()


class TestRejectsMalformedMatrices:
    def test_wrong_column_count(self, fano_layout):
        with pytest.raises(LayoutError, match=r"\(B, 21\) bool matrix"):
            recoverable_many(fano_layout, np.zeros((3, 20), dtype=bool))

    def test_non_bool_dtype(self, fano_layout):
        with pytest.raises(LayoutError, match="bool matrix, got int64"):
            recoverable_many(fano_layout, np.zeros((3, 21), dtype=np.int64))

    def test_one_dimensional(self, fano_layout):
        with pytest.raises(LayoutError, match="bool matrix"):
            recoverable_many(fano_layout, np.zeros(21, dtype=bool))

    @pytest.mark.parametrize("disk", [-1, 21])
    def test_out_of_range_disk(self, fano_layout, disk):
        with pytest.raises(LayoutError, match=f"no such disk {disk}"):
            failure_matrix(fano_layout, [(0,), (1, disk)])
        with pytest.raises(LayoutError, match=f"no such disk {disk}"):
            is_recoverable(fano_layout, [disk])


def test_one_oracle_call_counted_per_row(fano_layout):
    tel = Telemetry()
    with use_telemetry(tel):
        recoverable_many(fano_layout, np.zeros((0, 21), dtype=bool))
        assert tel.metrics.to_dict()["counters"] == {}
        recoverable_many(fano_layout, failure_matrix(fano_layout, [(0,), (1, 2)]))
        is_recoverable(fano_layout, (3, 4, 5, 6))
        # Two disks in each of two groups lose: the loss is memoised, and
        # asking again is a memo hit that still counts one call.
        assert not is_recoverable(fano_layout, (0, 1, 3, 4))
        assert (0, 1, 3, 4) in fano_layout.patterns
        assert not is_recoverable(fano_layout, [4, 3, 1, 0])
    assert tel.metrics.to_dict()["counters"] == {"recovery.oracle_calls": 5}
