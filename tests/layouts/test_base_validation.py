"""Layout base-class validation: the geometry contract."""

import pytest

from repro.errors import LayoutError
from repro.layouts.base import Layout, Stripe, Unit


class _Custom(Layout):
    """Minimal concrete layout for validation tests."""

    name = "custom"

    def __init__(self, n_disks, units_per_disk, stripes):
        super().__init__(n_disks, units_per_disk)
        self._stripes = tuple(stripes)
        self._finalize()


def _stripe(sid, cells, parity=(0,), tolerance=1, level=0, kind="t"):
    return Stripe(sid, kind, tuple(Unit(d, a) for d, a in cells), parity,
                  tolerance, level)


class TestValidation:
    def test_minimal_valid_layout(self):
        layout = _Custom(2, 1, [_stripe(0, [(0, 0), (1, 0)], parity=(1,))])
        assert layout.storage_efficiency == 0.5
        assert layout.data_cells == ((0, 0),)

    def test_uncovered_cell_rejected(self):
        with pytest.raises(LayoutError, match="not covered"):
            _Custom(2, 2, [_stripe(0, [(0, 0), (1, 0)])])

    def test_out_of_range_unit_rejected(self):
        with pytest.raises(LayoutError, match="outside"):
            _Custom(2, 1, [_stripe(0, [(0, 0), (2, 0)])])

    def test_duplicate_cell_in_stripe_rejected(self):
        with pytest.raises(LayoutError, match="twice"):
            _Custom(2, 1, [_stripe(0, [(0, 0), (0, 0)])])

    def test_noncontiguous_ids_rejected(self):
        with pytest.raises(LayoutError, match="contiguous"):
            _Custom(2, 1, [_stripe(5, [(0, 0), (1, 0)])])

    def test_tolerance_exceeding_parity_rejected(self):
        with pytest.raises(LayoutError, match="tolerance"):
            _Custom(2, 1, [_stripe(0, [(0, 0), (1, 0)], tolerance=2)])

    def test_parity_position_out_of_range_rejected(self):
        with pytest.raises(LayoutError, match="out of range"):
            _Custom(2, 1, [_stripe(0, [(0, 0), (1, 0)], parity=(5,))])

    def test_cell_parity_in_two_stripes_rejected(self):
        stripes = [
            _stripe(0, [(0, 0), (1, 0)], parity=(0,)),
            _stripe(1, [(0, 0), (1, 1), (0, 1)], parity=(0,), level=1),
        ]
        with pytest.raises(LayoutError, match="parity in two"):
            _Custom(2, 2, stripes)

    def test_level_violation_rejected(self):
        # Stripe 1 consumes stripe 0's parity at the same level.
        stripes = [
            _stripe(0, [(0, 0), (1, 0)], parity=(1,)),
            _stripe(1, [(1, 0), (0, 1), (1, 1)], parity=(2,), level=0),
        ]
        with pytest.raises(LayoutError, match="level"):
            _Custom(2, 2, stripes)

    def test_two_level_layout_accepted(self):
        stripes = [
            _stripe(0, [(0, 0), (1, 0)], parity=(1,)),
            _stripe(1, [(1, 0), (0, 1), (1, 1)], parity=(2,), level=1),
        ]
        layout = _Custom(2, 2, stripes)
        assert layout.levels() == (0, 1)

    def test_no_stripes_rejected(self):
        with pytest.raises(LayoutError, match="no stripes"):
            _Custom(2, 1, [])

    def test_tiny_geometry_rejected(self):
        with pytest.raises(LayoutError):
            _Custom(1, 1, [_stripe(0, [(0, 0)])])


class TestQueries:
    @pytest.fixture
    def two_level(self):
        stripes = [
            _stripe(0, [(0, 0), (1, 0)], parity=(1,)),
            _stripe(1, [(1, 0), (0, 1), (1, 1)], parity=(2,), level=1),
        ]
        return _Custom(2, 2, stripes)

    def test_stripes_containing(self, two_level):
        assert two_level.stripes_containing((1, 0)) == (0, 1)
        assert two_level.stripes_containing((0, 0)) == (0,)

    def test_unknown_cell_rejected(self, two_level):
        with pytest.raises(LayoutError):
            two_level.stripes_containing((9, 9))

    def test_parity_producer(self, two_level):
        assert two_level.parity_producer((1, 0)) == 0
        assert two_level.parity_producer((1, 1)) == 1
        with pytest.raises(LayoutError):
            two_level.parity_producer((0, 0))

    def test_is_parity_cell(self, two_level):
        assert two_level.is_parity_cell((1, 0))
        assert not two_level.is_parity_cell((0, 1))

    def test_update_penalty_cascades(self, two_level):
        # Writing (0,0) touches stripe 0's parity (1,0), which is a member
        # of stripe 1, touching (1,1): two parity cells total.
        assert two_level.update_penalty(cell=(0, 0)) == 2
        # (0,1) only belongs to stripe 1.
        assert two_level.update_penalty(cell=(0, 1)) == 1

    def test_update_penalty_rejects_parity_cell(self, two_level):
        with pytest.raises(LayoutError):
            two_level.update_penalty(cell=(1, 0))

    def test_cells_on_disk(self, two_level):
        assert two_level.cells_on_disk(1) == [(1, 0), (1, 1)]

    def test_describe(self, two_level):
        info = two_level.describe()
        assert info["name"] == "custom"
        assert info["stripes_per_cycle"] == 2


class TestCellsOutsideTheCycle:
    """Every cell query checks ``(disk, addr)`` against the cycle first.

    Cells index arrays, so an unchecked negative disk would silently wrap
    to the last disk.
    """

    @pytest.fixture
    def layout(self):
        from repro.core.oi_layout import oi_raid

        return oi_raid(7, 3)  # 21 disks x 27 units

    @pytest.mark.parametrize("disk", [99, 21, -1, True, 1.0])
    def test_cells_on_disk(self, layout, disk):
        with pytest.raises(LayoutError, match="disk"):
            layout.cells_on_disk(disk)

    @pytest.mark.parametrize(
        "cell", [(-1, 0), (-1, 26), (21, 0), (0, 27), (0, -1), (0,), "ab", 5]
    )
    def test_cell_queries(self, layout, cell):
        for query in (layout.stripes_containing, layout.parity_producer,
                      layout.is_parity_cell, layout.update_penalty):
            with pytest.raises(LayoutError, match="no such cell"):
                query(cell)

    def test_cells_inside_the_cycle_answer_as_before(self, layout):
        assert layout.cells_on_disk(20)[-1] == (20, 26)
        assert len(layout.stripes_containing((20, 0))) == 2
        assert layout.stripes_containing((20, 26)) == (
            layout.parity_producer((20, 26)),
        )
        assert layout.is_parity_cell((20, 26))
        assert not layout.is_parity_cell(layout.data_cells[-1])
        assert layout.update_penalty(layout.data_cells[-1]) == 3
