"""OI-RAID layout geometry: the normative invariants from DESIGN.md."""

import numpy as np
import pytest

from repro.core.oi_layout import OIRAIDLayout, oi_raid
from repro.design.catalog import find_bibd
from repro.errors import LayoutError, ParameterError


class TestFanoGeometry:
    def test_disk_and_unit_counts(self, fano_layout):
        assert fano_layout.n_disks == 21
        assert fano_layout.outer_units_per_disk == 18  # r*g*D = 3*3*2
        assert fano_layout.inner_units_per_disk == 9
        assert fano_layout.units_per_disk == 27

    def test_stripe_population(self, fano_layout):
        outer = fano_layout.outer_stripes()
        inner = fano_layout.inner_stripes()
        # b * g^2 * D outer stripes, v * (g * U_o / (g-1)) inner rows.
        assert len(outer) == 7 * 9 * 2
        assert len(inner) == 7 * 27
        assert all(s.kind == "outer" and s.level == 0 for s in outer)
        assert all(s.kind == "inner" and s.level == 1 for s in inner)

    def test_outer_stripe_width_is_k(self, fano_layout):
        assert all(s.width == 3 for s in fano_layout.outer_stripes())

    def test_inner_row_width_is_g(self, fano_layout):
        assert all(s.width == 3 for s in fano_layout.inner_stripes())

    def test_outer_stripe_one_disk_per_group(self, fano_layout):
        for stripe in fano_layout.outer_stripes():
            groups = [fano_layout.group_of_disk(u.disk) for u in stripe.units]
            assert len(set(groups)) == 3

    def test_inner_row_one_unit_per_group_member(self, fano_layout):
        for stripe in fano_layout.inner_stripes():
            disks = [u.disk for u in stripe.units]
            groups = {fano_layout.group_of_disk(d) for d in disks}
            assert len(groups) == 1
            assert len(set(disks)) == 3

    def test_outer_cells_belong_to_exactly_two_stripes(self, fano_layout):
        for disk in range(fano_layout.n_disks):
            for addr in range(fano_layout.outer_units_per_disk):
                assert len(fano_layout.stripes_containing((disk, addr))) == 2

    def test_inner_parity_cells_belong_to_one_stripe(self, fano_layout):
        u_o = fano_layout.outer_units_per_disk
        for disk in range(fano_layout.n_disks):
            for addr in range(u_o, fano_layout.units_per_disk):
                assert len(fano_layout.stripes_containing((disk, addr))) == 1
                assert fano_layout.is_parity_cell((disk, addr))

    def test_efficiency_matches_closed_form(self, fano_layout):
        assert fano_layout.storage_efficiency == pytest.approx(
            fano_layout.analytic_efficiency
        )
        assert fano_layout.analytic_efficiency == pytest.approx(4 / 9)

    def test_update_penalty_is_three(self, fano_layout):
        for cell in fano_layout.data_cells[:20]:
            assert fano_layout.update_penalty(cell) == 3

    def test_balanced_flag(self, fano_layout):
        assert fano_layout.balanced

    def test_describe(self, fano_layout):
        info = fano_layout.describe()
        assert info["bibd"] == (7, 7, 3, 3, 1)
        assert info["group_size"] == 3
        assert info["skewed"] is True


class TestLogicalOrdering:
    def test_data_cells_are_outer_stripe_major(self, fano_layout):
        """Consecutive logical units fill one outer stripe's data cells
        before moving on — the property the E14 batching relies on."""
        expected = []
        for stripe in fano_layout.outer_stripes():
            for pos in stripe.data_positions:
                expected.append(stripe.units[pos].cell)
        assert list(fano_layout.data_cells) == expected

    def test_consecutive_units_land_on_distinct_disks(self, fano_layout):
        k = fano_layout.design.k
        cells = fano_layout.data_cells
        for start in range(0, 30, k - 1):
            window = cells[start : start + k - 1]
            assert len({c[0] for c in window}) == len(window)

    def test_baseline_default_is_row_major(self):
        from repro.layouts import Raid5Layout

        layout = Raid5Layout(4)
        addrs = [addr for _disk, addr in layout.data_cells]
        assert addrs == sorted(addrs)


class TestParameterHandling:
    def test_depth_must_be_multiple_of_minimum(self, fano):
        with pytest.raises(LayoutError, match="multiple"):
            OIRAIDLayout(fano, 3, depth=3)  # minimum is 2 for g=3, r=3

    def test_explicit_larger_depth(self, fano):
        layout = OIRAIDLayout(fano, 3, depth=4)
        assert layout.outer_units_per_disk == 36

    def test_group_size_two(self, fano):
        layout = OIRAIDLayout(fano, 2)
        # g=2: D = 1, U_o = r*g*D = 6, U_i = 6.
        assert layout.units_per_disk == 12
        assert not layout.balanced

    def test_oi_raid_convenience_defaults(self):
        layout = oi_raid(7, 3)
        assert layout.g == 3
        layout = oi_raid(13, 4)
        assert layout.g == 5  # next prime >= 4

    def test_unskewed_same_shape(self, fano_layout, unskewed_layout):
        assert (
            unskewed_layout.units_per_disk == fano_layout.units_per_disk
        )
        assert unskewed_layout.storage_efficiency == pytest.approx(
            fano_layout.storage_efficiency
        )
        assert not unskewed_layout.balanced

    def test_unskewed_partner_concentration(self, unskewed_layout):
        # Without skew, disk (p, x) only ever partners with member x of
        # other groups.
        layout = unskewed_layout
        for stripe in layout.outer_stripes()[:50]:
            members = {
                layout.grouping.locate(u.disk)[1] for u in stripe.units
            }
            assert len(members) == 1

    def test_skewed_partner_diversity(self, fano_layout):
        diverse = 0
        for stripe in fano_layout.outer_stripes():
            members = {
                fano_layout.grouping.locate(u.disk)[1] for u in stripe.units
            }
            if len(members) > 1:
                diverse += 1
        assert diverse > len(fano_layout.outer_stripes()) / 2


class TestOtherConfigurations:
    @pytest.mark.parametrize(
        "v,k,g",
        [(7, 3, 3), (9, 3, 3), (13, 3, 3), (13, 4, 5), (7, 3, 5)],
    )
    def test_geometry_invariants(self, v, k, g):
        design = find_bibd(v, k)
        layout = OIRAIDLayout(design, g)
        assert layout.n_disks == v * g
        # Validation inside _finalize covers coverage/level rules; check
        # the derived counts here.
        r = design.r
        d = layout.depth
        assert layout.outer_units_per_disk == r * g * d
        assert layout.units_per_disk == r * g * d + r * g * d // (g - 1)
        assert layout.storage_efficiency == pytest.approx(
            (k - 1) / k * (g - 1) / g
        )


class TestDepthValidation:
    """``depth`` is checked like every other constructor argument."""

    @pytest.mark.parametrize("depth", [2.0, np.int64(2), True])
    def test_non_int_depth_is_a_type_error(self, fano, depth):
        with pytest.raises(TypeError, match="depth"):
            OIRAIDLayout(fano, 3, depth=depth)

    def test_zero_depth_is_a_parameter_error(self, fano):
        with pytest.raises(ParameterError, match="depth"):
            OIRAIDLayout(fano, 3, depth=0)

    def test_explicit_depth_stays_a_python_int(self, fano):
        layout = OIRAIDLayout(fano, 3, depth=2)
        assert type(layout.units_per_disk) is int
