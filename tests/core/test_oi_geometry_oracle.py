"""The closed-form OI-RAID geometry equals the object construction.

``OIRAIDLayout`` computes its incidence arrays in numpy;
``reference_oi_layout.py`` builds the same layout one ``Stripe`` at a
time. Their stripes (id, kind, units, parity, tolerance, level), data-cell
order and integer tables must be equal.
"""

import numpy as np
import pytest

from repro.core.oi_layout import OIRAIDLayout
from repro.design.catalog import find_bibd
from tests.core.reference_oi_layout import ReferenceOIGeometry

#: (v, k, group size): the twelve catalog designs of the repo benchmark's
#: ``plan_catalog`` workload (``benchmarks/e2e/workloads.py``).
CATALOG = (
    (7, 3, 3), (9, 3, 3), (13, 3, 3), (15, 3, 3), (19, 3, 3), (31, 3, 3),
    (57, 3, 3), (13, 4, 5), (16, 4, 5), (37, 4, 5), (21, 5, 5), (25, 5, 5),
)


def assert_same_geometry(layout):
    reference = ReferenceOIGeometry(layout)
    assert layout.stripes == reference.stripes
    assert layout.outer_stripes() == reference.stripes[: reference.n_outer]
    assert layout.data_cells == reference.data_cells()
    table, index = reference.tables()
    for got, want in ((layout.stripe_table(), table),
                      (layout.disk_peeling_index(), index)):
        for name, value in vars(want).items():
            actual = getattr(got, name)
            if isinstance(value, np.ndarray):
                assert actual.dtype == value.dtype, name
                np.testing.assert_array_equal(actual, value, err_msg=name)
            else:
                assert actual == value, name


def _base_depth(v, k, g):
    return OIRAIDLayout(find_bibd(v, k), g).depth


@pytest.mark.parametrize(
    "v,k,g,options",
    [
        (7, 3, 3, {}),
        (13, 4, 5, {}),
        (7, 3, 3, {"skewed": False}),
        (7, 3, 5, {"outer_parities": 2, "inner_parities": 2}),
        (7, 3, 3, {"depth": 2 * _base_depth(7, 3, 3)}),
        (13, 4, 5, {"depth": 2 * _base_depth(13, 4, 5)}),
    ],
)
def test_closed_form_equals_objects(v, k, g, options):
    assert_same_geometry(OIRAIDLayout(find_bibd(v, k), g, **options))


@pytest.mark.slow
@pytest.mark.parametrize("v,k,g", CATALOG)
def test_catalog_designs_equal_objects(v, k, g):
    assert_same_geometry(OIRAIDLayout(find_bibd(v, k), g))
