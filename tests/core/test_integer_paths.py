"""The integer paths never materialize ``Stripe`` objects.

Planning, the recoverability oracle, the rebuild clocks, the tolerance
sweep and every simulator read the layout's incidence arrays and the
tables built from them. ``layout.stripes`` is a lazy view for the
byte-level data path; if none of those paths asks for it, an OI-RAID
layout never builds its ~10^4 ``Stripe`` objects, and the layout the
worker pool pickles carries none.
"""

from repro.core.oi_layout import OIRAIDLayout
from repro.core.tolerance import survivable_fraction
from repro.design.catalog import find_bibd
from repro.layouts.recovery import is_recoverable, plan_many, plan_recovery
from repro.scenario import Scenario, run
from repro.sim.rebuild import analytic_rebuild_time, simulate_rebuild
from repro.workloads import WorkloadSpec


def test_integer_paths_build_no_stripe_objects():
    # A fresh layout, not the oi_raid() LRU one other tests may have viewed.
    layout = OIRAIDLayout(find_bibd(7, 3), 3)
    assert layout._stripes is None
    plan = plan_recovery(layout, (0,))
    plan_many(layout, [(1,), (2, 5), (3, 9, 14)])
    is_recoverable(layout, (0, 1, 2))
    simulate_rebuild(layout, (0,), plan=plan)
    analytic_rebuild_time(layout, (0,))
    survivable_fraction(layout, 3, max_patterns=50)
    small = dict(layout=layout, trials=4, arrays=2, faults=(0,),
                 mttf_hours=20_000.0, horizon_hours=8_766.0,
                 workload=WorkloadSpec(n_requests=60))
    for kind in ("lifecycle", "fleet", "reliability", "serve"):
        run(Scenario(kind=kind, **small))
    assert layout._stripes is None
    # The data path still gets its views, built on first access.
    assert len(layout.stripes) == layout.n_stripes
    assert layout._stripes is layout.stripes
