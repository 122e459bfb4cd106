"""The scheme-conformance contract, parametrized over the whole registry.

Every registered scheme — present and future — must pass the same gauntlet:
its layout validates, its recovery plans repair a single failure, a
lifecycle simulation runs end to end through the ``Scenario`` front door,
and the parallel runners return bit-identical results for any ``jobs``.
A new scheme gets all of this for free by registering; a scheme that
breaks any leg fails here before tier-1 even gets interesting.
"""

import pytest

from repro import Scenario, build_scheme_layout, run, scheme, scheme_names
from repro.layouts import is_recoverable
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.rebuild import DiskModel

TINY_DISK = DiskModel(
    capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024
)
MTTF_HOURS = 800.0
HORIZON_HOURS = 2000.0


@pytest.mark.parametrize("name", scheme_names())
class TestSchemeConformance:
    def test_layout_validates_and_survives_one_failure(self, name):
        layout = build_scheme_layout(name)
        # Layout._finalize already ran its structural validation in the
        # constructor; check the cross-scheme invariants on top.
        assert layout.n_disks >= 2
        assert 0.0 < layout.storage_efficiency < 1.0
        assert is_recoverable(layout, [0])

    def test_plan_recovery_regenerates_the_lost_disk(self, name):
        layout = build_scheme_layout(name)
        plan = scheme(name).plan(layout, [0])
        assert plan.total_write_units == layout.units_per_disk
        assert plan.total_read_units > 0
        assert plan.max_read_units <= plan.total_read_units

    def test_repair_cost_and_update_complexity_are_sane(self, name):
        target = scheme(name)
        layout = target.build()
        cost = target.repair_cost(layout)
        assert cost.read_units > 0
        assert cost.write_units == layout.units_per_disk
        assert cost.reads_per_lost_unit > 0.0
        assert target.update_complexity(layout) >= 1

    def test_lifecycle_smoke_200_trials(self, name):
        result = run(
            Scenario(
                kind="lifecycle",
                scheme=name,
                trials=200,
                mttf_hours=MTTF_HOURS,
                horizon_hours=HORIZON_HOURS,
                disk=TINY_DISK,
            )
        )
        assert result.trials == 200
        assert 0.0 <= result.prob_loss <= 1.0
        assert result.mean_failures > 0.0

    def test_jobs_determinism(self, name):
        layout = build_scheme_layout(name)
        serial, fanned = (
            simulate_lifecycle(
                layout,
                MTTF_HOURS,
                HORIZON_HOURS,
                disk=TINY_DISK,
                trials=64,
                chunk_trials=16,
                seed=7,
                jobs=jobs,
            )
            for jobs in (1, 2)
        )
        assert serial.to_dict() == fanned.to_dict()
