"""A screened chunk plans the failed sets its walk will ask for, ahead.

The lockstep screen names the two disks down at each flagged mission's
overlap; the mission chunk plans those sets as one batch before it
walks, and the walk then reads the memo. Planning ahead must save
planner calls without planning a row twice, planning an undecodable
set, or leaving a mark on results and telemetry.
"""

import json

import pytest

import repro.layouts.recovery as recovery
from repro.core.oi_layout import OIRAIDLayout
from repro.design import find_bibd
from repro.layouts import Raid5Layout, Raid50Layout
from repro.layouts.recovery import is_recoverable
from repro.obs import Telemetry, use_telemetry
from repro.obs.ledger import result_digest
from repro.sim.columnar import ChunkSpec
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import _mission_chunk, _mission_state, simulate_lifecycle
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB


@pytest.fixture
def planned(monkeypatch):
    """Every row the planner is handed, one list per planner call."""
    calls = []
    plan_rows = recovery._plan_rows

    def counting(layout, failed, *args):
        calls.append(list(failed))
        return plan_rows(layout, failed, *args)

    monkeypatch.setattr(recovery, "_plan_rows", counting)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_a_cold_pass_plans_ahead_once_per_pattern(planned, seed):
    """``fleet_boosted``'s physics in two 1 024-mission chunks."""
    layout = OIRAIDLayout(find_bibd(7, 3, lam=1), 3)

    def fleet():
        return result_digest(simulate_fleet(
            layout, 10_000, 8_766, arrays=100, trials=20, lambda_boost=1.4,
            seed=seed,
        ).to_dict())

    cold = fleet()
    rows = [row for call in planned for row in call]
    assert len(rows) == len(set(rows)) == len(layout.patterns)
    # The singles batch, one batch per chunk, and at most two stragglers
    # that a mission's later overlap reached.
    assert len(planned) <= 1 + 2 + 2
    del planned[:]
    assert fleet() == cold
    assert sum(map(len, planned)) == 0  # the singles' empty call only


#: ``tests/sim/test_mission_chunk.py``'s physics: six-hour single-disk
#: rebuilds against ~5 failures a mission, so a third of them overlap.
DISK = DiskModel(capacity_bytes=256 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)
MTTF, HORIZON, MISSIONS = 2000.0, 500.0, 160

#: Tolerance-1 layouts run the recoverability filter: RAID5 loses every
#: pair, RAID50 keeps the pairs across its groups. OI-RAID tolerates three.
LAYOUTS = {
    "raid5": lambda: Raid5Layout(7),
    "raid50": lambda: Raid50Layout(7, 3),
    # A fresh layout, not the shared cached one: its memo must start cold
    # whatever ran before.
    "oi": lambda: OIRAIDLayout(find_bibd(7, 3, lam=1), 3),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_the_filter_plans_only_decodable_sets_and_stays_silent(planned, name):
    def lifecycle(kernel):
        layout, tel = LAYOUTS[name](), Telemetry()
        with use_telemetry(tel):
            result = simulate_lifecycle(
                layout, MTTF, HORIZON, disk=DISK, lse_rate_per_byte=1e-13,
                trials=2 * MISSIONS, chunk_trials=MISSIONS, seed=5,
                kernel=kernel,
            )
        lines = tel.trace.to_jsonl(tel.events).splitlines()
        return (
            layout, result_digest(result.to_dict()), tel.metrics.to_json(),
            [line for line in lines if '"record": "span"' not in line],
        )

    vectorized, event = lifecycle("vectorized"), lifecycle("event")
    assert vectorized[1:] == event[1:]
    losses = json.loads(vectorized[2])["counters"].get("lifecycle.losses", 0)
    assert (losses > 0) == (name != "oi")
    layout = vectorized[0]
    rows = [row for call in planned for row in call]
    assert all(is_recoverable(layout, row) for row in rows)
    doubles = sum(len(row) == 2 for row in rows)
    assert (doubles > 0) == (name != "raid5")

    # Run directly under a collecting ambient, a screened chunk narrates
    # the multi-failure lookups of its walks alone: those an unscreened
    # chunk narrates, losses included.
    def lookups(screened):
        state = _mission_state(LAYOUTS[name](), DISK, "distributed", "analytic", 8)
        ambient = Telemetry()
        with use_telemetry(ambient):
            _mission_chunk(
                state, ChunkSpec(0, 0, MISSIONS, 5), Telemetry(enabled=False),
                screened=screened, lambd=1.0 / MTTF, nominal_lambd=1.0 / MTTF,
                horizon_hours=HORIZON, lse_rate_per_byte=0.0,
            )
        # The memo decides silently; the walk narrates what it looked up.
        assert "recovery.oracle_calls" not in dict(ambient.metrics.counters())
        return [
            span.args["failed"] for span in ambient.trace.spans
            if span.name == "rebuild_evaluate" and span.args["failed"] > 1
        ]

    asked = lookups(True)
    assert asked == lookups(False)
    assert asked
