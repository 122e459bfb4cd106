#!/usr/bin/env python
"""Scenario: a reliability study for a 21-disk deployment.

Couples the two effects the paper's title advertises — *fast recovery* and
*high reliability* — end to end:

1. measure each scheme's rebuild speedup with the recovery planner,
2. feed the resulting MTTR and the exhaustively-measured survivable
   fractions into continuous-time Markov chains,
3. cross-check the OI-RAID chain against Monte-Carlo lifetimes at
   accelerated failure rates.

Run:  python examples/reliability_study.py
"""

from repro import oi_raid, recovery_summary
from repro.analysis.reliability import (
    SchemeReliabilitySpec,
    reliability_comparison,
)
from repro.bench.tables import format_table
from repro.core.tolerance import tolerance_profile
from repro.layouts import Raid50Layout
from repro.sim.markov import model_for_layout
from repro.sim.montecarlo import simulate_lifetimes


def main() -> None:
    layout = oi_raid(7, 3)
    oi_speedup = recovery_summary(layout, [0]).speedup_vs_raid5
    r50_speedup = recovery_summary(Raid50Layout(7, 3), [0]).speedup_vs_raid5
    profile = tolerance_profile(layout, max_failures=4,
                                max_patterns_per_size=2000)
    survivable = [profile[f] for f in sorted(profile)]
    print(f"measured rebuild speedups: OI-RAID {oi_speedup:.2f}x, "
          f"RAID50 {r50_speedup:.2f}x")
    print(f"measured survivable fractions (1..4 failures): "
          f"{[round(s, 3) for s in survivable]}")

    rows = reliability_comparison(
        n_disks=21,
        specs=[
            SchemeReliabilitySpec("raid50", 1, r50_speedup),
            SchemeReliabilitySpec("raid6-groups", 2, r50_speedup),
            SchemeReliabilitySpec("3-replication", 2, 3.0),
            SchemeReliabilitySpec("oi-raid", 3, oi_speedup,
                                  survivable=survivable),
        ],
        mttf_hours=100_000.0,
        base_mttr_hours=24.0,
    )
    print()
    print(
        format_table(
            ["scheme", "tol", "MTTR (h)", "MTTDL (h)", "P(loss in 10y)"],
            [
                [r.name, r.tolerance, r.mttr_hours, r.mttdl_hours,
                 r.prob_loss_10y]
                for r in rows
            ],
            title="Markov reliability @ 21 disks, disk MTTF 100k h",
        )
    )

    # Monte-Carlo cross-check at accelerated rates (losses must be
    # observable within a reasonable number of trials).
    mttf, mttr, horizon = 2000.0, 40.0, 4000.0
    mc = simulate_lifetimes(layout, mttf, mttr, horizon, trials=400, seed=0)
    markov = model_for_layout(21, mttf, mttr, survivable)
    lo, hi = mc.prob_loss_interval()
    print(f"\naccelerated cross-check (MTTF {mttf:.0f}h, MTTR {mttr:.0f}h, "
          f"mission {horizon:.0f}h):")
    print(f"  Markov  P(loss) = {markov.prob_loss_within(horizon):.4f}")
    print(f"  MC      P(loss) = {mc.prob_loss:.4f}  "
          f"(95% CI [{lo:.4f}, {hi:.4f}], {mc.trials} trials)")


if __name__ == "__main__":
    main()
