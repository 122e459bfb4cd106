"""E7 (figure/table): system reliability — MTTDL and 10-year loss risk.

The paper's title claim, "fast recovery AND high reliability", composed:
each scheme's Markov chain takes (a) its tolerance depth with measured
survivable fractions (E6) and (b) its repair rate from the measured rebuild
speedup (E3). A Monte-Carlo run with the *exact* pattern oracle
cross-checks the OI-RAID chain at accelerated failure rates.
"""

from repro.analysis.reliability import (
    SchemeReliabilitySpec,
    reliability_comparison,
)
from repro.analysis.speedup import measured_speedup
from repro.bench.runner import Experiment, ExperimentResult
from repro.bench.tables import format_table
from repro.core.oi_layout import oi_raid
from repro.core.tolerance import tolerance_profile
from repro.layouts import ParityDeclusteringLayout, Raid50Layout
from repro.sim.markov import model_for_layout
from repro.sim.montecarlo import simulate_lifetimes
from repro.sim.parallel import default_jobs

N, MTTF, BASE_MTTR = 21, 100_000.0, 24.0


def _body() -> ExperimentResult:
    oi = oi_raid(7, 3)
    pd = ParityDeclusteringLayout(n_disks=21, stripe_width=3)
    oi_speedup = measured_speedup(oi)
    pd_speedup = measured_speedup(pd, balance=False)
    r50_speedup = measured_speedup(Raid50Layout(7, 3))
    profile = tolerance_profile(oi, max_failures=4, max_patterns_per_size=None)
    survivable = [profile[f] for f in sorted(profile)]

    rows_data = reliability_comparison(
        N,
        [
            SchemeReliabilitySpec("raid50", 1, r50_speedup),
            SchemeReliabilitySpec("parity-declustering", 1, pd_speedup),
            SchemeReliabilitySpec("3-replication", 2, 3.0),
            SchemeReliabilitySpec("oi-raid", 3, oi_speedup, survivable),
        ],
        mttf_hours=MTTF,
        base_mttr_hours=BASE_MTTR,
    )
    metrics = {}
    rows = []
    for row in rows_data:
        rows.append(
            [
                row.name,
                row.tolerance,
                row.mttr_hours,
                row.mttdl_hours,
                row.prob_loss_10y,
            ]
        )
        metrics[f"{row.name}_mttdl"] = row.mttdl_hours
        metrics[f"{row.name}_p10y"] = row.prob_loss_10y

    # Monte-Carlo cross-check at accelerated rates. The chunked simulator
    # gives the same result for any REPRO_JOBS value (incl. serial).
    acc_mttf, acc_mttr, horizon = 2000.0, 40.0, 4000.0
    mc = simulate_lifetimes(
        oi, acc_mttf, acc_mttr, horizon, trials=600, seed=0,
        jobs=default_jobs(),
    )
    markov = model_for_layout(N, acc_mttf, acc_mttr, survivable)
    lo, hi = mc.prob_loss_interval(z=3.0)
    metrics["mc_p_loss"] = mc.prob_loss
    metrics["markov_p_loss"] = markov.prob_loss_within(horizon)
    metrics["mc_ci_lo"], metrics["mc_ci_hi"] = lo, hi

    report = format_table(
        ["scheme", "tolerance", "MTTR (h)", "MTTDL (h)", "P(loss in 10y)"],
        rows,
        title=(
            f"E7: Markov reliability, n={N}, disk MTTF {MTTF:.0f} h, "
            f"RAID5-equivalent MTTR {BASE_MTTR:.0f} h"
        ),
    )
    report += (
        f"\n\nMonte-Carlo cross-check (accelerated: MTTF {acc_mttf:.0f} h, "
        f"MTTR {acc_mttr:.0f} h, mission {horizon:.0f} h):\n"
        f"  Markov P(loss) = {metrics['markov_p_loss']:.4f}; "
        f"MC = {mc.prob_loss:.4f} (99.7% CI [{lo:.4f}, {hi:.4f}], "
        f"{mc.trials} trials)"
    )
    return ExperimentResult("E7", report, metrics)


EXPERIMENT = Experiment(
    "E7",
    "figure",
    "higher tolerance x faster repair => orders-of-magnitude better MTTDL",
    _body,
)


def test_e7_reliability(experiment_report):
    result = experiment_report(EXPERIMENT)
    assert (
        result.metric("oi-raid_mttdl")
        > 100 * result.metric("3-replication_mttdl")
        > result.metric("raid50_mttdl")
    )
    assert result.metric("oi-raid_p10y") < 1e-8
    # Markov stays within (conservatively above is fine) ~3x of the exact
    # Monte-Carlo estimate at accelerated rates.
    mc, markov = result.metric("mc_p_loss"), result.metric("markov_p_loss")
    assert markov < 3.5 * max(mc, 1e-3)
    assert markov > mc / 3.5
