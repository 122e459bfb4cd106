"""Simulated means against closed forms: are the error bars where they say?

Cheap regimes where Markov, queueing or renewal theory gives the answer
outright, so a biased kernel cannot hide behind another kernel that
shares its bias (the bit-identity suites only prove the kernels agree
with *each other*).
"""

import collections
import math

from repro.core.oi_layout import oi_raid
from repro.layouts import Raid5Layout
from repro.sim.columnar import LifecycleTables
from repro.sim.latency import LatencyModel
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.markov import MarkovReliabilityModel
from repro.sim.montecarlo import simulate_lifetimes
from repro.sim.rebuild import DiskModel, RebuildTimer
from repro.sim.serve import simulate_serve
from repro.workloads import OpenLoop, WorkloadSpec


def test_lifetime_loss_intervals_cover_the_markov_chain():
    """95 % Wilson intervals over a seed ensemble cover the exact answer.

    With exponential failures, per-disk exponential repairs and a loss at
    the second concurrent failure, the birth-death chain is the process
    itself, so ``prob_loss_within`` is the true loss probability. Over
    K independent seeds the number of intervals containing it is
    Binomial(K, 0.95); the gate is 3 sigma around 0.95 K. Intervals too
    narrow by the sqrt(2) of a half-aliased sample would cover ~83 %.
    """
    n, mttf, mttr, horizon, trials, seeds = 8, 2000.0, 40.0, 1000.0, 400, 40
    exact = MarkovReliabilityModel(n, mttf, mttr, [0, 0, 1]).prob_loss_within(
        horizon
    )
    covered = 0
    for seed in range(seeds):
        result = simulate_lifetimes(
            Raid5Layout(n), mttf, mttr, horizon, trials=trials,
            seed=seed,
        )
        lo, hi = result.prob_loss_interval(z=1.96)
        covered += lo <= exact <= hi
    sigma = math.sqrt(0.95 * 0.05 / seeds)
    assert abs(covered / seeds - 0.95) <= 3 * sigma


def test_lifecycle_clean_path_failures_are_a_renewal_process():
    """Mean failures per mission against ``sum_d H / (MTTF + hours1[d])``.

    On the clean path (the ``lifecycle_clean`` benchmark physics: a
    32 GiB disk rebuilds in a minute, so overlaps are ~6 in 100 000
    missions) each disk alternates an exponential up time with its own
    single-failure rebuild ``hours1[d]``, and the renewal rate of that
    cycle is ``1 / (MTTF + hours1[d])``. The count over 21 disks is
    Poisson-like, so the mean of ``trials`` missions has
    sigma = sqrt(mean / trials) ~ 0.030; the gate is 4 sigma.
    """
    layout = oi_raid(7, 3)
    disk = DiskModel(capacity_bytes=32 * 1024 ** 3)
    mttf, horizon, trials = 100_000.0, 87_660.0, 20_000
    timer = RebuildTimer(layout, disk, "distributed", "analytic", 8)
    hours1 = LifecycleTables.build(layout, timer).hours
    expected = sum(horizon / (mttf + h) for h in hours1)
    result = simulate_lifecycle(
        layout, mttf, horizon, disk=disk, trials=trials, seed=0
    )
    sigma = math.sqrt(expected / trials)
    assert abs(result.mean_failures - expected) < 4 * sigma


def _md1_mean_ms(rate, shares, service_s):
    """Mean response over per-disk M/D/1 queues, disk d fed ``rate * share``."""
    total = 0.0
    for share in shares:
        rho = rate * share * service_s
        total += share * service_s * (1.0 + rho / (2.0 * (1.0 - rho)))
    return 1000.0 * total


def test_healthy_open_loop_serve_is_per_disk_md1():
    """Mean read latency against per-disk M/D/1 (Thomasian, arXiv:2306.08763).

    A healthy array under uniform open-loop reads is one M/D/1 queue per
    disk (Poisson arrivals thinned by placement, deterministic seek +
    transfer service) — provided each disk's arrival rate is weighted by
    its share of ``layout.data_cells``. ``oi_raid(7, 3)`` does *not*
    place data evenly: its 252 data cells land 10 to 16 per disk
    (10 x4, 11 x6, 12 x6, 14 x3, 16 x2), so at utilisation 0.54 the
    even-split form reads 4 % low (8.87 ms against 9.3 simulated) while
    the weighted one agrees; at 0.054 the two forms differ by 0.004 ms.
    That placement spread belongs to ROADMAP's "one orbit" item, not to
    this test, which only pins the queueing.
    """
    layout = oi_raid(7, 3)
    per_disk = collections.Counter(disk for disk, _ in layout.data_cells)
    assert (min(per_disk.values()), max(per_disk.values())) == (10, 16)
    shares = [
        per_disk[d] / len(layout.data_cells) for d in range(layout.n_disks)
    ]
    even = [1.0 / layout.n_disks] * layout.n_disks
    service_s = LatencyModel().service_seconds()
    workload = WorkloadSpec(kind="uniform", n_requests=20_000)
    # Seed to seed the simulated mean moves by ~0.003 / ~0.05 ms.
    for rate, tolerance_ms in ((200.0, 0.01), (2000.0, 0.15)):
        result = simulate_serve(
            layout, workload, arrival=OpenLoop(rate), trials=8, seed=0
        )
        weighted = _md1_mean_ms(rate, shares, service_s)
        assert abs(result.mean_ms - weighted) < tolerance_ms
    # The last, loaded regime tells the two forms apart.
    assert result.mean_ms - _md1_mean_ms(rate, even, service_s) > 0.3
