"""The heap-walk lifetime simulator, kept as an independent reference.

Until PR 14 this was the body of ``simulate_lifetimes`` (the ``event``
kernel): one trial at a time, one arrival at a time, on a private
``random.Random``. The library now samples every trial's alternating
renewal process in whole numpy blocks
(:func:`repro.sim.columnar.sample_renewal_events`) and both kernels walk
that plane, so nothing in ``src`` builds the process the slow, obvious
way any more. This copy does — moved verbatim, minus the profiler calls
— so ``test_lifetime_kernels`` can check the block sampler against it
statistically (the two draw different streams, so never bit for bit).
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry, ambient, use_telemetry
from repro.sim.montecarlo import LifetimeResult
from repro.util.checks import check_positive


def heap_walk_lifetimes(
    n_disks: int,
    mttf_hours: float,
    mttr_hours: float,
    oracle: Callable[[Set[int]], bool],
    horizon_hours: float,
    trials: int = 1000,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
) -> LifetimeResult:
    """Simulate *trials* missions; each ends at data loss or the horizon.

    Failures are exponential per online disk; repairs are exponential per
    failed disk (parallel repair — matching the Markov chain's ``j * μ``
    repair rate). The oracle is consulted on every failure arrival.
    """
    check_positive("n_disks", n_disks, 2)
    check_positive("trials", trials, 1)
    if mttf_hours <= 0 or mttr_hours <= 0 or horizon_hours <= 0:
        raise SimulationError("rates and horizon must be positive")
    tel = telemetry if telemetry is not None else ambient()
    rng = random.Random(seed)
    loss_times: List[float] = []

    with use_telemetry(tel):
        for trial in range(trials):
            # Event heap: (time, seq, kind, disk). kind: 0 = fail, 1 = repair.
            heap: List[Tuple[float, int, int, int]] = []
            seq = 0
            for disk in range(n_disks):
                t = rng.expovariate(1.0 / mttf_hours)
                heapq.heappush(heap, (t, seq, 0, disk))
                seq += 1
            failed: Set[int] = set()
            lost_at: Optional[float] = None
            while heap:
                time, _s, kind, disk = heapq.heappop(heap)
                if time > horizon_hours:
                    break
                if kind == 0:
                    if disk in failed:
                        continue
                    failed.add(disk)
                    if tel.enabled:
                        tel.count("mc.failures")
                        tel.event(
                            "failure", time, trial=trial,
                            disk=disk, failed=len(failed),
                        )
                    if not oracle(failed):
                        lost_at = time
                        if tel.enabled:
                            tel.count("mc.losses")
                            tel.event(
                                "data_loss", time, trial=trial,
                                cause="pattern", failed=len(failed),
                            )
                        break
                    heapq.heappush(
                        heap,
                        (time + rng.expovariate(1.0 / mttr_hours), seq, 1, disk),
                    )
                    seq += 1
                else:
                    failed.discard(disk)
                    if tel.enabled:
                        tel.count("mc.repairs")
                        tel.event(
                            "repair_complete", time, trial=trial, disks=1,
                        )
                    heapq.heappush(
                        heap,
                        (time + rng.expovariate(1.0 / mttf_hours), seq, 0, disk),
                    )
                    seq += 1
            if lost_at is not None:
                loss_times.append(lost_at)
            if tel.enabled:
                tel.count("mc.trials")
                if lost_at is not None:
                    tel.observe("mc.loss_time_hours", lost_at)

    return LifetimeResult(
        trials=trials,
        losses=len(loss_times),
        loss_times=tuple(loss_times),
        horizon_hours=horizon_hours,
    )
