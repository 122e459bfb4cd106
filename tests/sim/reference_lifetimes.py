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

The second reference is the per-event walk over a *sampled* plane that
was both the ``event`` kernel and every collecting run's replay until
the library learned to narrate its telemetry from the plane instead
(``repro.sim.montecarlo._narrate``). :func:`walk_plane` and
:func:`walk_chunks` run it, moved verbatim, over the very planes
``simulate_lifetimes`` samples, so the narrated registry, records and
``dropped`` count are checked against it bit for bit.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.obs.telemetry import Telemetry, ambient, use_telemetry
from repro.sim.columnar import derive_chunk_seed, sample_renewal_events
from repro.sim.montecarlo import LifetimeResult
from repro.sim.parallel import chunk_sizes
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


def _walk_trial_telemetry(
    times, kinds, disks, oracle, tel: Telemetry, trial: int
) -> Optional[float]:
    """Walk one trial in full, from its first event, emitting telemetry.

    The ``event`` kernel's walk and every collecting run's: the oracle is
    consulted on every failure arrival and *tel* (a no-op unless
    collecting) receives the per-event vocabulary.
    """
    failed: Set[int] = set()
    lost_at: Optional[float] = None
    for i in range(len(times)):
        time = times[i]
        if kinds[i] == 0:
            failed.add(disks[i])
            tel.count("mc.failures")
            tel.event(
                "failure", time, trial=trial,
                disk=disks[i], failed=len(failed),
            )
            if not oracle(failed):
                lost_at = time
                tel.count("mc.losses")
                tel.event(
                    "data_loss", time, trial=trial,
                    cause="pattern", failed=len(failed),
                )
                break
        else:
            failed.discard(disks[i])
            tel.count("mc.repairs")
            tel.event("repair_complete", time, trial=trial, disks=1)
    tel.count("mc.trials")
    if lost_at is not None:
        tel.observe("mc.loss_time_hours", lost_at)
    return lost_at


def walk_plane(
    times, kinds, disks, counts, starts, oracle, tel, first=0
) -> List[float]:
    """Walk every trial of one sampled plane into *tel*; the loss times.

    Records carry the global trial ``first + i`` of the plane's trial *i*.
    """
    t_list, k_list, d_list = times.tolist(), kinds.tolist(), disks.tolist()
    loss_times = []
    for trial in range(len(counts)):
        a = int(starts[trial])
        b = a + int(counts[trial])
        lost_at = _walk_trial_telemetry(
            t_list[a:b], k_list[a:b], d_list[a:b], oracle, tel, first + trial
        )
        if lost_at is not None:
            loss_times.append(lost_at)
    return loss_times


def walk_chunks(
    n_disks, mttf_hours, mttr_hours, oracle, horizon_hours, *, trials,
    seed, chunk_trials, telemetry,
) -> List[float]:
    """Walk the chunk planes ``simulate_lifetimes`` samples, in chunk order.

    Each chunk's plane is walked, stamping global trial indices, into a
    private collecting instance that is folded into *telemetry*, as the
    chunk driver folds them. Returns the run's loss times.
    """
    loss_times = []
    for index, size in enumerate(chunk_sizes(trials, chunk_trials)):
        rng = np.random.default_rng(derive_chunk_seed(seed, index))
        plane = sample_renewal_events(
            rng, n_disks, mttf_hours, mttr_hours, horizon_hours, size
        )
        chunk_tel = Telemetry.collecting()
        loss_times += walk_plane(*plane, oracle, chunk_tel, index * chunk_trials)
        telemetry.merge_chunk(chunk_tel)
    return loss_times
