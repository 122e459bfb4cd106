"""Monte-Carlo system-lifetime simulation.

Cross-checks the Markov models with an exact-pattern simulation: disks fail
as independent exponentials, each failed disk is rebuilt after an
(exponentially distributed) repair time, and data loss is declared the
moment the *actual* failed-disk set becomes undecodable — checked with the
layout's peeling oracle, not a failure-count threshold, so pattern effects
the Markov chain can only approximate are captured exactly.

Realistic disk rates make loss astronomically rare for 3-fault-tolerant
codes; the E7 experiment therefore uses accelerated rates (documented in
EXPERIMENTS.md) and validates Markov-vs-MC agreement at those rates.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

import numpy as _np

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import is_recoverable
from repro.obs.prof import ambient_profiler
from repro.obs.telemetry import Telemetry, ambient, use_telemetry
from repro.sim.columnar import (
    first_exceedances as _first_exceedances,
    oracle_guarantee as _oracle_guarantee,
    sample_renewal_events as _sample_lifetime_events,
)
from repro.results import ResultBase, register_result
from repro.util.checks import check_positive
from repro.util.stats import wilson_interval

#: Kernel names accepted by the lifetime runners. ``auto`` is an alias
#: of ``vectorized``.
MC_KERNELS = ("auto", "vectorized", "event")


def normal_interval(
    p: float, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation confidence interval on a proportion *p*.

    Shared by the lifetime and lifecycle Monte-Carlo result types so both
    report identically-constructed intervals.
    """
    half = z * math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


@register_result
@dataclass(frozen=True)
class LifetimeResult(ResultBase):
    """Aggregated Monte-Carlo outcome.

    Attributes:
        trials: simulated missions.
        losses: missions that lost data before the horizon.
        loss_times: data-loss times of the lost missions (hours).
        horizon_hours: mission length.
    """

    trials: int
    losses: int
    loss_times: Tuple[float, ...]
    horizon_hours: float

    SUMMARY_KEYS = (
        "trials", "losses", "prob_loss", "mttdl_estimate_hours",
        "horizon_hours",
    )

    @property
    def prob_loss(self) -> float:
        """Fraction of missions that lost data before the horizon."""
        return self.losses / self.trials

    def prob_loss_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval on the loss probability.

        Non-degenerate even at zero observed losses — the upper bound
        stays ``~z**2 / (trials + z**2)`` instead of collapsing to 0,
        which is what rare-event runs need.
        """
        return wilson_interval(self.losses, self.trials, z)

    @property
    def mttdl_estimate_hours(self) -> float:
        """Censored-exponential MTTDL estimate: total exposure / losses."""
        if self.losses == 0:
            return float("inf")
        survived = self.trials - self.losses
        exposure = sum(self.loss_times) + survived * self.horizon_hours
        return exposure / self.losses


@dataclass(frozen=True)
class RecoverabilityOracle:
    """Exact-pattern oracle with a fast path: few failures always survive.

    A picklable callable (unlike a closure) so the parallel runner can ship
    it to worker processes. The failed set is passed straight to the peeler
    — no per-call sort — since :func:`is_recoverable` accepts any iterable.
    """

    layout: Layout
    guaranteed_tolerance: int

    def __call__(self, failed: Set[int]) -> bool:
        if len(failed) <= self.guaranteed_tolerance:
            return True
        return is_recoverable(self.layout, failed)


@dataclass(frozen=True)
class ThresholdOracle:
    """Count-threshold oracle for ideal-MDS baselines (picklable)."""

    tolerance: int

    def __call__(self, failed: Set[int]) -> bool:
        return len(failed) <= self.tolerance


def recoverability_oracle(
    layout: Layout, guaranteed_tolerance: int
) -> Callable[[Set[int]], bool]:
    """Oracle with a fast path: <= guaranteed failures always survive."""
    return RecoverabilityOracle(layout, guaranteed_tolerance)


def threshold_oracle(tolerance: int) -> Callable[[Set[int]], bool]:
    """Count-threshold oracle for ideal-MDS baselines (e.g. RAID6 = 2)."""
    return ThresholdOracle(tolerance)


def simulate_lifetimes(
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

    *telemetry* (default: ambient, a no-op unless a collecting instance
    is installed) receives sim-domain counters and failure / repair /
    data-loss events with simulated-hour stamps; the recorded registry
    is a deterministic function of ``(trials, seed)``.
    """
    check_positive("n_disks", n_disks, 2)
    check_positive("trials", trials, 1)
    if mttf_hours <= 0 or mttr_hours <= 0 or horizon_hours <= 0:
        raise SimulationError("rates and horizon must be positive")
    tel = telemetry if telemetry is not None else ambient()
    prof = ambient_profiler()
    if prof.enabled:
        prof.count("mc.trials", trials)
    rng = random.Random(seed)
    loss_times: List[float] = []

    with use_telemetry(tel), prof.phase("replay"):
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


def _walk_trial(
    times, kinds, disks, oracle, guarantee: int, failed: Set[int]
) -> Optional[float]:
    """Replay one trial's pre-sampled events; returns the loss time.

    *failed* is the failed set at the replay's starting point (empty when
    replaying from the trial's first event). The oracle is consulted only
    when the set outgrows *guarantee* — the same fast path the oracles
    implement internally, inlined to skip the call entirely — and not even
    then when the set is a subset of one already verified recoverable
    (recoverability is monotone: losing less can never be worse).
    """
    verified: Optional[Set[int]] = None
    for i in range(len(times)):
        if kinds[i] == 0:
            failed.add(disks[i])
            if len(failed) > guarantee and not (
                verified is not None and failed <= verified
            ):
                if not oracle(failed):
                    return times[i]
                verified = set(failed)
        else:
            failed.discard(disks[i])
    return None


def _walk_trial_telemetry(
    times, kinds, disks, oracle, tel: Telemetry, trial: int
) -> Optional[float]:
    """The :func:`_walk_trial` replay, emitting the event-kernel vocabulary."""
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


def simulate_lifetimes_vectorized(
    n_disks: int,
    mttf_hours: float,
    mttr_hours: float,
    oracle: Callable[[Set[int]], bool],
    horizon_hours: float,
    trials: int = 1000,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
) -> LifetimeResult:
    """The numpy-vectorized twin of :func:`simulate_lifetimes`.

    Same model, same result type, different execution strategy: every
    trial's failure/repair arrivals are pre-sampled in whole batches,
    and a whole-batch concurrency filter proves most trials loss-free
    without a single oracle call — only trials whose peak concurrent
    failures exceed the oracle's guaranteed tolerance are replayed
    event-by-event with the exact peeling oracle. At realistic rates
    that replay set is a few percent of trials, which is where the
    >= 5x speedup over the event kernel comes from.

    The result is a deterministic function of ``(trials, seed)`` —
    **with or without telemetry**: a collecting run replays every trial
    from the *same* pre-sampled arrays (to emit per-event telemetry in
    the event kernel's vocabulary), so enabling ``--metrics-out`` never
    changes the simulated outcome. The sampled stream differs from the
    event kernel's (``numpy`` vs :mod:`random`), so the two kernels
    agree statistically, not bit-for-bit.
    """
    check_positive("n_disks", n_disks, 2)
    check_positive("trials", trials, 1)
    if mttf_hours <= 0 or mttr_hours <= 0 or horizon_hours <= 0:
        raise SimulationError("rates and horizon must be positive")
    tel = telemetry if telemetry is not None else ambient()
    prof = ambient_profiler()
    rng = _np.random.default_rng(seed)

    with prof.phase("sample"):
        times, kinds, disks, counts, starts = _sample_lifetime_events(
            rng, n_disks, mttf_hours, mttr_hours, horizon_hours, trials
        )
    loss_times: List[float] = []

    if tel.enabled:
        # Telemetry needs per-event records, so every trial is replayed —
        # from the same sampled arrays, hence the same LifetimeResult.
        t_list = times.tolist()
        k_list = kinds.tolist()
        d_list = disks.tolist()
        with use_telemetry(tel), prof.phase("replay"):
            for trial in range(trials):
                a = int(starts[trial])
                b = a + int(counts[trial])
                lost_at = _walk_trial_telemetry(
                    t_list[a:b], k_list[a:b], d_list[a:b], oracle, tel, trial
                )
                if lost_at is not None:
                    loss_times.append(lost_at)
        if prof.enabled:
            prof.count("mc.trials", trials)
            prof.count("mc.replays", trials)
            prof.record("mc.suspect_fraction", 1.0)
    else:
        guarantee = _oracle_guarantee(oracle)
        with prof.phase("screen"):
            suspects, first_idx = _first_exceedances(
                kinds, counts, starts, trials, guarantee
            )
        if prof.enabled:
            prof.count("mc.trials", trials)
            prof.count("mc.replays", int(suspects.size))
            prof.record("mc.suspect_fraction", suspects.size / trials)
        with prof.phase("replay"):
            for trial, j in zip(suspects.tolist(), first_idx.tolist()):
                a = int(starts[trial])
                b = a + int(counts[trial])
                # Failed set just before the first exceedance: a disk is
                # down iff it appears an odd number of times in [a, j) —
                # its events strictly alternate failure/repair.
                parity = _np.bincount(disks[a:j], minlength=n_disks) & 1
                failed = set(_np.flatnonzero(parity).tolist())
                lost_at = _walk_trial(
                    times[j:b].tolist(),
                    kinds[j:b].tolist(),
                    disks[j:b].tolist(),
                    oracle,
                    guarantee,
                    failed,
                )
                if lost_at is not None:
                    loss_times.append(lost_at)

    return LifetimeResult(
        trials=trials,
        losses=len(loss_times),
        loss_times=tuple(loss_times),
        horizon_hours=horizon_hours,
    )


def lifetime_kernel(
    name: str,
) -> Callable[..., LifetimeResult]:
    """Resolve a :data:`MC_KERNELS` name to its simulate function."""
    if name in ("auto", "vectorized"):
        return simulate_lifetimes_vectorized
    if name == "event":
        return simulate_lifetimes
    raise SimulationError(
        f"unknown Monte-Carlo kernel {name!r} (expected one of {MC_KERNELS})"
    )
