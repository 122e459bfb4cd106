"""Fleet-scale rare-event lifecycle kernel on the columnar core.

One lifecycle run simulates one array; a production fleet is thousands
of arrays over decade missions, and the interesting loss probabilities
are ~1e-4 .. 1e-6 — naive Monte-Carlo needs millions of missions to see
a single loss. This module runs the lifecycle kernel's own mission
chunk, boosted and weighted, and attacks both axes:

* **Fleet axis, streaming aggregation.** The mission space is
  ``arrays x trials`` independent array-missions, flattened to a global
  mission index ``m = array * trials + trial``. Missions are processed
  in fixed-size chunks; each chunk is one
  :func:`~repro.sim.lifecycle._mission_chunk` — the very body a chunk of
  the vectorized lifecycle kernel runs, on the lanes of its *global*
  mission indices (mission *m* **is** lifecycle trial *m*) — whose
  per-mission columns are folded into running accumulators —
  losses, likelihood-weight sums, exposure, per-array failure/repair
  counts. Memory is flat in the fleet size: only one chunk of missions
  is ever materialized, and the per-array vectors are linear in
  ``arrays``, not in ``arrays * trials``.
* **Exact replay only where it matters.** The chunk's lockstep screen
  settles overlapping failures from the layout's pattern memo; only a
  mission that asks for a failed set the memo lacks, or that a latent
  sector error strikes, is replayed through the exact event walk,
  reading the *same* position-addressed lane floats the screen read — so
  the mission is bit-for-bit the event kernel's mission either way.
* **Importance sampling on failure rates.** With ``lambda_boost = b``,
  lifetimes are sampled at the inflated rate ``lambda' = b * lambda``
  and every mission is weighted by the exact likelihood ratio over its
  ``N`` consumed lifetime draws summing to ``S``::

      w = (lambda / lambda')**N * exp((lambda' - lambda) * S)
        = b**(-N) * exp(lambda * (b - 1) * S)

    (computed in log space; uniform draws — latent-error checks,
    stranded-cell placement — are identically distributed under both
    measures and cancel). ``E[w * 1{loss}]`` under the boosted measure
    equals the true loss probability, so the weighted estimators in
    :class:`FleetResult` are unbiased, with an empirical-variance
    confidence interval on the weighted mean and the effective sample
    size ``(sum w)^2 / sum w^2`` as the honesty diagnostic.

Determinism contract: lanes are addressed by ``(seed, global mission)``
and chunk boundaries are a pure function of the mission count, so the
result is bit-identical for any ``jobs`` (the float accumulators are
folded in chunk order by :func:`merge_fleet_chunks`); chunk size only
regroups float additions. A collecting telemetry takes the same path:
the mission chunk narrates the lifecycle vocabulary of every mission
from what its screen settled and its walk replayed, and never changes
the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as _np

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.obs.telemetry import Telemetry
from repro.results import Column, ResultBase, register_result
from repro.sim.columnar import ChunkSpec
from repro.sim.lifecycle import _check_mission, _mission_chunk, _mission_state
from repro.sim.parallel import ProgressCallback, run_chunks
from repro.sim.rebuild import DiskModel
from repro.util.checks import check_positive
from repro.util.stats import wilson_interval

#: Missions per fleet chunk. Fixed (never derived from ``jobs``) so the
#: chunk layout — and therefore the order float accumulators fold in —
#: is identical for any worker count. Because lanes are keyed by the
#: global mission index, changing this regroups float additions (last-ulp
#: effects on the weight sums) but never changes which floats any
#: mission samples.
FLEET_CHUNK_MISSIONS = 1024


@register_result
@dataclass(frozen=True)
class FleetResult(ResultBase):
    """Streaming-aggregated fleet outcome with rare-event estimators.

    All mission-level detail is folded away during the run (that is what
    keeps memory flat); what remains are the sufficient statistics of
    the estimators plus per-array failure/repair counts.

    Attributes:
        arrays: arrays in the fleet.
        trials: missions simulated per array.
        horizon_hours: mission length.
        mttf_hours: per-disk mean time to failure (nominal rate).
        lambda_boost: importance-sampling rate inflation (1.0 = naive).
        missions: total array-missions (``arrays * trials``).
        raw_losses: missions that lost data, *unweighted* (under the
            boosted measure when ``lambda_boost > 1``).
        lse_losses: of those, losses triggered by a latent sector error.
        replays: missions with an overlap or a latent-error strike,
            settled by the screen or replayed by the event walk.
        sum_weights: sum of likelihood-ratio weights over all missions.
        sum_sq_weights: sum of squared weights (for the effective
            sample size).
        weighted_losses: sum of weights over lost missions — the
            unbiased numerator of :attr:`prob_loss`.
        weighted_sq_losses: sum of squared weights over lost missions
            (for the empirical-variance interval).
        weighted_exposure_hours: weight-scaled exposure (loss time for
            lost missions, the horizon for survivors).
        failures_per_array: disk-failure arrivals folded per array.
        repairs_per_array: completed rebuilds folded per array.
        max_peak_failures: most concurrent failures any mission reached.
    """

    arrays: int
    trials: int
    horizon_hours: float
    mttf_hours: float
    lambda_boost: float
    missions: int
    raw_losses: int
    lse_losses: int
    replays: int
    sum_weights: float
    sum_sq_weights: float
    weighted_losses: float
    weighted_sq_losses: float
    weighted_exposure_hours: float
    failures_per_array: Tuple[int, ...]
    repairs_per_array: Tuple[int, ...]
    max_peak_failures: int

    SUMMARY_KEYS = (
        "arrays", "trials", "missions", "raw_losses", "lse_losses",
        "replays", "prob_loss", "prob_any_loss", "mttdl_estimate_hours",
        "effective_sample_size", "lambda_boost",
    )

    @property
    def prob_loss(self) -> float:
        """Unbiased per-array-mission loss probability estimate.

        The weighted mean ``sum(w * 1{loss}) / missions``; with
        ``lambda_boost == 1`` every weight is 1 and this is the plain
        loss fraction.
        """
        return self.weighted_losses / self.missions

    @property
    def raw_prob_loss(self) -> float:
        """Unweighted loss fraction (under the *sampling* measure)."""
        return self.raw_losses / self.missions

    def prob_loss_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Confidence interval on :attr:`prob_loss`.

        Naive runs (``lambda_boost == 1``) get the Wilson score interval
        — non-degenerate even at zero losses. Importance-sampled runs
        get the empirical-variance (delta-method) interval on the
        weighted mean; with zero raw losses the weighted variance is
        uninformative, so the Wilson bound on the raw counts is reported
        instead (conservative: the boosted measure sees losses *more*
        often than the nominal one).
        """
        if self.lambda_boost == 1.0 or self.raw_losses == 0:
            return wilson_interval(self.raw_losses, self.missions, z)
        p = self.prob_loss
        second_moment = self.weighted_sq_losses / self.missions
        variance = max(second_moment - p * p, 0.0) / self.missions
        half = z * math.sqrt(variance)
        return (max(0.0, p - half), min(1.0, p + half))

    @property
    def prob_any_loss(self) -> float:
        """P(at least one array loses data) for a fleet of ``arrays``."""
        p = min(max(self.prob_loss, 0.0), 1.0)
        return 1.0 - (1.0 - p) ** self.arrays

    @property
    def mttdl_estimate_hours(self) -> float:
        """Censored-exponential MTTDL: weighted exposure / weighted losses."""
        if self.weighted_losses <= 0.0:
            return float("inf")
        return self.weighted_exposure_hours / self.weighted_losses

    @property
    def effective_sample_size(self) -> float:
        """``(sum w)^2 / sum w^2`` — how many naive missions the run is worth.

        Equal to ``missions`` for a naive run; importance sampling trades
        some of it for resolution on the rare event. A collapsed ESS
        (<< missions) flags an over-aggressive ``lambda_boost``.
        """
        if self.sum_sq_weights <= 0.0:
            return 0.0
        return self.sum_weights * self.sum_weights / self.sum_sq_weights

    @property
    def replay_fraction(self) -> float:
        """Fraction of missions with an overlap or a latent-error strike."""
        return self.replays / self.missions

    @property
    def mean_failures(self) -> float:
        """Mean disk-failure arrivals per mission (sampling measure)."""
        return sum(self.failures_per_array) / self.missions

    @property
    def mean_repairs(self) -> float:
        """Mean completed rebuilds per mission (sampling measure)."""
        return sum(self.repairs_per_array) / self.missions


@dataclass(frozen=True)
class FleetChunk:
    """One chunk's folded accumulators (the streaming unit of work).

    Integer fields merge commutatively; the float weight sums must be
    folded in chunk order (see :func:`merge_fleet_chunks`). The
    per-array count vectors cover only the contiguous array range the
    chunk's missions touch (``first_array`` onward) — a chunk never
    ships a fleet-sized vector.
    """

    missions: int
    raw_losses: int
    lse_losses: int
    replays: int
    sum_weights: float
    sum_sq_weights: float
    weighted_losses: float
    weighted_sq_losses: float
    weighted_exposure_hours: float
    max_peak_failures: int
    first_array: int
    failures_by_array: Column
    repairs_by_array: Column

    @property
    def trials(self) -> int:
        """Chunk size, under the streaming drain's progress vocabulary."""
        return self.missions

    @property
    def losses(self) -> int:
        """Raw losses, under the streaming drain's progress vocabulary."""
        return self.raw_losses


def _fleet_chunk(
    state: Tuple[Any, ...],
    spec: ChunkSpec,
    tel: Telemetry,
    *,
    mttf_hours: float,
    horizon_hours: float,
    lse_rate_per_byte: float,
    lambda_boost: float,
    trials_per_array: int,
) -> FleetChunk:
    """Advance missions ``spec.start .. spec.start+spec.size-1`` and fold them.

    The chunk function the driver runs: :func:`_mission_chunk` on the
    broadcast *state* at the boosted rate, always screened (and narrating
    every mission to a collecting *tel*), then the fold of its columns —
    weights from each mission's lifetime-draw count and sum.
    """
    start, count = spec.start, spec.size
    lambd_true = 1.0 / mttf_hours
    missions = _mission_chunk(
        state, spec, tel, screened=True, lambd=lambda_boost * lambd_true,
        nominal_lambd=lambd_true, horizon_hours=horizon_hours,
        lse_rate_per_byte=lse_rate_per_byte,
    )
    lost = missions.lost_at < math.inf
    end = _np.minimum(missions.lost_at, horizon_hours)
    raw_losses = int(_np.count_nonzero(lost))

    if missions.draw_sum is None:
        # Sampled at the nominal rate: every weight is exactly 1, and ones
        # keep the sums below free of the exp/log round trip's last-ulp noise.
        weights = _np.ones(count)
    else:
        weights = _np.exp(
            -missions.draws * math.log(lambda_boost)
            + lambd_true * (lambda_boost - 1.0) * missions.draw_sum
        )
    sum_w = float(_np.sum(weights))
    sum_w2 = float(_np.sum(weights * weights))
    lost_w = weights[lost]

    first_array = start // trials_per_array
    ids = (start + _np.arange(count)) // trials_per_array - first_array
    width = int(ids[-1]) + 1
    fails = _np.zeros(width, dtype=_np.int64)
    reps = _np.zeros(width, dtype=_np.int64)
    _np.add.at(fails, ids, missions.failures)
    _np.add.at(reps, ids, missions.repairs)

    if tel.enabled:
        tel.count("fleet.missions", count)
        tel.count("fleet.replays", missions.replays)
        tel.count("fleet.losses", raw_losses)
    if tel.profiling:
        tel.tally("fleet.missions", count)
        tel.tally("fleet.replays", missions.replays)
        tel.tally("fleet.losses", raw_losses)
        tel.record("fleet.dangerous_fraction", missions.replays / count)
        # Per-chunk ESS ratio: effective samples per mission. Pure
        # function of the sampled weights, so the merged series is
        # chunk-ordered and jobs-invariant.
        tel.record("fleet.ess_ratio", sum_w * sum_w / sum_w2 / count)

    return FleetChunk(
        missions=count,
        raw_losses=raw_losses,
        lse_losses=int(_np.count_nonzero(missions.lost_to_lse)),
        replays=missions.replays,
        sum_weights=sum_w,
        sum_sq_weights=sum_w2,
        weighted_losses=float(_np.sum(lost_w)),
        weighted_sq_losses=float(_np.sum(lost_w * lost_w)),
        weighted_exposure_hours=float(_np.sum(weights * end)),
        max_peak_failures=int(missions.peak.max()),
        first_array=first_array,
        failures_by_array=Column(fails),
        repairs_by_array=Column(reps),
    )


def merge_fleet_chunks(
    parts: Sequence[FleetChunk],
    arrays: int,
    trials: int,
    horizon_hours: float,
    mttf_hours: float,
    lambda_boost: float,
) -> FleetResult:
    """Fold chunk accumulators (in chunk order) into one :class:`FleetResult`.

    Integer counters are exact under any fold order, but the float
    weight sums are not associative in the last ulp — callers must pass
    *parts* in chunk order (the driver returns them so), which is what
    keeps the merged result bit-identical for any worker count.

    The one hand-written merge: it folds :class:`FleetChunk` accumulators
    into a *different* type, scattering each chunk's per-array counts at its
    ``first_array`` offset — a fold no other result needs, so
    :meth:`repro.results.ResultBase.merged` does not learn it.
    """
    if not parts:
        raise SimulationError("no fleet chunks to merge")
    missions = sum(p.missions for p in parts)
    if missions != arrays * trials:
        raise SimulationError(
            f"fleet chunks cover {missions} missions, "
            f"expected {arrays * trials}"
        )
    failures = [0] * arrays
    repairs = [0] * arrays
    sum_w = sum_w2 = w_losses = w_losses_sq = w_exposure = 0.0
    raw_losses = lse_losses = replays = 0
    max_peak = 0
    for part in parts:
        raw_losses += part.raw_losses
        lse_losses += part.lse_losses
        replays += part.replays
        sum_w += part.sum_weights
        sum_w2 += part.sum_sq_weights
        w_losses += part.weighted_losses
        w_losses_sq += part.weighted_sq_losses
        w_exposure += part.weighted_exposure_hours
        max_peak = max(max_peak, part.max_peak_failures)
        for i, value in enumerate(part.failures_by_array):
            failures[part.first_array + i] += value
        for i, value in enumerate(part.repairs_by_array):
            repairs[part.first_array + i] += value
    return FleetResult(
        arrays=arrays,
        trials=trials,
        horizon_hours=horizon_hours,
        mttf_hours=mttf_hours,
        lambda_boost=lambda_boost,
        missions=missions,
        raw_losses=raw_losses,
        lse_losses=lse_losses,
        replays=replays,
        sum_weights=sum_w,
        sum_sq_weights=sum_w2,
        weighted_losses=w_losses,
        weighted_sq_losses=w_losses_sq,
        weighted_exposure_hours=w_exposure,
        failures_per_array=tuple(failures),
        repairs_per_array=tuple(repairs),
        max_peak_failures=max_peak,
    )


def simulate_fleet(
    layout: Layout,
    mttf_hours: float,
    horizon_hours: float,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
    batches: int = 8,
    lse_rate_per_byte: float = 0.0,
    arrays: int = 100,
    trials: int = 10,
    lambda_boost: float = 1.0,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    chunk_missions: int = FLEET_CHUNK_MISSIONS,
    *,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> FleetResult:
    """Simulate ``arrays`` identical arrays for ``trials`` missions each.

    Every array-mission is an independent lifecycle mission of *layout*
    (layout-derived repair clocks, optional latent sector errors),
    sampled at failure rate ``lambda_boost / mttf_hours`` and weighted
    by the exact likelihood ratio, so the :class:`FleetResult`
    estimators are unbiased for the *nominal* rate. ``lambda_boost=1``
    is plain (naive) Monte-Carlo.

    Missions stream through fixed chunks of *chunk_missions*
    (:func:`~repro.sim.parallel.run_chunks`) — memory is flat in
    ``arrays * trials``. The strongest determinism contract of the
    simulators: draw lanes are keyed by the **global mission index**
    (not per-chunk seeds) and chunk boundaries are a pure function of
    ``arrays * trials``, so the result is bit-identical for any *jobs*
    — same lanes, same chunks, same chunk-ordered float fold — and
    *chunk_missions* only regroups float additions.

    Rebuild clocks come from the layout's pattern memo, as for the
    lifecycle kernel (:func:`~repro.sim.lifecycle._mission_state`).
    *progress* is called after every completed chunk with
    ``(missions_done, missions_total, raw_losses_so_far)``. A collecting
    *telemetry* receives the ``fleet.*`` counters and, narrated by the
    mission chunk, the ``lifecycle.*`` vocabulary of every mission,
    stamped with its global mission index.
    """
    check_positive("arrays", arrays, 1)
    check_positive("trials", trials, 1)
    _check_mission(mttf_hours, horizon_hours, lse_rate_per_byte)
    if not 0 < lambda_boost < math.inf:
        raise SimulationError(
            f"lambda_boost must be positive and finite, got {lambda_boost}"
        )
    parts = run_chunks(
        "simulate_fleet", dict(arrays=arrays, trials=trials, jobs=jobs),
        _fleet_chunk,
        _mission_state(layout, disk, sparing, method, batches, telemetry),
        dict(
            mttf_hours=mttf_hours, horizon_hours=horizon_hours,
            lse_rate_per_byte=lse_rate_per_byte, lambda_boost=lambda_boost,
            trials_per_array=trials,
        ),
        arrays * trials, chunk_missions,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return merge_fleet_chunks(
        parts, arrays, trials, horizon_hours, mttf_hours, lambda_boost
    )
