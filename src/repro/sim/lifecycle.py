"""Full-lifecycle Monte-Carlo with *layout-derived* repair times.

The paper's central claim is a coupling: OI-RAID's fast recovery *buys*
its high reliability. :mod:`repro.sim.montecarlo` and
:mod:`repro.sim.markov` cannot test that coupling because both take MTTR
as an exogenous constant — the rebuild simulator and the lifetime models
never talk to each other. This module closes the loop:

* On every failure arrival the current failed-disk set is re-planned
  (:func:`~repro.layouts.recovery.plan_recovery`) and the repair's
  completion time comes from :func:`~repro.sim.rebuild.analytic_rebuild_time`
  or :func:`~repro.sim.rebuild.simulate_rebuild` under the configured
  :class:`~repro.sim.rebuild.DiskModel` and sparing mode. A scheme whose
  geometry rebuilds 5x faster spends 5x less time exposed — measured, not
  asserted.
* Failures may arrive **mid-rebuild**: the enlarged pattern is re-planned
  from scratch and a fresh completion is scheduled (the in-flight rebuild's
  progress is forfeited — conservative, and what a real array does when a
  second failure invalidates the stripes it was reconstructing). All
  currently-failed disks come back together when the (re)planned rebuild
  completes.
* Optional **latent sector errors** during rebuild reads: each completed
  rebuild read ``bytes_read`` bytes; LSEs strike as a Poisson draw with
  mean ``bytes_read * lse_rate_per_byte``, each stranding one random unit
  on a surviving disk. Loss occurs iff the stranded unit(s) plus the
  failed disks' cells are jointly undecodable
  (:func:`~repro.layouts.recovery.cells_recoverable`, the batched peel's
  one-row call on those cells) — a declustered
  layout usually decodes the unit via its *other* stripe, which is exactly
  the protection the two-layer geometry provides.

:func:`derived_mttr` summarizes the same machinery into a single-failure
repair rate so :class:`~repro.sim.markov.MarkovReliabilityModel` and this
simulator consume identical layout-derived μ values, making the Markov
chain and the lifecycle MC directly comparable (E19).

Trials draw from counter-based lanes — one per disk, one auxiliary —
addressed by the run seed and the **global** trial index
(:func:`repro.sim.columnar.lanes`), so every trial is a pure function of
``(seed, trial)`` — reproducible, bit-identical for any worker count and
any chunk size (how :func:`repro.sim.parallel.run_chunks` cuts the run
is a speed, never a sample), and shared verbatim between the two
kernels of :func:`simulate_lifecycle`: ``event`` walks every trial's
event heap, while ``vectorized`` first advances all trials in lockstep
on a columnar failure-clock array and walks only the trials whose
concurrent-failure count ever reaches the danger threshold. Both read the *same* sampled floats, so ``kernel=``
selects a speed, never a result.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, List, NamedTuple, Optional, Set, Tuple

import numpy as _np

from repro.errors import SimulationError
from repro.layouts.base import Cell, Layout
from repro.layouts.recovery import (
    cells_recoverable,
    guaranteed_tolerance,
    is_recoverable,
    lost_cells,
    pattern_entries,
)
from repro.obs.telemetry import Telemetry, ambient
from repro.results import ColumnOf, LossResultBase, register_result
from repro.sim.columnar import (
    MISSION,
    LifecycleTables,
    LockstepScreen,
    TrialStreams,
    lanes,
    resolve_kernel,
)
from repro.sim.markov import MarkovReliabilityModel, model_for_layout
from repro.sim.parallel import DEFAULT_CHUNK_TRIALS, ProgressCallback, run_chunks
from repro.sim.rebuild import DiskModel, RebuildTimer
from repro.util.stats import mean

@register_result
@dataclass(frozen=True)
class LifecycleResult(LossResultBase):
    """Aggregated lifecycle outcome with per-trial instrumentation.

    Attributes:
        trials: simulated missions.
        losses: missions that lost data before the horizon.
        loss_times: data-loss times of the lost missions (hours).
        lse_losses: of those, losses triggered by a latent sector error
            discovered during a rebuild (the rest are pattern losses).
        horizon_hours: mission length.
        failures_per_trial: disk-failure arrivals in each mission.
        repairs_per_trial: completed (group) rebuilds in each mission.
        degraded_hours_per_trial: time each mission spent with at least
            one disk failed, truncated at loss or the horizon.
        peak_failures_per_trial: maximum concurrent failures each mission
            reached.
    """

    trials: int
    losses: int
    loss_times: ColumnOf[float]
    lse_losses: int
    horizon_hours: float
    failures_per_trial: ColumnOf[int]
    repairs_per_trial: ColumnOf[int]
    degraded_hours_per_trial: ColumnOf[float]
    peak_failures_per_trial: ColumnOf[int]

    SUMMARY_KEYS = (
        "trials", "losses", "lse_losses", "prob_loss",
        "mttdl_estimate_hours", "mean_failures", "mean_repairs",
        "degraded_fraction", "max_peak_failures",
    )

    @property
    def mean_failures(self) -> float:
        return self.failures_per_trial.mean()

    @property
    def mean_repairs(self) -> float:
        return self.repairs_per_trial.mean()

    @property
    def mean_degraded_hours(self) -> float:
        return self.degraded_hours_per_trial.mean()

    @property
    def degraded_fraction(self) -> float:
        """Mean fraction of the mission spent in degraded mode."""
        return self.mean_degraded_hours / self.horizon_hours

    @property
    def max_peak_failures(self) -> int:
        """Most concurrent failures seen across all trials."""
        return max(self.peak_failures_per_trial)


def derived_mttr(
    layout: Layout,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
    batches: int = 8,
) -> float:
    """Single-failure MTTR (hours) derived from the layout's own rebuild.

    The mean rebuild time over every single-disk failure, under the given
    disk model and sparing mode. This is the μ fed to
    :class:`~repro.sim.markov.MarkovReliabilityModel` so the Markov chain
    and the lifecycle Monte-Carlo consume the *same* layout-derived repair
    rate instead of an exogenous constant.
    """
    timer = RebuildTimer(layout, disk or DiskModel(), sparing, method, batches)
    return mean(LifecycleTables.build(layout, timer).hours.tolist())


def derived_markov_model(
    layout: Layout,
    mttf_hours: float,
    survivable: Optional[List[float]] = None,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
) -> MarkovReliabilityModel:
    """Markov chain whose repair rate is :func:`derived_mttr` of *layout*.

    *survivable* is the E6 unconditional survivable-fraction series; when
    omitted the guaranteed tolerance is used as a pure threshold.
    """
    if survivable is None:
        survivable = [1.0] * guaranteed_tolerance(layout)
    mttr = derived_mttr(layout, disk, sparing, method)
    return model_for_layout(layout.n_disks, mttf_hours, mttr, survivable)


def _poisson(rng: Any, mean_events: float) -> int:
    """Knuth's algorithm; LSE means per rebuild are small."""
    if mean_events <= 0:
        return 0
    threshold = math.exp(-mean_events)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _random_surviving_cell(
    rng: Any, layout: Layout, failed: Set[int]
) -> Cell:
    while True:
        disk = rng.randrange(layout.n_disks)
        if disk not in failed:
            return (disk, rng.randrange(layout.units_per_disk))


#: Widest default chunk, and the cells (lanes x slots) a walked chunk's
#: sampled plane may hold before cursors extend their own rows instead.
MAX_PLANE_TRIALS = 2048
PLANE_CELLS = MAX_PLANE_TRIALS * 96


def _slot_estimate(
    lanes: int,
    n_disks: int,
    mttf_hours: float,
    horizon_hours: float,
    lse_rate_per_byte: float,
) -> int:
    """Slots per lane of a *lanes*-row plane whose every trial will be walked.

    A disk lane is read once per incident of its disk plus once at the
    start; with latent errors on, the auxiliary lane is read once per
    incident of *any* disk, and the plane is as wide as its longest
    lane. Incident counts are close to Poisson, so the mean plus four
    standard deviations covers nearly every lane and a cursor rarely
    extends its own; :data:`PLANE_CELLS` caps the plane of a long
    mission. Only a sizing hint — lane contents are position-addressed,
    so the estimate can never change results.
    """
    incidents = horizon_hours / mttf_hours
    if lse_rate_per_byte > 0:
        incidents *= n_disks
    reads = 2 + int(incidents + 4.0 * math.sqrt(incidents))
    return max(1, min(reads, PLANE_CELLS // lanes))


def _plane_trials(trials: int) -> int:
    """Default width of a screened chunk.

    A lockstep round costs the same numpy dispatch at any width, so wide
    is fast, and ``trials // 8`` leaves a pool eight chunks to balance.
    Never a function of ``jobs``, so profile documents stay
    jobs-invariant.
    """
    return max(DEFAULT_CHUNK_TRIALS, min(trials // 8, MAX_PLANE_TRIALS))


def _check_mission(
    mttf_hours: float, horizon_hours: float, lse_rate_per_byte: float
) -> None:
    """Reject non-positive or non-finite mission physics (lifecycle, fleet).

    Chained comparisons so that NaN fails too: ``_slot_estimate`` and the
    lane sampler would otherwise die in ``int()``/``log`` far from the
    argument that caused it.
    """
    if not (0 < mttf_hours < math.inf and 0 < horizon_hours < math.inf):
        raise SimulationError("MTTF and horizon must be positive and finite")
    if not 0 <= lse_rate_per_byte < math.inf:
        raise SimulationError("lse_rate_per_byte must be finite and >= 0")


def _lifecycle_trial(
    rng: Any,
    layout: Layout,
    lambd: float,
    horizon_hours: float,
    timer: "RebuildTimer",
    lse_rate_per_byte: float,
    tolerance: int,
    log: Optional[List[tuple]] = None,
) -> Tuple[Optional[float], bool, int, int, float, int]:
    """Walk one mission's event heap; the exact (event) plane.

    *rng* is the trial's lane cursor — its draws are position-addressed
    slots of the trial's lanes (a disk's lifetimes from that disk's lane,
    every uniform from the auxiliary one), which is what lets the
    vectorized kernel replay exactly this walk for any trial it flags as
    dangerous. Patterns of at most *tolerance* failures
    (:func:`guaranteed_tolerance`) survive without asking the decoder.
    A *log* list receives ``(kind, t, *fields)`` per event (:data:`_FIELDS`).
    Returns ``(lost_at, lost_to_lse, failures, repairs, degraded_hours,
    peak_failures)``.
    """
    # Event heap: (time, seq, kind, payload). kind 0 = disk failure
    # (payload: disk id), kind 1 = rebuild completion (payload: epoch;
    # stale epochs are rebuilds invalidated by a later failure).
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for disk_id in range(layout.n_disks):
        t = rng.expovariate(lambd, disk_id)
        heapq.heappush(heap, (t, seq, 0, disk_id))
        seq += 1
    failed: Set[int] = set()
    epoch = 0
    rebuild_bytes = 0.0
    n_failures = 0
    n_repairs = 0
    degraded_hours = 0.0
    degraded_since: Optional[float] = None
    peak = 0
    lost_at: Optional[float] = None
    lost_to_lse = False

    while heap:
        time, _s, kind, payload = heapq.heappop(heap)
        if time > horizon_hours:
            break
        if kind == 0:
            n_failures += 1
            rebuild_in_flight = bool(failed)
            if not failed:
                degraded_since = time
            failed.add(payload)
            peak = max(peak, len(failed))
            if log is not None:
                log.append(("failure", time, payload, len(failed)))
                if rebuild_in_flight:
                    log.append(("repair_abandon", time, epoch))
            if len(failed) > tolerance and not is_recoverable(layout, failed):
                lost_at = time
                if log is not None:
                    log.append(("data_loss", time, "pattern", len(failed)))
                break
            # Re-plan the enlarged pattern; the previous rebuild (if
            # any) is abandoned and its epoch goes stale.
            epoch += 1
            hours, rebuild_bytes = timer(frozenset(failed))
            heapq.heappush(heap, (time + hours, seq, 1, epoch))
            seq += 1
            if log is not None:
                log.append(("repair_start", time, len(failed), hours))
        else:
            if payload != epoch or not failed:
                continue  # invalidated by a later failure
            if lse_rate_per_byte > 0:
                strikes = _poisson(
                    rng, rebuild_bytes * lse_rate_per_byte
                )
                if log is not None:
                    log.append(("lse_check", time, strikes))
                if strikes:
                    stranded = {
                        _random_surviving_cell(rng, layout, failed)
                        for _ in range(strikes)
                    }
                    jointly = stranded | lost_cells(layout, failed)
                    if not cells_recoverable(layout, jointly):
                        lost_at = time
                        lost_to_lse = True
                        if log is not None:
                            log.append(("data_loss", time, "lse", len(failed)))
                        break
            n_repairs += 1
            if log is not None:
                log.append(("repair_complete", time, len(failed)))
            for disk_id in sorted(failed):
                t = time + rng.expovariate(lambd, disk_id)
                heapq.heappush(heap, (t, seq, 0, disk_id))
                seq += 1
            failed.clear()
            if degraded_since is not None:
                degraded_hours += time - degraded_since
                degraded_since = None

    end = lost_at if lost_at is not None else horizon_hours
    if degraded_since is not None and end > degraded_since:
        degraded_hours += end - degraded_since
    return lost_at, lost_to_lse, n_failures, n_repairs, degraded_hours, peak


class MissionColumns(NamedTuple):
    """What :func:`_mission_chunk` reports: one entry per mission of the chunk."""

    lost_at: Any  #: hours; ``inf`` where the mission kept its data
    lost_to_lse: Any  #: whether that loss was a latent sector error's
    failures: Any
    repairs: Any
    peak: Any  #: most concurrent failures
    degraded: Any  #: hours with at least one disk down
    draws: Any  #: lifetimes the mission consumed (``N`` of the likelihood ratio)
    draw_sum: Any  #: their sum (``S``); ``None`` when sampled at the nominal rate
    replays: int  #: missions that went through the event walk


#: The fields a walk event carries after ``(kind, t)``, in record order.
_FIELDS = {
    "failure": ("disk", "failed"), "repair_abandon": ("epoch",),
    "data_loss": ("cause", "failed"), "repair_start": ("failed", "hours"),
    "lse_check": ("strikes",), "repair_complete": ("disks",),
}


def _narrate(tel, start, missions, tally, logs, hours, lse) -> None:
    """Record into *tel* what walking every mission of the chunk would emit.

    Walked missions replay their *logs*; the rest are narrated from the
    screen's *tally*, one disk down at a time, rebuilt in ``hours[disk]``.
    Records — global mission ``start + t``, in mission order — are built
    only for the room left in the log.
    """
    # One empty round more, so an unscreened chunk's empty tally concatenates.
    incidents = [_np.concatenate(c) for c in zip(*tally, [_np.zeros(0, _np.int64)] * 4)]
    settled = _np.flatnonzero(~_np.isin(incidents[0], list(logs)))
    settled = settled[_np.argsort(incidents[0][settled], kind="stable")]
    trial, _, disk, repaired_at = incidents = [c[settled] for c in incidents]
    rows = [row for log in logs.values() for row in log]
    failures, repairs = int(missions.failures.sum()), int(missions.repairs.sum())
    losses = int(_np.count_nonzero(missions.lost_at < math.inf))
    lse_losses = int(_np.count_nonzero(missions.lost_to_lse))
    counts = dict(
        failures=failures, repairs_planned=failures - losses + lse_losses,
        repairs_completed=repairs, losses=losses, lse_losses=lse_losses,
        repairs_abandoned=[row[0] for row in rows].count("repair_abandon"),
    )
    if lse:
        strikes = sum(row[2] for row in rows if row[0] == "lse_check")
        counts.update(lse_checks=repairs + lse_losses, lse_strikes=strikes)
    for name, amount in counts.items():
        if amount:
            tel.count(f"lifecycle.{name}", amount)
    tel.observe_many("lifecycle.rebuild_hours", _np.concatenate((
        hours[disk], [row[3] for row in rows if row[0] == "repair_start"],
    )))

    log = tel.events
    room = log.max_events - len(log.records)
    completed = int(_np.count_nonzero(~_np.isnan(repaired_at)))
    log.dropped += max(0, len(rows) + 2 * len(trial) + (1 + lse) * completed - room)
    # An incident is two records or more: the first *room* fill the log.
    hours, by_trial = hours.tolist(), dict(logs)
    for t, failed, d, repaired in zip(*(c[:room].tolist() for c in incidents)):
        out = by_trial.setdefault(t, [])
        out += [("failure", failed, d, 1), ("repair_start", failed, 1, hours[d])]
        if repaired == repaired:  # NaN where the horizon cut the rebuild
            out += [("lse_check", repaired, 0)] * lse + [("repair_complete", repaired, 1)]
    log.records.extend(islice((
        {"kind": kind, "t": time, "trial": start + t, **dict(zip(_FIELDS[kind], fields))}
        for t in sorted(by_trial) for kind, time, *fields in by_trial[t]
    ), room))


def _mission_state(
    layout: Layout,
    disk: Optional[DiskModel],
    sparing: str,
    method: str,
    batches: int,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Layout, RebuildTimer, LifecycleTables]:
    """The broadcast ``(layout, timer, tables)`` of a lifecycle or fleet run.

    The layout (its cell indexes and pattern memo), the run's rebuild
    timer and the per-disk rebuild columns are unpickled once per
    worker, and the memo then accumulates across every chunk the worker
    runs. The columns are built for either kernel, so the parent's
    rebuild calls never depend on it; building them is billed to the
    ``plan`` phase of *telemetry* (``None``: the ambient one).
    """
    timer = RebuildTimer(layout, disk or DiskModel(), sparing, method, batches)
    tel = telemetry if telemetry is not None else ambient()
    with tel.phase("plan"):
        tables = LifecycleTables.build(layout, timer)
    return layout, timer, tables


def _plan_ahead(layout: Layout, overlaps) -> None:
    """Decide and plan, by one ``pattern_entries`` call, the failed sets
    of *overlaps* the layout's memo lacks: :meth:`LockstepScreen.overlaps`'
    ``(first, second)`` disk columns, each flagged mission's first
    two-disk set. The memo gains only what the walk would find on demand.
    """
    # A set of memo keys, not np.unique: its first call in a process
    # costs ~1 MiB of peak RSS.
    first, second = (column.tolist() for column in overlaps)
    pairs = {(a, b) if a < b else (b, a) for a, b in zip(first, second)}
    pattern_entries(layout, sorted(pairs - layout.patterns.keys()))


def _mission_chunk(
    state, spec, tel, *, screened, lambd, nominal_lambd, horizon_hours,
    lse_rate_per_byte,
) -> MissionColumns:
    """Screen and walk one chunk of missions: the body lifecycle and fleet share.

    Draw lanes are ``lanes(spec.seed, MISSION, spec.start, …)`` — the run
    seed and the global mission index (fleet mission *m* **is** lifecycle
    trial *m*), never the chunk's index or size, which would tie sampled
    values to the chunk layout. Lifetimes are sampled at rate *lambd*;
    when that is not *nominal_lambd* the chunk also keeps each mission's
    ``draw_sum`` for the caller's likelihood ratio. *screened* runs the
    lockstep screen, plans the failed sets its overlaps name as one batch
    (:func:`_plan_ahead`, billed to ``plan``) and walks only the missions
    it flags; otherwise every mission is walked, from a plane sized by
    :func:`_slot_estimate`, and plans on demand. The
    walk (:func:`_lifecycle_trial`) reads the floats the screen read, so
    *screened* never changes a column. A collecting *tel* is narrated
    from the screen's tally and the walks' logs (:func:`_narrate`).
    """
    layout, timer, tables = state
    count, n = spec.size, layout.n_disks
    tolerance = guaranteed_tolerance(layout)
    weighted = lambd != nominal_lambd

    with tel.phase("sample"):
        mission_lanes = lanes(spec.seed, MISSION, spec.start, count, n + 1)
        if screened:
            screen = LockstepScreen(
                layout, tables, mission_lanes, lambd, horizon_hours,
                lse_rate_per_byte, tolerance, weighted, tel.enabled,
            )
            streams = screen.streams
        else:
            streams = TrialStreams(
                mission_lanes, lambd,
                _slot_estimate(
                    mission_lanes.size, n, 1.0 / lambd, horizon_hours,
                    lse_rate_per_byte,
                ),
            )

    if screened:
        with tel.phase("screen"):
            screen.rounds()
        with tel.phase("plan"):
            _plan_ahead(layout, screen.overlaps())
        failures, repairs, peak = screen.n_failures, screen.n_repairs, screen.peak
        degraded, draw_sum = screen.degraded, screen.draw_sum
        # A screened mission consumed its n first lifetimes plus one
        # redraw per completed repair; walked ones are recounted below.
        draws = n + repairs
        walk = _np.flatnonzero(screen.dangerous).tolist()
    else:
        failures, repairs, peak, draws = _np.zeros((4, count), dtype=_np.int64)
        degraded = _np.zeros(count)
        draw_sum = _np.zeros(count) if weighted else None
        walk = range(count)

    lost_at = _np.full(count, math.inf)
    lost_to_lse = _np.zeros(count, dtype=bool)
    logs = {t: [] for t in walk} if tel.enabled else {}
    with tel.phase("replay"):
        for t in walk:
            cursor = streams.cursor(t, tel)
            (
                at, lost_to_lse[t], failures[t], repairs[t], degraded[t],
                peak[t],
            ) = _lifecycle_trial(
                cursor, layout, lambd, horizon_hours, timer,
                lse_rate_per_byte, tolerance, logs.get(t),
            )
            if at is not None:
                lost_at[t] = at
            draws[t] = cursor.draws
            if weighted:
                draw_sum[t] = cursor.draw_sum
        missions = MissionColumns(
            lost_at, lost_to_lse, failures, repairs, peak, degraded, draws,
            draw_sum, len(walk),
        )
        if tel.enabled:
            _narrate(tel, spec.start, missions, screen.tally if screened else [], logs,
                     tables.hours, lse_rate_per_byte > 0)
    return missions


def _lifecycle_chunk(
    state, spec, tel, *, screened, mttf_hours, horizon_hours,
    lse_rate_per_byte,
) -> LifecycleResult:
    """One chunk of trials: :func:`_mission_chunk` at the nominal rate,
    plus the per-trial histograms of a collecting *tel*."""
    trials = spec.size
    lambd = 1.0 / mttf_hours
    missions = _mission_chunk(
        state, spec, tel, screened=screened,
        lambd=lambd, nominal_lambd=lambd, horizon_hours=horizon_hours,
        lse_rate_per_byte=lse_rate_per_byte,
    )
    loss_times = missions.lost_at[missions.lost_at < math.inf]
    if tel.profiling:
        tel.tally("lifecycle.trials", trials)
        tel.tally("lifecycle.replays", missions.replays)
        tel.record("lifecycle.dangerous_fraction", missions.replays / trials)
    if tel.enabled:
        tel.count("lifecycle.trials", trials)
        for name, column in (
            ("lifecycle.degraded_hours", missions.degraded),
            ("lifecycle.peak_failures", missions.peak),
            ("lifecycle.loss_time_hours", loss_times),
        ):
            tel.observe_many(name, column)
    with tel.phase("merge"):
        return LifecycleResult(
            trials=trials,
            losses=len(loss_times),
            loss_times=loss_times,
            lse_losses=int(_np.count_nonzero(missions.lost_to_lse)),
            horizon_hours=horizon_hours,
            failures_per_trial=missions.failures,
            repairs_per_trial=missions.repairs,
            degraded_hours_per_trial=missions.degraded,
            peak_failures_per_trial=missions.peak,
        )


def simulate_lifecycle(
    layout: Layout,
    mttf_hours: float,
    horizon_hours: float,
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    method: str = "analytic",
    batches: int = 8,
    lse_rate_per_byte: float = 0.0,
    trials: int = 100,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    kernel: str = "auto",
    *,
    chunk_trials: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> LifecycleResult:
    """Simulate *trials* missions with layout-derived repair durations.

    Each mission: disks fail as independent exponentials (rate 1/MTTF per
    online disk). On a failure arrival the enlarged failed set is checked
    against the exact peeling oracle — undecodable means data loss — then
    re-planned, and one group rebuild of the whole set is scheduled to
    complete after its layout-derived rebuild time (any in-flight rebuild
    is abandoned). When the rebuild completes, optional latent sector
    errors are drawn against its read volume; an LSE whose stranded unit
    is undecodable alongside the failed disks is a loss. Otherwise all
    failed disks return to service and draw fresh lifetimes.

    Missions run in chunks of *chunk_trials*
    (:func:`~repro.sim.parallel.run_chunks`) on draw lanes keyed by the
    global trial (:func:`_mission_chunk`), so the result depends only
    on ``(trials, seed)`` — never on *jobs*, *kernel* or *chunk_trials*,
    which is a pure speed argument as it is for serve and fleet. The
    default (``None``) is wide for the ``vectorized`` kernel
    (:func:`_plane_trials`: up to 2048 trials) and 256 for ``event``,
    which walks every trial. Rebuild times are memoized per pattern on
    the layout (:class:`~repro.sim.rebuild.RebuildTimer`; pure functions
    of the pattern and the disk model, so the memo never affects
    results), so later runs on the same layout object plan nothing twice.

    *kernel* (:data:`~repro.sim.columnar.KERNELS`) decides which trials
    reach the exact walk (:func:`_lifecycle_trial`), never the answer.
    ``vectorized`` first advances all trials of a chunk together through
    the :class:`~repro.sim.columnar.LockstepScreen`, which settles
    clean failure incidents columnar and flags the trials whose incident
    is overlapped by a second failure or struck by a latent sector error;
    only those are walked — *in full*, re-planning via ``plan_recovery``,
    LSE checks, mid-rebuild restarts — from their own draw lane.
    ``event`` is the same function with an empty screen: every trial is
    walked. Clean trials read the very same sampled floats the walk
    would have consumed, so the whole result is bit-identical across
    kernels; only the work to produce it changes.

    *telemetry* (default: the ambient telemetry, a no-op unless a caller
    installed a collecting one) receives counters and histograms of
    sim-domain quantities plus the structured event log — failure
    arrivals, repair start/abandon/complete, latent-error checks, data
    loss — stamped with simulated hours and the global trial. A
    collecting run takes the plain run's path and is narrated
    (:func:`_narrate`): the registry and log are bit-identical for any
    *kernel*, ``jobs`` and *chunk_trials*. The planner and rebuild memo a
    chunk calls record nothing into it.
    """
    screened = resolve_kernel(kernel) == "vectorized"
    _check_mission(mttf_hours, horizon_hours, lse_rate_per_byte)
    if chunk_trials is None:  # width buys a walk nothing
        chunk_trials = _plane_trials(trials) if screened else DEFAULT_CHUNK_TRIALS
    parts = run_chunks(
        "simulate_lifecycle", dict(trials=trials, jobs=jobs),
        _lifecycle_chunk,
        _mission_state(layout, disk, sparing, method, batches, telemetry),
        dict(
            screened=screened, mttf_hours=mttf_hours,
            horizon_hours=horizon_hours, lse_rate_per_byte=lse_rate_per_byte,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return LifecycleResult.merged(parts)
