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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as _np

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import guaranteed_tolerance, recoverable_many
from repro.obs.telemetry import Telemetry
from repro.sim.columnar import (
    derive_chunk_seed,
    exceedances as _exceedances,
    resolve_kernel,
    sample_renewal_events as _sample_lifetime_events,
)
from repro.sim.parallel import (
    DEFAULT_CHUNK_TRIALS,
    ProgressCallback,
    run_chunks,
)
from repro.results import ColumnOf, LossResultBase, register_result


@register_result
@dataclass(frozen=True)
class LifetimeResult(LossResultBase):
    """Aggregated Monte-Carlo outcome.

    Attributes:
        trials: simulated missions.
        losses: missions that lost data before the horizon.
        loss_times: data-loss times of the lost missions (hours).
        horizon_hours: mission length.
    """

    trials: int
    losses: int
    loss_times: ColumnOf[float]
    horizon_hours: float

    SUMMARY_KEYS = (
        "trials", "losses", "prob_loss", "mttdl_estimate_hours",
        "horizon_hours",
    )


def _first_losses(disks, starts, events, event_trials, layout, verdicts):
    """Loss events of the candidate *events*' trials, and the sets asked.

    A failed set is a row of ``ceil(n_disks / 64)`` uint64 words: a prefix
    XOR scan of ``1 << disk`` over the chunk (a disk's events alternate
    failure/repair), XOR the scan just before the trial. Each distinct set
    is asked once (*verdicts* keeps the answers by mask bytes) and only at
    a trial's frontier, its first candidate not known to survive, so
    nothing past a loss is peeled: the loss is the first frontier lost.
    A frontier round's new sets of at most :func:`guaranteed_tolerance`
    failures survive; the rest go to one :func:`recoverable_many` call.
    Loss events come back in trial order, one per lost trial.
    """
    n_disks, tolerance = layout.n_disks, guaranteed_tolerance(layout)
    scan = _np.zeros((len(disks) + 1, -(-n_disks // 64)), dtype=_np.uint64)
    scan[_np.arange(1, len(scan)), disks >> 6] = _np.left_shift(
        _np.uint64(1), (disks & 63).astype(_np.uint64)
    )
    _np.bitwise_xor.accumulate(scan, axis=0, out=scan)
    masks = scan[events + 1] ^ scan[starts[event_trials]]
    patterns, which = _np.unique(masks, axis=0, return_inverse=True)
    which = which.reshape(-1)
    down = _np.unpackbits(
        patterns.astype("<u8").view(_np.uint8), axis=1, bitorder="little"
    ).view(bool)[:, :n_disks]
    keys = [pattern.tobytes() for pattern in patterns]
    # 1 survives, 0 lost, -1 not asked yet.
    verdict = _np.array([verdicts.get(key, -1) for key in keys], _np.int8)
    known = len(verdicts)
    while True:
        open_ = _np.flatnonzero(verdict[which] != 1)
        _, first = _np.unique(event_trials[open_], return_index=True)
        frontier = open_[first]
        wanted = _np.bincount(which[frontier], minlength=len(keys)) > 0
        ask = _np.flatnonzero(wanted & (verdict < 0))
        if not len(ask):
            return events[frontier], len(verdicts) - known
        rows = down[ask]
        answers = rows.sum(axis=1) <= tolerance
        answers[~answers] = recoverable_many(layout, rows[~answers])
        answers = answers.tolist()
        verdict[ask] = answers
        verdicts.update(zip([keys[row] for row in ask.tolist()], answers))


def _narrate(tel, first, times, kinds, disks, counts, starts, lost):
    """Record into *tel* what walking each trial up to its *lost* event would.

    The ``mc.*`` counters, ``mc.loss_time_hours``, and ``failure`` /
    ``repair_complete`` / ``data_loss`` records in trial order (global
    ``first + i``), built only for the room left in the log (the rest dropped).
    """
    trial_of = _np.repeat(_np.arange(len(counts)), counts)
    ends = starts + counts
    ends[trial_of[lost]] = lost + 1
    seq = _np.flatnonzero(_np.arange(len(kinds)) < _np.repeat(ends, counts))
    running = _np.concatenate(([0], _np.cumsum(_np.where(kinds == 0, 1, -1))))
    at = _np.searchsorted(seq, lost, side="right")
    order = _np.insert(seq, at, lost)  # a data loss follows its failure
    code = _np.insert(kinds[seq], at, 2)
    log = tel.events
    room = log.max_events - len(log.records)
    log.dropped += max(0, len(order) - room)
    order, trial = order[:room], trial_of[order[:room]]
    log.records.extend(
        {"kind": "failure", "t": t, "trial": i, "disk": d, "failed": f}
        if c == 0 else
        {"kind": "repair_complete", "t": t, "trial": i, "disks": 1}
        if c == 1 else
        {"kind": "data_loss", "t": t, "trial": i, "cause": "pattern",
         "failed": f}
        for c, t, i, d, f in zip(
            code[:room].tolist(), times[order].tolist(), (first + trial).tolist(),
            disks[order].tolist(),
            (running[order + 1] - running[starts[trial]]).tolist(),
        )
    )
    names = ("mc.failures", "mc.repairs", "mc.losses")
    for name, amount in zip(names, _np.bincount(code, minlength=3).tolist()):
        if amount:
            tel.count(name, amount)
    tel.count("mc.trials", len(counts))
    tel.observe_many("mc.loss_time_hours", times[lost])


def _lifetime_chunk(
    state, spec, tel, *, screened, mttf_hours, mttr_hours, horizon_hours,
) -> LifetimeResult:
    """Sample and replay one chunk; *state* is ``(layout, verdicts)``.

    Arrivals come from ``default_rng(derive_chunk_seed(spec.seed,
    spec.index))``, a per-chunk stream (chunk 0 draws from the run seed).
    :func:`_first_losses` decides the arrivals past the layout's
    :func:`guaranteed_tolerance` when *screened* (``vectorized``), every
    failure arrival otherwise, and a collecting *tel* is narrated from the
    plane (:func:`_narrate`).
    """
    layout, verdicts = state
    trials = spec.size
    rng = _np.random.default_rng(derive_chunk_seed(spec.seed, spec.index))

    with tel.phase("sample"):
        times, kinds, disks, counts, starts = _sample_lifetime_events(
            rng, layout.n_disks, mttf_hours, mttr_hours, horizon_hours, trials
        )

    if screened:
        with tel.phase("screen"):
            events, event_trials = _exceedances(
                kinds, counts, starts, guaranteed_tolerance(layout)
            )
            replays = int(_np.count_nonzero(_np.bincount(event_trials)))
    else:
        events, event_trials = _exceedances(kinds, counts, starts, 0)
        replays = trials
    with tel.phase("replay"):
        lost, peels = _first_losses(
            disks, starts, events, event_trials, layout, verdicts
        )
        if tel.enabled:
            _narrate(tel, spec.start, times, kinds, disks, counts, starts, lost)
    if tel.profiling:
        tel.tally("mc.oracle_calls", peels)
        tel.tally("mc.trials", trials)
        tel.tally("mc.replays", replays)
        tel.record("mc.suspect_fraction", replays / trials)

    return LifetimeResult(
        trials=trials,
        losses=len(lost),
        loss_times=times[lost],
        horizon_hours=horizon_hours,
    )


def simulate_lifetimes(
    layout: Layout,
    mttf_hours: float,
    mttr_hours: float,
    horizon_hours: float,
    trials: int = 1000,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    kernel: str = "auto",
    *,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> LifetimeResult:
    """Simulate *trials* missions; each ends at data loss or the horizon.

    Failures are exponential per online disk; repairs are exponential per
    failed disk (parallel repair — matching the Markov chain's ``j * μ``
    repair rate). Missions run in chunks of *chunk_trials*
    (:func:`~repro.sim.parallel.run_chunks`), each sampling its own
    plane (:func:`_lifetime_chunk`), so the result is a deterministic
    function of ``(trials, seed, chunk_trials)`` — never of *jobs* or
    *kernel*. *layout* is broadcast to the persistent pool once, not
    shipped per chunk.

    *kernel* (:data:`~repro.sim.columnar.KERNELS`) decides how the plane
    is replayed, never the answer; neither walks a trial.
    :func:`_first_losses` decides candidate failure arrivals from a prefix
    XOR scan, asking the layout's peel once per distinct failed set past
    its :func:`guaranteed_tolerance` — one :func:`recoverable_many` matrix
    per frontier round — the answer of a walk that asks on every failure
    arrival. ``event`` makes every failure arrival a candidate;
    ``vectorized`` first screens for the arrivals past the guaranteed
    tolerance, the only instants a loss can happen. Verdicts are memoised
    for the call (per worker when ``jobs > 1``, in the broadcast state
    beside the layout), so the profile's ``mc.oracle_calls`` is exact at
    ``jobs=1`` and depends on how chunks shared workers above.

    *telemetry* (default: ambient, a no-op unless a collecting instance
    is installed) receives sim-domain counters and failure / repair /
    data-loss events with simulated-hour stamps, narrated from the plane
    the kernel replayed (:func:`_narrate`): collecting changes what a run
    records, never how it runs, and the registry is identical across
    kernels, *jobs* and profiling. *telemetry* and *progress* follow
    :func:`~repro.sim.parallel.run_chunks`' contract.
    """
    screened = resolve_kernel(kernel) == "vectorized"
    if not all(
        0 < hours < math.inf
        for hours in (mttf_hours, mttr_hours, horizon_hours)
    ):
        raise SimulationError("rates and horizon must be positive and finite")
    parts = run_chunks(
        "simulate_lifetimes", dict(trials=trials, jobs=jobs),
        _lifetime_chunk, (layout, {}),
        dict(
            screened=screened, mttf_hours=mttf_hours, mttr_hours=mttr_hours,
            horizon_hours=horizon_hours,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return LifetimeResult.merged(parts)
