"""Online serving: foreground requests contending with an in-flight rebuild.

The paper's headline claim is operational, not combinatorial: OI-RAID's
declustered rebuild keeps *user* latency low while recovery runs. Before
this module that contention loop was modeled three separate ways (E9's
foreground-fraction rebuild sweep, E12's live-array replay, E17's
degraded-read latency sim). ``repro.sim.serve`` is the one production-
shaped service model behind all of them:

* Every disk is a FIFO server (:class:`~repro.sim.engine.FcfsServer`)
  with the seek+transfer service model of
  :class:`~repro.sim.latency.LatencyModel`.
* Foreground :class:`~repro.workloads.generators.Request` streams arrive
  via an open-loop Poisson process or a closed-loop client population
  (:mod:`repro.workloads.arrivals`). Healthy reads hit the unit's home
  disk; a read whose cell is lost fans out to the repair sources of the
  failure's recovery plan and completes when the slowest source
  responds; writes read-modify-write the home disk plus every containing
  stripe's parity disks.
* Rebuild traffic is the recovery plan's steps (tiled ``rebuild_batches``
  times), injected by a pluggable :class:`ThrottlePolicy`:
  :class:`FixedRateThrottle` dispatches repair ops at a constant rate,
  :class:`IdleSlotThrottle` only when the op's source disks are idle,
  and :class:`AdaptiveThrottle` runs an AIMD loop guarded by a
  foreground-p99 SLO — back off when users hurt, speed up when they
  don't. Sweeping policies traces the rebuild-time-vs-user-latency
  frontier the paper argues OI-RAID wins.

Like the lifecycle simulator, serving ships **two kernels over one
sampling plane** (``kernel='auto'|'vectorized'|'event'``). Every trial's
workload — arrival gaps, unit addresses, write coin-flips — is drawn
from purpose-keyed :class:`~repro.sim.columnar.TrialStreams` lanes, so
which kernel consumes the trace can never change a float of it:

* the **event kernel** walks the whole trace through the discrete-event
  heap (:class:`~repro.sim.engine.Simulator`): arrivals fed from the
  sorted trace, one pop per leg, one ``pump`` per throttle decision;
* the **vectorized kernel** walks only what decides. Under an open loop
  and a throttle that does not observe latencies
  (:func:`serve_batch_supported`) the decisions are the rebuild ops'
  dispatches, so :func:`_serve_event_trial` stops once the last op has
  queued its writes — at once when there is no rebuild traffic — and
  hands the disks' ``busy_until`` to :func:`_sweep_batch`, which runs
  every trial's remaining requests as per-disk Lindley recursions across
  ``(trials × disks)`` queue lanes: the same floats, 5× faster on E9's
  throttled rebuild and an order of magnitude on a clean trace. Closed
  loops and latency-observing throttles decide at every completion, so
  their trials are walked to the end *on the same sampled lanes*
  (screen-then-replay, as in :mod:`repro.sim.lifecycle`) — the flag is a
  pure speed knob.

Results are :class:`ServeResult` (pooled latencies + I/O accounting +
rebuild completion), merged in chunk order so :func:`simulate_serve` is
bit-identical for any worker count — the same contract as every other
simulator here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.errors import ParameterError, SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import (
    degraded_read_sources,
    parity_disk_table,
    plan_recovery,
)
from repro.obs.metrics import Histogram
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.results import ColumnOf, ResultBase, register_result
from repro.sim.columnar import (
    SERVE,
    TrialStreams,
    lanes,
    resolve_kernel,
)
from repro.sim.engine import FcfsServer, Simulator
from repro.sim.latency import LatencyModel
from repro.sim.parallel import ProgressCallback, run_chunks
from repro.util.checks import check_finite, check_positive, check_probability
from repro.workloads.arrivals import ArrivalProcess, ClosedLoop, OpenLoop
from repro.workloads.generators import Request, WorkloadSpec

class ThrottlePolicy:
    """When may the next rebuild op be dispatched?

    The serving simulator drives one policy instance per run: it calls
    :meth:`reset` at trial start, :meth:`observe` with every completed
    foreground request's latency, and :meth:`next_delay` whenever it
    wants to dispatch the next rebuild op. Policies are plain mutable
    dataclasses (picklable; state rebuilt by ``reset``) so one instance
    can parameterize a whole parallel sweep.
    """

    def reset(self) -> None:
        """Clear per-trial state (called at the start of every trial)."""

    def observe(self, latency_ms: float) -> None:
        """Feed one completed foreground request's latency (ms)."""

    def next_delay(self, now_s: float, idle: bool) -> Optional[float]:
        """``None`` to dispatch now, else seconds to wait and re-ask.

        *idle* reports whether every source disk of the pending op is
        currently idle (its queue drained).
        """
        raise NotImplementedError


@dataclass
class FixedRateThrottle(ThrottlePolicy):
    """Dispatch rebuild ops at a constant ``ops_per_s``, come what may."""

    ops_per_s: float = 100.0

    def __post_init__(self) -> None:
        if self.ops_per_s != math.inf:  # inf is a rate: no throttling at all
            check_finite("ops_per_s", self.ops_per_s, error=SimulationError)
        self._next = 0.0

    def reset(self) -> None:
        """Restart the dispatch clock."""
        self._next = 0.0

    def next_delay(self, now_s: float, idle: bool) -> Optional[float]:
        """Dispatch on the fixed-rate grid, ignoring foreground state."""
        if now_s + 1e-12 >= self._next:
            self._next = max(now_s, self._next) + 1.0 / self.ops_per_s
            return None
        return self._next - now_s


@dataclass
class IdleSlotThrottle(ThrottlePolicy):
    """Dispatch only when the op's source disks are idle; poll otherwise.

    The politest policy: rebuild consumes only slack, so foreground
    latency stays near healthy — at the price of rebuild progress
    stalling under sustained load.
    """

    poll_s: float = 0.002

    def __post_init__(self) -> None:
        check_finite("poll_s", self.poll_s, error=SimulationError)

    def next_delay(self, now_s: float, idle: bool) -> Optional[float]:
        """Dispatch iff the sources are idle, else re-check after poll_s."""
        return None if idle else self.poll_s


@dataclass
class AdaptiveThrottle(ThrottlePolicy):
    """SLO-guarded AIMD: back off when foreground p99 exceeds the target.

    Every ``window`` completed foreground requests, the windowed p99 is
    compared to ``target_p99_ms``: over target multiplies the dispatch
    rate by ``backoff``, under target by ``increase`` (clamped to
    ``[min_ops_per_s, max_ops_per_s]``). Starts at the maximum rate, so
    an unloaded array rebuilds flat out and a loaded one converges to
    the fastest rate its users tolerate.

    The window is a streaming geometric-bucket
    :class:`~repro.obs.metrics.Histogram`, so :meth:`observe` is O(1)
    per request (the old list-accumulate-then-sort recomputation was
    O(window log window) at every boundary and held the whole window in
    memory); the p99 read at a window boundary is bucket-interpolated
    with ~half-bucket (<5 %) resolution, which is well inside the AIMD
    loop's own granularity.
    """

    target_p99_ms: float = 20.0
    max_ops_per_s: float = 2000.0
    min_ops_per_s: float = 5.0
    window: int = 64
    backoff: float = 0.5
    increase: float = 1.25
    #: ``(seconds, ops_per_s)`` at every rate change, for inspection.
    rate_trace: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_finite("target_p99_ms", self.target_p99_ms, error=SimulationError)
        check_finite("max_ops_per_s", self.max_ops_per_s, error=SimulationError)
        if not 0 < self.min_ops_per_s <= self.max_ops_per_s:
            raise SimulationError(
                "need 0 < min_ops_per_s <= max_ops_per_s"
            )
        if self.window < 1:
            raise SimulationError(f"window must be >= 1, got {self.window}")
        if not (0 < self.backoff < 1 and 1 < self.increase < math.inf):
            raise SimulationError(
                "need 0 < backoff < 1 and increase > 1"
            )
        self.reset()

    def reset(self) -> None:
        """Restart at the maximum rate with an empty window."""
        self._rate = self.max_ops_per_s
        self._next = 0.0
        self._hist = Histogram()
        self._now = 0.0
        self.rate_trace = [(0.0, self._rate)]

    @property
    def ops_per_s(self) -> float:
        """The current dispatch rate."""
        return self._rate

    def observe(self, latency_ms: float) -> None:
        """Accumulate a foreground latency; adapt at window boundaries."""
        self._hist.observe(latency_ms)
        if self._hist.count < self.window:
            return
        p99 = self._hist.quantile(0.99)
        self._hist = Histogram()
        if p99 > self.target_p99_ms:
            new_rate = max(self.min_ops_per_s, self._rate * self.backoff)
        else:
            new_rate = min(self.max_ops_per_s, self._rate * self.increase)
        if new_rate != self._rate:
            self._rate = new_rate
            self.rate_trace.append((self._now, new_rate))

    def next_delay(self, now_s: float, idle: bool) -> Optional[float]:
        """Dispatch on the current (adapting) rate grid."""
        self._now = now_s
        if now_s + 1e-12 >= self._next:
            self._next = max(now_s, self._next) + 1.0 / self._rate
            return None
        return self._next - now_s


@register_result
@dataclass(frozen=True)
class ServeResult(ResultBase):
    """Outcome of a serving simulation (possibly pooled over trials).

    Latencies are pooled in trial (chunk) order, so merged results are
    bit-identical for any worker count. Per-trial columns keep the
    tradeoff curve per replication available after merging.
    """

    trials: int
    requests: int
    reads: int
    writes: int
    degraded_reads: int
    degraded_writes: int
    device_reads: int
    device_writes: int
    latencies_ms: ColumnOf[float]
    rebuild_ops: int
    rebuild_ops_done: int
    rebuild_seconds_per_trial: ColumnOf[float]
    foreground_seconds_per_trial: ColumnOf[float]

    SUMMARY_KEYS = (
        "trials", "requests", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        "degraded_fraction", "read_amplification", "rebuild_seconds",
        "rebuild_complete",
    )

    @property
    def mean_ms(self) -> float:
        """Mean foreground latency (ms)."""
        return self.latencies_ms.mean()

    @property
    def p50_ms(self) -> float:
        """Median foreground latency (ms)."""
        return self.latencies_ms.percentile(50)

    @property
    def p95_ms(self) -> float:
        """95th-percentile foreground latency (ms)."""
        return self.latencies_ms.percentile(95)

    @property
    def p99_ms(self) -> float:
        """99th-percentile foreground latency (ms)."""
        return self.latencies_ms.percentile(99)

    @property
    def max_ms(self) -> float:
        """Worst foreground latency (ms)."""
        return self.latencies_ms.percentile(100)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of requests that touched a lost cell."""
        return (self.degraded_reads + self.degraded_writes) / self.requests

    @property
    def read_amplification(self) -> float:
        """Device reads per user read (1.0 when healthy)."""
        if self.reads == 0:
            return 0.0
        return self.device_reads / self.reads

    @property
    def rebuild_seconds(self) -> float:
        """Mean per-trial rebuild completion time (``nan`` if no rebuild)."""
        if not self.rebuild_seconds_per_trial:
            return math.nan
        return self.rebuild_seconds_per_trial.mean()

    @property
    def rebuild_complete(self) -> bool:
        """Did every injected rebuild op finish in every trial?"""
        return self.rebuild_ops_done == self.rebuild_ops


class _RebuildOp:
    """One injectable unit of rebuild work: parallel reads, then writes."""

    __slots__ = ("reads", "writes")

    def __init__(self, reads: Tuple[int, ...], writes: Tuple[int, ...]) -> None:
        self.reads = reads
        self.writes = writes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _RebuildOp):
            return NotImplemented
        return self.reads == other.reads and self.writes == other.writes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_RebuildOp(reads={self.reads}, writes={self.writes})"


class _Join:
    """Barrier for a fan-out: fires *done* when the last leg completes."""

    __slots__ = ("remaining", "done")

    def __init__(self, remaining: int, done) -> None:
        self.remaining = remaining
        self.done = done

    def one_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.done()


def _rebuild_ops(
    plan, survivors: Sequence[int], sparing: str, batches: int
) -> List[_RebuildOp]:
    """Flatten the plan's steps x batches into dispatchable ops.

    Distributed sparing round-robins spare writes over the survivors
    (consuming the current index first, matching
    :func:`~repro.sim.rebuild.simulate_rebuild`); dedicated sparing
    writes each regenerated unit to its home (replacement) disk.
    """
    if sparing not in ("distributed", "dedicated"):
        raise SimulationError(f"unknown sparing mode {sparing!r}")
    ops: List[_RebuildOp] = []
    rr = 0
    for _batch in range(batches):
        for step in plan.steps:
            writes = []
            for target in step.targets:
                if sparing == "dedicated":
                    writes.append(target[0])
                else:
                    writes.append(survivors[rr])
                    rr = (rr + 1) % len(survivors)
            ops.append(
                _RebuildOp(
                    reads=tuple(c[0] for c in step.reads),
                    writes=tuple(writes),
                )
            )
    return ops


@dataclass(frozen=True)
class ServeTables:
    """Precomputed routing for one ``(layout, failure, sparing, batches)``.

    Everything :func:`simulate_serve` derives from the scenario alone —
    the recovery plan's degraded-read sources, per-unit read and write
    fan-outs, the survivor list, and the flattened rebuild ops — hoisted
    out of the trial loop. A multi-trial sweep (and the parallel
    runner's broadcast state) pays for recovery planning once instead of
    once per trial. Routes are indexed by user unit; the tuples preserve
    the exact fan-out order of a direct computation, so supplying tables
    never changes a result bit.
    """

    layout_name: str
    n_units: int
    failed: Tuple[int, ...]
    survivors: Tuple[int, ...]
    sparing: str
    rebuild_batches: int
    read_routes: Tuple[Tuple[int, ...], ...]
    read_degraded: Tuple[bool, ...]
    write_routes: Tuple[Tuple[int, ...], ...]
    write_degraded: Tuple[bool, ...]
    rebuild_ops: Tuple[_RebuildOp, ...]


def build_serve_tables(
    layout: Layout,
    failed_disks: Sequence[int] = (),
    sparing: str = "distributed",
    rebuild_batches: int = 1,
) -> ServeTables:
    """Precompute :class:`ServeTables` for a failure scenario.

    Raises :class:`~repro.errors.DataLossError` when *failed_disks* is
    not survivable, and :class:`~repro.errors.SimulationError` on
    invalid disks, sparing mode, or batch count.
    """
    if rebuild_batches < 1:
        raise SimulationError(
            f"rebuild_batches must be >= 1, got {rebuild_batches}"
        )
    if sparing not in ("distributed", "dedicated"):
        raise SimulationError(f"unknown sparing mode {sparing!r}")
    failed = tuple(sorted(set(failed_disks)))
    for disk in failed:
        if not 0 <= disk < layout.n_disks:
            raise SimulationError(f"no such disk {disk}")
    survivors = tuple(
        d for d in range(layout.n_disks) if d not in failed
    )
    plan = plan_recovery(layout, failed) if failed else None
    degraded = degraded_read_sources(plan) if plan is not None else {}
    parity = parity_disk_table(layout)
    failed_set = set(failed)

    read_routes: List[Tuple[int, ...]] = []
    read_degraded: List[bool] = []
    write_routes: List[Tuple[int, ...]] = []
    write_degraded: List[bool] = []
    for cell in layout.data_cells:
        if cell in degraded:
            read_routes.append(degraded[cell] or (survivors[0],))
            read_degraded.append(True)
        else:
            read_routes.append((cell[0],))
            read_degraded.append(False)
        targets = [d for d in parity.get(cell, ()) if d not in failed_set]
        if cell[0] not in failed_set:
            targets.insert(0, cell[0])
            write_degraded.append(False)
        else:
            write_degraded.append(True)
        if not targets:
            targets = [survivors[0]]
        write_routes.append(tuple(targets))

    ops = (
        _rebuild_ops(plan, survivors, sparing, rebuild_batches)
        if plan is not None
        else []
    )
    return ServeTables(
        layout_name=layout.name,
        n_units=len(layout.data_cells),
        failed=failed,
        survivors=survivors,
        sparing=sparing,
        rebuild_batches=rebuild_batches,
        read_routes=tuple(read_routes),
        read_degraded=tuple(read_degraded),
        write_routes=tuple(write_routes),
        write_degraded=tuple(write_degraded),
        rebuild_ops=tuple(ops),
    )


def _resolve_tables(
    layout: Layout,
    failed_disks: Sequence[int],
    sparing: str,
    rebuild_batches: int,
    tables: Optional[ServeTables],
) -> ServeTables:
    """Build the routing tables, or validate caller-supplied ones."""
    if tables is None:
        return build_serve_tables(
            layout, failed_disks, sparing, rebuild_batches
        )
    expected = tuple(sorted(set(failed_disks)))
    if (
        tables.layout_name != layout.name
        or tables.n_units != len(layout.data_cells)
        or tables.failed != expected
        or tables.sparing != sparing
        or tables.rebuild_batches != rebuild_batches
    ):
        raise SimulationError(
            "serve tables were built for a different scenario "
            f"({tables.layout_name}, failed={tables.failed}, "
            f"sparing={tables.sparing!r}, "
            f"batches={tables.rebuild_batches})"
        )
    if rebuild_batches < 1:
        raise SimulationError(
            f"rebuild_batches must be >= 1, got {rebuild_batches}"
        )
    return tables


# -- the shared sampling plane ---------------------------------------------
#
# Each trial owns four purpose-keyed draw lanes, addressed by the run
# seed and the global trial (columnar.lanes, SERVE domain) — the batched
# plane of k trials is, row for row, the plane each trial would sample
# alone.

_LANE_ARRIVAL, _LANE_UNIT, _LANE_WRITE, _LANE_PERM = range(4)
_N_LANES = 4


def _zipf_cumulative(n_units: int, skew: float):
    """Cumulative Zipf weights (rank r weighted 1/r**skew), plus total.

    Plain sequential Python accumulation: the cut points decide which
    unit a uniform lands on, so the summation order is pinned here.
    """
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, n_units + 1):
        total += 1.0 / (rank ** skew)
        cumulative.append(total)
    return cumulative, total


class _TraceBatch:
    """The materialized sampling plane for a batch of serving trials.

    ``arrivals`` is the ``(trials, n_requests)`` absolute arrival-time
    table (``None`` for closed loops, which pace themselves); ``units``
    and ``is_write`` are per-trial request tables, or — for an explicit
    request list (``shared=True``) — single rows every trial replays.
    Rows come back as plain Python lists for the event walk's hot loop;
    the vectorized sweep reads the arrays whole.
    """

    __slots__ = (
        "trials", "n_requests", "arrivals", "units", "is_write", "shared",
    )

    def __init__(self, trials, n_requests, arrivals, units, is_write,
                 shared) -> None:
        self.trials = trials
        self.n_requests = n_requests
        self.arrivals = arrivals
        self.units = units
        self.is_write = is_write
        self.shared = shared

    def row(self, i: int):
        """Trial *i*'s ``(arrivals, units, is_write)`` as Python lists."""
        arrivals = self.arrivals
        if arrivals is not None:
            arrivals = arrivals[i].tolist()
        units = self.units if self.shared else self.units[i]
        is_write = self.is_write if self.shared else self.is_write[i]
        return arrivals, units.tolist(), is_write.tolist()


def _spec_units(spec: WorkloadSpec, n_units: int, u, n: int):
    """Vectorized unit/write tables for a WorkloadSpec."""
    k = u.shape[0]
    if spec.kind == "sequential":
        base = (spec.start + _np.arange(n, dtype=_np.int64)) % n_units
        units = _np.broadcast_to(base, (k, n))
        is_write = _np.broadcast_to(
            _np.array(spec.write_fraction >= 0.5), (k, n)
        )
        return units, is_write
    if spec.kind == "uniform":
        units = _np.minimum(
            (u[:, _LANE_UNIT, :n] * n_units).astype(_np.int64), n_units - 1
        )
    else:  # zipf
        cumulative, total = _zipf_cumulative(n_units, spec.skew)
        # Hot ranks land on shuffled unit addresses: the permutation is
        # the stable sort order of the permutation lane's first n_units
        # uniforms — a per-trial Fisher-Yates-free shuffle (the sort is
        # stable, so ties cannot reorder between batch sizes).
        perm = _np.argsort(u[:, _LANE_PERM, :n_units], axis=1, kind="stable")
        cuts = _np.asarray(cumulative)
        idx = _np.searchsorted(cuts, u[:, _LANE_UNIT, :n] * total, side="left")
        idx = _np.minimum(idx, n_units - 1)
        units = _np.take_along_axis(perm, idx, axis=1)
    wf = spec.write_fraction
    if wf <= 0.0:
        is_write = _np.broadcast_to(_np.array(False), (k, n))
    elif wf >= 1.0:
        is_write = _np.broadcast_to(_np.array(True), (k, n))
    else:
        is_write = u[:, _LANE_WRITE, :n] < wf
    return units, is_write


def _sample_traces(
    workload: Union[WorkloadSpec, Sequence[Request]],
    n_units: int,
    arrival: ArrivalProcess,
    trial_lanes,
) -> _TraceBatch:
    """Sample every trial's workload trace from its ``(trials, 4)`` lanes.

    This is the single sampling plane both serve kernels read: the
    floats depend only on ``(lanes, workload, arrival)``, never on
    which kernel consumes them or how trials are batched into chunks.
    """
    k = len(trial_lanes)
    spec: Optional[WorkloadSpec] = None
    requests: Optional[List[Request]] = None
    if isinstance(workload, WorkloadSpec):
        spec = workload
        n = spec.n_requests
        check_positive("n_requests", n, 1)
        check_probability("write_fraction", spec.write_fraction)
        if spec.kind == "zipf" and spec.skew <= 0:
            raise ParameterError(f"skew must be > 0, got {spec.skew}")
    else:
        requests = list(workload)
        if not requests:
            raise SimulationError("workload has no requests")
        n = len(requests)
    if isinstance(arrival, OpenLoop):
        lambd = arrival.rate_per_s
    elif isinstance(arrival, ClosedLoop):
        lambd = 1.0  # arrival lane unused: closed loops pace themselves
    else:
        raise SimulationError(
            f"unknown arrival process {type(arrival).__name__}"
        )
    slots = n
    if spec is not None and spec.kind == "zipf":
        slots = max(n, n_units)

    streams = TrialStreams(trial_lanes, lambd, slots)
    arrivals = None
    if isinstance(arrival, OpenLoop):
        arrivals = _np.cumsum(
            streams.exponentials[:, _LANE_ARRIVAL, :n], axis=1
        )
    if requests is not None:
        units = _np.array([r.unit for r in requests], dtype=_np.int64)
        is_write = _np.array(
            [bool(r.is_write) for r in requests], dtype=bool
        )
        return _TraceBatch(k, n, arrivals, units, is_write, shared=True)
    units, is_write = _spec_units(spec, n_units, streams.uniforms, n)
    return _TraceBatch(k, n, arrivals, units, is_write, shared=False)


def serve_batch_supported(
    arrival: ArrivalProcess, throttle: Optional[ThrottlePolicy]
) -> bool:
    """May the Lindley sweep serve this config's foreground requests?

    It needs arrivals known in advance — open loop; a closed loop's next
    arrival depends on the previous completion — and no throttle that
    *observes* latencies (an overridden ``observe``: AdaptiveThrottle's
    SLO window turns every completion into a decision point). Rebuild
    traffic under a non-observing throttle is fine: the event walk
    covers the trial until the last op's writes are queued and the sweep
    takes the rest. Every other config is walked end to end, on the
    same sampled lanes.
    """
    return isinstance(arrival, OpenLoop) and (
        throttle is None or type(throttle).observe is ThrottlePolicy.observe
    )


class _ColumnarRoutes:
    """Flat numpy mirror of a :class:`ServeTables` routing (sweep gather).

    Per-unit route lengths and start offsets into one concatenated
    leg-lane array (read routes first, write routes after), with lanes
    renumbered to survivor indices — one fancy-index gather per request
    batch instead of a Python tuple walk per request.
    """

    __slots__ = (
        "read_len", "read_start", "write_len", "write_start",
        "leg_lanes", "read_deg", "write_deg",
    )


def _columnar_routes(tables: ServeTables) -> _ColumnarRoutes:
    """The cached columnar mirror of *tables* (built on first use)."""
    cached = getattr(tables, "_columnar_routes", None)
    if cached is not None:
        return cached
    lane_of = {disk: i for i, disk in enumerate(tables.survivors)}
    routes = _ColumnarRoutes()
    routes.read_len = _np.array(
        [len(r) for r in tables.read_routes], dtype=_np.int64
    )
    routes.write_len = _np.array(
        [len(r) for r in tables.write_routes], dtype=_np.int64
    )
    read_cum = _np.cumsum(routes.read_len)
    write_cum = _np.cumsum(routes.write_len)
    routes.read_start = read_cum - routes.read_len
    n_read_legs = int(read_cum[-1]) if len(read_cum) else 0
    routes.write_start = (write_cum - routes.write_len) + n_read_legs
    read_legs = [lane_of[d] for route in tables.read_routes for d in route]
    write_legs = [lane_of[d] for route in tables.write_routes for d in route]
    routes.leg_lanes = _np.array(read_legs + write_legs, dtype=_np.int64)
    routes.read_deg = _np.array(tables.read_degraded, dtype=bool)
    routes.write_deg = _np.array(tables.write_degraded, dtype=bool)
    # ServeTables is frozen but not slotted: stash the mirror on the
    # instance so repeated chunks (and the broadcast copy a worker holds)
    # build it once.
    object.__setattr__(tables, "_columnar_routes", routes)
    return routes


def _sweep_batch(
    batch: _TraceBatch,
    tables: ServeTables,
    model: LatencyModel,
    walks: Optional[Sequence[tuple]] = None,
    n_ops: int = 0,
    tally: bool = False,
):
    """Sweep what the walk left of a trace batch: Lindley per queue lane.

    *walks* holds one :func:`_serve_event_trial` outcome per trial; each
    trial's sweep starts at its first unwalked request with the walk's
    ``busy_until`` on every lane. ``None`` means nothing was walked
    (start at request 0 on idle disks); a trial walked to its end adds
    no leg, and the tail below only pools what the walk computed.

    Every request leg is flattened into one ``(total_legs,)`` table keyed
    by its ``(trial, disk)`` queue lane. Within a lane, legs sit in
    submission order (request order — exactly the order the event walk's
    arrival events fire), so each per-disk FIFO is the Lindley recurrence
    ``done[j] = max(done[j-1], t[j]) + s[j]``. The recursion runs
    position-by-position *across all lanes at once* (lanes sorted by
    depth so each step is a shrinking prefix), which replaces the heap's
    per-event Python frames with ~max-queue-depth numpy steps. Float op
    order matches :meth:`FcfsServer.submit` exactly — ``max`` then add,
    completion re-expressed as ``t + (done - t)`` the way the engine's
    delay arithmetic does — so the sweep is bit-identical to the walk.
    With *tally* it also returns the ``(trials, survivors)`` requests and
    busy seconds each queue ends with, summed as :class:`FcfsServer` does.
    """
    routes = _columnar_routes(tables)
    k, n = batch.trials, batch.n_requests
    units = batch.units
    is_write = batch.is_write
    if batch.shared:
        units = _np.broadcast_to(units, (k, n))
        is_write = _np.broadcast_to(is_write, (k, n))
    service = model.service_seconds()
    write_service = 2 * service

    lens = _np.where(is_write, routes.write_len[units], routes.read_len[units])
    starts = _np.where(
        is_write, routes.write_start[units], routes.read_start[units]
    )
    svc = _np.where(is_write, write_service, service)

    # I/O accounting covers every request, walked or swept.
    n_requests = k * n
    n_writes = int(is_write.sum())
    degraded_reads = int((routes.read_deg[units] & ~is_write).sum())
    degraded_writes = int((routes.write_deg[units] & is_write).sum())
    device_reads = int(lens.sum())
    device_writes = int(lens[is_write].sum())

    flat_lens = lens.ravel()
    arrivals = batch.arrivals
    ops_done = finish = ()
    queues = [[(d, 0, 0.0) for d in tables.survivors]] * k  # idle, unwalked
    if walks is not None:
        busy0, issued, done_at, ops_done, finish, _, queues = zip(*walks)
        if arrivals is None:  # a closed loop paces itself: the walk knows
            arrivals = _np.array(issued)
        walked = (
            _np.arange(n) < _np.array([len(d) for d in done_at])[:, None]
        ).ravel()
        flat_lens[walked] = 0  # a walked request adds no leg
    leg_ends = _np.cumsum(flat_lens)
    req_starts = leg_ends - flat_lens
    total_legs = int(leg_ends[-1])
    # Leg j of a request takes slot j of its route, on its trial's block
    # of queue lanes. The leg-sized temporaries are freed as they go:
    # they, not the trace, are this function's memory peak.
    leg_src = _np.arange(total_legs) + _np.repeat(
        starts.ravel() - req_starts, flat_lens
    )
    n_lanes = len(tables.survivors)
    lane_ids = routes.leg_lanes[leg_src]
    lane_ids += _np.repeat(
        _np.repeat(_np.arange(k) * n_lanes, n), flat_lens
    )
    del leg_ends, leg_src, starts

    # Group legs by queue lane, preserving submission order within each
    # (16-bit keys get numpy's radix sort, six times the comparison sort).
    if k * n_lanes <= 1 << 16:
        lane_ids = lane_ids.astype(_np.uint16)
    order = _np.argsort(lane_ids, kind="stable")
    counts = _np.bincount(lane_ids, minlength=k * n_lanes)
    tallied = None
    if tally:  # a lane's bin starts at its walk's total, then adds its legs
        _, served, seeds = zip(*(q for qs in queues for q in qs[:n_lanes]))
        busy = _np.bincount(
            _np.concatenate((_np.arange(k * n_lanes), lane_ids)),
            _np.concatenate((seeds, _np.repeat(svc.ravel(), flat_lens))),
        )
        tallied = (counts + served).reshape(k, n_lanes), busy.reshape(k, n_lanes)
    del lane_ids
    leg_t = _np.repeat(arrivals.ravel(), flat_lens)
    t_sorted = leg_t[order]
    s_sorted = _np.repeat(svc.ravel(), flat_lens)[order]
    del svc
    lane_starts = _np.cumsum(counts) - counts
    by_depth = _np.argsort(-counts, kind="stable")
    depth_sorted = counts[by_depth]
    neg_depth = -depth_sorted
    max_depth = int(depth_sorted[0]) if depth_sorted.size else 0

    starts_by_depth = lane_starts[by_depth]
    if walks is None:
        busy = _np.zeros(len(by_depth))
    else:
        busy = _np.array(busy0).ravel()[by_depth]
    done_sorted = _np.empty(total_legs)
    alive_at = _np.searchsorted(neg_depth, -_np.arange(max_depth), side="left")
    for pos, alive in enumerate(alive_at.tolist()):
        idx = starts_by_depth[:alive] + pos
        done = _np.maximum(busy[:alive], t_sorted[idx]) + s_sorted[idx]
        busy[:alive] = done
        done_sorted[idx] = done
    del t_sorted, s_sorted

    leg_done = _np.empty(total_legs)
    leg_done[order] = done_sorted
    del order, done_sorted
    # The engine schedules completions as now + (done - now): reproduce
    # that arithmetic so event timestamps match the walk to the last ulp.
    leg_event = leg_t + (leg_done - leg_t)
    del leg_t, leg_done
    if walks is None:
        completion = _np.maximum.reduceat(leg_event, req_starts)
    else:
        swept = ~walked
        completion = _np.empty(n_requests)
        completion[walked] = [t for done in done_at for t in done]
        completion[swept] = _np.maximum.reduceat(leg_event, req_starts[swept])
    del leg_event, req_starts, lens, flat_lens
    latency_ms = (completion - arrivals.ravel()) * 1000.0
    # The walk's latencies pool in the order its requests' last legs pop
    # — heap order (completion time, then schedule seq, which is request
    # order within a trial). A stable per-trial sort by completion
    # reproduces that pooled order exactly.
    by_trial = completion.reshape(k, n)
    pop_order = _np.argsort(by_trial, axis=1, kind="stable")
    pop_order += _np.arange(0, k * n, n)[:, None]

    return ServeResult(
        trials=k,
        requests=n_requests,
        reads=n_requests - n_writes,
        writes=n_writes,
        degraded_reads=degraded_reads,
        degraded_writes=degraded_writes,
        device_reads=device_reads,
        device_writes=device_writes,
        latencies_ms=latency_ms[pop_order.ravel()],
        rebuild_ops=k * n_ops,
        rebuild_ops_done=sum(ops_done),
        rebuild_seconds_per_trial=finish if n_ops else (),
        foreground_seconds_per_trial=by_trial.max(axis=1),
    ), tallied


def _serve_event_trial(
    tables: ServeTables,
    trace_row,
    arrival: ArrivalProcess,
    model: LatencyModel,
    throttle: Optional[ThrottlePolicy],
    handoff: bool = False,
    tel: Telemetry = NULL_TELEMETRY,
):
    """Walk one trial's sampled trace through the discrete-event heap.

    Returns ``(busy, issued, done, rebuild_done, rebuild_finish, stop,
    queues)``: per-survivor ``busy_until``, the completion time of every
    request the walk submitted, in request order (plus, for a closed
    loop, when it was issued), the rebuild's progress, where the clock
    stopped, and each queue's ``(disk, requests, total_busy)``, survivors
    first. A completion is known at submission (a FIFO disk fixes it), so
    nothing waits for the pop. With *handoff* the walk stops once the
    last rebuild op has submitted its writes — from then on every queue
    submission is a foreground arrival at a known time, which
    :func:`_sweep_batch` resumes from *busy*; otherwise it drains the
    heap and ``done`` covers the whole trace. The heap walk is billed to
    the ``serve`` phase of *tel*.
    """
    arrivals_row, units_row, iswrite_row = trace_row
    n = len(units_row)
    survivors = tables.survivors
    ops = tables.rebuild_ops if throttle is not None else ()

    # Dedicated sparing rebuilds onto the replacement disks: queues of
    # their own, which no foreground request ever joins.
    spares = tables.failed if ops and tables.sparing == "dedicated" else ()
    sim = Simulator()
    servers = {d: FcfsServer(sim, f"disk{d}") for d in survivors + spares}
    service = model.service_seconds()
    write_service = 2 * service
    read_routes = tables.read_routes
    write_routes = tables.write_routes

    issued: List[float] = []  # a closed loop's arrival times
    done_at: List[float] = []
    rebuild_done = 0
    rebuild_finish = 0.0

    def finish_request(arrival_s: float) -> None:
        if throttle is not None:
            throttle.observe((sim.now - arrival_s) * 1000.0)

    def fan_out(disks: Sequence[int], per_disk_service: float, done) -> float:
        """Submit one access per disk; *done* fires when the slowest ends.

        Returns that time (the last completion event's).
        """
        if len(disks) == 1:
            return servers[disks[0]].submit(per_disk_service, done)
        one_done = _Join(len(disks), done).one_done
        return max(
            [servers[disk].submit(per_disk_service, one_done) for disk in disks]
        )

    def issue(index: int, done) -> None:
        unit = units_row[index]
        if not iswrite_row[index]:
            # Healthy reads hit the home disk; a lost cell fans out to
            # its repair step's source disks (plan-driven routing).
            done_at.append(fan_out(read_routes[unit], service, done))
            return
        # Write: read-modify-write the home disk (if online) plus every
        # containing stripe's parity disks; a lost home cell degrades to
        # parity-only (the array absorbs the write into redundancy).
        done_at.append(fan_out(write_routes[unit], write_service, done))

    # -- foreground arrivals ------------------------------------------------
    if isinstance(arrival, OpenLoop):

        def arrive(index: int) -> None:
            t = arrivals_row[index]
            issue(index, lambda: finish_request(t))

        sim.feed(arrivals_row, arrive)
    elif isinstance(arrival, ClosedLoop):

        def client_issue() -> None:
            index = len(issued)
            if index >= n:
                return
            arrival_s = sim.now
            issued.append(arrival_s)

            def done() -> None:
                finish_request(arrival_s)
                if arrival.think_s > 0:
                    sim.schedule(arrival.think_s, client_issue)
                else:
                    client_issue()

            issue(index, done)

        for _client in range(min(arrival.clients, n)):
            sim.schedule(0.0, client_issue)
    else:
        raise SimulationError(
            f"unknown arrival process {type(arrival).__name__}"
        )

    # -- rebuild injection --------------------------------------------------
    if ops:
        throttle.reset()
        cursor = {"op": 0}
        n_ops = len(ops)

        def dispatch(op: _RebuildOp) -> None:
            def reads_done() -> None:
                nonlocal rebuild_done, rebuild_finish
                finish = sim.now
                if op.writes:
                    finish = fan_out(op.writes, service, lambda: None)
                rebuild_done += 1
                if finish > rebuild_finish:
                    rebuild_finish = finish
                if handoff and rebuild_done == n_ops:
                    sim.stop()

            if not op.reads:
                reads_done()
            else:
                fan_out(op.reads, service, reads_done)

        def pump() -> None:
            while cursor["op"] < n_ops:
                op = ops[cursor["op"]]
                idle = all(
                    servers[d].busy_until <= sim.now for d in op.reads
                )
                delay = throttle.next_delay(sim.now, idle)
                if delay is None:
                    cursor["op"] += 1
                    dispatch(op)
                else:
                    sim.schedule(delay, pump)
                    return

        sim.schedule(0.0, pump)

    with tel.phase("serve"):
        sim.run()

    busy = [servers[d].busy_until for d in survivors]
    queues = [(d, s.requests, s.total_busy) for d, s in servers.items()]
    return busy, issued, done_at, rebuild_done, rebuild_finish, sim.now, queues


def _narrate(tel, result, walks, survivors, served, busy) -> None:
    """Record into *tel* what walking every trial to its end would emit:
    counters, histograms, and per trial ``rebuild_drained`` and one
    ``queue_report`` per queue, stamped at the trial's last event (last
    completion, rebuild finish, or where a walk to the end stopped)."""
    tel.count("serve.requests", result.requests)
    for name in ("degraded_reads", "degraded_writes"):
        if getattr(result, name):
            tel.count(f"serve.{name}", getattr(result, name))
    finish = result.rebuild_seconds_per_trial
    ends = _np.asarray(result.foreground_seconds_per_trial)
    n_ops = result.rebuild_ops // result.trials
    if n_ops:
        tel.count("serve.rebuild_ops_dispatched", result.rebuild_ops)
        tel.count("serve.rebuild_ops_completed", result.rebuild_ops_done)
        ends = _np.maximum(ends, finish)
    if walks is not None:
        ends = _np.maximum(ends, [walk[5] for walk in walks])
    tel.observe_many("serve.latency_ms", result.latencies_ms)
    tel.observe_many("serve.rebuild_seconds", finish)
    utilization = []
    for trial, end in enumerate(ends.tolist()):
        queues = list(zip(survivors, served[trial].tolist(), busy[trial].tolist()))
        if walks is not None:
            queues += walks[trial][6][len(survivors):]
        if n_ops:
            tel.event("rebuild_drained", finish[trial], ops=n_ops)
        for disk, requests, total_busy in sorted(queues):
            tel.event("queue_report", end, disk=disk, requests=requests)
            if end > 0:
                utilization.append(min(1.0, total_busy / end))
    tel.observe_many("serve.disk_utilization", utilization)


#: Serving trials per chunk when every trial is walked end to end. One
#: trial per chunk — such a replication is far heavier than a Monte-Carlo
#: mission.
DEFAULT_CHUNK_SERVE_TRIALS = 1

#: Serving trials per chunk when the vectorized sweep applies (after a
#: walked rebuild prefix, if any): wide chunks amortize the numpy
#: dispatch over ``(trials x disks)`` queue lanes. Safe for any value —
#: lanes are keyed by global trial, so chunk geometry never changes the result.
VECTORIZED_CHUNK_SERVE_TRIALS = 16


def _serve_chunk(
    state, spec, tel, *, swept, workload, arrival, model, throttle,
) -> ServeResult:
    """Sample, walk and sweep one chunk of serving trials.

    *state* is the broadcast ``(tables,)`` — the routing tables (recovery
    plan, degraded fan-outs, rebuild ops) are computed once by
    :func:`simulate_serve` and shipped to each worker exactly once, so
    trials skip re-planning. Trial ``spec.start + i`` reads the lanes
    :func:`~repro.sim.columnar.lanes` addresses by the run seed and that
    global trial index, never the chunk geometry — so the merged result
    is bit-identical for any chunk size. *swept* is the ``vectorized``
    kernel on a config :func:`serve_batch_supported` admits; a collecting
    *tel* takes the same path and is narrated (:func:`_narrate`).
    """
    (tables,) = state
    trials = spec.size
    with tel.phase("sample"):
        trace = _sample_traces(
            workload, tables.n_units, arrival,
            lanes(spec.seed, SERVE, spec.start, trials, _N_LANES),
        )

    ops = tables.rebuild_ops if throttle is not None else ()
    walks = None
    if ops or not swept:
        with tel.phase("replay"):
            walks = [
                _serve_event_trial(
                    tables, trace.row(i), arrival, model, throttle, swept, tel
                )
                for i in range(trials)
            ]
    with tel.phase("sweep" if swept else "merge"):
        result, tally = _sweep_batch(trace, tables, model, walks, len(ops), tel.enabled)
        if tally:
            _narrate(tel, result, walks, tables.survivors, *tally)
    if tel.profiling:
        walked = sum(len(walk[2]) for walk in walks or ())
        tel.tally("serve.trials", trials)
        tel.tally("serve.requests", result.requests)
        tel.tally("serve.walked_requests", walked)
        tel.tally("serve.swept_requests", result.requests - walked)
    return result


def simulate_serve(
    layout: Layout,
    workload: Union[WorkloadSpec, Sequence[Request]] = WorkloadSpec(),
    failed_disks: Sequence[int] = (),
    arrival: ArrivalProcess = OpenLoop(100.0),
    model: Optional[LatencyModel] = None,
    throttle: Optional[ThrottlePolicy] = None,
    sparing: str = "distributed",
    rebuild_batches: int = 1,
    seed: Optional[int] = 0,
    telemetry: Optional[Telemetry] = None,
    tables: Optional[ServeTables] = None,
    kernel: str = "auto",
    *,
    trials: int = 1,
    chunk_trials: Optional[int] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> ServeResult:
    """Serve a foreground workload against a (possibly degraded) array.

    *workload* is either a picklable :class:`WorkloadSpec` recipe
    (materialized against the layout's user address space from each
    trial's columnar draw lanes) or an explicit request sequence.
    *throttle* of ``None`` injects no rebuild traffic; otherwise the
    recovery plan of *failed_disks* is tiled *rebuild_batches* times and
    dispatched per the policy.

    *trials* independent replications run in chunks
    (:func:`~repro.sim.parallel.run_chunks`, :func:`_serve_chunk`) and
    are pooled in trial order. Trial ``t`` reads the four purpose lanes
    :func:`~repro.sim.columnar.lanes` addresses by ``(seed, t)``, so the
    pooled latencies, counters and merged telemetry are bit-identical
    for any *jobs* and any *chunk_trials*. When the vectorized sweep
    applies (below), chunks default to
    :data:`VECTORIZED_CHUNK_SERVE_TRIALS` trials so one numpy sweep
    covers a whole chunk; otherwise one trial per chunk
    (:data:`DEFAULT_CHUNK_SERVE_TRIALS`). *chunk_trials* overrides
    either default and only changes the progress-callback granularity.

    *tables* optionally supplies the precomputed routing of
    :func:`build_serve_tables` — callers running many sweep points of the
    same scenario skip re-planning the recovery per call; either way one
    instance is broadcast to every worker. The tables must have been
    built for this layout and the same ``failed_disks`` / ``sparing`` /
    ``rebuild_batches``; a mismatch raises.

    *kernel* (:data:`~repro.sim.columnar.KERNELS`) picks the execution
    strategy, never the answer: every trial's trace is sampled once.
    ``vectorized``, where :func:`serve_batch_supported` holds, walks each
    trial through the discrete-event heap only until its last rebuild op
    has queued its writes (not at all without rebuild traffic) and runs
    the rest of every trial as one batched Lindley sweep across every
    ``(trial, disk)`` queue lane; ``event`` — and ``vectorized`` on
    every other config — walks each trial's whole trace. Either way one
    array tail turns completion times into latencies and counters.
    Collected *telemetry* is narrated from that tail, as a walk of every
    trial would emit it, minus ``engine.*`` (a sweep has no heap).

    Raises :class:`~repro.errors.DataLossError` when *failed_disks* is
    not a survivable pattern (there is nothing to serve). The result is
    a deterministic function of the arguments (the engine breaks ties by
    schedule order).
    """
    swept = resolve_kernel(kernel) == "vectorized" and serve_batch_supported(
        arrival, throttle
    )
    tables = _resolve_tables(
        layout, failed_disks, sparing, rebuild_batches, tables
    )
    if chunk_trials is None:
        chunk_trials = (
            VECTORIZED_CHUNK_SERVE_TRIALS if swept else DEFAULT_CHUNK_SERVE_TRIALS
        )
    parts = run_chunks(
        "simulate_serve", dict(trials=trials, jobs=jobs),
        _serve_chunk, (tables,),
        dict(
            swept=swept, workload=workload, arrival=arrival,
            model=model or LatencyModel(), throttle=throttle,
        ),
        trials, chunk_trials,
        seed=seed, jobs=jobs, telemetry=telemetry, progress=progress,
    )
    return ServeResult.merged(parts)
