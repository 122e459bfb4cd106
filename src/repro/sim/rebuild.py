"""Rebuild-time simulation: turning recovery plans into wall-clock time.

The paper's headline experiments (E3, E4, E9, E11) compare how long it
takes different layouts to regenerate a failed disk. On modern high-capacity
drives rebuild is *bandwidth-bound*: time = bytes moved on the busiest
spindle / its sustained bandwidth. The recovery plan supplies exactly those
per-disk byte counts, so two evaluation modes are provided:

* :func:`analytic_rebuild_time` — the bandwidth-bound lower bound: the
  busiest disk's unavoidable volume over its effective bandwidth. Reads
  are pinned to the disks that hold the surviving units; distributed
  spare-writes are *placeable*, so the bound water-fills them onto the
  least-loaded survivors — ``max(max_d reads_d, (reads + writes) / S)``
  — rather than charging the busiest reader an even write share it need
  never carry.
* :func:`simulate_rebuild` — a discrete-event execution of the plan's
  steps over FCFS disk servers, capturing queueing and step dependencies
  (a step's XOR cannot start before its reads complete). This lands within
  a few percent of the analytic bound when the plan is well balanced and
  above it when it is not — which is itself a load-balance signal.

Sparing: ``dedicated`` writes every regenerated unit to the replacement
disk(s); ``distributed`` spreads writes over the survivors' reserved spare
space (the declustered-RAID convention, and the mode under which OI-RAID's
read parallelism translates into end-to-end speedup).

Foreground load is modeled as a fraction of each disk's bandwidth reserved
for user I/O (E9's rebuild-under-load sweep).

:class:`RebuildTimer` supplies the lifecycle and fleet simulators' repair
durations from either clock, memoised per failed pattern on the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import DataLossError, SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import (
    PatternEntry,
    PlanSummary,
    RecoveryPlan,
    pattern_entry,
    plan_recovery,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, ambient, use_telemetry
from repro.results import ResultBase, register_result
from repro.sim.engine import FcfsServer, Simulator
from repro.util.checks import check_finite
from repro.util.units import GIB


@dataclass(frozen=True)
class DiskModel:
    """Capacity/bandwidth parameters shared by all disks of an array.

    Defaults model a 2016-era nearline drive: 1 TiB rebuilt at a sustained
    100 MiB/s (about 2.9 hours for a raw full-disk copy).
    """

    capacity_bytes: float = 1024 * GIB
    bandwidth_bytes_per_s: float = 100 * 1024 * 1024
    foreground_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_finite("capacity_bytes", self.capacity_bytes, error=SimulationError)
        check_finite(
            "bandwidth_bytes_per_s", self.bandwidth_bytes_per_s,
            error=SimulationError,
        )
        if not 0 <= self.foreground_fraction < 1:
            raise SimulationError(
                f"foreground_fraction must be in [0, 1), got "
                f"{self.foreground_fraction}"
            )

    @property
    def effective_bandwidth(self) -> float:
        """Bandwidth left for rebuild after foreground reservation."""
        return self.bandwidth_bytes_per_s * (1 - self.foreground_fraction)

    @property
    def raid5_rebuild_seconds(self) -> float:
        """The normalization baseline: one full-capacity pass."""
        return self.capacity_bytes / self.effective_bandwidth


@register_result
@dataclass(frozen=True)
class RebuildResult(ResultBase):
    """Outcome of one rebuild evaluation."""

    layout_name: str
    failed_disks: tuple
    sparing: str
    seconds: float
    bytes_read: float
    bytes_written: float
    #: Busy time of the most-loaded disk — the spindle bounding the
    #: rebuild.
    bottleneck_seconds: float
    raid5_seconds: float
    #: Spare-write counts per disk id, populated by the event-driven
    #: simulation (None for the analytic bound, which places writes as a
    #: continuous water-filling instead of discrete round-robin units).
    writes_per_disk: Optional[Tuple[Tuple[int, int], ...]] = None

    SUMMARY_KEYS = (
        "layout_name", "sparing", "seconds", "speedup_vs_raid5",
        "bytes_read", "bytes_written", "bottleneck_seconds",
    )

    @property
    def speedup_vs_raid5(self) -> float:
        """Rebuild-time ratio vs the single-spindle RAID5 baseline."""
        if self.seconds == 0:
            return float("inf")
        return self.raid5_seconds / self.seconds


def _bottleneck_seconds(
    layout: Layout, summary: PlanSummary, disk: DiskModel, sparing: str
) -> float:
    """Busy time of the busiest disk, minimized over write placements.

    Reads are pinned: a surviving unit can only be read from the disk
    that holds it. Distributed spare-writes are placeable, so the tight
    lower bound water-fills them onto the least-read survivors; the
    level is ``(reads + writes) / S`` when it tops the heaviest reader
    and ``max_d reads_d`` otherwise (the heaviest reader then takes no
    writes and still bounds the rebuild). Charging the busiest reader an
    even write share — the previous model — overstates the bound for
    read-unbalanced plans, and the discrete event simulation legitimately
    beat it (hence the "lower bound" contract failed).
    """
    unit_bytes = disk.capacity_bytes / layout.units_per_disk
    volumes: Dict[int, float] = {
        d: 0.0 for d in range(layout.n_disks) if d not in summary.failed_disks
    }
    survivors = len(volumes)
    for d, units in summary.read_units:
        volumes[d] = volumes.get(d, 0.0) + units * unit_bytes
    total_write = summary.total_write_units * unit_bytes
    if sparing == "distributed":
        # fsum: isomorphic patterns meet the disks in different orders.
        total_read = math.fsum(volumes.values())
        level = (total_read + total_write) / survivors
        busiest = max(max(volumes.values(), default=0.0), level)
    elif sparing == "dedicated":
        per_disk = layout.units_per_disk * unit_bytes
        for d in summary.failed_disks:
            # Replacement disks absorb their own full image.
            volumes[d] = volumes.get(d, 0.0) + per_disk
        busiest = max(volumes.values(), default=0.0)
    else:
        raise SimulationError(f"unknown sparing mode {sparing!r}")
    return busiest / disk.effective_bandwidth


def _plan_for(
    layout: Layout, failed_disks: Sequence[int], plan: Optional[RecoveryPlan]
) -> RecoveryPlan:
    """*plan*, checked to repair exactly *failed_disks*, or a fresh plan."""
    if plan is None:
        return plan_recovery(layout, failed_disks)
    failed = tuple(sorted(set(failed_disks)))
    if plan.failed_disks != failed:
        raise SimulationError(
            f"plan repairs disks {plan.failed_disks}, not {failed}"
        )
    return plan


def analytic_rebuild_time(
    layout: Layout,
    failed_disks: Sequence[int],
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    plan: Optional[RecoveryPlan] = None,
) -> RebuildResult:
    """Bandwidth-bound rebuild time: busiest disk's volume / bandwidth."""
    disk = disk or DiskModel()
    summary = _plan_for(layout, failed_disks, plan).summary()
    seconds = _bottleneck_seconds(layout, summary, disk, sparing)
    unit_bytes = disk.capacity_bytes / layout.units_per_disk
    tel = ambient()
    if tel.enabled:
        tel.count("rebuild.analytic_evaluations")
        tel.observe("rebuild.analytic_seconds", seconds)
    return RebuildResult(
        layout_name=layout.name,
        failed_disks=summary.failed_disks,
        sparing=sparing,
        seconds=seconds,
        bytes_read=summary.total_read_units * unit_bytes,
        bytes_written=summary.total_write_units * unit_bytes,
        bottleneck_seconds=seconds,
        raid5_seconds=disk.raid5_rebuild_seconds,
    )


def simulate_rebuild(
    layout: Layout,
    failed_disks: Sequence[int],
    disk: Optional[DiskModel] = None,
    sparing: str = "distributed",
    plan: Optional[RecoveryPlan] = None,
    batches: int = 8,
) -> RebuildResult:
    """Event-driven rebuild: FCFS disk servers + step dependencies.

    The plan's steps execute *batches* times (modeling the cycle tiling a
    real disk in chunks); a step waits for the steps whose outputs it
    reuses, issues its reads in parallel, completes when the slowest read
    finishes, then issues its spare write. Writes round-robin over
    survivors (distributed) or go to the replacements (dedicated).
    Reported time is when the last write completes.
    """
    disk = disk or DiskModel()
    if batches < 1:
        raise SimulationError(f"batches must be >= 1, got {batches}")
    plan = _plan_for(layout, failed_disks, plan)
    survivors = [
        d for d in range(layout.n_disks) if d not in plan.failed_disks
    ]
    if not survivors:
        raise SimulationError("no surviving disks to rebuild from")

    unit_bytes = disk.capacity_bytes / layout.units_per_disk
    read_service = (unit_bytes / batches) / disk.effective_bandwidth
    write_service = read_service

    # Step dependencies: a step reusing a cell waits for its producer.
    producer: Dict[tuple, int] = {}
    for index, step in enumerate(plan.steps):
        for cell in step.targets:
            producer.setdefault(cell, index)
    deps: List[List[int]] = []
    dependents: List[List[int]] = [[] for _ in plan.steps]
    for index, step in enumerate(plan.steps):
        step_deps = sorted({producer[cell] for cell in step.reuses})
        deps.append(step_deps)
        for d in step_deps:
            dependents[d].append(index)

    sim = Simulator()
    servers = {d: FcfsServer(sim, f"disk{d}") for d in range(layout.n_disks)}
    state = {"write_rr": 0, "last_done": 0.0}
    write_counts: Dict[int, int] = {}

    def write_target(step_index: int, target_index: int) -> int:
        if sparing == "dedicated":
            # Write to the replacement of the disk the cell lived on.
            step = plan.steps[step_index]
            target = step.targets[target_index][0]
        elif sparing == "distributed":
            # Round-robin starting at survivors[0]: consume the current
            # index, then advance (advancing first skipped survivors[0]
            # on the first write of every run and biased the write load).
            target = survivors[state["write_rr"]]
            state["write_rr"] = (state["write_rr"] + 1) % len(survivors)
        else:
            raise SimulationError(f"unknown sparing mode {sparing!r}")
        write_counts[target] = write_counts.get(target, 0) + 1
        return target

    for _batch in range(batches):
        waiting = [len(step_deps) for step_deps in deps]

        def make_launcher(step_index: int, waiting: List[int]):
            step = plan.steps[step_index]
            reads = list(step.reads)

            def complete() -> None:
                state["last_done"] = max(state["last_done"], sim.now)
                for dep in dependents[step_index]:
                    waiting[dep] -= 1
                    if waiting[dep] == 0:
                        launchers[dep]()

            def reads_done() -> None:
                pending = {"n": len(step.targets)}

                def write_done() -> None:
                    pending["n"] -= 1
                    if pending["n"] == 0:
                        complete()

                for t_idx in range(len(step.targets)):
                    servers[write_target(step_index, t_idx)].submit(
                        write_service, write_done
                    )

            def launch() -> None:
                if not reads:
                    reads_done()
                    return
                remaining = {"n": len(reads)}

                def one_read_done() -> None:
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        reads_done()

                for cell in reads:
                    servers[cell[0]].submit(read_service, one_read_done)

            return launch

        launchers = [
            make_launcher(i, waiting) for i in range(len(plan.steps))
        ]
        for i, step_deps in enumerate(deps):
            if not step_deps:
                launchers[i]()
        sim.run()

    busiest = max(s.busy_until for s in servers.values())
    tel = ambient()
    if tel.enabled:
        tel.count("rebuild.event_evaluations")
        tel.observe("rebuild.event_seconds", max(state["last_done"], busiest))
    return RebuildResult(
        layout_name=layout.name,
        failed_disks=plan.failed_disks,
        sparing=sparing,
        seconds=max(state["last_done"], busiest),
        bytes_read=plan.total_read_units * unit_bytes,
        bytes_written=plan.total_write_units * unit_bytes,
        bottleneck_seconds=busiest,
        raid5_seconds=disk.raid5_rebuild_seconds,
        writes_per_disk=tuple(sorted(write_counts.items())),
    )


#: Rebuild-time evaluation methods accepted by the lifecycle machinery.
REBUILD_METHODS = ("analytic", "event")


@dataclass(frozen=True)
class RebuildTimer:
    """Pattern -> (rebuild hours, bytes read): one run's view of the memo.

    The clocks live on the layout (:func:`~repro.layouts.recovery.
    pattern_entry`, then this timer's ``(disk, sparing, method,
    batches)``), so a run after the first on one layout object plans
    nothing. Every lookup is narrated into the ambient telemetry as a
    cold evaluation records it (spans, ``recovery.*``, ``rebuild.*`` and
    the event clock's ``engine.*``): a run's telemetry never depends on
    what earlier runs left in the memo. An undecodable set raises the
    memo's :class:`~repro.errors.DataLossError`. ``method`` selects the
    bandwidth-bound analytic bound or the event-driven FCFS simulation.
    The config keys the memo by its ``repr``, built once: a ``str`` hashes
    once, a fresh :class:`DiskModel` would hash and compare per lookup.
    """

    layout: Layout
    disk: DiskModel
    sparing: str = "distributed"
    method: str = "analytic"
    batches: int = 8

    def __post_init__(self) -> None:
        if self.method not in REBUILD_METHODS:
            raise SimulationError(
                f"unknown rebuild method {self.method!r} "
                f"(expected one of {REBUILD_METHODS})"
            )
        config = repr((self.disk, self.sparing, self.method, self.batches))
        object.__setattr__(self, "_config", config)

    def _clock(self, entry: PatternEntry) -> Tuple[float, float]:
        """``(seconds, bytes read)`` of *entry* under this config, memoised."""
        clock = entry.clocks.get(self._config)
        if clock is None:
            summary = entry.summary
            if self.method == "event":
                with use_telemetry(NULL_TELEMETRY):
                    seconds = simulate_rebuild(
                        self.layout, summary.failed_disks, self.disk,
                        sparing=self.sparing, batches=self.batches,
                    ).seconds
            else:
                seconds = _bottleneck_seconds(
                    self.layout, summary, self.disk, self.sparing
                )
            unit_bytes = self.disk.capacity_bytes / self.layout.units_per_disk
            clock = entry.clocks[self._config] = (
                seconds, summary.total_read_units * unit_bytes
            )
        return clock

    def __call__(self, failed: FrozenSet[int]) -> Tuple[float, float]:
        key = tuple(sorted(failed))
        tel = ambient()
        if tel.enabled:
            return self._narrated(key, tel)
        seconds, read = self._clock(pattern_entry(self.layout, key))
        return seconds / 3600.0, read

    def cached(self, key: Tuple[int, ...]):
        """:meth:`__call__` of sorted *key* from the memo, never planning:
        ``(hours, bytes read)``, the memoised :class:`DataLossError`, or
        ``None`` on a miss — and under a collecting ambient telemetry, which
        only :meth:`__call__` narrates to."""
        entry = self.layout.patterns.get(key)
        if entry is None or ambient().enabled:
            return None
        if isinstance(entry, DataLossError):
            return entry
        seconds, read = self._clock(entry)
        return seconds / 3600.0, read

    def _narrated(self, key: Tuple[int, ...], tel: Telemetry) -> Tuple[float, float]:
        """:meth:`__call__` of *key*, recording into *tel* what a cold
        evaluation records."""
        # One per narrated lookup (one per asked set); renaming moves documents.
        tel.count("rebuild.memo_misses")
        with tel.span("rebuild_evaluate", failed=len(key), method=self.method):
            with tel.span("plan_recovery", failed=len(key)):
                entry = pattern_entry(self.layout, key)
            seconds, read = self._clock(entry)
        summary, method = entry.summary, self.method
        tel.count("recovery.plans")
        tel.observe("recovery.plan_steps", summary.steps)
        tel.observe("recovery.plan_read_units", summary.total_read_units)
        if method == "event":  # one engine event per unit read or written
            events = self.batches * (
                summary.total_read_units + summary.total_write_units
            )
            tel.count("engine.events_scheduled", events)
            tel.count("engine.events_processed", events)
        tel.count(f"rebuild.{method}_evaluations")
        tel.observe(f"rebuild.{method}_seconds", seconds)
        return seconds / 3600.0, read
