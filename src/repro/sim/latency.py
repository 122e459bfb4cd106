"""User-request latency under healthy and degraded operation.

Rebuild speed is one half of availability; the other is what a *read*
costs while the array is degraded. A degraded read fans out to the repair
equation's source disks and completes when the slowest of them responds —
so wide flat codes (read k - 1 disks) suffer where narrow-striped layouts
shrug.

The simulator runs Poisson read arrivals against FCFS disk servers with a
seek + transfer service model, routes reads for lost cells through the
recovery plan's sources, and reports the latency distribution. Used by the
E17 extension experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.layouts.base import Cell, Layout
from repro.layouts.recovery import plan_recovery
from repro.results import ResultBase, register_result
from repro.sim.engine import FcfsServer, Simulator
from repro.util.checks import check_finite
from repro.util.stats import mean, percentile


@dataclass(frozen=True)
class LatencyModel:
    """Per-request device service time: seek plus transfer."""

    seek_ms: float = 5.0
    unit_bytes: int = 64 * 1024
    bandwidth_bytes_per_s: float = 100 * 1024 * 1024

    def __post_init__(self) -> None:
        check_finite("seek_ms", self.seek_ms, closed=True)
        check_finite("unit_bytes", self.unit_bytes)
        check_finite("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)

    def service_seconds(self) -> float:
        """Total device service time for one unit read."""
        return self.seek_ms / 1000.0 + self.unit_bytes / self.bandwidth_bytes_per_s


@register_result
@dataclass(frozen=True)
class LatencyResult(ResultBase):
    """Latency distribution of the completed user reads."""

    requests: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    degraded_fraction: float

    SUMMARY_KEYS = (
        "requests", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        "degraded_fraction",
    )


def simulate_read_latency(
    layout: Layout,
    failed_disks: Sequence[int] = (),
    arrival_rate: float = 50.0,
    n_requests: int = 2000,
    model: Optional[LatencyModel] = None,
    background_utilization: float = 0.0,
    seed: Optional[int] = 0,
) -> LatencyResult:
    """Simulate *n_requests* Poisson user reads and report latency.

    Reads target uniformly random data cells. A read whose cell is lost
    fans out to the cell's repair sources (from the recovery plan) and
    completes when the last source read finishes. *background_utilization*
    models rebuild or other competing traffic by pre-loading every online
    disk with that fraction of busy time, spread over the run.
    """
    model = model or LatencyModel()
    if arrival_rate <= 0:
        raise SimulationError("arrival_rate must be positive")
    if not 0 <= background_utilization < 1:
        raise SimulationError("background_utilization must be in [0, 1)")
    failed = sorted(set(failed_disks))
    for disk in failed:
        if not 0 <= disk < layout.n_disks:
            raise SimulationError(f"no such disk {disk}")

    # Map every lost data cell to the disks its repair reads.
    degraded_sources: Dict[Cell, Tuple[int, ...]] = {}
    if failed:
        plan = plan_recovery(layout, failed)
        for step in plan.steps:
            reads = tuple(sorted({c[0] for c in step.reads}))
            for target in step.targets:
                degraded_sources[target] = reads

    rng = random.Random(seed)
    sim = Simulator()
    servers = {
        d: FcfsServer(sim, f"disk{d}")
        for d in range(layout.n_disks)
        if d not in failed
    }
    service = model.service_seconds()

    # Background (rebuild) traffic: periodic busy slices on every disk.
    if background_utilization > 0:
        horizon_estimate = n_requests / arrival_rate
        slice_gap = service / background_utilization
        t = rng.uniform(0, slice_gap)
        while t < horizon_estimate:
            for server in servers.values():
                sim.schedule(
                    t, lambda s=server: s.submit(service, lambda: None)
                )
            t += slice_gap

    latencies: List[float] = []
    degraded_count = 0
    data_cells = layout.data_cells
    arrival = 0.0
    for _ in range(n_requests):
        arrival += rng.expovariate(arrival_rate)
        cell = data_cells[rng.randrange(len(data_cells))]

        def issue(cell=cell, arrival=arrival) -> None:
            nonlocal degraded_count
            if cell in degraded_sources:
                degraded_count += 1
                disks = degraded_sources[cell] or tuple(servers)[:1]
                pending = {"n": len(disks)}

                def one_done(arrival=arrival, pending=pending) -> None:
                    pending["n"] -= 1
                    if pending["n"] == 0:
                        latencies.append((sim.now - arrival) * 1000)

                for disk in disks:
                    servers[disk].submit(service, one_done)
            else:
                servers[cell[0]].submit(
                    service,
                    lambda arrival=arrival: latencies.append(
                        (sim.now - arrival) * 1000
                    ),
                )

        sim.schedule(arrival, issue)
    sim.run()

    if not latencies:
        raise SimulationError("no requests completed (bug)")
    return LatencyResult(
        requests=len(latencies),
        mean_ms=mean(latencies),
        p50_ms=percentile(latencies, 50),
        p95_ms=percentile(latencies, 95),
        p99_ms=percentile(latencies, 99),
        degraded_fraction=degraded_count / n_requests,
    )
