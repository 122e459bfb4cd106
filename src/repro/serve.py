"""Front door for the online serving simulator (``repro.serve``).

A thin alias over :mod:`repro.sim.serve`, so serving experiments can be
written against one import::

    from repro.serve import simulate_serve, AdaptiveThrottle

    result = simulate_serve(layout, failed_disks=[0],
                            throttle=AdaptiveThrottle(target_p99_ms=12.0))
    print(result.p99_ms, result.rebuild_seconds)

The implementation lives under :mod:`repro.sim` with the other
simulators (it shares their engine, latency model, and bit-identical
parallelism contract); this module is the stable public spelling.
"""

from repro.sim.serve import (
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
    ServeResult,
    ServeTables,
    ThrottlePolicy,
    build_serve_tables,
    serve_batch_supported,
    simulate_serve,
)
from repro.workloads.arrivals import ArrivalProcess, ClosedLoop, OpenLoop
from repro.workloads.generators import WorkloadSpec

__all__ = [
    "ThrottlePolicy",
    "FixedRateThrottle",
    "IdleSlotThrottle",
    "AdaptiveThrottle",
    "ServeResult",
    "ServeTables",
    "build_serve_tables",
    "simulate_serve",
    "serve_batch_supported",
    "ArrivalProcess",
    "OpenLoop",
    "ClosedLoop",
    "WorkloadSpec",
]
