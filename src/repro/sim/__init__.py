"""Simulation substrate: discrete events, rebuild timing, reliability.

* :mod:`repro.sim.engine` — a minimal discrete-event simulator with FCFS
  resources (the simulated disks' queues).
* :mod:`repro.sim.rebuild` — converts recovery plans into rebuild *time*
  under a disk bandwidth model, both analytically (bandwidth-bound bounds)
  and event-driven (queueing + step dependencies), with dedicated or
  distributed sparing and optional foreground load.
* :mod:`repro.sim.markov` — continuous-time Markov MTTDL models.
* :mod:`repro.sim.montecarlo` — system-lifetime Monte-Carlo, cross-checking
  the Markov results and capturing what the chains abstract away.
* :mod:`repro.sim.columnar` — the shared columnar Monte-Carlo core:
  per-trial counter-based draw lanes both kernel families read
  (sampling plane vs. exact event-replay plane) and the one lockstep
  renewal screen the lifecycle and fleet kernels run.
* :mod:`repro.sim.lifecycle` — full-lifecycle Monte-Carlo whose repair
  durations are *derived from the layout* (every failure arrival re-plans
  the pattern and reads its rebuild clock from the rebuild simulator),
  coupling recovery speed to reliability instead of assuming an MTTR.
  One simulate function; its lockstep columnar screen decides which
  trials reach the exact event walk, never the result.
* :mod:`repro.sim.serve` — online serving: foreground request streams
  contending with throttled rebuild traffic on per-disk queues (also
  exposed as :mod:`repro.serve`).
* :mod:`repro.sim.fleet` — fleet-scale rare-event kernel: thousands of
  arrays streamed through the columnar core in fixed chunks with
  globally-keyed draw lanes, optional importance sampling on failure
  rates, and flat-memory streaming aggregation.
* :mod:`repro.sim.parallel` — the chunk driver (``run_chunks``) under
  every ``simulate_*`` function's ``jobs=`` argument, plus the
  fault-pattern sweep and ``parallel_map``: process fan-out that is
  bit-identical for any worker count.
"""

from repro.sim.columnar import (
    LifecycleTables,
    TrialStreams,
)
from repro.sim.engine import Event, FcfsServer, Simulator
from repro.sim.fleet import (
    FLEET_CHUNK_MISSIONS,
    FleetResult,
    simulate_fleet,
)
from repro.sim.latency import LatencyModel
from repro.sim.lifecycle import (
    LifecycleResult,
    RebuildTimer,
    derived_markov_model,
    derived_mttr,
    guaranteed_tolerance,
    simulate_lifecycle,
)
from repro.sim.markov import MarkovReliabilityModel, mttdl_raid5_array
from repro.sim.montecarlo import LifetimeResult, simulate_lifetimes
from repro.sim.parallel import default_jobs, parallel_map
from repro.sim.rebuild import (
    DiskModel,
    RebuildResult,
    analytic_rebuild_time,
    simulate_rebuild,
)
from repro.sim.pool import pool_stats, shutdown_pool
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

__all__ = [
    "Simulator",
    "Event",
    "FcfsServer",
    "DiskModel",
    "RebuildResult",
    "analytic_rebuild_time",
    "simulate_rebuild",
    "MarkovReliabilityModel",
    "mttdl_raid5_array",
    "LatencyModel",
    "simulate_lifetimes",
    "parallel_map",
    "default_jobs",
    "pool_stats",
    "shutdown_pool",
    "LifetimeResult",
    "LifecycleResult",
    "RebuildTimer",
    "derived_markov_model",
    "derived_mttr",
    "guaranteed_tolerance",
    "simulate_lifecycle",
    "TrialStreams",
    "LifecycleTables",
    "FleetResult",
    "FLEET_CHUNK_MISSIONS",
    "simulate_fleet",
    "ThrottlePolicy",
    "FixedRateThrottle",
    "IdleSlotThrottle",
    "AdaptiveThrottle",
    "ServeResult",
    "ServeTables",
    "build_serve_tables",
    "simulate_serve",
    "serve_batch_supported",
]
