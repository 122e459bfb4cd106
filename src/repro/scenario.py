"""One front door for every simulation: ``Scenario`` in, result out.

Five simulators grew up in this reproduction — rebuild timing
(:mod:`repro.sim.rebuild`), Monte-Carlo lifetimes
(:mod:`repro.sim.montecarlo`), the coupled lifecycle model
(:mod:`repro.sim.lifecycle`), the fleet kernel (:mod:`repro.sim.fleet`)
and the online serving simulator (:mod:`repro.sim.serve`) — one function
each, the chunked four sharing ``seed`` / ``jobs`` / ``telemetry`` /
``progress`` and differing in their physics arguments. A
:class:`Scenario` captures the shared vocabulary once (layout, disk
model, workload, fault schedule, seed, jobs, telemetry) plus the few
kind-specific knobs, and :func:`run` dispatches to the right simulator:

    >>> from repro import Scenario, run, oi_raid
    >>> result = run(Scenario(kind="serve", layout=oi_raid(7, 3),
    ...                       faults=(0,), trials=2))
    >>> result.p99_ms  # doctest: +SKIP

The CLI subcommands (``rebuild``, ``reliability``, ``lifecycle``,
``serve``, ``fleet``) are thin wrappers that parse flags into a ``Scenario`` and
call :func:`run` — so scripting an experiment and typing it at the shell
exercise the identical code path, and every result comes back speaking
the common protocol of :mod:`repro.results`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.obs.emit import check_writable
from repro.obs.ledger import RunLedger, run_manifest
from repro.obs.prof import ambient_profiler
from repro.obs.telemetry import Telemetry
from repro.sim.columnar import KERNELS
from repro.sim.latency import LatencyModel
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import guaranteed_tolerance, simulate_lifecycle
from repro.sim.montecarlo import recoverability_oracle, simulate_lifetimes
from repro.sim.rebuild import (
    DiskModel,
    analytic_rebuild_time,
    simulate_rebuild,
)
from repro.sim.serve import ThrottlePolicy, simulate_serve
from repro.schemes import build_scheme_layout
from repro.workloads.arrivals import ArrivalProcess, OpenLoop
from repro.workloads.generators import WorkloadSpec

#: The simulation kinds :func:`run` dispatches on.
SCENARIO_KINDS = ("rebuild", "reliability", "lifecycle", "serve", "fleet")


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative description of one simulation run.

    Shared fields apply to every kind; the rest are read only by the
    kinds that need them (documented per field). Unused fields are
    simply ignored, so one scenario can be :func:`dataclasses.replace`-d
    across kinds to keep an experiment's geometry identical.

    A scenario names its array either directly (``layout=``) or through
    the scheme registry (``scheme="lrc"`` plus optional
    ``scheme_params``). When ``scheme`` is set it is authoritative: the
    ``layout`` field is derived from the registry at construction (and
    re-derived on :func:`dataclasses.replace`, deterministically), and
    parameter names are validated against the scheme's declared knobs.

    Attributes:
        kind: one of :data:`SCENARIO_KINDS`.
        layout: the array geometry under test; leave ``None`` when
            building through ``scheme`` (it is then filled in from the
            registry).
        scheme: registered scheme name
            (:func:`repro.schemes.scheme_names`) to build ``layout``
            from.
        scheme_params: geometry keys (``groups``, ``stripe_width``,
            ``group_size``) plus the scheme's own knobs, forwarded to
            :func:`repro.schemes.build_scheme_layout`.
        disk: capacity/bandwidth model (rebuild, lifecycle).
        latency: per-request service model (serve).
        workload: foreground request recipe (serve).
        arrival: foreground arrival process (serve).
        faults: failed-disk pattern (rebuild, serve).
        throttle: rebuild-injection policy (serve; ``None`` = no
            rebuild traffic).
        sparing: ``distributed`` or ``dedicated`` (rebuild, lifecycle,
            serve).
        rebuild_method: ``analytic`` or ``event`` rebuild clock
            (rebuild, lifecycle).
        rebuild_batches: plan tilings injected per trial (serve) or
            event-sim batches (rebuild, lifecycle).
        mttf_hours: per-disk mean time to failure (reliability,
            lifecycle).
        mttr_hours: exogenous repair time (reliability only — the
            lifecycle kind derives repair times from the layout).
        horizon_hours: mission length (reliability, lifecycle).
        lse_rate_per_byte: latent-sector-error rate (lifecycle, fleet).
        arrays: identical arrays in the fleet (fleet only).
        lambda_boost: importance-sampling failure-rate inflation
            (fleet only) — missions sample lifetimes at
            ``lambda_boost / mttf_hours`` and are reweighted by the
            exact likelihood ratio, so estimates stay unbiased for the
            nominal rate; ``1.0`` is plain Monte-Carlo.
        trials: replications (reliability, lifecycle, serve) or
            missions per array (fleet).
        seed: base RNG seed (``None`` = nondeterministic).
        jobs: worker processes; results are bit-identical for any value.
        mc_kernel: Monte-Carlo kernel (reliability, lifecycle) —
            ``auto`` is the numpy-vectorized kernel,
            ``vectorized``/``event`` force one. Both kernels of either
            simulator read one sampling plane, so the choice changes
            wall clock only, never a bit of the result or its telemetry.
        serve_kernel: serving kernel (serve only) — ``auto`` is the
            vectorized queue sweep, ``vectorized``/``event`` force one.
            Both serve kernels read
            one sampling plane, so the choice changes wall clock only,
            never a bit of the result or its telemetry.
        telemetry: collecting telemetry, or ``None`` for the ambient
            default.
    """

    kind: str
    layout: Optional[Layout] = None
    scheme: Optional[str] = None
    scheme_params: Mapping[str, object] = field(default_factory=dict)
    disk: DiskModel = field(default_factory=DiskModel)
    latency: LatencyModel = field(default_factory=LatencyModel)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrival: ArrivalProcess = field(default_factory=OpenLoop)
    faults: Tuple[int, ...] = ()
    throttle: Optional[ThrottlePolicy] = None
    sparing: str = "distributed"
    rebuild_method: str = "analytic"
    rebuild_batches: int = 1
    mttf_hours: float = 100_000.0
    mttr_hours: float = 24.0
    horizon_hours: float = 87_660.0
    lse_rate_per_byte: float = 0.0
    arrays: int = 100
    lambda_boost: float = 1.0
    trials: int = 100
    seed: Optional[int] = 0
    jobs: int = 1
    mc_kernel: str = "auto"
    serve_kernel: str = "auto"
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise SimulationError(
                f"unknown scenario kind {self.kind!r} "
                f"(expected one of {SCENARIO_KINDS})"
            )
        if self.mc_kernel not in KERNELS:
            raise SimulationError(
                f"unknown mc_kernel {self.mc_kernel!r} "
                f"(expected one of {KERNELS})"
            )
        if self.serve_kernel not in KERNELS:
            raise SimulationError(
                f"unknown serve_kernel {self.serve_kernel!r} "
                f"(expected one of {KERNELS})"
            )
        if self.scheme is not None:
            built = build_scheme_layout(self.scheme, **self.scheme_params)
            object.__setattr__(self, "layout", built)
        elif self.layout is None:
            raise SimulationError(
                "a Scenario needs an array: pass layout= or scheme="
            )
        elif self.scheme_params:
            raise SimulationError(
                "scheme_params only applies when building via scheme="
            )

    def with_kind(self, kind: str) -> "Scenario":
        """The same scenario re-aimed at a different simulator."""
        return replace(self, kind=kind)


def _run_rebuild(scenario: Scenario, progress):
    faults = scenario.faults or (0,)
    if scenario.rebuild_method == "event":
        return simulate_rebuild(
            scenario.layout,
            faults,
            scenario.disk,
            sparing=scenario.sparing,
            batches=scenario.rebuild_batches,
        )
    return analytic_rebuild_time(
        scenario.layout, faults, scenario.disk, sparing=scenario.sparing
    )


def _run_reliability(scenario: Scenario, progress):
    layout = scenario.layout
    oracle = recoverability_oracle(layout, guaranteed_tolerance(layout))
    return simulate_lifetimes(
        layout.n_disks,
        scenario.mttf_hours,
        scenario.mttr_hours,
        oracle,
        scenario.horizon_hours,
        trials=scenario.trials,
        seed=scenario.seed,
        jobs=scenario.jobs,
        kernel=scenario.mc_kernel,
        telemetry=scenario.telemetry,
        progress=progress,
    )


def _run_lifecycle(scenario: Scenario, progress):
    return simulate_lifecycle(
        scenario.layout,
        scenario.mttf_hours,
        scenario.horizon_hours,
        disk=scenario.disk,
        sparing=scenario.sparing,
        method=scenario.rebuild_method,
        batches=max(scenario.rebuild_batches, 8),
        lse_rate_per_byte=scenario.lse_rate_per_byte,
        trials=scenario.trials,
        seed=scenario.seed,
        jobs=scenario.jobs,
        kernel=scenario.mc_kernel,
        telemetry=scenario.telemetry,
        progress=progress,
    )


def _run_serve(scenario: Scenario, progress):
    return simulate_serve(
        scenario.layout,
        scenario.workload,
        failed_disks=scenario.faults,
        arrival=scenario.arrival,
        model=scenario.latency,
        throttle=scenario.throttle,
        sparing=scenario.sparing,
        rebuild_batches=scenario.rebuild_batches,
        trials=scenario.trials,
        kernel=scenario.serve_kernel,
        seed=scenario.seed,
        jobs=scenario.jobs,
        telemetry=scenario.telemetry,
        progress=progress,
    )


def _run_fleet(scenario: Scenario, progress):
    return simulate_fleet(
        scenario.layout,
        scenario.mttf_hours,
        scenario.horizon_hours,
        disk=scenario.disk,
        sparing=scenario.sparing,
        method=scenario.rebuild_method,
        batches=max(scenario.rebuild_batches, 8),
        lse_rate_per_byte=scenario.lse_rate_per_byte,
        arrays=scenario.arrays,
        trials=scenario.trials,
        lambda_boost=scenario.lambda_boost,
        seed=scenario.seed,
        jobs=scenario.jobs,
        telemetry=scenario.telemetry,
        progress=progress,
    )


_RUNNERS: Dict[str, Callable] = {
    "rebuild": _run_rebuild,
    "reliability": _run_reliability,
    "lifecycle": _run_lifecycle,
    "serve": _run_serve,
    "fleet": _run_fleet,
}


def scenario_config(scenario: Scenario) -> Dict[str, object]:
    """The JSON-able configuration document the run ledger fingerprints.

    Seed and jobs are deliberately excluded — they are recorded as
    separate manifest fields, so runs of the same experiment at
    different seeds (or worker counts) share a
    :func:`~repro.obs.ledger.config_fingerprint` and group together in
    ``repro runs list``. Model objects are captured by their dataclass
    ``repr``, which is stable for a fixed configuration.
    """
    throttle = scenario.throttle
    return {
        "kind": scenario.kind,
        "layout": scenario.layout.describe(),
        "scheme": scenario.scheme,
        "scheme_params": dict(scenario.scheme_params),
        "disk": repr(scenario.disk),
        "latency": repr(scenario.latency),
        "workload": repr(scenario.workload),
        "arrival": repr(scenario.arrival),
        "faults": list(scenario.faults),
        "throttle": repr(throttle) if throttle is not None else None,
        "sparing": scenario.sparing,
        "rebuild_method": scenario.rebuild_method,
        "rebuild_batches": scenario.rebuild_batches,
        "mttf_hours": scenario.mttf_hours,
        "mttr_hours": scenario.mttr_hours,
        "horizon_hours": scenario.horizon_hours,
        "lse_rate_per_byte": scenario.lse_rate_per_byte,
        "arrays": scenario.arrays,
        "lambda_boost": scenario.lambda_boost,
        "trials": scenario.trials,
        "mc_kernel": scenario.mc_kernel,
        "serve_kernel": scenario.serve_kernel,
    }


def run(scenario: Scenario, progress: Optional[Callable] = None):
    """Execute *scenario* with the simulator its ``kind`` names.

    Returns the kind's native result — ``RebuildResult``,
    ``LifetimeResult``, ``LifecycleResult``, ``ServeResult``, or
    ``FleetResult`` — every
    one of which speaks the :mod:`repro.results` protocol
    (``to_dict``/``from_dict``/``summary``). *progress*, when given, is
    forwarded to the chunked simulators' per-chunk callback
    (:data:`~repro.sim.parallel.ProgressCallback`).

    When the ``REPRO_LEDGER`` environment variable names a file, every
    call appends one provenance manifest to it — config fingerprint,
    seed, jobs, kernel, wall seconds, result digest and summary, plus
    the ambient profiler's phase breakdown when profiling is on (see
    :mod:`repro.obs.ledger`). Ledger writes never change the result.
    """
    ledger = RunLedger.from_env()
    if ledger is None:
        return _RUNNERS[scenario.kind](scenario, progress)
    check_writable(ledger.path)
    start = time.perf_counter()
    result = _RUNNERS[scenario.kind](scenario, progress)
    seconds = time.perf_counter() - start
    to_dict = getattr(result, "to_dict", None)
    summary = getattr(result, "summary", None)
    # The kernel flag the kind actually read; rebuild and fleet have none.
    kernel = {
        "reliability": scenario.mc_kernel,
        "lifecycle": scenario.mc_kernel,
        "serve": scenario.serve_kernel,
    }.get(scenario.kind)
    ledger.append(
        run_manifest(
            scenario.kind,
            scenario_config(scenario),
            seed=scenario.seed,
            jobs=scenario.jobs,
            kernel=kernel,
            seconds=seconds,
            result_doc=to_dict() if to_dict is not None else None,
            summary=summary() if summary is not None else None,
            profiler=ambient_profiler(),
        )
    )
    return result
