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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import SimulationError
from repro.layouts.base import Layout
from repro.obs.emit import check_writable
from repro.obs.ledger import RunLedger, profile_mark, run_manifest
from repro.obs.telemetry import Telemetry, ambient
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
        disk: capacity/bandwidth model (rebuild, lifecycle, fleet).
        latency: per-request service model (serve).
        workload: foreground request recipe (serve).
        arrival: foreground arrival process (serve).
        faults: failed-disk pattern (rebuild, serve).
        throttle: rebuild-injection policy (serve; ``None`` = no
            rebuild traffic).
        sparing: ``distributed`` or ``dedicated`` (rebuild, lifecycle,
            fleet, serve).
        rebuild_method: ``analytic`` or ``event`` rebuild clock
            (rebuild, lifecycle, fleet).
        rebuild_batches: plan tilings injected per trial (serve) or
            event-sim batches (rebuild, lifecycle, fleet).
        mttf_hours: per-disk mean time to failure (reliability,
            lifecycle, fleet).
        mttr_hours: exogenous repair time (reliability only — the
            lifecycle and fleet kinds derive repair times from the
            layout).
        horizon_hours: mission length (reliability, lifecycle, fleet).
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
            vectorized queue sweep; the choices and the wall-clock-only
            contract are ``mc_kernel``'s.
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
        for name in ("mc_kernel", "serve_kernel"):
            if getattr(self, name) not in KERNELS:
                raise SimulationError(
                    f"unknown {name} {getattr(self, name)!r} "
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


def _rebuild_call(s: Scenario):
    args = (s.layout, s.faults or (0,), s.disk)
    if s.rebuild_method == "event":
        return simulate_rebuild, args, dict(
            sparing=s.sparing, batches=s.rebuild_batches
        )
    return analytic_rebuild_time, args, dict(sparing=s.sparing)


def _reliability_call(s: Scenario):
    layout = s.layout
    oracle = recoverability_oracle(layout, guaranteed_tolerance(layout))
    return simulate_lifetimes, (
        layout.n_disks, s.mttf_hours, s.mttr_hours, oracle, s.horizon_hours,
    ), {}


def _mission_call(s: Scenario, simulate: Callable, **extra):
    """Lifecycle and fleet read one mission physics; fleet adds *extra*."""
    return simulate, (s.layout, s.mttf_hours, s.horizon_hours), dict(
        disk=s.disk,
        sparing=s.sparing,
        method=s.rebuild_method,
        batches=max(s.rebuild_batches, 8),
        lse_rate_per_byte=s.lse_rate_per_byte,
        **extra,
    )


def _serve_call(s: Scenario):
    return simulate_serve, (s.layout, s.workload), dict(
        failed_disks=s.faults,
        arrival=s.arrival,
        model=s.latency,
        throttle=s.throttle,
        sparing=s.sparing,
        rebuild_batches=s.rebuild_batches,
    )


#: kind -> (the simulator call its physics fields describe, the
#: ``Scenario`` field holding the kernel flag the kind reads — rebuild
#: and fleet have none).
_KINDS: Dict[str, Tuple[Callable, Optional[str]]] = {
    "rebuild": (_rebuild_call, None),
    "reliability": (_reliability_call, "mc_kernel"),
    "lifecycle": (lambda s: _mission_call(s, simulate_lifecycle), "mc_kernel"),
    "serve": (_serve_call, "serve_kernel"),
    "fleet": (
        lambda s: _mission_call(
            s, simulate_fleet, arrays=s.arrays, lambda_boost=s.lambda_boost
        ),
        None,
    ),
}


def _simulate(scenario: Scenario, progress: Optional[Callable]):
    call, kernel_field = _KINDS[scenario.kind]
    simulate, args, kwargs = call(scenario)
    if scenario.kind != "rebuild":  # the four chunked simulators
        kwargs.update(
            trials=scenario.trials,
            seed=scenario.seed,
            jobs=scenario.jobs,
            telemetry=scenario.telemetry,
            progress=progress,
        )
    if kernel_field is not None:
        kwargs["kernel"] = getattr(scenario, kernel_field)
    return simulate(*args, **kwargs)


#: ``Scenario`` fields left out of :func:`scenario_config`.
_NOT_CONFIG = ("seed", "jobs", "telemetry")


def _config_value(value: object) -> object:
    if isinstance(value, Layout):
        return value.describe()
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, tuple):
        return list(value)
    if value is None or isinstance(value, (str, int, float)):
        return value
    return repr(value)  # model objects


def scenario_config(scenario: Scenario) -> Dict[str, object]:
    """The JSON-able configuration document the run ledger fingerprints.

    One key per :class:`Scenario` field, so a new field cannot be
    missed. Seed and jobs are deliberately excluded — they are recorded
    as separate manifest fields, so runs of the same experiment at
    different seeds (or worker counts) share a
    :func:`~repro.obs.ledger.config_fingerprint` and group together in
    ``repro runs list``. Model objects are captured by their dataclass
    ``repr``, which is stable for a fixed configuration.
    """
    return {
        f.name: _config_value(getattr(scenario, f.name))
        for f in fields(Scenario)
        if f.name not in _NOT_CONFIG
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
    the run's own phase breakdown when the ambient telemetry is profiling
    (see :mod:`repro.obs.ledger`). Ledger writes never change the result.
    """
    ledger = RunLedger.from_env()
    if ledger is None:
        return _simulate(scenario, progress)
    check_writable(ledger.path)
    before = profile_mark(ambient())
    start = time.perf_counter()
    result = _simulate(scenario, progress)
    seconds = time.perf_counter() - start
    kernel_field = _KINDS[scenario.kind][1]
    ledger.append(
        run_manifest(
            scenario.kind,
            scenario_config(scenario),
            seed=scenario.seed,
            jobs=scenario.jobs,
            kernel=kernel_field and getattr(scenario, kernel_field),
            seconds=seconds,
            result_doc=result.to_dict(),
            summary=result.summary(),
            telemetry=ambient(),
            since=before,
        )
    )
    return result
