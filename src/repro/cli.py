"""Command-line interface: ``python -m repro <command>``.

Gives operators the planning surface without writing Python:

* ``info``        — properties of one OI-RAID configuration
* ``designs``     — the constructible configuration space for a stripe width
* ``plan``        — recovery plan summary for a failure pattern
* ``tolerance``   — survivable-fraction profile (enumerated/sampled)
* ``rebuild``     — rebuild wall-clock under a disk model
* ``reliability`` — Monte-Carlo lifetime simulation with the exact oracle
* ``lifecycle``   — coupled lifecycle simulation: repair times derived
  from the layout's own recovery plans (no exogenous MTTR), with a
  derived-μ Markov cross-check
* ``fleet``       — fleet-scale rare-event lifecycle simulation:
  thousands of arrays over long missions, streamed through the columnar
  core with optional importance sampling (``--boost``) on failure rates
* ``serve``       — online serving simulation: a foreground workload
  contending with throttled rebuild traffic on per-disk queues
* ``report``      — pretty-print (and validate) telemetry files saved
  by ``--metrics-out`` / ``--trace-out`` / ``--profile-out``
* ``runs``        — inspect the provenance ledger (``list``/``show``/
  ``diff`` over the JSONL file named by ``--ledger`` or
  ``$REPRO_LEDGER``)

The simulation subcommands (``rebuild``, ``reliability``, ``lifecycle``,
``fleet``, ``serve``) are one command, :func:`_cmd_simulate`: the parsed
flags become a :class:`repro.scenario.Scenario` (:func:`_scenario_from`),
:func:`repro.scenario.run` dispatches on the kind, and only the printed
table is per kind — so shell runs and scripted runs share one code path.
Every one of them takes ``--scheme`` (any name in the
:data:`repro.schemes.SCHEME_REGISTRY`) built on the shared
``-v``/``-k``/``-g`` geometry, plus repeatable ``--scheme-param
KEY=VALUE`` overrides for the scheme's declared knobs.
The compute-heavy ones accept ``--jobs N`` to fan the work across N
worker processes (default: the ``REPRO_JOBS`` environment variable when
set, else serial); results are bit-identical for every N (deterministic
per-chunk seeding). Workers come from one persistent per-process pool,
so repeated sweeps in the same process reuse warm workers.

Global flags (before the subcommand): ``--metrics-out FILE`` /
``--trace-out FILE`` collect telemetry for the run (worker-merged, also
deterministic per N); ``--profile-out FILE`` profiles its kernel phases
(chunk-merged, deterministic per N) and writes the profile document,
with run-level tracemalloc peak memory — one ``Telemetry`` holds
whichever of the two the flags ask for; ``-v`` turns on INFO
logging plus stderr progress heartbeats for the Monte-Carlo runs
(``-vv`` for DEBUG), ``-q`` silences everything below ERROR. Stdout
carries only the command's output.

Exit codes are uniform: 0 success, 1 domain error (anything raising
:class:`~repro.errors.ReproError`, reported on stderr), 2 usage error
(argparse rejection).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import logging
import pathlib
import sys
import tracemalloc
from typing import Dict, List, Optional, Tuple

from repro.analysis.speedup import measured_speedup
from repro.bench.tables import format_table
from repro.core.oi_layout import oi_raid
from repro.core.recovery import recovery_summary
from repro.core.tolerance import tolerance_profile
from repro.design.catalog import available_designs
from repro.errors import ReproError
from repro.obs import (
    Heartbeat,
    MetricsRegistry,
    RunLedger,
    Telemetry,
    ambient,
    load_telemetry_file,
    use_telemetry,
)
from repro.obs.emit import check_writable, writing
from repro.scenario import Scenario, run as run_scenario
from repro.schemes import build_scheme_layout, scheme, scheme_names
from repro.sim.latency import LatencyModel
from repro.sim.columnar import KERNELS
from repro.sim.lifecycle import derived_markov_model, derived_mttr
from repro.sim.parallel import default_jobs
from repro.sim.rebuild import DiskModel
from repro.sim.serve import (
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
)
from repro.util.checks import check_finite
from repro.util.units import format_duration
from repro.workloads import ClosedLoop, OpenLoop, WorkloadSpec

logger = logging.getLogger("repro.cli")


_JOBS_HELP = ("worker processes for {} (default: $REPRO_JOBS if set, "
              "else serial; result identical for any N)")


def _flag(*option_strings: str, **kwargs) -> Tuple[tuple, dict]:
    """One ``add_argument`` call's arguments, held for :func:`_add_flags`."""
    return option_strings, kwargs


#: Every flag and positional of every subcommand, declared once under its
#: dest name. A subcommand names the ones it takes, in ``--help`` order,
#: and overrides per use only what really differs there
#: (:func:`_add_flags`). Where a flag *is* a ``Scenario`` field, its dest
#: and default are the field's.
_FLAGS: Dict[str, Tuple[tuple, dict]] = {
    # global, before the subcommand
    "verbose": _flag(
        "-v", "--verbose", action="count", default=0,
        help="INFO logging + stderr progress heartbeats (-vv for DEBUG)"),
    "quiet": _flag("-q", "--quiet", action="store_true",
                   help="only ERROR-level diagnostics on stderr"),
    "metrics_out": _flag(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run's merged metrics registry as JSON"),
    "trace_out": _flag(
        "--trace-out", metavar="FILE", default=None,
        help="write spans + sim events (Chrome trace JSON, or JSONL if "
             "FILE ends in .jsonl)"),
    "profile_out": _flag(
        "--profile-out", metavar="FILE", default=None,
        help="enable the kernel phase profiler and write its profile "
             "document (phases, counters, series, peak memory) as JSON"),
    # array geometry and scheme
    "groups": _flag("-v", "--groups", type=int, required=True,
                    help="number of disk groups (BIBD points)"),
    "stripe_width": _flag("-k", "--stripe-width", type=int, required=True,
                          help="outer stripe width (BIBD block size)"),
    "group_size": _flag("-g", "--group-size", type=int, default=None,
                        help="disks per group (default: smallest prime >= k)"),
    "outer_parities": _flag("--outer-parities", type=int, default=1),
    "inner_parities": _flag("--inner-parities", type=int, default=1),
    "no_skew": _flag("--no-skew", action="store_true",
                     help="build the aligned ablation layout"),
    "scheme": _flag(
        "--scheme", default="oi",
        help="registered redundancy scheme to build on the "
             "-v/-k/-g geometry (default: the paper's OI-RAID)"),
    "scheme_param": _flag(
        "--scheme-param", action="append", default=None, metavar="KEY=VALUE",
        help="override one of the scheme's declared knobs (repeatable; "
             "e.g. --scheme-param global_parities=3)"),
    "max_groups": _flag("--max-groups", type=int, default=40),
    "failed": _flag("-f", "--failed", type=int, nargs="+"),
    "max_failures": _flag("--max-failures", type=int, default=4),
    "samples": _flag("--samples", type=int, default=500,
                     help="patterns sampled per size (0 = exhaustive)"),
    # mission physics
    "mttf_hours": _flag(
        "--mttf-hours", type=float, default=Scenario.mttf_hours,
        help="per-disk mean time to failure"),
    "mttr_hours": _flag(
        "--mttr-hours", type=float, default=Scenario.mttr_hours,
        help="per-disk mean time to repair"),
    "horizon_hours": _flag(
        "--horizon-hours", type=float, default=Scenario.horizon_hours,
        help="mission length (default: 10 years)"),
    "sparing": _flag("--sparing", choices=["distributed", "dedicated"],
                     default=Scenario.sparing),
    "rebuild_method": _flag(
        "--rebuild-model", dest="rebuild_method",
        choices=["analytic", "event"], default=Scenario.rebuild_method,
        help="rebuild clock: bandwidth bound or event-driven"),
    "capacity_tb": _flag("--capacity-tb", type=float, default=4.0),
    "bandwidth_mib": _flag("--bandwidth-mib", type=float, default=100.0),
    "foreground": _flag("--foreground", type=float, default=0.0,
                        help="fraction of bandwidth reserved for user I/O"),
    "lse_rate_per_byte": _flag(
        "--lse-rate", dest="lse_rate_per_byte", metavar="LSE_RATE",
        type=float, default=Scenario.lse_rate_per_byte,
        help="latent sector errors per byte read during "
             "rebuild (e.g. 1e-15)"),
    "arrays": _flag("--arrays", type=int, default=Scenario.arrays,
                    help="identical arrays in the fleet"),
    "lambda_boost": _flag(
        "--boost", dest="lambda_boost", metavar="BOOST", type=float,
        default=Scenario.lambda_boost,
        help="importance-sampling failure-rate inflation: "
             "sample at boost/MTTF, reweight by the exact "
             "likelihood ratio (1.0 = naive Monte-Carlo; "
             "useful range ~1.2-1.8 — the per-draw weight "
             "variance diverges at 2.0)"),
    # online serving
    "requests": _flag("--requests", type=int, default=2000,
                      help="foreground requests per trial"),
    "workload": _flag("--workload", choices=["uniform", "zipf", "sequential"],
                      default="uniform"),
    "write_fraction": _flag("--write-fraction", type=float, default=0.0),
    "skew": _flag("--skew", type=float, default=1.1,
                  help="zipf exponent (zipf workload only)"),
    "rate": _flag("--rate", type=float, default=100.0,
                  help="open-loop arrival rate (requests/s)"),
    "clients": _flag("--clients", type=int, default=0,
                     help="closed-loop client count (overrides --rate)"),
    "think_ms": _flag("--think-ms", type=float, default=0.0,
                      help="closed-loop think time between requests"),
    "throttle": _flag(
        "--throttle", choices=["none", "fixed", "idle", "adaptive"],
        default="none",
        help="rebuild injection policy (none = no rebuild traffic)"),
    "rebuild_rate": _flag("--rebuild-rate", type=float, default=100.0,
                          help="fixed-throttle dispatch rate (ops/s)"),
    "target_p99_ms": _flag("--target-p99-ms", type=float, default=20.0,
                           help="adaptive-throttle foreground p99 SLO"),
    "rebuild_batches": _flag(
        "--rebuild-batches", type=int, default=Scenario.rebuild_batches,
        help="times the recovery plan is tiled per trial"),
    "seek_ms": _flag("--seek-ms", type=float, default=5.0),
    "unit_kib": _flag("--unit-kib", type=float, default=64.0),
    # the run (--trials and --mc-kernel get default resp. help per use)
    "trials": _flag("--trials", type=int),
    "seed": _flag("--seed", type=int, default=Scenario.seed),
    "mc_kernel": _flag("--mc-kernel", choices=KERNELS,
                       default=Scenario.mc_kernel),
    "serve_kernel": _flag(
        "--serve-kernel", choices=KERNELS, default=Scenario.serve_kernel,
        help="serving kernel: auto is the vectorized queue sweep; both "
             "kernels produce bit-identical results"),
    "jobs": _flag("--jobs", type=int, default=None,
                  help=_JOBS_HELP.format("the Monte-Carlo fan-out")),
    # report / runs
    "files": _flag("files", nargs="+", metavar="FILE"),
    "check": _flag("--check", action="store_true",
                   help="validate against the telemetry schema and exit"),
    "ledger": _flag("--ledger", metavar="FILE", default=None,
                    help="ledger JSONL file (default: $REPRO_LEDGER)"),
    "index": _flag(
        "index", type=int, nargs="?", default=-1,
        help="record index from `runs list` (negative counts from the "
             "end; default: the last record)"),
    "a": _flag("a", type=int, nargs="?", default=-2,
               help="first record index (default: second-to-last)"),
    "b": _flag("b", type=int, nargs="?", default=-1,
               help="second record index (default: last)"),
}

_LAYOUT = (
    "groups", "stripe_width", "group_size", "outer_parities",
    "inner_parities", "no_skew",
)
_DISK = ("capacity_tb", "bandwidth_mib", "foreground")


def _add_flags(parser: argparse.ArgumentParser, names, **overrides) -> None:
    """Add the named :data:`_FLAGS` in order; *overrides* maps a name to
    the ``add_argument`` kwargs this one use changes."""
    for name in names:
        option_strings, kwargs = _FLAGS[name]
        parser.add_argument(
            *option_strings, **{**kwargs, **overrides.pop(name, {})}
        )
    assert not overrides, f"override of a flag not taken: {sorted(overrides)}"


def _coerce_param(text: str) -> object:
    """Parse a ``--scheme-param`` value: bool, int, float, else string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _scheme_params_from(args: argparse.Namespace) -> Dict[str, object]:
    """The ``Scenario.scheme_params`` mapping the parsed flags describe.

    A subcommand without ``--scheme`` means ``oi``. Geometry always
    passes through; the legacy OI knob flags
    (``--outer-parities``/``--inner-parities``/``--no-skew``) are
    forwarded only when the selected scheme declares them, so
    ``--scheme raid50`` does not trip the registry's strict parameter
    validation. Explicit ``--scheme-param KEY=VALUE`` overrides win and
    *are* validated against the scheme's declared knobs.
    """
    params: Dict[str, object] = {
        "groups": args.groups,
        "stripe_width": args.stripe_width,
        "group_size": args.group_size,
    }
    declared = scheme(getattr(args, "scheme", "oi")).params
    for name, value in (
        ("outer_parities", args.outer_parities),
        ("inner_parities", args.inner_parities),
        ("skewed", not args.no_skew),
    ):
        if name in declared:
            params[name] = value
    for item in getattr(args, "scheme_param", None) or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ReproError(
                f"--scheme-param expects KEY=VALUE, got {item!r}"
            )
        params[key.strip().replace("-", "_")] = _coerce_param(value.strip())
    return params


def _layout_from(args: argparse.Namespace):
    """The OI-RAID layout of a subcommand that takes no ``--scheme``."""
    return build_scheme_layout("oi", **_scheme_params_from(args))


def _progress_for(args: argparse.Namespace) -> Optional[Heartbeat]:
    """A stderr heartbeat for long Monte-Carlo runs, when ``-v`` is on.

    When the ambient telemetry is profiling, the heartbeat subscribes to
    its phase transitions so the rate window resets at kernel phase
    boundaries (screen -> replay) instead of averaging across them.
    """
    if getattr(args, "verbose", 0):
        heartbeat = Heartbeat(label="trials")
        tel = ambient()
        if tel.profiling:
            tel.on_phase = heartbeat.on_phase
        return heartbeat
    return None


def _resolve_jobs(args: argparse.Namespace) -> None:
    """The worker count: explicit ``--jobs`` wins, else ``$REPRO_JOBS``.

    Mutates ``args.jobs`` so every later use (the ``Scenario``, report
    rows) sees the resolved value; a subcommand without ``--jobs`` is
    left alone. Raises ``SimulationError`` when the environment variable
    is set to something that isn't a positive integer.
    """
    if getattr(args, "jobs", 1) is None:
        args.jobs = default_jobs()


def _disk_from(args: argparse.Namespace) -> DiskModel:
    """The capacity/bandwidth disk model shared by rebuild and lifecycle."""
    return DiskModel(
        capacity_bytes=args.capacity_tb * 1e12,
        bandwidth_bytes_per_s=args.bandwidth_mib * 1024 * 1024,
        foreground_fraction=args.foreground,
    )


def _latency_from(args: argparse.Namespace) -> LatencyModel:
    check_finite("unit_kib", args.unit_kib)  # before int() chokes on it
    return LatencyModel(
        seek_ms=args.seek_ms,
        unit_bytes=int(args.unit_kib * 1024),
        bandwidth_bytes_per_s=args.bandwidth_mib * 1024 * 1024,
    )


def _workload_from(args: argparse.Namespace) -> WorkloadSpec:
    return WorkloadSpec(
        kind=args.workload,
        n_requests=args.requests,
        write_fraction=args.write_fraction,
        skew=args.skew,
    )


def _arrival_from(args: argparse.Namespace):
    if args.clients:
        return ClosedLoop(args.clients, think_s=args.think_ms / 1000.0)
    return OpenLoop(args.rate)


def _throttle_from(args: argparse.Namespace):
    """The rebuild-injection policy the ``serve`` flags describe."""
    if args.throttle == "none":
        return None
    if args.throttle == "fixed":
        return FixedRateThrottle(args.rebuild_rate)
    if args.throttle == "idle":
        return IdleSlotThrottle()
    return AdaptiveThrottle(target_p99_ms=args.target_p99_ms)


#: ``Scenario`` fields built from several flags: field -> (the flag whose
#: presence says the subcommand sets the field, its builder).
_COMPOSITES = {
    "scheme_params": ("scheme", _scheme_params_from),
    "disk": ("capacity_tb", _disk_from),
    "latency": ("seek_ms", _latency_from),
    "workload": ("workload", _workload_from),
    "arrival": ("rate", _arrival_from),
    "faults": ("failed", lambda args: tuple(args.failed)),
    "throttle": ("throttle", _throttle_from),
}


def _scenario_from(args: argparse.Namespace) -> Scenario:
    """The ``Scenario`` a simulation subcommand's parsed flags describe.

    The subcommand is the kind; every other field is read off the flag
    of its name or built by its :data:`_COMPOSITES` entry, and a field
    the subcommand has no flag for keeps the ``Scenario`` default.
    """
    given = vars(args)
    values = {"kind": args.command}
    for field in dataclasses.fields(Scenario):
        flag, build = _COMPOSITES.get(field.name, (field.name, None))
        if flag in given:
            values[field.name] = build(args) if build else given[flag]
    return Scenario(**values)


def _cmd_info(args: argparse.Namespace) -> int:
    layout = _layout_from(args)
    rows = [[key, str(value)] for key, value in layout.describe().items()]
    rows.append(["guaranteed tolerance (bound)", str(layout.design_tolerance)])
    rows.append(["rebuild speedup vs RAID5", f"{measured_speedup(layout):.2f}x"])
    print(format_table(["property", "value"], rows, title="OI-RAID configuration"))
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    k = args.stripe_width
    if k < 2:
        raise ReproError(f"-k/--stripe-width must be >= 2, got {k}")
    entries = available_designs(k, max_v=args.max_groups)
    if not entries:
        raise ReproError(
            f"--max-groups {args.max_groups} is below the smallest "
            f"constructible design for k={k}"
        )
    rows = []
    for v, b, r in entries:
        layout = oi_raid(v, k)
        rows.append(
            [
                f"({v},{b},{r},{k},1)",
                layout.g,
                layout.n_disks,
                f"{layout.storage_efficiency:.1%}",
            ]
        )
    print(
        format_table(
            ["BIBD", "g", "disks", "efficiency"],
            rows,
            title=f"constructible designs for k={k}",
        )
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    layout = _layout_from(args)
    summary = recovery_summary(layout, args.failed)
    rows = [
        ["failed disks", str(list(summary.failed_disks))],
        ["units to regenerate", str(summary.recovered_units)],
        ["surviving disks reading", f"{summary.participating_disks}/{layout.n_disks - len(summary.failed_disks)}"],
        ["busiest disk reads", f"{summary.max_read_fraction:.1%} of capacity"],
        ["read amplification", f"{summary.read_amplification:.2f}x"],
        ["speedup vs RAID5", f"{summary.speedup_vs_raid5:.2f}x"],
        ["load CV", f"{summary.load_cv():.3f}"],
    ]
    print(format_table(["metric", "value"], rows, title="recovery plan"))
    return 0


def _cmd_tolerance(args: argparse.Namespace) -> int:
    layout = _layout_from(args)
    _resolve_jobs(args)
    profile = tolerance_profile(
        layout,
        max_failures=args.max_failures,
        max_patterns_per_size=args.samples or None,  # 0 = exhaustive
        jobs=args.jobs,
    )
    rows = [[f, fraction] for f, fraction in sorted(profile.items())]
    print(
        format_table(
            ["concurrent failures", "survivable fraction"],
            rows,
            title=f"tolerance profile (<= {args.samples or 'all'} patterns/size)",
        )
    )
    return 0


def _loss_rows(
    result, label: str = "P(loss before horizon)", spec: str = ".6f"
) -> List[list]:
    """The estimate, interval and MTTDL rows of a loss-probability table."""
    lo, hi = result.prob_loss_interval()
    mttdl = result.mttdl_estimate_hours
    return [
        [label, format(result.prob_loss, spec)],
        ["95% CI", f"[{lo:{spec}}, {hi:{spec}}]"],
        [
            "MTTDL estimate",
            "inf (no losses observed)"
            if mttdl == float("inf")
            else format_duration(mttdl * 3600.0),
        ],
    ]


# One report per simulation kind, ``(scenario, result, args)`` -> (title,
# rows); everything else such a subcommand does is :func:`_cmd_simulate`.


def _report_rebuild(scenario: Scenario, result, args):
    return "rebuild estimate", [
        ["failed disks", str(list(result.failed_disks))],
        ["rebuild time", format_duration(result.seconds)],
        ["RAID5-equivalent", format_duration(result.raid5_seconds)],
        ["speedup", f"{result.speedup_vs_raid5:.2f}x"],
        ["bytes read", f"{result.bytes_read / 1e12:.2f} TB"],
        ["bytes written", f"{result.bytes_written / 1e12:.2f} TB"],
    ]


def _report_reliability(scenario: Scenario, result, args):
    title = (
        f"Monte-Carlo lifetimes: MTTF {scenario.mttf_hours:.0f} h, "
        f"MTTR {scenario.mttr_hours:.0f} h, "
        f"mission {scenario.horizon_hours:.0f} h"
    )
    return title, [
        ["disks", str(scenario.layout.n_disks)],
        ["trials", str(result.trials)],
        ["losses", str(result.losses)],
        *_loss_rows(result),
    ]


def _report_lifecycle(scenario: Scenario, result, args):
    layout, disk = scenario.layout, scenario.disk
    sparing, method = scenario.sparing, scenario.rebuild_method
    mttr = derived_mttr(layout, disk, sparing, method)
    markov = derived_markov_model(
        layout, scenario.mttf_hours, disk=disk, sparing=sparing,
        method=method,
    )
    title = (
        f"coupled lifecycle ({scenario.scheme}, {sparing} sparing, "
        f"{method} rebuild): MTTF {scenario.mttf_hours:.0f} h, "
        f"mission {scenario.horizon_hours:.0f} h"
    )
    return title, [
        ["disks", str(layout.n_disks)],
        ["trials", str(result.trials)],
        ["derived MTTR (single failure)", format_duration(mttr * 3600.0)],
        ["losses", str(result.losses)],
        ["  of which latent-error losses", str(result.lse_losses)],
        *_loss_rows(result),
        [
            "Markov P(loss), derived mu",
            f"{markov.prob_loss_within(scenario.horizon_hours):.6f}",
        ],
        ["mean failures per mission", f"{result.mean_failures:.2f}"],
        ["mean repairs per mission", f"{result.mean_repairs:.2f}"],
        [
            "mean time degraded",
            format_duration(result.mean_degraded_hours * 3600.0),
        ],
        ["degraded fraction", f"{result.degraded_fraction:.4f}"],
        ["peak concurrent failures", str(result.max_peak_failures)],
    ]


def _report_fleet(scenario: Scenario, result, args):
    estimate, interval, mttdl = _loss_rows(
        result, "P(array loss before horizon)", ".3e"
    )
    title = (
        f"fleet lifecycle ({scenario.scheme}, {scenario.sparing} sparing): "
        f"{result.arrays} arrays, MTTF {scenario.mttf_hours:.0f} h, "
        f"mission {scenario.horizon_hours:.0f} h"
    )
    return title, [
        ["disks per array", str(scenario.layout.n_disks)],
        ["arrays", str(result.arrays)],
        ["missions (arrays x trials)", str(result.missions)],
        ["raw losses (sampling measure)", str(result.raw_losses)],
        ["  of which latent-error losses", str(result.lse_losses)],
        ["exact event replays", str(result.replays)],
        estimate,
        interval,
        ["P(any array loss in fleet)", f"{result.prob_any_loss:.4f}"],
        mttdl,
        ["lambda boost", f"{result.lambda_boost:.2f}"],
        [
            "effective sample size",
            f"{result.effective_sample_size:.0f} of {result.missions}",
        ],
        ["mean failures per mission", f"{result.mean_failures:.2f}"],
        ["peak concurrent failures", str(result.max_peak_failures)],
    ]


def _report_serve(scenario: Scenario, result, args):
    rebuild = (
        format_duration(result.rebuild_seconds)
        if result.rebuild_ops
        else "- (no rebuild traffic)"
    )
    title = (
        f"online serving ({scenario.scheme}, "
        f"{len(scenario.faults)} failed, throttle={args.throttle})"
    )
    return title, [
        ["trials", str(result.trials)],
        ["requests served", str(result.requests)],
        ["mean latency", f"{result.mean_ms:.2f} ms"],
        ["p50 latency", f"{result.p50_ms:.2f} ms"],
        ["p95 latency", f"{result.p95_ms:.2f} ms"],
        ["p99 latency", f"{result.p99_ms:.2f} ms"],
        ["max latency", f"{result.max_ms:.2f} ms"],
        ["degraded fraction", f"{result.degraded_fraction:.4f}"],
        ["read amplification", f"{result.read_amplification:.3f}x"],
        [
            "rebuild ops completed",
            f"{result.rebuild_ops_done}/{result.rebuild_ops}",
        ],
        ["rebuild time (mean/trial)", rebuild],
    ]


def _cmd_simulate(report, args: argparse.Namespace) -> int:
    """Build, log, run, print: the whole of a simulation subcommand."""
    _resolve_jobs(args)
    scenario = _scenario_from(args)
    logger.info(
        "%s: scheme=%s, %d disks, %d job(s)",
        scenario.kind, scenario.scheme, scenario.layout.n_disks,
        scenario.jobs,
    )
    result = run_scenario(scenario, progress=_progress_for(args))
    title, rows = report(scenario, result, args)
    if "jobs" in vars(args):  # the one row --jobs may change
        rows.append(["workers", str(scenario.jobs)])
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def _print_metrics_report(path: str, doc: dict) -> None:
    registry = MetricsRegistry.from_dict(doc)
    counters = registry.counters()
    if counters:
        print(format_table(
            ["counter", "value"], [[n, v] for n, v in counters],
            title=f"{path}: counters",
        ))
        print()
    hist_rows = []
    for name, hist in registry.histograms():
        s = hist.summary()
        hist_rows.append([
            name, s.get("count", 0), s.get("mean", 0.0), s.get("p50", 0.0),
            s.get("p95", 0.0), s.get("p99", 0.0), s.get("max", 0.0),
        ])
    if hist_rows:
        print(format_table(
            ["histogram", "count", "mean", "p50", "p95", "p99", "max"],
            hist_rows, title=f"{path}: histograms",
        ))
    if not (counters or hist_rows):
        print(f"{path}: empty metrics registry")


def _print_profile_report(path: str, doc: dict) -> None:
    phases = doc.get("phases", {})
    if phases:
        rows = [
            [name, entry.get("calls", 0), f"{entry.get('seconds', 0.0):.4f}"]
            for name, entry in sorted(phases.items())
        ]
        print(format_table(
            ["phase", "calls", "exclusive (s)"], rows,
            title=f"{path}: phases",
        ))
        print()
    counters = doc.get("counters", {})
    if counters:
        print(format_table(
            ["counter", "value"], sorted(counters.items()),
            title=f"{path}: counters",
        ))
        print()
    series = doc.get("series", {})
    if series:
        rows = [[name, len(values)] for name, values in sorted(series.items())]
        print(format_table(
            ["series", "points"], rows, title=f"{path}: series",
        ))
        print()
    peak = doc.get("memory_peak_kib")
    if peak is not None:
        print(f"{path}: peak traced memory {peak:.0f} KiB")
    if not (phases or counters or series or peak is not None):
        print(f"{path}: empty profile")


def _span_summary_rows(spans) -> List[list]:
    """Aggregate (name, dur_s) pairs into per-name count/total/mean/max."""
    agg = {}
    for name, dur_s in spans:
        entry = agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur_s
        entry[2] = max(entry[2], dur_s)
    return [
        [name, n, total, total / n, peak]
        for name, (n, total, peak) in sorted(agg.items())
    ]


def _print_trace_report(path: str, spans, events) -> None:
    span_rows = _span_summary_rows(spans)
    if span_rows:
        print(format_table(
            ["span", "count", "total (s)", "mean (s)", "max (s)"],
            span_rows, title=f"{path}: spans",
        ))
        print()
    if events:
        counts = {}
        for kind in events:
            counts[kind] = counts.get(kind, 0) + 1
        print(format_table(
            ["event", "count"], sorted(counts.items()),
            title=f"{path}: sim-time events",
        ))
    if not (span_rows or events):
        print(f"{path}: empty trace")


def _cmd_report(args: argparse.Namespace) -> int:
    for path in args.files:
        kind, doc = load_telemetry_file(path)
        if args.check:
            print(f"{path}: valid {kind} document")
            continue
        if kind == "metrics":
            _print_metrics_report(path, doc)
        elif kind == "profile":
            _print_profile_report(path, doc)
        elif kind == "trace":
            entries = doc["traceEvents"]
            spans = [
                (e["name"], e["dur"] / 1e6) for e in entries if e["ph"] == "X"
            ]
            events = [e["name"] for e in entries if e["ph"] == "i"]
            _print_trace_report(path, spans, events)
        else:  # trace-jsonl
            spans = [
                (r["name"], r["dur_s"]) for r in doc if r["record"] == "span"
            ]
            events = [r["kind"] for r in doc if r["record"] == "event"]
            _print_trace_report(path, spans, events)
        print()
    return 0


def _ledger_from(args: argparse.Namespace) -> RunLedger:
    """The ledger named by ``--ledger`` or ``$REPRO_LEDGER`` (required)."""
    if getattr(args, "ledger", None):
        return RunLedger(args.ledger)
    ledger = RunLedger.from_env()
    if ledger is None:
        raise ReproError(
            "no run ledger: pass --ledger FILE or set $REPRO_LEDGER"
        )
    return ledger


def _ledger_record(ledger: RunLedger, index: int) -> dict:
    """One ledger record by (possibly negative) index, with a clear error."""
    records = ledger.records()
    if not records:
        raise ReproError(f"ledger {ledger.path} is empty")
    try:
        return records[index]
    except IndexError:
        raise ReproError(
            f"ledger {ledger.path} has {len(records)} record(s); "
            f"index {index} is out of range"
        ) from None


def _cmd_runs_list(args: argparse.Namespace) -> int:
    ledger = _ledger_from(args)
    records = ledger.records()
    if not records:
        print(f"{ledger.path}: empty ledger")
        return 0
    rows = []
    for i, rec in enumerate(records):
        ts = rec.get("ts")
        when = (
            datetime.datetime.fromtimestamp(ts).strftime("%Y-%m-%d %H:%M:%S")
            if isinstance(ts, (int, float)) else "-"
        )
        seconds = rec.get("seconds")
        rows.append([
            i,
            when,
            str(rec.get("kind", "-")),
            str(rec.get("config_fingerprint", "-")),
            str(rec.get("seed", "-")),
            str(rec.get("jobs", "-")),
            f"{seconds:.2f}" if isinstance(seconds, (int, float)) else "-",
            str(rec.get("result_digest", "-")),
        ])
    print(format_table(
        ["#", "when", "kind", "config", "seed", "jobs", "seconds", "digest"],
        rows, title=f"run ledger: {ledger.path}",
    ))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    ledger = _ledger_from(args)
    record = _ledger_record(ledger, args.index)
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _numeric_delta_rows(doc_a: dict, doc_b: dict) -> List[list]:
    """Side-by-side rows for two flat dicts, with deltas where numeric."""
    rows = []
    for key in sorted(set(doc_a) | set(doc_b)):
        va, vb = doc_a.get(key), doc_b.get(key)
        numeric = (
            isinstance(va, (int, float)) and not isinstance(va, bool)
            and isinstance(vb, (int, float)) and not isinstance(vb, bool)
        )
        rows.append([
            key,
            "-" if va is None else f"{va:.6g}" if numeric else str(va),
            "-" if vb is None else f"{vb:.6g}" if numeric else str(vb),
            f"{vb - va:+.6g}" if numeric else "-",
        ])
    return rows


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    ledger = _ledger_from(args)
    rec_a = _ledger_record(ledger, args.a)
    rec_b = _ledger_record(ledger, args.b)
    identity_rows = []
    for key in ("kind", "config_fingerprint", "seed", "jobs", "kernel",
                "version", "result_digest"):
        va, vb = rec_a.get(key), rec_b.get(key)
        identity_rows.append([
            key, str(va), str(vb), "same" if va == vb else "DIFFERS",
        ])
    print(format_table(
        ["field", f"run {args.a}", f"run {args.b}", "status"],
        identity_rows, title=f"{ledger.path}: runs {args.a} vs {args.b}",
    ))
    for block in ("summary", "phases"):
        doc_a = rec_a.get(block) or {}
        doc_b = rec_b.get(block) or {}
        if not (doc_a or doc_b):
            continue
        flat_a = {k: v for k, v in doc_a.items() if not isinstance(v, dict)}
        flat_b = {k: v for k, v in doc_b.items() if not isinstance(v, dict)}
        if not (flat_a or flat_b):
            continue
        print()
        print(format_table(
            [block, f"run {args.a}", f"run {args.b}", "delta"],
            _numeric_delta_rows(flat_a, flat_b),
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OI-RAID reproduction: configuration & recovery planning",
    )
    _add_flags(
        parser,
        ("verbose", "quiet", "metrics_out", "trace_out", "profile_out"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, flags, func, into=sub, **overrides):
        p = into.add_parser(name, help=help)
        _add_flags(p, flags, **overrides)
        p.set_defaults(func=func)

    def simulation(name, help, flags, report, **overrides):
        # A Scenario kind: the array's flags, then the kind's own. The
        # registry is read here, so a scheme registered after import counts.
        command(name, help, _LAYOUT + ("scheme", "scheme_param") + flags,
                functools.partial(_cmd_simulate, report),
                scheme=dict(choices=scheme_names()), **overrides)

    command("info", "describe one configuration", _LAYOUT, _cmd_info)
    command("designs", "list constructible designs",
            ("stripe_width", "max_groups"), _cmd_designs,
            stripe_width=dict(help=None))
    command("plan", "plan recovery for failed disks", _LAYOUT + ("failed",),
            _cmd_plan, failed=dict(required=True))
    command("tolerance", "survivable-fraction profile",
            _LAYOUT + ("max_failures", "samples", "jobs"), _cmd_tolerance,
            jobs=dict(help=_JOBS_HELP.format("the pattern sweep")))
    simulation(
        "reliability",
        "Monte-Carlo lifetime simulation (exact pattern oracle)",
        ("mttf_hours", "mttr_hours", "horizon_hours", "trials", "seed",
         "mc_kernel", "jobs"),
        _report_reliability,
        trials=dict(default=1000),
        mc_kernel=dict(help="lifetime kernel: auto is the vectorized one"))
    simulation(
        "lifecycle",
        "coupled lifecycle simulation (layout-derived repair times)",
        ("mttf_hours", "horizon_hours", "trials", "seed", "sparing",
         "rebuild_method", *_DISK, "mc_kernel", "lse_rate_per_byte", "jobs"),
        _report_lifecycle,
        trials=dict(default=200),
        mc_kernel=dict(help="lifecycle kernel: auto is the vectorized "
                            "(columnar) kernel; both kernels return "
                            "identical results"))
    simulation(
        "fleet",
        "fleet-scale rare-event lifecycle simulation "
        "(streaming, optional importance sampling)",
        ("arrays", "trials", "lambda_boost", "mttf_hours", "horizon_hours",
         "seed", "sparing", "rebuild_method", *_DISK, "lse_rate_per_byte",
         "jobs"),
        _report_fleet,
        trials=dict(default=10, help="missions simulated per array"),
        jobs=dict(help=_JOBS_HELP.format("the fleet fan-out")))
    simulation(
        "serve",
        "online serving simulation (foreground vs rebuild contention)",
        ("failed", "requests", "workload", "write_fraction", "skew", "rate",
         "clients", "think_ms", "throttle", "rebuild_rate", "target_p99_ms",
         "rebuild_batches", "sparing", "seek_ms", "unit_kib", "bandwidth_mib",
         "trials", "serve_kernel", "seed", "jobs"),
        _report_serve,
        failed=dict(nargs="*", default=[],
                    help="failed disks (empty = healthy array)"),
        trials=dict(default=1),
        jobs=dict(help=_JOBS_HELP.format("the trial fan-out")))
    simulation(
        "rebuild", "estimate rebuild wall-clock", ("failed", *_DISK),
        _report_rebuild,
        failed=dict(default=[0]), foreground=dict(help=None))
    command("report", "pretty-print saved --metrics-out / --trace-out files",
            ("files", "check"), _cmd_report)

    runs = sub.add_parser(
        "runs", help="inspect the provenance run ledger ($REPRO_LEDGER)",
    ).add_subparsers(dest="runs_command", required=True)
    command("list", "one row per recorded run", ("ledger",),
            _cmd_runs_list, into=runs)
    command("show", "print one run manifest as JSON", ("ledger", "index"),
            _cmd_runs_show, into=runs)
    command("diff", "compare two recorded runs field by field",
            ("ledger", "a", "b"), _cmd_runs_diff, into=runs)
    return parser


def _configure_logging(args: argparse.Namespace) -> None:
    """Wire stdlib logging to stderr: -q ERROR, default WARNING, -v INFO,
    -vv DEBUG. Stdout is reserved for command output."""
    if args.quiet:
        level = logging.ERROR
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def _write_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Write the artifact of each of ``--metrics-out``, ``--trace-out``
    and ``--profile-out`` that is set."""
    artifacts = []
    if args.metrics_out:
        artifacts.append(
            ("metrics", args.metrics_out, telemetry.metrics.to_json() + "\n")
        )
    if args.trace_out:
        if pathlib.Path(args.trace_out).suffix == ".jsonl":
            text = telemetry.trace.to_jsonl(telemetry.events)
        else:
            doc = telemetry.trace.to_chrome(telemetry.events)
            text = json.dumps(doc, indent=2) + "\n"
        artifacts.append(("trace", args.trace_out, text))
    if args.profile_out:
        doc = telemetry.profile_dict()
        artifacts.append(
            ("profile", args.profile_out,
             json.dumps(doc, indent=2, sort_keys=True) + "\n")
        )
    for what, name, text in artifacts:
        path = pathlib.Path(name)
        with writing(path):
            path.write_text(text, encoding="utf-8")
        logger.info("wrote %s to %s", what, path)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2).

    0 = success, 1 = domain error (:class:`ReproError`, message on
    stderr), 2 = usage error (argparse). ``--help`` returns 0.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; normalize to
        # a returned int so embedding callers (and tests) never see the
        # SystemExit.
        if exc.code in (None, 0):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    _configure_logging(args)
    collect = bool(args.metrics_out or args.trace_out)
    profile = bool(args.profile_out)
    telemetry = Telemetry(collect, profile) if collect or profile else None
    args.telemetry = telemetry
    try:
        # Probe every requested artifact before simulating anything
        # (``run`` does the same for ``$REPRO_LEDGER``).
        for path in (args.metrics_out, args.trace_out, args.profile_out):
            if path:
                check_writable(path)
        if profile:
            tracemalloc.start()
        try:
            with use_telemetry(telemetry):
                rc = args.func(args)
            if profile:
                telemetry.capture_memory_peak()
        finally:
            if profile:
                tracemalloc.stop()
        if telemetry is not None:
            _write_telemetry(args, telemetry)
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
