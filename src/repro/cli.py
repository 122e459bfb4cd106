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
``fleet``, ``serve``) are thin wrappers over :class:`repro.scenario.Scenario` +
:func:`repro.scenario.run` — each parses its flags into a ``Scenario``
and dispatches, so shell runs and scripted runs share one code path.
Every one of them takes ``--scheme`` (any name in the
:data:`repro.schemes.SCHEME_REGISTRY` — ``oi``, ``raid5``, ``raid50``,
``raid6``, ``mirror``, ``rs``, ``rep3``, ``lrc``, ``xorbas``,
``hierarchical``) built on the shared ``-v``/``-k``/``-g`` geometry,
plus repeatable ``--scheme-param KEY=VALUE`` overrides for the scheme's
declared knobs.
The compute-heavy ones accept ``--jobs N`` to fan the work across N
worker processes (default: the ``REPRO_JOBS`` environment variable when
set, else serial); results are bit-identical for every N (deterministic
per-chunk seeding). Workers come from one persistent per-process pool,
so repeated sweeps in the same process reuse warm workers.

Global flags (before the subcommand): ``--metrics-out FILE`` /
``--trace-out FILE`` collect telemetry for the run (worker-merged, also
deterministic per N); ``--profile-out FILE`` turns on the kernel phase
profiler (chunk-merged, deterministic per N) and writes the profile
document, with run-level tracemalloc peak memory; ``-v`` turns on INFO
logging plus stderr progress heartbeats for the Monte-Carlo runs
(``-vv`` for DEBUG), ``-q`` silences everything below ERROR. Stdout
carries only the command's output.

Exit codes are uniform: 0 success, 1 domain error (anything raising
:class:`~repro.errors.ReproError`, reported on stderr), 2 usage error
(argparse rejection).
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import pathlib
import sys
import tracemalloc
from typing import Dict, List, Optional

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
    PhaseProfiler,
    RunLedger,
    Telemetry,
    ambient_profiler,
    load_telemetry_file,
    use_profiler,
    use_telemetry,
)
from repro.obs.emit import check_writable, writing
from repro.scenario import Scenario, run as run_scenario
from repro.schemes import scheme, scheme_names
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


def _add_layout_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--groups", type=int, required=True,
                        help="number of disk groups (BIBD points)")
    parser.add_argument("-k", "--stripe-width", type=int, required=True,
                        help="outer stripe width (BIBD block size)")
    parser.add_argument("-g", "--group-size", type=int, default=None,
                        help="disks per group (default: smallest prime >= k)")
    parser.add_argument("--outer-parities", type=int, default=1)
    parser.add_argument("--inner-parities", type=int, default=1)
    parser.add_argument("--no-skew", action="store_true",
                        help="build the aligned ablation layout")


def _layout_from(args: argparse.Namespace):
    return oi_raid(
        args.groups,
        args.stripe_width,
        group_size=args.group_size,
        skewed=not args.no_skew,
        outer_parities=args.outer_parities,
        inner_parities=args.inner_parities,
    )


def _add_scheme_args(parser: argparse.ArgumentParser) -> None:
    """``--scheme`` / ``--scheme-param`` on a simulation subcommand."""
    parser.add_argument(
        "--scheme", choices=scheme_names(), default="oi",
        help="registered redundancy scheme to build on the "
             "-v/-k/-g geometry (default: the paper's OI-RAID)",
    )
    parser.add_argument(
        "--scheme-param", action="append", default=None,
        metavar="KEY=VALUE",
        help="override one of the scheme's declared knobs (repeatable; "
             "e.g. --scheme-param global_parities=3)",
    )


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

    Geometry always passes through; the legacy OI knob flags
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
    declared = scheme(args.scheme).params
    for name, value in (
        ("outer_parities", args.outer_parities),
        ("inner_parities", args.inner_parities),
        ("skewed", not args.no_skew),
    ):
        if name in declared:
            params[name] = value
    for item in args.scheme_param or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ReproError(
                f"--scheme-param expects KEY=VALUE, got {item!r}"
            )
        params[key.strip().replace("-", "_")] = _coerce_param(value.strip())
    return params


def _add_kernel_args(parser, help_text: str) -> None:
    """``--mc-kernel`` (matches ``Scenario.mc_kernel``)."""
    parser.add_argument(
        "--mc-kernel", dest="mc_kernel", choices=KERNELS, default="auto",
        help=help_text,
    )


def _progress_for(args: argparse.Namespace) -> Optional[Heartbeat]:
    """A stderr heartbeat for long Monte-Carlo runs, when ``-v`` is on.

    When the ambient phase profiler is live, the heartbeat subscribes to
    its phase transitions so the rate window resets at kernel phase
    boundaries (screen -> replay) instead of averaging across them.
    """
    if getattr(args, "verbose", 0):
        heartbeat = Heartbeat(label="trials")
        prof = ambient_profiler()
        if prof.enabled:
            prof.on_phase = heartbeat.on_phase
        return heartbeat
    return None


def _resolve_jobs(args: argparse.Namespace) -> int:
    """The worker count: explicit ``--jobs`` wins, else ``$REPRO_JOBS``.

    Mutates ``args.jobs`` so every later use (logging, report rows) sees
    the resolved value. Raises ``SimulationError`` when the environment
    variable is set to something that isn't a positive integer.
    """
    if args.jobs is None:
        args.jobs = default_jobs()
    return args.jobs


def _add_jobs_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=f"worker processes for {what} (default: $REPRO_JOBS if set, "
             "else serial; result identical for any N)",
    )


def _disk_from(args: argparse.Namespace) -> DiskModel:
    """The capacity/bandwidth disk model shared by rebuild and lifecycle."""
    return DiskModel(
        capacity_bytes=args.capacity_tb * 1e12,
        bandwidth_bytes_per_s=args.bandwidth_mib * 1024 * 1024,
        foreground_fraction=args.foreground,
    )


def _cmd_info(args: argparse.Namespace) -> int:
    layout = _layout_from(args)
    rows = [[key, str(value)] for key, value in layout.describe().items()]
    rows.append(["guaranteed tolerance (bound)", str(layout.design_tolerance)])
    rows.append(["rebuild speedup vs RAID5", f"{measured_speedup(layout):.2f}x"])
    print(format_table(["property", "value"], rows, title="OI-RAID configuration"))
    return 0


def _cmd_designs(args: argparse.Namespace) -> int:
    entries = available_designs(args.stripe_width, max_v=args.max_groups)
    rows = []
    for v, b, r in entries:
        layout = oi_raid(v, args.stripe_width)
        rows.append(
            [
                f"({v},{b},{r},{args.stripe_width},1)",
                layout.g,
                layout.n_disks,
                f"{layout.storage_efficiency:.1%}",
            ]
        )
    print(
        format_table(
            ["BIBD", "g", "disks", "efficiency"],
            rows,
            title=f"constructible designs for k={args.stripe_width}",
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
        max_patterns_per_size=args.samples,
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


def _cmd_rebuild(args: argparse.Namespace) -> int:
    result = run_scenario(
        Scenario(
            kind="rebuild",
            scheme=args.scheme,
            scheme_params=_scheme_params_from(args),
            disk=_disk_from(args),
            faults=tuple(args.failed),
        )
    )
    rows = [
        ["failed disks", str(list(result.failed_disks))],
        ["rebuild time", format_duration(result.seconds)],
        ["RAID5-equivalent", format_duration(result.raid5_seconds)],
        ["speedup", f"{result.speedup_vs_raid5:.2f}x"],
        ["bytes read", f"{result.bytes_read / 1e12:.2f} TB"],
        ["bytes written", f"{result.bytes_written / 1e12:.2f} TB"],
    ]
    print(format_table(["metric", "value"], rows, title="rebuild estimate"))
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    _resolve_jobs(args)
    scenario = Scenario(
        kind="reliability",
        scheme=args.scheme,
        scheme_params=_scheme_params_from(args),
        mttf_hours=args.mttf_hours,
        mttr_hours=args.mttr_hours,
        horizon_hours=args.horizon_hours,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        mc_kernel=args.mc_kernel,
        telemetry=args.telemetry,
    )
    layout = scenario.layout
    logger.info(
        "reliability MC: scheme=%s, %d disks, %d trials, %d job(s)",
        args.scheme, layout.n_disks, args.trials, args.jobs,
    )
    result = run_scenario(scenario, progress=_progress_for(args))
    lo, hi = result.prob_loss_interval()
    mttdl = result.mttdl_estimate_hours
    rows = [
        ["disks", str(layout.n_disks)],
        ["trials", str(result.trials)],
        ["losses", str(result.losses)],
        ["P(loss before horizon)", f"{result.prob_loss:.6f}"],
        ["95% CI", f"[{lo:.6f}, {hi:.6f}]"],
        [
            "MTTDL estimate",
            "inf (no losses observed)"
            if mttdl == float("inf")
            else format_duration(mttdl * 3600.0),
        ],
        ["workers", str(args.jobs)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Monte-Carlo lifetimes: MTTF {args.mttf_hours:.0f} h, "
                f"MTTR {args.mttr_hours:.0f} h, "
                f"mission {args.horizon_hours:.0f} h"
            ),
        )
    )
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    disk = _disk_from(args)
    _resolve_jobs(args)
    scenario = Scenario(
        kind="lifecycle",
        scheme=args.scheme,
        scheme_params=_scheme_params_from(args),
        disk=disk,
        sparing=args.sparing,
        rebuild_method=args.rebuild_model,
        lse_rate_per_byte=args.lse_rate,
        mttf_hours=args.mttf_hours,
        horizon_hours=args.horizon_hours,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        mc_kernel=args.mc_kernel,
        telemetry=args.telemetry,
    )
    layout = scenario.layout
    logger.info(
        "lifecycle MC: scheme=%s, %d disks, %d trials, %d job(s)",
        args.scheme, layout.n_disks, args.trials, args.jobs,
    )
    result = run_scenario(scenario, progress=_progress_for(args))
    mttr = derived_mttr(layout, disk, args.sparing, args.rebuild_model)
    markov = derived_markov_model(
        layout, args.mttf_hours, disk=disk, sparing=args.sparing,
        method=args.rebuild_model,
    )
    lo, hi = result.prob_loss_interval()
    mttdl = result.mttdl_estimate_hours
    rows = [
        ["disks", str(layout.n_disks)],
        ["trials", str(result.trials)],
        ["derived MTTR (single failure)", format_duration(mttr * 3600.0)],
        ["losses", str(result.losses)],
        ["  of which latent-error losses", str(result.lse_losses)],
        ["P(loss before horizon)", f"{result.prob_loss:.6f}"],
        ["95% CI", f"[{lo:.6f}, {hi:.6f}]"],
        [
            "MTTDL estimate",
            "inf (no losses observed)"
            if mttdl == float("inf")
            else format_duration(mttdl * 3600.0),
        ],
        [
            "Markov P(loss), derived mu",
            f"{markov.prob_loss_within(args.horizon_hours):.6f}",
        ],
        ["mean failures per mission", f"{result.mean_failures:.2f}"],
        ["mean repairs per mission", f"{result.mean_repairs:.2f}"],
        [
            "mean time degraded",
            format_duration(result.mean_degraded_hours * 3600.0),
        ],
        ["degraded fraction", f"{result.degraded_fraction:.4f}"],
        ["peak concurrent failures", str(result.max_peak_failures)],
        ["workers", str(args.jobs)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"coupled lifecycle ({args.scheme}, {args.sparing} sparing, "
                f"{args.rebuild_model} rebuild): MTTF {args.mttf_hours:.0f} h, "
                f"mission {args.horizon_hours:.0f} h"
            ),
        )
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    disk = _disk_from(args)
    _resolve_jobs(args)
    scenario = Scenario(
        kind="fleet",
        scheme=args.scheme,
        scheme_params=_scheme_params_from(args),
        disk=disk,
        sparing=args.sparing,
        rebuild_method=args.rebuild_model,
        lse_rate_per_byte=args.lse_rate,
        mttf_hours=args.mttf_hours,
        horizon_hours=args.horizon_hours,
        arrays=args.arrays,
        lambda_boost=args.boost,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        telemetry=args.telemetry,
    )
    layout = scenario.layout
    logger.info(
        "fleet MC: scheme=%s, %d disks, %d arrays x %d missions, "
        "boost=%.2f, %d job(s)",
        args.scheme, layout.n_disks, args.arrays, args.trials,
        args.boost, args.jobs,
    )
    result = run_scenario(scenario, progress=_progress_for(args))
    lo, hi = result.prob_loss_interval()
    mttdl = result.mttdl_estimate_hours
    rows = [
        ["disks per array", str(layout.n_disks)],
        ["arrays", str(result.arrays)],
        ["missions (arrays x trials)", str(result.missions)],
        ["raw losses (sampling measure)", str(result.raw_losses)],
        ["  of which latent-error losses", str(result.lse_losses)],
        ["exact event replays", str(result.replays)],
        ["P(array loss before horizon)", f"{result.prob_loss:.3e}"],
        ["95% CI", f"[{lo:.3e}, {hi:.3e}]"],
        ["P(any array loss in fleet)", f"{result.prob_any_loss:.4f}"],
        [
            "MTTDL estimate",
            "inf (no losses observed)"
            if mttdl == float("inf")
            else format_duration(mttdl * 3600.0),
        ],
        ["lambda boost", f"{result.lambda_boost:.2f}"],
        [
            "effective sample size",
            f"{result.effective_sample_size:.0f} of {result.missions}",
        ],
        ["mean failures per mission", f"{result.mean_failures:.2f}"],
        ["peak concurrent failures", str(result.max_peak_failures)],
        ["workers", str(args.jobs)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"fleet lifecycle ({args.scheme}, {args.sparing} sparing): "
                f"{result.arrays} arrays, MTTF {args.mttf_hours:.0f} h, "
                f"mission {args.horizon_hours:.0f} h"
            ),
        )
    )
    return 0


def _throttle_from(args: argparse.Namespace):
    """The rebuild-injection policy the ``serve`` flags describe."""
    if args.throttle == "none":
        return None
    if args.throttle == "fixed":
        return FixedRateThrottle(args.rebuild_rate)
    if args.throttle == "idle":
        return IdleSlotThrottle()
    return AdaptiveThrottle(target_p99_ms=args.target_p99_ms)


def _cmd_serve(args: argparse.Namespace) -> int:
    _resolve_jobs(args)
    if args.clients:
        arrival = ClosedLoop(args.clients, think_s=args.think_ms / 1000.0)
    else:
        arrival = OpenLoop(args.rate)
    check_finite("unit_kib", args.unit_kib)  # before int() chokes on it
    scenario = Scenario(
        kind="serve",
        scheme=args.scheme,
        scheme_params=_scheme_params_from(args),
        latency=LatencyModel(
            seek_ms=args.seek_ms,
            unit_bytes=int(args.unit_kib * 1024),
            bandwidth_bytes_per_s=args.bandwidth_mib * 1024 * 1024,
        ),
        workload=WorkloadSpec(
            kind=args.workload,
            n_requests=args.requests,
            write_fraction=args.write_fraction,
            skew=args.skew,
        ),
        arrival=arrival,
        faults=tuple(args.failed),
        throttle=_throttle_from(args),
        sparing=args.sparing,
        rebuild_batches=args.rebuild_batches,
        trials=args.trials,
        serve_kernel=args.serve_kernel,
        seed=args.seed,
        jobs=args.jobs,
        telemetry=args.telemetry,
    )
    layout = scenario.layout
    logger.info(
        "serve: scheme=%s, %d disks, %d failed, throttle=%s, %d trial(s), "
        "%d job(s)",
        args.scheme, layout.n_disks, len(args.failed), args.throttle,
        args.trials, args.jobs,
    )
    result = run_scenario(scenario, progress=_progress_for(args))
    rebuild = (
        format_duration(result.rebuild_seconds)
        if result.rebuild_ops
        else "- (no rebuild traffic)"
    )
    rows = [
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
        ["workers", str(args.jobs)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"online serving ({args.scheme}, "
                f"{len(args.failed)} failed, throttle={args.throttle})"
            ),
        )
    )
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
    gauges = registry.gauges()
    if gauges:
        print(format_table(
            ["gauge", "value"], [[n, v] for n, v in gauges],
            title=f"{path}: gauges",
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
    if not (counters or gauges or hist_rows):
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
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="INFO logging + stderr progress heartbeats (-vv for DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only ERROR-level diagnostics on stderr",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the run's merged metrics registry as JSON",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write spans + sim events (Chrome trace JSON, or JSONL if "
             "FILE ends in .jsonl)",
    )
    parser.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="enable the kernel phase profiler and write its profile "
             "document (phases, counters, series, peak memory) as JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe one configuration")
    _add_layout_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_designs = sub.add_parser("designs", help="list constructible designs")
    p_designs.add_argument("-k", "--stripe-width", type=int, required=True)
    p_designs.add_argument("--max-groups", type=int, default=40)
    p_designs.set_defaults(func=_cmd_designs)

    p_plan = sub.add_parser("plan", help="plan recovery for failed disks")
    _add_layout_args(p_plan)
    p_plan.add_argument("-f", "--failed", type=int, nargs="+", required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_tol = sub.add_parser("tolerance", help="survivable-fraction profile")
    _add_layout_args(p_tol)
    p_tol.add_argument("--max-failures", type=int, default=4)
    p_tol.add_argument("--samples", type=int, default=500,
                       help="patterns sampled per size (0 = exhaustive)")
    _add_jobs_arg(p_tol, "the pattern sweep")
    p_tol.set_defaults(func=_cmd_tolerance)

    p_rel = sub.add_parser(
        "reliability",
        help="Monte-Carlo lifetime simulation (exact pattern oracle)",
    )
    _add_layout_args(p_rel)
    _add_scheme_args(p_rel)
    p_rel.add_argument("--mttf-hours", type=float, default=100_000.0,
                       help="per-disk mean time to failure")
    p_rel.add_argument("--mttr-hours", type=float, default=24.0,
                       help="per-disk mean time to repair")
    p_rel.add_argument("--horizon-hours", type=float, default=87_660.0,
                       help="mission length (default: 10 years)")
    p_rel.add_argument("--trials", type=int, default=1000)
    p_rel.add_argument("--seed", type=int, default=0)
    _add_kernel_args(p_rel,
                     "lifetime kernel: auto is the vectorized one")
    _add_jobs_arg(p_rel, "the Monte-Carlo fan-out")
    p_rel.set_defaults(func=_cmd_reliability)

    p_lc = sub.add_parser(
        "lifecycle",
        help="coupled lifecycle simulation (layout-derived repair times)",
    )
    _add_layout_args(p_lc)
    _add_scheme_args(p_lc)
    p_lc.add_argument("--mttf-hours", type=float, default=100_000.0,
                      help="per-disk mean time to failure")
    p_lc.add_argument("--horizon-hours", type=float, default=87_660.0,
                      help="mission length (default: 10 years)")
    p_lc.add_argument("--trials", type=int, default=200)
    p_lc.add_argument("--seed", type=int, default=0)
    p_lc.add_argument("--sparing", choices=["distributed", "dedicated"],
                      default="distributed")
    p_lc.add_argument("--rebuild-model", choices=["analytic", "event"],
                      default="analytic",
                      help="rebuild clock: bandwidth bound or event-driven")
    p_lc.add_argument("--capacity-tb", type=float, default=4.0)
    p_lc.add_argument("--bandwidth-mib", type=float, default=100.0)
    p_lc.add_argument("--foreground", type=float, default=0.0,
                      help="fraction of bandwidth reserved for user I/O")
    _add_kernel_args(p_lc,
                     "lifecycle kernel: auto is the vectorized "
                     "(columnar) kernel; both kernels return "
                     "identical results")
    p_lc.add_argument("--lse-rate", type=float, default=0.0,
                      help="latent sector errors per byte read during "
                           "rebuild (e.g. 1e-15)")
    _add_jobs_arg(p_lc, "the Monte-Carlo fan-out")
    p_lc.set_defaults(func=_cmd_lifecycle)

    p_fl = sub.add_parser(
        "fleet",
        help="fleet-scale rare-event lifecycle simulation "
             "(streaming, optional importance sampling)",
    )
    _add_layout_args(p_fl)
    _add_scheme_args(p_fl)
    p_fl.add_argument("--arrays", type=int, default=100,
                      help="identical arrays in the fleet")
    p_fl.add_argument("--trials", type=int, default=10,
                      help="missions simulated per array")
    p_fl.add_argument("--boost", type=float, default=1.0,
                      help="importance-sampling failure-rate inflation: "
                           "sample at boost/MTTF, reweight by the exact "
                           "likelihood ratio (1.0 = naive Monte-Carlo; "
                           "useful range ~1.2-1.8 — the per-draw weight "
                           "variance diverges at 2.0)")
    p_fl.add_argument("--mttf-hours", type=float, default=100_000.0,
                      help="per-disk mean time to failure")
    p_fl.add_argument("--horizon-hours", type=float, default=87_660.0,
                      help="mission length (default: 10 years)")
    p_fl.add_argument("--seed", type=int, default=0)
    p_fl.add_argument("--sparing", choices=["distributed", "dedicated"],
                      default="distributed")
    p_fl.add_argument("--rebuild-model", choices=["analytic", "event"],
                      default="analytic",
                      help="rebuild clock: bandwidth bound or event-driven")
    p_fl.add_argument("--capacity-tb", type=float, default=4.0)
    p_fl.add_argument("--bandwidth-mib", type=float, default=100.0)
    p_fl.add_argument("--foreground", type=float, default=0.0,
                      help="fraction of bandwidth reserved for user I/O")
    p_fl.add_argument("--lse-rate", type=float, default=0.0,
                      help="latent sector errors per byte read during "
                           "rebuild (e.g. 1e-15)")
    _add_jobs_arg(p_fl, "the fleet fan-out")
    p_fl.set_defaults(func=_cmd_fleet)

    p_srv = sub.add_parser(
        "serve",
        help="online serving simulation (foreground vs rebuild contention)",
    )
    _add_layout_args(p_srv)
    _add_scheme_args(p_srv)
    p_srv.add_argument("-f", "--failed", type=int, nargs="*", default=[],
                       help="failed disks (empty = healthy array)")
    p_srv.add_argument("--requests", type=int, default=2000,
                       help="foreground requests per trial")
    p_srv.add_argument("--workload", choices=["uniform", "zipf", "sequential"],
                       default="uniform")
    p_srv.add_argument("--write-fraction", type=float, default=0.0)
    p_srv.add_argument("--skew", type=float, default=1.1,
                       help="zipf exponent (zipf workload only)")
    p_srv.add_argument("--rate", type=float, default=100.0,
                       help="open-loop arrival rate (requests/s)")
    p_srv.add_argument("--clients", type=int, default=0,
                       help="closed-loop client count (overrides --rate)")
    p_srv.add_argument("--think-ms", type=float, default=0.0,
                       help="closed-loop think time between requests")
    p_srv.add_argument("--throttle",
                       choices=["none", "fixed", "idle", "adaptive"],
                       default="none",
                       help="rebuild injection policy (none = no rebuild "
                            "traffic)")
    p_srv.add_argument("--rebuild-rate", type=float, default=100.0,
                       help="fixed-throttle dispatch rate (ops/s)")
    p_srv.add_argument("--target-p99-ms", type=float, default=20.0,
                       help="adaptive-throttle foreground p99 SLO")
    p_srv.add_argument("--rebuild-batches", type=int, default=1,
                       help="times the recovery plan is tiled per trial")
    p_srv.add_argument("--sparing", choices=["distributed", "dedicated"],
                       default="distributed")
    p_srv.add_argument("--seek-ms", type=float, default=5.0)
    p_srv.add_argument("--unit-kib", type=float, default=64.0)
    p_srv.add_argument("--bandwidth-mib", type=float, default=100.0)
    p_srv.add_argument("--trials", type=int, default=1)
    p_srv.add_argument("--serve-kernel", dest="serve_kernel",
                       choices=KERNELS, default="auto",
                       help="serving kernel: auto is the vectorized "
                            "queue sweep; both kernels produce "
                            "bit-identical results")
    p_srv.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(p_srv, "the trial fan-out")
    p_srv.set_defaults(func=_cmd_serve)

    p_rb = sub.add_parser("rebuild", help="estimate rebuild wall-clock")
    _add_layout_args(p_rb)
    _add_scheme_args(p_rb)
    p_rb.add_argument("-f", "--failed", type=int, nargs="+", default=[0])
    p_rb.add_argument("--capacity-tb", type=float, default=4.0)
    p_rb.add_argument("--bandwidth-mib", type=float, default=100.0)
    p_rb.add_argument("--foreground", type=float, default=0.0)
    p_rb.set_defaults(func=_cmd_rebuild)

    p_rep = sub.add_parser(
        "report",
        help="pretty-print saved --metrics-out / --trace-out files",
    )
    p_rep.add_argument("files", nargs="+", metavar="FILE")
    p_rep.add_argument(
        "--check", action="store_true",
        help="validate against the telemetry schema and exit",
    )
    p_rep.set_defaults(func=_cmd_report)

    p_runs = sub.add_parser(
        "runs",
        help="inspect the provenance run ledger ($REPRO_LEDGER)",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _add_ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", metavar="FILE", default=None,
            help="ledger JSONL file (default: $REPRO_LEDGER)",
        )

    p_runs_list = runs_sub.add_parser("list", help="one row per recorded run")
    _add_ledger_arg(p_runs_list)
    p_runs_list.set_defaults(func=_cmd_runs_list)

    p_runs_show = runs_sub.add_parser(
        "show", help="print one run manifest as JSON",
    )
    _add_ledger_arg(p_runs_show)
    p_runs_show.add_argument(
        "index", type=int, nargs="?", default=-1,
        help="record index from `runs list` (negative counts from the "
             "end; default: the last record)",
    )
    p_runs_show.set_defaults(func=_cmd_runs_show)

    p_runs_diff = runs_sub.add_parser(
        "diff", help="compare two recorded runs field by field",
    )
    _add_ledger_arg(p_runs_diff)
    p_runs_diff.add_argument(
        "a", type=int, nargs="?", default=-2,
        help="first record index (default: second-to-last)",
    )
    p_runs_diff.add_argument(
        "b", type=int, nargs="?", default=-1,
        help="second record index (default: last)",
    )
    p_runs_diff.set_defaults(func=_cmd_runs_diff)

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


def _write_profile(args: argparse.Namespace, profiler: PhaseProfiler) -> None:
    path = pathlib.Path(args.profile_out)
    with writing(path):
        path.write_text(
            json.dumps(profiler.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    logger.info("wrote profile to %s", path)


def _write_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    if args.metrics_out:
        path = pathlib.Path(args.metrics_out)
        with writing(path):
            path.write_text(
                telemetry.metrics.to_json() + "\n", encoding="utf-8"
            )
        logger.info("wrote metrics to %s", path)
    if args.trace_out:
        path = pathlib.Path(args.trace_out)
        if path.suffix == ".jsonl":
            text = telemetry.trace.to_jsonl(telemetry.events)
        else:
            doc = telemetry.trace.to_chrome(telemetry.events)
            text = json.dumps(doc, indent=2) + "\n"
        with writing(path):
            path.write_text(text, encoding="utf-8")
        logger.info("wrote trace to %s", path)


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
    if getattr(args, "samples", None) == 0:
        args.samples = None
    telemetry = (
        Telemetry.collecting()
        if (args.metrics_out or args.trace_out)
        else None
    )
    args.telemetry = telemetry
    profiler = PhaseProfiler() if args.profile_out else None
    try:
        # Probe every requested artifact before simulating anything
        # (``run`` does the same for ``$REPRO_LEDGER``).
        for path in (args.metrics_out, args.trace_out, args.profile_out):
            if path:
                check_writable(path)
        if profiler is not None:
            tracemalloc.start()
        try:
            with use_telemetry(telemetry), use_profiler(profiler):
                rc = args.func(args)
            if profiler is not None:
                profiler.capture_memory_peak()
        finally:
            if profiler is not None:
                tracemalloc.stop()
        if telemetry is not None:
            _write_telemetry(args, telemetry)
        if profiler is not None:
            _write_profile(args, profiler)
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
