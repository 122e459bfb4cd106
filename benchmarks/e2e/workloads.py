"""The in-process workloads: frozen sizes, one pass each, and checks.

Everything here goes through public functions of ``repro``. The sizes
are frozen: a later change compares against numbers measured at exactly
these sizes, so lower the process or pass count in ``run.py`` before
touching them. ``scale`` divides the sizes for ``--quick`` only.

The worker imports this module after it has timed ``import repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from array import array
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    DiskModel,
    FixedRateThrottle,
    OIRAIDLayout,
    OpenLoop,
    Scenario,
    WorkloadSpec,
    analytic_rebuild_time,
    build_scheme_layout,
    find_bibd,
    is_recoverable,
    oi_raid,
    plan_recovery,
    run,
    scheme_names,
    simulate_rebuild,
    survivable_fraction,
)
from repro.errors import DataLossError
from repro.layouts.recovery import lost_cells
from repro.obs.ledger import result_digest
from repro.obs.prof import PhaseProfiler, use_profiler
from repro.sim import build_serve_tables, shutdown_pool

from clock import Clock
from tracing import Spans, self_seconds

#: (v, k, group size): the twelve catalog designs, 21 to 185 disks. The
#: group size is the smallest prime >= k, as ``oi_raid`` picks it.
CATALOG = (
    (7, 3, 3), (9, 3, 3), (13, 3, 3), (15, 3, 3), (19, 3, 3), (31, 3, 3),
    (57, 3, 3), (13, 4, 5), (16, 4, 5), (37, 4, 5), (21, 5, 5), (25, 5, 5),
)
ORACLE_CALLS = 50
REBUILD_BATCHES = 8


def scaled(size: int, scale: int) -> int:
    return max(1, size // scale)


def fingerprint(result) -> str:
    """An exact digest of a result dataclass, cheap enough for every pass.

    ``result_digest(result.to_dict())`` costs three seconds on the four
    million latencies of ``serve_open_reads``, so a worker computes it
    once, on its last pass, and proves that the passes before it repeat
    exactly by this digest of the same fields.
    """
    digest = hashlib.sha256()
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        try:
            digest.update(array("d", value).tobytes())  # a series of numbers
        except TypeError:
            digest.update(repr(value).encode())
    return digest.hexdigest()[:16]


class PlanCatalog:
    """The planner over the design catalog; ``sim.*`` is bypassed."""

    unit = "plans"
    prefix = None  # no program-side profiler here, so no untraced twins

    def __init__(self, seed: int, scale: int, spans: Spans, clock: Clock) -> None:
        self.spans, self.clock = spans, clock
        # --quick keeps the reference array and the 171-disk one, which
        # has a metric of its own (layout.build_v57_s).
        self.catalog = CATALOG if scale == 1 else (CATALOG[0], CATALOG[6])
        self.schemes = scheme_names()[: scaled(len(scheme_names()), scale)]
        self.oracle_calls = scaled(ORACLE_CALLS, scale)
        self.seed = seed
        self.patterns: List[dict] = []

    def build(self) -> None:
        """Draw the failure patterns; layouts are built inside the pass."""
        rng = random.Random(self.seed)
        for v, k, g in self.catalog:
            draw = lambda size: tuple(sorted(rng.sample(range(v * g), size)))
            first, second = draw(2)  # two different disks: two plans built
            self.patterns.append({
                "plans": [(first,), (second,), draw(2), draw(3)],
                "oracle": [draw(4) for _ in range(self.oracle_calls)],
            })
        self.scheme_failures = [
            rng.randrange(build_scheme_layout(name).n_disks)
            for name in self.schemes
        ]

    def _plan(self, span_name: str, layout, failed, plans: list) -> None:
        try:
            with self.spans.span(span_name, disks=layout.n_disks):
                plan = plan_recovery(layout, failed)
        except DataLossError:
            plan = None
        plans.append((layout, failed, plan))

    def one_pass(self, traced: bool) -> dict:
        span = self.spans.span
        plans: List[tuple] = []
        doc: Dict[str, object] = {}
        layouts = []
        for design, patterns in zip(self.catalog, self.patterns):
            # One clock segment per design: a four-second pass outlasts
            # the spells of machine speed the clock corrects for.
            with self.clock.segment():
                layouts.append(self._design(design, patterns, plans, doc))
        with self.clock.segment():
            for name, disk in zip(self.schemes, self.scheme_failures):
                with span("schemes.build", scheme=name):
                    layout = build_scheme_layout(name)
                self._plan("schemes.plan_single", layout, (disk,), plans)
            with span("tolerance.f3_exhaustive"):
                # The 21-disk array is the first design of the catalog.
                fraction = survivable_fraction(layouts[0], 3)
        return {"plans": plans, "doc": doc, "f3": fraction}

    def _design(self, design, patterns: dict, plans: list, doc: dict):
        span = self.spans.span
        v, k, g = design
        with span("design.find_bibd", v=v, k=k):
            bibd = find_bibd(v, k)
        # A fresh layout object: its plan cache and peeling indexes start
        # cold on every pass.
        with span("layout.build", v=v, k=k):
            layout = OIRAIDLayout(bibd, g)
        names = ("plan_single", "plan_single", "plan_double", "plan_triple")
        for name, failed in zip(names, patterns["plans"]):
            self._plan("recovery." + name, layout, failed, plans)
        first = patterns["plans"][0]
        with span("recovery.plan_cached"):
            cached = plan_recovery(layout, first)
        survived = 0
        for pattern in patterns["oracle"]:
            with span("recovery.oracle"):
                survived += is_recoverable(layout, pattern)
        with span("rebuild.event"):
            event = simulate_rebuild(
                layout, first, plan=cached, batches=REBUILD_BATCHES
            )
        with span("rebuild.analytic"):
            analytic = analytic_rebuild_time(layout, first, plan=cached)
        doc[f"{v},{k}"] = [survived, event.seconds, analytic.seconds]
        return layout

    def verify(self, out: dict) -> dict:
        """Plan validity and tolerance of up to three failures."""
        failed: List[str] = []
        for layout, disks, plan in out["plans"]:
            label = f"{layout.name}{disks}"
            if plan is None:
                failed.append(f"{label}: reported unrecoverable")
                continue
            if set(plan.recovered_cells) != lost_cells(layout, disks):
                failed.append(f"{label}: recovered cells differ from lost cells")
            if any(cell[0] in disks for step in plan.steps for cell in step.reads):
                failed.append(f"{label}: plan reads a failed disk")
            out["doc"][label] = [
                len(plan.steps), plan.total_read_units, plan.max_read_units
            ]
        if out["f3"] != 1.0:
            failed.append(f"21-disk array survives {out['f3']} of 3-failures")
        return {
            "work": len(out["plans"]),
            "ops": len(out["plans"]) + 1,
            "failed": failed,
            "fingerprint": result_digest(out["doc"]),
        }

    def result_digest(self, out: dict) -> str:
        return result_digest(out["doc"])  # verify() has completed the document

    def model(self, out: dict) -> Dict[str, float]:
        oi = analytic_rebuild_time(oi_raid(7, 3), (0,)).seconds
        raid50 = analytic_rebuild_time(build_scheme_layout("raid50"), (0,)).seconds
        return {"model.rebuild_speedup_oi_vs_raid50": raid50 / oi}

    def layer(self, out: dict, rows: List[dict], factor: float) -> Dict[str, float]:
        """Self seconds per layer call, summed over one pass and corrected."""
        own = self_seconds(rows)
        totals: Dict[str, float] = {}
        for row in rows:
            seconds = own[row["id"]] * factor
            if row["name"] != "pass":
                key = row["name"] + "_s"
                totals[key] = totals.get(key, 0.0) + seconds
            if row["name"] == "layout.build" and (row["v"], row["k"]) == (57, 3):
                totals["layout.build_v57_s"] = seconds
        totals["design.count"] = len(self.catalog)
        totals["recovery.plans"] = len(out["plans"])
        totals["recovery.oracle_calls"] = len(self.catalog) * self.oracle_calls
        return totals

    def cross_check(self) -> Tuple[int, List[str]]:
        return 0, []  # every pass already checks every plan


def _lifecycle(layout, seed: int, scale: int) -> Scenario:
    # With the default 1 TiB disk about 180 trials in 100 000 are
    # dangerous, each replay plans a fresh double failure, and replay is
    # 3 % of the pass at seed 0 but 40 % to 50 % at most other seeds. A
    # 32 GiB disk rebuilds 32 times sooner: about six dangerous trials,
    # replay under 6 % on every seed, which is the clean path this
    # workload is here for.
    return Scenario(
        kind="lifecycle", layout=layout, trials=scaled(100_000, scale), seed=seed,
        disk=DiskModel(capacity_bytes=32 * 1024 ** 3),
    )


def _fleet(layout, seed: int, scale: int) -> Scenario:
    return Scenario(
        kind="fleet", layout=layout, mttf_hours=10_000, horizon_hours=8766,
        arrays=100, trials=scaled(100, scale), lambda_boost=1.4, seed=seed,
    )


def _reliability(layout, seed: int, scale: int) -> Scenario:
    return Scenario(
        kind="reliability", layout=layout, mttf_hours=2000, mttr_hours=40,
        horizon_hours=4000, trials=scaled(50_000, scale), seed=seed,
    )


def _serve_reads(layout, seed: int, scale: int) -> Scenario:
    return Scenario(
        kind="serve", layout=layout, faults=(0,),
        workload=WorkloadSpec("uniform", n_requests=2000),
        arrival=OpenLoop(200.0), trials=scaled(2000, scale), seed=seed,
    )


def _serve_mixed(layout, seed: int, scale: int) -> Scenario:
    return Scenario(
        kind="serve", layout=layout, faults=(0,),
        workload=WorkloadSpec("zipf", n_requests=2000, write_fraction=0.3),
        arrival=OpenLoop(200.0), throttle=FixedRateThrottle(300.0),
        rebuild_batches=4, trials=scaled(100, scale), seed=seed,
    )


def _kernels(field: str, trials: int) -> Callable[[Scenario], List[Scenario]]:
    return lambda base: [
        replace(base, trials=trials, **{field: kernel})
        for kernel in ("event", "vectorized")
    ]


def _jobs(trials: int) -> Callable[[Scenario], List[Scenario]]:
    return lambda base: [
        replace(base, trials=trials, jobs=jobs) for jobs in (1, 2)
    ]


def _summary_model(names: Dict[str, str]) -> Callable[[dict], Dict[str, float]]:
    return lambda summary: {
        metric: summary[key] for metric, key in names.items()
    }


#: name -> (metric prefix, work unit, scenario, the two runs the
#: cross-check compares, model metrics read from ``result.summary()``).
SIMS = {
    "lifecycle_clean": (
        "lifecycle", "trials", _lifecycle, _kernels("mc_kernel", 2000),
        _summary_model({"model.lifecycle.mean_failures": "mean_failures"}),
    ),
    "fleet_boosted": (
        # 2100 missions: three chunks, so jobs=2 really goes through the pool.
        "fleet", "missions", _fleet, _jobs(21),
        lambda s: {
            "model.fleet.ess_ratio": s["effective_sample_size"] / s["missions"]
        },
    ),
    "reliability_mc": (
        "mc", "trials", _reliability, _jobs(2000),
        _summary_model({"model.mc.prob_loss": "prob_loss"}),
    ),
    "serve_open_reads": (
        "serve", "requests", _serve_reads, _kernels("serve_kernel", 8),
        _summary_model({"model.serve.p99_ms": "p99_ms"}),
    ),
    "serve_rebuild_mixed": (
        "serve_rebuild", "requests", _serve_mixed, _kernels("serve_kernel", 8),
        _summary_model({
            "model.serve_rebuild.p99_ms": "p99_ms",
            "model.serve_rebuild.rebuild_seconds": "rebuild_seconds",
        }),
    ),
}


class Sim:
    """One ``run(Scenario)`` per pass on the 21-disk reference array."""

    def __init__(
        self, name: str, seed: int, scale: int, spans: Spans, clock: Clock
    ) -> None:
        self.prefix, self.unit, self._scenario, self._pair, self._model = SIMS[name]
        self.seed, self.scale, self.spans, self.clock = seed, scale, spans, clock
        self.scenario: Optional[Scenario] = None

    def build(self) -> None:
        with self.spans.span("layout.oi_raid"):
            layout = oi_raid(7, 3)
        self.scenario = self._scenario(layout, self.seed, self.scale)
        if self.scenario.kind == "serve":
            with self.spans.span("serve.tables"):
                build_serve_tables(
                    layout, self.scenario.faults, self.scenario.sparing,
                    self.scenario.rebuild_batches,
                )

    def one_pass(self, traced: bool) -> dict:
        # The program's own PhaseProfiler is the only clock inside run().
        profiler = PhaseProfiler() if traced else None
        with self.clock.segment():
            with self.spans.span("scenario.run", kind=self.scenario.kind) as row:
                with use_profiler(profiler):
                    result = run(self.scenario)
        if row is not None:
            row["phases"] = profiler.phase_seconds()
            row["counters"] = {
                name: float(value) for name, value in profiler.counters.items()
            }
        return {"result": result}

    def verify(self, out: dict) -> dict:
        result, scenario = out["result"], self.scenario
        failed: List[str] = []
        if scenario.kind == "serve":
            expected = scenario.trials * scenario.workload.n_requests
            if result.requests != expected:
                failed.append(f"served {result.requests} of {expected} requests")
            if not result.rebuild_complete:
                failed.append("rebuild did not complete")
            work = result.requests
        elif scenario.kind == "fleet":
            work = scenario.arrays * scenario.trials
        else:
            work = scenario.trials
        return {
            "work": work,
            "ops": 1,
            "failed": failed,
            "fingerprint": fingerprint(result),
        }

    def result_digest(self, out: dict) -> str:
        return result_digest(out["result"].to_dict())

    def model(self, out: dict) -> Dict[str, float]:
        model = self._model(out["result"].summary())
        return {name: float(value) for name, value in model.items()}

    def layer(self, out: dict, rows: List[dict], factor: float) -> Dict[str, float]:
        """Phase seconds, corrected, and counters: all from the PhaseProfiler."""
        (row,) = (r for r in rows if r["name"] == "scenario.run")
        wall = row["end"] - row["start"]
        layer = {
            f"{self.prefix}.{phase}_s": seconds * factor
            for phase, seconds in row["phases"].items()
        }
        for counter, value in row["counters"].items():
            layer[f"{self.prefix}.{counter.split('.', 1)[1]}"] = value
        dark = wall - sum(row["phases"].values())
        layer[f"{self.prefix}.unattributed_s"] = dark * factor
        layer[f"{self.prefix}.replay_share"] = row["phases"].get("replay", 0.0) / wall
        return layer

    def cross_check(self) -> Tuple[int, List[str]]:
        """Two kernels, or two job counts, must give the same document."""
        first, second = (run(s).to_dict() for s in self._pair(self.scenario))
        shutdown_pool()
        if first == second:
            return 1, []
        return 1, [f"{self.prefix}: cross-check documents differ"]


def make(name: str, seed: int, scale: int, spans: Spans, clock: Clock):
    if name == "plan_catalog":
        return PlanCatalog(seed, scale, spans, clock)
    return Sim(name, seed, scale, spans, clock)
