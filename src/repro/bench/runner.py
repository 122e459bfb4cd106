"""The experiment runner: a tiny registry tying benches to DESIGN.md ids.

Each ``benchmarks/bench_e*.py`` declares an :class:`Experiment` and calls
:func:`run_experiment`, which times the body, prints the rendered report,
and returns a structured result the pytest-benchmark wrapper asserts on.

When ``REPRO_BENCH_JSONL`` names a file (or an emitter is passed
explicitly), every run also appends one machine-readable ``experiment``
record — id, kind, wall seconds, the worker count (``REPRO_JOBS``), and
the full metrics dict — so
experiment trajectories can be collected without scraping the rendered
tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.emit import StructuredEmitter
from repro.obs.ledger import RunLedger, profile_mark, run_manifest
from repro.obs.telemetry import ambient
from repro.results import ResultBase, register_result
from repro.sim.parallel import default_jobs


@dataclass(frozen=True)
class Experiment:
    """Identity of one reproduced table/figure."""

    exp_id: str
    kind: str  # "table" | "figure" | "ablation"
    claim: str  # the abstract-level claim being tested
    body: Callable[[], "ExperimentResult"]


@register_result
@dataclass
class ExperimentResult(ResultBase):
    """Output of one experiment run (speaks the common result protocol)."""

    exp_id: str
    report: str
    metrics: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0

    SUMMARY_KEYS = ("exp_id", "seconds", "metrics")

    def metric(self, name: str) -> float:
        """Look up one named metric, with a helpful error if absent."""
        if name not in self.metrics:
            raise KeyError(
                f"{self.exp_id} produced no metric {name!r}; "
                f"have {sorted(self.metrics)}"
            )
        return self.metrics[name]


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Register for discovery (duplicate ids are a bench bug)."""
    if experiment.exp_id in _REGISTRY:
        raise ValueError(f"duplicate experiment id {experiment.exp_id}")
    _REGISTRY[experiment.exp_id] = experiment
    return experiment


def registered() -> List[Experiment]:
    """All experiments registered in this process."""
    return list(_REGISTRY.values())


def run_experiment(
    experiment: Experiment,
    quiet: bool = False,
    emitter: Optional[StructuredEmitter] = None,
) -> ExperimentResult:
    """Execute, time, and (unless quiet) print one experiment.

    *emitter* (default: one appending to ``$REPRO_BENCH_JSONL`` when that
    variable is set, else none) receives a single structured
    ``experiment`` record per run. Independently, when ``$REPRO_LEDGER``
    names a file, one provenance manifest (kind
    ``experiment:<exp_id>``) is appended there too.
    """
    if emitter is None:
        emitter = StructuredEmitter.from_env()
    before = profile_mark(ambient())
    start = time.perf_counter()
    result = experiment.body()
    result.seconds = time.perf_counter() - start
    ledger = RunLedger.from_env()
    if ledger is not None:
        ledger.append(
            run_manifest(
                f"experiment:{experiment.exp_id}",
                {"exp_id": experiment.exp_id, "kind": experiment.kind,
                 "claim": experiment.claim},
                jobs=default_jobs(),
                seconds=result.seconds,
                result_doc=result.to_dict(),
                summary=result.metrics,
                telemetry=ambient(),
                since=before,
            )
        )
    if emitter is not None:
        # The result's own to_dict() supplies the JSON-safe payload; the
        # record keeps its historical key set on top of it.
        doc = result.to_dict()
        emitter.emit(
            {
                "record": "experiment",
                "exp_id": doc["exp_id"],
                "kind": experiment.kind,
                "claim": experiment.claim,
                "seconds": doc["seconds"],
                "jobs": default_jobs(),
                "metrics": doc["metrics"],
            }
        )
    if not quiet:
        print()
        print(f"=== {experiment.exp_id} ({experiment.kind}) ===")
        print(f"claim: {experiment.claim}")
        print(result.report)
        print(f"[{result.seconds:.2f}s]")
    return result
