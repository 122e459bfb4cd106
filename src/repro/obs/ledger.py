"""Append-only JSONL run ledger: provenance manifests.

Every ``run()`` invocation (and each bench-runner experiment) can append one
manifest line to a ledger file named by the ``REPRO_LEDGER`` environment
variable: config fingerprint, seed, kernel, jobs, package version, wall
seconds, the run's own phase breakdown when the ambient telemetry is
profiling, and a digest of the canonical result document.  The ledger
turns "which run produced this number?" from archaeology into a lookup
(``repro runs list | show | diff``).

Records ride the same JSON conventions as ``StructuredEmitter``: sorted keys,
non-finite floats as ``null``, one line per record.
"""

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from .emit import StructuredEmitter, _strict, writing

REPRO_LEDGER_ENV = "REPRO_LEDGER"

__all__ = [
    "REPRO_LEDGER_ENV",
    "RunLedger",
    "config_fingerprint",
    "profile_mark",
    "result_digest",
    "run_manifest",
    "repro_version",
]


def repro_version() -> str:
    """The installed package version, or the source-tree fallback.

    ``PYTHONPATH=src`` runs have no installed distribution, so fall back to
    the version constant shipped in the package itself.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "0")


def _canonical_json(doc: Any) -> str:
    return json.dumps(_strict(doc), sort_keys=True, default=str, allow_nan=False)


def config_fingerprint(config: Dict[str, Any]) -> str:
    """Short stable digest of a canonical configuration document.

    Seeds and job counts are recorded as separate manifest fields, so the
    caller should exclude them: runs of the same experiment at different
    seeds share a fingerprint and group together in ``repro runs list``.
    """
    digest = hashlib.sha256(_canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def result_digest(doc: Dict[str, Any]) -> str:
    """Digest of a canonical result document (``ResultBase.to_dict()``)."""
    digest = hashlib.sha256(_canonical_json(doc).encode("utf-8"))
    return digest.hexdigest()[:16]


def profile_mark(telemetry) -> Tuple[Dict[str, float], Dict[str, float]]:
    """*telemetry*'s running phase seconds and counters, taken before a
    run so :func:`run_manifest` can record only what the run added."""
    return telemetry.phase_seconds(), dict(telemetry.counters)


def _since(totals: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """The entries of *totals* that are new or moved since *before*."""
    return {k: v - before.get(k, 0) for k, v in sorted(totals.items()) if v != before.get(k)}


def run_manifest(
    kind: str,
    config: Dict[str, Any],
    *,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    kernel: Optional[str] = None,
    seconds: Optional[float] = None,
    result_doc: Optional[Dict[str, Any]] = None,
    summary: Optional[Dict[str, Any]] = None,
    telemetry=None,
    since: Tuple[Dict[str, float], Dict[str, float]] = ({}, {}),
) -> Dict[str, Any]:
    """Build one provenance record; plain dict, ready for ``RunLedger.append``.

    A profiling *telemetry* adds the phases and counters that moved since
    *since*, its :func:`profile_mark` taken before the run.
    """
    record: Dict[str, Any] = {
        "record": "run",
        "ts": time.time(),
        "kind": kind,
        "config_fingerprint": config_fingerprint(config),
        "config": config,
        "seed": seed,
        "jobs": jobs,
        "kernel": kernel,
        "version": repro_version(),
        "seconds": seconds,
    }
    if result_doc is not None:
        record["result_digest"] = result_digest(result_doc)
    if summary is not None:
        record["summary"] = summary
    if telemetry is not None and telemetry.profiling:
        phases = _since(telemetry.phase_seconds(), since[0])
        if phases:
            record["phases"] = phases
            record["phase_counters"] = _since(telemetry.counters, since[1])
    return record


class RunLedger:
    """Append-only JSONL file of run manifests."""

    def __init__(self, path: str):
        self.path = str(path)

    @classmethod
    def from_env(cls, var: str = REPRO_LEDGER_ENV) -> Optional["RunLedger"]:
        path = os.environ.get(var)
        if not path:
            return None
        return cls(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSONL line (non-finite floats → null)."""
        with writing(self.path):
            StructuredEmitter(path=self.path).emit(record)

    def records(self) -> List[Dict[str, Any]]:
        """All records, oldest first.  Malformed lines are skipped."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                records.append(doc)
        return records
