"""Structured (JSONL) emission for benchmarks and the experiment runner.

One record per line, keys sorted, flushed eagerly — the contract that
keeps machine-read output parseable while human diagnostics go to
stderr. The bench runner emits one ``experiment`` record per run when
the ``REPRO_BENCH_JSONL`` environment variable names a destination file,
so BENCH_*.json-style trajectories come from the same pipeline as the
interactive reports.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from typing import IO, Any, Iterator, Optional

from repro.errors import ReproError

#: Environment variable naming the bench runner's JSONL destination.
BENCH_JSONL_ENV = "REPRO_BENCH_JSONL"


@contextlib.contextmanager
def writing(path: Any) -> Iterator[None]:
    """Write a requested artifact to *path* inside this block.

    An ``OSError`` (missing directory, no permission, full disk) leaves
    as one :class:`~repro.errors.ReproError` naming the path, so a run
    that cannot save what it was asked to save ends in an ``error:``
    line, not a traceback.
    """
    try:
        yield
    except OSError as exc:
        raise ReproError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from None


def check_writable(path: Any) -> None:
    """Fail before the run, not after it, if *path* cannot be written.

    Opens it for appending: creates a missing file, truncates nothing.
    """
    with writing(path):
        open(path, "a", encoding="utf-8").close()


def _strict(value: Any) -> Any:
    """Replace non-finite floats with ``None`` so every line is strict JSON.

    ``json.dumps`` would otherwise spell them ``Infinity``/``NaN`` —
    tokens strict parsers (and ``json.loads(..., parse_constant=...)``
    consumers) reject. Mirrors the :mod:`repro.results` convention:
    ``null`` means "not observed".
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


class StructuredEmitter:
    """Append JSON records, one per line, to a stream or a file path."""

    def __init__(
        self, stream: Optional[IO[str]] = None, path: Optional[str] = None
    ) -> None:
        if (stream is None) == (path is None):
            raise ValueError("provide exactly one of stream or path")
        self._stream = stream
        self._path = path
        self.emitted = 0

    @classmethod
    def from_env(cls, var: str = BENCH_JSONL_ENV) -> Optional["StructuredEmitter"]:
        """An emitter appending to ``$REPRO_BENCH_JSONL``, if set."""
        path = os.environ.get(var, "").strip()
        return cls(path=path) if path else None

    def emit(self, record: dict) -> None:
        """Append one record as a sorted-key strict-JSON line, flushed eagerly."""
        line = json.dumps(
            _strict(record), sort_keys=True, default=str, allow_nan=False
        ) + "\n"
        if self._stream is not None:
            self._stream.write(line)
            self._stream.flush()
        else:
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line)
        self.emitted += 1
