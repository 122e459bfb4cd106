"""In-memory span recorder for the benchmark's own files.

A span wraps one call into a layer's public function. Spans are kept
in memory and handed back to the harness, which writes them out when
the run ends; nothing is written while a pass is being timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Spans:
    """Records ``name, start, end, parent, pass`` rows; a no-op when off.

    ``start`` and ``end`` are raw ``time.perf_counter`` readings. On
    Linux that clock is shared by all processes of the machine, so rows
    of the harness and of a worker line up; ``parent`` refers to an
    ``id`` of the same ``proc``.
    """

    def __init__(self, enabled: bool, proc: str) -> None:
        self.enabled = enabled
        self.proc = proc
        self.rows: List[dict] = []
        self.pass_id: Optional[int] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[dict]]:
        if not self.enabled:
            yield None
            return
        row = {
            "id": len(self.rows),
            "proc": self.proc,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        row.update(attrs)
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter()


def self_seconds(rows: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span never overlap here (every workload is serial),
    so the covered time is the plain sum of the children's durations.
    """
    own = {row["id"]: row["end"] - row["start"] for row in rows}
    for row in rows:
        if row["parent"] is not None:
            own[row["parent"]] -= row["end"] - row["start"]
    return own
