"""Arrival processes: how request streams enter the serving simulator.

The generators in :mod:`repro.workloads.generators` say *what* is
accessed; an arrival process says *when*. Two standard shapes:

* :class:`OpenLoop` — Poisson arrivals at a fixed offered rate,
  independent of completions (the classic M/G/1-style open system; load
  keeps arriving even when the array is slow, so queues can grow without
  bound — the right model for "millions of users" front-end traffic).
* :class:`ClosedLoop` — a fixed population of clients, each issuing its
  next request ``think_s`` after the previous one completes (the
  benchmark-rig model; throughput self-regulates to the array's speed).

Both are frozen dataclasses so workload configurations pickle cleanly
into parallel workers and hash/compare by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import SimulationError
from repro.util.checks import check_finite


@dataclass(frozen=True)
class OpenLoop:
    """Poisson arrivals at ``rate_per_s``, independent of completions."""

    rate_per_s: float = 100.0

    def __post_init__(self) -> None:
        check_finite("rate_per_s", self.rate_per_s, error=SimulationError)


@dataclass(frozen=True)
class ClosedLoop:
    """``clients`` concurrent issuers, each thinking ``think_s`` between
    a completion and its next request."""

    clients: int = 8
    think_s: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise SimulationError(
                f"clients must be >= 1, got {self.clients}"
            )
        check_finite(
            "think_s", self.think_s, closed=True, error=SimulationError
        )


#: Anything the serving simulator accepts as an arrival process.
ArrivalProcess = Union[OpenLoop, ClosedLoop]
