"""Fault-tolerance verification by exhaustive (or sampled) enumeration.

The abstract's claim "OI-RAID tolerates at least three disk failures" is
verified here, not assumed: :func:`guaranteed_tolerance` enumerates every
failure pattern up to a size and runs the peeling decoder on each. The
survivable fraction beyond the guarantee (4+, partial tolerance) is the E6
series.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

from repro.layouts.base import Layout
from repro.layouts.recovery import failure_matrix, recoverable_many
from repro.sim.parallel import DEFAULT_CHUNK_PATTERNS, count_survivable
from repro.util.checks import check_positive


def failure_patterns(
    n_disks: int,
    n_failures: int,
    max_patterns: Optional[int] = None,
    seed: int = 0,
) -> List[Tuple[int, ...]]:
    """All (or a uniform sample of) *n_failures*-subsets of the disks."""
    check_positive("n_disks", n_disks, 1)
    check_positive("n_failures", n_failures, 1)
    if max_patterns is not None:
        check_positive("max_patterns", max_patterns, 1)
    if n_failures > n_disks:
        raise ValueError(f"cannot fail {n_failures} of {n_disks} disks")
    total = 1
    for i in range(n_failures):
        total = total * (n_disks - i) // (i + 1)
    if max_patterns is None or total <= max_patterns:
        return list(itertools.combinations(range(n_disks), n_failures))
    rng = random.Random(seed)
    seen = set()
    while len(seen) < max_patterns:
        seen.add(tuple(sorted(rng.sample(range(n_disks), n_failures))))
    return sorted(seen)


def survivable_fraction(
    layout: Layout,
    n_failures: int,
    max_patterns: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
) -> float:
    """Fraction of *n_failures*-disk patterns the layout can decode.

    ``jobs > 1`` fans the pattern checks across worker processes (same
    result for any value — only the work distribution changes).
    """
    patterns = failure_patterns(layout.n_disks, n_failures, max_patterns, seed)
    return count_survivable(layout, patterns, jobs=jobs) / len(patterns)


def first_unrecoverable(
    layout: Layout,
    n_failures: int,
    max_patterns: Optional[int] = None,
    seed: int = 0,
) -> Optional[Tuple[int, ...]]:
    """A witness pattern that loses data, or None if all patterns survive.

    Decided a chunk at a time: ``recovery.oracle_calls`` counts the whole
    chunk the witness is in."""
    patterns = failure_patterns(layout.n_disks, n_failures, max_patterns, seed)
    for start in range(0, len(patterns), DEFAULT_CHUNK_PATTERNS):
        chunk = patterns[start:start + DEFAULT_CHUNK_PATTERNS]
        survives = recoverable_many(layout, failure_matrix(layout, chunk))
        if not survives.all():
            return chunk[int(survives.argmin())]
    return None


def guaranteed_tolerance(
    layout: Layout,
    limit: int = 6,
    max_patterns_per_size: Optional[int] = None,
) -> int:
    """Largest f <= limit with *every* checked f-failure pattern recoverable.

    With ``max_patterns_per_size=None`` the enumeration is exhaustive and
    the result is exact (up to *limit*); with sampling it is an upper-bound
    estimate and the benchmarks label it as such.
    """
    check_positive("limit", limit, 1)
    tolerance = 0
    for f in range(1, min(limit, layout.n_disks - 1) + 1):
        witness = first_unrecoverable(layout, f, max_patterns_per_size)
        if witness is not None:
            break
        tolerance = f
    return tolerance


def tolerance_profile(
    layout: Layout,
    max_failures: int = 6,
    max_patterns_per_size: Optional[int] = None,
    seed: int = 0,
    jobs: int = 1,
) -> Dict[int, float]:
    """{f: survivable fraction} for f = 1..max_failures (the E6 series)."""
    check_positive("max_failures", max_failures, 1)
    profile = {}
    for f in range(1, min(max_failures, layout.n_disks - 1) + 1):
        profile[f] = survivable_fraction(
            layout, f, max_patterns_per_size, seed, jobs=jobs
        )
    return profile
