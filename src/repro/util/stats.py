"""Tiny statistics helpers (no numpy dependency for scalar paths)."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence.

    Accepts any sized sequence, including numpy arrays (whose truth value
    is ambiguous, so emptiness is checked via ``len``).
    """
    if len(values) == 0:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by mean — the load-balance metric.

    Zero means perfectly balanced load. The contract at a zero mean:

    * every value zero — a perfectly idle disk set is perfectly balanced
      (zero spread around a zero mean), so the result is ``0.0``;
    * mixed-sign values cancelling to a zero mean — the ratio is
      genuinely undefined (any nonzero spread divided by zero), so a
      ``ValueError`` is raised.
    """
    mu = mean(values)
    if mu == 0:
        if all(x == 0 for x in values):
            return 0.0
        raise ValueError("coefficient of variation undefined for zero mean")
    var = sum((x - mu) ** 2 for x in values) / len(values)
    return math.sqrt(var) / mu


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> "tuple[float, float]":
    """Wilson score interval on a binomial proportion.

    Unlike the normal approximation, the interval never collapses to
    ``[0, 0]`` at zero observed successes — the upper bound stays
    ``~z**2 / (trials + z**2)``, which is exactly the behaviour rare-event
    estimates need: "we saw nothing" still quantifies how rare the event
    could be. Bounds are clamped to ``[0, 1]`` against float dust.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def percentile(values: Sequence[float], q: float, presorted: bool = False) -> float:
    """Linear-interpolated percentile, q in [0, 100].

    Accepts any sized sequence, including numpy arrays; *presorted* says
    it is already ascending (a result column sorts once for every *q*).
    """
    if len(values) == 0:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = values if presorted else sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    value = ordered[lo] + frac * (ordered[hi] - ordered[lo])
    # Clamp: float rounding in the interpolation must never push the
    # result outside the bracketing samples (hypothesis-found edge case
    # with near-equal subnormal inputs).
    return min(max(value, ordered[lo]), ordered[hi])
