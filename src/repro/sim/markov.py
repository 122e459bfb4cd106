"""Continuous-time Markov reliability models (MTTDL, mission loss risk).

States count failed disks; failures arrive at rate ``(n - j) * λ`` and each
failed disk is repaired independently at rate ``μ`` (so state j repairs at
``j * μ``). A transition from j to j+1 failures loses data with probability
``loss_given_excess[j+1]`` — 0 for j+1 within the guaranteed tolerance, and
the complement of the layout's *conditional* survivable fraction beyond it,
which is how the exhaustive E6 enumeration feeds the reliability model.

The repair rate is where recovery speed buys reliability: OI-RAID's rebuild
is several times faster than RAID50's, so its μ is several times larger —
the coupling experiment E7 reports.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.util.checks import check_positive


def conditional_loss_probabilities(
    survivable: Sequence[float],
) -> List[float]:
    """Per-transition loss probabilities from E6's survivable fractions.

    ``survivable[f-1]`` is the unconditional fraction of f-failure patterns
    that are recoverable. The chain needs P(loss | reaching f failures
    having survived f-1), approximated by the ratio of consecutive
    unconditional fractions (exact when survivability is monotone in the
    pattern, which holds for these layouts: losing a superset cannot help).
    """
    loss: List[float] = []
    previous = 1.0
    for fraction in survivable:
        if not 0 <= fraction <= previous + 1e-12:
            raise SimulationError(
                f"survivable fractions must be non-increasing in [0, 1], "
                f"got {list(survivable)}"
            )
        conditional = fraction / previous if previous > 0 else 0.0
        loss.append(1.0 - min(1.0, conditional))
        previous = fraction
    return loss


def _generator_expm(q: np.ndarray) -> np.ndarray:
    """``exp(q)`` of a Markov generator (a handful of states), numpy only.

    Scaling and squaring on ``x = exp(q) - I``: halve *q* until its
    largest exit rate is at most 1, where a 24-term Taylor series is
    exact to the last ulp, then square back as ``x <- 2x + x @ x``.
    Carrying the deviation from the identity instead of the matrix keeps
    the small entries' relative accuracy: in ``I + x`` the early steps'
    exit probabilities round against the 1 on the diagonal, an error
    every later squaring doubles and the absorbing-state entry inherits.
    """
    rate = float(np.max(-np.diag(q)))
    squarings = max(0, math.ceil(math.log2(rate))) if rate > 0 else 0
    step = q / 2.0 ** squarings
    x = term = step
    for k in range(2, 25):
        term = term @ step / k
        x = x + term
    for _ in range(squarings):
        x = 2.0 * x + x @ x
    return np.eye(len(q)) + x


class MarkovReliabilityModel:
    """Birth-death chain with an absorbing data-loss state.

    Args:
        n_disks: array size.
        mttf_hours: per-disk mean time to failure (1/λ).
        mttr_hours: per-disk mean time to repair (1/μ) — layout dependent.
        loss_given_excess: ``loss_given_excess[j]`` is the probability that
            the transition *into* j concurrent failures loses data
            (index 0 unused). The chain's transient states are those with
            a < 1 probability of having already lost.
    """

    def __init__(
        self,
        n_disks: int,
        mttf_hours: float,
        mttr_hours: float,
        loss_given_excess: Sequence[float],
    ) -> None:
        check_positive("n_disks", n_disks, 2)
        if mttf_hours <= 0 or mttr_hours <= 0:
            raise SimulationError("MTTF and MTTR must be positive")
        if len(loss_given_excess) < 2:
            raise SimulationError(
                "loss_given_excess needs entries for at least 1 failure"
            )
        # Series assembled from conditional_loss_probabilities float
        # arithmetic can land at e.g. 0.9999999999999998; accept anything
        # within float tolerance of 1.0 and normalize the stored cap.
        if not math.isclose(loss_given_excess[-1], 1.0, rel_tol=1e-9):
            raise SimulationError(
                "the last loss_given_excess entry must be 1.0 (chain cap)"
            )
        self.n = n_disks
        self.lam = 1.0 / mttf_hours
        self.mu = 1.0 / mttr_hours
        self.loss_given_excess = list(loss_given_excess)
        self.loss_given_excess[-1] = 1.0
        self.max_state = len(loss_given_excess) - 1
        if self.max_state >= n_disks:
            raise SimulationError(
                f"chain depth {self.max_state} exceeds array size {n_disks}"
            )

    # transient states: 0 .. max_state - 1 plus max_state only if it can be
    # entered without loss; entering max_state always loses here because
    # loss_given_excess[-1] == 1, so transient states are 0..max_state-1.

    def _generator(self) -> np.ndarray:
        """Generator over transient states 0..m-1 plus absorbing 'loss'."""
        m = self.max_state
        q = np.zeros((m + 1, m + 1))
        for j in range(m):
            fail = (self.n - j) * self.lam
            repair = j * self.mu
            p_loss = self.loss_given_excess[j + 1]
            if j + 1 < m:
                q[j, j + 1] = fail * (1 - p_loss)
            elif 1 - p_loss > 0:
                # Would enter state m without loss; chain is capped, treat
                # as loss to stay conservative (documented in E7).
                pass
            q[j, m] += fail * p_loss
            if j + 1 == m:
                q[j, m] += fail * (1 - p_loss)
            if j > 0:
                q[j, j - 1] = repair
            q[j, j] = -(fail + repair)
        return q

    def mttdl_hours(self) -> float:
        """Mean time to data loss starting from the all-healthy state."""
        m = self.max_state
        q = self._generator()[:m, :m]
        # E[T] solves Q T = -1 over transient states.
        ones = -np.ones(m)
        times = np.linalg.solve(q, ones)
        return float(times[0])

    def prob_loss_within(self, hours: float) -> float:
        """P(data loss within *hours*), via the matrix exponential."""
        if hours < 0:
            raise SimulationError(f"hours must be >= 0, got {hours}")
        return float(_generator_expm(self._generator() * hours)[0, -1])

    def steady_unavailability(self) -> float:
        """Fraction of time with at least one disk failed (no absorption).

        Uses the chain without the loss state — a quick availability
        indicator, not a substitute for the MTTDL analysis.
        """
        m = self.max_state
        # Birth-death stationary distribution over 0..m-1.
        weights = [1.0]
        for j in range(1, m):
            birth = (self.n - (j - 1)) * self.lam
            death = j * self.mu
            weights.append(weights[-1] * birth / death)
        total = sum(weights)
        return 1.0 - weights[0] / total


def mttdl_raid5_array(
    n_disks: int, mttf_hours: float, mttr_hours: float
) -> float:
    """The textbook closed form MTTF² / (n (n-1) MTTR), for cross-checks."""
    check_positive("n_disks", n_disks, 2)
    return mttf_hours**2 / (n_disks * (n_disks - 1) * mttr_hours)


def model_for_layout(
    n_disks: int,
    mttf_hours: float,
    mttr_hours: float,
    survivable: Sequence[float],
) -> MarkovReliabilityModel:
    """Build a chain from a layout's E6 survivable-fraction series.

    *survivable* lists unconditional survivable fractions for 1, 2, ...
    failures; the chain is capped one past the last entry with certain
    loss.
    """
    loss = [0.0] + conditional_loss_probabilities(survivable) + [1.0]
    return MarkovReliabilityModel(n_disks, mttf_hours, mttr_hours, loss)
