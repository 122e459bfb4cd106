"""Markov chains and Monte-Carlo lifetimes, cross-validated."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.layouts import FlatMDSLayout, Raid5Layout
from repro.sim.markov import (
    MarkovReliabilityModel,
    conditional_loss_probabilities,
    model_for_layout,
    mttdl_raid5_array,
)
from repro.sim.montecarlo import simulate_lifetimes


class TestConditionalLoss:
    def test_perfect_tolerance_prefix(self):
        loss = conditional_loss_probabilities([1.0, 1.0, 0.5])
        assert loss[0] == 0.0
        assert loss[1] == 0.0
        assert loss[2] == pytest.approx(0.5)

    def test_ratio_of_consecutive(self):
        loss = conditional_loss_probabilities([1.0, 0.8, 0.4])
        assert loss[1] == pytest.approx(0.2)
        assert loss[2] == pytest.approx(0.5)

    def test_increasing_fractions_rejected(self):
        with pytest.raises(SimulationError):
            conditional_loss_probabilities([0.5, 0.9])


class TestMarkov:
    def test_raid5_chain_matches_closed_form(self):
        n, mttf, mttr = 8, 100_000.0, 24.0
        model = MarkovReliabilityModel(n, mttf, mttr, [0.0, 0.0, 1.0])
        closed = mttdl_raid5_array(n, mttf, mttr)
        assert model.mttdl_hours() == pytest.approx(closed, rel=0.01)

    def test_deeper_tolerance_increases_mttdl(self):
        args = (12, 50_000.0, 24.0)
        tol1 = MarkovReliabilityModel(*args, [0.0, 0.0, 1.0]).mttdl_hours()
        tol2 = MarkovReliabilityModel(*args, [0.0, 0.0, 0.0, 1.0]).mttdl_hours()
        tol3 = MarkovReliabilityModel(
            *args, [0.0, 0.0, 0.0, 0.0, 1.0]
        ).mttdl_hours()
        assert tol1 < tol2 < tol3

    def test_faster_repair_increases_mttdl(self):
        slow = MarkovReliabilityModel(
            10, 50_000.0, 48.0, [0.0, 0.0, 1.0]
        ).mttdl_hours()
        fast = MarkovReliabilityModel(
            10, 50_000.0, 6.0, [0.0, 0.0, 1.0]
        ).mttdl_hours()
        assert fast > 7 * slow

    def test_prob_loss_monotone_in_time(self):
        model = MarkovReliabilityModel(10, 10_000.0, 24.0, [0.0, 0.0, 1.0])
        p1 = model.prob_loss_within(8766)
        p10 = model.prob_loss_within(87660)
        assert 0 < p1 < p10 < 1

    def test_prob_loss_at_zero(self):
        model = MarkovReliabilityModel(5, 1000.0, 10.0, [0.0, 1.0])
        assert model.prob_loss_within(0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("hours", [1e-6, 1.0, 8766.0, 1e6])
    def test_prob_loss_matches_the_one_state_closed_form(self, hours):
        """No tolerance: the first of n exponential failures is the loss,
        to full relative accuracy even where the probability is ~1e-9."""
        model = MarkovReliabilityModel(5, 1000.0, 10.0, [0.0, 1.0])
        expected = -math.expm1(-5 * hours / 1000.0)
        assert model.prob_loss_within(hours) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mttr", [0.5, 40.0])
    @pytest.mark.parametrize("n", [8, 21, 57])
    def test_prob_loss_matches_the_eigendecomposition(self, n, mttr):
        """The numpy scaling-and-squaring exponential against an
        independent route to exp(Qt): Q = V diag(w) V^-1."""
        model = MarkovReliabilityModel(
            n, 10_000.0, mttr, [0.0, 0.0, 0.0, 0.3, 1.0]
        )
        w, v = np.linalg.eig(model._generator())
        for hours in (100.0, 8766.0, 87_660.0):
            spectral = (v * np.exp(w * hours)) @ np.linalg.inv(v)
            # abs: the spectral route itself is only good to ~1e-16.
            assert model.prob_loss_within(hours) == pytest.approx(
                float(spectral[0, -1].real), rel=1e-6, abs=1e-14
            )

    def test_steady_unavailability_small(self):
        model = MarkovReliabilityModel(
            10, 100_000.0, 24.0, [0.0, 0.0, 0.0, 1.0]
        )
        assert 0 < model.steady_unavailability() < 0.01

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            MarkovReliabilityModel(5, 0, 10, [0.0, 1.0])
        with pytest.raises(SimulationError):
            MarkovReliabilityModel(5, 10, 10, [0.0, 0.5])  # cap must be 1.0
        with pytest.raises(SimulationError):
            MarkovReliabilityModel(3, 10, 10, [0.0, 0.0, 0.0, 1.0])

    def test_cap_accepts_float_arithmetic_dust(self):
        # Series assembled from conditional_loss_probabilities can land at
        # 1 - 2 ulp; the cap check must not reject them, and the stored
        # value must be normalized to exactly 1.0.
        dusty = 0.9999999999999998
        model = MarkovReliabilityModel(8, 1000.0, 10.0, [0.0, 0.0, dusty])
        assert model.loss_given_excess[-1] == 1.0
        exact = MarkovReliabilityModel(8, 1000.0, 10.0, [0.0, 0.0, 1.0])
        assert model.mttdl_hours() == pytest.approx(exact.mttdl_hours())

    def test_cap_still_rejects_genuine_mismatch(self):
        with pytest.raises(SimulationError):
            MarkovReliabilityModel(8, 1000.0, 10.0, [0.0, 0.0, 0.999])

    def test_model_for_layout_builds_capped_chain(self):
        model = model_for_layout(21, 1000.0, 10.0, [1.0, 1.0, 1.0, 0.8])
        assert model.max_state == 5


class TestMonteCarlo:
    def test_mc_agrees_with_markov_raid5(self):
        # Accelerated rates tuned for a mid-range loss probability (so the
        # comparison is informative rather than saturated at 0 or 1).
        n, mttf, mttr, horizon = 8, 2000.0, 40.0, 2000.0
        model = MarkovReliabilityModel(n, mttf, mttr, [0.0, 0.0, 1.0])
        expected = model.prob_loss_within(horizon)
        result = simulate_lifetimes(
            Raid5Layout(n), mttf, mttr, horizon, trials=1500, seed=0
        )
        lo, hi = result.prob_loss_interval(z=3.5)
        assert lo <= expected <= hi

    def test_mc_with_layout_oracle(self, fano_layout):
        result = simulate_lifetimes(
            fano_layout, 3000.0, 30.0, horizon_hours=3000.0, trials=120, seed=1
        )
        assert 0 <= result.prob_loss <= 1
        # With tolerance 3 at these rates, loss must be far rarer than for
        # a tolerance-1 system.
        raid5_like = simulate_lifetimes(
            Raid5Layout(21),
            3000.0,
            30.0,
            horizon_hours=3000.0,
            trials=120,
            seed=1,
        )
        assert result.prob_loss < raid5_like.prob_loss

    def test_no_losses_gives_infinite_estimate(self):
        result = simulate_lifetimes(
            FlatMDSLayout(4, 3), 1e9, 1.0, 100.0, trials=10, seed=2
        )
        assert result.losses == 0
        assert result.mttdl_estimate_hours == float("inf")

    def test_reproducible(self):
        a = simulate_lifetimes(
            Raid5Layout(6), 500.0, 50.0, 1000.0, trials=50, seed=3
        )
        b = simulate_lifetimes(
            Raid5Layout(6), 500.0, 50.0, 1000.0, trials=50, seed=3
        )
        assert a.loss_times == b.loss_times

    def test_validation(self):
        with pytest.raises(SimulationError):
            simulate_lifetimes(Raid5Layout(4), -1, 1, 10, trials=5)
