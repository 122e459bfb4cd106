"""Utility helpers: checks, primes, units, stats."""

import pytest

from repro.errors import ParameterError, SimulationError
from repro.util.checks import (
    check_finite,
    check_index,
    check_positive,
    check_probability,
    check_type,
)
from repro.util.primes import is_prime, next_prime, prime_power_base
from repro.util.stats import (
    coefficient_of_variation,
    mean,
    percentile,
    wilson_interval,
)
from repro.util.units import GIB, KIB, MIB, TIB, format_bytes, format_duration


class TestChecks:
    def test_check_type_rejects_bool_as_int(self):
        with pytest.raises(TypeError):
            check_type("x", True, int)

    def test_check_positive(self):
        check_positive("x", 3)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(TypeError):
            check_positive("x", 1.5)

    def test_check_index(self):
        check_index("i", 0, 3)
        with pytest.raises(IndexError):
            check_index("i", 3, 3)
        with pytest.raises(IndexError):
            check_index("i", -1, 3)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.01)
        with pytest.raises(TypeError):
            check_probability("p", "0.5")
        with pytest.raises(TypeError):
            check_probability("p", True)

    def test_check_finite(self):
        check_finite("x", 1e-9)
        check_finite("x", 3)
        check_finite("x", 0.0, closed=True)
        check_finite("x", -1.0, low=-2.0)
        for bad in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="x must be finite and > 0"):
                check_finite("x", bad)
        with pytest.raises(ParameterError, match=">= 0"):
            check_finite("x", float("nan"), closed=True)
        with pytest.raises(SimulationError):
            check_finite("x", float("nan"), error=SimulationError)
        with pytest.raises(TypeError):
            check_finite("x", "1")


class TestPrimes:
    def test_is_prime_small(self):
        primes = [n for n in range(30) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_next_prime(self):
        assert next_prime(0) == 2
        assert next_prime(8) == 11
        assert next_prime(13) == 13

    def test_prime_power_base(self):
        assert prime_power_base(8) == (2, 3)
        assert prime_power_base(9) == (3, 2)
        assert prime_power_base(7) == (7, 1)
        assert prime_power_base(12) is None
        assert prime_power_base(1) is None


class TestUnits:
    def test_byte_constants(self):
        assert KIB == 1024 and MIB == KIB**2 and GIB == KIB**3 and TIB == KIB**4

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2 * MIB) == "2.0 MiB"
        assert format_bytes(1.5 * TIB) == "1.5 TiB"
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_format_duration(self):
        assert format_duration(30) == "30.0 s"
        assert format_duration(90) == "1.5 min"
        assert format_duration(7200) == "2.00 h"
        assert format_duration(2 * 86400) == "2.00 d"
        with pytest.raises(ValueError):
            format_duration(-1)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        with pytest.raises(ValueError):
            mean([])

    def test_cv_zero_for_constant(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_cv_zero_for_all_zero_values(self):
        # a perfectly idle disk set is perfectly balanced, not an error
        assert coefficient_of_variation([0, 0]) == 0.0
        assert coefficient_of_variation([0.0, 0.0, 0.0]) == 0.0

    def test_cv_undefined_for_mixed_sign_zero_mean(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1, 1])

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 50) == 5
        assert percentile([1, 2, 3, 4], 0) == 1
        assert percentile([1, 2, 3, 4], 100) == 4
        assert percentile([7], 30) == 7
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_numpy_arrays_accepted(self):
        # The vectorized paths hand per-disk loads over as numpy arrays,
        # whose truth value is ambiguous — emptiness must go via len().
        import numpy as np

        assert mean(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)
        assert percentile(np.array([0.0, 10.0]), 50) == pytest.approx(5.0)
        assert coefficient_of_variation(np.array([5.0, 5.0])) == 0.0

    def test_numpy_empty_arrays_raise_value_error(self):
        import numpy as np

        with pytest.raises(ValueError):
            mean(np.array([]))
        with pytest.raises(ValueError):
            percentile(np.array([]), 50)


class TestWilsonInterval:
    def test_zero_successes_upper_bound_is_positive(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.005  # ~ z^2 / (n + z^2), never [0, 0]

    def test_all_successes_lower_bound_below_one(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert 0.995 < lo < 1.0

    def test_brackets_the_point_estimate(self):
        lo, hi = wilson_interval(30, 200)
        assert lo < 30 / 200 < hi

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    def test_coverage_at_small_n_and_p(self):
        """Exact binomial coverage of the 95% Wilson interval at a small
        n and rare p — the regime where the normal (Wald) interval the
        results used to report collapses to [0, 0] on the most likely
        outcome (k=0) and covers almost never."""
        import math

        n, p = 30, 0.02
        wilson_cover = 0.0
        wald_cover = 0.0
        for k in range(n + 1):
            pmf = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            lo, hi = wilson_interval(k, n)
            if lo <= p <= hi:
                wilson_cover += pmf
            # the old normal approximation: p_hat +/- z * sqrt(pq/n)
            ph = k / n
            half = 1.96 * math.sqrt(ph * (1 - ph) / n)
            if ph - half <= p <= ph + half:
                wald_cover += pmf
        assert wilson_cover >= 0.95
        assert wald_cover < 0.65  # k=0 (pmf ~0.55) covers nothing
