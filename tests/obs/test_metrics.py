"""Metrics primitives: counters, streaming histograms, registry."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.obs import Counter, Histogram, MetricsRegistry
from repro.obs.metrics import HISTOGRAM_GROWTH


class TestCounter:
    def test_increments_and_merges(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        other = Counter()
        other.inc(3)
        c.merge(other)
        assert c.value == 6.5

    def test_negative_increment_rejected(self):
        with pytest.raises(TelemetryError):
            Counter().inc(-1)

    def test_whole_counts_render_as_int(self):
        c = Counter()
        c.inc(3)
        assert c.to_number() == 3
        assert isinstance(c.to_number(), int)


class TestHistogram:
    def test_quantiles_within_bucket_resolution(self):
        h = Histogram()
        values = [random.Random(0).uniform(1, 1000) for _ in range(5000)]
        for v in values:
            h.observe(v)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            # Geometric buckets bound relative error to one growth factor.
            assert h.quantile(q) == pytest.approx(exact, rel=0.1)

    def test_extremes_clamp_quantiles(self):
        h = Histogram()
        h.observe(5.0)
        assert h.quantile(0.0) == 5.0
        assert h.quantile(1.0) == 5.0

    def test_zeros_tracked_separately(self):
        h = Histogram()
        for _ in range(9):
            h.observe(0.0)
        h.observe(100.0)
        assert h.quantile(0.5) == 0.0
        assert h.count == 10
        assert h.min == 0.0

    def test_merge_equals_concatenated_stream(self):
        rng = random.Random(1)
        values = [rng.expovariate(0.1) for _ in range(2000)]
        whole, a, b = Histogram(), Histogram(), Histogram()
        for v in values:
            whole.observe(v)
        for v in values[:700]:
            a.observe(v)
        for v in values[700:]:
            b.observe(v)
        a.merge(b)
        assert a.buckets == whole.buckets
        assert (a.count, a.min, a.max) == (whole.count, whole.min, whole.max)
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == whole.quantile(q)
        # Sums are exact, so no summation order shows.
        assert a.total == whole.total == math.fsum(values)

    def test_merged_sum_is_the_streams_exactly(self):
        """A running float gave 0.1 + (0.2 + 0.3) = 0.6 for the merge and
        (0.1 + 0.2) + 0.3 = 0.6000000000000001 for the stream."""
        whole, a, b = Histogram(), Histogram(), Histogram()
        for v in (0.1, 0.2, 0.3):
            whole.observe(v)
        a.observe(0.1)
        b.observe(0.2)
        b.observe(0.3)
        a.merge(b)
        assert a.to_dict() == whole.to_dict()
        assert a.total == math.fsum([0.1, 0.2, 0.3]) == 0.6

    def test_rejects_negative_nan_inf(self):
        h = Histogram()
        h.observe_many([0.5, 3])
        before = h.to_dict()
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(TelemetryError):
                h.observe(bad)
            with pytest.raises(TelemetryError):
                h.observe_many([2.0, 0.0, bad, 7.0])
            assert h.to_dict() == before

    def test_fold_keeps_observes_buckets_when_numpy_logs_are_ulps_off(
        self, monkeypatch
    ):
        """A vectorized log may miss math.log by a few ulps; at a bucket
        edge that moves a value's bucket, so the fold re-takes it there."""
        values = [
            math.nextafter(HISTOGRAM_GROWTH ** k, toward)
            for k in range(-200, 200) for toward in (0.0, math.inf)
        ] + [HISTOGRAM_GROWTH ** k for k in range(-200, 200)]
        streamed = Histogram()
        for v in values:
            streamed.observe(v)
        real_log = np.log
        monkeypatch.setattr(np, "log", lambda x: real_log(x) * (1 - 4e-16))
        folded = Histogram()
        folded.observe_many(values)
        assert folded.to_dict() == streamed.to_dict()

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_round_trips_through_dict(self):
        h = Histogram()
        for v in (0.0, 0.5, 12.0, 12.0, 400.0):
            h.observe(v)
        back = Histogram.from_dict(h.to_dict())
        assert back.buckets == h.buckets
        assert back.summary() == h.summary()


#: The values a vectorized fold is likeliest to get wrong: zero, ints,
#: and bucket edges with their float neighbours on either side.
EDGES = st.integers(-400, 400).flatmap(
    lambda k: st.sampled_from([
        math.nextafter(HISTOGRAM_GROWTH ** k, 0.0),
        HISTOGRAM_GROWTH ** k,
        math.nextafter(HISTOGRAM_GROWTH ** k, math.inf),
    ])
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
            st.just(0),
            st.integers(0, 10 ** 6),
            EDGES,
        ),
        max_size=30,
    ),
    data=st.data(),
)
def test_any_split_in_any_order_merges_to_the_stream(values, data):
    """Parts folded value by value or as one column merge to the stream."""
    shuffled = data.draw(st.permutations(values))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=5)))
    parts = []
    for lo, hi in zip([0, *cuts], [*cuts, len(values)]):
        part = Histogram()
        if data.draw(st.booleans()):
            part.observe_many(shuffled[lo:hi])
        else:
            for v in shuffled[lo:hi]:
                part.observe(v)
        parts.append(part)
    merged, whole = Histogram(), Histogram()
    for part in data.draw(st.permutations(parts)):
        merged.merge(part)
    for v in values:
        whole.observe(v)
    assert merged.to_dict() == whole.to_dict()
    assert merged.to_dict()["sum"] == math.fsum(values)


class TestMetricsRegistry:
    def test_instruments_created_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("c").observe(3.0)
        assert len(reg) == 2
        assert reg.counters() == [("a", 1)]

    def test_merge_order_independence_for_counters(self):
        parts = []
        for value in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("x").inc(value)
            parts.append(reg)
        merged = MetricsRegistry.merged(parts)
        assert merged.counters() == [("x", 6)]

    def test_json_round_trip_bit_identical(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(5)
        for v in (1.0, 2.0, 3.0):
            reg.histogram("hours").observe(v)
        back = MetricsRegistry.from_json(reg.to_json())
        assert back.to_json() == reg.to_json()

    def test_picklable(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.histogram("h").observe(1.5)
        back = pickle.loads(pickle.dumps(reg))
        assert back.to_dict() == reg.to_dict()

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry.from_dict({"schema": "nope/9"})
        with pytest.raises(TelemetryError):
            MetricsRegistry.from_dict("not even a dict")

    def test_from_json_rejects_garbage(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry.from_json("{broken")
