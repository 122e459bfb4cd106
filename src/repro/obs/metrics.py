"""Metrics primitives: counters and streaming histograms.

A :class:`MetricsRegistry` is the unit the rest of the stack passes
around: simulation kernels record into one, each parallel worker fills a
private one, and the parent merges the per-chunk registries *in chunk
order* so the merged result is bit-identical for any worker count.

Design constraints (see DESIGN.md, "Telemetry layer"):

* **Plain and picklable** — registries hold plain Python numbers, cross
  process boundaries via :mod:`pickle` and serialize to plain JSON
  documents; numpy (a hard dependency) only folds columns in.
* **Deterministic content** — simulation instrumentation records only
  sim-domain quantities (event counts, simulated hours, bytes). Wall
  clock lives in the trace (:mod:`repro.obs.trace`), never here, which
  is what lets the parallel determinism contract extend to telemetry.
* **Bounded memory** — :class:`Histogram` keeps geometric buckets
  (~10 % relative resolution), not samples, so p50/p95/p99 of a
  million observations costs a few dozen dict entries.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as _np

from repro.errors import TelemetryError

#: Geometric bucket growth factor: each bucket's upper bound is ~8.3%
#: above the previous one, bounding quantile error to half a bucket.
HISTOGRAM_GROWTH = 1.0905077326652577  # 2 ** (1/8): 8 buckets per octave

_LOG_GROWTH = math.log(HISTOGRAM_GROWTH)

#: Document identifier stamped on serialized registries.
METRICS_SCHEMA = "repro.metrics/1"


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0) to the count."""
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (sums are order-independent)."""
        self.value += other.value

    def to_number(self) -> float:
        """Render as an int when the count is whole (the common case)."""
        return int(self.value) if self.value == int(self.value) else self.value


class Histogram:
    """A streaming histogram over non-negative values.

    Values land in geometric buckets (``HISTOGRAM_GROWTH`` apart), so
    quantiles come from bucket interpolation without storing samples and
    two histograms merge by summing bucket counts. The sum is kept as
    Shewchuk partials (the algorithm behind :func:`math.fsum`), so
    :attr:`total` is the correctly rounded sum of every value observed:
    the merge of parts, in any split and any order, equals the histogram
    of the concatenated stream, exactly.
    """

    __slots__ = ("buckets", "zeros", "count", "_partials", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.zeros = 0
        self.count = 0
        self._partials: List[float] = []
        self.min = math.inf
        self.max = -math.inf

    def _add(self, value: float) -> None:
        """Fold *value* into the partials; their exact sum is the sum."""
        partials = self._partials
        i = 0
        for partial in partials:
            if abs(value) < abs(partial):
                value, partial = partial, value
            high = value + partial
            low = partial - (high - value)
            if low:
                partials[i] = low
                i += 1
            value = high
        partials[i:] = [value]

    @property
    def total(self) -> float:
        """The correctly rounded sum of every observation."""
        return math.fsum(self._partials)

    def observe(self, value: float) -> None:
        """Record one non-negative finite observation."""
        if value < 0 or math.isnan(value) or math.isinf(value):
            raise TelemetryError(
                f"histogram values must be finite and >= 0, got {value}"
            )
        self.count += 1
        self._add(value)
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value == 0:
            self.zeros += 1
            return
        key = math.floor(math.log(value) / _LOG_GROWTH)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def observe_many(self, values) -> None:
        """Record a sequence or array as :meth:`observe` would, value by value.

        numpy logs give the buckets (re-taken with :func:`math.log` within
        1e-9 of an edge); the sum enters as the exact expansion
        :func:`math.fsum` peels off the values. A bad value records nothing.
        """
        array = _np.asarray(values)
        items = list(values) if isinstance(values, (list, tuple)) else array.tolist()
        valid = (array >= 0) & _np.isfinite(array)
        if not valid.all():
            self.observe(items[int(_np.argmin(valid))])  # raises, unrecorded
        if not items:
            return
        low, high = items[int(array.argmin())], items[int(array.argmax())]
        positive = array[array > 0]
        logs = _np.log(positive) / _LOG_GROWTH
        keys = _np.floor(logs).astype(_np.int64)
        edge = _np.flatnonzero(_np.abs(logs - _np.rint(logs)) < 1e-9)
        for i, value in zip(edge.tolist(), positive[edge].tolist()):
            keys[i] = math.floor(math.log(value) / _LOG_GROWTH)
        expansion = [math.fsum(items)]
        while expansion[-1]:
            items.append(-expansion[-1])
            expansion.append(math.fsum(items))

        self.count += len(array)
        self.zeros += len(array) - len(positive)
        for part in expansion[:-1]:
            self._add(part)
        self.min = min(self.min, low)
        self.max = max(self.max, high)
        if len(keys):
            counts = _np.bincount(keys - keys.min())
            found = _np.flatnonzero(counts)
            for key, n in zip((found + keys.min()).tolist(), counts[found].tolist()):
                self.buckets[key] = self.buckets.get(key, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (geometric-midpoint interpolation)."""
        if not 0 <= q <= 1:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1) + 1  # 1-based rank, inclusive
        seen = self.zeros
        if seen >= rank:
            return 0.0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= rank:
                lo = HISTOGRAM_GROWTH ** key
                hi = lo * HISTOGRAM_GROWTH
                mid = math.sqrt(lo * hi)
                return min(max(mid, self.min), self.max)
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Sum bucket counts and partials: exactly the combined stream's."""
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        for partial in other._partials:
            self._add(partial)
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """The fields a report shows: count/mean/extremes/percentiles."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> dict:
        """The JSON shape embedded in a metrics document."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "zeros": self.zeros,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Histogram":
        hist = cls()
        try:
            hist.count = int(doc["count"])
            hist._partials = [float(doc["sum"])]
            hist.zeros = int(doc.get("zeros", 0))
            hist.buckets = {int(k): int(v) for k, v in doc["buckets"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed histogram document: {exc}") from exc
        hist.min = math.inf if doc.get("min") is None else float(doc["min"])
        hist.max = -math.inf if doc.get("max") is None else float(doc["max"])
        return hist


class MetricsRegistry:
    """A named collection of counters and histograms.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and live for the registry's lifetime. Serialization sorts names, so
    two registries with identical contents produce identical documents —
    the property the telemetry determinism tests assert on.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram()
        return inst

    def counters(self) -> List[Tuple[str, float]]:
        """``(name, value)`` pairs, sorted by name."""
        return sorted((n, c.to_number()) for n, c in self._counters.items())

    def histograms(self) -> List[Tuple[str, Histogram]]:
        """``(name, histogram)`` pairs, sorted by name."""
        return sorted(self._histograms.items())

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- merge / serialization --------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into self (callers merge chunks in chunk order)."""
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)

    @classmethod
    def merged(cls, parts: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def to_dict(self) -> dict:
        """The full ``repro.metrics/1`` document (sorted names)."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {n: c.to_number() for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsRegistry":
        """Parse (and thereby validate) a ``repro.metrics/1`` document.

        The ``gauges`` object older documents carry is ignored.
        """
        if not isinstance(doc, dict) or doc.get("schema") != METRICS_SCHEMA:
            raise TelemetryError(
                f"not a {METRICS_SCHEMA} document "
                f"(schema={doc.get('schema') if isinstance(doc, dict) else doc!r})"
            )
        reg = cls()
        try:
            for name, value in doc.get("counters", {}).items():
                reg._counters[name] = Counter(float(value))
            for name, fields in doc.get("histograms", {}).items():
                reg._histograms[name] = Histogram.from_dict(fields)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed metrics document: {exc}") from exc
        return reg

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize; equal registry contents produce equal strings."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Parse a document produced by :meth:`to_json`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"metrics file is not JSON: {exc}") from exc
        return cls.from_dict(doc)
