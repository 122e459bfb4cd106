"""The common result protocol: ``to_dict`` / ``from_dict`` / ``summary``.

Every simulate-style entry point in this reproduction returns a frozen
dataclass (``RebuildResult``, ``LifetimeResult``, ``LifecycleResult``,
``ServeResult``, …). The protocol puts all of them behind four methods:

* ``to_dict()`` — a strict-JSON-safe dict tagged with the result type
  name (tuples and columns become lists; non-finite floats become
  ``null`` — JSON has no number for them, and the string spellings an
  earlier revision used choke numeric consumers).
* ``from_dict(doc)`` — the inverse, dispatching on the tag, so saved
  results reload as the original dataclass. Documents written by older
  revisions still load: the legacy ``"inf"`` / ``"-inf"`` / ``"nan"``
  string spellings come back as the original floats.
* ``summary()`` — a flat ``{metric: number}`` dict of the headline
  quantities, suitable for the bench JSONL records and quick printing.
* ``merged(parts)`` — the one chunk merge: per-chunk results of a class
  fold into one by declared field type, so a chunked simulator writes no
  merge of its own.

A per-sample field (latencies, loss times, per-trial counters) is a
:class:`Column`: the array the kernel computed, concatenated by
``merged``, read by ``summary()`` through one cached sort and a
left-to-right sum, and listed as Python numbers only by ``to_dict()``.

:class:`ResultBase` supplies the machinery; result classes inherit it and
declare ``SUMMARY_KEYS`` (field/property names to surface);
:class:`LossResultBase` adds the loss estimators the two unweighted
Monte-Carlo results share. The registry maps type tags back to classes
for :func:`result_from_dict`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Annotated, Any, Dict, Iterator, Sequence, Tuple, Type, TypeVar, get_type_hints

import numpy as _np

from repro.errors import ReproError, SimulationError
from repro.util.stats import percentile, wilson_interval

#: Result-type tag -> dataclass, filled in by :func:`register_result`.
RESULT_TYPES: Dict[str, Type["ResultBase"]] = {}


def register_result(cls: type) -> type:
    """Class decorator registering *cls* for :func:`result_from_dict`."""
    RESULT_TYPES[cls.__name__] = cls
    return cls


class Column:
    """An immutable column of samples: one float64 or int64 numpy array.

    Built from the array a kernel computed (handed over uncopied, made
    read-only) or any sequence of numbers (ints give int64, anything else
    float64, ``None`` loads as ``nan``). It keeps the manners of the tuple
    it stands for; its statistics are bit for bit the pure-Python ones of
    :mod:`repro.util.stats` on ``list(column)``.
    """

    __slots__ = ("_array", "_ordered")

    def __init__(self, values: Any = ()) -> None:
        array = values._array if isinstance(values, Column) else _np.asarray(values)
        if array.ndim != 1:
            raise TypeError(f"a column is one-dimensional, got shape {array.shape}")
        kind = _np.int64 if array.dtype.kind in "biu" else _np.float64
        self._array = array.astype(kind, copy=False)
        self._array.flags.writeable = False
        self._ordered = None  # the sorted twin, once a percentile is read

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """The columns end to end; an empty one has no say in the dtype."""
        arrays = [c._array for c in columns if len(c)]
        return cls(_np.concatenate(arrays) if arrays else ())

    def __len__(self) -> int:
        return len(self._array)

    def __array__(self, dtype: Any = None, copy: Any = None) -> Any:
        return self._array if dtype is None and not copy else _np.array(self._array, dtype)

    def __iter__(self) -> Iterator[Any]:
        # One Python number at a time: a consumer that streams
        # (``array("d", column)``, ``max``) never holds them all.
        return iter(memoryview(self._array))

    def __getitem__(self, index: Any) -> Any:
        item = self._array[index]
        return Column(item) if isinstance(index, slice) else item.item()

    def __eq__(self, other: Any) -> Any:
        if not isinstance(other, (Column, tuple)):
            return NotImplemented
        try:
            return _np.array_equal(self._array, Column(other)._array)
        except (TypeError, ValueError):  # a tuple of something else
            return False

    def __hash__(self) -> int:
        return hash(tuple(self))  # equal to that tuple, so hashes as it

    def __add__(self, other: Any) -> "Column":
        return Column.concat((self, Column(other)))

    def __repr__(self) -> str:
        return f"Column({self._array!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Column, (self._array,))

    def to_list(self) -> list:
        """The strict-JSON list: ints stay ints, non-finite floats -> null."""
        values = self._array.tolist()
        if not _np.isfinite(self._array).all():
            values = [v if math.isfinite(v) else None for v in values]
        return values

    def sum(self) -> Any:
        """Exact for ints; for floats the plain left-to-right double fold,
        which the builtin ``sum`` (compensated from CPython 3.12) is not."""
        if self._array.dtype.kind == "i" or not len(self):
            return self._array.sum().item()
        return _np.add.accumulate(self._array)[-1].item()

    def mean(self) -> float:
        """Arithmetic mean over :meth:`sum`; raises on an empty column."""
        if not len(self):
            raise ValueError("mean of empty sequence")
        return self.sum() / len(self)

    def percentile(self, q: float) -> Any:
        """:func:`repro.util.stats.percentile`; every *q* shares one sort."""
        if self._ordered is None:
            self._ordered = Column(_np.sort(self._array))
        return percentile(self._ordered, q, presorted=True)


#: How a result declares a per-sample field: stored in a :class:`Column`,
#: and still ``Tuple[float, ...]`` to a plain ``typing.get_type_hints``.
ColumnOf = Annotated[Tuple[TypeVar("_T"), ...], Column]


def _jsonify(value: Any) -> Any:
    """Make one field value strict-JSON-safe (tuples -> lists, inf -> null).

    JSON has no number for the non-finite floats, and both common
    workarounds break consumers: raw ``Infinity``/``NaN`` tokens are not
    strict JSON (``json.loads(..., parse_constant=...)`` and non-Python
    parsers reject them), and string spellings like ``"inf"`` poison any
    numeric aggregation over the field. ``null`` is the one spelling
    every strict parser accepts; consumers treat a null metric as "not
    observed" (e.g. a censored MTTDL with zero losses).
    """
    if isinstance(value, Column):
        return value.to_list()
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {key: _jsonify(v) for key, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _unjsonify(value: Any) -> Any:
    """Inverse of :func:`_jsonify` (lists -> tuples).

    Also accepts the legacy ``"inf"`` / ``"-inf"`` / ``"nan"`` string
    spellings an earlier protocol revision wrote, restoring the original
    floats so stored JSONL from old runs keeps loading.
    """
    if isinstance(value, list):
        return tuple(_unjsonify(v) for v in value)
    if isinstance(value, dict):
        return {key: _unjsonify(v) for key, v in value.items()}
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(field name, declared type)`` pairs of a result dataclass.

    Cached per class: resolving the (string) annotations costs more than
    folding a few thousand trials does.
    """
    hints = get_type_hints(cls, include_extras=True)
    for name, hint in hints.items():
        if getattr(hint, "__metadata__", None) == (Column,):
            hints[name] = Column  # a ``ColumnOf[...]`` declaration
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


class ResultBase:
    """Mixin giving result dataclasses the common serialization protocol.

    Subclasses are dataclasses; ``SUMMARY_KEYS`` names the fields and
    properties :meth:`summary` surfaces.
    """

    #: Field/property names surfaced by :meth:`summary`.
    SUMMARY_KEYS: tuple = ()

    def __post_init__(self) -> None:
        """A ``ColumnOf`` field holds a column whatever sequence was passed."""
        for name, hint in _field_types(type(self)):
            if hint is Column:
                object.__setattr__(self, name, Column(getattr(self, name)))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of every field, tagged with the result type."""
        doc: Dict[str, Any] = {"result": type(self).__name__}
        for field in dataclasses.fields(self):
            doc[field.name] = _jsonify(getattr(self, field.name))
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ResultBase":
        """Rebuild a result from :meth:`to_dict` output.

        Called on :class:`ResultBase` (or via :func:`result_from_dict`)
        it dispatches on the ``result`` tag; called on a concrete class
        it additionally checks the tag matches.
        """
        tag = doc.get("result")
        if tag not in RESULT_TYPES:
            raise ReproError(f"unknown result type {tag!r}")
        target = RESULT_TYPES[tag]
        if cls is not ResultBase and target is not cls:
            raise ReproError(
                f"document is a {tag}, not a {cls.__name__}"
            )
        names = {f.name for f in dataclasses.fields(target)}
        kwargs = {
            key: _unjsonify(value)
            for key, value in doc.items()
            if key in names
        }
        missing = names - set(kwargs)
        if missing:
            raise ReproError(
                f"{tag} document missing fields {sorted(missing)}"
            )
        return target(**kwargs)

    @classmethod
    def merged(cls, parts: Sequence["ResultBase"]) -> "ResultBase":
        """Fold per-chunk results (in the given chunk order) into one.

        The fold is read off each field's declared type: ``int`` fields
        sum, :data:`ColumnOf` fields concatenate in the order of *parts*
        (one ``numpy.concatenate``), and every other field is a
        parameter of the run that all parts must agree on. Concatenation
        is the only order-sensitive fold, so merging is associative and
        the merged result depends on the chunk order alone — the
        algebraic fact the any-``jobs`` determinism contract rests on.
        """
        if not parts:
            raise SimulationError("no chunk results to merge")
        folded: Dict[str, Any] = {}
        for name, hint in _field_types(cls):
            if hint is int:
                folded[name] = sum(getattr(p, name) for p in parts)
            elif hint is Column:
                folded[name] = Column.concat([getattr(p, name) for p in parts])
            else:
                folded[name] = value = getattr(parts[0], name)
                for part in parts[1:]:
                    if getattr(part, name) != value:
                        raise SimulationError(
                            f"cannot merge {cls.__name__} parts with "
                            f"different {name} "
                            f"({getattr(part, name)} vs {value})"
                        )
        return cls(**folded)

    def summary(self) -> Dict[str, float]:
        """Flat headline metrics (the bench JSONL / report surface)."""
        out: Dict[str, Any] = {}
        for key in self.SUMMARY_KEYS:
            value = getattr(self, key)
            out[key] = _jsonify(value)
        return out


class LossResultBase(ResultBase):
    """Loss estimators of an unweighted Monte-Carlo mission sample.

    For result dataclasses declaring ``trials``, ``losses``,
    ``loss_times`` and ``horizon_hours`` (``LifetimeResult``,
    ``LifecycleResult``), so both report identically constructed
    estimates. ``FleetResult`` weights its missions and defines its own.
    """

    @property
    def prob_loss(self) -> float:
        """Fraction of missions that lost data before the horizon."""
        return self.losses / self.trials

    def prob_loss_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval on the loss probability.

        Non-degenerate even at zero observed losses — the upper bound
        stays ``~z**2 / (trials + z**2)`` instead of collapsing to the
        zero-width ``[0, 0]`` a normal approximation produces, which is
        what the rare-event regime needs.
        """
        return wilson_interval(self.losses, self.trials, z)

    @property
    def mttdl_estimate_hours(self) -> float:
        """Censored-exponential MTTDL estimate: total exposure / losses."""
        if self.losses == 0:
            return float("inf")
        survived = self.trials - self.losses
        exposure = self.loss_times.sum() + survived * self.horizon_hours
        return exposure / self.losses


def result_from_dict(doc: Dict[str, Any]) -> ResultBase:
    """Reload any registered result from its :meth:`~ResultBase.to_dict`."""
    return ResultBase.from_dict(doc)
