"""The common result protocol: ``to_dict`` / ``from_dict`` / ``summary``.

Every simulate-style entry point in this reproduction returns a frozen
dataclass (``RebuildResult``, ``LifetimeResult``, ``LifecycleResult``,
``ServeResult``, …). Before this module each of them
serialized ad hoc — the bench JSONL emitter flattened whatever dict a
bench hand-built, and nothing could round-trip a result from disk. The
protocol normalizes all of them behind three methods:

* ``to_dict()`` — a strict-JSON-safe dict tagged with the result type
  name (tuples become lists; non-finite floats become ``null`` — JSON
  has no number for them, and the string spellings an earlier revision
  used choke numeric consumers).
* ``from_dict(doc)`` — the inverse, dispatching on the tag, so saved
  results reload as the original dataclass. Documents written by older
  revisions still load: the legacy ``"inf"`` / ``"-inf"`` / ``"nan"``
  string spellings come back as the original floats.
* ``summary()`` — a flat ``{metric: number}`` dict of the headline
  quantities, suitable for the bench JSONL records and quick printing.
* ``merged(parts)`` — the one chunk merge: per-chunk results of a class
  fold into one by declared field type, so a chunked simulator writes no
  merge of its own.

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
from itertools import chain
from typing import Any, Dict, Sequence, Tuple, Type, get_origin, get_type_hints

from repro.errors import ReproError, SimulationError
from repro.util.stats import wilson_interval

#: Result-type tag -> dataclass, filled in by :func:`register_result`.
RESULT_TYPES: Dict[str, Type["ResultBase"]] = {}


def register_result(cls: type) -> type:
    """Class decorator registering *cls* for :func:`result_from_dict`."""
    RESULT_TYPES[cls.__name__] = cls
    return cls


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
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


class ResultBase:
    """Mixin giving result dataclasses the common serialization protocol.

    Subclasses are dataclasses; ``SUMMARY_KEYS`` names the fields and
    properties :meth:`summary` surfaces.
    """

    #: Field/property names surfaced by :meth:`summary`.
    SUMMARY_KEYS: tuple = ()

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
        sum, ``Tuple[...]`` fields concatenate in the order of *parts*
        (one pass, straight into the tuple), and every other field is a
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
            elif get_origin(hint) is tuple:
                folded[name] = tuple(
                    chain.from_iterable(getattr(p, name) for p in parts)
                )
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
        exposure = sum(self.loss_times) + survived * self.horizon_hours
        return exposure / self.losses


def result_from_dict(doc: Dict[str, Any]) -> ResultBase:
    """Reload any registered result from its :meth:`~ResultBase.to_dict`."""
    return ResultBase.from_dict(doc)
