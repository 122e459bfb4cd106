"""The :class:`Scheme` protocol and its registry.

A *scheme* is everything the simulators need to know about one redundancy
code: how to build its :class:`~repro.layouts.base.Layout` on a shared
array geometry, how it plans recovery, what a repair costs in reads and
writes, and how many parity cells a one-unit user write dirties. Before
this module that knowledge was smeared across ``layouts/``, the CLI's
``--scheme`` branching, and the benchmarks' hand-built layout lists —
adding a code meant touching all of them.

Schemes register by name in :data:`SCHEME_REGISTRY` with the same
decorator idiom as :data:`repro.results.RESULT_TYPES`, and everything
downstream — the :class:`~repro.scenario.Scenario` front door, the CLI's
``--scheme`` flag, the scheme-matrix CI job, the conformance suite —
dispatches through the registry with zero per-scheme branches::

    >>> from repro.schemes import build_scheme_layout
    >>> layout = build_scheme_layout("lrc", groups=7, stripe_width=3)
    >>> layout.n_disks
    21

Every scheme interprets one shared :class:`Geometry` (``groups`` x
``group_size`` disks, ``group_size`` defaulting per scheme from the
stripe width) so competing schemes always cover the same physical array,
plus its own declared knobs (:attr:`Scheme.params`) — unknown knobs are
rejected, which is what lets ``Scenario`` validate ``scheme_params``
without knowing any scheme's internals.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Type

from repro.errors import ParameterError, SimulationError
from repro.layouts.base import Layout
from repro.layouts.recovery import RecoveryPlan, plan_recovery

#: Scheme name -> instance, filled in by :func:`register_scheme` (the
#: same registration idiom as :data:`repro.results.RESULT_TYPES`).
SCHEME_REGISTRY: Dict[str, "Scheme"] = {}


def register_scheme(cls: Type["Scheme"]) -> Type["Scheme"]:
    """Class decorator registering one instance of *cls* under its name."""
    instance = cls()
    if instance.name in SCHEME_REGISTRY:
        raise SimulationError(
            f"scheme {instance.name!r} is already registered"
        )
    SCHEME_REGISTRY[instance.name] = instance
    return cls


def scheme(name: str) -> "Scheme":
    """Look up a registered scheme by name, with a helpful error."""
    try:
        return SCHEME_REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown scheme {name!r} "
            f"(expected one of {scheme_names()})"
        ) from None


def scheme_names() -> Tuple[str, ...]:
    """All registered scheme names, sorted."""
    return tuple(sorted(SCHEME_REGISTRY))


@dataclass(frozen=True)
class Geometry:
    """The shared array geometry every scheme builds on.

    ``groups`` and ``stripe_width`` carry the OI-RAID vocabulary (BIBD
    points and block size); flat and local-group schemes only consume the
    resulting disk count. Defaults are the paper's reference array —
    ``Geometry()`` is the Fano-plane-scale 21-disk configuration.

    Attributes:
        groups: disk groups (BIBD points, hierarchical nodes).
        stripe_width: outer stripe width; also the default group size.
        group_size: disks per group; ``None`` lets each scheme pick its
            default (OI-RAID: smallest prime >= ``stripe_width``; every
            other scheme: ``stripe_width``).
    """

    groups: int = 7
    stripe_width: int = 3
    group_size: Optional[int] = None

    @property
    def width(self) -> int:
        """Disks per group for the non-BIBD schemes."""
        return self.group_size or self.stripe_width

    @property
    def n_disks(self) -> int:
        """Total disks the flat schemes cover (``groups * width``)."""
        return self.groups * self.width


@dataclass(frozen=True)
class RepairCost:
    """Analytic read/write cost of one single-disk repair.

    Derived from the scheme's own recovery plan for a lone failure, so
    the numbers reflect the layout actually simulated (surrogate reads,
    local groups, replication short-reads and all).

    Attributes:
        read_units: units read from survivors to regenerate the disk.
        write_units: units written (lost data plus re-encoded parity).
        max_read_units: reads on the busiest surviving disk — the
            bottleneck an analytic rebuild clock water-fills against.
        reads_per_lost_unit: ``read_units`` normalized by the lost unit
            count (the per-unit repair locality headline).
    """

    read_units: int
    write_units: int
    max_read_units: int

    @property
    def reads_per_lost_unit(self) -> float:
        """Mean survivor reads per regenerated unit."""
        if not self.write_units:
            return 0.0
        return self.read_units / self.write_units


def _accepts(default: object, value: object) -> bool:
    """May *value* override a knob whose declared default is *default*?"""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    if isinstance(default, float):
        return isinstance(value, numbers.Real)
    return isinstance(value, type(default))


class Scheme(abc.ABC):
    """One redundancy scheme behind the common protocol.

    Subclasses declare a :attr:`name` (the registry key and CLI
    spelling), a one-line :attr:`summary`, their tunable knobs with
    defaults in :attr:`params`, and implement :meth:`build_layout`.
    Recovery-plan semantics, repair cost, and update complexity have
    generic layout-derived implementations that schemes may override
    when they carry closed forms.
    """

    #: Registry key and ``--scheme`` spelling.
    name: str = "scheme"
    #: One-line description for tables and ``--help``.
    summary: str = ""
    #: Declared knobs (name -> default); unknown knobs are rejected.
    params: Mapping[str, object] = {}

    def resolve_params(
        self, overrides: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """Merge *overrides* into the declared defaults, strictly.

        Unknown keys raise :class:`~repro.errors.SimulationError` and a
        value of another type than the knob's declared default raises
        :class:`~repro.errors.ParameterError` (a ``bool`` knob takes only
        a ``bool``, an ``int`` knob an integer, a ``float`` knob any real
        number) — this is the validation surface
        ``Scenario.scheme_params`` and the CLI's ``--scheme-param`` both
        lean on, so ``build_layout`` receives values it need not cast.
        """
        resolved = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in resolved:
                raise SimulationError(
                    f"scheme {self.name!r} has no parameter {key!r} "
                    f"(declared: {sorted(resolved) or 'none'})"
                )
            if not _accepts(resolved[key], value):
                raise ParameterError(
                    f"scheme {self.name!r} parameter {key!r} expects "
                    f"{type(resolved[key]).__name__}, got {value!r}"
                )
            resolved[key] = value
        return resolved

    @abc.abstractmethod
    def build_layout(
        self, geometry: Geometry, **params: object
    ) -> Layout:
        """Construct the scheme's layout on *geometry*.

        Receives already-resolved params (defaults merged, unknown keys
        rejected); called through :meth:`build`.
        """

    def build(
        self,
        geometry: Optional[Geometry] = None,
        **overrides: object,
    ) -> Layout:
        """The layout for *geometry* (default: the reference array)."""
        resolved = self.resolve_params(overrides)
        return self.build_layout(geometry or Geometry(), **resolved)

    def plan(
        self, layout: Layout, failed_disks: Sequence[int]
    ) -> RecoveryPlan:
        """Recovery-plan semantics: how this scheme repairs *failed_disks*.

        The default is the generic balanced peeling planner
        (:func:`~repro.layouts.recovery.plan_recovery`), which already
        specializes per layout — replication reads one copy, local
        groups repair locally, OI-RAID spreads over survivors.
        """
        return plan_recovery(layout, failed_disks)

    def repair_cost(self, layout: Layout) -> RepairCost:
        """Single-disk repair cost derived from the scheme's own plan."""
        plan = self.plan(layout, [0])
        return RepairCost(
            read_units=plan.total_read_units,
            write_units=plan.total_write_units,
            max_read_units=plan.max_read_units,
        )

    def update_complexity(self, layout: Layout) -> int:
        """Parity cells dirtied by a one-unit user write (write
        amplification minus the data write itself)."""
        return layout.update_penalty()

    def describe(self, geometry: Optional[Geometry] = None) -> Dict[str, object]:
        """Protocol row: name, efficiency, repair cost, update cost."""
        layout = self.build(geometry)
        cost = self.repair_cost(layout)
        return {
            "scheme": self.name,
            "summary": self.summary,
            "n_disks": layout.n_disks,
            "storage_efficiency": layout.storage_efficiency,
            "reads_per_lost_unit": cost.reads_per_lost_unit,
            "max_read_units": cost.max_read_units,
            "update_complexity": self.update_complexity(layout),
        }


def build_scheme_layout(name: str, **params: object) -> Layout:
    """Build *name*'s layout: geometry keys plus scheme knobs, one dict.

    The shared geometry keys (``groups``, ``stripe_width``,
    ``group_size``) are split out and the rest are validated against the
    scheme's declared :attr:`Scheme.params` — so a ``Scenario``'s
    ``scheme_params`` mapping or the CLI's parsed flags pass straight
    through::

        build_scheme_layout("lrc", groups=7, stripe_width=3,
                            global_parities=3)
    """
    target = scheme(name)
    params = dict(params)
    geometry = Geometry(
        **{
            key: params.pop(key)
            for key in ("groups", "stripe_width", "group_size")
            if key in params
        }
    )
    return target.build(geometry, **params)
