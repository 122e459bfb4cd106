"""Shared columnar Monte-Carlo core: trial streams and the lockstep screen.

The lifetime kernel (PR 5) and the lifecycle kernel both follow the same
two-plane design — a cheap batched *sampling plane* that covers every
trial, and an exact *event plane* that replays only the trials the
sampling plane flags as dangerous. This module is the shared substrate
for both planes so the kernels stop duplicating scaffolding:

* :func:`lanes` — the one lane address. Every lifecycle, fleet and serve
  draw is ``(seed, domain, trial, sub, slot)``: :func:`lanes` hashes the
  first four coordinates into a ``uint64`` lane value, each one mixed
  before the next is added so no two share a stride, and slot ``j`` of a
  lane is ``(mix64(lane + (j+1)*G) >> 11) * 2**-53`` (``G`` the 64-bit
  golden-ratio increment) — any slot of any trial is addressable without
  sequential generator state, and nothing else in the package spells a
  keying formula.
* :class:`TrialStreams` — the first slots of a ``(trials, subs)`` lane
  array as whole planes. Both lifecycle kernels draw from the *same*
  lanes: the vectorized kernel reads them columnar, the event kernel
  walks one trial at a time through a :class:`LaneCursor` — which is
  what makes ``--mc-kernel`` a pure speed knob: the two kernels return
  bit-identical results, because every uniform (and every exponential,
  computed by ``numpy.log`` from it) is literally the same float.
* :class:`LifecycleTables` — broadcast-ready per-disk single-failure
  rebuild columns (hours, bytes read), computed once from a
  ``RebuildTimer`` in the parent and shipped to workers through the pool
  initializer exactly like ``ServeTables``.
* :func:`sample_renewal_events` / :func:`exceedances` — the
  lifetime kernel's tiered renewal sampler and concurrency filter;
  :mod:`repro.sim.montecarlo` is their only caller (the lifecycle and
  fleet kernels screen with :class:`LockstepScreen` instead).
* :class:`LockstepScreen` — the lockstep renewal screen of the one
  mission chunk lifecycle and fleet both run
  (:func:`repro.sim.lifecycle._mission_chunk`): all trials advance one
  degraded episode per round on a ``(disks, trials)`` failure-clock
  array, lone failures are settled columnar and overlapping ones from
  the layout's pattern memo, and trials whose episode the memo cannot
  settle (or a latent sector error strikes) are left for exact replay.

numpy is a hard dependency (``pyproject.toml``); there is no pure-Python
lane implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, NamedTuple, Tuple

import numpy as _np

from repro.errors import DataLossError, SimulationError
from repro.layouts.recovery import pattern_entries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.layouts.base import Layout

_MASK64 = (1 << 64) - 1
#: 64-bit golden-ratio increment — the same stride
#: :func:`derive_chunk_seed` uses for chunk seeds.
GOLDEN_STRIDE = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
#: Python's ``random`` seeds are arbitrary-precision; keep derived seeds
#: in a fixed 63-bit space so results don't depend on platform int width.
_SEED_MASK = (1 << 63) - 1
#: Cells a plane samples per numpy pass (row strip x fresh columns): each
#: temporary stays under 128 KiB — inside L2, under malloc's mmap threshold.
_STRIP_CELLS = 12288
#: Fewest slots a cursor grows its rows to: one cache line of float64 per lane.
_GROW_SLOTS = 8

#: Kernel names every simulator (and ``--mc-kernel`` / ``--serve-kernel``)
#: accepts. ``auto`` is an alias of ``vectorized``.
KERNELS = ("auto", "vectorized", "event")


def resolve_kernel(name: str) -> str:
    """Resolve a :data:`KERNELS` name to ``'vectorized'`` or ``'event'``.

    The two differ only in which trials reach a simulator's exact walk:
    ``vectorized`` screens (or sweeps) the sampled plane and walks the
    trials the screen flags, ``event`` walks every trial of that same
    plane — so the choice can never change a result.
    """
    if name not in KERNELS:
        raise SimulationError(
            f"unknown kernel {name!r} (expected one of {KERNELS})"
        )
    return "event" if name == "event" else "vectorized"


def mix64(z: int) -> int:
    """The splitmix64 finalizer on Python ints (modulo ``2**64``)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


# The hash's uint64 constants, built once rather than on every call.
_S11, _S27, _S30, _S31 = (_np.uint64(k) for k in (11, 27, 30, 31))
_ONE, _GOLDEN_NP, _MIX_A_NP, _MIX_B_NP = (
    _np.uint64(k) for k in (1, GOLDEN_STRIDE, _MIX_A, _MIX_B)
)


def _mix64_np(z):
    """splitmix64 finalizer on uint64 arrays; bit-identical to :func:`mix64`.

    Works in place on its own temporaries, never on *z*.
    """
    h = z >> _S30
    h ^= z
    h *= _MIX_A_NP
    h ^= h >> _S27
    h *= _MIX_B_NP
    h ^= h >> _S31
    return h


def derive_chunk_seed(seed: int, chunk_id: int) -> int:
    """Deterministic sub-seed for chunk *chunk_id* of a run seeded *seed*.

    The lifetime simulator's per-chunk generator seed, and its only use:
    chunk 0 reproduces *seed* itself. Everything else is keyed by
    :func:`lanes`.
    """
    return (seed ^ (chunk_id * GOLDEN_STRIDE)) & _SEED_MASK


#: Lane-address domains. Lifecycle and fleet share :data:`MISSION` — fleet
#: mission *m* **is** lifecycle trial *m* — with ``sub`` the disk, plus one
#: auxiliary ``sub`` for the latent-error and stranded-cell uniforms;
#: :data:`SERVE` has ``sub`` the purpose (arrival / unit / write / perm).
MISSION, SERVE = 1, 2


def lanes(seed: int, domain: int, start: int, count: int, subs: int):
    """Lane values of global trials ``start .. start+count-1``: ``(count, subs)``.

    The one place a draw's address is decided::

        lane(seed, domain, T, s) = mix64(mix64(mix64(seed + domain*G) + T) + s)

    and slot ``j`` of a lane is ``mix64(lane + (j+1)*G) >> 11`` (:func:`_uniforms`).
    Every coordinate is hashed before the next is added, so no two share
    a stride (a shared one aliases lanes across trials), and a window of
    trials is rows ``start .. start+count-1`` of the whole, whatever
    chunk asks.
    """
    base = _np.uint64(mix64((seed & _MASK64) + domain * GOLDEN_STRIDE))
    trials = _np.arange(start, start + count, dtype=_np.uint64)
    keyed = _mix64_np(base + trials)
    return _mix64_np(keyed[:, None] + _np.arange(subs, dtype=_np.uint64))


def _uniforms(lane_values, slots):
    """Uniforms in ``[0, 1)`` at ``(lane, slot)``, broadcasting the two."""
    keys = slots + _ONE
    keys *= _GOLDEN_NP
    return _key_uniforms(keys + lane_values)


def _key_uniforms(keys):
    """The uniforms at lane keys ``lane + (slot+1)*G``; *keys* is left as it is."""
    z = _mix64_np(keys)
    z >>= _S11
    return _np.multiply(z, 2.0 ** -53)


def _exponentials(uniforms, lambd: float):
    """The ``Exp(lambd)`` draws of *uniforms*: ``-log(1 - u) / lambd``."""
    e = 1.0 - uniforms
    _np.log(e, out=e)
    e /= -lambd  # the same float as negating first: division is sign-symmetric
    return e


def lane_uniforms(lane_values, slots: int):
    """Slots ``0 .. slots-1`` of each lane in *lane_values*: ``(lanes, slots)``.

    The floats a :class:`TrialStreams` plane holds at those lanes, for a
    reader that needs one purpose lane rather than every sub's two planes.
    """
    return _uniforms(
        lane_values[:, None], _np.arange(slots, dtype=_np.uint64)
    )


def lane_exponentials(lane_values, slots: int, lambd: float):
    """The ``Exp(lambd)`` draws of :func:`lane_uniforms` (a plane's exponentials)."""
    return _exponentials(lane_uniforms(lane_values, slots), lambd)


class ChunkSpec(NamedTuple):
    """One chunk of a run, as the driver hands it to a chunk function.

    ``index`` is the chunk's position in chunk order, ``start`` the
    global index of its first trial and ``size`` its trial count;
    ``seed`` is the **run** seed. Chunk functions derive what they
    sample from these alone — ``lanes(seed, domain, start, size, subs)``
    for lifecycle, fleet and serve, whose chunk size is therefore only a
    speed; a per-chunk generator (``derive_chunk_seed(seed, index)``) for
    lifetimes, whose chunk size is part of its sample — never from
    ``jobs``.
    """

    index: int
    start: int
    size: int
    seed: int


class LaneCursor:
    """Sequential ``random.Random``-shaped view of one trial's lanes.

    Supports exactly the draw vocabulary the lifecycle walk uses —
    ``random()``, ``expovariate()``, ``randrange()`` — each naming the
    *sub* lane it reads (the walk: ``expovariate(lambd, disk)`` is that
    disk's next lifetime; ``random()`` / ``randrange()`` read the last,
    auxiliary lane) and advancing that lane's own position: the shared
    plane's rows first, then slots the cursor draws for its own trial
    alone (same position-addressed floats; a walk never grows the plane,
    so a chunk's memory does not scale with its longest trial).
    ``expovariate`` must be called with the rate the streams were built
    for: the exponentials are precomputed for that rate (that is what
    makes the event walk read the *same* floats as the vectorized
    screen), so a different rate would silently decouple the kernels and
    raises instead. ``draws`` / ``draw_sum`` tally the lifetimes handed
    out, in draw order — the two sufficient statistics of a mission's
    likelihood ratio (uniforms are identically distributed under the
    nominal and a boosted rate, so they cancel and go untallied).
    """

    __slots__ = ("_streams", "_trial", "pos", "_u", "_e", "draws", "draw_sum")

    def __init__(self, streams: "TrialStreams", trial: int) -> None:
        self._streams = streams
        self._trial = trial
        self.pos = [0] * streams.lanes.shape[1]
        self.draws = 0
        self.draw_sum = 0.0
        # Materialized plane rows (plain float lists, one per sub lane)
        # make the hot draws list indexing instead of per-scalar numpy
        # access — the event walk draws thousands of times per trial and
        # the difference is ~1.5x on the whole kernel. Same floats either
        # way.
        self._u = streams.uniforms[trial].tolist()
        self._e = streams.exponentials[trial].tolist()

    def random(self, sub: int = -1) -> float:
        """The next uniform in ``[0, 1)`` of lane *sub*."""
        pos = self.pos[sub]
        self.pos[sub] = pos + 1
        row = self._u[sub]
        if pos >= len(row):
            self._grow(pos)
        return row[pos]

    def expovariate(self, lambd: float, sub: int) -> float:
        """Lane *sub*'s next ``Exp(lambd)``; *lambd* must be the plane's rate."""
        if lambd != self._streams.lambd:
            raise SimulationError(
                f"lane streams were built for rate {self._streams.lambd!r}, "
                f"cannot draw expovariate({lambd!r})"
            )
        pos = self.pos[sub]
        self.pos[sub] = pos + 1
        row = self._e[sub]
        if pos >= len(row):
            self._grow(pos)
        value = row[pos]
        self.draws += 1
        self.draw_sum += value
        return value

    def _grow(self, pos: int) -> None:
        """Extend this trial's own rows to cover slot *pos* (doubling).

        All of the trial's lanes grow together, in one draw. The shared
        plane is left alone: a walk that outruns it pays for one trial,
        not for every row of the chunk. The draw bills to the walk's phase:
        which missions a screened chunk walks depends on the layout's memo.
        """
        have = len(self._u[0])
        u, e = self._streams.draw(
            self._trial, have, max(pos + 1, 2 * have, _GROW_SLOTS)
        )
        for rows, more in ((self._u, u), (self._e, e)):
            for row, tail in zip(rows, more.tolist()):
                row += tail

    def randrange(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` from the auxiliary lane's next slot."""
        value = int(self.random() * n)
        return value if value < n else n - 1


class TrialStreams:
    """The first *slots* slots of a ``(trials, subs)`` lane array, as planes.

    *lanes* is what :func:`lanes` returned — the only keying there is —
    and ``uniforms`` / ``exponentials`` (``Exp(lambd)``:
    ``-log(1 - u) / lambd``) are the ``(trials, subs, slots)`` planes,
    sampled a cache-sized row strip at a time. Every float is a pure
    function of its lane value and slot number (:meth:`draw`), never of
    how wide the plane is or who reads it: a window of lanes is rows
    ``m .. m+k-1`` of the whole, and a cursor past the plane's edge and
    the lockstep screen's scattered reads see the floats a wider plane
    would hold.
    """

    __slots__ = ("lanes", "lambd", "uniforms", "exponentials")

    def __init__(self, lanes, lambd: float, slots: int = 64) -> None:
        lanes = _np.asarray(lanes, dtype=_np.uint64)
        if lanes.ndim != 2 or not lanes.size:
            raise SimulationError(
                f"lanes must be a non-empty (trials, subs) array, "
                f"got shape {lanes.shape}"
            )
        if not 0 < lambd < math.inf:
            raise SimulationError(f"lambd must be finite and > 0, got {lambd}")
        if slots < 1:
            raise SimulationError(f"slots must be >= 1, got {slots}")
        self.lanes = lanes
        self.lambd = lambd
        trials, subs = lanes.shape
        planes = _np.empty((2, trials, subs, slots))
        strip = max(1, _STRIP_CELLS // (subs * slots))
        for lo in range(0, trials, strip):
            rows = slice(lo, lo + strip)
            planes[0, rows], planes[1, rows] = self.draw(rows, 0, slots)
        self.uniforms, self.exponentials = planes

    def draw(self, rows, start: int, stop: int):
        """Slots ``start .. stop-1`` of ``lanes[rows]``: ``(uniforms, exponentials)``.

        A pure function of the lane values and the slot numbers, so the
        plane (strip by strip) and a cursor past its edge (one trial) read
        the same floats whoever asks, in whatever pieces.
        """
        u = _uniforms(
            self.lanes[rows][..., None],
            _np.arange(start, stop, dtype=_np.uint64),
        )
        return u, _exponentials(u, self.lambd)

    def cursor(self, trial: int) -> LaneCursor:
        """A sequential reader over trial *trial*'s lanes."""
        return LaneCursor(self, trial)


@dataclass(frozen=True)
class LifecycleTables:
    """Broadcast-ready per-disk single-failure rebuild columns.

    ``hours[d]`` / ``bytes_read[d]`` are the layout-derived rebuild time
    and read volume of the pattern ``{d}`` — exactly what a
    ``RebuildTimer`` returns for it, computed once in the parent (the
    pattern memo plans the singles it lacks as one batch) and shipped to
    every worker through the pool initializer like ``ServeTables``. The
    vectorized kernel's clean plane reads these columns instead of
    calling the planner per incident; replayed trials still go through
    the timer and see the same floats, because both come from the same
    memoized pure function of the pattern.
    """

    hours: Any
    bytes_read: Any

    @classmethod
    def build(
        cls,
        layout: "Layout",
        timer: Callable[[FrozenSet[int]], Tuple[float, float]],
    ) -> "LifecycleTables":
        singles = [(d,) for d in range(layout.n_disks)]
        pattern_entries(layout, singles)  # the memo misses, as one batch
        pairs = [timer(frozenset(single)) for single in singles]
        return cls(
            hours=_np.array([hours for hours, _ in pairs]),
            bytes_read=_np.array([read for _, read in pairs]),
        )


#: The lockstep plane is compacted to its live columns once fewer than
#: this share of its columns are live: dead columns cost every round a
#: little, a compaction copies the live ones once.
_LIVE_SHARE = 0.75


def _tie_weights(n: int):
    """``(n, 1)`` column ``n - d`` for :func:`_earliest`, in the narrowest
    unsigned type that holds *n* (uint8 up to 255 disks)."""
    return _np.arange(n, 0, -1, dtype=_np.min_scalar_type(n))[:, None]


def _earliest(plane, weights):
    """Each column's minimum and the first disk that holds it, as argmin picks.

    The lowest disk index at the minimum carries the largest weight, so
    ``n - max((plane == min) * weights)`` is that disk: an ``argmax``
    over the disk axis of a strided plane costs several such passes.
    """
    tf = plane.min(axis=0)
    at_min = _np.equal(plane, tf)
    first = _np.multiply(at_min, weights).max(axis=0)
    return tf, _np.subtract(len(weights), first, dtype=_np.intp)


class LockstepScreen:
    """The lockstep renewal screen of a mission chunk (lifecycle, fleet).

    *lanes* are the chunk's :data:`MISSION` lanes, ``(trials, disks + 1)``:
    slot *k* of lane ``(T, d)`` is disk *d*'s *k*-th lifetime and the last
    lane holds the latent-error uniforms. Construction loads every disk's
    first lifetime into the ``(disks, trials)`` array ``fail_at``.
    :meth:`rounds` then advances all still-active trials one degraded
    *episode* per round. A lone failure reads its rebuild clock from the
    broadcast *tables* columns and is classified vectorized — past the
    horizon (mission over), truncated (rebuild still running at the
    horizon), struck by a latent sector error, or clean (repair completes,
    the disk reads its next lifetime). A second failure by the pending
    completion opens an episode, settled on the trial's column as the
    walk settles it (:meth:`_episode`) from what *timer* (if any) finds
    in the layout's memo (:meth:`~repro.sim.rebuild.RebuildTimer.cached`). A
    trial leaves for the exact walk (``walked``) only when its episode
    misses the memo (it *parks*: ``parked`` maps it to the missing set), a
    latent sector error strikes, or *guarantee* (the layout's tolerance)
    is 0, when every failure leaves and an overlap parks on its pair.

    After :meth:`rounds`, ``n_failures``, ``n_repairs``, ``peak``,
    ``degraded`` (hours with a disk down), ``lost_at`` and ``draws`` (the
    disks plus their redraws) are exact for every trial not ``walked``;
    ``draw_sum`` is their sum, added in draw order, kept only
    when *weighted* — the chunk samples at a rate other than the nominal
    one and needs it for the likelihood ratio (folding it regardless
    costs a nominal-rate screen 2–3 %). The mission chunk replays the
    walked trials *in full* through the exact event walk from
    ``streams.cursor(t)`` — the same position-addressed floats the
    screen read — and overwrites their entries. ``dangerous`` marks the
    trials with an overlap or a strike, walked or not. With *tally*, each
    round appends ``(trial, failed_at, disk, repaired_at)`` columns of its
    clean and truncated (``repaired_at`` NaN) lone failures to ``tally``,
    and ``episodes[trial]`` lists the ``(start, rows)`` of the trial's
    settled episodes, *rows* as the walk logs them.
    """

    def __init__(
        self,
        layout: "Layout",
        tables: LifecycleTables,
        lanes,
        lambd: float,
        horizon_hours: float,
        lse_rate_per_byte: float,
        guarantee: int,
        weighted: bool = False,
        tally: bool = False,
        timer: Any = None,
    ) -> None:
        n = layout.n_disks
        # One slot is all the screen reads in bulk; later slots are read
        # where the rounds need them, a replay's cursor extends its own.
        self.streams = TrialStreams(lanes, lambd, 1)
        trials = len(self.streams.lanes)
        # Disk-major, so a round's reductions over the disks run down
        # contiguous columns of trials.
        self.fail_at = self.streams.exponentials[:, :n, 0].T.copy()
        self.n_failures, self.n_repairs, self.peak = _np.zeros((3, trials), dtype=_np.int64)
        self.dangerous, self.walked = _np.zeros((2, trials), dtype=bool)
        self.parked = {}
        self.degraded = _np.zeros(trials)
        self.lost_at = _np.full(trials, math.inf)
        # Disk by disk, the order a walk's cursor adds the same draws in.
        self.draw_sum = self.fail_at.sum(axis=0) if weighted else None
        self.tally = [] if tally else None
        self.episodes = {} if tally else None
        self._tables = tables
        self._lookup = timer.cached if timer is not None else lambda key: None
        self._horizon_hours = horizon_hours
        self._single_safe = guarantee >= 1
        self._lse_rate = lse_rate_per_byte
        self._lse_thresholds = None
        if lse_rate_per_byte > 0:
            # math.exp, not numpy's: the event plane's Poisson test
            # compares the same uniform against math.exp(-mean), and the
            # two libraries differ in the last ulp often enough to
            # misclassify a trial.
            self._lse_thresholds = _np.array([
                math.exp(-(float(b) * lse_rate_per_byte))
                for b in tables.bytes_read
            ])

    def rounds(self) -> None:
        """Advance every trial to its end or until it leaves for the walk.

        The rounds share one clock plane, ``fail_at`` itself until the
        first compaction: column *c* holds trial ``cols[c]``'s clocks,
        next to the keys of its disk lanes' next unread slots and its
        degraded hours and lifetime sum so far. A column is live while
        its trial's episodes complete, so a trial that leaves in round *r*
        had *r* repairs; its totals are written then, once. A column that
        leaves is set to +inf in place, which reads as past the horizon
        in every later round, and the plane is compacted to its live
        columns only once they fall below :data:`_LIVE_SHARE` of its
        width. An episode is settled on its own column only.
        """
        hours1, bytes_read = self._tables.hours, self._tables.bytes_read
        horizon_hours = self._horizon_hours
        lse_thresholds = self._lse_thresholds
        degraded, draw_sum, tally = self.degraded, self.draw_sum, self.tally
        dangerous, single_safe = self.dangerous, self._single_safe
        n, trials = self.fail_at.shape
        lambd = self.streams.lambd
        weights = _tie_weights(n)
        plane, cols = self.fail_at, _np.arange(trials)
        # Slot j's key is lane + (j+1)*G: slot 0 of every disk lane is in
        # the plane, so each starts at slot 1 and steps one stride a draw.
        keys = self.streams.lanes[:, :n].T.copy()
        keys += _np.uint64(2 * GOLDEN_STRIDE & _MASK64)
        aux_keys = self.streams.lanes[:, n] + _GOLDEN_NP
        # Column totals: the trial arrays themselves until the first
        # compaction, while column c is trial c.
        col_degraded, col_draw_sum = degraded, draw_sum
        live = _np.ones(trials, dtype=bool)
        column = _np.arange(trials)
        extra = _np.zeros(trials, dtype=_np.int64)  # redraws past one a repair
        repairs = 0  # every live trial's completed episodes so far
        while cols.size:
            width = cols.size
            tf, first = _earliest(plane, weights)
            # Disks whose next failure falls past the horizon are never
            # seen.
            over = tf > horizon_hours
            comp = tf + hours1[first]
            cell = first * width
            cell += column
            flat, flat_keys = plane.reshape(-1), keys.reshape(-1)
            flat[cell] = _np.inf
            second = plane.min(axis=0)
            if single_safe:
                # A pending failure at the same instant as a completion
                # pops first (it always carries a lower heap sequence
                # number), so an exact tie is an overlap, hence <= on
                # both sides. A second failure by the horizon means the
                # first one was not past it.
                danger = (second <= comp) & (second <= horizon_hours)
            else:
                danger = ~over
            trunc = ~(over | danger) & (comp > horizon_hours)
            clean = ~(over | danger | trunc)
            leave = []  # columns that leave for the walk this round
            if lse_thresholds is not None:
                # The event plane draws no Poisson uniform when the
                # rebuild read zero bytes, so zero-byte completions keep
                # their slot.
                hit = _np.flatnonzero(clean & (bytes_read[first] > 0))
                if hit.size:
                    t_ix = cols[hit]
                    struck = (
                        _key_uniforms(aux_keys[t_ix]) > lse_thresholds[first[hit]]
                    )
                    leave = hit[struck].tolist()
                    clean[leave] = False
                    aux_keys[t_ix[~struck]] += _GOLDEN_NP
            if tally is not None:  # after the strikes left the clean set
                kept, repaired = clean | trunc, _np.where(clean, comp, _np.nan)
                tally.append((cols[kept], tf[kept], first[kept], repaired[kept]))
            ci = _np.flatnonzero(clean)
            at = cell[ci]
            key = flat_keys[at]
            flat_keys[at] = key + _GOLDEN_NP
            redraw = _exponentials(_key_uniforms(key), lambd)
            repaired = comp[ci]
            col_degraded[ci] += repaired - tf[ci]
            flat[at] = repaired + redraw
            if draw_sum is not None:
                col_draw_sum[ci] += redraw
            # Live columns that did not come out clean leave now, the
            # truncated ones, the struck ones and, unless their episode
            # completes, those in an episode among them.
            gone = _np.flatnonzero(live & ~clean)
            if gone.size:
                t_gone = cols[gone]
                self.n_failures[t_gone] = self.n_repairs[t_gone] = repairs
                degraded[t_gone] = col_degraded[gone]
                if draw_sum is not None:
                    draw_sum[t_gone] = col_draw_sum[gone]
                # Truncations are rare: skip their gathers when there are none.
                ti = _np.flatnonzero(trunc)
                if ti.size:
                    t_trunc = cols[ti]
                    self.n_failures[t_trunc] += 1
                    degraded[t_trunc] += horizon_hours - tf[ti]
                    plane[:, ti] = _np.inf
                di = _np.flatnonzero(danger)
                if di.size:
                    dangerous[cols[di]] = True
                if di.size and not single_safe:
                    leave += di.tolist()
                    # The walk's first multi-disk set, planned with the misses.
                    pairs = di[(second[di] <= comp[di]) & (second[di] <= horizon_hours)]
                    for c, d in zip(pairs.tolist(), plane[:, pairs].argmin(axis=0).tolist()):
                        self.parked[int(cols[c])] = tuple(sorted((int(first[c]), d)))
                elif di.size:
                    stay = []
                    for c in di.tolist():
                        t, d, start = int(cols[c]), int(first[c]), float(tf[c])
                        failed = [d]
                        rows = [("failure", start, d, 1),
                                ("repair_start", start, 1, float(hours1[d]))]
                        end, read = self._episode(
                            plane[:, c].tolist(), failed, float(comp[c]),
                            float(bytes_read[d]), repairs + int(extra[t]) + 1, rows,
                        )
                        if read is None:  # the memo lacks the set: park
                            self.parked[t] = tuple(sorted(failed))
                            leave.append(c)
                            continue
                        self.peak[t] = max(self.peak[t], len(failed))
                        lost = isinstance(read, DataLossError)
                        if lost or end > horizon_hours:  # settled, and over
                            self.lost_at[t] = end if lost else math.inf
                            self.n_failures[t] += len(failed)
                            degraded[t] += min(end, horizon_hours) - start
                            plane[:, c] = _np.inf
                        else:
                            if lse_thresholds is not None and read > 0:
                                aux = aux_keys[t:t + 1]  # a view: an array add wraps
                                if _key_uniforms(aux)[0] > math.exp(-(read * self._lse_rate)):
                                    leave.append(c)
                                    continue
                                aux += _GOLDEN_NP
                            rows += [("lse_check", end, 0)] * (lse_thresholds is not None)
                            rows.append(("repair_complete", end, len(failed)))
                            # Every failed disk redraws, in ascending disk order.
                            down = sorted(failed)
                            drawn = keys[down, c]
                            keys[down, c] = drawn + _GOLDEN_NP
                            lives = _exponentials(_key_uniforms(drawn), lambd)
                            plane[down, c] = end + lives
                            col_degraded[c] += end - start
                            for life in lives.tolist() if draw_sum is not None else ():
                                col_draw_sum[c] += life
                            extra[t] += len(failed) - 1
                            stay.append(c)
                        if tally is not None:
                            self.episodes.setdefault(t, []).append((start, rows))
                    if stay:
                        clean[stay] = True
                        ci = _np.flatnonzero(clean)
                if leave:
                    t_leave = cols[leave]
                    dangerous[t_leave] = self.walked[t_leave] = True
                    plane[:, leave] = _np.inf
            repairs += 1
            live = clean
            if ci.size < _LIVE_SHARE * width:
                plane, keys = plane.take(ci, axis=1), keys.take(ci, axis=1)
                cols, col_degraded = cols[ci], col_degraded[ci]
                if draw_sum is not None:
                    col_draw_sum = col_draw_sum[ci]
                live, column = _np.ones(ci.size, dtype=bool), column[: ci.size]
        self.peak[(~dangerous) & (self.n_failures > 0)] = 1
        self.n_failures += extra
        self.draws = n + self.n_repairs + extra

    def _episode(self, clocks, failed, done_at, read, epoch, rows):
        """Grow one column's episode as the walk does; return ``(end, read)``.

        *failed* holds its first disk (+inf in *clocks*), pending *done_at*
        and *read* bytes. A failure by the completion and the horizon joins
        the set (lowest disk first on a tie) and restarts the rebuild from
        the memo, or ends the episode: ``(time, DataLossError)`` on a loss,
        ``(time, None)`` on a miss. *rows* gets the walk's log rows, whose
        rebuild count is *epoch*."""
        while True:
            at = min(clocks)
            if at > done_at or at > self._horizon_hours:
                return done_at, read
            disk = clocks.index(at)
            clocks[disk] = math.inf
            failed.append(disk)
            got = self._lookup(tuple(sorted(failed)))
            rows += [("failure", at, disk, len(failed)), ("repair_abandon", at, epoch)]
            if got is None or isinstance(got, DataLossError):
                rows += [("data_loss", at, "pattern", len(failed))] * (got is not None)
                return at, got
            hours, read = got
            done_at, epoch = at + hours, epoch + 1
            rows.append(("repair_start", at, len(failed), hours))


def sample_renewal_events(rng, n_disks, mttf_hours, mttr_hours,
                          horizon_hours, trials):
    """Pre-sample every trial's failure/repair events up to the horizon.

    Each disk is an independent alternating renewal process (operate
    ``Exp(mttf)``, repair ``Exp(mttr)``, repeat), exactly the process the
    reference heap walk (``tests/sim/reference_lifetimes.py``) builds one
    arrival at a time. Cycle durations
    are drawn in whole blocks and extended until every ``(trial, disk)``
    lane's last failure lands beyond the horizon; the growth rule depends
    only on the sampled values, so results are a deterministic function
    of the seed.

    Returns ``(times, kinds, disks, counts, starts)``: flat event arrays
    sorted by ``(trial, time)`` — failures are kind 0, repairs kind 1 —
    plus each trial's event count and its slice start in the flat arrays.
    The sort key is the composite ``trial * span + time`` (a single
    float argsort, several times faster than a 4-key lexsort); exact
    float-time ties inside one trial have probability zero and any
    deterministic order for them is acceptable because every consumer
    (the concurrency filter, the XOR scan, the narrator) reads the same
    ordering.
    """
    expected_cycles = horizon_hours / (mttf_hours + mttr_hours)
    k = max(2, int(expected_cycles * 1.5) + 2)
    lane_ids = _np.arange(trials * n_disks)  # lane = trial * n_disks + disk
    base = _np.zeros(len(lane_ids))
    lane_parts, time_parts, kind_parts = [], [], []
    while len(lane_ids):
        # Draw k more cycles for every still-uncovered lane. Lanes that
        # already reach past the horizon drop out, so later tiers touch a
        # fast-shrinking remainder instead of re-growing the whole array.
        fails = rng.exponential(mttf_hours, size=(len(lane_ids), k))
        repairs = rng.exponential(mttr_hours, size=(len(lane_ids), k))
        csum = _np.cumsum(fails + repairs, axis=1)
        csum += base[:, None]
        fail_t = csum - repairs  # k-th failure is one repair before csum_k
        fail_mask = fail_t <= horizon_hours
        repair_mask = csum <= horizon_hours
        f_lane, _ = _np.nonzero(fail_mask)
        r_lane, _ = _np.nonzero(repair_mask)
        lane_parts.append(lane_ids[f_lane])
        time_parts.append(fail_t[fail_mask])
        kind_parts.append(_np.zeros(len(f_lane), dtype=_np.int8))
        lane_parts.append(lane_ids[r_lane])
        time_parts.append(csum[repair_mask])
        kind_parts.append(_np.ones(len(r_lane), dtype=_np.int8))
        uncovered = (csum[:, -1] - repairs[:, -1]) <= horizon_hours
        lane_ids = lane_ids[uncovered]
        base = csum[uncovered, -1]
        k = max(4, k * 2)

    times = _np.concatenate(time_parts)
    kinds = _np.concatenate(kind_parts)
    lanes = _np.concatenate(lane_parts)
    trial_ix = lanes // n_disks
    disk_ix = lanes - trial_ix * n_disks
    span = horizon_hours + 1.0
    order = _np.argsort(trial_ix * span + times)
    times, kinds = times[order], kinds[order]
    trial_ix, disk_ix = trial_ix[order], disk_ix[order]
    counts = _np.bincount(trial_ix, minlength=trials)
    starts = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
    return times, kinds, disk_ix, counts, starts


def exceedances(kinds, counts, starts, guarantee):
    """The failure arrivals that leave more than *guarantee* disks down.

    A failure is +1, a repair -1; the running sum after each event is the
    failed-set size at that instant. A trial whose concurrency never
    exceeds the layout's guaranteed tolerance can never lose data and
    needs no replay at all (it is not *suspect*); in the rest, a loss can
    only happen at a failure arrival past the guarantee — the first of
    them is the trial's first exceedance.

    Returns ``(events, event_trials)``: the global indices of those
    failure arrivals, ascending, and the trial of each.
    """
    if not len(kinds):
        empty = _np.zeros(0, dtype=_np.intp)
        return empty, empty
    deltas = _np.where(kinds == 0, 1, -1)
    running = _np.cumsum(deltas)
    baselines = _np.where(starts > 0, running[starts - 1], 0)
    concurrency = running - _np.repeat(baselines, counts)
    events = _np.flatnonzero((concurrency > guarantee) & (kinds == 0))
    # The last trial starting at or before an event holds it (an empty
    # trial shares its start with the next one, so it is never the last).
    return events, _np.searchsorted(starts, events, side="right") - 1


def fresh_seed() -> int:
    """A 48-bit OS-entropy seed for callers invoked with ``seed=None``."""
    return random.SystemRandom().getrandbits(48)
