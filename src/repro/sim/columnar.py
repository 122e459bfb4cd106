"""Shared columnar Monte-Carlo core: trial streams and the lockstep screen.

The lifetime kernel (PR 5) and the lifecycle kernel both follow the same
two-plane design — a cheap batched *sampling plane* that covers every
trial, and an exact *event plane* that replays only the trials the
sampling plane flags as dangerous. This module is the shared substrate
for both planes so the kernels stop duplicating scaffolding:

* :class:`TrialStreams` — per-trial counter-based draw lanes. Lane ``t``
  of a run seeded ``s`` is the splitmix64 stream
  ``u[t, j] = (mix64(mix64(s + (t+1)*G) + (j+1)*G) >> 11) * 2**-53``
  (``G`` the 64-bit golden-ratio increment), so any slot of any trial is
  addressable without sequential generator state. Both lifecycle kernels
  draw from the *same* lanes: the vectorized kernel reads whole
  ``(trials, slots)`` planes, the event kernel walks one trial at a time
  through a :class:`LaneCursor` — which is what makes ``--mc-kernel`` a
  pure speed knob: the two kernels return bit-identical results, because
  every uniform (and every exponential, computed once by ``numpy.log``
  over the whole plane) is literally the same float.
* :class:`LifecycleTables` — broadcast-ready per-disk single-failure
  rebuild columns (hours, bytes read), computed once from a
  ``RebuildTimer`` in the parent and shipped to workers through the pool
  initializer exactly like ``ServeTables``.
* :func:`sample_renewal_events` / :func:`first_exceedances` — the
  lifetime kernel's tiered renewal sampler and concurrency filter, moved
  here verbatim from :mod:`repro.sim.montecarlo` so the lifecycle kernel
  shares the machinery instead of copying it.
* :class:`LockstepScreen` — the lockstep renewal screen the lifecycle
  and fleet kernels share: all trials advance one failure incident per
  round on a ``(trials, disks)`` failure-clock array, clean incidents
  are settled columnar, and trials whose incident overlaps a second
  failure (or is struck by a latent sector error) are flagged for the
  caller's exact replay.

numpy is a hard dependency (``pyproject.toml``); there is no pure-Python
lane implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Iterator, NamedTuple, Tuple

import numpy as _np

from repro.errors import SimulationError
from repro.obs.prof import ambient_profiler

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
#: Fewest columns a plane grows by: one cache line of float64 per row.
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


def _mix64_np(z):
    """splitmix64 finalizer on uint64 arrays; bit-identical to :func:`mix64`."""
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(_MIX_A)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(_MIX_B)
    return z ^ (z >> _np.uint64(31))


def lane_seed(seed: int, trial: int) -> int:
    """The lane seed of *trial* under run seed *seed* (scalar reference)."""
    return mix64((seed & _MASK64) + (trial + 1) * GOLDEN_STRIDE)


def derive_chunk_seed(seed: int, chunk_id: int) -> int:
    """Deterministic sub-seed for chunk *chunk_id* of a run seeded *seed*.

    Chunk 0 reproduces *seed* itself, so a single-chunk parallel run is
    bit-identical to the serial simulator called directly — and any
    simulator that derives per-trial seeds this way (trial ``t`` gets
    ``derive_chunk_seed(seed, t)``) makes trial 0 of a batch identical
    to a plain single-trial run with the same seed.
    """
    return (seed ^ (chunk_id * GOLDEN_STRIDE)) & _SEED_MASK


class ChunkSpec(NamedTuple):
    """One chunk of a run, as the driver hands it to a chunk function.

    ``index`` is the chunk's position in chunk order, ``start`` the
    global index of its first trial and ``size`` its trial count;
    ``seed`` is the **run** seed. Chunk functions derive what they
    sample from these alone — a per-chunk stream
    (``derive_chunk_seed(seed, index)``: lifetimes only, whose chunk size
    is thereby part of its sample), per-trial streams
    (``derive_chunk_seed(seed, start + i)``) or globally keyed lanes
    (``lane_offset=start``, ``block_lane_seeds(seed, start, size)``) —
    never from ``jobs``.
    """

    index: int
    start: int
    size: int
    seed: int


def derive_lane_seeds(seeds, lanes_per_seed: int):
    """Flat per-purpose lane seeds for a batch of run seeds.

    Entry ``i * lanes_per_seed + p`` equals ``lane_seed(seeds[i], p)`` —
    the glue that lets one batched :class:`TrialStreams` (via the
    ``lane_seeds`` override) materialize many runs' purpose-keyed lanes
    side by side while each run keeps reading exactly the floats it
    would read alone. Returns a ``uint64`` array.
    """
    if lanes_per_seed < 1:
        raise SimulationError(
            f"lanes_per_seed must be >= 1, got {lanes_per_seed}"
        )
    base = _np.array([s & _MASK64 for s in seeds], dtype=_np.uint64)
    purposes = _np.arange(1, lanes_per_seed + 1, dtype=_np.uint64)
    mixed = base[:, None] + purposes[None, :] * _np.uint64(GOLDEN_STRIDE)
    return _mix64_np(mixed.reshape(-1))


#: Trials per lifecycle lane block. Frozen: it is part of the sample (see
#: :func:`block_lane_seeds`), unlike any chunk size, which is only a speed.
LANE_BLOCK_TRIALS = 256


def block_lane_seeds(seed: int, start: int, count: int):
    """Lane values of global lifecycle trials ``start .. start+count-1``.

    Trial ``T`` reads ``lane_seed(derive_chunk_seed(seed, T // 256),
    T % 256)``: lanes are keyed by the global trial in frozen blocks of
    :data:`LANE_BLOCK_TRIALS`, which is the lane every 256-trial chunk
    has always read — so a run may cut its trials into chunks of any
    size without moving a sampled float. One ``uint64`` expression over
    the blocks the window touches, for ``TrialStreams(lane_seeds=...)``.

    Known weakness, kept because it *is* the front-door sample: block
    seeds and lanes step by the same stride, so lanes of neighbouring
    blocks alias (ROADMAP, "Lifecycle lane blocks alias").
    """
    first = start // LANE_BLOCK_TRIALS
    blocks = range(first, (start + count - 1) // LANE_BLOCK_TRIALS + 1)
    lanes = derive_lane_seeds(
        [derive_chunk_seed(seed, block) for block in blocks],
        LANE_BLOCK_TRIALS,
    )
    offset = start - first * LANE_BLOCK_TRIALS
    return lanes[offset:offset + count]


def oracle_guarantee(oracle: Callable[..., bool]) -> int:
    """Failure count below which *oracle* certainly answers "survives".

    ``RecoverabilityOracle`` fast-paths sets of at most its
    ``guaranteed_tolerance``; ``ThresholdOracle`` *is* its ``tolerance``.
    Opaque callables get 0 — every trial with a failure is then walked
    with the oracle, which is slow but exact.
    """
    declared = getattr(oracle, "guaranteed_tolerance", None)
    if declared is None:
        declared = getattr(oracle, "tolerance", None)
    return int(declared) if declared is not None else 0


class LaneCursor:
    """Sequential ``random.Random``-shaped view of one trial's lane.

    Supports exactly the draw vocabulary the lifecycle walk uses —
    ``random()``, ``expovariate()``, ``randrange()`` — reading successive
    slots of the trial's lane: the shared plane's row first, then slots
    the cursor draws for its own lane alone (same position-addressed
    floats; the plane is never grown by a walk, so a chunk's memory does
    not scale with its longest trial). ``expovariate`` must be called
    with the rate the streams were built for: the exponentials are
    precomputed for that rate (that is what makes the event walk read
    the *same* floats as the vectorized plane), so a different rate
    would silently decouple the kernels and raises instead.
    """

    __slots__ = ("_streams", "_trial", "pos", "_u", "_e")

    def __init__(self, streams: "TrialStreams", trial: int) -> None:
        self._streams = streams
        self._trial = trial
        self.pos = 0
        # Materialized plane rows (plain float lists) make the hot draws
        # list indexing instead of per-scalar numpy access — the event
        # walk draws thousands of times per trial and the difference is
        # ~1.5x on the whole kernel. Same floats either way.
        self._u, self._e = streams.rows(trial)

    def random(self) -> float:
        """The next uniform in ``[0, 1)`` of this trial's lane."""
        pos = self.pos
        self.pos = pos + 1
        if pos >= len(self._u):
            self._grow(pos)
        return self._u[pos]

    def expovariate(self, lambd: float) -> float:
        """The next ``Exp(lambd)`` draw; *lambd* must be the plane's rate."""
        if lambd != self._streams.lambd:
            raise SimulationError(
                f"lane streams were built for rate {self._streams.lambd!r}, "
                f"cannot draw expovariate({lambd!r})"
            )
        pos = self.pos
        self.pos = pos + 1
        if pos >= len(self._e):
            self._grow(pos)
        return self._e[pos]

    def _grow(self, pos: int) -> None:
        """Extend this trial's own rows to cover slot *pos* (doubling).

        The shared plane is left alone: a walk that outruns it pays for
        one lane, not for every row of the chunk.
        """
        have = len(self._u)
        with ambient_profiler().phase("sample"):
            u, e = self._streams.draw(
                slice(self._trial, self._trial + 1), have,
                max(pos + 1, 2 * have),
            )
        self._u += u[0].tolist()
        self._e += e[0].tolist()

    def randrange(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` from the next uniform slot."""
        value = int(self.random() * n)
        return value if value < n else n - 1


class TrialStreams:
    """numpy-backed per-trial draw lanes (uniform and exponential planes).

    Slots are generated into ``(trials, slots)`` planes, a cache-sized
    row strip at a time, and grown on demand; every float is a pure
    function of its lane value and slot number (:meth:`draw`), never of
    how wide the plane is, how it grew or who read it.

    *lane_offset* keys the lanes to a window of a larger global trial
    space: local row ``t`` reads global lane ``lane_offset + t``, so
    ``TrialStreams(seed, k, lambd, lane_offset=m)`` is bit-identical to
    rows ``m .. m+k-1`` of ``TrialStreams(seed, m+k, lambd)``. The fleet
    kernel uses this to key one lane per ``(array, trial)`` mission while
    materializing only a chunk of missions at a time — chunk boundaries
    can never change which floats a mission reads.

    *lane_seeds* overrides the per-row lane derivation entirely: row
    ``t`` reads the already-mixed lane value ``lane_seeds[t]`` (as
    produced by :func:`lane_seed` / :func:`derive_lane_seeds` /
    :func:`block_lane_seeds`). The serve kernel uses this to pack many
    *independently seeded* runs' purpose lanes into one plane — each row
    is then bit-identical to the same lane of a stream built for that
    run alone — and the lifecycle kernel to key any window of global
    trials to its frozen lane blocks.
    """

    __slots__ = ("seed", "trials", "lambd", "lane_offset", "_lanes",
                 "_uniforms", "_exponentials", "_slots")

    def __init__(self, seed: int, trials: int, lambd: float,
                 slots: int = 64, lane_offset: int = 0,
                 lane_seeds=None) -> None:
        if trials < 1:
            raise SimulationError(f"trials must be >= 1, got {trials}")
        if lambd <= 0:
            raise SimulationError(f"lambd must be > 0, got {lambd}")
        if lane_offset < 0:
            raise SimulationError(
                f"lane_offset must be >= 0, got {lane_offset}"
            )
        self.seed = seed
        self.trials = trials
        self.lambd = lambd
        self.lane_offset = lane_offset
        if lane_seeds is not None:
            if lane_offset != 0:
                raise SimulationError(
                    "lane_seeds and lane_offset are mutually exclusive"
                )
            lanes = _np.asarray(lane_seeds, dtype=_np.uint64)
            if lanes.shape != (trials,):
                raise SimulationError(
                    f"lane_seeds must have shape ({trials},), "
                    f"got {lanes.shape}"
                )
            self._lanes = lanes
        else:
            base = _np.uint64(seed & _MASK64)
            counters = _np.arange(
                lane_offset + 1, lane_offset + trials + 1, dtype=_np.uint64
            )
            self._lanes = _mix64_np(
                base + counters * _np.uint64(GOLDEN_STRIDE)
            )
        self._slots = 0
        self._uniforms = self._exponentials = _np.empty((trials, 0))
        self.ensure(slots)

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def uniforms(self):
        """The ``(trials, slots)`` uniform plane (values in ``[0, 1)``)."""
        return self._uniforms[:, :self._slots]

    @property
    def exponentials(self):
        """The matching ``Exp(lambd)`` plane: ``-log(1 - u) / lambd``."""
        return self._exponentials[:, :self._slots]

    def draw(self, rows: slice, start: int, stop: int):
        """Slots ``start .. stop-1`` of lanes *rows*: ``(uniforms, exponentials)``.

        A pure function of the lane values and the slot numbers, so the
        plane (strip by strip) and a cursor past its edge (one row) read
        the same floats whoever asks, in whatever pieces.
        """
        counters = _np.arange(
            start + 1, stop + 1, dtype=_np.uint64
        ) * _np.uint64(GOLDEN_STRIDE)
        z = _mix64_np(self._lanes[rows, None] + counters[None, :])
        u = (z >> _np.uint64(11)).astype(_np.float64) * 2.0 ** -53
        return u, -_np.log(1.0 - u) / self.lambd

    def ensure(self, slots: int) -> None:
        """Grow every row to at least *slots* columns, a row strip at a time.

        Capacity doubles (one copy, amortized) but only the columns asked
        for are sampled — :data:`_GROW_SLOTS` at least, a cache line per
        row — so a wide plane never pays whole rows for a few stragglers.
        """
        have = self._slots
        if slots <= have:
            return
        # The phase span sits after the early return so the common
        # no-growth path never touches the profiler.
        with ambient_profiler().phase("sample"):
            target = max(slots, have + _GROW_SLOTS)
            if target > self._uniforms.shape[1]:
                planes = _np.empty((2, self.trials, max(target, 2 * have)))
                planes[0, :, :have] = self.uniforms
                planes[1, :, :have] = self.exponentials
                self._uniforms, self._exponentials = planes
            strip = max(1, _STRIP_CELLS // (target - have))
            for lo in range(0, self.trials, strip):
                rows = slice(lo, lo + strip)
                u, e = self.draw(rows, have, target)
                self._uniforms[rows, have:target] = u
                self._exponentials[rows, have:target] = e
            self._slots = target

    def uniform(self, trial: int, pos: int) -> float:
        """Slot *pos* of trial *trial*'s uniform lane (grows as needed)."""
        if pos >= self._slots:
            self.ensure(pos + 1)
        return float(self._uniforms[trial, pos])

    def exponential(self, trial: int, pos: int) -> float:
        """Slot *pos* of trial *trial*'s exponential lane (grows as needed)."""
        if pos >= self._slots:
            self.ensure(pos + 1)
        return float(self._exponentials[trial, pos])

    def rows(self, trial: int):
        """One trial's planes as plain float lists (cursor fast path)."""
        return self.uniforms[trial].tolist(), self.exponentials[trial].tolist()

    def cursor(self, trial: int) -> LaneCursor:
        """A sequential reader over trial *trial*'s lane."""
        return LaneCursor(self, trial)


@dataclass(frozen=True)
class LifecycleTables:
    """Broadcast-ready per-disk single-failure rebuild columns.

    ``hours[d]`` / ``bytes_read[d]`` are the layout-derived rebuild time
    and read volume of the pattern ``{d}`` — exactly what a
    ``RebuildTimer`` returns for it, computed once in the parent (warming
    the timer's memo as a side effect) and shipped to every worker
    through the pool initializer like ``ServeTables``. The vectorized
    kernel's clean plane reads these columns instead of calling the
    planner per incident; replayed trials still go through the timer and
    see the same floats, because both come from the same memoized pure
    function of the pattern.
    """

    hours: Any
    bytes_read: Any

    @classmethod
    def build(
        cls,
        layout: "Layout",
        timer: Callable[[FrozenSet[int]], Tuple[float, float]],
    ) -> "LifecycleTables":
        pairs = [timer(frozenset((d,))) for d in range(layout.n_disks)]
        return cls(
            hours=_np.array([hours for hours, _ in pairs]),
            bytes_read=_np.array([read for _, read in pairs]),
        )


class LockstepScreen:
    """The lockstep renewal screen the lifecycle and fleet kernels share.

    Construction samples the plane — row ``t`` reads global lane
    ``lane_offset + t`` of *seed*, or the lane value ``lane_seeds[t]`` —
    and loads every disk's first failure epoch into a
    ``(trials, disks)`` array. :meth:`rounds` then advances
    all still-active trials one failure incident per round: it takes each
    trial's earliest pending failure, reads the failed disk's
    single-failure rebuild clock from the broadcast *tables* columns, and
    classifies the incident vectorized — past the horizon (mission over),
    truncated (rebuild still running at the horizon), overlapped by a
    second failure (dangerous), struck by a latent sector error
    (dangerous), or clean (repair completes, the disk redraws a
    lifetime). The screen never consults the recovery planner: a single
    failure is safe whenever *guarantee* (the layout's tolerance, or the
    oracle's declared one) covers one failure; ``guarantee == 0`` flags
    every trial with any failure.

    After the rounds are exhausted ``n_failures``, ``n_repairs`` and
    ``peak`` are exact for every trial not in ``dangerous``; the caller
    replays the dangerous ones *in full* through the exact event walk
    from ``streams.cursor(t)`` — the same position-addressed floats the
    screen read — and overwrites their entries.
    """

    def __init__(
        self,
        layout: "Layout",
        tables: LifecycleTables,
        seed: int,
        trials: int,
        lambd: float,
        horizon_hours: float,
        lse_rate_per_byte: float,
        guarantee: int,
        slots: int,
        lane_offset: int = 0,
        lane_seeds=None,
    ) -> None:
        n = layout.n_disks
        self.streams = TrialStreams(
            seed, trials, lambd, max(slots, n + 2), lane_offset, lane_seeds
        )
        self._fail_at = self.streams.exponentials[:, :n].copy()
        self.n_failures = _np.zeros(trials, dtype=_np.int64)
        self.n_repairs = _np.zeros(trials, dtype=_np.int64)
        self.peak = _np.zeros(trials, dtype=_np.int64)
        self.dangerous = _np.zeros(trials, dtype=bool)
        self._tables = tables
        self._horizon_hours = horizon_hours
        self._single_safe = guarantee >= 1
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

    def rounds(self) -> Iterator[Tuple[Any, ...]]:
        """Advance every trial to its end or its first dangerous incident.

        Yields one ``(clean, clean_at, redraw, trunc, trunc_at, tf, comp)``
        tuple per round: ``tf`` / ``comp`` are the round's failure and
        repair-completion epochs, one entry per still-active trial;
        ``clean_at`` / ``trunc_at`` index into them and ``clean`` /
        ``trunc`` are the matching trial ids; ``redraw`` is the fresh
        lifetime each clean trial's repaired disk drew. Callers fold their
        own accumulators from these (degraded hours, likelihood-ratio
        sums), so the screen carries none of them — a plain tuple because
        this runs once per round of every chunk.
        """
        streams, fail_at = self.streams, self._fail_at
        hours1, bytes_read = self._tables.hours, self._tables.bytes_read
        horizon_hours = self._horizon_hours
        lse_thresholds = self._lse_thresholds
        n_failures, n_repairs = self.n_failures, self.n_repairs
        dangerous, single_safe = self.dangerous, self._single_safe
        trials, n = fail_at.shape
        ptr = _np.full(trials, n, dtype=_np.int64)
        active = _np.arange(trials)
        while active.size:
            streams.ensure(int(ptr[active].max()) + 2)
            fa = fail_at[active]
            rows = _np.arange(active.size)
            first = _np.argmin(fa, axis=1)
            tf = fa[rows, first]
            # Disks whose next failure falls past the horizon are never
            # seen.
            over = tf > horizon_hours
            comp = tf + hours1[first]
            fa[rows, first] = _np.inf
            second = fa.min(axis=1)
            if single_safe:
                # A pending failure at the same instant as a completion
                # pops first (it always carries a lower heap sequence
                # number), so an exact tie is an overlap, hence <= on
                # both sides.
                danger = ~over & (second <= comp) & (second <= horizon_hours)
            else:
                danger = ~over
            trunc = ~(over | danger) & (comp > horizon_hours)
            clean = ~(over | danger | trunc)
            if lse_thresholds is not None:
                # The event plane draws no Poisson uniform when the
                # rebuild read zero bytes, so zero-byte completions keep
                # their slot.
                check = clean & (bytes_read[first] > 0)
                hit = _np.flatnonzero(check)
                if hit.size:
                    t_ix = active[hit]
                    struck = (
                        streams.uniforms[t_ix, ptr[t_ix]]
                        > lse_thresholds[first[hit]]
                    )
                    danger[hit[struck]] = True
                    clean[hit[struck]] = False
                    ptr[t_ix[~struck]] += 1
            # Truncations are rare; an empty position set doubles as the
            # (equally empty) trial-id set and skips the gather.
            ti = t_trunc = _np.flatnonzero(trunc)
            if ti.size:
                t_trunc = active[ti]
                n_failures[t_trunc] += 1
            dangerous[active[danger]] = True
            ci = _np.flatnonzero(clean)
            t_clean = active[ci]
            redraw = streams.exponentials[t_clean, ptr[t_clean]]
            n_failures[t_clean] += 1
            n_repairs[t_clean] += 1
            fail_at[t_clean, first[ci]] = comp[ci] + redraw
            ptr[t_clean] += 1
            yield t_clean, ci, redraw, t_trunc, ti, tf, comp
            active = active[clean]
        self.peak[(~dangerous) & (n_failures > 0)] = 1


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
    (the concurrency filter, both replay walks) reads the same ordering.
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


def first_exceedances(kinds, counts, starts, trials, guarantee):
    """Where each trial first exceeds *guarantee* concurrent failures.

    A failure is +1, a repair -1; the running sum after each event is the
    failed-set size at that instant. A trial whose concurrency never
    exceeds the oracle's guaranteed tolerance can never lose data and
    needs no replay at all; for the rest, the loss (if any) can only
    happen at or after the first exceedance, so the replay starts there.

    Returns ``(suspect_trials, first_index)`` — both ascending by trial,
    ``first_index`` being the global index of the trial's first
    exceedance event (always a failure arrival).
    """
    if not len(kinds):
        empty = _np.zeros(0, dtype=_np.intp)
        return empty, empty
    deltas = _np.where(kinds == 0, 1, -1)
    running = _np.cumsum(deltas)
    baselines = _np.where(starts > 0, running[starts - 1], 0)
    concurrency = running - _np.repeat(baselines, counts)
    hot = _np.flatnonzero(concurrency > guarantee)
    if not len(hot):
        return hot, hot
    hot_trials = _np.repeat(_np.arange(trials), counts)[hot]
    suspects, first_pos = _np.unique(hot_trials, return_index=True)
    return suspects, hot[first_pos]


def fresh_seed() -> int:
    """A 48-bit OS-entropy seed for callers invoked with ``seed=None``."""
    return random.SystemRandom().getrandbits(48)
