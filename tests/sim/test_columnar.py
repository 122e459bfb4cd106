"""The shared columnar core: the lane address, draw lanes, the lockstep screen."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.columnar import (
    GOLDEN_STRIDE,
    MISSION,
    SERVE,
    LifecycleTables,
    LockstepScreen,
    TrialStreams,
    lanes,
    mix64,
)
from repro.sim.lifecycle import (
    RebuildTimer,
    _lifecycle_trial,
    guaranteed_tolerance,
)
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB

DISK = DiskModel(capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)

#: Seeds the address is checked on: small ones (where the old block
#: keying aliased worst), the 63/64-bit edges and one past 64 bits.
SEEDS = [0, 1, 2, 3, 11, 12345, 2**63 - 1, -1, 2**70 + 3]


def scalar_lane(seed: int, domain: int, trial: int, sub: int) -> int:
    """The lane address in pure Python: each coordinate mixed before the next."""
    z = mix64((seed & (2**64 - 1)) + domain * GOLDEN_STRIDE)
    return mix64(mix64(z + trial) + sub)


def scalar_uniform(seed: int, trial: int, pos: int, sub: int = 0) -> float:
    """Slot *pos* of MISSION lane ``(trial, sub)``, from the scalar formula."""
    lane = scalar_lane(seed, MISSION, trial, sub)
    return (mix64(lane + (pos + 1) * GOLDEN_STRIDE) >> 11) * 2.0**-53


def mission_streams(seed, trials, lambd, slots=64, start=0, subs=1):
    return TrialStreams(lanes(seed, MISSION, start, trials, subs), lambd, slots)


class TestMix64:
    def test_reference_vector(self):
        # splitmix64 of seed 0 emits this well-known first output when the
        # state is advanced by the golden stride and finalized.
        assert mix64(GOLDEN_STRIDE) == 0xE220A8397B1DCDAF

    def test_numpy_and_python_agree(self):
        from repro.sim.columnar import _mix64_np

        values = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF,
                  (GOLDEN_STRIDE * 7) & (2**64 - 1)]
        got = _mix64_np(np.array(values, dtype=np.uint64))
        assert [int(v) for v in got] == [mix64(v) for v in values]


class TestBlockLaneSeeds:
    """The lane address ``(seed, domain, trial, sub)``.

    (The class keeps the name it had when lifecycle lanes were keyed in
    256-trial blocks; the window edges below are those blocks' edges.)
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 1, 255, 256, 257, 511, 1000, 2**20 - 3])
    def test_vectorized_lanes_equal_the_scalar_reference(self, seed, start):
        """Any window is rows ``start ..`` of the whole, for seeds outside
        the 64-bit range too, in both domains."""
        for domain, subs in ((MISSION, 3), (SERVE, 4)):
            got = lanes(seed, domain, start, 40, subs)
            assert got.dtype == np.uint64 and got.shape == (40, subs)
            assert got.tolist() == [
                [scalar_lane(seed, domain, t, s) for s in range(subs)]
                for t in range(start, start + 40)
            ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_lane_is_distinct_within_and_across_domains(self, seed):
        """No two ``(domain, trial, sub)`` of a run share a lane."""
        mission = np.unique(lanes(seed, MISSION, 0, 100_000, 22))
        serve = np.unique(lanes(seed, SERVE, 0, 100_000, 4))
        assert len(mission) == 100_000 * 22
        assert len(serve) == 100_000 * 4
        assert not len(np.intersect1d(mission, serve, assume_unique=True))

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("domain", [MISSION, SERVE])
    def test_slot_zero_is_uniform_and_uncorrelated_across_trials(
        self, seed, domain
    ):
        n = 100_000
        u = TrialStreams(lanes(seed, domain, 0, n, 1), 1.0, 1).uniforms[:, 0, 0]
        ordered = np.sort(u)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - ordered), np.max(ordered - (grid - 1.0 / n)))
        assert ks < 1.95 / math.sqrt(n)  # Kolmogorov-Smirnov, alpha = 0.001
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 4.0 / math.sqrt(n)


class TestTrialStreams:
    def test_python_and_numpy_uniforms_bit_identical(self):
        streams = mission_streams(42, 5, 0.5, slots=16, subs=3)
        for trial in range(5):
            for sub in range(3):
                for pos in range(16):
                    assert streams.uniforms[trial, sub, pos] == scalar_uniform(
                        42, trial, pos, sub
                    )

    def test_growth_is_invisible(self):
        """A plane's floats do not depend on its width, and slots drawn
        past its edge are the ones a wider plane holds."""
        small = mission_streams(7, 3, 1.0, slots=4, subs=2)
        big = mission_streams(7, 3, 1.0, slots=64, subs=2)
        assert (small.uniforms == big.uniforms[..., :4]).all()
        assert (small.exponentials == big.exponentials[..., :4]).all()
        more_u, more_e = small.draw(slice(None), 4, 64)
        assert (more_u == big.uniforms[..., 4:]).all()
        assert (more_e == big.exponentials[..., 4:]).all()

    def test_lanes_keyed_by_trial_counter(self):
        streams = mission_streams(9, 2, 1.0, slots=2)
        assert streams.uniforms[1, 0, 1] == scalar_uniform(9, 1, 1)

    def test_lane_offset_windows_the_global_lane_space(self):
        """A window of lanes is rows m..m+k-1 of the whole plane — the
        keystone of every kernel's chunk-invariant sampling."""
        full = mission_streams(13, 10, 0.25, slots=8, subs=2)
        window = mission_streams(13, 4, 0.25, slots=8, subs=2, start=3)
        assert (window.uniforms == full.uniforms[3:7]).all()
        assert (window.exponentials == full.exponentials[3:7]).all()

    def test_lane_offset_pure_python_agrees(self):
        window = mission_streams(13, 4, 0.25, slots=8, start=3)
        for trial in range(4):
            for pos in range(8):
                assert window.uniforms[trial, 0, pos] == scalar_uniform(
                    13, 3 + trial, pos
                )

    def test_cursor_walks_the_plane_in_order(self):
        streams = mission_streams(3, 2, 0.25, slots=8, subs=2)
        cursor = streams.cursor(1)
        assert cursor.random() == streams.uniforms[1, 1, 0]
        assert cursor.expovariate(0.25, 1) == streams.exponentials[1, 1, 1]
        assert cursor.expovariate(0.25, 0) == streams.exponentials[1, 0, 0]
        assert cursor.pos == [1, 2]  # every lane advances alone

    def test_cursor_grows_past_the_plane(self):
        streams = mission_streams(3, 1, 1.0, slots=2)
        cursor = streams.cursor(0)
        draws = [cursor.random() for _ in range(40)]
        assert draws == [scalar_uniform(3, 0, pos) for pos in range(40)]

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 63, 64, 65, 300])
    def test_cursor_extends_its_own_row_with_the_planes_floats(self, size):
        """A row extended alone equals the same row of a plane sampled whole,
        on both planes, wherever the shared plane stopped."""
        whole = mission_streams(21, 4, 0.25, slots=2 * size + 16, subs=2)
        shared = mission_streams(21, 4, 0.25, slots=size, subs=2)
        reach = whole.uniforms.shape[-1]
        cursor = shared.cursor(2)
        drawn_u = [cursor.random(1) for _ in range(reach)]
        drawn_e = [cursor.expovariate(0.25, 0) for _ in range(reach)]
        assert drawn_u == whole.uniforms[2, 1].tolist()
        assert drawn_e == whole.exponentials[2, 0].tolist()
        # the cursor grew its rows, not the plane
        assert shared.uniforms.shape == (4, 2, size)

    def test_plane_sampled_in_strips_equals_rows_sampled_alone(self):
        """A plane wider than one row strip holds, row for row, the floats
        each trial's lanes yield by themselves."""
        from repro.sim.columnar import _STRIP_CELLS

        slots, subs = 20, 2
        per_strip = _STRIP_CELLS // (slots * subs)
        trials = 2 * per_strip + 3  # three strips, last short
        plane = mission_streams(4, trials, 2.0, slots=slots, subs=subs)
        for trial in (0, per_strip - 1, per_strip, trials - 1):
            alone = mission_streams(
                4, 1, 2.0, slots=slots, subs=subs, start=trial
            )
            assert (plane.uniforms[trial] == alone.uniforms[0]).all()
            assert (plane.exponentials[trial] == alone.exponentials[0]).all()

    def test_cursor_rejects_foreign_rate(self):
        streams = mission_streams(0, 1, 0.5)
        with pytest.raises(SimulationError):
            streams.cursor(0).expovariate(0.25, 0)

    def test_randrange_stays_in_bounds(self):
        streams = mission_streams(11, 1, 1.0)
        cursor = streams.cursor(0)
        assert all(0 <= cursor.randrange(3) < 3 for _ in range(100))

    def test_validation(self):
        with pytest.raises(SimulationError):
            TrialStreams(np.empty((0, 1), dtype=np.uint64), 1.0)
        with pytest.raises(SimulationError):
            TrialStreams(lanes(0, MISSION, 0, 1, 1), 0.0)


class TestLifecycleTables:
    def test_columns_match_the_timer(self, fano_layout):
        timer = RebuildTimer(fano_layout, DISK)
        tables = LifecycleTables.build(fano_layout, timer)
        for disk in range(fano_layout.n_disks):
            hours, read = timer(frozenset((disk,)))
            assert tables.hours[disk] == hours
            assert tables.bytes_read[disk] == read


class TestSharedSamplers:
    def test_montecarlo_reexports_the_moved_machinery(self):
        from repro.sim import columnar, montecarlo

        assert montecarlo._sample_lifetime_events is columnar.sample_renewal_events
        assert montecarlo._exceedances is columnar.exceedances


class TestLockstepScreen:
    """The one shared screen, checked against the exact event walk."""

    MTTF, HORIZON, SEED, TRIALS = 800.0, 3000.0, 5, 200

    @pytest.mark.parametrize("lse_mean", [0.0, 0.2])
    def test_flags_and_counts_agree_with_the_event_walk(
        self, fano_layout, lse_mean
    ):
        """Same seed, same lanes: the screen's dangerous set is exactly the
        trials whose walk overlaps two failures or draws an LSE strike, and
        for every other trial its failure/repair/peak counts are the walk's."""
        timer = RebuildTimer(fano_layout, DISK)
        tables = LifecycleTables.build(fano_layout, timer)
        lse_rate = lse_mean / float(tables.bytes_read.max())
        tolerance = guaranteed_tolerance(fano_layout)
        lambd = 1.0 / self.MTTF
        screen = LockstepScreen(
            fano_layout, tables,
            lanes(self.SEED, MISSION, 0, self.TRIALS, fano_layout.n_disks + 1),
            lambd, self.HORIZON, lse_rate, tolerance,
        )
        screen.rounds()

        overlapped = struck = 0
        for trial in range(self.TRIALS):
            log = []
            _lost, _lse, failures, repairs, _hours, peak = _lifecycle_trial(
                screen.streams.cursor(trial), fano_layout, lambd,
                self.HORIZON, timer, lse_rate, log,
            )
            strikes = sum(row[2] for row in log if row[0] == "lse_check")
            overlapped += peak >= 2
            struck += strikes > 0
            assert bool(screen.dangerous[trial]) == (peak >= 2 or strikes > 0)
            if not screen.dangerous[trial]:
                assert screen.n_failures[trial] == failures
                assert screen.n_repairs[trial] == repairs
                assert screen.peak[trial] == peak
        # the config exercises both screen outcomes and both danger causes
        assert 0 < overlapped < self.TRIALS
        assert (struck > 0) == (lse_mean > 0)

    def test_a_long_walk_leaves_the_shared_plane_alone(self, fano_layout):
        """A walked trial that outruns the plane (~5 000 incidents against
        the screen's one-slot plane) extends its own rows: the plane every
        other trial of the chunk shares stays as wide as the screen left it."""
        mttf, horizon, trials = 300.0, 75_000.0, 8
        # A 1 GiB disk rebuilds in seconds, so the mission survives.
        timer = RebuildTimer(fano_layout, DiskModel(capacity_bytes=GIB))
        tables = LifecycleTables.build(fano_layout, timer)
        tolerance = guaranteed_tolerance(fano_layout)
        screen = LockstepScreen(
            fano_layout, tables,
            lanes(0, MISSION, 0, trials, fano_layout.n_disks + 1),
            1.0 / mttf, horizon, 0.0, tolerance,
        )
        screen.rounds()
        shape = screen.streams.exponentials.shape
        lost, _lse, failures, _repairs, _hours, _peak = _lifecycle_trial(
            screen.streams.cursor(0), fano_layout, 1.0 / mttf, horizon,
            timer, 0.0,
        )
        assert lost is None and failures > 5000
        assert screen.streams.exponentials.shape == shape

    @pytest.mark.parametrize("lse_mean", [0.0, 0.2])
    def test_tallied_incidents_are_the_walks_rows(self, fano_layout, lse_mean):
        """For every trial the screen settles, its tallied incidents are
        the walk's logged rows bit for bit: failure and repair start at
        the failure, then (unless the horizon cuts the rebuild) the clean
        latent-error check and the completion."""
        # Fewer failures per trial than the class's: most trials settle,
        # a dozen or so with a rebuild the horizon cuts.
        mttf, horizon, trials = 1500.0, 1000.0, 600
        timer = RebuildTimer(fano_layout, DISK)
        tables = LifecycleTables.build(fano_layout, timer)
        lse_rate = lse_mean / float(tables.bytes_read.max())
        tolerance = guaranteed_tolerance(fano_layout)
        lambd = 1.0 / mttf
        screen = LockstepScreen(
            fano_layout, tables,
            lanes(self.SEED, MISSION, 0, trials, fano_layout.n_disks + 1),
            lambd, horizon, lse_rate, tolerance, tally=True,
        )
        screen.rounds()
        trial, failed_at, disk, repaired_at = (
            np.concatenate(column) for column in zip(*screen.tally)
        )
        settled = truncated = 0
        for t in np.flatnonzero(~screen.dangerous).tolist():
            log = []
            _lifecycle_trial(
                screen.streams.cursor(t), fano_layout, lambd, horizon,
                timer, lse_rate, log,
            )
            rows = []
            for i in np.flatnonzero(trial == t).tolist():
                d = int(disk[i])
                rows += [
                    ("failure", failed_at[i], d, 1),
                    ("repair_start", failed_at[i], 1, tables.hours[d]),
                ]
                if math.isnan(repaired_at[i]):
                    truncated += 1
                    continue
                if lse_rate:
                    rows.append(("lse_check", repaired_at[i], 0))
                rows.append(("repair_complete", repaired_at[i], 1))
            assert rows == log, t
            settled += 1
        assert 0 < settled < trials and truncated > 0


@pytest.mark.parametrize("lambd", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_trial_streams_reject_a_non_finite_or_non_positive_rate(lambd):
    """NaN would give NaN lifetimes and +inf all-zero ones: both raise,
    as the mission checks do."""
    with pytest.raises(SimulationError, match="lambd must be finite and > 0"):
        TrialStreams(lanes(0, MISSION, 0, 4, 2), lambd, 2)


def test_the_hash_never_writes_into_its_callers_arrays():
    """``_mix64_np`` and ``_uniforms`` work in place on their own
    temporaries: the lane values and slot numbers they are handed —
    ``streams.lanes`` itself — come back as they went in."""
    from repro.sim.columnar import _mix64_np, _uniforms

    streams = mission_streams(3, 50, 0.5, slots=4, subs=3)
    before = streams.lanes.copy()
    slots = np.arange(5, dtype=np.uint64)
    mixed = _mix64_np(streams.lanes)
    assert mixed is not streams.lanes
    _uniforms(streams.lanes[..., None], slots)
    _uniforms(streams.lanes[:, 0], slots[:1])
    streams.draw(slice(None), 4, 9)
    np.testing.assert_array_equal(streams.lanes, before)
    np.testing.assert_array_equal(slots, np.arange(5, dtype=np.uint64))
    assert [int(v) for v in mixed.ravel()] == [
        mix64(int(v)) for v in before.ravel()
    ]
