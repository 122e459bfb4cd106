"""The shared columnar core: draw lanes, the lockstep screen, moved samplers."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.columnar import (
    GOLDEN_STRIDE,
    LANE_BLOCK_TRIALS,
    LifecycleTables,
    LockstepScreen,
    TrialStreams,
    block_lane_seeds,
    derive_chunk_seed,
    lane_seed,
    mix64,
    oracle_guarantee,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.lifecycle import (
    RebuildTimer,
    _lifecycle_trial,
    _pattern_check,
    _slot_estimate,
    guaranteed_tolerance,
)
from repro.sim.montecarlo import ThresholdOracle, recoverability_oracle
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB

DISK = DiskModel(capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)


def scalar_uniform(seed: int, trial: int, pos: int) -> float:
    """Slot *pos* of global lane *trial*, from the scalar mixing formula."""
    return (
        mix64(lane_seed(seed, trial) + (pos + 1) * GOLDEN_STRIDE) >> 11
    ) * 2.0**-53


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
    """Lifecycle lanes: keyed by global trial in frozen 256-trial blocks."""

    def test_block_size_is_frozen(self):
        # Part of the sample, not a tuning knob: changing it moves every
        # lifecycle result with more than 256 trials.
        assert LANE_BLOCK_TRIALS == 256

    @pytest.mark.parametrize("seed", [-1, 2**70 + 3, 0, 2**63 - 1, 12345])
    @pytest.mark.parametrize("start", [0, 1, 255, 256, 257, 511, 1000, 2**20 - 3])
    def test_vectorized_lanes_equal_the_scalar_reference(self, seed, start):
        """Trial T reads the lane a 256-trial chunk ``T // 256`` has always
        given its local trial ``T % 256`` — across block edges, for seeds
        outside the 64-bit range and in any window."""
        got = block_lane_seeds(seed, start, 600)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [
            lane_seed(derive_chunk_seed(seed, t // 256), t % 256)
            for t in range(start, start + 600)
        ]

    def test_first_block_is_the_plain_seeded_plane(self):
        """Block 0's chunk seed is the run seed itself, so the first 256
        lanes are exactly fleet's globally keyed ones."""
        blocks = TrialStreams(
            9, 256, 1.0, slots=8, lane_seeds=block_lane_seeds(9, 0, 256)
        )
        plain = TrialStreams(9, 256, 1.0, slots=8)
        assert (blocks.uniforms == plain.uniforms).all()


class TestTrialStreams:
    def test_python_and_numpy_uniforms_bit_identical(self):
        streams = TrialStreams(seed=42, trials=5, lambd=0.5, slots=16)
        for trial in range(5):
            for pos in range(16):
                assert streams.uniform(trial, pos) == scalar_uniform(
                    42, trial, pos
                )

    def test_growth_is_invisible(self):
        small = TrialStreams(seed=7, trials=3, lambd=1.0, slots=4)
        big = TrialStreams(seed=7, trials=3, lambd=1.0, slots=64)
        small.ensure(64)
        assert (small.uniforms == big.uniforms[:, : small.slots]).all()
        assert (small.exponentials == big.exponentials[:, : small.slots]).all()

    def test_lanes_keyed_by_trial_counter(self):
        streams = TrialStreams(seed=9, trials=2, lambd=1.0, slots=2)
        assert streams.uniform(1, 1) == scalar_uniform(9, 1, 1)

    def test_lane_offset_windows_the_global_lane_space(self):
        """``lane_offset=m`` is rows m..m+k-1 of the unoffset plane —
        the keystone of the fleet kernel's chunk-invariant sampling."""
        full = TrialStreams(seed=13, trials=10, lambd=0.25, slots=8)
        window = TrialStreams(
            seed=13, trials=4, lambd=0.25, slots=8, lane_offset=3
        )
        assert (window.uniforms == full.uniforms[3:7]).all()
        assert (window.exponentials == full.exponentials[3:7]).all()

    def test_lane_offset_pure_python_agrees(self):
        window = TrialStreams(
            seed=13, trials=4, lambd=0.25, slots=8, lane_offset=3
        )
        for trial in range(4):
            for pos in range(8):
                assert window.uniform(trial, pos) == scalar_uniform(
                    13, 3 + trial, pos
                )

    def test_lane_offset_validation(self):
        with pytest.raises(SimulationError):
            TrialStreams(seed=1, trials=2, lambd=1.0, lane_offset=-1)

    def test_cursor_walks_the_plane_in_order(self):
        streams = TrialStreams(seed=3, trials=2, lambd=0.25, slots=8)
        cursor = streams.cursor(1)
        assert cursor.random() == streams.uniform(1, 0)
        assert cursor.expovariate(0.25) == streams.exponential(1, 1)
        assert cursor.pos == 2

    def test_cursor_grows_past_the_plane(self):
        streams = TrialStreams(seed=3, trials=1, lambd=1.0, slots=2)
        cursor = streams.cursor(0)
        draws = [cursor.random() for _ in range(40)]
        assert draws == [scalar_uniform(3, 0, pos) for pos in range(40)]

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 63, 64, 65, 300])
    def test_cursor_extends_its_own_row_with_the_planes_floats(self, size):
        """A row extended alone equals the same row of a plane grown whole,
        on both planes, wherever the shared plane stopped."""
        whole = TrialStreams(seed=21, trials=4, lambd=0.25, slots=2 * size + 16)
        shared = TrialStreams(seed=21, trials=4, lambd=0.25, slots=size)
        width = shared.slots
        cursor = shared.cursor(2)
        reach = whole.slots
        drawn_u = [cursor.random() for _ in range(reach)]
        cursor.pos = 0
        drawn_e = [cursor.expovariate(0.25) for _ in range(reach)]
        assert drawn_u == whole.uniforms[2].tolist()
        assert drawn_e == whole.exponentials[2].tolist()
        assert shared.slots == width  # the cursor grew its row, not the plane

    def test_plane_sampled_in_strips_equals_rows_sampled_alone(self):
        """A plane wider than one row strip holds, row for row, the floats
        each lane yields by itself."""
        from repro.sim.columnar import _STRIP_CELLS

        slots = 40
        trials = 2 * (_STRIP_CELLS // slots) + 3  # three strips, last short
        plane = TrialStreams(seed=4, trials=trials, lambd=2.0, slots=slots)
        for trial in (0, _STRIP_CELLS // slots - 1, _STRIP_CELLS // slots,
                      trials - 1):
            alone = TrialStreams(
                seed=4, trials=1, lambd=2.0, slots=slots, lane_offset=trial
            )
            assert (plane.uniforms[trial] == alone.uniforms[0]).all()
            assert (plane.exponentials[trial] == alone.exponentials[0]).all()

    def test_cursor_rejects_foreign_rate(self):
        streams = TrialStreams(seed=0, trials=1, lambd=0.5)
        with pytest.raises(SimulationError):
            streams.cursor(0).expovariate(0.25)

    def test_randrange_stays_in_bounds(self):
        streams = TrialStreams(seed=11, trials=1, lambd=1.0)
        cursor = streams.cursor(0)
        assert all(0 <= cursor.randrange(3) < 3 for _ in range(100))

    def test_validation(self):
        with pytest.raises(SimulationError):
            TrialStreams(seed=0, trials=0, lambd=1.0)
        with pytest.raises(SimulationError):
            TrialStreams(seed=0, trials=1, lambd=0.0)


class TestLifecycleTables:
    def test_columns_match_the_timer(self, fano_layout):
        timer = RebuildTimer(fano_layout, DISK)
        tables = LifecycleTables.build(fano_layout, timer)
        for disk in range(fano_layout.n_disks):
            hours, read = timer(frozenset((disk,)))
            assert tables.hours[disk] == hours
            assert tables.bytes_read[disk] == read


class TestOracleGuarantee:
    def test_recoverability_oracle_declares_its_guarantee(self, fano_layout):
        oracle = recoverability_oracle(fano_layout, guaranteed_tolerance=3)
        assert oracle_guarantee(oracle) == 3

    def test_threshold_oracle_is_its_tolerance(self):
        assert oracle_guarantee(ThresholdOracle(2)) == 2

    def test_opaque_callables_get_zero(self):
        assert oracle_guarantee(lambda failed: True) == 0


class TestSharedSamplers:
    def test_montecarlo_reexports_the_moved_machinery(self):
        from repro.sim import columnar, montecarlo

        assert montecarlo._sample_lifetime_events is columnar.sample_renewal_events
        assert montecarlo._first_exceedances is columnar.first_exceedances
        assert montecarlo._oracle_guarantee is columnar.oracle_guarantee


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
            fano_layout, tables, self.SEED, self.TRIALS, lambd, self.HORIZON,
            lse_rate, tolerance,
            _slot_estimate(fano_layout.n_disks, self.MTTF, self.HORIZON),
        )
        for _round in screen.rounds():
            pass

        pattern_ok = _pattern_check(fano_layout, None, tolerance)
        overlapped = struck = 0
        for trial in range(self.TRIALS):
            tel = Telemetry.collecting()
            _lost, _lse, failures, repairs, _hours, peak = _lifecycle_trial(
                screen.streams.cursor(trial), fano_layout, lambd,
                self.HORIZON, timer, lse_rate, pattern_ok, tel, trial,
            )
            strikes = dict(tel.metrics.counters()).get(
                "lifecycle.lse_strikes", 0
            )
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
        a 40-slot plane) extends its own row: the plane every other trial
        of the chunk shares stays as wide as the screen left it."""
        mttf, horizon, trials = 300.0, 75_000.0, 8
        # A 1 GiB disk rebuilds in seconds, so the mission survives.
        timer = RebuildTimer(fano_layout, DiskModel(capacity_bytes=GIB))
        tables = LifecycleTables.build(fano_layout, timer)
        tolerance = guaranteed_tolerance(fano_layout)
        screen = LockstepScreen(
            fano_layout, tables, 0, trials, 1.0 / mttf, horizon, 0.0,
            tolerance, 40,
        )
        for _round in screen.rounds():
            pass
        width = screen.streams.slots
        lost, _lse, failures, _repairs, _hours, _peak = _lifecycle_trial(
            screen.streams.cursor(0), fano_layout, 1.0 / mttf, horizon,
            timer, 0.0, _pattern_check(fano_layout, None, tolerance),
            NULL_TELEMETRY, 0,
        )
        assert lost is None and failures > 5000
        assert screen.streams.slots == width
