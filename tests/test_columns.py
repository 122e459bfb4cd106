"""Sample columns: tuple manners, pinned statistics, and the sweep's sorts.

A per-sample field of a registered result is a
:class:`repro.results.Column` — one numpy array from the kernel to the
digest. These tests hold it to the tuple it replaced (equality, ``+``,
slices, scalars, hashing, pickling), to the pure-Python statistics a
``summary()`` reported before (every value ``==`` a reference computed
from ``list(column)``), to the traps a first cut fell into (iteration
that materialises every element, ints widening to floats, ``null``
handling), and pin the sort identities ``_sweep_batch`` relies on.
"""

import dataclasses
import functools
import json
import math
import operator
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest

from repro import results
from repro.core.oi_layout import oi_raid
from repro.layouts import Raid5Layout, Raid6Layout
from repro.results import Column, result_from_dict
from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import LifecycleResult, simulate_lifecycle
from repro.sim.montecarlo import LifetimeResult, simulate_lifetimes
from repro.sim.rebuild import DiskModel
from repro.sim.serve import FixedRateThrottle, ServeResult, simulate_serve
from repro.util.stats import percentile
from repro.util.units import GIB
from repro.workloads import WorkloadSpec

LAYOUT = oi_raid(7, 3)
#: Hours-long rebuild windows: losses are common at test scale.
SLOW_DISK = DiskModel(capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024)


def fold(values):
    """The left-to-right double sum every interpreter agrees on."""
    return functools.reduce(operator.add, values, 0.0)


@pytest.fixture(scope="module")
def serve_result() -> ServeResult:
    return simulate_serve(
        LAYOUT, WorkloadSpec(n_requests=300), failed_disks=(0,),
        throttle=FixedRateThrottle(200.0), trials=6, seed=0,
    )


@pytest.fixture(scope="module")
def lifecycle_result() -> LifecycleResult:
    return simulate_lifecycle(
        Raid5Layout(5), 600.0, 2500.0, disk=SLOW_DISK, trials=120, seed=0,
        lse_rate_per_byte=1e-13,
    )


@pytest.fixture(scope="module")
def lifetime_result() -> LifetimeResult:
    return simulate_lifetimes(
        Raid6Layout(21), 2000.0, 40.0, 4000.0, trials=600, seed=0
    )


class TestTupleManners:
    def test_equality_with_tuples_and_columns_both_ways(self):
        col = Column((1.5, 2.0, 3.25))
        assert col == (1.5, 2.0, 3.25) and (1.5, 2.0, 3.25) == col
        assert col == Column([1.5, 2.0, 3.25])
        assert col != (1.5, 2.0) and (1.5, 2.0, 3.0) != col
        assert col != Column((1.5, 2.0, 3.0))
        assert Column((1, 2)) == (1.0, 2.0)  # as (1, 2) == (1.0, 2.0)
        assert col != [1.5, 2.0, 3.25]  # a tuple is not a list either
        assert col != ("a", "b", "c") and col != 7

    def test_concatenation(self):
        col = Column((1.0, 2.0))
        assert col + (3.0,) == (1.0, 2.0, 3.0)
        assert isinstance(col + col, Column) and len(col + col) == 4
        assert col + () == col and Column() + col == col
        with pytest.raises(TypeError):
            col + 3.0

    def test_slices_are_columns_and_items_are_python_scalars(self):
        floats, ints = Column((1.0, 2.0, 3.0)), Column((1, 2, 3))
        assert floats[1:] == (2.0, 3.0) and isinstance(floats[1:], Column)
        assert type(floats[0]) is float and type(ints[-1]) is int
        assert [type(x) for x in ints] == [int] * 3
        assert [type(x) for x in floats] == [float] * 3
        with pytest.raises(IndexError):
            floats[3]

    def test_construction(self):
        assert len(Column()) == 0 and Column(()) == () and not Column(())
        assert Column((1, 2)).to_list() == [1, 2]
        assert Column((1, 2.5)).to_list() == [1.0, 2.5]
        assert Column(np.arange(3)) == (0, 1, 2)
        again = Column((1.0,))
        assert Column(again) == again
        with pytest.raises(TypeError, match="one-dimensional"):
            Column(5.0)

    def test_equal_columns_hash_equal(self):
        a, b = Column((1.0, 2.0)), Column(np.array([1.0, 2.0]))
        assert hash(a) == hash(b) == hash((1.0, 2.0))
        assert hash(Column((1, 2))) == hash(Column((1.0, 2.0)))

    def test_pickle_round_trip_drops_nothing_but_the_sort_cache(self):
        col = Column((3.0, 1.0, 2.0))
        col.percentile(50)
        clone = pickle.loads(pickle.dumps(col))
        assert clone == col and clone._ordered is None
        assert not clone._array.flags.writeable

    def test_buffer_is_read_only_and_handed_over_uncopied(self):
        computed = np.array([1.0, 2.0])
        col = Column(computed)
        assert np.shares_memory(col._array, computed)
        with pytest.raises(ValueError, match="read-only"):
            computed[0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            col._array[0] = 9.0
        with pytest.raises(TypeError):
            col[0] = 9.0

    def test_results_coerce_plain_tuples(self):
        result = LifetimeResult(
            trials=3, losses=2, loss_times=(5.0, 7.0), horizon_hours=10.0
        )
        assert isinstance(result.loss_times, Column)
        assert result.loss_times == (5.0, 7.0)
        assert result == dataclasses.replace(result, loss_times=[5.0, 7.0])
        assert hash(result) == hash(pickle.loads(pickle.dumps(result)))

    def test_merged_keeps_int_columns_int_past_an_empty_part(self):
        def part(failures):
            return LifecycleResult(
                trials=len(failures), losses=0, loss_times=(), lse_losses=0,
                horizon_hours=1.0, failures_per_trial=failures,
                repairs_per_trial=failures, degraded_hours_per_trial=(),
                peak_failures_per_trial=failures,
            )

        merged = LifecycleResult.merged([part((1, 2)), part(()), part((3,))])
        assert merged.to_dict()["failures_per_trial"] == [1, 2, 3]
        assert all(type(x) is int for x in merged.failures_per_trial)


class TestSummariesMatchThePurePythonReference:
    """Every ``summary()`` value ``==`` what ``list(column)`` gives."""

    def test_serve(self, serve_result):
        r = serve_result
        latencies = list(r.latencies_ms)
        rebuilds = list(r.rebuild_seconds_per_trial)
        assert len(latencies) == r.requests and len(rebuilds) == r.trials
        assert r.summary() == {
            "trials": r.trials,
            "requests": r.requests,
            "mean_ms": fold(latencies) / len(latencies),
            "p50_ms": percentile(latencies, 50),
            "p95_ms": percentile(latencies, 95),
            "p99_ms": percentile(latencies, 99),
            "degraded_fraction":
                (r.degraded_reads + r.degraded_writes) / r.requests,
            "read_amplification": r.device_reads / r.reads,
            "rebuild_seconds": fold(rebuilds) / len(rebuilds),
            "rebuild_complete": True,
        }
        assert r.max_ms == max(latencies)

    def test_mean_is_the_left_fold_on_every_interpreter(self, serve_result):
        """``sum`` is Neumaier-compensated from CPython 3.12 on; the
        reported mean is the plain double fold 3.9–3.11 computed."""
        values = list(serve_result.latencies_ms)
        assert serve_result.mean_ms == (
            functools.reduce(operator.add, values, 0.0) / len(values)
        )

    def test_lifecycle(self, lifecycle_result):
        r = lifecycle_result
        assert r.losses > 0 and r.losses == len(r.loss_times)
        exposure = (
            fold(list(r.loss_times)) + (r.trials - r.losses) * r.horizon_hours
        )
        degraded = list(r.degraded_hours_per_trial)
        assert r.summary() == {
            "trials": r.trials,
            "losses": r.losses,
            "lse_losses": r.lse_losses,
            "prob_loss": r.losses / r.trials,
            "mttdl_estimate_hours": exposure / r.losses,
            "mean_failures": sum(list(r.failures_per_trial)) / r.trials,
            "mean_repairs": sum(list(r.repairs_per_trial)) / r.trials,
            "degraded_fraction": fold(degraded) / r.trials / r.horizon_hours,
            "max_peak_failures": max(list(r.peak_failures_per_trial)),
        }
        assert type(r.max_peak_failures) is int

    def test_lifetimes(self, lifetime_result):
        r = lifetime_result
        assert r.losses > 0
        exposure = (
            fold(list(r.loss_times)) + (r.trials - r.losses) * r.horizon_hours
        )
        assert r.summary() == {
            "trials": r.trials,
            "losses": r.losses,
            "prob_loss": r.losses / r.trials,
            "mttdl_estimate_hours": exposure / r.losses,
            "horizon_hours": r.horizon_hours,
        }

    def test_no_losses_is_a_censored_estimate(self):
        result = LifetimeResult(
            trials=3, losses=0, loss_times=(), horizon_hours=10.0
        )
        assert result.mttdl_estimate_hours == math.inf
        assert result.loss_times.sum() == 0

    def test_fleet_counts_survive_the_chunk_columns(self):
        """Fleet's per-array counters stay tuples of ints; only the chunk
        accumulators they are scattered from ride as columns."""
        run = functools.partial(
            simulate_fleet, Raid5Layout(5), 600.0, 2500.0, disk=SLOW_DISK,
            arrays=3, trials=40, seed=0,
        )
        fleet = run(chunk_missions=32)
        assert isinstance(fleet.failures_per_array, tuple)
        assert all(type(x) is int for x in fleet.failures_per_array)
        assert sum(fleet.failures_per_array) > 0
        whole = run(chunk_missions=120)  # one chunk: nothing scattered
        assert fleet.failures_per_array == whole.failures_per_array
        assert fleet.repairs_per_array == whole.repairs_per_array

    @pytest.mark.parametrize("values", [
        (3.0,),
        (1, 2, 3, 4),
        (5e-324, 1e-323, 1.5e-323),  # near-equal subnormals: the clamp case
        tuple(np.random.default_rng(7).normal(size=257).tolist()),
        tuple(np.random.default_rng(8).integers(0, 5, size=100).tolist()),
    ])
    def test_percentile_keeps_the_interpolation_and_the_clamp(self, values):
        col = Column(values)
        for q in (0, 0.1, 12.5, 50, 95, 99, 99.9, 100):
            got, want = col.percentile(q), percentile(list(values), q)
            assert got == want and type(got) is type(want)
        for bad in (-1, 100.5):
            with pytest.raises(ValueError, match="q must be"):
                col.percentile(bad)

    def test_empty_column_statistics_raise_like_the_helpers(self):
        with pytest.raises(ValueError, match="mean of empty"):
            Column().mean()
        with pytest.raises(ValueError, match="percentile of empty"):
            Column().percentile(50)
        with pytest.raises(ValueError):
            max(Column())


class TestDocuments:
    def test_int_columns_stay_ints_through_to_dict(self, lifecycle_result):
        doc = lifecycle_result.to_dict()
        for name in (
            "failures_per_trial", "repairs_per_trial", "peak_failures_per_trial"
        ):
            assert doc[name] and all(type(x) is int for x in doc[name]), name
        assert all(type(x) is float for x in doc["degraded_hours_per_trial"])
        assert "3.0" not in json.dumps(doc["failures_per_trial"])

    def test_round_trip_through_json(self, serve_result, lifecycle_result,
                                     lifetime_result):
        for result in (serve_result, lifecycle_result, lifetime_result):
            doc = json.loads(json.dumps(result.to_dict(), allow_nan=False))
            assert result_from_dict(doc) == result
            assert result_from_dict(doc).to_dict() == result.to_dict()

    def test_non_finite_entries_write_null_and_load_nan(self):
        result = LifetimeResult(
            trials=4, losses=3, loss_times=(1.0, math.inf, math.nan),
            horizon_hours=10.0,
        )
        doc = json.loads(json.dumps(result.to_dict(), allow_nan=False))
        assert doc["loss_times"] == [1.0, None, None]
        loaded = result_from_dict(doc).loss_times
        assert loaded[0] == 1.0 and math.isnan(loaded[1]) and math.isnan(loaded[2])

    def test_all_finite_columns_are_listed_without_a_python_walk(
        self, serve_result, monkeypatch
    ):
        """``to_dict()`` may test scalars one by one, never a column's
        elements: on finite data the list is numpy's ``tolist()``."""
        calls = []

        class CountingMath:
            @staticmethod
            def isfinite(x):
                calls.append(x)
                return math.isfinite(x)

        monkeypatch.setattr(results, "math", CountingMath)
        doc = serve_result.to_dict()
        assert len(doc["latencies_ms"]) == serve_result.requests
        assert len(calls) <= len(dataclasses.fields(serve_result))

    def test_iteration_streams(self):
        """``benchmarks/e2e`` fingerprints a result with ``array("d", field)``
        inside the process whose peak RSS it reports: iterating a column
        must never hold every element as a Python object."""
        col = Column(np.random.default_rng(0).random(1_000_000))
        tracemalloc.start()
        try:
            packed = array("d", col)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.tobytes() == col._array.tobytes()
        assert peak < col._array.nbytes + 4 * 1024 * 1024, peak


class TestSweepSorts:
    """The identities that let ``_sweep_batch`` drop its comparison sorts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_trial_stable_argsort_is_the_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 40)), int(rng.integers(1, 300))
        # Few distinct values: exact ties within and across trials.
        completion = rng.integers(0, max(2, n // 4), size=k * n) / 8.0
        rows = np.argsort(completion.reshape(k, n), axis=1, kind="stable")
        rows += np.arange(0, k * n, n)[:, None]
        assert np.array_equal(
            rows.ravel(),
            np.lexsort((completion, np.repeat(np.arange(k), n))),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uint16_stable_argsort_is_the_int64_one(self, seed):
        rng = np.random.default_rng(seed)
        lane_ids = rng.integers(0, 1 << 16, size=50_000)
        assert np.array_equal(
            np.argsort(lane_ids.astype(np.uint16), kind="stable"),
            np.argsort(lane_ids, kind="stable"),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uint8_stable_argsort_is_the_int64_one(self, seed):
        """The sweep's key is the survivor index, uint8 up to 256 disks."""
        rng = np.random.default_rng(seed)
        disks = rng.integers(0, 1 << 8, size=50_000)
        assert np.array_equal(
            np.argsort(disks.astype(np.uint8), kind="stable"),
            np.argsort(disks, kind="stable"),
        )

    def test_chunks_too_wide_for_16_bit_lanes_fall_back_bit_for_bit(self):
        """3 400 trials x 20 survivors > 65 536 queue lanes: the sweep
        sorts by survivor index, not queue lane, so one chunk that wide
        and sixteen-trial chunks group the same legs."""
        survivors = LAYOUT.n_disks - 1
        trials = (1 << 16) // survivors + 120
        run = functools.partial(
            simulate_serve, LAYOUT, WorkloadSpec(n_requests=6),
            failed_disks=(0,), trials=trials, seed=3,
        )
        wide, narrow = run(chunk_trials=trials), run(chunk_trials=16)
        assert trials * survivors > 1 << 16
        assert wide == narrow
        assert wide.latencies_ms == run(chunk_trials=16, kernel="event").latencies_ms
