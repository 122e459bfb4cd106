"""The lifetime kernels: one sampled plane, two ways to replay it.

Mirror of ``test_lifecycle_vectorized.py`` / ``test_serve_vectorized.py``
for the Monte-Carlo lifetime simulator: both kernels replay the plane
``sample_renewal_events`` draws, so ``kernel=`` (and ``jobs``) may change
wall clock only — never a bit of :class:`LifetimeResult` or its merged
telemetry. The plane itself is checked against the independent heap walk
in ``reference_lifetimes.py``, and the telemetry narrated from it against
the per-event walk kept there.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.oi_layout import oi_raid
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.sim.columnar import ChunkSpec, derive_chunk_seed, sample_renewal_events
from repro.sim.lifecycle import guaranteed_tolerance
from repro.sim.montecarlo import (
    _lifetime_chunk,
    recoverability_oracle,
    simulate_lifetimes,
    threshold_oracle,
)
from repro.sim.parallel import DEFAULT_CHUNK_TRIALS
from tests.sim.reference_lifetimes import (
    heap_walk_lifetimes,
    walk_chunks,
    walk_plane,
)

#: 21 disks at accelerated rates: a few percent of trials outgrow a
#: tolerance of 3, most outgrow a tolerance of 1.
RATES = dict(n_disks=21, mttf_hours=2000.0, mttr_hours=40.0)
HORIZON = 4000.0


def oracles(layout):
    return {
        "threshold": threshold_oracle(1),
        "layout": recoverability_oracle(layout, guaranteed_tolerance=3),
    }


def three_down_without_disk_zero(failed):
    """Not monotone: losing disk 0 as well as three others survives."""
    return not (len(failed) == 3 and 0 not in failed)


@dataclass(frozen=True)
class DeclaredThreeDownWithoutDiskZero:
    """The same rule, declaring that two failures always survive."""

    guaranteed_tolerance: int = 2

    def __call__(self, failed):
        return three_down_without_disk_zero(failed)


class CountingOracle:
    """Records every failed set it is asked about (in-process runs only)."""

    def __init__(self, inner):
        self.inner = inner
        self.guaranteed_tolerance = inner.guaranteed_tolerance
        self.asked = []

    def __call__(self, failed):
        self.asked.append(frozenset(failed))
        return self.inner(failed)


def narrated_configs(layout):
    """``(n_disks, mttf, mttr, oracle, horizon)`` per oracle kind."""
    six_disks = (6, 300.0, 200.0)
    return {
        "threshold": (*RATES.values(), threshold_oracle(1), HORIZON),
        "layout": (21, 1000.0, 60.0, recoverability_oracle(layout, 3), 3000.0),
        "declared": (
            *six_disks, DeclaredThreeDownWithoutDiskZero(), 1000.0,
        ),
        "opaque": (*six_disks, three_down_without_disk_zero, 1000.0),
    }


def both_kernels(*args, **kwargs):
    return [
        simulate_lifetimes(*args, kernel=kernel, **kwargs).to_dict()
        for kernel in ("event", "vectorized")
    ]


class TestKernelBitIdentity:
    @pytest.mark.parametrize("oracle_name", ["threshold", "layout"])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_result_metrics_and_events_identical(
        self, fano_layout, oracle_name, seed, jobs
    ):
        oracle = oracles(fano_layout)[oracle_name]
        plain, collected = {}, {}

        def run(kernel, telemetry=None):
            return simulate_lifetimes(
                RATES["n_disks"], RATES["mttf_hours"], RATES["mttr_hours"],
                oracle, HORIZON, trials=600, seed=seed, jobs=jobs,
                kernel=kernel, telemetry=telemetry,
            ).to_dict()

        for kernel in ("event", "vectorized"):
            tel = Telemetry()
            plain[kernel] = run(kernel)
            collected[kernel] = (run(kernel, tel), tel)
        assert plain["event"] == plain["vectorized"]
        ev_result, ev_tel = collected["event"]
        vec_result, vec_tel = collected["vectorized"]
        # Collecting never perturbs, and kernels agree while collecting.
        assert ev_result == vec_result == plain["event"]
        assert ev_tel.metrics.counters() == vec_tel.metrics.counters()
        ev_hists = {k: h.to_dict() for k, h in ev_tel.metrics.histograms()}
        vec_hists = {k: h.to_dict() for k, h in vec_tel.metrics.histograms()}
        assert ev_hists == vec_hists
        assert ev_tel.events.records == vec_tel.events.records
        assert ev_tel.events.records, "telemetry captured no events"


class TestTwoDifferentPaths:
    def test_event_walks_every_trial_vectorized_screens(self, fano_layout):
        """The identity above is not one kernel compared with itself:
        ``event`` has no screen, so every trial's every failure arrival
        is a candidate, and it peels more failed sets than the screen
        lets through."""
        oracle = oracles(fano_layout)["layout"]
        profiles = {}
        for kernel in ("event", "vectorized"):
            prof = Telemetry(enabled=False, profiling=True)
            with use_telemetry(prof):
                simulate_lifetimes(
                    oracle=oracle, horizon_hours=HORIZON, trials=400,
                    chunk_trials=400, seed=0, kernel=kernel, **RATES,
                )
            profiles[kernel] = prof
        event, vec = profiles["event"], profiles["vectorized"]
        assert "screen" not in event.phases
        assert event.counters["mc.replays"] == 400
        assert vec.phases["screen"][0] == 1
        assert 0 < vec.counters["mc.replays"] < 400
        assert event.counters["mc.oracle_calls"] > vec.counters["mc.oracle_calls"]


class TestNarratedTelemetry:
    """The registry, records and ``dropped`` narrated from the plane are
    the per-event walk's, bit for bit."""

    @pytest.mark.parametrize(
        "oracle_name", ["threshold", "layout", "declared", "opaque"]
    )
    @pytest.mark.parametrize("kernel", ["event", "vectorized"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_the_walk(self, fano_layout, oracle_name, kernel, jobs):
        config = narrated_configs(fano_layout)[oracle_name]
        walked = Telemetry()
        # 300 trials are two chunks, so jobs=2 goes through the pool.
        loss_times = walk_chunks(
            *config, trials=300, seed=29, chunk_trials=DEFAULT_CHUNK_TRIALS,
            telemetry=walked,
        )
        narrated = Telemetry()
        result = simulate_lifetimes(
            *config, trials=300, seed=29, kernel=kernel, jobs=jobs,
            telemetry=narrated,
        )
        assert loss_times, "no trial lost data"
        assert list(result.loss_times) == loss_times
        assert narrated.metrics.to_dict() == walked.metrics.to_dict()
        assert narrated.events.records == walked.events.records
        assert narrated.events.dropped == walked.events.dropped

    @pytest.mark.parametrize("screened", [True, False])
    def test_a_cap_between_a_failure_and_its_data_loss(
        self, fano_layout, screened
    ):
        n_disks, mttf, mttr, oracle, horizon = narrated_configs(
            fano_layout
        )["layout"]
        spec = ChunkSpec(0, 0, DEFAULT_CHUNK_TRIALS, 29)
        plane = sample_renewal_events(
            np.random.default_rng(derive_chunk_seed(spec.seed, spec.index)),
            n_disks, mttf, mttr, horizon, spec.size,
        )
        uncapped = Telemetry()
        walk_plane(*plane, oracle, uncapped)
        kinds = [record["kind"] for record in uncapped.events.records]
        cap = kinds.index("data_loss")
        assert kinds[cap - 1] == "failure"

        walked = Telemetry(max_events=cap)
        walk_plane(*plane, oracle, walked)
        narrated = Telemetry(max_events=cap)
        _lifetime_chunk(
            (oracle, {}), spec, narrated, screened=screened,
            n_disks=n_disks, mttf_hours=mttf, mttr_hours=mttr,
            horizon_hours=horizon,
        )
        assert narrated.events.records == walked.events.records
        assert narrated.events.records[-1]["kind"] == "failure"
        assert narrated.events.dropped == walked.events.dropped > 0
        assert narrated.metrics.to_dict() == walked.metrics.to_dict()
        assert all(
            type(value) in (str, int, float)
            for record in narrated.events.records
            for value in record.values()
        ), "records hold Python scalars"


class TestAnyDeterministicOracle:
    """The screened replay asks the oracle, it never assumes monotonicity."""

    @pytest.mark.parametrize(
        "oracle",
        [DeclaredThreeDownWithoutDiskZero(), three_down_without_disk_zero],
        ids=["declared", "opaque"],
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_monotone_oracle_kernels_agree(self, oracle, jobs):
        # 300 trials are two chunks, so jobs=2 goes through the pool.
        event, vectorized = both_kernels(
            6, 300.0, 200.0, oracle, 1000.0, trials=300, seed=0, jobs=jobs
        )
        assert 0 < event["losses"] < 300, "config is not informative"
        assert event == vectorized

    def test_more_than_64_disks(self):
        """Failed sets span two mask words on a 93-disk array."""
        layout = oi_raid(31, 3)
        assert layout.n_disks > 64
        oracle = recoverability_oracle(layout, guaranteed_tolerance(layout))
        event, vectorized = both_kernels(
            layout.n_disks, 1000.0, 40.0, oracle, 800.0, trials=100, seed=0
        )
        assert 0.1 < event["losses"] / 100 < 0.9, "config is not informative"
        assert event == vectorized

    def test_no_failed_set_is_peeled_twice(self, fano_layout):
        oracle = CountingOracle(recoverability_oracle(fano_layout, 3))
        prof = Telemetry(enabled=False, profiling=True)
        with use_telemetry(prof):
            simulate_lifetimes(
                oracle=oracle, horizon_hours=HORIZON, trials=2000, seed=0,
                kernel="vectorized", **RATES,
            )
        assert oracle.asked, "no trial reached the oracle"
        assert len(set(oracle.asked)) == len(oracle.asked)
        assert prof.counters["mc.oracle_calls"] == len(oracle.asked)


class TestSampledPlaneAgainstHeapWalk:
    """``sample_renewal_events`` is the alternating renewal process.

    The block sampler and the one-arrival-at-a-time heap walk draw
    different streams, so they are compared as populations: their loss
    probabilities' z = 3.5 Wilson intervals must overlap.
    """

    @pytest.mark.parametrize("config", ["raid5_like", "oi_layout"])
    def test_loss_probability_overlaps(self, fano_layout, config):
        args = {
            "raid5_like": (8, 2000.0, 40.0, threshold_oracle(1), 2000.0),
            "oi_layout": (
                21, 1000.0, 60.0,
                recoverability_oracle(fano_layout, guaranteed_tolerance=3),
                3000.0,
            ),
        }[config]
        reference = heap_walk_lifetimes(*args, trials=1500, seed=0)
        sampled = simulate_lifetimes(*args, trials=1500, seed=0)
        assert 0.1 < reference.prob_loss < 0.9, "config is not informative"
        lo_r, hi_r = reference.prob_loss_interval(z=3.5)
        lo_s, hi_s = sampled.prob_loss_interval(z=3.5)
        assert max(lo_r, lo_s) <= min(hi_r, hi_s)
