"""The lifetime kernels: one sampled plane, two ways to replay it.

Mirror of ``test_lifecycle_vectorized.py`` / ``test_serve_vectorized.py``
for the Monte-Carlo lifetime simulator: both kernels replay the plane
``sample_renewal_events`` draws, so ``kernel=`` (and ``jobs``) may change
wall clock only — never a bit of :class:`LifetimeResult` or its merged
telemetry. The plane itself is checked against the independent heap walk
in ``reference_lifetimes.py``, and the telemetry narrated from it against
the per-event walk kept there.
"""

from functools import partial

import numpy as np
import pytest

import repro.sim.montecarlo as montecarlo
from repro.core.oi_layout import oi_raid
from repro.layouts import Raid5Layout
from repro.layouts.recovery import is_recoverable
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.sim.columnar import ChunkSpec, derive_chunk_seed, sample_renewal_events
from repro.sim.montecarlo import _lifetime_chunk, simulate_lifetimes
from repro.sim.parallel import DEFAULT_CHUNK_TRIALS
from tests.sim.reference_lifetimes import (
    heap_walk_lifetimes,
    walk_chunks,
    walk_plane,
)

#: 21 disks at accelerated rates: a few percent of trials outgrow a
#: tolerance of 3, most outgrow a tolerance of 1.
RATES = dict(mttf_hours=2000.0, mttr_hours=40.0)
HORIZON = 4000.0


def layouts(layout):
    """RAID5's peel loses every pair, as a failure-count threshold of 1."""
    return {"threshold": Raid5Layout(21), "layout": layout}


def reference(layout, mttf, mttr, horizon):
    """The reference walks' ``(n_disks, mttf, mttr, oracle, horizon)``."""
    return layout.n_disks, mttf, mttr, partial(is_recoverable, layout), horizon


def narrated_configs(layout):
    """``(layout, mttf, mttr, horizon)`` per layout kind."""
    return {
        "threshold": (Raid5Layout(21), *RATES.values(), HORIZON),
        "layout": (layout, 1000.0, 60.0, 3000.0),
    }


def both_kernels(*args, **kwargs):
    return [
        simulate_lifetimes(*args, kernel=kernel, **kwargs).to_dict()
        for kernel in ("event", "vectorized")
    ]


class TestKernelBitIdentity:
    @pytest.mark.parametrize("name", ["threshold", "layout"])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_result_metrics_and_events_identical(
        self, fano_layout, name, seed, jobs
    ):
        layout = layouts(fano_layout)[name]
        plain, collected = {}, {}

        def run(kernel, telemetry=None):
            return simulate_lifetimes(
                layout, RATES["mttf_hours"], RATES["mttr_hours"], HORIZON,
                trials=600, seed=seed, jobs=jobs, kernel=kernel,
                telemetry=telemetry,
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
        profiles = {}
        for kernel in ("event", "vectorized"):
            prof = Telemetry(enabled=False, profiling=True)
            with use_telemetry(prof):
                simulate_lifetimes(
                    fano_layout, horizon_hours=HORIZON, trials=400,
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

    @pytest.mark.parametrize("name", ["threshold", "layout"])
    @pytest.mark.parametrize("kernel", ["event", "vectorized"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_the_walk(self, fano_layout, name, kernel, jobs):
        config = narrated_configs(fano_layout)[name]
        walked = Telemetry()
        # 300 trials are two chunks, so jobs=2 goes through the pool.
        loss_times = walk_chunks(
            *reference(*config), trials=300, seed=29, chunk_trials=DEFAULT_CHUNK_TRIALS,
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
        layout, mttf, mttr, horizon = narrated_configs(fano_layout)["layout"]
        oracle = partial(is_recoverable, layout)
        spec = ChunkSpec(0, 0, DEFAULT_CHUNK_TRIALS, 29)
        plane = sample_renewal_events(
            np.random.default_rng(derive_chunk_seed(spec.seed, spec.index)),
            layout.n_disks, mttf, mttr, horizon, spec.size,
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
            (layout, {}), spec, narrated, screened=screened,
            mttf_hours=mttf, mttr_hours=mttr, horizon_hours=horizon,
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
    """The screened replay asks the layout's peel at each trial's frontier."""

    def test_more_than_64_disks(self):
        """Failed sets span two mask words on a 93-disk array."""
        layout = oi_raid(31, 3)
        assert layout.n_disks > 64
        event, vectorized = both_kernels(
            layout, 1000.0, 40.0, 800.0, trials=100, seed=0
        )
        assert 0.1 < event["losses"] / 100 < 0.9, "config is not informative"
        assert event == vectorized

    def test_no_failed_set_is_peeled_twice(self, fano_layout, monkeypatch):
        peeled = []
        recoverable_many = montecarlo.recoverable_many

        def counting(layout, down):
            peeled.extend(tuple(row.nonzero()[0].tolist()) for row in down)
            return recoverable_many(layout, down)

        monkeypatch.setattr(montecarlo, "recoverable_many", counting)
        prof = Telemetry(enabled=False, profiling=True)
        with use_telemetry(prof):
            simulate_lifetimes(
                fano_layout, horizon_hours=HORIZON, trials=2000, seed=0,
                kernel="vectorized", **RATES,
            )
        assert peeled, "no trial reached the peel"
        assert len(set(peeled)) == len(peeled)
        assert prof.counters["mc.oracle_calls"] == len(peeled)


class TestSampledPlaneAgainstHeapWalk:
    """``sample_renewal_events`` is the alternating renewal process.

    The block sampler and the one-arrival-at-a-time heap walk draw
    different streams, so they are compared as populations: their loss
    probabilities' z = 3.5 Wilson intervals must overlap.
    """

    @pytest.mark.parametrize("config", ["raid5_like", "oi_layout"])
    def test_loss_probability_overlaps(self, fano_layout, config):
        args = {
            "raid5_like": (Raid5Layout(8), 2000.0, 40.0, 2000.0),
            "oi_layout": (fano_layout, 1000.0, 60.0, 3000.0),
        }[config]
        walked = heap_walk_lifetimes(*reference(*args), trials=1500, seed=0)
        sampled = simulate_lifetimes(*args, trials=1500, seed=0)
        assert 0.1 < walked.prob_loss < 0.9, "config is not informative"
        lo_r, hi_r = walked.prob_loss_interval(z=3.5)
        lo_s, hi_s = sampled.prob_loss_interval(z=3.5)
        assert max(lo_r, lo_s) <= min(hi_r, hi_s)
