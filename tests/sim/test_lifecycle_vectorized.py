"""The vectorized lifecycle kernel: bit-identity, replay, kernel wiring."""

import pytest

np = pytest.importorskip("numpy")

from repro.core.oi_layout import oi_raid
from repro.errors import SimulationError
from repro.layouts import Raid5Layout, Raid50Layout
from repro.obs.ledger import result_digest
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.scenario import Scenario, run
from repro.sim.columnar import KERNELS, resolve_kernel
from repro.sim.lifecycle import (
    RebuildTimer,
    _plane_trials,
    _slot_estimate,
    guaranteed_tolerance,
    simulate_lifecycle,
)
from repro.sim.rebuild import DiskModel
from repro.util.units import GIB

# Same accelerated geometry as test_lifecycle: hours-long rebuild windows
# make overlapping failures (the replayed minority) common at test scale.
DISK = DiskModel(
    capacity_bytes=64 * GIB, bandwidth_bytes_per_s=2 * 1024 * 1024
)


def per_trial_records(result):
    """One comparable tuple per trial of a LifecycleResult."""
    return list(zip(
        result.failures_per_trial,
        result.repairs_per_trial,
        result.degraded_hours_per_trial,
        result.peak_failures_per_trial,
    ))


class TestKernelBitIdentity:
    """Both kernels consume one sampling plane: results are identical."""

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_full_result_identity_on_oi(self, fano_layout, seed):
        kwargs = dict(
            disk=DISK, trials=120, seed=seed, lse_rate_per_byte=1e-13
        )
        event = simulate_lifecycle(
            fano_layout, 600.0, 2500.0, kernel="event", **kwargs
        )
        vec = simulate_lifecycle(
            fano_layout, 600.0, 2500.0, kernel="vectorized", **kwargs
        )
        assert event.to_dict() == vec.to_dict()

    @pytest.mark.parametrize("layout_factory", [
        lambda: Raid5Layout(5), lambda: Raid50Layout(3, 3),
    ])
    def test_full_result_identity_on_flat_layouts(self, layout_factory):
        layout = layout_factory()
        event = simulate_lifecycle(
            layout, 900.0, 3000.0, disk=DISK, trials=100, seed=5,
            kernel="event",
        )
        vec = simulate_lifecycle(
            layout, 900.0, 3000.0, disk=DISK, trials=100, seed=5,
            kernel="vectorized",
        )
        assert event.to_dict() == vec.to_dict()

    def test_replayed_trials_are_bit_identical(self, fano_layout):
        """The dangerous minority goes through the exact event walk.

        With a guarantee >= 1 a trial is replayed iff a second failure
        lands inside a rebuild window, i.e. exactly the trials whose peak
        concurrent failures reach 2 — so comparing those trials' records
        pins the replay path specifically, not just the aggregate.
        """
        assert guaranteed_tolerance(fano_layout) >= 1
        kwargs = dict(disk=DISK, trials=200, seed=3)
        event = simulate_lifecycle(
            fano_layout, 500.0, 2500.0, kernel="event", **kwargs
        )
        vec = simulate_lifecycle(
            fano_layout, 500.0, 2500.0, kernel="vectorized", **kwargs
        )
        ev_records = per_trial_records(event)
        vec_records = per_trial_records(vec)
        replayed = [i for i, r in enumerate(vec_records) if r[3] >= 2]
        assert replayed, "config produced no dangerous trials to compare"
        for i in replayed:
            assert ev_records[i] == vec_records[i]
        assert event.loss_times == vec.loss_times

    def test_non_replayed_population_statistics_agree(self, fano_layout):
        """Across seeds the fast plane's population matches the walk's.

        Same-seed identity is exact, so the statistical check runs the
        kernels on disjoint seeds: the vectorized clean path must produce
        a loss probability inside the event kernel's confidence interval
        and a mean degraded time within a few percent.
        """
        event = simulate_lifecycle(
            fano_layout, 600.0, 2500.0, disk=DISK, trials=400, seed=101,
            kernel="event",
        )
        vec = simulate_lifecycle(
            fano_layout, 600.0, 2500.0, disk=DISK, trials=400, seed=202,
            kernel="vectorized",
        )
        lo_e, hi_e = event.prob_loss_interval(z=2.58)
        lo_v, hi_v = vec.prob_loss_interval(z=2.58)
        assert max(lo_e, lo_v) <= min(hi_e, hi_v), (
            "loss-probability intervals of the two populations are disjoint"
        )
        mean = lambda xs: sum(xs) / len(xs)
        ev_deg = mean(event.degraded_hours_per_trial)
        vec_deg = mean(vec.degraded_hours_per_trial)
        assert vec_deg == pytest.approx(ev_deg, rel=0.25)


class TestParallelKernelContract:
    def test_kernel_and_jobs_never_change_the_result(self, fano_layout):
        results = [
            simulate_lifecycle(
                fano_layout, 600.0, 2500.0, disk=DISK, trials=90, seed=9,
                jobs=jobs, chunk_trials=16, kernel=kernel,
            ).to_dict()
            for kernel in ("event", "vectorized", "auto")
            for jobs in (1, 3)
        ]
        assert all(r == results[0] for r in results[1:])

    def test_unknown_kernel_is_rejected_up_front(self, fano_layout):
        with pytest.raises(SimulationError):
            simulate_lifecycle(
                fano_layout, 600.0, 2500.0, disk=DISK, trials=10,
                kernel="warp",
            )


class TestChunkGeometryIsOnlyASpeed:
    """Lanes are keyed by global trial, so ``chunk_trials`` moves no bit."""

    #: ``result_digest`` of ``run(Scenario(kind="lifecycle", ...))`` on
    #: ``oi_raid(7, 3)``, re-taken once when every draw moved to the
    #: ``columnar.lanes`` address: the front door has not moved since.
    GOLDEN = [
        (dict(trials=600), "e5e0926462af1111"),
        (dict(trials=700, lse_rate_per_byte=1e-15), "460d52b42e139ea1"),
        (
            dict(trials=300, mttf_hours=800.0, horizon_hours=3000.0,
                 mc_kernel="event"),
            "a137484e7543bf3b",
        ),
    ]

    @pytest.mark.parametrize("fields, digest", GOLDEN)
    def test_front_door_digests_are_pinned(self, fields, digest):
        result = run(Scenario(kind="lifecycle", layout=oi_raid(7, 3), **fields))
        assert result_digest(result.to_dict()) == digest

    def test_chunk_jobs_and_kernel_never_change_the_result(self, fano_layout):
        """One globally keyed plane, cut into chunks of 1, 3, 64, 256, 1000
        trials and the default, walked or screened, by one worker or two."""
        timer = RebuildTimer(fano_layout, DISK)  # one memo for all 24 runs
        digests = {
            (chunk, jobs, kernel): result_digest(simulate_lifecycle(
                fano_layout, 2000.0, 2500.0, trials=600, seed=9,
                lse_rate_per_byte=1e-13, timer=timer, chunk_trials=chunk,
                jobs=jobs, kernel=kernel,
            ).to_dict())
            for chunk in (1, 3, 64, 256, 1000, None)
            for jobs in (1, 2)
            for kernel in ("vectorized", "event")
        }
        assert len(set(digests.values())) == 1, digests

    def test_default_width_follows_trials_and_the_cell_budget(self):
        assert _plane_trials(100_000) == 2048  # the cap
        assert _plane_trials(10_000) == 1250  # eight chunks for a pool
        assert _plane_trials(2055) == 256  # never narrower than a walked chunk
        assert _plane_trials(2056) == 257
        # The cell budget caps a walked chunk's plane, not a screen's width:
        # a long mission's lanes start short and cursors extend their own.
        assert _slot_estimate(256 * 22, 21, 100_000.0, 87_660.0, 0.0) == 6
        assert _slot_estimate(256 * 22, 21, 100_000.0, 8_766.0, 1e-15) == 9
        assert _slot_estimate(256 * 22, 21, 300.0, 87_660.0, 1e-15) == 34

    def test_front_door_trials_do_not_repeat_across_blocks(self, fano_layout):
        """Trial ``512 + t`` is not trial ``t + 2`` replayed (strides shared
        between blocks and lanes did that): independent trials' failure
        counts agree at chance, about 6 %."""
        for seed in (0, 1):
            failures = np.array(simulate_lifecycle(
                fano_layout, 2000.0, 2500.0, disk=DISK, trials=1024, seed=seed,
            ).failures_per_trial)
            assert (failures[512:767] == failures[2:257]).mean() <= 0.15

    def test_collecting_keeps_chunks(self, fano_layout):
        """Telemetry observes, it never steers: histogram sums are exact
        and a chunk's registry is its simulator's, so a collecting run is
        cut into the chunks an uncollected one is."""
        def chunks(collect):
            telemetry = Telemetry(collect, profiling=True)
            simulate_lifecycle(
                fano_layout, 400_000.0, 8766.0, trials=4096, seed=1,
                telemetry=telemetry,
            )
            return len(telemetry.series["lifecycle.dangerous_fraction"])

        assert chunks(False) == chunks(True) == 8


class TestTelemetryInvariance:
    def test_metrics_and_events_identical_across_kernels(self, fano_layout):
        captures = {}
        for kernel in ("event", "vectorized"):
            tel = Telemetry()
            result = simulate_lifecycle(
                fano_layout, 700.0, 2500.0, disk=DISK, trials=30, seed=4,
                lse_rate_per_byte=1e-13, kernel=kernel, telemetry=tel,
            )
            captures[kernel] = (result.to_dict(), tel)
        ev_result, ev_tel = captures["event"]
        vec_result, vec_tel = captures["vectorized"]
        assert ev_result == vec_result
        assert ev_tel.metrics.counters() == vec_tel.metrics.counters()
        ev_hists = {k: h.to_dict() for k, h in ev_tel.metrics.histograms()}
        vec_hists = {k: h.to_dict() for k, h in vec_tel.metrics.histograms()}
        assert ev_hists == vec_hists
        assert ev_tel.events.records == vec_tel.events.records
        assert ev_tel.events.records, "telemetry captured no events"


class TestTwoDifferentPaths:
    def test_event_walks_every_trial_vectorized_screens(self, fano_layout):
        """The identity above is not one kernel compared with itself."""
        profiles = {}
        for kernel in ("event", "vectorized"):
            prof = Telemetry(enabled=False, profiling=True)
            with use_telemetry(prof):
                simulate_lifecycle(
                    fano_layout, 2000.0, 2500.0, disk=DISK, trials=120,
                    seed=0, kernel=kernel,
                )
            profiles[kernel] = prof
        event, vec = profiles["event"], profiles["vectorized"]
        assert "screen" not in event.phases
        assert event.counters["lifecycle.replays"] == 120
        assert vec.phases["screen"][0] == 1
        assert 0 < vec.counters["lifecycle.replays"] < 120


class TestKernelResolver:
    """One resolver for every simulator (``--mc-kernel``/``--serve-kernel``)."""

    def test_names(self):
        assert KERNELS == ("auto", "vectorized", "event")

    def test_auto_prefers_vectorized_when_numpy_present(self):
        assert resolve_kernel("auto") == "vectorized"
        assert resolve_kernel("vectorized") == "vectorized"
        assert resolve_kernel("event") == "event"

    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError):
            resolve_kernel("fancy")
