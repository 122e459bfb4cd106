"""The unified Scenario/run() front door and the common result protocol."""

import json

import pytest

from repro import Scenario, run
from repro.core.oi_layout import oi_raid
from repro.errors import ReproError, SimulationError
from repro.results import result_from_dict
from repro.serve import FixedRateThrottle
from repro.sim.lifecycle import LifecycleResult
from repro.sim.montecarlo import LifetimeResult
from repro.sim.rebuild import RebuildResult
from repro.sim.serve import ServeResult
from repro.workloads import WorkloadSpec

LAYOUT = oi_raid(7, 3)


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON constant {token!r} in output")


class TestScenario:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown scenario kind"):
            Scenario(kind="nope", layout=LAYOUT)

    def test_with_kind_preserves_geometry(self):
        s = Scenario(kind="rebuild", layout=LAYOUT, trials=7)
        t = s.with_kind("serve")
        assert t.kind == "serve"
        assert t.layout is LAYOUT
        assert t.trials == 7

    def test_rebuild_dispatch(self):
        result = run(Scenario(kind="rebuild", layout=LAYOUT, faults=(0,)))
        assert isinstance(result, RebuildResult)
        assert result.seconds > 0

    def test_rebuild_event_method(self):
        analytic = run(Scenario(kind="rebuild", layout=LAYOUT))
        event = run(
            Scenario(kind="rebuild", layout=LAYOUT, rebuild_method="event")
        )
        assert isinstance(event, RebuildResult)
        # The event simulation queues; it can only be >= the bound.
        assert event.seconds >= 0.99 * analytic.seconds

    def test_reliability_dispatch(self):
        result = run(
            Scenario(kind="reliability", layout=LAYOUT, trials=10, seed=0)
        )
        assert isinstance(result, LifetimeResult)
        assert result.trials == 10

    def test_lifecycle_dispatch(self):
        result = run(
            Scenario(kind="lifecycle", layout=LAYOUT, trials=5, seed=0)
        )
        assert isinstance(result, LifecycleResult)
        assert result.trials == 5

    def test_serve_dispatch(self):
        result = run(
            Scenario(
                kind="serve",
                layout=LAYOUT,
                workload=WorkloadSpec(kind="uniform", n_requests=100),
                faults=(0,),
                throttle=FixedRateThrottle(300.0),
                trials=2,
            )
        )
        assert isinstance(result, ServeResult)
        assert result.trials == 2
        assert result.rebuild_complete

    def test_serve_jobs_invariant(self):
        def result_for(jobs):
            return run(
                Scenario(
                    kind="serve",
                    layout=LAYOUT,
                    workload=WorkloadSpec(kind="zipf", n_requests=80),
                    faults=(0,),
                    trials=4,
                    seed=3,
                    jobs=jobs,
                )
            )

        assert result_for(1) == result_for(2)

    def test_progress_forwarded(self):
        seen = []
        run(
            Scenario(kind="serve", layout=LAYOUT, trials=2,
                     workload=WorkloadSpec(n_requests=50)),
            progress=lambda done, total, losses: seen.append(done),
        )
        # Batched serve chunks may report several trials at once; progress
        # must still be monotone and end at the full trial count.
        assert seen == sorted(seen)
        assert seen[-1] == 2

    def test_progress_forwarded_per_trial_with_event_kernel(self):
        seen = []
        run(
            Scenario(kind="serve", layout=LAYOUT, trials=2,
                     workload=WorkloadSpec(n_requests=50),
                     serve_kernel="event"),
            progress=lambda done, total, losses: seen.append(done),
        )
        assert seen == [1, 2]

    def test_ledger_records_the_kernel_the_kind_read(
        self, tmp_path, monkeypatch
    ):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        kernels = dict(mc_kernel="vectorized", serve_kernel="event")
        small = dict(layout=LAYOUT, trials=2, arrays=2,
                     workload=WorkloadSpec(n_requests=20), **kernels)
        expected = {
            "rebuild": None, "reliability": "vectorized",
            "lifecycle": "vectorized", "serve": "event", "fleet": None,
        }
        for kind in expected:
            run(Scenario(kind=kind, **small))
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert {r["kind"]: r["kernel"] for r in records} == expected


class TestResultProtocol:
    def scenario_results(self):
        yield run(Scenario(kind="rebuild", layout=LAYOUT, faults=(0,)))
        yield run(Scenario(kind="reliability", layout=LAYOUT, trials=5))
        yield run(Scenario(kind="lifecycle", layout=LAYOUT, trials=3))
        yield run(
            Scenario(kind="serve", layout=LAYOUT,
                     workload=WorkloadSpec(n_requests=60))
        )

    def test_every_kind_round_trips_through_json(self):
        for result in self.scenario_results():
            doc = json.loads(json.dumps(result.to_dict()))
            assert doc["result"] == type(result).__name__
            assert result_from_dict(doc) == result

    def test_every_kind_has_a_summary(self):
        for result in self.scenario_results():
            summary = result.summary()
            assert summary  # non-empty
            assert all(isinstance(k, str) for k in summary)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReproError, match="unknown result type"):
            result_from_dict({"result": "NoSuchResult"})

    def test_missing_fields_rejected(self):
        with pytest.raises(ReproError, match="missing fields"):
            result_from_dict({"result": "LifetimeResult", "trials": 3})

    def test_wrong_concrete_class_rejected(self):
        doc = run(
            Scenario(kind="reliability", layout=LAYOUT, trials=3)
        ).to_dict()
        with pytest.raises(ReproError, match="not a"):
            ServeResult.from_dict(doc)

    def test_nonfinite_serializes_as_null(self):
        result = run(Scenario(kind="reliability", layout=LAYOUT, trials=3))
        assert result.mttdl_estimate_hours == float("inf")  # no losses
        text = json.dumps(result.summary(), allow_nan=False)
        doc = json.loads(text, parse_constant=_reject_constant)
        assert doc["mttdl_estimate_hours"] is None
        full = json.dumps(result.to_dict(), allow_nan=False)
        assert "Infinity" not in full and '"inf"' not in full

    def test_legacy_inf_strings_still_load(self):
        result = run(Scenario(kind="reliability", layout=LAYOUT, trials=3))
        doc = result.to_dict()
        # an earlier protocol revision spelled non-finite floats as strings
        doc["horizon_hours"] = "inf"
        reloaded = result_from_dict(doc)
        assert reloaded.horizon_hours == float("inf")

    def test_old_key_only_document_is_rejected(self):
        """``busiest_disk_seconds`` became ``bottleneck_seconds`` and the
        loading shim is retired: a stored document carrying only the old
        key fails with the protocol's one-line error — it neither loads
        silently nor surfaces a ``TypeError`` from the dataclass."""
        result = run(Scenario(kind="rebuild", layout=LAYOUT, faults=(0,)))
        doc = result.to_dict()
        doc["busiest_disk_seconds"] = doc.pop("bottleneck_seconds")
        with pytest.raises(
            ReproError,
            match=r"RebuildResult document missing fields "
                  r"\['bottleneck_seconds'\]",
        ):
            result_from_dict(doc)

    def test_current_key_wins_over_alias(self):
        result = run(Scenario(kind="rebuild", layout=LAYOUT, faults=(0,)))
        doc = result.to_dict()
        doc["busiest_disk_seconds"] = doc["bottleneck_seconds"] + 1.0
        reloaded = result_from_dict(doc)
        assert reloaded == result  # the stale pre-rename key is ignored
