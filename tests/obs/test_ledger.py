"""The run-provenance ledger."""

import json

from repro.cli import main
from repro.core.oi_layout import oi_raid
from repro.obs import (
    RunLedger,
    Telemetry,
    config_fingerprint,
    result_digest,
    run_manifest,
    use_telemetry,
)
from repro.obs.ledger import repro_version
from repro.scenario import Scenario, run


class TestLedgerFile:
    def test_append_and_records_round_trip(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ledger.append({"record": "run", "kind": "a", "n": 1})
        ledger.append({"record": "run", "kind": "b", "n": 2})
        records = ledger.records()
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n[1, 2]\n')
        assert [r["kind"] for r in RunLedger(str(path)).records()] == ["ok"]

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "absent.jsonl"))
        assert ledger.records() == []

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert RunLedger.from_env() is None
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert RunLedger.from_env().path.endswith("l.jsonl")


class TestManifest:
    def test_manifest_core_fields(self):
        prof = Telemetry(enabled=False, profiling=True)
        with prof.phase("screen"):
            pass
        prof.tally("trials", 3)
        record = run_manifest(
            "lifecycle", {"trials": 3}, seed=7, jobs=2, kernel="auto",
            seconds=0.5, result_doc={"result": "X", "losses": 0},
            summary={"losses": 0}, telemetry=prof,
        )
        assert record["record"] == "run"
        assert record["kind"] == "lifecycle"
        assert record["seed"] == 7 and record["jobs"] == 2
        assert record["config_fingerprint"] == config_fingerprint(
            {"trials": 3}
        )
        assert record["result_digest"] == result_digest(
            {"result": "X", "losses": 0}
        )
        assert record["version"] == repro_version()
        assert list(record["phases"]) == ["screen"]
        assert record["phase_counters"] == {"trials": 3}

    def test_fingerprint_is_order_insensitive_and_value_sensitive(self):
        base = config_fingerprint({"a": 1, "b": 2})
        assert config_fingerprint({"b": 2, "a": 1}) == base
        assert config_fingerprint({"a": 1, "b": 3}) != base

    def test_disabled_profiler_adds_no_phase_block(self):
        record = run_manifest(
            "x", {}, telemetry=Telemetry(),
        )
        assert "phases" not in record


class TestScenarioLedgerHook:
    def _scenario(self, seed=0):
        return Scenario(
            kind="lifecycle", layout=oi_raid(7, 3), trials=8, seed=seed,
            mttf_hours=10_000.0, horizon_hours=2_000.0,
        )

    def test_run_without_env_appends_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        run(self._scenario())
        assert list(tmp_path.iterdir()) == []

    def test_run_appends_one_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        result = run(self._scenario())
        (record,) = RunLedger(str(path)).records()
        assert record["kind"] == "lifecycle"
        assert record["seed"] == 0 and record["jobs"] == 1
        assert record["result_digest"] == result_digest(result.to_dict())
        assert record["summary"]["trials"] == 8
        assert record["seconds"] > 0
        assert record["config"]["layout"]["n_disks"] == 21

    def test_seeds_share_fingerprint_but_not_digest(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        run(self._scenario(seed=0))
        run(self._scenario(seed=1))
        first, second = RunLedger(str(path)).records()
        assert first["config_fingerprint"] == second["config_fingerprint"]
        assert first["result_digest"] != second["result_digest"]

    def test_manifest_reports_only_its_own_run(self, tmp_path, monkeypatch):
        # Two runs under one profiling ambient: each manifest carries the
        # phases and counters of its own run, not the running totals.
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        scenario = Scenario(
            kind="lifecycle", layout=oi_raid(7, 3), trials=3000, seed=0,
        )
        with use_telemetry(Telemetry(enabled=False, profiling=True)):
            run(scenario)
            run(scenario)
        first, second = RunLedger(str(path)).records()
        for record in (first, second):
            assert record["phase_counters"]["lifecycle.trials"] == 3000
            assert sum(record["phases"].values()) <= record["seconds"]
        assert second["phase_counters"] == first["phase_counters"]
        assert list(second["phases"]) == list(first["phases"])


class TestRunsCli:
    def _seed_ledger(self, path):
        ledger = RunLedger(str(path))
        for seed in (0, 1):
            ledger.append(run_manifest(
                "lifecycle", {"trials": 8}, seed=seed, jobs=1,
                kernel="auto", seconds=0.25,
                result_doc={"result": "LifecycleResult", "seed": seed},
                summary={"losses": seed, "trials": 8},
            ))
        return ledger

    def test_runs_list_shows_one_row_per_record(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._seed_ledger(path)
        assert main(["runs", "list", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lifecycle" in out
        assert config_fingerprint({"trials": 8}) in out

    def test_runs_show_prints_json(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._seed_ledger(path)
        assert main(["runs", "show", "--ledger", str(path), "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 0

    def test_runs_diff_marks_differing_fields(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._seed_ledger(path)
        assert main(["runs", "diff", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "DIFFERS" in out  # seed and digest changed
        assert "same" in out  # fingerprint did not
        assert "losses" in out  # summary delta table

    def test_missing_ledger_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert main(["runs", "list"]) == 1
        assert "no run ledger" in capsys.readouterr().err

    def test_out_of_range_index_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        self._seed_ledger(path)
        assert main(["runs", "show", "--ledger", str(path), "9"]) == 1
        assert "out of range" in capsys.readouterr().err
