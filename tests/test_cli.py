"""The command-line interface."""

import sys
import time

import pytest

from repro.cli import main


def _strip_workers(text):
    """Drop the workers row, the only line allowed to vary with --jobs."""
    return [line for line in text.splitlines() if "workers" not in line]


class TestInfo:
    def test_reference_config(self, capsys):
        assert main(["info", "-v", "7", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "n_disks" in out and "21" in out
        assert "design_tolerance" in out

    def test_generalized_config(self, capsys):
        assert main(
            ["info", "-v", "7", "-k", "3", "--outer-parities", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "4" in out  # design tolerance 4

    def test_bad_parameters_fail_cleanly(self, capsys):
        assert main(["info", "-v", "8", "-k", "3"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDesigns:
    def test_lists_k3_space(self, capsys):
        assert main(["designs", "-k", "3", "--max-groups", "15"]) == 0
        out = capsys.readouterr().out
        assert "(7,7,3,3,1)" in out
        assert "(13,26,6,3,1)" in out


class TestPlan:
    def test_single_failure(self, capsys):
        assert main(["plan", "-v", "7", "-k", "3", "-f", "0"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs RAID5" in out
        assert "20/20" in out

    def test_group_failure(self, capsys):
        assert main(["plan", "-v", "7", "-k", "3", "-f", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "81" in out  # 3 disks x 27 units

    def test_unrecoverable_pattern_is_an_error(self, capsys):
        rc = main(["plan", "-v", "7", "-k", "3", "-f", "0", "1", "3", "4"])
        # Some 4-failure patterns survive; (0,1)+(3,4) kills two pairs in
        # two groups — if this specific one survives, planning succeeds.
        assert rc in (0, 1)


class TestTolerance:
    def test_sampled_profile(self, capsys):
        assert main(
            [
                "tolerance",
                "-v", "7", "-k", "3",
                "--max-failures", "3",
                "--samples", "100",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1.000" in out

    def test_exhaustive_flag(self, capsys):
        assert main(
            [
                "tolerance",
                "-v", "7", "-k", "3",
                "--max-failures", "2",
                "--samples", "0",
            ]
        ) == 0

    def test_jobs_flag_same_output(self, capsys):
        argv = [
            "tolerance",
            "-v", "7", "-k", "3",
            "--max-failures", "3",
            "--samples", "150",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestReliability:
    ARGS = [
        "reliability",
        "-v", "7", "-k", "3",
        "--mttf-hours", "2000",
        "--mttr-hours", "40",
        "--horizon-hours", "3000",
        "--trials", "150",
    ]

    def test_simulation_runs(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "P(loss before horizon)" in out
        assert "MTTDL" in out

    def test_jobs_bit_identical(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        # Deterministic chunk seeding: only the workers row may differ.
        assert _strip_workers(serial) == _strip_workers(parallel)


class TestLifecycle:
    # Accelerated rates + small slow disks keep the coupled simulation
    # fast while still exercising multi-failure re-planning.
    ARGS = [
        "lifecycle",
        "-v", "7", "-k", "3",
        "--mttf-hours", "800",
        "--horizon-hours", "2000",
        "--trials", "25",
        "--capacity-tb", "0.05",
        "--bandwidth-mib", "2",
    ]

    def test_oi_runs_end_to_end(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "derived MTTR" in out
        assert "P(loss before horizon)" in out
        assert "Markov P(loss), derived mu" in out
        assert "peak concurrent failures" in out

    def test_runs_on_a_numpy_only_install(self, capsys, monkeypatch):
        """The Markov row's matrix exponential needs no scipy: with every
        scipy import masked, the command still ends in its table."""
        for name in list(sys.modules):
            if name == "scipy" or name.startswith("scipy."):
                monkeypatch.delitem(sys.modules, name)
        monkeypatch.setitem(sys.modules, "scipy", None)
        assert main(["lifecycle", "-v", "7", "-k", "3", "--trials", "50"]) == 0
        assert "Markov P(loss), derived mu" in capsys.readouterr().out

    def test_raid50_scheme(self, capsys):
        assert main(self.ARGS + ["--scheme", "raid50"]) == 0
        out = capsys.readouterr().out
        assert "raid50" in out
        assert "derived MTTR" in out

    def test_jobs_bit_identical(self, capsys):
        argv = self.ARGS + ["--scheme", "raid50", "--trials", "40"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert _strip_workers(serial) == _strip_workers(parallel)

    def test_lse_rate_accepted(self, capsys):
        assert main(
            self.ARGS + ["--scheme", "raid5", "--lse-rate", "1e-10"]
        ) == 0
        assert "latent-error losses" in capsys.readouterr().out


class TestRebuild:
    def test_estimate(self, capsys):
        assert main(
            ["rebuild", "-v", "7", "-k", "3", "--capacity-tb", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "rebuild time" in out
        assert "speedup" in out

    def test_foreground_share(self, capsys):
        assert main(
            [
                "rebuild",
                "-v", "7", "-k", "3",
                "--foreground", "0.5",
            ]
        ) == 0

    def test_no_skew_flag(self, capsys):
        assert main(["info", "-v", "7", "-k", "3", "--no-skew"]) == 0
        assert "False" in capsys.readouterr().out


class TestServe:
    ARGS = [
        "serve",
        "-v", "7", "-k", "3",
        "--requests", "300",
        "--rate", "150",
        "--seed", "4",
    ]

    def test_healthy_run(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "requests served" in out
        assert "p99 latency" in out
        assert "no rebuild traffic" in out

    def test_degraded_with_throttle(self, capsys):
        assert main(
            self.ARGS + ["-f", "0", "--throttle", "fixed",
                         "--rebuild-rate", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "rebuild ops completed" in out
        assert "degraded fraction" in out

    def test_dedicated_sparing_rebuilds_onto_the_replacement(self, capsys):
        """Was a KeyError traceback: the replacement disk had no queue."""
        assert main(
            self.ARGS + ["-f", "0", "--throttle", "fixed",
                         "--sparing", "dedicated"]
        ) == 0
        assert "rebuild ops completed      27/27" in capsys.readouterr().out

    @pytest.mark.parametrize("throttle", ["fixed", "idle"])
    def test_kernel_moves_no_bit_of_a_throttled_run(self, capsys, throttle):
        argv = self.ARGS + [
            "-f", "0", "--throttle", throttle, "--rebuild-batches", "2",
            "--workload", "zipf", "--write-fraction", "0.3", "--trials", "3",
        ]
        assert main(argv + ["--serve-kernel", "event"]) == 0
        event = capsys.readouterr().out
        assert main(argv + ["--serve-kernel", "vectorized"]) == 0
        assert capsys.readouterr().out == event

    def test_adaptive_throttle(self, capsys):
        assert main(
            self.ARGS + ["-f", "0", "--throttle", "adaptive",
                         "--target-p99-ms", "20"]
        ) == 0
        assert "throttle=adaptive" in capsys.readouterr().out

    def test_unrecoverable_pattern_is_domain_error(self, capsys):
        assert main(self.ARGS + ["-f", "0", "1", "2", "3", "4", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_jobs_bit_identical(self, capsys):
        argv = self.ARGS + ["-f", "0", "--throttle", "fixed",
                            "--trials", "3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        assert _strip_workers(serial) == _strip_workers(parallel)


class TestExitCodes:
    """The contract: 0 success, 1 domain error, 2 usage error."""

    SERVE = ["serve", "-v", "7", "-k", "3", "-f", "0", "--requests", "50"]
    SCHEME = ["lifecycle", "-v", "7", "-k", "3", "--trials", "5", "--scheme"]

    def test_success_is_zero(self):
        assert main(["info", "-v", "7", "-k", "3"]) == 0

    def test_domain_error_is_one(self, capsys):
        # v=8 is not a valid symmetric design: a ReproError, not a crash.
        assert main(["info", "-v", "8", "-k", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "rebuild"])
    def test_unknown_disk_is_one_line_and_one(self, command, capsys):
        assert main([command, "-v", "7", "-k", "3", "-f", "99"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: no such disk 99 in oi-raid"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["reliability", "-v", "7", "-k", "3", "--mttf-hours", "nan"],
        ["lifecycle", "-v", "7", "-k", "3", "--horizon-hours", "inf"],
        ["lifecycle", "-v", "7", "-k", "3", "--mttf-hours", "nan"],
        ["fleet", "-v", "7", "-k", "3", "--mttf-hours", "nan"],
        ["serve", "-v", "7", "-k", "3", "--requests", "0"],
        ["serve", "-v", "7", "-k", "3", "--write-fraction", "2"],
        ["serve", "-v", "7", "-k", "3", "--workload", "zipf", "--skew", "0"],
        ["fleet", "-v", "7", "-k", "3", "--arrays", "0"],
        ["designs", "-k", "1"],
        # Hostile serve numbers: each was a hang, a table of "nan ms",
        # negative latencies or a ZeroDivisionError traceback.
        SERVE + ["--throttle", "fixed", "--rebuild-rate", "nan"],
        SERVE + ["--rate", "nan"],
        SERVE + ["--rate", "inf"],
        SERVE + ["--seek-ms", "nan"],
        SERVE + ["--seek-ms", "-50"],
        SERVE + ["--throttle", "adaptive", "--target-p99-ms", "nan"],
        SERVE + ["--clients", "4", "--think-ms", "nan"],
        SERVE + ["--bandwidth-mib", "0"],
        SERVE + ["--unit-kib", "nan"],
        # NaN passed DiskModel's `<= 0` test: the first two hung, the
        # third printed "nan TB", the fourth "speedup infx", all exit 0.
        ["lifecycle", "-v", "7", "-k", "3", "--capacity-tb", "nan"],
        ["fleet", "-v", "7", "-k", "3", "--capacity-tb", "nan"],
        ["rebuild", "-v", "7", "-k", "3", "-f", "0", "--capacity-tb", "nan"],
        ["rebuild", "-v", "7", "-k", "3", "-f", "0", "--bandwidth-mib", "inf"],
        # A ZeroDivisionError traceback and an empty table with exit 0.
        ["tolerance", "-v", "7", "-k", "3", "--samples", "-3"],
        ["tolerance", "-v", "7", "-k", "3", "--max-failures", "-1"],
        # --scheme-param values went unchecked against the knob's type:
        # a ValueError traceback, a silent 2 and a silent True.
        SCHEME + ["rs", "--scheme-param", "parities=abc"],
        SCHEME + ["rs", "--scheme-param", "parities=2.5"],
        SCHEME + ["oi", "--scheme-param", "skewed=maybe"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_bad_number_is_one_line_and_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        # Blamed `v`, which the user never typed ("v must be >= 2, got 1").
        (["designs", "-k", "0"], "-k"),
        # An empty table and exit 0 for any bound below the smallest design.
        (["designs", "-k", "3", "--max-groups", "0"], "--max-groups"),
        (["designs", "-k", "3", "--max-groups", "-7"], "--max-groups"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_bad_designs_bound_names_the_flag_typed(self, argv, flag, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {flag}")

    @pytest.mark.parametrize("output", [
        "--metrics-out", "--trace-out", "--profile-out", "REPRO_LEDGER",
    ])
    def test_unwritable_output_is_one_line_before_the_run(
        self, output, tmp_path, monkeypatch, capsys
    ):
        # Each ran the whole simulation (15 s for this one), then died in
        # a FileNotFoundError traceback from the artifact writer.
        target = str(tmp_path / "no" / "such" / "dir" / "out.json")
        argv = ["lifecycle", "-v", "7", "-k", "3", "--trials", "5000",
                "--mttf-hours", "2000"]
        if output == "REPRO_LEDGER":
            monkeypatch.setenv(output, target)
        else:
            argv = [output, target] + argv
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 5.0
        out, err = capsys.readouterr()
        assert out == ""  # no result table: it never simulated
        assert err.splitlines() == [
            f"error: cannot write {target}: No such file or directory"
        ]

    def test_usage_error_is_two(self, capsys):
        assert main(["info", "-v", "not-a-number", "-k", "3"]) == 2
        assert main(["no-such-command"]) == 2

    def test_missing_required_is_two(self):
        assert main(["info"]) == 2

    def test_retired_kernel_alias_is_two(self, capsys):
        # --kernel was a hidden alias of --mc-kernel; it is gone, not renamed.
        argv = ["lifecycle", "-v", "7", "-k", "3", "--kernel", "event"]
        assert main(argv) == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    def test_retired_perf_subcommand_is_two(self, capsys):
        assert main(["perf", "check", "x.json"]) == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "report" in capsys.readouterr().out


LIFECYCLE_ARGS = TestLifecycle.ARGS


class TestTelemetryFlags:
    def test_metrics_out_writes_valid_document(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        target = tmp_path / "m.json"
        assert main(["--metrics-out", str(target)] + LIFECYCLE_ARGS) == 0
        reg = MetricsRegistry.from_json(target.read_text())
        counters = dict(reg.counters())
        assert counters["lifecycle.trials"] == 25
        assert counters["lifecycle.failures"] > 0

    def test_trace_out_chrome_json(self, tmp_path, capsys):
        from repro.obs import load_telemetry_file

        target = tmp_path / "t.json"
        assert main(["--trace-out", str(target)] + LIFECYCLE_ARGS) == 0
        kind, doc = load_telemetry_file(target)
        assert kind == "trace"
        names = {e["name"] for e in doc["traceEvents"]}
        assert "plan_recovery" in names
        assert "failure" in names  # sim-time instants ride along

    def test_trace_out_jsonl(self, tmp_path, capsys):
        from repro.obs import load_telemetry_file

        target = tmp_path / "t.jsonl"
        assert main(["--trace-out", str(target)] + LIFECYCLE_ARGS) == 0
        kind, records = load_telemetry_file(target)
        assert kind == "trace-jsonl"
        assert any(r["record"] == "span" for r in records)
        assert any(r["record"] == "event" for r in records)

    def test_metrics_deterministic_across_jobs(self, tmp_path, capsys):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert main(["--metrics-out", str(serial)] + LIFECYCLE_ARGS) == 0
        assert main(
            ["--metrics-out", str(parallel)]
            + LIFECYCLE_ARGS + ["--jobs", "3"]
        ) == 0
        assert serial.read_text() == parallel.read_text()

    def test_one_telemetry_serves_every_artifact(self, tmp_path, capsys):
        """The three artifact flags fill one instrument: each document
        reads the same whichever others ride along, at any ``--jobs``."""
        import json

        argv = [
            "lifecycle", "-v", "7", "-k", "3", "--capacity-tb", "0.0343",
            "--mttf-hours", "20000", "--horizon-hours", "8766", "--trials", "400",
        ]
        profiles, metrics = [], []
        for jobs in ("1", "2"):
            for flags in (("metrics", "trace", "profile"), ("profile",),
                          ("metrics",)):
                out = tmp_path / f"{jobs}-{len(flags)}-{flags[0]}"
                paths = {flag: f"{out}.{flag}.json" for flag in flags}
                flag_argv = [
                    word for flag in flags
                    for word in (f"--{flag}-out", paths[flag])
                ]
                assert main(flag_argv + argv + ["--jobs", jobs]) == 0
                if "profile" in paths:
                    with open(paths["profile"]) as handle:
                        doc = json.load(handle)
                    del doc["memory_peak_kib"]
                    for phase in doc["phases"].values():
                        del phase["seconds"]
                    profiles.append(doc)
                if "metrics" in paths:
                    with open(paths["metrics"]) as handle:
                        metrics.append(handle.read())
        assert len(profiles) == len(metrics) == 4
        assert all(doc == profiles[0] for doc in profiles[1:])
        assert profiles[0]["counters"]["lifecycle.trials"] == 400
        assert profiles[0]["phases"]["merge"]["calls"] == 4  # two chunks
        assert all(doc == metrics[0] for doc in metrics[1:])
        assert '"lifecycle.trials"' in metrics[0]

    def test_verbose_heartbeat_on_stderr(self, capsys):
        assert main(["-v"] + LIFECYCLE_ARGS) == 0
        err = capsys.readouterr().err
        assert "[repro] 25/25 trials" in err


class TestReport:
    def make_artifacts(self, tmp_path):
        m, t = tmp_path / "m.json", tmp_path / "t.json"
        argv = [
            "--metrics-out", str(m), "--trace-out", str(t),
        ] + LIFECYCLE_ARGS
        assert main(argv) == 0
        return m, t

    def test_check_mode(self, tmp_path, capsys):
        m, t = self.make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["report", "--check", str(m), str(t)]) == 0
        out = capsys.readouterr().out
        assert "valid metrics document" in out
        assert "valid trace document" in out

    def test_renders_metrics_tables(self, tmp_path, capsys):
        m, _t = self.make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["report", str(m)]) == 0
        out = capsys.readouterr().out
        assert "lifecycle.trials" in out
        assert "p95" in out

    def test_renders_trace_summary(self, tmp_path, capsys):
        _m, t = self.make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["report", str(t)]) == 0
        out = capsys.readouterr().out
        assert "plan_recovery" in out

    def test_reads_a_document_that_still_carries_gauges(
        self, tmp_path, capsys
    ):
        """Written before gauges went: the object is accepted and ignored."""
        old = tmp_path / "old.json"
        old.write_text(
            '{"counters": {"serve.requests": 3}, "gauges": {"load": '
            '{"updates": 1, "value": 0.75}}, "histograms": '
            '{"serve.latency_ms": {"buckets": {"4": 1, "9": 1}, "count": 3, '
            '"max": 2.25, "min": 0.0, "sum": 3.75, "zeros": 1}}, '
            '"schema": "repro.metrics/1"}'
        )
        assert main(["report", "--check", str(old)]) == 0
        assert "valid metrics document" in capsys.readouterr().out
        assert main(["report", str(old)]) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out and "load" not in out

    def test_malformed_file_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{} nonsense")
        assert main(["report", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err
