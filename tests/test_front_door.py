"""The front door's single paths, pinned from the tree before they were single.

Every literal in this file was produced by the hand-written parser,
``Scenario(...)`` literals and 22-key ``scenario_config`` of PR 21: the
flag surface by walking that ``build_parser()``, the fingerprints by
``config_fingerprint(scenario_config(s))`` on the scenarios below.
"""

import argparse
import dataclasses

import pytest

from repro import cli
from repro.errors import ReproError
from repro.obs.ledger import config_fingerprint
from repro.scenario import Scenario, scenario_config
from repro.sim.fleet import FleetResult
from repro.sim.lifecycle import LifecycleResult
from repro.sim.montecarlo import LifetimeResult
from repro.sim.latency import LatencyModel
from repro.sim.rebuild import DiskModel
from repro.sim.serve import (
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
)
from repro.workloads import ClosedLoop, OpenLoop, WorkloadSpec

SCHEMES = (
    "hierarchical", "lrc", "mirror", "oi", "raid5", "raid50", "raid6",
    "rep3", "rs", "xorbas",
)
KERNELS = ("auto", "vectorized", "event")
SPARING = ("distributed", "dedicated")
THROTTLES = ("none", "fixed", "idle", "adaptive")
WORKLOADS = ("uniform", "zipf", "sequential")
REBUILD_MODELS = ("analytic", "event")

# (option strings or positional dest, default, choices, nargs, required,
# type), in --help order.
LAYOUT = [
    ("-v --groups", None, None, None, True, "int"),
    ("-k --stripe-width", None, None, None, True, "int"),
    ("-g --group-size", None, None, None, False, "int"),
    ("--outer-parities", 1, None, None, False, "int"),
    ("--inner-parities", 1, None, None, False, "int"),
    ("--no-skew", False, None, 0, False, None),
]
SCHEME = [
    ("--scheme", "oi", SCHEMES, None, False, None),
    ("--scheme-param", None, None, None, False, None),
]
SURFACE = {
    "": [
        ("-v --verbose", 0, None, 0, False, None),
        ("-q --quiet", False, None, 0, False, None),
        ("--metrics-out", None, None, None, False, None),
        ("--trace-out", None, None, None, False, None),
        ("--profile-out", None, None, None, False, None),
    ],
    "info": LAYOUT,
    "designs": [
        ("-k --stripe-width", None, None, None, True, "int"),
        ("--max-groups", 40, None, None, False, "int"),
    ],
    "plan": LAYOUT + [
        ("-f --failed", None, None, "+", True, "int"),
    ],
    "tolerance": LAYOUT + [
        ("--max-failures", 4, None, None, False, "int"),
        ("--samples", 500, None, None, False, "int"),
        ("--jobs", None, None, None, False, "int"),
    ],
    "reliability": LAYOUT + SCHEME + [
        ("--mttf-hours", 100000.0, None, None, False, "float"),
        ("--mttr-hours", 24.0, None, None, False, "float"),
        ("--horizon-hours", 87660.0, None, None, False, "float"),
        ("--trials", 1000, None, None, False, "int"),
        ("--seed", 0, None, None, False, "int"),
        ("--mc-kernel", "auto", KERNELS, None, False, None),
        ("--jobs", None, None, None, False, "int"),
    ],
    "lifecycle": LAYOUT + SCHEME + [
        ("--mttf-hours", 100000.0, None, None, False, "float"),
        ("--horizon-hours", 87660.0, None, None, False, "float"),
        ("--trials", 200, None, None, False, "int"),
        ("--seed", 0, None, None, False, "int"),
        ("--sparing", "distributed", SPARING, None, False, None),
        ("--rebuild-model", "analytic", REBUILD_MODELS, None, False, None),
        ("--capacity-tb", 4.0, None, None, False, "float"),
        ("--bandwidth-mib", 100.0, None, None, False, "float"),
        ("--foreground", 0.0, None, None, False, "float"),
        ("--mc-kernel", "auto", KERNELS, None, False, None),
        ("--lse-rate", 0.0, None, None, False, "float"),
        ("--jobs", None, None, None, False, "int"),
    ],
    "fleet": LAYOUT + SCHEME + [
        ("--arrays", 100, None, None, False, "int"),
        ("--trials", 10, None, None, False, "int"),
        ("--boost", 1.0, None, None, False, "float"),
        ("--mttf-hours", 100000.0, None, None, False, "float"),
        ("--horizon-hours", 87660.0, None, None, False, "float"),
        ("--seed", 0, None, None, False, "int"),
        ("--sparing", "distributed", SPARING, None, False, None),
        ("--rebuild-model", "analytic", REBUILD_MODELS, None, False, None),
        ("--capacity-tb", 4.0, None, None, False, "float"),
        ("--bandwidth-mib", 100.0, None, None, False, "float"),
        ("--foreground", 0.0, None, None, False, "float"),
        ("--lse-rate", 0.0, None, None, False, "float"),
        ("--jobs", None, None, None, False, "int"),
    ],
    "serve": LAYOUT + SCHEME + [
        ("-f --failed", [], None, "*", False, "int"),
        ("--requests", 2000, None, None, False, "int"),
        ("--workload", "uniform", WORKLOADS, None, False, None),
        ("--write-fraction", 0.0, None, None, False, "float"),
        ("--skew", 1.1, None, None, False, "float"),
        ("--rate", 100.0, None, None, False, "float"),
        ("--clients", 0, None, None, False, "int"),
        ("--think-ms", 0.0, None, None, False, "float"),
        ("--throttle", "none", THROTTLES, None, False, None),
        ("--rebuild-rate", 100.0, None, None, False, "float"),
        ("--target-p99-ms", 20.0, None, None, False, "float"),
        ("--rebuild-batches", 1, None, None, False, "int"),
        ("--sparing", "distributed", SPARING, None, False, None),
        ("--seek-ms", 5.0, None, None, False, "float"),
        ("--unit-kib", 64.0, None, None, False, "float"),
        ("--bandwidth-mib", 100.0, None, None, False, "float"),
        ("--trials", 1, None, None, False, "int"),
        ("--serve-kernel", "auto", KERNELS, None, False, None),
        ("--seed", 0, None, None, False, "int"),
        ("--jobs", None, None, None, False, "int"),
    ],
    "rebuild": LAYOUT + SCHEME + [
        ("-f --failed", [0], None, "+", False, "int"),
        ("--capacity-tb", 4.0, None, None, False, "float"),
        ("--bandwidth-mib", 100.0, None, None, False, "float"),
        ("--foreground", 0.0, None, None, False, "float"),
    ],
    "report": [
        ("files", None, None, "+", True, None),
        ("--check", False, None, 0, False, None),
    ],
    "runs list": [
        ("--ledger", None, None, None, False, None),
    ],
    "runs show": [
        ("--ledger", None, None, None, False, None),
        ("index", -1, None, "?", False, "int"),
    ],
    "runs diff": [
        ("--ledger", None, None, None, False, None),
        ("a", -2, None, "?", False, "int"),
        ("b", -1, None, "?", False, "int"),
    ],
}


def _surface(parser):
    rows = []
    for action in parser._actions:
        if isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        ):
            continue
        rows.append((
            " ".join(action.option_strings) or action.dest,
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.nargs,
            action.required,
            None if action.type is None else action.type.__name__,
        ))
    return rows


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestFlagSurface:
    """No option added, removed, re-defaulted or re-typed by the one table."""

    def _parsers(self):
        top = cli.build_parser()
        found = {"": top}
        for name, sub in _subparsers(top).items():
            verbs = _subparsers(sub)
            if verbs:
                found.update((f"{name} {v}", p) for v, p in verbs.items())
            else:
                found[name] = sub
        return found

    def test_the_subcommands_are_the_frozen_ones(self):
        assert list(self._parsers()) == list(SURFACE)

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_surface_equals_the_frozen_literal(self, command):
        assert _surface(self._parsers()[command]) == SURFACE[command]


GEOMETRY = {"groups": 7, "stripe_width": 3, "group_size": None}
OI = dict(GEOMETRY, outer_parities=1, inner_parities=1, skewed=True)
MIB = 1024 * 1024


def _degraded_serve(**fields):
    """``serve -v 7 -k 3 -f 0`` as the flags' own defaults spell it."""
    return Scenario(
        kind="serve", scheme="oi", scheme_params=OI, faults=(0,), trials=1,
        latency=LatencyModel(
            seek_ms=5.0, unit_bytes=64 * 1024, bandwidth_bytes_per_s=100 * MIB
        ),
        workload=WorkloadSpec(
            kind="uniform", n_requests=2000, write_fraction=0.0, skew=1.1
        ),
        arrival=OpenLoop(100.0),
        **fields,
    )


# name -> (argv, the Scenario it must build, the parent's fingerprint of
# that scenario's config). Between them: every composite (disk, latency,
# workload, closed-loop arrival, --scheme-param) and all four throttles.
CASES = {
    "rebuild": (
        "rebuild -v 7 -k 3 -f 0 1 --scheme rs --scheme-param parities=3 "
        "--capacity-tb 2 --bandwidth-mib 50 --foreground 0.5",
        Scenario(
            kind="rebuild", scheme="rs",
            scheme_params=dict(GEOMETRY, parities=3),
            disk=DiskModel(
                capacity_bytes=2e12, bandwidth_bytes_per_s=50 * MIB,
                foreground_fraction=0.5,
            ),
            faults=(0, 1),
        ),
        "c601c29594a571b2",
    ),
    "reliability": (
        "reliability -v 7 -k 3 --mttf-hours 2000 --mttr-hours 40 "
        "--horizon-hours 3000 --trials 150 --seed 9 --jobs 2 "
        "--mc-kernel event",
        Scenario(
            kind="reliability", scheme="oi", scheme_params=OI,
            mttf_hours=2000.0, mttr_hours=40.0, horizon_hours=3000.0,
            trials=150, seed=9, jobs=2, mc_kernel="event",
        ),
        "eda280ab7ce16fb7",
    ),
    "lifecycle": (
        "lifecycle -v 7 -k 3 --scheme lrc --scheme-param global-parities=3 "
        "--trials 40 --mttf-hours 800 --horizon-hours 2000 "
        "--capacity-tb 0.05 --bandwidth-mib 2 --foreground 0.3 "
        "--lse-rate 1e-12 --rebuild-model event --sparing dedicated "
        "--seed 1 --mc-kernel vectorized",
        Scenario(
            kind="lifecycle", scheme="lrc",
            scheme_params=dict(GEOMETRY, global_parities=3),
            disk=DiskModel(
                capacity_bytes=0.05e12, bandwidth_bytes_per_s=2 * MIB,
                foreground_fraction=0.3,
            ),
            sparing="dedicated", rebuild_method="event",
            lse_rate_per_byte=1e-12, mttf_hours=800.0, horizon_hours=2000.0,
            trials=40, seed=1, mc_kernel="vectorized",
        ),
        "ba0d781f2f7f7e5c",
    ),
    "fleet": (
        "fleet -v 7 -k 3 --arrays 5 --trials 20 --boost 1.4 "
        "--mttf-hours 3000 --horizon-hours 3000 --capacity-tb 0.1 "
        "--bandwidth-mib 2 --lse-rate 1e-13 --sparing dedicated "
        "--rebuild-model event --seed 2",
        Scenario(
            kind="fleet", scheme="oi", scheme_params=OI,
            disk=DiskModel(
                capacity_bytes=0.1e12, bandwidth_bytes_per_s=2 * MIB,
                foreground_fraction=0.0,
            ),
            sparing="dedicated", rebuild_method="event",
            lse_rate_per_byte=1e-13, mttf_hours=3000.0, horizon_hours=3000.0,
            arrays=5, lambda_boost=1.4, trials=20, seed=2,
        ),
        "44d7c415f645e0e6",
    ),
    "serve": (
        "serve -v 7 -k 3 -f 0 --clients 4 --think-ms 2 --requests 200 "
        "--workload zipf --skew 1.3 --write-fraction 0.2 --seek-ms 4 "
        "--unit-kib 32 --bandwidth-mib 150 --throttle fixed "
        "--rebuild-rate 300 --rebuild-batches 2 --sparing dedicated "
        "--trials 2 --serve-kernel event --seed 5",
        Scenario(
            kind="serve", scheme="oi", scheme_params=OI,
            latency=LatencyModel(
                seek_ms=4.0, unit_bytes=32 * 1024,
                bandwidth_bytes_per_s=150 * MIB,
            ),
            workload=WorkloadSpec(
                kind="zipf", n_requests=200, write_fraction=0.2, skew=1.3
            ),
            arrival=ClosedLoop(4, think_s=0.002), faults=(0,),
            throttle=FixedRateThrottle(300.0), sparing="dedicated",
            rebuild_batches=2, trials=2, serve_kernel="event", seed=5,
        ),
        "8b1500b2c88892a1",
    ),
    "serve-none": (
        "serve -v 7 -k 3 -f 0", _degraded_serve(), "25263ab0c29e1a81",
    ),
    "serve-idle": (
        "serve -v 7 -k 3 -f 0 --throttle idle",
        _degraded_serve(throttle=IdleSlotThrottle()), "f5a83e8fbc74e27c",
    ),
    "serve-adaptive": (
        "serve -v 7 -k 3 -f 0 --throttle adaptive --target-p99-ms 15",
        _degraded_serve(throttle=AdaptiveThrottle(target_p99_ms=15.0)),
        "c8e9ace39476546e",
    ),
}


def _comparable(scenario):
    """Field values; a layout by its description (layouts have no ``==``)."""
    values = {
        f.name: getattr(scenario, f.name)
        for f in dataclasses.fields(scenario)
    }
    values["layout"] = scenario.layout.describe()
    return values


class TestScenarioFromArgv:
    """The one args -> Scenario builder against hand-written scenarios."""

    @pytest.mark.parametrize("case", list(CASES))
    def test_argv_builds_the_hand_written_scenario(
        self, case, monkeypatch, capsys
    ):
        argv, expected, _ = CASES[case]
        built = []

        def capture(scenario, progress=None):
            built.append(scenario)
            raise ReproError("captured before the run")

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(cli, "run_scenario", capture)
        assert cli.main(argv.split()) == 1
        assert capsys.readouterr().err == "error: captured before the run\n"
        (scenario,) = built
        assert _comparable(scenario) == _comparable(expected)

    def test_exactly_one_function_constructs_a_scenario(self):
        import ast
        import inspect

        tree = ast.parse(inspect.getsource(cli))
        builders = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "Scenario"
                for call in ast.walk(node)
            )
        ]
        assert builders == ["_scenario_from"]


class TestScenarioConfig:
    NOT_CONFIG = {"seed", "jobs", "telemetry"}

    def test_every_field_but_seed_jobs_telemetry_has_a_key(self):
        config = scenario_config(CASES["serve"][1])
        names = {f.name for f in dataclasses.fields(Scenario)}
        assert set(config) == names - self.NOT_CONFIG

    @pytest.mark.parametrize("case", list(CASES))
    def test_fingerprint_is_the_parents(self, case):
        _, scenario, golden = CASES[case]
        assert config_fingerprint(scenario_config(scenario)) == golden


class TestLossEstimators:
    ESTIMATORS = ("prob_loss", "prob_loss_interval", "mttdl_estimate_hours")

    def test_unweighted_results_take_them_from_one_base(self):
        for name in self.ESTIMATORS:
            assert name not in vars(LifetimeResult)
            assert name not in vars(LifecycleResult)
            assert name in vars(FleetResult)  # its weighted estimators
