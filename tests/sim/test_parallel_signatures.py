"""The shared-signature contract across the chunked ``simulate_*`` family.

Every chunked simulator takes ``seed`` and ``telemetry`` with the same
defaults and ends with the same keyword-only pair, in the same order:
``jobs``, ``progress``. Introspection enforces it so a new simulator (or
a refactor of an old one) cannot drift to a positional worker count or a
second spelling of the driver's arguments.
"""

import inspect

import pytest

from repro.sim.fleet import simulate_fleet
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.montecarlo import simulate_lifetimes
from repro.sim.serve import simulate_serve

RUNNERS = (
    simulate_lifetimes,
    simulate_lifecycle,
    simulate_fleet,
    simulate_serve,
)

SHARED_TRAILING = ("jobs", "progress")


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_shared_trailing_keywords_are_keyword_only_in_order(runner):
    params = list(inspect.signature(runner).parameters.values())
    tail = params[-len(SHARED_TRAILING):]
    assert tuple(p.name for p in tail) == SHARED_TRAILING, runner.__name__
    for param in tail:
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, param.name


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda f: f.__name__)
def test_shared_defaults_match(runner):
    sig = inspect.signature(runner)
    assert sig.parameters["seed"].default == 0
    assert sig.parameters["jobs"].default == 1
    assert sig.parameters["telemetry"].default is None
    assert sig.parameters["progress"].default is None


#: The mission physics lifecycle and fleet share — one array's mission and
#: a fleet of them are the same function of these, spelled the same way.
MISSION_PREFIX = (
    ("layout", inspect.Parameter.empty),
    ("mttf_hours", inspect.Parameter.empty),
    ("horizon_hours", inspect.Parameter.empty),
    ("disk", None),
    ("sparing", "distributed"),
    ("method", "analytic"),
    ("batches", 8),
    ("lse_rate_per_byte", 0.0),
)


@pytest.mark.parametrize(
    "runner", (simulate_lifecycle, simulate_fleet), ids=lambda f: f.__name__
)
def test_mission_simulators_share_the_physics_prefix(runner):
    params = list(inspect.signature(runner).parameters.values())
    head = params[: len(MISSION_PREFIX)]
    assert tuple((p.name, p.default) for p in head) == MISSION_PREFIX
    for param in head:
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, param.name


@pytest.mark.parametrize(
    "runner", (simulate_lifecycle, simulate_fleet, simulate_lifetimes),
    ids=lambda f: f.__name__,
)
def test_mission_simulators_take_no_oracle_and_no_tables(runner):
    """Every mission simulator takes the layout first and asks its own
    decoder; the screen's columns are lookups in the layout's pattern
    memo — neither is an argument, and neither is a pre-built rebuild
    timer."""
    names = list(inspect.signature(runner).parameters)
    assert names[0] == "layout"
    assert not set(names) & {"oracle", "tables", "timer", "n_disks"}
