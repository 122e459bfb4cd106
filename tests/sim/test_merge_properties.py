"""Property tests: chunk merges are associative and order-stable.

The determinism contract (results bit-identical for any ``jobs``) rests on
one algebraic fact: merging per-chunk results is insensitive to *how* the
chunk sequence is grouped, as long as the chunk order itself is kept. These
tests state that fact directly — for arbitrary part lists and arbitrary
re-chunkings, ``merge(parts) == merge([merge(group) for group in groups])``
— so a future merge that, say, sorts loss times or averages instead of
concatenating fails here before it fails a 40-second end-to-end test.

There is one merge, :meth:`repro.results.ResultBase.merged`, which reads
the fold off each field's declared type; the last three tests therefore
build their parts from the field types too, for every registered result
class a chunk function returns, so a new field or a new chunked
simulator is covered without a strategy of its own.
"""

import dataclasses
from typing import get_origin, get_type_hints

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.results import RESULT_TYPES
from repro.sim.fleet import _fleet_chunk
from repro.sim.lifecycle import LifecycleResult, _lifecycle_chunk
from repro.sim.montecarlo import LifetimeResult, _lifetime_chunk
from repro.sim.serve import ServeResult, _serve_chunk

HORIZON = 1000.0

times = st.floats(min_value=0.0, max_value=HORIZON, allow_nan=False)
counts = st.integers(min_value=0, max_value=50)


@st.composite
def lifetime_results(draw):
    loss_times = tuple(draw(st.lists(times, max_size=5)))
    extra_survivors = draw(counts)
    return LifetimeResult(
        trials=len(loss_times) + extra_survivors,
        losses=len(loss_times),
        loss_times=loss_times,
        horizon_hours=HORIZON,
    )


@st.composite
def lifecycle_results(draw):
    loss_times = tuple(draw(st.lists(times, max_size=4)))
    trials = len(loss_times) + draw(counts)
    per_trial = st.lists(counts, min_size=trials, max_size=trials)
    hours = st.lists(times, min_size=trials, max_size=trials)
    return LifecycleResult(
        trials=trials,
        losses=len(loss_times),
        loss_times=loss_times,
        lse_losses=draw(st.integers(min_value=0, max_value=len(loss_times))),
        horizon_hours=HORIZON,
        failures_per_trial=tuple(draw(per_trial)),
        repairs_per_trial=tuple(draw(per_trial)),
        degraded_hours_per_trial=tuple(draw(hours)),
        peak_failures_per_trial=tuple(draw(per_trial)),
    )


@st.composite
def serve_results(draw):
    latencies = tuple(draw(st.lists(times, max_size=6)))
    trials = draw(st.integers(min_value=1, max_value=4))
    per_trial = st.lists(times, min_size=trials, max_size=trials)
    reads = draw(counts)
    writes = draw(counts)
    return ServeResult(
        trials=trials,
        requests=reads + writes,
        reads=reads,
        writes=writes,
        degraded_reads=draw(counts),
        degraded_writes=draw(counts),
        device_reads=draw(counts),
        device_writes=draw(counts),
        latencies_ms=latencies,
        rebuild_ops=draw(counts),
        rebuild_ops_done=draw(counts),
        rebuild_seconds_per_trial=tuple(draw(per_trial)),
        foreground_seconds_per_trial=tuple(draw(per_trial)),
    )


@st.composite
def chunked(draw, atoms):
    """A non-empty part list plus an arbitrary chunking of it.

    Every chunk is non-empty (merging an empty chunk list is an error by
    contract), and the chunks concatenate back to the original sequence.
    """
    parts = draw(st.lists(atoms, min_size=1, max_size=8))
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=len(parts) - 1),
                max_size=len(parts) - 1,
            )
        )
    ) if len(parts) > 1 else []
    bounds = [0] + cuts + [len(parts)]
    groups = [parts[a:b] for a, b in zip(bounds, bounds[1:])]
    return parts, groups


@settings(max_examples=60, deadline=None)
@given(chunked(lifetime_results()))
def test_lifetime_merge_is_associative(case):
    parts, groups = case
    flat = LifetimeResult.merged(parts)
    regrouped = LifetimeResult.merged(
        [LifetimeResult.merged(group) for group in groups]
    )
    assert regrouped == flat


@settings(max_examples=60, deadline=None)
@given(st.lists(lifetime_results(), min_size=1, max_size=6))
def test_lifetime_merge_is_order_stable(parts):
    merged = LifetimeResult.merged(parts)
    assert merged.loss_times == tuple(
        t for part in parts for t in part.loss_times
    )
    assert merged.trials == sum(p.trials for p in parts)
    assert merged.losses == sum(p.losses for p in parts)


@settings(max_examples=40, deadline=None)
@given(chunked(lifecycle_results()))
def test_lifecycle_merge_is_associative(case):
    parts, groups = case
    flat = LifecycleResult.merged(parts)
    regrouped = LifecycleResult.merged(
        [LifecycleResult.merged(group) for group in groups]
    )
    assert regrouped == flat


@settings(max_examples=60, deadline=None)
@given(chunked(serve_results()))
def test_serve_merge_is_associative(case):
    parts, groups = case
    flat = ServeResult.merged(parts)
    regrouped = ServeResult.merged(
        [ServeResult.merged(group) for group in groups]
    )
    assert regrouped == flat


@settings(max_examples=60, deadline=None)
@given(st.lists(serve_results(), min_size=1, max_size=6))
def test_serve_merge_is_order_stable(parts):
    merged = ServeResult.merged(parts)
    assert merged.latencies_ms == tuple(
        x for part in parts for x in part.latencies_ms
    )
    assert merged.rebuild_seconds_per_trial == tuple(
        x for part in parts for x in part.rebuild_seconds_per_trial
    )


def test_empty_merge_rejected():
    with pytest.raises(SimulationError, match="no chunk results"):
        LifetimeResult.merged([])
    with pytest.raises(SimulationError, match="no chunk results"):
        LifecycleResult.merged([])
    with pytest.raises(SimulationError, match="no chunk results"):
        ServeResult.merged([])


def test_mixed_horizons_rejected():
    a = LifetimeResult(trials=1, losses=0, loss_times=(), horizon_hours=10.0)
    b = LifetimeResult(trials=1, losses=0, loss_times=(), horizon_hours=20.0)
    with pytest.raises(SimulationError, match="different horizon_hours"):
        LifetimeResult.merged([a, b])


#: Registered result classes that come back from a chunk function
#: (fleet's ``FleetChunk`` accumulator is not one: its fold is its own).
CHUNK_RESULTS = [
    cls
    for cls in (
        get_type_hints(fn)["return"]
        for fn in (_lifetime_chunk, _lifecycle_chunk, _fleet_chunk, _serve_chunk)
    )
    if RESULT_TYPES.get(cls.__name__) is cls
]


def folds(cls):
    """``{field: "sum" | "concat" | "same"}`` as the type hints declare it."""
    hints = get_type_hints(cls)
    return {
        f.name: "sum" if hints[f.name] is int
        else "concat" if get_origin(hints[f.name]) is tuple
        else "same"
        for f in dataclasses.fields(cls)
    }


def parts_of(cls):
    draw_field = {
        "sum": counts,
        "concat": st.lists(times, max_size=4).map(tuple),
        "same": st.just(HORIZON),
    }
    return st.builds(
        cls, **{name: draw_field[fold] for name, fold in folds(cls).items()}
    )


def test_every_chunked_simulator_is_walked():
    assert {cls.__name__ for cls in CHUNK_RESULTS} == {
        "LifetimeResult", "LifecycleResult", "ServeResult",
    }


@pytest.mark.parametrize("cls", CHUNK_RESULTS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merged_is_associative_and_order_stable(cls, data):
    parts, groups = data.draw(chunked(parts_of(cls)))
    flat = cls.merged(parts)
    assert cls.merged([cls.merged(group) for group in groups]) == flat
    for name, fold in folds(cls).items():
        values = [getattr(part, name) for part in parts]
        if fold == "sum":
            assert getattr(flat, name) == sum(values), name
        elif fold == "concat":
            in_order = tuple(x for value in values for x in value)
            assert getattr(flat, name) == in_order, name
        else:
            assert getattr(flat, name) == values[0], name


@pytest.mark.parametrize("cls", CHUNK_RESULTS, ids=lambda c: c.__name__)
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_mismatched_parameter_field_is_refused_by_name(cls, data):
    part = data.draw(parts_of(cls))
    for name, fold in folds(cls).items():
        if fold == "same":
            other = dataclasses.replace(part, **{name: HORIZON + 1.0})
            with pytest.raises(SimulationError, match=f"different {name}"):
                cls.merged([part, other])
