"""Serve draws only the lane planes a trace reads, and the same floats.

``_sample_traces`` draws per purpose lane — the arrival lane's
exponentials under an open loop, the unit lane's uniforms unless the
trace is sequential, the permutation lane's for zipf, the write lane's
when the write coin is not constant. Every array it returns must be
bit-equal to the one read off a full four-lane ``TrialStreams`` plane
(uniforms *and* exponentials of every lane), which ``reference_traces``
below rebuilds the way serve sampled before it drew lazily.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.sim.columnar import SERVE, TrialStreams, lanes
from repro.sim.serve import (
    _LANE_ARRIVAL,
    _LANE_PERM,
    _LANE_UNIT,
    _LANE_WRITE,
    _N_LANES,
    _sample_traces,
    _zipf_cumulative,
)
from repro.workloads.arrivals import ClosedLoop, OpenLoop
from repro.workloads.generators import Request, WorkloadSpec

N_UNITS = 84  # the Fano-plane OI-RAID's user units


def reference_traces(workload, n_units, arrival, trial_lanes):
    """``(arrivals, units, is_write, shared)`` read off the full plane."""
    requests = None
    if isinstance(workload, WorkloadSpec):
        n = workload.n_requests
    else:
        requests = list(workload)
        n = len(requests)
    open_loop = isinstance(arrival, OpenLoop)
    slots = n
    if requests is None and workload.kind == "zipf":
        slots = max(n, n_units)
    streams = TrialStreams(
        trial_lanes, arrival.rate_per_s if open_loop else 1.0, slots
    )
    arrivals = None
    if open_loop:
        arrivals = np.cumsum(streams.exponentials[:, _LANE_ARRIVAL, :n], axis=1)
    if requests is not None:
        units = np.array([r.unit for r in requests], dtype=np.int64)
        is_write = np.array([bool(r.is_write) for r in requests])
        return arrivals, units, is_write, True
    k, u, wf = len(trial_lanes), streams.uniforms, workload.write_fraction
    if workload.kind == "sequential":
        units = (workload.start + np.arange(n)) % n_units
        return arrivals, np.broadcast_to(units, (k, n)), np.full((k, n), wf >= 0.5), False
    if workload.kind == "uniform":
        units = np.minimum((u[:, _LANE_UNIT, :n] * n_units).astype(np.int64), n_units - 1)
    else:
        cumulative, total = _zipf_cumulative(n_units, workload.skew)
        perm = np.argsort(u[:, _LANE_PERM, :n_units], axis=1, kind="stable")
        idx = np.searchsorted(np.asarray(cumulative), u[:, _LANE_UNIT, :n] * total)
        units = np.take_along_axis(perm, np.minimum(idx, n_units - 1), axis=1)
    if 0.0 < wf < 1.0:
        is_write = u[:, _LANE_WRITE, :n] < wf
    else:
        is_write = np.full((k, n), wf >= 1.0)
    return arrivals, units, is_write, False


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


WORKLOADS = {
    f"{kind}-w{wf}": WorkloadSpec(kind=kind, n_requests=60, write_fraction=wf, skew=1.3)
    for kind in ("uniform", "zipf", "sequential")
    for wf in (0.0, 0.3, 1.0)
}
# Fewer requests than units: the permutation lane outruns the unit lane.
WORKLOADS["zipf-short"] = WorkloadSpec(kind="zipf", n_requests=40, write_fraction=0.3)
WORKLOADS["explicit"] = [
    Request(unit=(5 * i) % N_UNITS, is_write=i % 4 == 0) for i in range(50)
]
ARRIVALS = {"open": OpenLoop(250.0), "closed": ClosedLoop(4, think_s=0.001)}


@pytest.mark.parametrize("trials", [1, 16])
@pytest.mark.parametrize("arrival", list(ARRIVALS))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_lazy_planes_are_the_full_planes_floats(workload, arrival, trials):
    # A window that does not start at trial 0: lanes are globally keyed.
    trial_lanes = lanes(11, SERVE, 5, trials, _N_LANES)
    got = _sample_traces(WORKLOADS[workload], N_UNITS, ARRIVALS[arrival], trial_lanes)
    arrivals, units, is_write, shared = reference_traces(
        WORKLOADS[workload], N_UNITS, ARRIVALS[arrival], trial_lanes
    )
    assert got.shared is shared
    assert (got.arrivals is None) == (arrivals is None)
    if arrivals is not None:
        assert same_bits(got.arrivals, arrivals)
    assert same_bits(got.units, units)
    assert same_bits(got.is_write, is_write)


def test_a_chunk_is_rows_of_the_whole():
    """Sixteen trials sampled at once are the sixteen sampled one by one."""
    spec = WorkloadSpec(kind="zipf", n_requests=70, write_fraction=0.3)
    whole = _sample_traces(spec, N_UNITS, OpenLoop(200.0), lanes(3, SERVE, 0, 16, _N_LANES))
    for trial in range(16):
        one = _sample_traces(
            spec, N_UNITS, OpenLoop(200.0), lanes(3, SERVE, trial, 1, _N_LANES)
        )
        assert one.row(0) == whole.row(trial)
