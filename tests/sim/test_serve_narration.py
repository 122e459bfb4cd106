"""Serve telemetry is narrated from the sweep, not emitted by a walk.

A collecting serve run takes the plain run's path (walk the rebuild,
sweep the rest) and ``_narrate`` derives the walk's vocabulary from the
result and the sweep's per-queue tallies: counters, the latency /
utilization / rebuild-time histograms, and the ``rebuild_drained`` and
``queue_report`` records. Each golden below is the digest of what a
simulator that walked every trial to its end emitted, per ``(config,
seed, max_events)``; every kernel and job count must reproduce it. The
``engine.*`` heap counters are left out: a sweep has no heap.
"""

import hashlib
import json
import math

import pytest

from repro.obs import Telemetry
from repro.sim.serve import (
    AdaptiveThrottle,
    FixedRateThrottle,
    IdleSlotThrottle,
    simulate_serve,
)
from repro.workloads.arrivals import ClosedLoop, OpenLoop
from repro.workloads.generators import Request, WorkloadSpec

ZIPF_WRITES = WorkloadSpec(
    kind="zipf", n_requests=80, skew=1.2, write_fraction=0.3
)

#: name -> (simulate_serve keywords, throttle factory or None).
CONFIGS = {
    "open": (dict(workload=WorkloadSpec(n_requests=80)), None),
    "fixed-zipf": (dict(workload=ZIPF_WRITES), lambda: FixedRateThrottle(250.0)),
    "idle": (
        dict(workload=WorkloadSpec(n_requests=80, write_fraction=0.25)),
        IdleSlotThrottle,
    ),
    "adaptive": (
        dict(workload=WorkloadSpec(n_requests=80)),
        lambda: AdaptiveThrottle(target_p99_ms=15.0, window=20),
    ),
    "closed-think": (
        dict(
            workload=WorkloadSpec(n_requests=80),
            arrival=ClosedLoop(4, think_s=0.002),
        ),
        None,
    ),
    "dedicated": (
        dict(workload=ZIPF_WRITES, failed_disks=(0, 5), sparing="dedicated"),
        lambda: FixedRateThrottle(400.0),
    ),
    "healthy": (
        dict(workload=ZIPF_WRITES, failed_disks=()),
        lambda: FixedRateThrottle(250.0),
    ),
    "explicit": (
        dict(workload=[
            Request(unit=(7 * i) % 40, is_write=i % 3 == 0) for i in range(70)
        ]),
        lambda: FixedRateThrottle(400.0),
    ),
    "outlasts": (dict(workload=ZIPF_WRITES), lambda: FixedRateThrottle(2.0)),
    "infinite-rate": (
        dict(workload=ZIPF_WRITES, arrival=OpenLoop(50.0), rebuild_batches=3),
        lambda: FixedRateThrottle(math.inf),
    ),
}

#: A cap that falls inside the first chunk of every config.
SMALL_LOG = 37


def capture(layout, name, seed, kernel, jobs, max_events):
    """Digest of the merged registry (minus ``engine.*``), records, dropped."""
    kwargs, throttle = CONFIGS[name]
    kwargs = {"failed_disks": (0,), "arrival": OpenLoop(300.0), **kwargs}
    tel = Telemetry.collecting(max_events=max_events)
    simulate_serve(
        layout, throttle=throttle and throttle(), trials=5, seed=seed,
        kernel=kernel, jobs=jobs, telemetry=tel, **kwargs
    )
    metrics = tel.metrics.to_dict()
    doc = {
        "counters": {
            k: v for k, v in metrics["counters"].items()
            if not k.startswith("engine.")
        },
        "histograms": metrics["histograms"],
        "records": tel.events.records,
        "dropped": tel.events.dropped,
    }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``(config, seed, max_events) -> digest``, written by a simulator that
#: walked every trial to its end and emitted from inside the walk.
GOLDEN = {
    ("adaptive", 0, 50_000): "92bf911f205d4cc5",
    ("adaptive", 0, SMALL_LOG): "8e825392b25232c1",
    ("adaptive", 29, 50_000): "a5f431ea0aaf7a34",
    ("adaptive", 29, SMALL_LOG): "1a6e82906a351e8b",
    ("closed-think", 0, 50_000): "464850cb56450e4e",
    ("closed-think", 0, SMALL_LOG): "9252b7bc35c1cd41",
    ("closed-think", 29, 50_000): "0aeabd76a4863ac7",
    ("closed-think", 29, SMALL_LOG): "a8ff1699792c7ec8",
    ("dedicated", 0, 50_000): "6add2300f0193696",
    ("dedicated", 0, SMALL_LOG): "f33762f9563b92bb",
    ("dedicated", 29, 50_000): "46403af60d29ee47",
    ("dedicated", 29, SMALL_LOG): "313778028f30f95e",
    ("explicit", 0, 50_000): "df1a05ea2c388ea9",
    ("explicit", 0, SMALL_LOG): "1cfac75c36e8384b",
    ("explicit", 29, 50_000): "bb5fb3a4830f49ac",
    ("explicit", 29, SMALL_LOG): "010cbe2dae8b06ea",
    ("fixed-zipf", 0, 50_000): "d6cf53e48dbe217b",
    ("fixed-zipf", 0, SMALL_LOG): "278e9e4f91a8d562",
    ("fixed-zipf", 29, 50_000): "989339173b3f0149",
    ("fixed-zipf", 29, SMALL_LOG): "699ceb9a0fc58c6e",
    ("healthy", 0, 50_000): "f9191f2087f30a95",
    ("healthy", 0, SMALL_LOG): "3641095e24db54c2",
    ("healthy", 29, 50_000): "2216866de7d31186",
    ("healthy", 29, SMALL_LOG): "16e16f6b2431c2bf",
    ("idle", 0, 50_000): "c18d990052c4208d",
    ("idle", 0, SMALL_LOG): "5a283439c510311f",
    ("idle", 29, 50_000): "755edb773538da49",
    ("idle", 29, SMALL_LOG): "d49918c7044ce86f",
    ("infinite-rate", 0, 50_000): "4141e1be6d4ac093",
    ("infinite-rate", 0, SMALL_LOG): "5d4c9f8fddf7bcc7",
    ("infinite-rate", 29, 50_000): "c911e206ebfdbbeb",
    ("infinite-rate", 29, SMALL_LOG): "2f1dbeecfd02cc7a",
    ("open", 0, 50_000): "6d5d212c3788f7ad",
    ("open", 0, SMALL_LOG): "4d35ec97ed0f578a",
    ("open", 29, 50_000): "18b355c4940827d7",
    ("open", 29, SMALL_LOG): "f960cd9659798902",
    ("outlasts", 0, 50_000): "1b8b5038fa80ea96",
    ("outlasts", 0, SMALL_LOG): "0e92bbad2b236eee",
    ("outlasts", 29, 50_000): "5bf2a22107ea11fc",
    ("outlasts", 29, SMALL_LOG): "d9087750df50ab5e",
}


@pytest.mark.parametrize("max_events", [50_000, SMALL_LOG])
@pytest.mark.parametrize("seed", [0, 29])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_narration_equals_the_walk(fano_layout, name, seed, max_events):
    for kernel in ("event", "vectorized"):
        for jobs in (1, 2):
            digest = capture(fano_layout, name, seed, kernel, jobs, max_events)
            assert digest == GOLDEN[name, seed, max_events], (kernel, jobs)
