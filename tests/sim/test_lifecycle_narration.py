"""Lifecycle telemetry is narrated from the screen, not emitted by a walk.

A collecting lifecycle run takes the plain run's path (screen, then walk
the flagged trials) and ``_narrate`` derives the walk's vocabulary from
the screen's tallied incidents and the walked trials' logs: counters,
``lifecycle.rebuild_hours`` and the records, in trial order. Each golden
below is the digest of what a simulator that walked every trial and
emitted from inside the walk recorded, per ``(layout, seed, max_events,
lse)``; every kernel and job count must reproduce it.
"""

import hashlib
import json

import pytest

from repro.core.oi_layout import oi_raid
from repro.layouts import Raid50Layout
from repro.obs import Telemetry
from repro.sim.lifecycle import simulate_lifecycle
from repro.sim.rebuild import DiskModel

#: A small, slow disk: rebuilds last hours, so incidents overlap, strike
#: and run past the horizon within a few dozen failures per trial.
DISK = DiskModel(capacity_bytes=5e10, bandwidth_bytes_per_s=2 * 1024 * 1024)

LAYOUTS = {"oi": lambda: oi_raid(7, 3), "raid50": lambda: Raid50Layout(7, 3)}

#: Latent-error rate per byte read: about one strike per five rebuilds.
LSE_RATE = 2e-12

#: 160 trials are three chunks of 64, so ``jobs=2`` goes through the pool;
#: 37 records fall inside the first chunk, 1 000 span chunks.
TRIALS, CHUNK, SMALL_LOG, MID_LOG = 160, 64, 37, 1000


def capture(name, seed, kernel, jobs, max_events, lse):
    """Digest of the merged registry, records, ``dropped`` and the result."""
    tel = Telemetry(max_events=max_events)
    result = simulate_lifecycle(
        LAYOUTS[name](), 3000.0, 2000.0, disk=DISK,
        lse_rate_per_byte=LSE_RATE if lse else 0.0, trials=TRIALS, seed=seed,
        telemetry=tel, kernel=kernel, jobs=jobs, chunk_trials=CHUNK,
    )
    doc = {
        "metrics": tel.metrics.to_dict(),
        "records": tel.events.records,
        "dropped": tel.events.dropped,
        "result": result.to_dict(),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


#: ``(layout, seed, max_events, lse) -> digest``, written by a simulator
#: that walked every trial of a collecting run and emitted from inside.
GOLDEN = {
    ("oi", 0, 50_000, False): "e0cdde65b7ac7c05",
    ("oi", 0, 50_000, True): "0b2e59e4f806616a",
    ("oi", 0, MID_LOG, False): "1c7c245aa731d580",
    ("oi", 0, MID_LOG, True): "3334815d70697a5b",
    ("oi", 0, SMALL_LOG, False): "8aaf05a8856a76fc",
    ("oi", 0, SMALL_LOG, True): "8554e2a7b230c6f8",
    ("oi", 29, 50_000, False): "d453886897031d24",
    ("oi", 29, 50_000, True): "3952f41f751aa500",
    ("oi", 29, MID_LOG, False): "eab71a8ca4ad1fe5",
    ("oi", 29, MID_LOG, True): "58a5584898717c5b",
    ("oi", 29, SMALL_LOG, False): "872d38097ea30fe5",
    ("oi", 29, SMALL_LOG, True): "9c7c0e82c0c7e692",
    ("raid50", 0, 50_000, False): "dcce815e3f4bd712",
    ("raid50", 0, 50_000, True): "e9e5d29d4fa51757",
    ("raid50", 0, MID_LOG, False): "6429b9b6903d4423",
    ("raid50", 0, MID_LOG, True): "3c06c48d9b2e827c",
    ("raid50", 0, SMALL_LOG, False): "2bc5dd9b9aa27196",
    ("raid50", 0, SMALL_LOG, True): "c5abf47cf22bf9d8",
    ("raid50", 29, 50_000, False): "3347079720a7d730",
    ("raid50", 29, 50_000, True): "c9607209966612d4",
    ("raid50", 29, MID_LOG, False): "b3323d2015611cc6",
    ("raid50", 29, MID_LOG, True): "3184dd6f606802db",
    ("raid50", 29, SMALL_LOG, False): "a314278803da75ab",
    ("raid50", 29, SMALL_LOG, True): "57d797628aabd00f",
}


@pytest.mark.parametrize("lse", [False, True])
@pytest.mark.parametrize("max_events", [50_000, MID_LOG, SMALL_LOG])
@pytest.mark.parametrize("seed", [0, 29])
@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_narration_equals_the_walk(name, seed, max_events, lse):
    for kernel in ("event", "vectorized"):
        for jobs in (1, 2):
            digest = capture(name, seed, kernel, jobs, max_events, lse)
            assert digest == GOLDEN[name, seed, max_events, lse], (kernel, jobs)
