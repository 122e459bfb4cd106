#!/usr/bin/env python
"""Quickstart: build an OI-RAID array, survive failures, rebuild fast.

Walks the full public-API surface in a couple of minutes of simulated
storage-operator life:

1. pick a configuration (Fano plane: 7 groups x 3 disks = 21 disks),
2. store data, 3. lose three disks at once, 4. keep serving reads,
5. rebuild in parallel, 6. check what the recovery cost,
7. serve a live request stream while a rebuild runs in the background.

Run:  python examples/quickstart.py
"""

import json

from repro import (
    FixedRateThrottle,
    OIRAIDArray,
    Scenario,
    WorkloadSpec,
    recovery_summary,
    run,
)
from repro.obs import Telemetry, validate_metrics_doc


def main() -> None:
    # 1. Build the paper's reference configuration: a (7,7,3,3,1)-BIBD
    # outer layer over 7 groups of 3 disks, RAID5 in both layers.
    array = OIRAIDArray.build(v=7, k=3, unit_bytes=512, cycles=2)
    layout = array.oi_layout
    print("OI-RAID array")
    print(f"  disks            : {layout.n_disks} "
          f"({layout.design.v} groups of {layout.g})")
    print(f"  BIBD             : (v,b,r,k,λ) = {layout.design.parameters}")
    print(f"  fault tolerance  : any {array.fault_tolerance} disk failures")
    print(f"  storage efficiency: {layout.storage_efficiency:.1%}")

    # 2. Store something.
    message = b"OI-RAID tolerates any three disk failures."
    array.write(0, message)
    assert array.verify(), "parity must be consistent after writes"

    # 3. Fail three disks -- including two in the same group.
    for disk in (0, 1, 9):
        array.fail_disk(disk)
    print(f"\nfailed disks: {array.failed_disks}")

    # 4. Reads still work, transparently decoding through both layers.
    recovered = bytes(array.read(0, len(message)))
    assert recovered == message
    print(f"degraded read   : {recovered.decode()!r}")

    # 5. Rebuild everything onto replacements.
    regenerated = array.reconstruct()
    assert array.verify()
    print(f"rebuilt units   : {regenerated}; array healthy again")

    # 6. What did recovery cost? Compare with the RAID5 baseline.
    summary = recovery_summary(layout, [0])
    print("\nsingle-disk recovery profile")
    print(f"  surviving disks participating: "
          f"{summary.participating_disks}/{layout.n_disks - 1}")
    print(f"  busiest disk reads           : "
          f"{summary.max_read_fraction:.1%} of one disk")
    print(f"  speedup vs RAID5 rebuild     : "
          f"{summary.speedup_vs_raid5:.2f}x")
    print(f"  read load imbalance (CV)     : {summary.load_cv():.3f}")

    # 7. Online serving: the same layout under a foreground request
    # stream while a throttled rebuild of disk 0 runs in the background.
    # One Scenario object + run() is the whole API; telemetry collects
    # metrics that must validate against the repro.metrics/1 schema.
    telemetry = Telemetry()
    served = run(
        Scenario(
            kind="serve",
            layout=layout,
            workload=WorkloadSpec(kind="uniform", n_requests=500),
            faults=(0,),
            throttle=FixedRateThrottle(300.0),
            trials=1,
            telemetry=telemetry,
        )
    )
    doc = json.loads(telemetry.metrics.to_json())
    validate_metrics_doc(doc)  # raises if the document is malformed
    print("\nonline serving under rebuild (1 failed disk)")
    print(f"  requests served              : {served.requests}")
    print(f"  p99 latency                  : {served.p99_ms:.2f} ms")
    print(f"  read amplification           : "
          f"{served.read_amplification:.3f}x")
    print(f"  rebuild finished in          : "
          f"{served.rebuild_seconds:.3f} s (sim time)")
    assert served.rebuild_complete
    print("  telemetry                    : valid repro.metrics/1 document")


if __name__ == "__main__":
    main()
