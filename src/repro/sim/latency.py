"""The per-request device service model of the serving simulator.

Rebuild speed is one half of availability; the other is what a *read*
costs while the array is degraded. A degraded read fans out to the repair
equation's source disks and completes when the slowest of them responds —
so wide flat codes (read k - 1 disks) suffer where narrow-striped layouts
shrug. :mod:`repro.sim.serve` simulates that (E17 among others); this
module holds the seek + transfer service time every disk queue there
charges per access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.checks import check_finite


@dataclass(frozen=True)
class LatencyModel:
    """Per-request device service time: seek plus transfer."""

    seek_ms: float = 5.0
    unit_bytes: int = 64 * 1024
    bandwidth_bytes_per_s: float = 100 * 1024 * 1024

    def __post_init__(self) -> None:
        check_finite("seek_ms", self.seek_ms, closed=True)
        check_finite("unit_bytes", self.unit_bytes)
        check_finite("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)

    def service_seconds(self) -> float:
        """Total device service time for one unit read."""
        return self.seek_ms / 1000.0 + self.unit_bytes / self.bandwidth_bytes_per_s
