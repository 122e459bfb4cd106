"""The two profiler names ``benchmarks/e2e/workloads.py`` still imports.

The profiler is the profiled section of :class:`~repro.obs.telemetry.Telemetry`;
the benchmark harness changes only with the benchmark itself, so its
spelling lives on here until then. Nothing else imports this module.
"""

from repro.obs.telemetry import Telemetry, use_telemetry


def PhaseProfiler() -> Telemetry:
    """A profiling, non-collecting :class:`Telemetry`."""
    return Telemetry(enabled=False, profiling=True)


use_profiler = use_telemetry
