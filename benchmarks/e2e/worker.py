"""One fresh worker process: set-up, warm-up, timed passes, checks.

The harness (``run.py``) starts this file as a subprocess and reads two
JSON lines from its stdout: ``ready`` once set-up is over (the harness
stamps that moment, which gives ``setup_s``), and ``done`` with every
pass, the peak resident set, the cross-checks and the spans.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from typing import List

from clock import Clock


def emit(event: str, **fields: object) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def run_pass(workload, spans, clock, pass_id: int, traced: bool):
    """One pass under the clock: outputs, corrected and raw seconds, first span."""
    spans.enabled, spans.pass_id = traced, pass_id
    mark = len(spans.rows)
    clock.reset()
    with spans.span("pass"):
        out = workload.one_pass(traced)
    return out, (clock.total, clock.raw), mark


def check_pass(workload, spans, out, seconds, mark, first_fingerprint) -> dict:
    """Off the clock: correctness, exact repetition, and layer metrics."""
    wall, raw = seconds
    record = workload.verify(out)
    if first_fingerprint not in (None, record["fingerprint"]):
        record["failed"].append("the result differs from the first pass")
    record.update(
        pass_id=spans.pass_id, traced=spans.enabled, wall_s=wall, raw_wall_s=raw
    )
    if spans.enabled:
        record["layer"] = workload.layer(out, spans.rows[mark:], wall / raw)
    return record


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--setup-probes", type=int, required=True)
    parser.add_argument("--digest", type=int, required=True)
    args = parser.parse_args(argv)

    from tracing import Spans

    spans = Spans(bool(args.trace), "worker")
    clock = Clock()
    if args.workload == "cold_cli":
        from cold_cli import ColdCli, import_probe, peak_child_rss_kib

        workload = ColdCli(args.seed, args.scale, spans, clock)
        # Nothing to warm here: every command is a fresh process anyway.
        probes = [
            import_probe("repro", clock, spans) for _ in range(args.setup_probes)
        ]
        emit("ready", setup_s=statistics.median(probes))
        first = None
        peak_rss_kib = peak_child_rss_kib
    else:
        with clock.segment(), spans.span("setup.import"):
            import repro  # noqa: F401  (timed: the import is part of set-up)
            import workloads
        import_s = clock.raw
        workload = workloads.make(args.workload, args.seed, args.scale, spans, clock)
        start = time.perf_counter()
        with spans.span("setup.build"):
            workload.build()
        build_s = time.perf_counter() - start
        # The warm-up pass fills the plan cache, the rebuild-time memo and
        # the serve tables; it is never traced and never timed as work.
        out, seconds, mark = run_pass(workload, spans, clock, -1, False)
        # The harness stamps this line; it takes the calibrations out of
        # the set-up it timed and corrects the rest by the speed they saw.
        emit("ready", import_s=import_s, build_s=build_s, first_pass_s=seconds[1],
             calibration_s=clock.spent, speed=clock.speed())
        warm = check_pass(workload, spans, out, seconds, mark, None)
        del out
        if warm["failed"]:
            raise SystemExit(f"warm-up pass failed: {warm['failed']}")
        first = warm["fingerprint"]
        peak_rss_kib = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # A traced sim pass runs the program's profiler, so each one gets an
    # untraced twin in the same process to price the tracing.
    if args.trace and workload.prefix:
        modes = (False, True)
    else:
        modes = (bool(args.trace),)
    passes: List[dict] = []
    digest = model = None
    deadline = time.perf_counter() + args.seconds
    last = False
    while not last:
        for traced in modes:
            # No result outlives its pass, so peak RSS is the program's own.
            out, seconds, mark = run_pass(
                workload, spans, clock, len(passes), traced
            )
            rss_kib = peak_rss_kib()
            passes.append(check_pass(workload, spans, out, seconds, mark, first))
            first = first or passes[-1]["fingerprint"]
            last = (
                traced == modes[-1]
                and len(passes) >= args.min_passes
                and time.perf_counter() >= deadline
            )
            if last and args.digest:
                digest, model = workload.result_digest(out), workload.model(out)
            del out
    checks, check_failures = workload.cross_check()
    emit("done", unit=workload.unit, prefix=workload.prefix, passes=passes,
         rss_kib=rss_kib, fingerprint=first, result_digest=digest, model=model,
         checks=checks, check_failures=check_failures, spans=spans.rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
