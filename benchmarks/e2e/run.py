"""The repo benchmark: one command, every metric, every check.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--check-repeat]
        [--out-dir DIR]

``BENCHMARK.json`` at the repo root names the workloads, the metrics,
their units and their regression bounds; this harness reads them from
there. For each workload it starts fresh worker processes one at a
time (``worker.py``), takes medians over their passes, prints a table
and ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``. README.md in this directory is the manual.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from cold_cli import IMPORT_PROBES, import_probe  # noqa: E402
from tracing import Spans  # noqa: E402

#: Fresh worker processes per untraced run. A pass of ``cold_cli``
#: already is eleven fresh processes and a pass of ``plan_catalog``
#: costs four seconds, so those two get one worker; the driver's time
#: cap does not pay for more.
PROCESSES = {"cold_cli": 1, "plan_catalog": 1}
DEFAULT_PROCESSES = 3
#: Timed passes a worker runs even when its share of ``--seconds`` is
#: spent sooner. ``cold_cli`` has one worker only, so its median needs three.
MIN_PASSES = {"cold_cli": 3}
#: ``python -c "import repro"`` runs behind ``setup_s`` of ``cold_cli``,
#: and runs of each import probe in a traced run.
SETUP_PROBES = 5
IMPORT_PROBE_RUNS = 3
QUICK_SCALE = 20
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'repro'} is missing")
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def scrubbed_env() -> Dict[str, str]:
    """The environment every measured process runs in."""
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("REPRO_JOBS", "REPRO_LEDGER", "REPRO_BENCH_JSONL")
    }
    for pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[pin] = "1"
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def build(env: Dict[str, str]) -> None:
    """Compile the program's bytecode, so no measured process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


def header(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except OSError:
        commit = ""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "seed": seed,
    }


def stat(values: Sequence[float]) -> dict:
    """Median, sample count and interquartile range of *values*."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    spread = iqr / abs(median) if median else 0.0
    return {
        "value": median, "n": len(values), "iqr": iqr, "spread": spread,
        "samples": list(values),
    }


def run_worker(name: str, env: Dict[str, str], spans: Spans, **options: object) -> dict:
    """Start one worker; return its ``done`` message plus set-up facts."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name]
    for key, value in options.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    with spans.span("worker", workload=name):
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, env=env, cwd=ROOT, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        try:
            ready_line = process.stdout.readline()
            ready_at = time.perf_counter()
            rest, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            process.kill()
            process.wait()
            raise
    if process.returncode != 0 or not ready_line or not rest.strip():
        raise SystemExit(f"error: worker for {name} exited with {process.returncode}")
    ready = json.loads(ready_line)
    done = json.loads(rest.strip().splitlines()[-1])
    done["ready"] = ready
    if "setup_s" not in ready:
        # Spawn to ready, less the worker's calibrations, at the speed they saw.
        ready["setup_s"] = (ready_at - start - ready["calibration_s"]) * ready["speed"]
    done["setup_s"] = ready["setup_s"]
    return done


def run_workload(
    name: str, spec: dict, env: Dict[str, str], seed: int, seconds: float,
    trace: bool, quick: bool, out_dir: Path,
) -> dict:
    """Every metric of one workload, with its checks."""
    spans = Spans(trace, "harness")
    processes = 1 if trace or quick else PROCESSES.get(name, DEFAULT_PROCESSES)
    workers = [
        run_worker(
            name, env, spans, seed=seed, seconds=seconds / processes,
            trace=int(trace), scale=QUICK_SCALE if quick else 1,
            min_passes=1 if quick else MIN_PASSES.get(name, 1),
            setup_probes=1 if quick else SETUP_PROBES,
            # result_digest over four million latencies costs seconds: the
            # first worker takes it, the others match its cheap fingerprint.
            digest=int(index == 0),
        )
        for index in range(processes)
    ]
    passes = [record for worker in workers for record in worker["passes"]]
    untraced = [p for p in passes if not p["traced"]] or passes
    unit = workers[0]["unit"]

    failures = [message for p in passes for message in p["failed"]]
    failures += [m for worker in workers for m in worker["check_failures"]]
    if len({worker["fingerprint"] for worker in workers}) > 1:
        failures.append("results differ between processes")

    end_to_end = {
        "work_per_s": stat([p["work"] / p["wall_s"] for p in untraced]),
        "setup_s": stat([worker["setup_s"] for worker in workers]),
        "peak_rss_mib": stat([worker["rss_kib"] / 1024 for worker in workers]),
    }
    result = {
        "workload": name,
        "work_unit": unit,
        "trace": trace,
        "processes": processes,
        "attempted": sum(p["ops"] for p in passes)
        + sum(worker["checks"] for worker in workers),
        "failed": len(failures),
        "failures": failures,
        "result_digest": workers[0]["result_digest"],
        "model": workers[0]["model"],
        "end_to_end": end_to_end,
        # The same passes in uncorrected host seconds, for the record.
        "raw_work_per_s": stat([p["work"] / p["raw_wall_s"] for p in untraced]),
    }
    if trace:
        layer = layer_metrics(workers[0], env, spans, quick)
        layer.update({key: stat([value]) for key, value in result["model"].items()})
        named = {m["name"] for m in spec["per_layer"]}
        result["per_layer"] = {k: v for k, v in layer.items() if k in named}
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"trace-{name}.jsonl", "w") as handle:
            for row in spans.rows + workers[0]["spans"]:
                handle.write(json.dumps(row) + "\n")
    return result


def layer_metrics(
    worker: dict, env: Dict[str, str], spans: Spans, quick: bool
) -> Dict[str, dict]:
    """Medians over the traced passes, plus the per-process layer facts."""
    traced = [p for p in worker["passes"] if p["traced"]]
    keys = sorted({key for p in traced for key in p["layer"]})
    layer = {
        key: stat([p["layer"][key] for p in traced if key in p["layer"]])
        for key in keys
    }
    speed = worker["ready"].get("speed", 1.0)
    for row in worker["spans"]:
        if row["pass"] is None:  # a set-up call into a layer
            layer[row["name"] + "_s"] = stat([(row["end"] - row["start"]) * speed])
    clock = Clock()
    walls: Dict[str, List[float]] = {}
    for key, _ in IMPORT_PROBES:
        for _ in range(1 if quick else IMPORT_PROBE_RUNS):
            walls.setdefault(key, []).append(import_probe(key, clock, spans, env))
    python_s = statistics.median(walls["python"])
    layer["import.python_s"] = stat(walls["python"])
    # numpy's own share: a process that imports it, minus a bare one.
    layer["import.numpy_s"] = stat([wall - python_s for wall in walls["numpy"]])
    layer["import.repro_s"] = stat(walls["repro"])
    prefix = worker["prefix"]
    if prefix:
        ready = worker["ready"]
        for key, part in (
            (".setup_import_s", "import_s"), (".setup_build_s", "build_s"),
            (".first_pass_s", "first_pass_s"),
        ):
            layer[prefix + key] = stat([ready[part] * ready["speed"]])
        plain = [p["wall_s"] for p in worker["passes"] if not p["traced"]]
        overhead = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(plain) - 1
        )
        layer[prefix + ".trace_overhead_frac"] = stat([overhead])
    return layer


def driver_line(result: dict, spec: dict) -> str:
    """The one JSON object the driver reads from the last line."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    # A layer a workload never enters reads 0 there: the "bypass" half of
    # every prediction in the README's table.
    metrics = {
        m["name"]: {
            "value": result[kind].get(m["name"], {"value": 0.0})["value"],
            "unit": m["unit"],
        }
        for m in spec[kind]
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    note = "  (one traced worker; not the gated numbers)" if result["trace"] else ""
    print(f"\n== {result['workload']}: work unit = {result['work_unit']}, "
          f"{result['processes']} process(es){note}")
    rows = list(result["end_to_end"].items())
    rows += sorted(result.get("per_layer", {}).items())
    for name, s in rows:
        print(f"  {name:40s} {s['value']:16.6f} {units.get(name, ''):10s} "
              f"n={s['n']:<3d} iqr={s['iqr']:.6f}")
    print(f"  result_digest {result['result_digest']}   operations attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def run_set(names, spec, env, args, out_dir) -> List[dict]:
    results = []
    for name in names:
        result = run_workload(
            name, spec, env, args.seed, args.seconds, bool(args.trace) or args.quick,
            args.quick, out_dir,
        )
        print_result(result, spec)
        results.append(result)
    return results


def check_repeat(first: List[dict], second: List[dict], spec: dict) -> List[str]:
    """Two sets of runs of one code must agree; returns the disagreements."""
    problems = []
    print("\n== check-repeat: first set | second set | relative difference | bound")
    for a, b in zip(first, second):
        for metric in spec["end_to_end"]:
            x = a["end_to_end"][metric["name"]]["value"]
            y = b["end_to_end"][metric["name"]]["value"]
            diff = abs(x - y) / min(abs(x), abs(y))
            verdict = "ok" if diff <= metric["bound"] else "DISAGREE"
            print(f"  {a['workload']:20s} {metric['name']:14s} {x:14.4f} | {y:14.4f} "
                  f"| {diff:7.2%} | {metric['bound']:.0%} {verdict}")
            if diff > metric["bound"]:
                problems.append(f"{a['workload']} {metric['name']}: {diff:.2%}")
        if a["result_digest"] != b["result_digest"] or a["model"] != b["model"]:
            problems.append(f"{a['workload']}: digest or model.* values changed")
        print(f"  {a['workload']:20s} digest {a['result_digest']} | {b['result_digest']}"
              f"   model {a['model']} | {b['model']}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload, shared by its workers")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics and a trace file")
    parser.add_argument("--quick", action="store_true",
                        help="one traced worker, one pass, sizes / 20: a smoke test")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice and fail unless the two agree")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0

    env = scrubbed_env()
    build(env)
    selected = [args.workload] if args.workload else names
    document = {"header": header(args.seed)}
    print("# " + json.dumps(document["header"]))
    document["results"] = run_set(selected, spec, env, args, args.out_dir)
    problems: List[str] = []
    if args.check_repeat:
        document["repeat"] = run_set(selected, spec, env, args, args.out_dir)
        problems = check_repeat(document["results"], document["repeat"], spec)
        document["disagreements"] = problems
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / "result.json", "w") as handle:
        json.dump(document, handle, indent=1)
    print()
    for result in document["results"]:
        print(driver_line(result, spec))
    failed = sum(r["failed"] for r in document["results"] + document.get("repeat", []))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
