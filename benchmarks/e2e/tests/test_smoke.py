"""Smoke test: ``run.py --quick`` emits everything ``BENCHMARK.json`` names.

Run with ``python -m pytest benchmarks/e2e/tests -q``. It is not part of
the tier-1 suite (``pyproject.toml`` collects ``tests/`` only).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_emits_every_name(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE.parent / "run.py"), "--quick",
         "--out-dir", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    workloads = [w["name"] for w in spec["workloads"]]
    assert len(lines) == len(workloads)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for line in lines:
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1
        # A quick run is traced, so the last lines carry the layer metrics.
        assert set(line["metrics"]) == set(per_layer)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == per_layer[name]

    for name in workloads + list(per_layer) + [m["name"] for m in spec["end_to_end"]]:
        assert NAME.fullmatch(name), name
        assert name in done.stdout, name

    document = json.loads((tmp_path / "result.json").read_text())
    assert [r["workload"] for r in document["results"]] == workloads
    measured = set()
    for result in document["results"]:
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert (tmp_path / f"trace-{result['workload']}.jsonl").is_file()
        measured |= set(result["per_layer"])
    # Every layer metric is measured by at least one workload.
    assert measured == set(per_layer)
    assert {"nproc", "python", "numpy", "commit", "seed"} <= set(document["header"])
