"""The ``cold_cli`` workload: what a user pays at the shell.

One pass starts eleven fresh ``python -m repro`` processes. This module
never imports ``repro``; the worker that runs it only starts processes
and times them, so the costs it sees are the ones a shell user sees:
interpreter, imports, argparse, design, layout, first plan, pool start.
"""

from __future__ import annotations

import hashlib
import resource
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from clock import Clock
from tracing import Spans

#: (metric key, argv, takes --seed). Trial counts are frozen; see
#: workloads.py for the rule.
COMMANDS = (
    ("info", "info -v 7 -k 3", False),
    ("plan", "plan -v 7 -k 3 -f 0", False),
    ("tolerance", "tolerance -v 7 -k 3", False),
    ("rebuild", "rebuild -v 7 -k 3 -f 0", False),
    ("reliability", "reliability -v 7 -k 3 --trials 200", True),
    ("lifecycle", "lifecycle -v 7 -k 3 --trials 200", True),
    ("lifecycle_v19", "lifecycle -v 19 -k 3 --trials 200", True),
    ("lifecycle_jobs2", "lifecycle -v 7 -k 3 --trials 2000 --jobs 2", True),
    ("fleet", "fleet -v 7 -k 3 --arrays 20 --trials 10", True),
    ("serve", "serve -v 7 -k 3 -f 0 --trials 4", True),
    ("serve_throttle", "serve -v 7 -k 3 -f 0 --trials 4 --throttle fixed", True),
)
#: The jobs=1 twin of ``lifecycle_jobs2``; the difference is pool spin-up.
JOBS1_TWIN = ("lifecycle_jobs1", "lifecycle -v 7 -k 3 --trials 2000", True)
IMPORT_PROBES = (
    ("python", "pass"), ("numpy", "import numpy"), ("repro", "import repro"),
)
COMMAND_TIMEOUT_S = 120


def _argv(text: str, takes_seed: bool, seed: int, scale: int) -> List[str]:
    words = text.split()
    if "--trials" in words:
        at = words.index("--trials") + 1
        words[at] = str(max(1, int(words[at]) // scale))
    if takes_seed:
        words += ["--seed", str(seed)]
    return [sys.executable, "-m", "repro"] + words


def fresh_process(
    argv: List[str], env: Optional[Dict[str, str]] = None
) -> Tuple[int, bytes]:
    """Exit code and stdout of one fresh process, run to its end."""
    done = subprocess.run(
        argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S,
    )
    return done.returncode, done.stdout


def import_probe(
    key: str, clock: Clock, spans: Spans, env: Optional[Dict[str, str]] = None
) -> float:
    """Corrected seconds of one ``IMPORT_PROBES`` entry from a cold process."""
    code = dict(IMPORT_PROBES)[key]
    before = clock.total
    with clock.segment(), spans.span("import." + key):
        returncode, _ = fresh_process([sys.executable, "-c", code], env)
    if returncode != 0:
        raise RuntimeError(f"python -c {code!r} exited with {returncode}")
    return clock.total - before


class ColdCli:
    unit = "commands"
    prefix = None

    def __init__(self, seed: int, scale: int, spans: Spans, clock: Clock) -> None:
        self.seed, self.scale, self.spans, self.clock = seed, scale, spans, clock

    def _run(self, key: str, text: str, takes_seed: bool) -> dict:
        """One command in one clock segment, so each is corrected on its own."""
        argv = _argv(text, takes_seed, self.seed, self.scale)
        before = self.clock.total
        with self.clock.segment():
            with self.spans.span("cli." + key, argv=" ".join(argv[1:])):
                code, stdout = fresh_process(argv)
        wall = self.clock.total - before
        return {"key": key, "wall": wall, "code": code, "stdout": stdout}

    def one_pass(self, traced: bool) -> dict:
        return {"commands": [self._run(*command) for command in COMMANDS]}

    def verify(self, out: dict) -> dict:
        failed = [
            f"{c['key']}: exit code {c['code']}, {len(c['stdout'])} bytes of stdout"
            for c in out["commands"]
            if c["code"] != 0 or not c["stdout"].strip()
        ]
        return {
            "work": len(out["commands"]),
            "ops": len(out["commands"]),
            "failed": failed,
            "fingerprint": self.result_digest(out),
        }

    def result_digest(self, out: dict) -> str:
        """Over what the commands printed; there is no result object here."""
        digest = hashlib.sha256()
        for command in out["commands"]:
            digest.update(command["stdout"])
        return digest.hexdigest()[:16]

    def model(self, out: dict) -> Dict[str, float]:
        return {}

    def layer(self, out: dict, rows: List[dict], factor: float) -> Dict[str, float]:
        """Cold wall per command, and pool spin-up from one more process.

        Every command was corrected in its own segment, so *factor*, the
        correction of the pass as a whole, is not applied again.
        """
        walls = {"cli.%s_s" % c["key"]: c["wall"] for c in out["commands"]}
        jobs1 = self._run(*JOBS1_TWIN)["wall"]
        walls["pool.spinup_s"] = walls["cli.lifecycle_jobs2_s"] - jobs1
        return walls

    def cross_check(self) -> Tuple[int, List[str]]:
        return 0, []  # exit codes are checked on every command of every pass


def peak_child_rss_kib() -> int:
    """Largest resident set among the processes started and waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
