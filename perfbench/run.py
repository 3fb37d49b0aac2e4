"""decaylab benchmark: one workload, one JSON line of metrics.

    python3 perfbench/run.py --workload compact-2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; decaylab is imported from its `src/`.
With `--trace 0` the last line of stdout holds the end-to-end metrics
(setup_s, wall_s, node_steps_per_s, peak_rss_mb), with `--trace 1` the
per-layer metrics of a traced run.  `--smoke` shortens every horizon for a
quick end-to-end check of the harness; its figures are not comparable.

Set-up is measured in fresh processes: each spawns, imports decaylab and
loads the workload's configs, and reports the time from spawn to loaded; the
metric is the median over SETUP_PROBES probes and the workload process.
The workload runs in one process of its own (worker.py).  Every process this
command starts has exited, with no descendant left in its process group,
before the metrics are printed; otherwise the command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"


class Children:
    """Worker processes, each leading its own process group."""

    def __init__(self):
        self.procs = []

    def run(self, argv: list[str], timeout: float) -> None:
        proc = subprocess.Popen(argv, stdout=sys.stderr,
                                start_new_session=True)
        self.procs.append(proc)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker exceeded {timeout:.0f} s: {argv}")
        if code != 0:
            raise SystemExit(f"worker exited with {code}: {argv}")

    def stop_all(self) -> None:
        for proc in self.procs:
            _kill_group(proc.pid)
            proc.wait()

    def leftovers(self) -> list[str]:
        """Anything this command started that is still alive."""
        left = [f"pid {p.pid}" for p in self.procs if p.poll() is None]
        left += [f"process group {p.pid}" for p in self.procs
                 if _group_alive(p.pid)]
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            left.append(f"unwaited child {pid}" if pid else "running child")
        except ChildProcessError:
            pass
        return left


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shortened horizons: checks the harness, not speed")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "decaylab" / "__init__.py").is_file():
        print(f"error: run from a checkout of decaylab; {root}/src/decaylab "
              "is missing", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    out_root = root / OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    children = Children()
    try:
        base = [sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--root", str(root)] + (["--smoke"] if args.smoke else [])

        def spawn(tag: str, extra: list[str]) -> dict:
            result = out_root / f"{tag}.json"
            children.run(base + extra + [
                "--out", str(out_root / tag), "--result", str(result),
                "--spawned", repr(time.monotonic())], CHILD_TIMEOUT_S)
            return json.loads(result.read_text())

        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(f"setup{i}", ["--setup-only"])["setup_s"]
                  for i in range(probes)]
        work = spawn("work", [])
        setups.append(work["setup_s"])
        left = children.leftovers()
    finally:
        children.stop_all()
        shutil.rmtree(out_root, ignore_errors=True)

    if left:
        print(f"error: processes left running: {left}", file=sys.stderr)
        return 3
    for hook in work["missing_hooks"]:
        print(f"warning: no {hook} to trace", file=sys.stderr)
    for op, messages in sorted(work["failures"].items()):
        print(f"FAILED {op}: {'; '.join(messages)}", file=sys.stderr)

    metrics = dict(work["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    failed = len(work["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": work["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
