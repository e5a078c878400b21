"""liecheck benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-boxes --seed 1 --seconds 10 --trace 0

Run from the root of a liecheck source tree; the package is imported from
its src/ directory. With --trace 0 the last line of standard output holds
the end-to-end metrics; with --trace 1, the per-layer metrics of a traced
run. Every workload runs in fresh processes (see worker.py), and the
scratch files of a run go to .perfbench_out/ at the root. Progress and
problems go to standard error. See README.md in this directory.
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

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper-boxes", "long-slices", "exact-tables")
SETUP_SAMPLES = 3  # fresh processes timed from start to end of set-up
DEADLINE_S = 170.0  # the whole run, all its processes included


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(args, mode, tmp: Path, deadline: float, spans=None):
    """Run worker.py in a fresh process; returns (result, seconds from spawn
    to the end of its set-up)."""
    result = tmp / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--tmp", str(tmp), "--result", str(result),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        # the pool workers of a --jobs scan share the process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{mode} process ran past the deadline") from None
    if code != 0:
        raise RuntimeError(f"{mode} process exited with code {code}")
    data = json.loads(result.read_text())
    return data, data["ready"] - t0


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "liecheck" / "__init__.py").is_file():
        return fail(f"no liecheck sources under {ROOT / 'src'}; run from a liecheck checkout")

    tmp = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            data, _ = spawn(args, "trace", tmp, deadline, spans)
            metrics = data["metrics"]
        else:
            setups = [spawn(args, "setup", tmp, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
            data, ready = spawn(args, "run", tmp, deadline)
            setups.append(ready)
            m = data["metrics"]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": m["wall_s"], "unit": "s"},
                "cpu_s": {"value": m["cpu_s"], "unit": "s"},
                "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, wall in data["op_wall"].items():
        print(f"perfbench:   {wall:8.3f} s  {name}", file=sys.stderr)
    for line in data["problems"]:
        print(f"perfbench: WRONG {line}", file=sys.stderr)
    for line in data["missed_faults"]:
        print(f"perfbench: a check missed a planted fault: {line}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {data['rounds']} round(s), "
        f"{time.monotonic() - start:.1f} s",
        file=sys.stderr,
    )
    correct = not data["problems"] and not data["missed_faults"]
    print(json.dumps({
        "correct": correct,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
