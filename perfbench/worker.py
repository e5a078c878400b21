"""One workload in one fresh process: set up, run rounds, check, report.

Started by run.py; not meant to be run by hand. Modes:
  setup  build what the workload uses, then stop (a set-up sample);
  run    set up, run whole rounds for --seconds, measure, check;
  trace  set up under tracing, run one untraced and one traced round,
         check, and derive the per-layer metrics from the spans.
The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

MODULES = ("cases", "fastscan", "pencil", "report_cli", "spin", "usmall", "weyl")


def load_modules():
    mods = {name: importlib.import_module(f"liecheck.{name}") for name in MODULES}
    src = (ROOT / "src").resolve()
    if src not in Path(mods["cases"].__file__).resolve().parents:
        raise SystemExit(f"liecheck was imported from {mods['cases'].__file__}, not from {src}")
    return mods


def cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Runner:
    def __init__(self, ctx, tmp: Path, sink, tracer=None):
        self.ctx = ctx
        self.tmp = tmp
        self.sink = sink  # takes the CLI's human-readable output
        self.tracer = tracer

    def run_op(self, op, tag):
        """Run one operation; returns (output, wall seconds, cpu seconds)."""
        cli = self.ctx.modules["report_cli"]
        report = self.tmp / f"{tag}.json"
        dump = self.tmp / f"{tag}.csv"
        ckdir = self.tmp / f"{tag}-checkpoint"
        argv = list(op.argv)
        if op.kind == "dump":
            argv += ["--out", str(dump)]
        if op.checkpoint:
            ckdir.mkdir()
            os.environ["LIECHECK_CHECKPOINT_DIR"] = str(ckdir)
        if self.tracer is not None:
            self.tracer.op = tag
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                if op.call is not None:
                    out = op.call()
                else:
                    out = {"rc": cli.main(argv + ["--report", str(report)])}
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_now() - c0
            os.environ.pop("LIECHECK_CHECKPOINT_DIR", None)
        if op.call is None:
            with open(report, encoding="utf-8") as fh:
                results = json.load(fh)["results"]
            results.pop("elapsed_ms", None)
            out["results"] = results
            report.unlink()
        if op.kind == "dump":
            with open(dump, encoding="utf-8", newline="") as fh:
                out["dump"] = fh.read()
            dump.unlink()
        if op.checkpoint:
            files = sorted(ckdir.iterdir())
            out["checkpoint_bytes"] = sum(f.stat().st_size for f in files)
            if len(files) == 1:
                with open(files[0], encoding="utf-8") as fh:
                    out["checkpoint"] = json.load(fh)
            else:
                out["checkpoint"] = {"slices": {}, "files": [f.name for f in files]}
            shutil.rmtree(ckdir)
        return out, wall, cpu

    def _record(self, rnd, op, tag):
        try:
            out, wall, cpu = self.run_op(op, tag)
        except Exception:  # the op failed; the round goes on
            rnd["failed"].append(op.name)
            rnd["outputs"].append(None)
            rnd["op_wall"].append(0.0)
            print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        rnd["outputs"].append(out)
        rnd["op_wall"].append(wall)
        rnd["wall"] += wall
        rnd["cpu"] += cpu

    def run_round(self, ops, label, paired=False):
        """Every op once. With paired=True every op twice in a row, untraced
        then traced, so that drift in machine speed hits both alike; returns
        the untraced and the traced round."""
        rounds = [_new_round() for _ in range(2 if paired else 1)]
        for i, op in enumerate(ops):
            self._record(rounds[0], op, f"{label}-{i}")
            if paired:
                self.tracer.install()
                try:
                    self._record(rounds[1], op, f"{label}-{i}-traced")
                finally:
                    self.tracer.uninstall()
        return rounds if paired else rounds[0]


def _new_round():
    return {"outputs": [], "wall": 0.0, "cpu": 0.0, "op_wall": [], "failed": []}


CHECKS = {
    "verify": (checks.check_verify, checks.check_checkpoint),
    "case_show": (checks.check_case_show,),
    "w1": (checks.check_w1,),
    "validate": (checks.check_validate,),
    "count": (checks.check_count,),
    "bounds": (checks.check_bounds,),
    "sp4r": (checks.check_sp4r,),
    "dump": (checks.check_dump,),
    "spin": (checks.check_spin,),
}


def reference(ctx, op):
    if op.kind == "verify":
        return checks.verify_reference(ctx, op)
    ref = {"golden": ctx.golden}
    if op.kind == "count":
        ref["count"] = checks.count_reference(ctx, op.family)
    elif op.kind == "dump":
        ref.update(checks.dump_reference(ctx, op.family))
    elif op.kind == "spin":
        ref.update(checks.spin_reference(ctx, op))
    return ref


def comparable(out):
    """An output without what may differ between equal runs."""
    if out is None:
        return None
    return {k: v for k, v in out.items() if k not in ("checkpoint", "checkpoint_bytes")}


def check_rounds(ctx, ops, rounds):
    """Check the first round against independent answers, every other round
    against the first, and every check against planted wrong answers.
    Returns (problems, planted faults that went unnoticed)."""
    problems, missed = [], []
    first = rounds[0]["outputs"]
    for op, out in zip(ops, first):
        if out is None:
            continue
        ref = reference(ctx, op)
        found = [p for fn in CHECKS[op.kind] for p in fn(op, out, ref)]
        problems += [f"{op.name}: {p}" for p in found]
        for label, bad in checks.planted_faults(op, out):
            if not any(fn(op, bad, ref) for fn in CHECKS[op.kind]):
                missed.append(f"{op.name}: {label}")
    for rnd in rounds[1:]:
        for op, a, b in zip(ops, first, rnd["outputs"]):
            if a is not None and b is not None and comparable(a) != comparable(b):
                problems.append(f"{op.name}: output differs between rounds")
    return problems, missed


def rates(ops, rnd):
    """Work per second of the three kinds of work, over one round."""
    verify_pts = verify_s = norms = norms_s = counted = count_s = 0
    for op, out, wall in zip(ops, rnd["outputs"], rnd["op_wall"]):
        if out is None:
            continue
        if op.kind == "verify":
            verify_pts += out["results"]["scanned"]
            verify_s += wall
        elif op.kind in ("dump", "spin"):
            norms += out["results"]["count"] if op.kind == "dump" else 1
            norms_s += wall
        elif op.kind == "count":
            counted += out["results"]["count"]
            count_s += wall
    return {
        "verify_mpts_per_s": (verify_pts / verify_s / 1e6 if verify_s else 0.0, "Mpt/s"),
        "exact_norms_per_s": (norms / norms_s if norms_s else 0.0, "1/s"),
        "usmall_kpts_per_s": (counted / count_s / 1e3 if count_s else 0.0, "kpt/s"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    mods = load_modules()
    ctx = Context(ROOT, args.seed, mods)
    wl = WORKLOADS[args.workload]
    tracer = Tracer(mods) if args.mode == "trace" else None
    if tracer:
        tracer.install()
    wl.setup(ctx)
    ready = time.monotonic()
    if tracer:
        tracer.uninstall()
    result = {"ready": ready}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    with open(os.devnull, "w") as sink:
        measure(args, ctx, wl, Runner(ctx, Path(args.tmp), sink, tracer), result)
    Path(args.result).write_text(json.dumps(result))
    return 0


def measure(args, ctx, wl, runner, result):
    """Run the rounds of a run or a traced run, check them, fill result."""
    tracer = runner.tracer
    ops = wl.ops(ctx)
    if args.mode == "run":
        rounds, start = [], time.monotonic()
        while True:
            rounds.append(runner.run_round(ops, f"r{len(rounds)}"))
            elapsed = time.monotonic() - start
            if elapsed + rounds[-1]["wall"] > args.seconds:
                break
        result["metrics"] = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        # Wrappers cannot see inside --jobs workers, so a workload that fans
        # out is traced with --jobs 1; its untraced twin is timed likewise.
        base = runner.run_round(ops, "timed")
        fans_out = getattr(wl, "jobs", 1) > 1
        single, traced = runner.run_round(wl.ops(ctx, jobs=1) if fans_out else ops, "pair", True)
        rounds = [base, single, traced]
        extra = dict(rates(ops, base))
        fanout = single["wall"] / (2 * base["wall"]) if fans_out else 0.0
        extra["fastscan.fanout_efficiency"] = (fanout, "ratio")
        extra["fastscan.checkpoint_bytes"] = (
            sum((o or {}).get("checkpoint_bytes", 0) for o in base["outputs"]), "bytes")
        extra["trace.overhead_s"] = (traced["wall"] - single["wall"], "s")
        extra["trace.overhead_ratio"] = (traced["wall"] / single["wall"] - 1.0, "ratio")
        extra["trace.spans"] = (len(tracer.spans), "count")
        result["metrics"] = layer_metrics(tracer.summary(), extra)
        if args.spans:
            tracer.write(args.spans)
    # every round, the --jobs 1 ones included, must repeat the first
    problems, missed = check_rounds(ctx, ops, rounds)
    result["attempted"] = sum(len(r["outputs"]) for r in rounds)
    result["failed"] = sum(len(r["failed"]) for r in rounds)
    result["problems"] = sorted(set(problems))
    result["missed_faults"] = sorted(set(missed))
    result["rounds"] = len(rounds)
    result["op_wall"] = {op.name: round(w, 3) for op, w in zip(ops, rounds[0]["op_wall"])}


if __name__ == "__main__":
    sys.exit(main())
