#!/usr/bin/env python3
"""The mdsforge benchmark: one command, four CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ``mdsforge`` calls (see workloads.py) run as
a closed loop: one client, each call waiting for the previous one, in a fresh
Python process that calls ``mdsforge.cli.main(argv)`` in-process with stdout
captured.  Every answer is checked.

``--trace 0`` reports the end-to-end metrics of untraced passes (median over
the passes of one run, or over the set-up samples).  Pass times are gated as
ratios to a reference loop sampled during each pass (worker.SpeedProbe);
plain seconds are printed alongside.  ``--trace 1`` reports the
per-layer metrics of a separate traced run.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Per-call stdout
sha256 values and the environment go to ``.perfbench_out/``; spans of the
first traced pass go there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import DOMINANT, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

#: Fresh processes that only set up, besides the measuring one; half run
#: before it and half after, so a drift in machine speed during the run
#: shows in both tails of the set-up samples rather than in their median.
SETUP_SAMPLES = 10
#: Every run ends within this many seconds or fails.
DEADLINE_S = 170.0
#: Untraced pass times in plain seconds, reported next to the gated ratios.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s"}


def metric_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class WorkerFailed(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def spawn(mode: str, args, workdir: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise WorkerFailed("out of time")
    t0 = perf_counter()
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", workdir,
           "--t0", repr(t0), "--result", result]
    if args.quick:
        cmd.append("--quick")
    try:
        subprocess.run(cmd, stdout=sys.stderr, timeout=remaining, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise WorkerFailed(str(exc)) from exc
    with open(result) as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def collect(args) -> tuple[dict, dict]:
    """Run the workers; return (result of the measuring worker, samples)."""
    deadline = perf_counter() + DEADLINE_S
    base = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            res = spawn("trace", args, os.path.join(base, "trace"), deadline)
            return res, res["samples"]
        def setup(i):
            return spawn("setup", args, os.path.join(base, f"setup{i}"), deadline)["setup_s"]

        half = SETUP_SAMPLES // 2
        setups = [setup(i) for i in range(half)]
        res = spawn("e2e", args, os.path.join(base, "e2e"), deadline)
        setups += [res["setup_s"]] + [setup(i) for i in range(half, SETUP_SAMPLES)]
        return res, {"wall_ref": res["wall_refs"], "cpu_ref": res["cpu_refs"],
                     "setup_s": setups, "peak_rss_mb": [res["peak_rss_kb"] / 1024],
                     "wall_s": res["walls"], "cpu_s": res["cpus"]}
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))
        except OSError:
            pass  # another run still uses it, or it is gone


def report(args, res: dict, samples: dict, units: dict) -> dict:
    """Print the human-readable report and write the run record; return metrics."""
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "quick": args.quick, "python": platform.python_version(),
           "nproc": os.cpu_count(), "git_sha": git_sha()}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    # Raw seconds are shown too, but BENCHMARK.json gates the *_ref ratios.
    shown = {**units, **({} if args.trace else RAW_UNITS)}
    for name, unit in shown.items():
        values = samples[name]
        value = statistics.median(values)
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        if len(values) > 1:
            q1, q3 = quartiles(values)
            spread = f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"
        else:
            spread = "1 sample"
        note = "" if name in units else " (not gated)"
        print(f"  {name:<32} {value:>14.6g} {unit:<9} {spread}{note}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g} {'fraction':<9} "
          f"{failed} of {attempted} calls")
    if args.trace:
        name = DOMINANT[args.workload]
        share = metrics["trace.dominant_frac"]["value"]
        verdict = "confirmed" if share > 0.5 else "NOT confirmed"
        print(f"  dominant layer {name}: {share:.3f} of the traced pass, > 0.5 {verdict}")
    digest = hashlib.sha256("".join(c["stdout_sha256"] or "" for c in res["calls"]).encode())
    print(f"  stdout digest {digest.hexdigest()} over {len(res['calls'])} calls")
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "samples": samples, "metrics": metrics,
                   "problems": res["problems"], "calls": res["calls"]}, fh, indent=1)
    print(f"  record {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring time of one run (at least three passes are made)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one pass over a reduced call list (self-tests)")
    args = ap.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # worker, and through collect(), which removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mdsforge", "cli.py")):
        print(f"error: no mdsforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        res, samples = collect(args)
    except WorkerFailed as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = report(args, res, samples, units)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
