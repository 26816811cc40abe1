"""One workload in a fresh Python process: set-up, then timed or traced passes.

run.py starts this file once per measurement; it writes its findings as JSON
to the file named by ``--result``.  Modes:

- ``setup``: import ``mdsforge`` and write the inputs, then stop (a set-up
  time sample).
- ``e2e``: set up, then run closed-loop passes over the call list, untraced
  and each under a :class:`SpeedProbe`, for about ``--seconds`` seconds (at
  least three passes).
- ``trace``: set up under the tracer, then alternate untraced and traced
  passes, then one pass counting field operations, then the micro rows.

Set-up time runs from ``--t0``, a ``time.perf_counter()`` reading the parent
took just before starting this process, to the end of input writing.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter, process_time

import micro
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 3
#: The reference loop takes about 2 ms on a 2.1 GHz Xeon with Python 3.11.
REF_ITERATIONS = 1000
PROBE_INTERVAL_S = 0.2


def run_call(cli, argv):
    """Call ``cli.main(argv)`` in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a raise is a wrong answer, not a crash
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def cpu_seconds() -> float:
    """User+sys CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed_pass(cli, calls):
    cpu0, t0 = cpu_seconds(), perf_counter()
    outs = [run_call(cli, c.argv) for c in calls]
    return perf_counter() - t0, cpu_seconds() - cpu0, outs


class Answers:
    """Checks every call of every pass; keeps each call's stdout sha256."""

    def __init__(self, calls):
        self.calls = calls
        self.shas = [None] * len(calls)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outs) -> None:
        for i, (call, (rc, out)) in enumerate(zip(self.calls, outs)):
            self.attempted += 1
            found = workloads.check_answer(call, rc, out)
            sha = hashlib.sha256(out.encode()).hexdigest()
            if self.shas[i] is None:
                self.shas[i] = sha
            elif self.shas[i] != sha:
                found.append("stdout differs from an earlier pass")
            if call.same_as is not None and out != outs[call.same_as][1]:
                found.append("stdout differs from the --jobs 1 run")
            if found:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{call.label}: {'; '.join(found)}")

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "calls": [{"label": c.label, "exit_code": c.exit_code, "stdout_sha256": s}
                      for c, s in zip(self.calls, self.shas)],
        }


def _enough(times: list[float], start: float, seconds: float, minimum: int) -> bool:
    """Stop once `minimum` samples exist and another would overrun `seconds`."""
    return len(times) >= minimum and perf_counter() - start + statistics.median(times) > seconds


class SpeedProbe:
    """Samples the machine's current speed while a pass runs.

    On a shared machine the speed drifts by tens of percent over seconds to
    minutes.  A SIGALRM handler in the measuring thread times a short fixed
    pure-Python loop every PROBE_INTERVAL_S, plus once before and once after
    the pass.  A pass time divided by the mean loop time of its own samples
    does not drift with the machine.  The loop is timed by the CPU clock:
    while ``--jobs`` workers hold both CPUs, a tick waits for a CPU, and that
    wait says nothing about the machine's speed.  The ticks inside the pass
    are subtracted from its time.  Interval timers are not inherited across
    fork, so ``--jobs`` workers are not interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self) -> tuple[float, float]:
        w0, c0 = perf_counter(), process_time()
        reference_loop()
        dw, dc = perf_counter() - w0, process_time() - c0
        self.samples.append(dc)
        return dw, dc

    def _tick(self, signum, frame) -> None:
        dw, dc = self._sample()
        self.spent_wall += dw
        self.spent_cpu += dc

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def reference_s(self) -> float:
        return statistics.mean(self.samples)


_REF_VECTORS = [tuple((7 * i + j) % 5 for j in range(3)) for i in range(125)]


def reference_loop() -> None:
    """Fixed work of the kinds the program's field arithmetic does: digit
    tuples added through zip, a dict keyed by tuple pairs, integer mods.
    It calls nothing in mdsforge, so program changes do not move it."""
    cache: dict = {}
    acc, n = (0, 0, 0), 0
    for i in range(REF_ITERATIONS):
        a = _REF_VECTORS[i % 125]
        acc = tuple((x + y) % 5 for x, y in zip(acc, a))
        key = (a, acc) if a <= acc else (acc, a)
        if key not in cache:
            cache[key] = (a[0] * acc[0] + n) % 5
        n = (n * 31 + i) % 1000003


def measure(cli, calls, args) -> dict:
    answers = Answers(calls)
    walls, cpus, wall_refs, cpu_refs = [], [], [], []
    start = perf_counter()
    while True:
        with SpeedProbe() as probe:
            wall, cpu, outs = timed_pass(cli, calls)
        wall -= probe.spent_wall
        cpu -= probe.spent_cpu
        answers.check(outs)
        walls.append(wall)
        cpus.append(cpu)
        wall_refs.append(wall / probe.reference_s())
        cpu_refs.append(cpu / probe.reference_s())
        if args.quick or _enough(walls, start, args.seconds, MIN_PASSES):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"walls": walls, "cpus": cpus, "wall_refs": wall_refs, "cpu_refs": cpu_refs,
            "peak_rss_kb": peak_kb, **answers.record()}


def trace(mods, workload, setup_spans, args) -> dict:
    cli, calls = mods["cli"], workload.calls
    answers = Answers(calls)
    sites = tracer.binding_sites(mods)
    rows, plain, traced, pair_times, kept = [], [], [], [], None
    start = perf_counter()
    while True:
        t = perf_counter()
        with SpeedProbe() as probe:
            wall, _, outs = timed_pass(cli, calls)
        answers.check(outs)
        plain.append((wall - probe.spent_wall) / probe.reference_s())
        tr = tracer.Tracer()
        tr.install(sites)
        try:
            with SpeedProbe() as probe:
                wall, _, outs = timed_pass(cli, calls)
        finally:
            tr.uninstall()
        answers.check(outs)
        traced.append((wall - probe.spent_wall) / probe.reference_s())
        row = tracer.layer_metrics(tr.spans)
        # Spans include the probe's ticks, so they are shares of the gross pass.
        row["trace.pass_s"] = wall
        row["trace.dominant_frac"] = row[workloads.DOMINANT[workload.name]] / wall
        rows.append(row)
        kept = kept or tr.spans
        pair_times.append(perf_counter() - t)
        if args.quick or _enough(pair_times, start, args.seconds, 1):
            break

    counter = tracer.OpCounter(mods["field"].FieldContext)
    counter.install()
    try:
        _, _, outs = timed_pass(cli, calls)
    finally:
        counter.uninstall()
    answers.check(outs)

    # Per-pass rows keep one value per traced pass; the rest are single values.
    samples = {name: [row[name] for row in rows] for name in rows[0]}
    single = {
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
        "families.construct_s": tracer.summarize(setup_spans).get(
            "families.construct", {}).get("incl", 0.0),
        **{f"field.{op}_calls": n for op, n in counter.counts.items()},
        **micro.field_ns(mods["field"].make_field, args.seed),
    }
    single["jsonio.roundtrip_us"], problems = micro.jsonio_roundtrip_us(
        mods["jsonio"], workload.codes)
    answers.attempted += 1
    answers.failed += bool(problems)
    answers.problems += problems
    single["cli.errors"] = answers.failed
    samples.update({name: [value] for name, value in single.items()})

    _write_spans(args, kept)
    return {"samples": samples, **answers.record()}


def _write_spans(args, spans) -> None:
    """Spans of the first traced pass, one row each:
    [name, start, end, parent index, cli.main call id, work]."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json.gz")
    with gzip.open(path, "wt") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "call", "work"],
                   "spans": [s.row() for s in spans]}, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=["setup", "e2e", "trace"], required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--quick", action="store_true", help="one pass over the reduced call list")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mdsforge import certify, cli, conditions, families, field, jsonio

    mods = {"cli": cli, "certify": certify, "conditions": conditions,
            "families": families, "jsonio": jsonio, "field": field}

    def construct(argv):
        return run_call(cli, argv)[0]

    setup_tracer = tracer.Tracer()
    if args.mode == "trace":
        setup_tracer.install(tracer.binding_sites(mods))
    try:
        workload = workloads.build(args.workload, args.seed, args.workdir, construct)
    finally:
        setup_tracer.uninstall()
    setup_s = perf_counter() - args.t0
    if args.quick:
        workload = workload.reduced()

    result = {"setup_s": setup_s}
    if args.mode == "e2e":
        result.update(measure(cli, workload.calls, args))
    elif args.mode == "trace":
        result.update(trace(mods, workload, setup_tracer.spans, args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
