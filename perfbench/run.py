"""Time-to-verdict benchmark for variety-forge.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from src/.
One process serves one workload from a single thread.  It makes the
workload's inputs from the seed, resolves what the workload needs (set-up),
then runs passes over the workload's steps until --seconds have passed (at
least one pass), checking every verdict against its known answer.

--trace 0 reports the end-to-end metrics, timed with tracing off.  --trace 1
spends the first half of the time on untraced passes and the second half on
traced ones (at least one pass each), reports the per-layer metrics of the
traced passes with the tracing overhead, and writes every span to
.perfbench_work/trace/<workload>.{json,spans}.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from time import perf_counter

from spans import METRICS, Tracer
from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# set-up is timed in fresh processes, half before and half after the passes,
# so that a slow stretch of the machine does not land on all of them
SETUP_PROBES = 16
PROBE_TIMEOUT = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "query_s.p50": "s",
              "query_s.p99": "s", "peak_rss_mb": "MB"}


class Tally:
    """Outcome of the passes of one phase."""

    def __init__(self):
        self.passes = []      # per pass: step start, step end, step is a query
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.bad_builds = 0

    def report_failure(self, step, out, err):
        if self.failed + self.bad_builds <= 5:
            print("FAILED %s: %s" % (step.label, "".join(
                traceback.format_exception(type(err), err, err.__traceback__))
                if err is not None else "got %r" % (out,)), file=sys.stderr)


def run_pass(engine, steps, cold, tally, clock):
    """One pass.  Its wall time leaves out the benchmark's cache clearing
    (which stands in for a fresh process) and its answer checks."""
    if not cold:
        engine.clear_cache()
    paused = 0.0
    # compact per-step records, so that the benchmark's own memory does not
    # grow peak_rss_mb with the number of passes
    starts, ends, queries = array("d"), array("d"), array("b")
    begin = clock()
    for step in steps:
        if cold:
            t = clock()
            engine.clear_cache()
            paused += clock() - t
        err = out = None
        t0 = clock()
        try:
            out = step.run()
        except Exception as exc:  # a failed query is counted, not fatal
            err = exc
        t1 = clock()
        ok = err is None and step.expect(out)
        paused += clock() - t1
        starts.append(t0)
        ends.append(t1)
        queries.append(step.query)
        if step.query:
            tally.attempted += 1
            tally.failed += not ok
        else:
            tally.bad_builds += not ok
        if not ok:
            tally.report_failure(step, out, err)
    wall = clock() - begin - paused
    tally.passes.append((starts, ends, queries))
    tally.walls.append(wall)
    return wall


def run_phase(engine, workloads, name, resolved, inputs, rng, seconds, clock,
              tracer=None):
    tally = Tally()
    per_pass = []
    cold = workloads.COLD[name]
    start = perf_counter()
    while True:
        steps = workloads.steps(name, resolved, inputs, rng)
        if tracer is not None:
            tracer.begin_pass()
        wall = run_pass(engine, steps, cold, tally, clock)
        if tracer is not None:
            metrics = tracer.end_pass()
            metrics["trace.uncovered_s"] = wall - tracer.covered
            per_pass.append(metrics)
        if perf_counter() - start >= seconds:
            return tally, per_pass


def probe_setup(name, files, trace=False):
    """Start a fresh process that sets the workload up; (seconds, its line)."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, json.dumps(files)]
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError("set-up probe for %s exited with %s" % (name, proc.returncode))
    return elapsed, json.loads(line)


def scaled_setups(speed, name, files, count):
    """Set-up seconds of `count` fresh processes, each scaled by the speed the
    parent sampled while the child ran."""
    out = []
    for _ in range(count):
        begin = speed.clock()
        elapsed, _ = probe_setup(name, files)
        out.append(elapsed * speed.factor(begin, speed.clock()))
    return out


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def scaled_passes(speed, tally):
    """Pass walls and query times, each step scaled by the machine's speed
    while it ran; the benchmark's own time between steps is kept as measured."""
    walls, samples = [], []
    for (starts, ends, queries), wall in zip(tally.passes, tally.walls):
        scaled = [speed.scaled(t0, t1) for t0, t1 in zip(starts, ends)]
        raw = sum(t1 - t0 for t0, t1 in zip(starts, ends))
        walls.append(wall - raw + sum(scaled))
        samples += [s for s, query in zip(scaled, queries) if query]
    return walls, samples


def end_to_end(engine, workloads, name, resolved, inputs, files, rng, seconds):
    with Speedometer() as speed:
        setups = scaled_setups(speed, name, files, SETUP_PROBES // 2)
        tally, _ = run_phase(engine, workloads, name, resolved, inputs, rng, seconds,
                             speed.clock)
        setups += scaled_setups(speed, name, files, SETUP_PROBES - len(setups))
    walls, samples = scaled_passes(speed, tally)
    n = len(samples)
    print("workload=%s passes=%d queries=%d failed=%d failed_share=%s"
          % (name, len(walls), tally.attempted, tally.failed,
             tally.failed / tally.attempted))
    print("query_s samples=%d, %d beyond p99; set-up probes=%d; speed samples=%d, "
          "mean %r s" % (n, n - math.ceil(0.99 * n), len(setups), len(speed.took),
                         statistics.fmean(speed.took)))
    print("unscaled: wall_s = %r s" % statistics.median(tally.walls))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "query_s.p50": statistics.median(samples),
        "query_s.p99": percentile(samples, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return [tally], {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def per_layer(engine, workloads, name, resolved, inputs, files, rng, seconds):
    _, setup_line = probe_setup(name, files, trace=True)
    with Speedometer() as speed:
        plain, _ = run_phase(engine, workloads, name, resolved, inputs, rng,
                             seconds / 2, speed.clock)
        tracer = Tracer(speed.clock)
        tracer.install()
        traced, per_pass = run_phase(engine, workloads, name, resolved, inputs, rng,
                                     seconds / 2, speed.clock, tracer)
    tracer.write(os.path.join(WORK, "trace"), name)
    units = {k: u for k, (u, _) in METRICS.items()}
    metrics = {}
    for key in per_pass[0]:
        unit = units.get(key, "count" if key == "trace.spans" else "s")
        metrics[key] = (statistics.median(p[key] for p in per_pass), unit)
    for key, value in setup_line.items():
        if key != "ready":
            metrics[key] = (value, "s")
    # the overhead compares walls scaled to reference speed, like wall_s
    untraced = statistics.median(scaled_passes(speed, plain)[0])
    wall = statistics.median(scaled_passes(speed, traced)[0])
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced, "s")
    metrics["trace.overhead_share"] = ((wall - untraced) / untraced, "ratio")
    metrics["trace.passes"] = (len(per_pass), "count")
    print("workload=%s untraced passes=%d traced passes=%d spans=%d"
          % (name, len(plain.walls), len(per_pass), len(tracer.span_start)))
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "variety_forge", "__init__.py")):
        print("error: no variety_forge package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from variety_forge import engine
    if args.workload not in workloads.NAMES:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.NAMES)), file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        inputs = workloads.prepare(args.workload, args.seed, workdir)
        files = {k: v for k, v in inputs.items() if isinstance(v, str)}
        resolved = workloads.resolve(args.workload, inputs)
        rng = random.Random(args.seed)
        measure = per_layer if args.trace else end_to_end
        tallies, metrics = measure(engine, workloads, args.workload, resolved,
                                   inputs, files, rng, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0 and not any(t.bad_builds for t in tallies)
    for key, (value, unit) in metrics.items():
        print("%s = %r %s" % (key, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
