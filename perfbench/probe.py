"""Set-up probe: a fresh process that imports variety_forge and resolves a workload.

run.py starts it and times it from process start to the JSON line it prints
as soon as the workload is ready.  With --trace the resolve step runs under
the span tracer and the line carries its per-layer self times.

    python3 perfbench/probe.py <workload> '<input files as JSON>' [--trace]
"""

import json
import os
import sys
import time

started = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import variety_forge  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402


def main():
    name, inputs = sys.argv[1], json.loads(sys.argv[2])
    tracer = None
    if "--trace" in sys.argv[3:]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    resolving = time.perf_counter()
    workloads.resolve(name, inputs)
    line = {"ready": True}
    if tracer is not None:
        per = tracer.end_pass()
        line.update({"setup.import_s": imported - started,
                     "setup.resolve_s": time.perf_counter() - resolving,
                     "setup.catalog.lookup_s": per["catalog.lookup_s"],
                     "setup.exprs.parse_s": per["exprs.parse_s"]})
    print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
