"""One benchmark process: set-up sample, timed units, or a traced unit.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and reads the
JSON object it prints as its last line.  Roles:

* ``setup`` — time importing ``repro`` and building the workload's first
  ``Simulation`` in this fresh process;
* ``measure`` — run untraced units until ``--seconds`` are spent (at least
  :data:`MIN_UNITS`) and report each, plus this process's peak RSS;
* ``trace`` — the same for half the time, then one unit with the tracer on.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads

#: Fewest untraced units a measuring process runs, whatever ``--seconds`` says.
MIN_UNITS = 3


def setup(workload: workloads.Workload, seed: int) -> dict:
    start = time.perf_counter()
    import repro  # noqa: F401

    workloads.build_first_simulation(workload, seed)
    return {"setup_s": time.perf_counter() - start}


def measure(workload: workloads.Workload, seed: int, seconds: float, min_units: int) -> dict:
    deadline = time.perf_counter() + seconds
    units = []
    while True:
        units.append(workloads.run_unit(workload, seed).as_dict())
        typical = statistics.median(unit["wall_s"] for unit in units)
        if len(units) >= min_units and time.perf_counter() + typical > deadline:
            break
    return {
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload: workloads.Workload, seed: int, seconds: float, spans_path: str) -> dict:
    import tracer as tracing

    result = measure(workload, seed, seconds / 2, min_units=2)
    clean = [unit for unit in result["units"] if not unit["problems"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unit = workloads.run_unit(workload, seed, before_timing=tracer.start, after_timing=tracer.stop)
    finally:
        tracer.uninstall()
    traced = unit.as_dict()
    untraced_wall = statistics.median(u["wall_s"] for u in clean) if clean else 0.0
    untraced_events = clean[0]["events"] if clean else 0
    result["traced_unit"] = traced
    result["per_layer"] = tracing.layer_metrics(
        tracer.spans, unit.counters, unit.wall_s, untraced_wall, untraced_events
    )
    result["layer_table"] = tracing.layer_table(tracer.spans, unit.wall_s)
    result["span_count"] = len(tracer.spans)
    tracer.write(spans_path, {"workload": workload.name, "seed": seed, "wall_s": unit.wall_s})
    return result


def provenance() -> dict:
    """Interpreter and host facts that shape wall-clock numbers."""
    from repro.analysis.profiling import interpreter_features

    return {
        "interpreter": interpreter_features(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        result = setup(workload, args.seed)
    elif args.role == "measure":
        result = measure(workload, args.seed, args.seconds, MIN_UNITS)
    else:
        result = trace(workload, args.seed, args.seconds, args.spans)
    if args.role != "setup":
        result["provenance"] = provenance()
        result["params"] = workload.describe(args.seed)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
