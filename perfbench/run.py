"""Wall-clock benchmark of the simulator: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload central-rw --seed 1 --seconds 25 --trace 0

Each run starts fresh Python processes (``worker.py``) with ``src`` on
``PYTHONPATH``: one warm-up import, :data:`SETUP_SAMPLES` set-up samples, then
one process that runs the workload's unit over and over for ``--seconds``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs untraced units for half the time, then one unit with span
tracing on, and reports the per-layer metrics.  Every unit is checked (see
``workloads.check_counters`` and the digest rule below); the last line of
standard output is the JSON result, and the full record — every unit,
set-up sample, parameter and provenance fact — goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for ``setup_s`` per run (after one warm-up).
SETUP_SAMPLES = 7
#: Seconds a worker may take beyond its measuring time before it is killed.
WORKER_GRACE_S = 100


def _worker(args, timeout):
    """Run ``worker.py`` with ``args``; returns its JSON result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {completed.returncode}:\n{completed.stderr}"
        )
    sys.stderr.write(completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _git_sha():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _judge(units):
    """Mark each unit failed or not; a unit fails on a broken invariant or
    a digest that differs from the first unit's (same workload and seed)."""
    reference = units[0]["digest"]
    for unit in units:
        if unit["digest"] != reference and not unit["problems"]:
            unit["problems"] = [f"digest {unit['digest']} != first unit's {reference}"]
    return [unit for unit in units if not unit["problems"]]


def _print_units(name, units, setup_samples):
    digests = sorted({unit["digest"] for unit in units})
    print(f"perfbench {name}: {len(units)} units, digest {', '.join(digests)}")
    for unit in units:
        rate = unit["completions"] / unit["wall_s"] if unit["wall_s"] else 0.0
        print(
            f"  unit wall {unit['wall_s']:.4f} s  {unit['completions']} completions  "
            f"{unit['events']} events  {rate:.1f} completions/s"
            + (f"  FAILED: {'; '.join(unit['problems'])}" if unit["problems"] else "")
        )
    model = units[0]["model"]
    print("  model: " + "  ".join(f"{key}={value:.6g}" for key, value in model.items()))
    if setup_samples:
        print("  setup_s samples: " + " ".join(f"{value:.4f}" for value in setup_samples))


def _print_layer_table(rows, wall_s):
    print(f"  per-layer self time of the traced unit (wall {wall_s:.4f} s):")
    print(f"    {'layer':<14}{'calls':>10}{'self_s':>12}{'share':>9}")
    for layer, calls, self_s, share in rows:
        print(f"    {layer:<14}{calls:>10}{self_s:>12.4f}{share:>8.1%}")


def main(argv=None):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    _worker(["setup", *common], timeout=WORKER_GRACE_S)  # compiles bytecode
    setup_samples = [
        _worker(["setup", *common], timeout=WORKER_GRACE_S)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    role = "trace" if args.trace else "measure"
    spans_path = OUT / f"{stem}-spans.jsonl.gz"
    result = _worker(
        [role, *common, "--seconds", str(args.seconds), "--spans", str(spans_path)],
        timeout=args.seconds + WORKER_GRACE_S,
    )
    units = result["units"]
    clean = _judge(units)
    _print_units(args.workload, units, setup_samples)

    if args.trace:
        traced = result["traced_unit"]
        if not traced["problems"] and clean and traced["digest"] != clean[0]["digest"]:
            traced["problems"] = [
                f"traced digest {traced['digest']} != untraced {clean[0]['digest']}"
            ]
        units = units + [traced]
        print(
            f"  traced unit: digest {traced['digest']}, {result['span_count']} spans "
            f"-> {spans_path.relative_to(ROOT)}"
            + (f"  FAILED: {'; '.join(traced['problems'])}" if traced["problems"] else "")
        )
        _print_layer_table(result["layer_table"], traced["wall_s"])
        values = result["per_layer"]
    else:
        rates = [unit["completions"] / unit["wall_s"] for unit in clean]
        values = {
            "completions_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    failed = sum(1 for unit in units if unit["problems"])
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "provenance": result["provenance"],
        "params": result["params"],
        "setup_samples_s": setup_samples,
        "units": units,
        "failed_share": failed / len(units),
        "metrics": metrics,
    }
    if args.trace:
        record["layer_table"] = result["layer_table"]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"  failed_share {failed}/{len(units)}  git {record['git_sha'][:12]}  "
        f"nproc {result['provenance']['nproc']}  "
        f"python {result['provenance']['interpreter']['python']}  -> {OUT.name}/{stem}.json"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(units),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
