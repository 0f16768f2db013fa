#!/usr/bin/env python3
"""Layered benchmark of closedloft: lofting, the condition-trial harness and
surface export.

    python3 perfbench/run.py --workload tube40 --seed 1 --seconds 35 --trace 0

Run it from the repository root; it lofts with the closedloft source in
``src/``.  With ``--trace 0`` the run is untraced and its last line reports
the end-to-end metrics; with ``--trace 1`` the library's layers are traced
(see ``tracing.py``) and the last line reports the per-layer metrics.  Both
print every metric as ``name value unit`` lines first.  Run outputs and span
traces go to ``.perfbench_out/`` under the repository root.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3
# Untimed rounds of the workload at tiny sizes before the measured loop, so
# that first calls (lazy imports, first allocations) and the CPU's climb to
# speed under sustained load fall outside every timed operation.
WARMUP_SECONDS = 3.0

# Per-layer metrics that are operation figures, not span summaries.  While
# `park` at per 0 fails in every round (tube120), its figure reads 0.
FIGURES = ("loft.park.per0_s",)


def metric_units():
    """(end-to-end, per-layer) metrics as name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _import_library():
    """Import closedloft from this checkout's source tree, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import closedloft
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import closedloft from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(closedloft.__file__)) != os.path.join(SRC, "closedloft"):
        sys.exit(f"perfbench: closedloft was imported from {closedloft.__file__}, not {SRC}")


def _import_in_fresh_interpreter():
    """Import closedloft in a new interpreter, as every CLI call does."""
    subprocess.run(
        [sys.executable, "-c", "import closedloft"],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True,
    )


def measure(workload, seconds, tracer=None):
    """Run whole rounds of the workload's operations until ``seconds`` have passed.

    A failed operation counts as attempted and failed and is never timed.
    Checks between operations are not timed.
    """
    from closedloft.errors import ClosedLoftError

    times = {}
    rounds = 0
    failures = {}
    problems = []
    attempted = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for label, op in workload.round_ops(rounds):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.run_operation(attempted, label, op) if tracer else op()
            except ClosedLoftError as exc:
                failures.setdefault(label, [type(exc).__name__, str(exc), 0])[2] += 1
                continue
            times.setdefault(label, []).append(time.perf_counter() - t0)
            problems += workload.after_op(label, out)
        rounds += 1
    return {
        "rounds": rounds,
        "times": times,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
    }


def layer_metrics(tracer, rounds, figures, names):
    """Per-layer metrics of a traced run, per round of the workload."""
    summary = tracer.summary()
    counts = tracer.counts
    stiffness_calls = summary["linalg_solve.stiffness_matrix"]["calls"]
    special = {
        "linalg_solve.kkt_dim.max": tracer.maxima["linalg_solve.kkt_dim.max"],
        "linalg_solve.stiffness_matrix.distinct_ratio":
            len(tracer.stiffness_keys) / stiffness_calls if stiffness_calls else 0.0,
        "linalg_solve.zero_pivot_retries":
            counts["linalg_solve.solve_banded_no_pivot.errors"] / rounds,
    }
    out = {}
    for name in names:
        if name in special:
            value = special[name]
        elif name in FIGURES:
            value = figures.get(name, 0.0)
        else:
            base, field = name.rsplit(".", 1)
            if base in summary and field in ("calls", "s", "self_s"):
                value = summary[base][field] / rounds
            else:
                value = counts[name] / rounds
        out[name] = value
    return out


def warm_up(workloads, name, seed, workdir):
    """Run whole rounds of the workload at tiny sizes for WARMUP_SECONDS.

    Nothing of it is timed, counted or checked.
    """
    tiny = workloads.make(name, tiny=True)
    tiny.setup(seed, workdir)
    measure(tiny, WARMUP_SECONDS)


def main(argv=None):
    # closedloft runs single-threaded; with one BLAS thread a run keeps to one
    # core instead of a second BLAS thread spinning through every small
    # LAPACK call.  Set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_library()
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**63
    end_to_end, per_layer = metric_units()

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.make(args.workload)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _import_in_fresh_interpreter()
            workload.setup(seed, workdir)
            setups.append(time.perf_counter() - t0)

        warmdir = os.path.join(workdir, "warm-up")
        os.makedirs(warmdir)
        warm_up(workloads, args.workload, seed, warmdir)

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            with tracer:
                run = measure(workload, args.seconds, tracer)
        else:
            run = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = run["problems"] + workload.finish()
        figures = workload.details(run["times"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = run["rounds"]
    if args.trace:
        values = layer_metrics(tracer, rounds, figures, per_layer)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{seed}.jsonl"))
    else:
        measured = dict(figures, setup_s=median(setups), peak_rss_mb=peak_rss_mb)
        missing = [name for name in end_to_end if name not in measured]
        problems += [f"no {name}: the operations it times failed in every round" for name in missing]
        values = {name: measured[name] for name in end_to_end if name in measured}
    units = {**end_to_end, **per_layer}
    failed = sum(f[2] for f in run["failures"].values())
    for label, (kind, message, count) in run["failures"].items():
        print(f"perfbench: {label} failed {count} of {rounds} rounds: {kind}: {message}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for name, value in {**figures, **values}.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"rounds {rounds}, operations {run['attempted']}, failed {failed}")

    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    record = dict(result, workload=args.workload, seed=seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, op_times=run["times"], figures=figures,
                  failures=run["failures"], problems=problems)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
