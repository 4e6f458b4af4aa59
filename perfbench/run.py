#!/usr/bin/env python3
"""mrfsdp benchmark: time to a certified labeling, certificate truth, and
per-layer cost.

    python3 perfbench/run.py --workload fuses_large --seed 0 --seconds 45 --trace 0

Runs one workload in this process through the public mrfsdp API, as a closed
loop with one client and BLAS pinned to one thread, and checks every output.
It prints a report, writes it with the environment to perfbench/out/, and
prints as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, measured untraced; with --trace 1 they are its per_layer
metrics, from a traced pass whose spans go to perfbench/out/ as well.
Exits 2, printing no result, when the mrfsdp sources are not in src/.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS reads these once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# the imports run.py makes before its first set-up, timed in a fresh
# interpreter: argv[1:] = [SRC, HERE]
IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import argparse, gc, itertools, json, platform, resource, statistics, subprocess
sys.path[:0] = sys.argv[1:]
import stats, tracing, mrfsdp, workloads
print(time.perf_counter() - t0)
"""

E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "failed_frac": "ratio",
    "passed_frac": "ratio",
    "certified_frac": "ratio",
    "cert_gap_rel_p50": "ratio",
    "rounding_gap_pct_mean": "%",
    "peak_rss_mb": "MB",
}
OVERHEAD_METRIC = "trace.overhead_pct"


def layer_unit(name):
    if name == OVERHEAD_METRIC:
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read without starting git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def run_pass(plan, seconds, execute, num_ops=None, pause=None):
    """Closed loop over whole cycles of the op list, wrapping around, for
    about `seconds` of wall time (it stops once another cycle would end
    further from `seconds` than stopping now), or for num_ops ops, a whole
    number of cycles.  Whole cycles keep the mix of instance sizes fixed, so
    where the pass stops does not move ops_per_s.  `pause(elapsed)`, if
    given, runs between cycles and its time is left out of the pass.
    Returns the outcomes and the wall seconds the pass took."""
    outcomes = []
    elapsed = 0.0
    while True:
        start, cycle_t0 = len(outcomes), time.perf_counter()
        outcomes += [execute(plan.ops[(start + j) % len(plan.ops)])
                     for j in range(plan.cycle)]
        cycle_s = time.perf_counter() - cycle_t0
        elapsed += cycle_s
        if num_ops is None:
            if elapsed + cycle_s / 2 >= seconds:
                return outcomes, elapsed
        elif len(outcomes) >= num_ops:
            return outcomes, elapsed
        if pause is not None:
            pause(elapsed)


def import_seconds():
    """run.py's imports, timed in a fresh interpreter that has ended on return."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def timed_setup(setup, seed):
    """One set-up, timed, after collecting the garbage of the previous one."""
    gc.collect()
    t0 = time.perf_counter()
    plan = setup(seed)
    return plan, time.perf_counter() - t0


def timed_run(setup, args, import_s, execute):
    """Set up, then run the timed pass.  setup_s is the median of
    SETUP_REPEATS import times plus the median of as many set-ups: this
    process's imports and the set-up the pass uses, and the rest made between
    its cycles, evenly over it, so that they sample the host over the same
    stretch of time as the ops.  Their time is left out of the pass."""
    plan, first_s = timed_setup(setup, args.seed)
    import_times, setup_times = [import_s], [first_s]
    # the inputs live for the whole pass: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    def resample(elapsed):
        if (len(setup_times) < SETUP_REPEATS
                and elapsed >= args.seconds * len(setup_times) / SETUP_REPEATS):
            setup_times.append(timed_setup(setup, args.seed)[1])
            gc.collect()
            import_times.append(import_seconds())

    outcomes, wall_s = run_pass(plan, args.seconds, execute, pause=resample)
    while len(setup_times) < SETUP_REPEATS:  # a pass too short to hold them all
        setup_times.append(timed_setup(setup, args.seed)[1])
        import_times.append(import_seconds())
    summary = stats.summarize(outcomes, wall_s)
    metrics = {name: summary.get(name) for name in E2E_UNITS}
    metrics["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "import_repeats_s": import_times,
        "setup_repeats_s": setup_times,
        "pass_wall_s": wall_s,
        "check_s": sum(o.check_s for o in outcomes),
        "op_s_tail_percentile": summary["op_s_tail_percentile"],
        "op_s_tail_beyond": summary["op_s_tail_beyond"],
        "solver_ops": summary["solver_ops"],
        "op_seconds": [o.seconds for o in outcomes],
    }
    return outcomes, metrics, details


def traced_run(setup, args, execute):
    """Set up once and run whole cycles from the start of the op list
    traced, as many as took about half of --seconds when the benchmark was
    added; then the same ops untraced, for the tracing overhead."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = tracing.SETUP_OP
        plan = setup(args.seed)
        tracer.op = None
        gc.collect()
        gc.freeze()
        op_ids = itertools.count()
        cycles = max(1, round(args.seconds / 2 / plan.cycle_s))
        traced, traced_s = run_pass(plan, None,
                                    lambda op: execute(op, tracer, next(op_ids)),
                                    num_ops=cycles * plan.cycle)
    finally:
        tracer.restore()
    untraced, untraced_s = run_pass(plan, None, execute, num_ops=len(traced))
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    traced_rate = stats.summarize(traced, traced_s)["ops_per_s"]
    untraced_rate = stats.summarize(untraced, untraced_s)["ops_per_s"]
    metrics[OVERHEAD_METRIC] = 100.0 * (untraced_rate / traced_rate - 1.0)
    details = {
        "traced_ops": len(traced),
        "ops_per_s_traced": traced_rate,
        "ops_per_s_untraced": untraced_rate,
        "spans": len(tracer.spans),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    return traced + untraced, metrics, details


def per_label(outcomes):
    rows = {}
    for o in outcomes:
        rows.setdefault(o.label, []).append(o)
    return {label: {"ops": len(group),
                    "failed": sum(o.failure is not None for o in group),
                    "op_s_p50": statistics.median(o.seconds for o in group)}
            for label, group in sorted(rows.items())}


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_report(args, env, metrics, units, details, outcomes):
    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"mrfsdp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{kind} metrics over {len(outcomes)} ops:")
    for name, value in metrics.items():
        print(f"  {name:<28} {fmt(value):>12} {units[name]}")
    for key, value in details.items():
        if key not in ("per_label", "failures", "op_seconds"):
            print(f"  # {key}: {value}")
    for label, row in details["per_label"].items():
        print(f"  # {label}: {row['ops']} ops, {row['failed']} failed, "
              f"op_s_p50 {row['op_s_p50']:.6g}")
    failures = details["failures"]
    for line in failures[:5]:
        print(f"  ! failed {line}")
    if len(failures) > 5:
        print(f"  ! ... {len(failures) - 5} more failed ops")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrfsdp", "__init__.py")):
        print(f"run.py: no mrfsdp sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.path.insert(0, SRC)
    import mrfsdp
    import workloads
    import_s = time.perf_counter() - _START
    if not os.path.abspath(mrfsdp.__file__).startswith(SRC + os.sep):
        print(f"run.py: mrfsdp imported from {mrfsdp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    known = {**workloads.WORKLOADS, **workloads.UNLISTED_WORKLOADS}
    if args.workload not in known:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(known)}", file=sys.stderr)
        return 2
    setup = known[args.workload]
    env = environment(args)

    if args.trace:
        outcomes, metrics, details = traced_run(setup, args, workloads.execute)
        units = {name: layer_unit(name) for name in metrics}
        reported = declared["per_layer"]
    else:
        outcomes, metrics, details = timed_run(setup, args, import_s, workloads.execute)
        units = E2E_UNITS
        reported = declared["end_to_end"]

    details["per_label"] = per_label(outcomes)
    details["failures"] = [f"{o.label}: {o.failure}" for o in outcomes if o.failure]
    print_report(args, env, metrics, units, details, outcomes)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump({"environment": env, "metrics": metrics, "units": units,
                   "details": details}, handle, indent=2, sort_keys=True)

    failed = sum(o.failure is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
