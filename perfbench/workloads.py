"""The benchmark's workloads: seeded inputs, the op each one times, its checks.

Every workload runs 0.3-noise kernel-weight grids from generate_grid_instance
through the public mrfsdp API.  A workload's set-up makes every input and
exact reference from the seed, then runs one warm-up solve.  Its ops form a
list that a pass walks in whole cycles of `cycle` ops, wrapping around.

Where a workload mixes instance sizes, the cheap size outnumbers the dear one
so that the median falls inside the cheap size's distribution; the dear size
moves ops_per_s.  Solve times are bimodal: a 25x40 K=19 fuses solve takes
~0.35 s or, on about a third of the instances, ~0.7 s, so a fuses_large run
of ~110 ops has its median in the faster mode and op_s_tail in the slower one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mrfsdp
import mrfsdp.formats
from checks import check_dars, check_data_path, check_fuses
from stats import Outcome

NOISE = 0.3
# generate_grid_instance's default unary weight range; scaled in oracle_small
UNARY_RANGE = (0.2, 1.0)
# typed failures count as failed ops; anything else is a bug and aborts
TYPED_ERRORS = (mrfsdp.NumericalFailureError, mrfsdp.SizeRefusalError)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]           # the timed call into mrfsdp
    check: Callable[[Any], Outcome]   # untimed output check
    solver: bool = False


@dataclass
class Plan:
    ops: list
    cycle: int
    # seconds one cycle took when the benchmark was added (2-vCPU Xeon VM);
    # a traced run covers round(--seconds / 2 / cycle_s) cycles, a number that
    # does not depend on how fast the host runs, so its counts repeat exactly
    cycle_s: float


def _seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _grid(rows, cols, k, seed, scale=1.0):
    """A 0.3-noise kernel-weight grid with every weight multiplied by scale."""
    kernel = mrfsdp.KernelWeights()
    return mrfsdp.generate_grid_instance(
        rows, cols, k, unary_noise=NOISE,
        unary_weight_range=(UNARY_RANGE[0] * scale, UNARY_RANGE[1] * scale),
        binary_weight_model=mrfsdp.KernelWeights(
            lam1=kernel.lam1 * scale, lam2=kernel.lam2 * scale,
            beta=kernel.beta, feature_noise=kernel.feature_noise),
        seed=seed)


def _warm_up(seed):
    """One small solve, so lazy imports and BLAS start-up land in set-up."""
    mrfsdp.fuses_solve(_grid(10, 10, 5, _seed(seed, 99)), seed=0)


def fuses_op(mrf, label, seed, f_opt=None) -> Op:
    return Op(f"fuses {label}",
              lambda: mrfsdp.fuses_solve(mrf, seed=seed),
              lambda res: check_fuses(f"fuses {label}", mrf, res, f_opt),
              solver=True)


def dars_op(mrf, label, seed, f_opt=None) -> Op:
    return Op(f"dars {label}",
              lambda: mrfsdp.dars_solve(mrf, seed=seed),
              lambda res: check_dars(f"dars {label}", mrf, res, f_opt),
              solver=True)


# --- fuses_large -------------------------------------------------------------

# 25x40 K=19 is the instance class of acceptance criterion 6.  100x100 K=5
# solves (1-8 s each, heavy-tailed) are left out: a few per run made
# ops_per_s spread by up to 29% from seed to seed.
FUSES_GRID = (25, 40, 19)
FUSES_POOL = 64


def setup_fuses_large(seed) -> Plan:
    rows, cols, k = FUSES_GRID
    ops = [fuses_op(_grid(rows, cols, k, s), f"{rows}x{cols} K={k}", s)
           for s in (_seed(seed, 2, i) for i in range(FUSES_POOL))]
    _warm_up(seed)
    return Plan(ops, cycle=1, cycle_s=0.45)


# --- dars_small --------------------------------------------------------------

DARS_SMALL_PER_LARGE = 3
DARS_POOL = 24


def setup_dars_small(seed) -> Plan:
    ops = []
    for c in range(DARS_POOL):
        s = _seed(seed, 3, c)
        ops.append(dars_op(_grid(20, 20, 5, s), "20x20 K=5", s))
        for i in range(DARS_SMALL_PER_LARGE):
            s = _seed(seed, 4, c, i)
            ops.append(dars_op(_grid(10, 10, 5, s), "10x10 K=5", s))
    _warm_up(seed)
    return Plan(ops, cycle=1 + DARS_SMALL_PER_LARGE, cycle_s=1.3)


# --- oracle_small ------------------------------------------------------------

# grids on which brute_force takes at most ~30 ms (4x4 K=3 would be refused
# at its default budget)
ORACLE_GRIDS = ((3, 4, 3), (4, 4, 2), (3, 3, 3))
FUSES_SCALES = (1e-3, 1.0, 1e3)
ORACLE_POOL = 8
# dars at c=1e3 runs to its 1000-iteration dual cap at this commit: 1.5-2 s
# per op on 2x3 K=2, 5-15 s on the grids above
SLOW_GRID = (2, 3, 2)
SLOW_SCALE = 1e3


def setup_oracle_small(seed) -> Plan:
    """A cycle: fuses at every scale on each grid of every pool entry, dars
    at c=1 on one grid per entry, then one dars at c=1e3, a different one in
    each cycle.  Every instance gets its exact optimum from brute_force here.

    dars at c=1 runs on one grid per entry, not on all three, so that the
    fuses ops at c <= 1, the fastest, are 60% of a cycle: the median then
    falls inside them, not on the edge between them and the slower ops."""
    fast, slow = [], []
    for p in range(ORACLE_POOL):
        for g, (rows, cols, k) in enumerate(ORACLE_GRIDS):
            s = _seed(seed, 5, p, g)
            for c in FUSES_SCALES:
                mrf = _grid(rows, cols, k, s, scale=c)
                f_opt = mrfsdp.brute_force(mrf).f_opt
                label = f"{rows}x{cols} K={k} c={c:g}"
                fast.append(fuses_op(mrf, label, s, f_opt))
                if c == 1.0 and g == p % len(ORACLE_GRIDS):
                    fast.append(dars_op(mrf, label, s, f_opt))
        rows, cols, k = SLOW_GRID
        s = _seed(seed, 7, p)
        mrf = _grid(rows, cols, k, s, scale=SLOW_SCALE)
        slow.append(dars_op(mrf, f"{rows}x{cols} K={k} c={SLOW_SCALE:g}", s,
                            mrfsdp.brute_force(mrf).f_opt))
    _warm_up(seed)
    ops = [op for dear in slow for op in fast + [dear]]
    return Plan(ops, cycle=len(fast) + 1, cycle_s=4.3)


# --- data_path ---------------------------------------------------------------

DATA_GRID = (70, 70, 5)
DATA_POOL = 96


@dataclass
class DataPathOutput:
    original: Any
    loaded: Any
    sha256: str
    zo: Any
    pm: Any
    labeling: np.ndarray
    icm_energy: float
    energy: float
    result_text: str


def load_instance_text(text):
    """Read an instance document held in memory (json.loads + instance_from_doc)."""
    return mrfsdp.formats.instance_from_doc(json.loads(text))


def data_path_call(seed, grid=DATA_GRID) -> DataPathOutput:
    rows, cols, k = grid
    mrf = _grid(rows, cols, k, seed)
    text = mrfsdp.formats.dumps_instance(mrf)
    loaded = load_instance_text(text)
    digest = mrfsdp.formats.instance_sha256(loaded)
    zo = mrfsdp.encode_zo(loaded)
    pm = mrfsdp.encode_pm(loaded)
    labeling, icm_energy = mrfsdp.icm(loaded, mrfsdp.unary_argmax_labeling(loaded))
    e = mrfsdp.energy(loaded, labeling)
    result_text = mrfsdp.formats.dumps_result({
        "schema": mrfsdp.formats.RESULT_SCHEMA,
        "method": "icm",
        "instance": {"sha256": digest, "num_nodes": loaded.num_nodes,
                     "num_labels": loaded.num_labels},
        "labels": labeling.tolist(),
        "energy": e,
    })
    return DataPathOutput(mrf, loaded, digest, zo, pm, labeling, icm_energy, e,
                          result_text)


def setup_data_path(seed) -> Plan:
    label = "data {}x{} K={}".format(*DATA_GRID)
    ops = []
    for i in range(DATA_POOL):
        s = _seed(seed, 6, i)
        ops.append(Op(label, lambda s=s: data_path_call(s),
                      lambda out: check_data_path(label, out)))
    _warm_up(seed)
    data_path_call(_seed(seed, 99))  # first-call costs of the data layers
    return Plan(ops, cycle=1, cycle_s=0.55)


# --- pipeline ----------------------------------------------------------------

# data_path's chain on the instance class of fuses_large, then fuses_solve on
# the instance read back: the data layers are ~30% of an op, so item 5 shows
# here and not on fuses_large, while the op swings with the host's load
# about as little as a fuses_large op does
PIPELINE_GRID = FUSES_GRID


def pipeline_call(seed):
    out = data_path_call(seed, PIPELINE_GRID)
    return out, mrfsdp.fuses_solve(out.loaded, seed=seed)


def check_pipeline(label, result):
    out, res = result
    outcome = check_fuses(label, out.loaded, res)
    outcome.failure = check_data_path(label, out).failure or outcome.failure
    return outcome


def setup_pipeline(seed) -> Plan:
    label = "pipeline {}x{} K={}".format(*PIPELINE_GRID)
    ops = []
    for i in range(DATA_POOL):
        s = _seed(seed, 8, i)
        ops.append(Op(label, lambda s=s: pipeline_call(s),
                      lambda result: check_pipeline(label, result), solver=True))
    _warm_up(seed)
    data_path_call(_seed(seed, 99), PIPELINE_GRID)  # first-call costs of the data layers
    return Plan(ops, cycle=1, cycle_s=0.5)


# The workloads BENCHMARK.json lists: no op fails on them at the time of
# writing, and their op times swing with the host's load by ~15%, not 1.5-2x.
# Why each exists: see perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "fuses_large": setup_fuses_large,
    "pipeline": setup_pipeline,
}
# Workloads that run with the same command but that BENCHMARK.json does not
# list; see perfbench/README.md.  At the time of writing some certified runs
# of dars_small and oracle_small carry a bound the checks refute (ROADMAP
# items 1 and 2), on every seed for oracle_small and on most seeds for
# dars_small, so their runs report failed ops and "correct": false; no
# regime of dars_solve, and no grid small enough for brute_force, was found
# free of such runs.  data_path is pure Python-level work, whose op times
# swing 1.5-2x with the host's load, so its medians moved by up to 40%
# between sets of runs of the same code.
UNLISTED_WORKLOADS = {
    "dars_small": setup_dars_small,
    "oracle_small": setup_oracle_small,
    "data_path": setup_data_path,
}


def execute(op: Op, tracer=None, op_id=None) -> Outcome:
    """Time one op, then check its output; the check is timed apart."""
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        result = op.call()
    except TYPED_ERRORS as exc:
        return Outcome(op.label, time.perf_counter() - t0, solver=op.solver,
                       failure=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.op = None
    t1 = time.perf_counter()
    outcome = op.check(result)
    outcome.seconds = t1 - t0
    outcome.check_s = time.perf_counter() - t1
    return outcome
