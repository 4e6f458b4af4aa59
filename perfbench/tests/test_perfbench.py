"""Tests of the benchmark itself: its arithmetic, its oracle, and a smoke pass.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import mrfsdp  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import check_dars, check_fuses  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)
ALL_WORKLOADS = {**workloads.WORKLOADS, **workloads.UNLISTED_WORKLOADS}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# --- arithmetic -------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(30, 0, -1))
    value, pct, beyond = stats.tail(values)
    assert value == 20 and beyond == 10
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 19 / 29)
    assert np.percentile(values, pct) == pytest.approx(value)


def test_tail_with_too_few_samples_reports_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail(list(range(11)))[:2] == (0, 0.0)


def test_summary_of_a_pass():
    outcomes = [stats.Outcome("a", 1.0, solver=True, certified=True, cert_gap_rel=0.1),
                stats.Outcome("a", 3.0, 0.5, solver=True, certified=False),
                stats.Outcome("b", 2.0, 0.5, failure="boom")]
    s = stats.summarize(outcomes, wall_s=8.0)
    assert s["op_s_p50"] == 2.0
    assert s["ops_per_s"] == pytest.approx(3 / 7)  # wall time less check time
    assert s["failed_frac"] == pytest.approx(1 / 3)
    assert s["passed_frac"] == pytest.approx(2 / 3)
    assert s["certified_frac"] == 0.5
    assert s["cert_gap_rel_p50"] == 0.1
    assert s["rounding_gap_pct_mean"] is None


def _span(name, start, end, parent=None, op=0, info=None):
    return [name, start, end, parent, op, info]


def test_self_times_and_layer_metrics_on_synthetic_spans():
    spans = [
        _span("staircase.staircase_solve", 0.0, 10.0, info=(2, 5)),  # 0
        _span("staircase.tnt_minimize", 1.0, 4.0, parent=0, info=7),  # 1
        _span("manifold.project_tangent", 2.0, 3.0, parent=1),        # 2
        _span("manifold.retract", 5.0, 6.0, parent=0),                # 3
        _span("formats.instance_sha256", 20.0, 24.0, op=1),           # 4
        _span("formats.dumps_instance", 20.5, 23.5, parent=4, op=1, info=100),
        _span("formats.dumps_instance", 30.0, 31.0, op=1, info=40),
        _span("baselines.brute_force", 0.0, 2.0, op=tracing.SETUP_OP, info=64),
        _span("mrf.generate_grid_instance", 2.0, 2.5, op=tracing.SETUP_OP),
    ]
    assert tracing.self_times(spans)[:5] == [6.0, 2.0, 1.0, 1.0, 1.0]
    m = tracing.layer_metrics(spans, num_ops=2)
    assert m["staircase.certify_s"] == 3.5       # (10 - 3) / 2 ops
    assert m["staircase.tnt_s"] == 1.0
    assert m["staircase.tnt_iters"] == 3.5
    assert m["staircase.rank_steps"] == 1.0
    assert m["staircase.final_rank"] == 2.5
    assert m["manifold.project_calls"] == 0.5
    assert m["manifold.project_s"] == 0.5
    assert m["manifold.retract_s"] == 0.5
    assert m["formats.hash_s"] == 0.5
    assert m["formats.dump_s"] == 2.0            # (3 + 1) / 2 ops
    assert m["formats.instance_bytes"] == 20.0   # the nested dump is not written
    assert m["baselines.brute_force_s"] == 2.0   # per set-up, not per op
    assert m["baselines.states"] == 64
    assert m["mrf.generate_s"] == 0.0            # set-up spans stay out of op metrics
    assert set(m) == set(tracing.LAYER_METRICS)


def test_tracer_wraps_every_namespace_and_restores():
    original = mrfsdp.staircase.project_tangent
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (mrfsdp, mrfsdp.manifold, mrfsdp.staircase, mrfsdp.fuses):
            assert module.project_tangent is not original
        tracer.op = 0
        mrfsdp.fuses_solve(mrfsdp.generate_grid_instance(3, 3, 3, seed=0), seed=0)
        tracer.op = None
    finally:
        tracer.restore()
    for module in (mrfsdp, mrfsdp.manifold, mrfsdp.staircase, mrfsdp.fuses):
        assert module.project_tangent is original
    names = {s[0] for s in tracer.spans}
    assert {"fuses.fuses_solve", "encode_zo.encode_zo", "staircase.staircase_solve",
            "staircase.tnt_minimize", "manifold.project_tangent",
            "fuses.fuses_round", "mrf.energy"} <= names
    assert all(s[3] is None for s in tracer.spans if s[0] == "fuses.fuses_solve")


# --- checks and the oracle ----------------------------------------------------

@pytest.fixture(scope="module")
def small_instance():
    mrf = mrfsdp.generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=0)
    exact = mrfsdp.brute_force(mrf)
    wrong = np.zeros(mrf.num_nodes, dtype=int)
    f_wrong = mrfsdp.energy(mrf, wrong)
    assert f_wrong > exact.f_opt + 0.01
    return mrf, exact.f_opt, wrong, f_wrong


def test_oracle_counts_a_fabricated_false_fuses_certificate_as_failed(small_instance):
    mrf, f_opt, wrong, f_wrong = small_instance
    f_relaxed = 0.5 * (f_opt + f_wrong)  # below f_rounded, above f_opt
    fake = mrfsdp.FusesResult(labeling=wrong, f_relaxed=f_relaxed, f_rounded=f_wrong,
                              subopt_bound=f_wrong - f_relaxed, certified=True)
    assert check_fuses("fake", mrf, fake).failure is None  # only the oracle can tell
    op = workloads.Op("fake", lambda: fake,
                      lambda res: check_fuses("fake", mrf, res, f_opt), solver=True)
    outcome = workloads.execute(op)
    assert outcome.failure.startswith("false certificate")
    assert stats.summarize([outcome], 1.0)["failed_frac"] == 1.0
    fake.certified = False  # no claim, nothing to refute
    assert workloads.execute(op).failure is None


def test_oracle_counts_a_fabricated_false_dars_certificate_as_failed(small_instance):
    mrf, f_opt, wrong, f_wrong = small_instance
    fake = mrfsdp.DarsResult(
        labeling=wrong, f_relaxed=f_opt, f_rounded=f_wrong,
        subopt_bound=f_wrong - f_opt, dual_bound=f_opt + 0.01, dual_converged=True,
        certified=True, dual_iterations=3, constraint_residual_max=0.1)
    assert check_dars("fake", mrf, fake).failure is None
    assert check_dars("fake", mrf, fake, f_opt).failure.startswith("false certificate")
    fake.dual_converged = False  # dars claims no bound before convergence
    assert check_dars("fake", mrf, fake, f_opt).failure is None


def test_certified_run_with_negative_subopt_bound_fails(small_instance):
    mrf, f_opt, wrong, f_wrong = small_instance
    fake = mrfsdp.DarsResult(
        labeling=wrong, f_relaxed=f_wrong + 0.01, f_rounded=f_wrong,
        subopt_bound=-0.01, dual_bound=f_opt, dual_converged=True,
        certified=True, dual_iterations=3, constraint_residual_max=0.1)
    assert check_dars("fake", mrf, fake).failure.startswith("certified f_relaxed")


def test_invalid_outputs_fail(small_instance):
    mrf, f_opt, wrong, f_wrong = small_instance
    res = mrfsdp.FusesResult(labeling=wrong, f_relaxed=f_opt, f_rounded=f_wrong + 1.0,
                             subopt_bound=1.0, certified=False)
    assert "energy" in check_fuses("x", mrf, res).failure
    res.f_rounded, res.labeling = f_wrong, np.full(mrf.num_nodes, 3)
    assert "label" in check_fuses("x", mrf, res).failure


def test_typed_errors_count_as_failed_ops_and_do_not_abort():
    def boom():
        raise mrfsdp.NumericalFailureError("non-finite objective")
    outcome = workloads.execute(workloads.Op("boom", boom, None, solver=True))
    assert outcome.failure == "NumericalFailureError: non-finite objective"
    assert outcome.solver


# --- the declared benchmark ---------------------------------------------------

def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert not set(workloads.WORKLOADS) & set(workloads.UNLISTED_WORKLOADS)
    for m in DECLARED["end_to_end"]:
        assert run.E2E_UNITS[m["name"]] == m["unit"]
    layer_metrics = tracing.LAYER_METRICS + (run.OVERHEAD_METRIC,)
    declared = [m["name"] for m in DECLARED["per_layer"]]
    assert declared == [name for name in layer_metrics if name in declared]
    for m in DECLARED["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]


def test_pass_runs_whole_cycles():
    ops = [workloads.Op(str(i), lambda: None, lambda _: stats.Outcome("x"))
           for i in range(5)]
    plan = workloads.Plan(ops, cycle=2, cycle_s=1.0)
    outcomes, wall_s = run.run_pass(plan, 0.0, workloads.execute)
    assert len(outcomes) == 2 and wall_s > 0
    outcomes, _ = run.run_pass(plan, None, workloads.execute, num_ops=6)
    assert len(outcomes) == 6  # wraps around the op list


def test_pauses_come_between_cycles_and_stay_out_of_the_pass():
    ops = [workloads.Op("x", lambda: None, lambda _: stats.Outcome("x"))]
    plan = workloads.Plan(ops * 2, cycle=2, cycle_s=1.0)
    pauses = []
    outcomes, wall_s = run.run_pass(plan, None, workloads.execute, num_ops=6,
                                    pause=lambda elapsed: pauses.append(time.sleep(0.1)))
    assert len(outcomes) == 6 and len(pauses) == 2  # none after the last cycle
    assert wall_s < 0.1


# --- smoke passes -------------------------------------------------------------

def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return "\n".join(lines[:-1]), result


@pytest.mark.parametrize("workload", sorted(ALL_WORKLOADS))
def test_smoke_pass_prints_every_end_to_end_metric(workload):
    report, result = _result(bench("--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", "0"))
    for name in run.E2E_UNITS:
        assert f"  {name} " in report
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert result["attempted"] >= 1
    if workload in workloads.WORKLOADS:
        assert result["correct"] and result["failed"] == 0


def _layer_report(workload, seed):
    path = os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace1.json")
    with open(path) as handle:
        return json.load(handle)["metrics"]


@pytest.mark.parametrize("workload", ["pipeline", "dars_small"])
def test_traced_smoke_pass_prints_every_layer_metric_and_repeats_counts(workload):
    args = ("--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "1")
    report, result = _result(bench(*args))
    for name in tracing.LAYER_METRICS + (run.OVERHEAD_METRIC,):
        assert f"  {name} " in report
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    first = _layer_report(workload, 2)
    _result(bench(*args))
    second = _layer_report(workload, 2)
    counts = [name for name in first if run.layer_unit(name) in ("count", "B")]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    if workload == "dars_small":
        assert first["dars.dual_iters"] > 0 and first["manifold.project_calls"] > 0


def test_every_declared_layer_metric_is_measured_on_a_listed_workload():
    measured = set()
    for workload in workloads.WORKLOADS:
        _result(bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                      "--trace", "1"))
        measured |= {name for name, value in _layer_report(workload, 3).items() if value}
    assert {m["name"] for m in DECLARED["per_layer"]} <= measured


def test_brute_force_states_repeat_exactly():
    def traced_setup():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.op = tracing.SETUP_OP
            workloads.setup_oracle_small(3)
        finally:
            tracer.op = None
            tracer.restore()
        return tracing.layer_metrics(tracer.spans, 1)["baselines.states"]

    states = traced_setup()
    assert states > 0 and traced_setup() == states


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fuses_large", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
