"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.

Numerical slacks are pinned here once and justified inline: objective values
from certified solves carry the solver's termination fuzz (the refined
gradient target 1e-3 grad_norm_tol, the certification budget
1e-5 max(1, |f|), eigenvalue tolerance staircase._EIG_TOL = 1e-2 from the
reference parameter table), so bound checks use slacks commensurate with
those tolerances, never looser.
"""

import json
import time

import numpy as np
import pytest
import scipy.sparse as sp

import mrfsdp.staircase as staircase
from mrfsdp import (
    ManifoldShape,
    brute_force,
    compute_metrics,
    dars_solve,
    encode_pm,
    encode_zo,
    energy,
    fuses_solve,
    generate_grid_instance,
    icm,
    labeling_to_pm,
    lift_labeling,
    mann_kendall_positive_p,
    project_tangent,
    random_point,
    retract,
    trace_quadratic,
    unary_argmax_labeling,
    zo_objective,
)
from mrfsdp.cli import main as cli_main
from mrfsdp.formats import load_result, strip_timing

from conftest import (
    all_labelings,
    manifold_residual,
    random_instance,
    riemannian_gradient,
    riemannian_hessian_vec,
)

# (rows, cols, K) composition of the 50-instance small-grid suite; instance
# seed is the index in this list
SMALL_GRIDS = (
    [(3, 3, 2)] * 16 + [(3, 3, 3)] * 16 + [(4, 4, 2)] * 16 + [(4, 4, 3)] * 2
)
# criterion 4/5 reuse: the first ten (3,3,2) and first ten (3,3,3) instances
DARS_INDICES = list(range(0, 10)) + list(range(16, 26))


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fuses_suite():
    t0 = time.perf_counter()
    runs = []
    for idx, (rows, cols, k) in enumerate(SMALL_GRIDS):
        inst = generate_grid_instance(rows, cols, k, unary_noise=0.3, seed=idx)
        res = fuses_solve(inst, seed=idx)
        exact = brute_force(inst, budget=50_000_000)
        runs.append({"inst": inst, "res": res, "exact": exact})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def dars_suite():
    t0 = time.perf_counter()
    runs = []
    for idx in DARS_INDICES:
        rows, cols, k = SMALL_GRIDS[idx]
        inst = generate_grid_instance(rows, cols, k, unary_noise=0.3, seed=idx)
        res = dars_solve(inst, seed=idx)  # default dual parameters
        exact = brute_force(inst)
        runs.append({"idx": idx, "inst": inst, "res": res, "exact": exact})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_1_energy_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        mrf = random_instance(rng, max_nodes=5, max_labels=4)
        pm = encode_pm(mrf)
        zo = encode_zo(mrf)
        L = pm.L.toarray()
        for x in all_labelings(mrf.num_nodes, mrf.num_labels):
            e = energy(mrf, x)
            y = labeling_to_pm(x, mrf.num_nodes, mrf.num_labels)
            worst = max(worst, abs(y @ L @ y + pm.offset - e))
            V = lift_labeling(zo, x)
            worst = max(worst, abs(zo_objective(zo, V) + zo.offset - e))
    elapsed = time.perf_counter() - t0
    _report(1, "energy equivalence", worst < 1e-10 and elapsed < 10.0,
            f"max |error| = {worst:.3e} over 50 exhaustive instances, "
            f"{elapsed:.1f}s")


def test_criterion_2_manifold_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    shapes = [ManifoldShape(12, 0, 4), ManifoldShape(8, 3, 5)]
    worst_fd = 0.0
    worst_retract = 0.0
    worst_slope = np.inf
    for shape in shapes:
        d = shape.total_rows
        A = rng.standard_normal((d, d))
        M = sp.csr_matrix((A + A.T) / 2.0)
        for _ in range(10):
            R = random_point(shape, rng)
            g = riemannian_gradient(M, shape, R)
            for _ in range(10):
                V = project_tangent(shape, R, rng.standard_normal(R.shape))
                V /= np.linalg.norm(V)
                h = 1e-5
                Rp = retract(shape, R, h * V)
                Rm = retract(shape, R, -h * V)
                worst_retract = max(worst_retract,
                                    manifold_residual(shape, Rp),
                                    manifold_residual(shape, Rm))
                fd = (trace_quadratic(M, Rp) - trace_quadratic(M, Rm)) / (2 * h)
                an = float(np.sum(g * V))
                worst_fd = max(worst_fd, abs(fd - an) / max(1.0, abs(an)))
            # Taylor remainder of the quadratic model along one direction
            V = project_tangent(shape, R, rng.standard_normal(R.shape))
            V /= np.linalg.norm(V)
            f0 = trace_quadratic(M, R)
            gv = float(np.sum(g * V))
            hv = float(np.sum(riemannian_hessian_vec(M, shape, R, V) * V))
            ts = np.logspace(-1, -3, 9)
            errs = []
            for t in ts:
                Rt = retract(shape, R, t * V)
                worst_retract = max(worst_retract, manifold_residual(shape, Rt))
                errs.append(abs(trace_quadratic(M, Rt) -
                                (f0 + t * gv + 0.5 * t * t * hv)))
            errs = np.array(errs)
            mask = errs > 1e-13 * max(1.0, abs(f0))
            if mask.sum() >= 3:
                slope = np.polyfit(np.log(ts[mask]), np.log(errs[mask]), 1)[0]
                worst_slope = min(worst_slope, slope)
    elapsed = time.perf_counter() - t0
    ok = (worst_fd < 1e-6 and worst_slope >= 2.7 and worst_retract < 1e-12
          and elapsed < 30.0)
    _report(2, "manifold calculus", ok,
            f"fd rel err {worst_fd:.2e}, Taylor slope {worst_slope:.2f}, "
            f"retraction residual {worst_retract:.2e}, {elapsed:.1f}s")


def test_criterion_3_fuses_certificates(fuses_suite):
    runs = fuses_suite["runs"]
    certified = [r for r in runs if r["res"].certified]
    bound_ok = 0
    for r in certified:
        res, f_opt = r["res"], r["exact"].f_opt
        # a certified relaxed objective lies within the certification
        # budget (1e-5) of the relaxation optimum
        lower_ok = res.f_relaxed <= f_opt + 1e-5 * (1.0 + abs(f_opt))
        upper_ok = res.f_rounded >= f_opt - 1e-12
        prop_ok = (res.f_rounded - f_opt
                   <= res.f_rounded - res.f_relaxed + 1e-5 * (1.0 + abs(f_opt)))
        bound_ok += bool(lower_ok and upper_ok and prop_ok)
    within_two = sum(
        1 for r in runs if r["res"].certified and len(r["res"].rank_history) <= 2
    )
    elapsed = fuses_suite["elapsed"]
    ok = (bound_ok == len(certified) and within_two >= 0.9 * len(runs)
          and elapsed < 120.0)
    _report(3, "binary-relaxation certificates", ok,
            f"{bound_ok}/{len(certified)} certified runs satisfy the bounds, "
            f"{within_two}/{len(runs)} certified within 2 staircase steps, "
            f"{elapsed:.1f}s")


def test_criterion_4_dual_ascent_guarantees(dars_suite):
    runs = dars_suite["runs"]
    converged = [r for r in runs if r["res"].dual_converged]
    usable = [r for r in converged if r["res"].certified]
    checks_ok = 0
    for r in usable:
        res, f_opt = r["res"], r["exact"].f_opt
        # a primal solve certified at eigenvalue tolerance tau understates
        # optimality by at most ~tau * trace(Y) = tau * (N*K + 1), which is
        # the fuzz mid-run dual values inherit
        dim = r["inst"].num_nodes * r["inst"].num_labels + 1
        weak_slack = staircase._EIG_TOL * dim
        residual_ok = res.constraint_residual_max < 0.5
        weak_ok = all(
            d + res.offset <= f_opt + weak_slack
            for d, cert in zip(res.dual_value_history,
                               res.primal_certified_history) if cert
        )
        # converged final duals are far more accurate than mid-run iterates
        bound_ok = (res.f_rounded - f_opt
                    <= res.f_rounded - res.dual_bound + 1e-3)
        checks_ok += bool(residual_ok and weak_ok and bound_ok)
    elapsed = dars_suite["elapsed"]
    ok = (checks_ok == len(usable) and len(converged) >= 0.8 * len(runs)
          and elapsed < 600.0)
    _report(4, "dual-ascent guarantees", ok,
            f"{checks_ok}/{len(usable)} converged+certified runs satisfy "
            f"residual/weak-duality/rounding bounds, "
            f"{len(converged)}/{len(runs)} converged, {elapsed:.1f}s")


def test_criterion_5_near_optimality(fuses_suite, dars_suite):
    runs = fuses_suite["runs"]
    gaps, optimal_pct = [], []
    for r in runs:
        f_opt = r["exact"].f_opt
        if f_opt != 0.0:
            gaps.append(100.0 * (r["res"].f_rounded - f_opt) / f_opt)
        optimal_pct.append(
            100.0 * float(np.mean(r["res"].labeling == r["exact"].labeling)))
    med_gap = float(np.median(gaps))
    med_opt = float(np.median(optimal_pct))
    # shared seeds: same instances solved by both pipelines
    shared_better = total_shared = 0
    for d in dars_suite["runs"]:
        if not d["res"].dual_converged:
            continue
        f_opt = d["exact"].f_opt
        if f_opt == 0.0:
            continue
        fus = fuses_suite["runs"][d["idx"]]["res"]
        dars_gap = 100.0 * (d["res"].f_rounded - f_opt) / f_opt
        fuses_gap = 100.0 * (fus.f_rounded - f_opt) / f_opt
        total_shared += 1
        shared_better += dars_gap <= fuses_gap + 1e-12
    ok = (med_gap <= 1.0 and med_opt >= 95.0
          and shared_better >= 0.6 * total_shared)
    _report(5, "near-optimality", ok,
            f"median rounding gap {med_gap:.4f}% (<=1%), median optimal "
            f"labels {med_opt:.1f}% (>=95%), dual-ascent gap <= binary gap "
            f"on {shared_better}/{total_shared} shared instances")


def test_criterion_6_scalability():
    # one untimed solve of the largest class first, so that the timings
    # measure the solver and not the BLAS start-up of the first solve
    fuses_solve(generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=6),
                seed=6)
    times, sizes = [], []
    certified = []
    for rows, cols in [(10, 25), (20, 25), (25, 40)]:
        inst = generate_grid_instance(rows, cols, 19, unary_noise=0.3, seed=5)
        t0 = time.perf_counter()
        res = fuses_solve(inst, seed=5)
        times.append(time.perf_counter() - t0)
        sizes.append(inst.num_nodes)
        certified.append(res.certified)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok = all(certified) and times[-1] < 5.0 and slope < 2.5
    _report(6, "scalability", ok,
            f"N=1000,K=19 certified in {times[-1]:.2f}s (<5s), log-log "
            f"slope {slope:.2f} (<2.5) across N={sizes}")


def test_criterion_7_gap_trend():
    medians = []
    for rows, cols in [(4, 4), (8, 8), (16, 16)]:
        gaps = []
        for seed in range(10):
            inst = generate_grid_instance(rows, cols, 3, unary_noise=0.3,
                                          seed=seed)
            res = fuses_solve(inst, seed=seed)
            # best-found upper bound stands in for the optimum where the
            # state space is out of enumeration reach
            candidates = [res.f_rounded,
                          icm(inst, unary_argmax_labeling(inst))[1],
                          icm(inst, res.labeling)[1]]
            if inst.num_labels ** inst.num_nodes <= 20_000_000:
                exact = brute_force(inst)
                assert min(candidates) >= exact.f_opt - 1e-9
                candidates.append(exact.f_opt)
            # the relaxation gap as compute_metrics takes it: a percentage
            # of |f_best|, none when f_best is 0
            gap = compute_metrics(res.labeling, res.f_rounded,
                                  f_relaxed=res.f_relaxed,
                                  f_opt=min(candidates)).relaxation_gap_pct
            if gap is not None:
                gaps.append(gap)
        medians.append(float(np.median(gaps)))
    s_stat, p = mann_kendall_positive_p(medians)
    ok = s_stat <= 0 or p > 0.05
    _report(7, "relaxation-gap trend", ok,
            f"median gaps {[round(v, 3) for v in medians]}% across "
            f"N=16/64/256, Mann-Kendall S={s_stat}, one-sided p={p:.3f} "
            f"(not significantly increasing at 0.05)")


def test_criterion_8_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert cli_main(["gen", "--rows", "3", "--cols", "3", "--labels", "2",
                     "--noise", "0.3", "--seed", "1",
                     "--out", str(inst_path)]) == 0
    mismatches = []
    for method in ("fuses", "dars", "icm", "exact"):
        docs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{method}-{tag}.json"
            assert cli_main(["solve", "--instance", str(inst_path),
                             "--method", method, "--seed", "7",
                             "--out", str(out)]) == 0
            doc = strip_timing(load_result(str(out)))
            docs.append(json.dumps(doc, indent=2, sort_keys=True).encode())
        if docs[0] != docs[1]:
            mismatches.append(method)
    _report(8, "determinism", not mismatches,
            f"byte-identical result documents modulo timing for "
            f"fuses/dars/icm/exact{'; mismatches: ' + str(mismatches) if mismatches else ''}")
