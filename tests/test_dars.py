from dataclasses import fields

import numpy as np
import pytest

import mrfsdp.dars as dars
import mrfsdp.staircase as staircase
from mrfsdp import (
    DualParams,
    InvalidInputError,
    MrfInstance,
    SolverParams,
    brute_force,
    dars_round,
    dars_solve,
    dual_gradient,
    encode_pm,
    energy,
    generate_grid_instance,
    labeling_to_pm,
    staircase_solve,
)
from mrfsdp.dars import _l_lambda
from mrfsdp.manifold import ManifoldShape

from conftest import make_instance, nth_random_instance, random_instance

# Standard-relaxation optimum (plus offset) for TEST_INSTANCE below, computed
# offline by scripts/standard_sdp_oracle.py (Douglas-Rachford splitting with
# exact projections; split/PSD residuals < 1e-13).
ORACLE_RELAXED_OPTIMUM = 0.16926554938286253
# The binary-matrix relaxation's optimum (plus offset) for TEST_INSTANCE, from
# the same script with --encoding zo (residuals < 1e-12).
ORACLE_ZO_RELAXED_OPTIMUM = 0.13456934306300372

TEST_INSTANCE = make_instance(
    9, 2,
    [
        (0, 1, 0.7837243571439554),
        (1, 1, 0.3405244964820472),
        (2, 1, 0.8905431378799094),
        (3, 1, 0.6331689761992734),
        (4, 1, 0.43976951242990786),
        (5, 1, 0.5381497769581267),
        (6, 0, 0.2226557369163704),
        (7, 1, 0.2994266211996512),
        (8, 0, 0.7364995317549043),
    ],
    [
        (0, 1, 0.040766888046058755),
        (0, 3, 0.036801074002124075),
        (1, 2, 0.050760513858047404),
        (1, 4, 0.05611341973199134),
        (2, 5, 0.041706549157154986),
        (3, 4, 0.05229119044020182),
        (3, 6, 0.05865620460112053),
        (4, 5, 0.05389279732861471),
        (4, 7, 0.05237944868548587),
        (5, 8, 0.0393458734820044),
        (6, 7, 0.043236481581904775),
        (7, 8, 0.028026989717838287),
    ],
)


def test_dual_defaults_match_reference_table():
    # the iteration cap is the one setting; step and tolerance are fixed
    assert [f.name for f in fields(DualParams)] == ["max_iterations"]
    assert DualParams().max_iterations == 1000
    assert dars._DUAL_STEP_SIZE == 0.005
    assert dars._DUAL_GRAD_TOL == 0.5


def test_single_node_constraint_residual():
    inst = make_instance(1, 4, [(0, 2, 1.0)])
    res = dars_solve(inst, seed=0)
    assert res.dual_converged
    assert res.constraint_residual_max < dars._DUAL_GRAD_TOL
    assert np.array_equal(res.labeling, [2])


def test_dual_gradient_zero_at_feasible_lift(rng):
    n, k = 3, 3
    enc = encode_pm(MrfInstance(n, k))
    x = rng.integers(0, k, size=n)
    y = labeling_to_pm(x, n, k)
    R = np.zeros((n * k + 1, 2))
    R[:, 0] = y  # rank-1 lift of a feasible sign vector
    g = dual_gradient(enc, R)
    assert np.max(np.abs(g)) < 1e-12


def test_dual_gradient_orthogonal_last_row():
    # every block row orthogonal to the homogenization row: constraint value
    # 0, so each gradient entry is -(2-K) = K-2
    n, k = 2, 4
    enc = encode_pm(MrfInstance(n, k))
    R = np.zeros((n * k + 1, 2))
    R[:-1, 0] = 1.0
    R[-1, 1] = 1.0
    g = dual_gradient(enc, R)
    assert np.allclose(g, k - 2.0)


@pytest.mark.parametrize("k", range(2, 9))
def test_dual_gradient_bounded_by_unit_diagonal(k, rng):
    # each entry sums K entries of Y = R R^T, all in [-1, 1] on unit rows,
    # minus 2 - K, so it lies in [-2, 2K - 2]: the residual never exceeds
    # 2K - 2, and reaches it when every block row is the last row
    n = 4
    enc = encode_pm(MrfInstance(n, k))
    for rank in (1, 2, 5):
        R = rng.standard_normal((n * k + 1, rank))
        R /= np.linalg.norm(R, axis=1, keepdims=True)
        assert np.max(np.abs(dual_gradient(enc, R))) <= 2 * k - 2 + 1e-12
    R[:-1] = R[-1]
    assert np.allclose(dual_gradient(enc, R), 2 * k - 2)


def test_dual_gradient_matches_dense_trace_oracle(rng):
    n, k = 3, 3
    enc = encode_pm(MrfInstance(n, k))
    dim = n * k + 1
    R = rng.standard_normal((dim, 3))
    w = R @ R.T
    for i in range(n):
        U = np.zeros((dim, dim))
        U[-1, i * k:(i + 1) * k] = 1.0
        expected = np.trace(U @ w) - (2 - k)
        assert dual_gradient(enc, R)[i] == pytest.approx(expected, abs=1e-12)


def test_round_exact_rank_one(rng):
    n, k = 4, 3
    x = rng.integers(0, k, size=n)
    y = labeling_to_pm(x, n, k)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    R = np.outer(y, direction)
    assert np.array_equal(dars_round(R, n, k), x)


def test_round_global_sign_invariance(rng):
    n, k = 3, 3
    R = rng.standard_normal((n * k + 1, 2))
    assert np.array_equal(dars_round(R, n, k), dars_round(-R, n, k))


def test_round_never_beats_brute_force(rng):
    for _ in range(10):
        mrf = random_instance(rng, max_nodes=4, max_labels=3, min_nodes=2)
        exact = brute_force(mrf)
        R = rng.standard_normal((mrf.num_nodes * mrf.num_labels + 1, 3))
        x = dars_round(R, mrf.num_nodes, mrf.num_labels)
        assert energy(mrf, x) >= exact.f_opt - 1e-12


def test_relaxed_value_matches_independent_sdp_oracle():
    res = dars_solve(TEST_INSTANCE, seed=0)
    assert res.dual_converged and res.certified
    assert abs(res.f_relaxed - ORACLE_RELAXED_OPTIMUM) <= \
        0.005 * abs(ORACLE_RELAXED_OPTIMUM)


# Same cross-check on a 3-label instance, where the per-node sum constraint
# is inhomogeneous (2 - K = -1) and the default dual tolerance of 0.5 leaves
# visible slack; tightening it converges onto the oracle value.  Constant
# from scripts/standard_sdp_oracle.py (residuals < 1e-13).
ORACLE_RELAXED_OPTIMUM_K3 = 0.47025700904284307

TEST_INSTANCE_K3 = make_instance(
    9, 3,
    [
        (0, 0, 0.515928517820536),
        (1, 1, 0.4223961701159212),
        (2, 1, 0.964535756223887),
        (3, 2, 0.4394760507997904),
        (4, 1, 0.6488615957810637),
        (5, 2, 0.5258922361595502),
        (6, 1, 0.3109820406406061),
        (7, 2, 0.5077932094924176),
        (8, 1, 0.8155320430629716),
    ],
    [
        (0, 1, 0.03174075211823048),
        (0, 3, 0.03947729098345565),
        (1, 2, 0.04360901061791916),
        (1, 4, 0.03728217934071161),
        (2, 5, 0.05173476378282717),
        (3, 4, 0.03387777193239286),
        (3, 6, 0.04201607702945223),
        (4, 5, 0.054111071948500664),
        (4, 7, 0.058506289919441706),
        (5, 8, 0.056666466389514406),
        (6, 7, 0.05429725226212921),
        (7, 8, 0.047829272676904316),
    ],
)


def test_three_label_oracle_agreement(monkeypatch):
    # default tolerance: the dual bound must stay below the true relaxation
    # optimum (weak duality holds regardless of how loosely lambda converged)
    loose = dars_solve(TEST_INSTANCE_K3, seed=16)
    assert loose.dual_converged and loose.certified
    assert loose.dual_bound <= ORACLE_RELAXED_OPTIMUM_K3 + 1e-3
    # tightened tolerance: the relaxed objective converges onto the oracle
    monkeypatch.setattr(dars, "_DUAL_GRAD_TOL", 0.02)
    tight = dars_solve(TEST_INSTANCE_K3, seed=16,
                       dual_params=DualParams(max_iterations=5000))
    assert tight.dual_converged and tight.certified
    assert abs(tight.f_relaxed - ORACLE_RELAXED_OPTIMUM_K3) <= \
        0.005 * ORACLE_RELAXED_OPTIMUM_K3


def test_weak_duality_and_rounding_bound():
    exact = brute_force(TEST_INSTANCE)
    res = dars_solve(TEST_INSTANCE, seed=0)
    assert res.dual_converged and res.certified
    # certified iterates carry up to _EIG_TOL * trace(Y) of value fuzz
    slack = staircase._EIG_TOL * (9 * 2 + 1)
    for d, cert in zip(res.dual_value_history, res.primal_certified_history):
        if cert:
            assert d + res.offset <= exact.f_opt + slack
    assert res.dual_bound <= exact.f_opt + 1e-3
    assert res.f_rounded - exact.f_opt <= res.f_rounded - res.dual_bound + 1e-3


def test_dual_bound_does_not_round_above_the_optimum():
    # a tight instance whose bound, summed plainly, lands one ulp above f_opt
    inst = nth_random_instance(7, 72, max_nodes=6, max_labels=4)
    res = dars_solve(inst, dual_params=DualParams(max_iterations=200), seed=72)
    assert res.dual_converged and res.certified
    assert res.dual_bound <= brute_force(inst).f_opt


def test_certificate_semantics():
    # weak duality: the bound holds at every lambda, so also on runs that
    # stop before the dual loop converges or the last primal step certifies
    f_opt = brute_force(TEST_INSTANCE).f_opt
    runs = [dars_solve(TEST_INSTANCE, dual_params=DualParams(max_iterations=m),
                       seed=0) for m in (1, 2, 3, 5)]
    runs.append(dars_solve(TEST_INSTANCE, seed=0))
    for res in runs:
        assert res.dual_bound <= f_opt
        assert res.f_rounded - f_opt <= res.subopt_bound
        assert res.subopt_bound == res.f_rounded - res.dual_bound
    assert not runs[0].dual_converged and runs[-1].dual_converged
    assert not all(res.certified for res in runs)


def _scaled(inst, c):
    return MrfInstance(inst.num_nodes, inst.num_labels, inst.unary_node,
                       inst.unary_label, c * inst.unary_weight, inst.edge_i,
                       inst.edge_j, c * inst.edge_weight)


@pytest.mark.parametrize("inst, max_iterations", [
    # no terms: iteration 1's bound is the optimum 0, later ones fall below
    (MrfInstance(3, 2), 20),
    # weights x1e-3: iteration 1's bound is the best, by a factor of ~40
    (_scaled(generate_grid_instance(10, 10, 5, unary_noise=0.3, seed=0),
             1e-3), 10),
], ids=["zero", "scaled-10x10"])
def test_dual_bound_is_the_best_over_all_iterates(inst, max_iterations,
                                                  monkeypatch):
    # every iterate's bound, in order: dars_solve sums each with _sum_down
    bounds = []

    def recording_sum_down(*terms):
        bounds.append(staircase._sum_down(*terms))
        return bounds[-1]

    monkeypatch.setattr(dars, "_sum_down", recording_sum_down)
    res = dars_solve(inst, dual_params=DualParams(max_iterations=max_iterations),
                     seed=0)
    assert not res.dual_converged and len(bounds) == max_iterations
    assert res.dual_bound == max(bounds) > bounds[-1]
    assert res.dual_bound_iteration == 1
    assert res.subopt_bound == res.f_rounded - res.dual_bound
    assert res.certified == res.primal_certified_history[0]
    if inst.num_nodes == 3:
        assert res.subopt_bound == 0.0


def test_dual_bound_tie_goes_to_the_later_iterate(monkeypatch):
    # every iterate's bound equal: the last one is reported
    monkeypatch.setattr(dars, "_sum_down", lambda *terms: -1.0)
    res = dars_solve(TEST_INSTANCE, dual_params=DualParams(max_iterations=3),
                     seed=0)
    assert res.dual_bound == -1.0
    assert res.dual_bound_iteration == res.dual_iterations == 3


def test_certified_is_the_flag_of_the_bound_s_iterate(monkeypatch):
    # iteration 1 gives the best bound and is the only certified primal step
    solve = dars.staircase_solve
    calls = []

    def first_certified(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res)
        res.certified = len(calls) == 1
        return res

    monkeypatch.setattr(dars, "staircase_solve", first_certified)
    monkeypatch.setattr(dars, "_sum_down", lambda *terms: -float(len(calls)))
    res = dars_solve(TEST_INSTANCE, dual_params=DualParams(max_iterations=3),
                     seed=0)
    assert res.primal_certified_history == [True, False, False]
    assert res.dual_bound == -1.0 and res.dual_bound_iteration == 1
    assert res.certified


def test_constraint_residual_reasserted_on_result():
    res = dars_solve(TEST_INSTANCE, seed=0)
    assert res.dual_converged
    assert res.constraint_residual_max < dars._DUAL_GRAD_TOL
    assert res.constraint_residual_max == res.residual_history[-1]


def test_warm_start_matches_cold_start_objective():
    enc = encode_pm(TEST_INSTANCE)
    lam = 0.01 * np.arange(9, dtype=float)
    L_lam = _l_lambda(enc, lam)
    shape = ManifoldShape(enc.dim, 0, 2)
    params = SolverParams(grad_norm_tol=1e-3)
    cold = staircase_solve(L_lam, shape, params, seed_or_rng=0)
    warm_init = staircase_solve(enc.L, shape, params, seed_or_rng=1)
    warm = staircase_solve(L_lam, shape, params,
                           warm_start=warm_init.R_opt, seed_or_rng=2)
    assert cold.certified and warm.certified
    assert warm.objective <= cold.objective + 1e-4


@pytest.mark.parametrize("seed", [3, 6])
def test_primal_solves_reach_their_gradient_target(seed, monkeypatch):
    # every rank of every primal solve, warm-started or not, ends below
    # TNT's refined gradient target, 1e-3 * DARS_SOLVER_PARAMS.grad_norm_tol
    solve = dars.staircase_solve
    rank_histories = []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        rank_histories.append(res.rank_history)
        return res

    monkeypatch.setattr(dars, "staircase_solve", recording_solve)
    dars_solve(generate_grid_instance(3, 3, 2, unary_noise=0.3, seed=seed),
               seed=seed)
    grad_norms = [gnorm for history in rank_histories
                  for _, _, gnorm in history]
    assert len(rank_histories) >= 2
    assert max(grad_norms) < 1e-6


def test_l_lambda_adds_symmetrized_constraints():
    enc = encode_pm(TEST_INSTANCE)
    lam = 0.01 * np.arange(1, 10, dtype=float)
    ref = enc.L.toarray()
    k, last = enc.num_labels, enc.dim - 1
    for i, li in enumerate(lam):
        ref[i * k:(i + 1) * k, last] += li / 2
        ref[last, i * k:(i + 1) * k] += li / 2
    assert np.array_equal(_l_lambda(enc, lam).toarray(), ref)


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0), ("max_iterations", 2.5),
])
def test_dual_params_validation(field, value):
    with pytest.raises(InvalidInputError):
        DualParams(**{field: value})


def test_oversized_step_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(dars, "_DUAL_STEP_SIZE", 50.0)
    res = dars_solve(TEST_INSTANCE, seed=0,
                     dual_params=DualParams(max_iterations=50))
    assert not res.dual_converged
    assert res.dual_iterations == 50
    assert res.constraint_residual_max >= dars._DUAL_GRAD_TOL


def test_mixed_sign_instances_report_honestly(rng):
    # dual ascent has no convergence guarantee on adversarial instances;
    # non-convergence must be flagged, and certified converged runs must
    # still carry valid bounds
    from conftest import make_instance, random_instance

    dual = DualParams(max_iterations=200)
    for t in range(8):
        inst = random_instance(rng, max_nodes=4, max_labels=3, min_nodes=2)
        res = dars_solve(inst, seed=t, dual_params=dual)
        exact = brute_force(inst)
        if res.dual_converged:
            assert res.constraint_residual_max < dars._DUAL_GRAD_TOL
            if res.certified:
                assert res.dual_bound <= exact.f_opt + 1e-3
        else:
            assert res.dual_iterations == dual.max_iterations
        assert energy(inst, res.labeling) == pytest.approx(res.f_rounded)


def test_initial_rank_two():
    inst = make_instance(1, 3, [(0, 1, 1.0)])
    res = dars_solve(inst, seed=0)
    assert res.rank_history[0][0] == 2


def test_determinism_same_seed():
    a = dars_solve(TEST_INSTANCE, seed=3)
    b = dars_solve(TEST_INSTANCE, seed=3)
    assert np.array_equal(a.labeling, b.labeling)
    assert a.f_relaxed == b.f_relaxed
    assert a.dual_value_history == b.dual_value_history


def test_determinism_sparse_certificates():
    # 501 rows: the certificates take ARPACK's path, whose restarts must
    # draw from the solve's seeded generator
    inst = generate_grid_instance(10, 10, 5, unary_noise=0.3, seed=3)
    a = dars_solve(inst, seed=2)
    b = dars_solve(inst, seed=2)
    assert a.dual_bound == b.dual_bound
    assert a.dual_value_history == b.dual_value_history


def test_verbose_per_iteration_log(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="mrfsdp.dars"):
        res = dars_solve(TEST_INSTANCE, seed=0)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "mrfsdp.dars" and r.getMessage().startswith("dual ")]
    assert len(lines) == res.dual_iterations
    fields = dict(kv.split("=") for kv in lines[-1].split()[1:])
    assert {"iter", "grad_inf_norm", "primal_objective", "rank"} <= set(fields)
    assert float(fields["grad_inf_norm"]) == pytest.approx(
        res.constraint_residual_max, rel=1e-5)
