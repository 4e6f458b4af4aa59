import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import mrfsdp.staircase as staircase
from mrfsdp import (
    InvalidInputError,
    ManifoldShape,
    NumericalFailureError,
    SolverParams,
    dars_solve,
    encode_zo,
    fuses_round,
    fuses_solve,
    generate_grid_instance,
    project_tangent,
    random_point,
    staircase_solve,
    tnt_minimize,
    trace_quadratic,
    zo_to_labeling,
)
from mrfsdp.manifold import _hessian_operator, _multipliers

from conftest import make_instance


def test_solver_params_defaults_match_reference_table():
    p = SolverParams()
    assert p.eig_tol == 1e-2
    assert p.rel_func_decrease_tol == 1e-5
    assert p.max_tnt_iterations == 500
    assert p.initial_tr_radius == 1.0
    assert p.tr_decrease_factor == 0.25
    assert p.tr_increase_factor == 2.5
    assert p.max_cg_iterations == 2000
    assert p.cg_success_eta == 0.9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grad_norm_tol=0.0),
        dict(tr_decrease_factor=1.5),
        dict(tr_increase_factor=0.5),
        dict(cg_success_eta=1.0),
        dict(max_tnt_iterations=0),
    ],
)
def test_solver_params_validation(kwargs):
    with pytest.raises(InvalidInputError):
        SolverParams(**kwargs)


def test_tnt_zero_matrix_returns_start(rng):
    shape = ManifoldShape(5, 0, 2)
    R0 = random_point(shape, rng)
    M = sp.csr_matrix((5, 5))
    R, f, gnorm, iters = tnt_minimize(M, shape, R0, SolverParams())
    assert np.array_equal(R, R0)
    assert f == 0.0
    assert gnorm == 0.0
    assert iters == 0


def test_tnt_rank1_sphere_product_diagonal(rng):
    # with r=1 every row is +/-1, so the objective is the diagonal sum and
    # the gradient vanishes identically
    diag = np.array([-3.0, -2.0, -1.0, -0.5])
    M = sp.diags(diag).tocsr()
    shape = ManifoldShape(4, 0, 1)
    R0 = random_point(shape, rng)
    R, f, gnorm, _ = tnt_minimize(M, shape, R0, SolverParams())
    assert f == pytest.approx(diag.sum())
    assert gnorm < SolverParams().grad_norm_tol


def test_tnt_reaches_default_gradient_tolerance(rng):
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=11)
    enc = encode_zo(inst)
    shape = ManifoldShape(9, 3, 4)
    R0 = random_point(shape, rng)
    _, _, gnorm, _ = tnt_minimize(enc.Q, shape, R0, SolverParams())
    assert gnorm < 1e-2


def test_tnt_accepted_steps_strictly_decrease(rng, caplog):
    inst = generate_grid_instance(3, 3, 2, unary_noise=0.4, seed=2)
    enc = encode_zo(inst)
    shape = ManifoldShape(9, 2, 3)
    R0 = random_point(shape, rng)
    with caplog.at_level(logging.INFO, logger="mrfsdp.staircase"):
        tnt_minimize(enc.Q, shape, R0, SolverParams())
    accepted = []
    for record in caplog.records:
        fields = dict(kv.split("=") for kv in record.getMessage().split()[1:])
        if fields.get("accepted") == "1":
            accepted.append(float(fields["f"]))
    assert len(accepted) >= 2
    assert all(b < a + 1e-12 for a, b in zip(accepted, accepted[1:]))


def test_tnt_nonfinite_objective_raises(rng):
    M = sp.diags([1e308, 1e308]).tocsr()
    shape = ManifoldShape(2, 0, 1)
    R0 = random_point(shape, rng)
    with np.errstate(over="ignore"), pytest.raises(NumericalFailureError) as err:
        tnt_minimize(M, shape, R0, SolverParams())
    assert err.value.last_point is not None


def test_staircase_unary_only_certifies_first_rank():
    unary = [(i, (i * 2) % 3, 1.0 + 0.1 * i) for i in range(4)]
    inst = make_instance(4, 3, unary)
    enc = encode_zo(inst)
    shape = ManifoldShape(4, 3, 4)
    res = staircase_solve(enc.Q, shape, SolverParams(), seed_or_rng=0)
    assert res.certified
    assert len(res.rank_history) == 1
    assert res.rank_history[0][0] == 4
    labels = zo_to_labeling(fuses_round(res.R_opt, 4, 3))
    assert np.array_equal(labels, [lab for _, lab, _ in unary])


def test_staircase_escape_two_node_coupling():
    # two unit rows, cost 2*x1.x2: every rank-1 point is critical, and seed 1
    # starts at the suboptimal one ([1, 1], objective +2), so the staircase
    # must lift to rank 2 and escape the saddle to reach the optimum at -2
    M = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    shape = ManifoldShape(2, 0, 1)
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=1)
    assert res.certified
    assert res.objective == pytest.approx(-2.0, abs=1e-6)
    assert len(res.rank_history) == 2
    assert res.rank_history[0][0] == 1
    assert res.rank_history[1][0] == 2


def test_staircase_lift_keeps_anchor_block():
    # rank 3 is not enough for this indefinite M: the staircase lifts to 4
    # along the gauge-fixed escape direction, which leaves the anchor block
    # B0 = [I_3 0] exactly where random_point put it
    A = np.random.default_rng(0).standard_normal((12, 12))
    M = sp.csr_matrix((A + A.T) / 2.0)
    res = staircase_solve(M, ManifoldShape(9, 3, 3), SolverParams(),
                          seed_or_rng=0)
    assert [r for r, _, _ in res.rank_history] == [3, 4]
    assert res.certified
    assert res.objective >= res.lower_bound
    assert res.objective == pytest.approx(-31.7138, abs=1e-4)
    assert np.array_equal(res.R_opt[9:], np.eye(3, 4))


@pytest.mark.parametrize("rows,cols,k", [(3, 3, 3), (10, 10, 5), (25, 40, 19)])
def test_gauge_fixed_point_is_critical_with_moving_block(rows, cols, k):
    # trace(Q R R^T) is invariant under R -> R Q, so a critical point with
    # the block held fixed is one where the block may move too: the
    # gradient on unit rows plus an orthonormal block B, written out here,
    # is as small as the one TNT stopped at
    inst = generate_grid_instance(rows, cols, k, unary_noise=0.3, seed=0)
    Q, n = encode_zo(inst).Q, inst.num_nodes
    res = staircase_solve(Q, ManifoldShape(n, k, k + 1), SolverParams(),
                          seed_or_rng=0)
    R = res.R_opt
    G = 2.0 * (Q @ R)
    full = G.copy()
    full[:n] -= np.einsum("ij,ij->i", G[:n], R[:n])[:, None] * R[:n]
    B = R[n:]
    C = G[n:] @ B.T
    full[n:] = G[n:] - 0.5 * (C + C.T) @ B
    assert np.linalg.norm(full) <= 10.0 * res.rank_history[-1][2]


def test_staircase_certifies_optimal_rank1_start_via_lift_probe():
    # seed 3 starts at the optimum [1, -1]; its multipliers give a
    # certificate matrix S = [[1, 1], [1, 1]] >= 0, so rank 1 certifies
    # without a lift
    M = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    shape = ManifoldShape(2, 0, 1)
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=3)
    assert res.certified
    assert res.objective == pytest.approx(-2.0)
    assert len(res.rank_history) == 1


def test_staircase_objective_matches_point(rng):
    inst = generate_grid_instance(2, 3, 2, unary_noise=0.3, seed=4)
    enc = encode_zo(inst)
    shape = ManifoldShape(6, 2, 3)
    res = staircase_solve(enc.Q, shape, SolverParams(), seed_or_rng=rng)
    assert res.objective == pytest.approx(
        trace_quadratic(enc.Q, res.R_opt), rel=1e-9)


def _sparse_instance_cost():
    # 16x20 grid, K=3: 323 rows, above the dense eigen-solve cut-off
    inst = generate_grid_instance(16, 20, 3, unary_noise=0.3, seed=3)
    enc = encode_zo(inst)
    return enc.Q, ManifoldShape(inst.num_nodes, 3, 4)


def test_certificate_sparse_path_is_seeded():
    M, shape = _sparse_instance_cost()
    assert shape.total_rows > staircase._DENSE_EIG_ROWS
    a = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    b = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    assert a.certified
    assert a.lower_bound <= a.objective
    assert (a.lower_bound, a.min_eig) == (b.lower_bound, b.min_eig)


def test_certificate_repeats_for_one_rng_state(monkeypatch):
    # the late dars certificate matrices of this 501-row grid make ARPACK
    # restart; each restart vector must come from rng
    calls = []
    certificate = staircase._certificate

    def recording_certificate(M, shape, R, rng):
        calls.append((M, shape, R))
        return certificate(M, shape, R, rng)

    monkeypatch.setattr(staircase, "_certificate", recording_certificate)
    inst = generate_grid_instance(10, 10, 5, unary_noise=0.3, seed=3)
    dars_solve(inst, seed=2)
    M, shape, R = calls[-1]
    assert shape.total_rows > staircase._DENSE_EIG_ROWS
    a, b = (certificate(M, shape, R, np.random.default_rng(0)) for _ in range(2))
    assert a[:2] == b[:2]
    assert np.array_equal(a[2], b[2])


def test_certificate_falls_back_to_gershgorin(monkeypatch):
    M, shape = _sparse_instance_cost()
    good = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    # one restart of a 3-vector Krylov basis cannot converge
    monkeypatch.setattr(staircase, "_EIGSH_MAXITER", 1)
    monkeypatch.setattr(staircase, "_EIGSH_NCV", 3)
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    assert not res.certified
    assert len(res.rank_history) == 1
    # theta := -G, the Gershgorin bound max_i sum_j |S_ij| on |lambda_min(S)|
    assert res.min_eig < -1.0
    assert res.lower_bound == pytest.approx(
        res.objective + res.min_eig * shape.total_rows)
    assert res.lower_bound < good.lower_bound


def test_symmetry_checked_once_per_staircase(monkeypatch):
    calls = []
    check = staircase.check_symmetric
    monkeypatch.setattr(staircase, "check_symmetric",
                        lambda M: calls.append(1) or check(M))
    M = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = staircase_solve(M, ManifoldShape(2, 0, 1), SolverParams(),
                          seed_or_rng=1)
    assert len(res.rank_history) == 2 and len(calls) == 1
    tnt_minimize(M, ManifoldShape(2, 0, 2), res.R_opt, SolverParams())
    assert len(calls) == 2


def _indefinite_operator(scaled):
    """The Hessian operator of a small indefinite M at a random point, a CG
    preconditioner c (ones, or random positive scalars, one per sphere row;
    1 on the anchor block, where tangent vectors vanish), and the tangent
    eigenvectors of the pencil (H, C) (columns, as flattened points,
    C-orthonormal) by eigenvalue."""
    rng = np.random.default_rng(3)
    shape = ManifoldShape(6, 2, 3)
    A = rng.standard_normal((8, 8))
    M = sp.csr_matrix((A + A.T) / 2.0)
    R = random_point(shape, rng)
    hess = _hessian_operator(shape, R, M, _multipliers(shape, R, M @ R)[0])
    c = np.ones((shape.total_rows, 1))
    if scaled:
        c[:6, 0] = rng.uniform(0.2, 5.0, 6)
    P = np.array([project_tangent(shape, R, e.reshape(R.shape)).ravel()
                  for e in np.eye(R.size)])
    w, U = np.linalg.eigh(P)
    U = U[:, w > 0.5]  # orthonormal basis of the tangent space
    H = U.T @ np.column_stack([hess(u.reshape(R.shape)).ravel() for u in U.T])
    C = U.T @ (np.broadcast_to(c, R.shape).ravel()[:, None] * U)
    lam, Y = scipy.linalg.eigh(0.5 * (H + H.T), C)
    assert U.shape[1] == shape.tangent_dim and lam[0] < 0.0 < lam[-1]
    return hess, c, R.shape, lam, U @ Y


_EXIT_KINDS = ["interior", "boundary", "negative_curvature"]


# identity preconditioner under the bare exit kind, a random one as "-scaled"
@pytest.mark.parametrize(
    "exit_kind,scaled",
    [(kind, False) for kind in _EXIT_KINDS] + [(kind, True) for kind in _EXIT_KINDS],
    ids=_EXIT_KINDS + [kind + "-scaled" for kind in _EXIT_KINDS])
def test_steihaug_returns_hessian_of_step(exit_kind, scaled):
    # grad = C E 1 on generalized eigenvectors E (H E = C E lam), so the
    # Newton step is -E_pos (1 / lam_pos), of c-norm ||1 / lam_pos||
    hess, c, point_shape, lam, E = _indefinite_operator(scaled)
    c_flat = np.broadcast_to(c, point_shape).ravel()
    pos = lam > 0.0
    ones = np.ones(pos.sum())
    grad = c_flat * (E[:, pos] @ ones)
    radius = 1e6
    if exit_kind == "boundary":
        # 0.8 of the Newton step: the first CG step already crosses half of
        # it, and the boundary exit should come from inside the loop
        radius = 0.8 * np.linalg.norm(ones / lam[pos])
    elif exit_kind == "negative_curvature":
        # at half weight the first direction still has positive curvature
        # (sum lam_pos + sum lam_neg / 4 > 0), so CG meets the negative
        # curvature inside its loop
        grad = grad + c_flat * (0.5 * E[:, ~pos].sum(axis=1))
    applied = []

    def hess_vec(d):
        Hd = hess(d)
        applied.append(float(np.sum(d * Hd)))
        return Hd

    s, Hs, hit_boundary, iters = staircase._steihaug(
        grad.reshape(point_shape), hess_vec, c, radius, 2000, 1e-6)
    assert iters == len(applied) >= 2
    assert hit_boundary == (exit_kind != "interior")
    assert (applied[-1] <= 0.0) == (exit_kind == "negative_curvature")
    if hit_boundary:
        assert np.sqrt(np.sum(c * s * s)) == pytest.approx(radius, rel=1e-12)
    expected = hess(s)
    assert np.linalg.norm(Hs - expected) <= 1e-10 * np.linalg.norm(expected)


def test_preconditioner_invariant_to_weight_scale(rng):
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=11)
    M = encode_zo(inst).Q
    shape = ManifoldShape(9, 3, 4)
    R = random_point(shape, rng)
    cs = []
    for scale in (1.0, 1e3):
        lam = _multipliers(shape, R, scale * M @ R)[0]
        cs.append(staircase._preconditioner(shape, (scale * M).diagonal(), lam))
    c = cs[0]
    assert c.shape == (12, 1) and np.all(c > 0.0)
    assert c.mean() == pytest.approx(1.0, rel=1e-12)
    assert np.ptp(c[:9]) > 0.0 and np.ptp(c[9:]) == 0.0
    assert cs[1] == pytest.approx(c, rel=1e-12)


def _fuses_hessian_products(monkeypatch, instances):
    applied = []

    def counting_operator(*args):
        hess = _hessian_operator(*args)
        return lambda V: applied.append(1) or hess(V)

    with monkeypatch.context() as m:
        m.setattr(staircase, "_hessian_operator", counting_operator)
        results = [fuses_solve(inst, seed=0) for inst in instances]
    return len(applied), results


def test_preconditioner_saves_hessian_products(monkeypatch):
    # summed over eight 10x10 K=5 grids: the saving per grid ranges from
    # about 1.2x to 1.6x
    instances = [generate_grid_instance(10, 10, 5, unary_noise=0.3, seed=seed)
                 for seed in range(8)]
    n_pre, pre = _fuses_hessian_products(monkeypatch, instances)
    monkeypatch.setattr(staircase, "_preconditioner",
                        lambda shape, *_: np.ones((shape.total_rows, 1)))
    n_plain, plain = _fuses_hessian_products(monkeypatch, instances)
    assert n_plain >= 1.3 * n_pre
    for a, b in zip(pre, plain):
        assert a.certified and b.certified
        assert np.array_equal(a.labeling, b.labeling)


def test_tnt_one_hessian_product_per_cg_iteration(rng, monkeypatch):
    applied, cg_iterations = [], []
    steihaug = staircase._steihaug

    def counting_operator(*args):
        hess = _hessian_operator(*args)
        return lambda V: applied.append(1) or hess(V)

    def counting_steihaug(*args):
        out = steihaug(*args)
        cg_iterations.append(out[3])
        return out

    monkeypatch.setattr(staircase, "_hessian_operator", counting_operator)
    monkeypatch.setattr(staircase, "_steihaug", counting_steihaug)
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=11)
    shape = ManifoldShape(9, 3, 4)
    _, _, _, iters = tnt_minimize(encode_zo(inst).Q, shape,
                                  random_point(shape, rng), SolverParams())
    assert iters == len(cg_iterations) >= 2
    assert len(applied) == sum(cg_iterations)
