import dataclasses
import itertools
import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import mrfsdp.dars as dars
import mrfsdp.staircase as staircase
from mrfsdp import (
    DARS_SOLVER_PARAMS,
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
    retract,
    staircase_solve,
    tnt_minimize,
    trace_quadratic,
)
from mrfsdp.manifold import _hessian_operator, _multipliers, check_symmetric

from conftest import make_instance


def test_solver_params_defaults_match_reference_table():
    assert [f.name for f in dataclasses.fields(SolverParams)] == ["grad_norm_tol"]
    assert SolverParams().grad_norm_tol == 1e-2
    # a config file may write 1 for 1.0
    assert SolverParams(grad_norm_tol=1).grad_norm_tol == 1
    # the rest of the reference table is fixed in the module
    assert staircase._EIG_TOL == 1e-2
    assert staircase._MAX_TNT_ITERATIONS == 500
    assert staircase._INITIAL_TR_RADIUS == 1.0
    assert staircase._TR_DECREASE_FACTOR == 0.25
    assert staircase._TR_INCREASE_FACTOR == 2.5
    assert staircase._MAX_CG_ITERATIONS == 2000
    assert staircase._CG_ETA == 0.9
    assert staircase._MAX_STAIRCASE_STEPS == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grad_norm_tol=0.0),
        # no field takes a string or a bool
        dict(grad_norm_tol="1e-2"),
        dict(grad_norm_tol=True),
        dict(grad_norm_tol=float("nan")),
        # a tolerance is a positive real number
        dict(grad_norm_tol=-1e-2),
        dict(grad_norm_tol=-float("inf")),
        dict(grad_norm_tol=0),
        dict(grad_norm_tol=None),
        dict(grad_norm_tol=1e-2j),
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


def test_tnt_stop_sees_the_start_and_every_accepted_point(rng):
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=11)
    M = encode_zo(inst).Q
    shape = ManifoldShape(9, 3, 4)
    R0 = random_point(shape, rng)
    params = SolverParams(1e-9)
    R_full, _, _, iters_full = tnt_minimize(M, shape, R0, params)
    # a stop that never fires leaves the run as it was
    seen = []

    def never(R, f, MR, gnorm):
        np.testing.assert_allclose(MR, M @ R, rtol=0, atol=1e-12)
        seen.append((R, f, gnorm))
        return False

    R, _, gnorm, iters = tnt_minimize(M, shape, R0, params, stop=never)
    assert np.array_equal(R, R_full) and iters == iters_full
    assert np.array_equal(seen[0][0], R0) and R is seen[-1][0]
    assert gnorm == seen[-1][2]
    assert all(b[1] < a[1] for a, b in zip(seen, seen[1:]))
    assert len(seen) >= 4
    # stopping at the third point seen returns that point
    stops = []
    R, f, gnorm, iters = tnt_minimize(
        M, shape, R0, params,
        stop=lambda *point: stops.append(point) or len(stops) == 3)
    assert len(stops) == 3
    assert R is stops[-1][0] and (f, gnorm) == (stops[-1][1], stops[-1][3])
    assert np.array_equal(R, seen[2][0]) and iters < iters_full


def test_tnt_nonfinite_objective_raises(rng):
    M = sp.diags([1e308, 1e308]).tocsr()
    shape = ManifoldShape(2, 0, 1)
    R0 = random_point(shape, rng)
    with np.errstate(over="ignore"), pytest.raises(NumericalFailureError) as err:
        tnt_minimize(M, shape, R0, SolverParams())
    assert err.value.last_point is not None


@pytest.mark.parametrize("solve", [fuses_solve, dars_solve],
                         ids=["fuses", "dars"])
@pytest.mark.parametrize("weight", [1e155, 1e200, 1e250, 1e300])
def test_overflowing_curvature_is_a_numerical_failure(solve, weight):
    # CG's curvature d^T H d comes out NaN here: it takes the boundary exit,
    # and the step fails TNT's finite-objective check
    inst = make_instance(2, 2, [(0, 1, weight)], [(0, 1, weight)])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalFailureError, match="non-finite") as err:
        solve(inst, seed=0)
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
    labels = fuses_round(res.R_opt, 4, 3)
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


def _decline_schur(monkeypatch):
    """Make every certificate take the eigen-solve path."""
    monkeypatch.setattr(staircase, "_schur_certificate", lambda *args: None)


def test_certificate_sparse_path_is_seeded(monkeypatch):
    _decline_schur(monkeypatch)
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

    def recording_certificate(M, lam, Lam_B, budget, rng):
        calls.append((M, lam, Lam_B, budget))
        return certificate(M, lam, Lam_B, budget, rng)

    monkeypatch.setattr(staircase, "_certificate", recording_certificate)
    inst = generate_grid_instance(10, 10, 5, unary_noise=0.3, seed=3)
    dars_solve(inst, seed=2)
    args = calls[-1]
    assert args[0].shape[0] > staircase._DENSE_EIG_ROWS
    a, b = (certificate(*args, np.random.default_rng(0)) for _ in range(2))
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def _starve_arpack(monkeypatch):
    """One restart of a 3-vector Krylov basis cannot converge."""
    monkeypatch.setattr(staircase, "_EIGSH_MAXITER", 1)
    monkeypatch.setattr(staircase, "_EIGSH_NCV", 3)


def test_certificate_falls_back_to_gershgorin(monkeypatch):
    _decline_schur(monkeypatch)
    M, shape = _sparse_instance_cost()
    good = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    _starve_arpack(monkeypatch)
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    assert not res.certified
    assert len(res.rank_history) == 1
    # t := -G, the Gershgorin bound max_i sum_j |S_ij| on |lambda_min(S)|
    assert res.min_eig < -1.0
    assert res.lower_bound == pytest.approx(
        res.objective + res.min_eig * shape.total_rows)
    assert res.lower_bound < good.lower_bound


def _negated_edges_cost():
    """fuses cost of a grid with every other edge weight negated: Gershgorin
    fails on its sphere block, so the eigen-solve certifies it."""
    inst = generate_grid_instance(16, 20, 3, unary_noise=0.3, seed=3)
    w = inst.edge_weight.copy()
    w[::2] *= -1.0
    inst = dataclasses.replace(inst, edge_weight=w)
    return encode_zo(inst).Q, ManifoldShape(inst.num_nodes, 3, 3)


@pytest.mark.parametrize("path", ["schur", "eigsh", "gershgorin"])
def test_lower_bound_is_rebuilt_from_min_eig(path, monkeypatch):
    # one formula turns min_eig into lower_bound, whichever mechanism
    # supplied it
    if path == "schur":
        inst = generate_grid_instance(4, 5, 3, unary_noise=0.3, seed=1)
        M, shape = encode_zo(inst).Q, ManifoldShape(inst.num_nodes, 3, 3)
    elif path == "eigsh":
        M, shape = _negated_edges_cost()
    else:
        _decline_schur(monkeypatch)
        _starve_arpack(monkeypatch)
        M, shape = _sparse_instance_cost()
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=2)
    assert res.certificate == ("schur" if path == "schur" else "eigsh")
    assert res.certified == (path != "gershgorin")
    R = res.R_opt
    lam, Lam_B = _multipliers(shape.with_rank(R.shape[1]), R, M @ R)
    assert res.lower_bound == staircase._dual_bound(lam, Lam_B, res.min_eig)


def certificate_matrix(M, shape, R):
    """S = M - blkdiag(Diag lambda, Lambda_B), written out: lambda_i =
    (M R)_i . R_i, Lambda_B = sym((M R)_B R_B^T)."""
    S = M.toarray()
    MR = S @ R
    ns = shape.n_sphere_rows
    S[np.arange(ns), np.arange(ns)] -= np.einsum("ij,ij->i", MR[:ns], R[:ns])
    C = MR[ns:] @ R[ns:].T
    S[ns:, ns:] -= 0.5 * (C + C.T)
    return S


def _schur_bound(M, shape, R):
    """The Schur certificate's t* at R, or None where it declines."""
    MR = M @ R
    return staircase._schur_certificate(
        shape, R, MR, *_multipliers(shape, R, MR), M.diagonal(),
        staircase._sphere_offdiag_sums(M, shape.n_sphere_rows))


def _random_block_points(rng, count):
    """(M, shape, R): mixed-sign M with 1-4 block rows, and sphere rows
    that point against C B plus noise of random size, so that Gershgorin
    proves A > 0 at some points and not at others."""
    for _ in range(count):
        ns, k = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        rank = k + int(rng.integers(0, 3))
        A = rng.standard_normal((ns + k, ns + k))
        M = (A + A.T) / 2.0
        M[:ns, :ns] *= rng.choice([0.01, 0.1, 1.0])
        M = sp.csr_matrix(M)
        # a signed column permutation of [I_k 0]: exactly orthonormal rows
        B = (np.eye(k, rank)[:, rng.permutation(rank)]
             * rng.choice([-1.0, 1.0], rank))
        noise = rng.choice([0.0, 0.1, 1.0, 10.0])
        Rs = -(M[:ns, ns:] @ B) + noise * rng.standard_normal((ns, rank))
        Rs /= np.linalg.norm(Rs, axis=1, keepdims=True)
        yield M, ManifoldShape(ns, k, rank), np.vstack([Rs, B])


def _fuses_points(rng):
    """(M, shape, R): fuses staircase optima at weight scales 1e-3, 1 and
    1e3, each followed by 30 retracted tangent steps of size 1e-6 to 1."""
    grids = [(2, 3, 2), (3, 3, 3), (3, 4, 3), (2, 4, 4)] * 3
    for seed, (rows, cols, k) in enumerate(grids):
        inst = generate_grid_instance(rows, cols, k, unary_noise=0.3,
                                      seed=seed)
        for c in (1e-3, 1.0, 1e3):
            M = (c * encode_zo(inst).Q).tocsr()
            R = staircase_solve(M, ManifoldShape(inst.num_nodes, k, k + 1),
                                SolverParams(), seed_or_rng=seed).R_opt
            shape = ManifoldShape(inst.num_nodes, k, R.shape[1])
            yield M, shape, R
            for size in np.logspace(-6, 0, 30):
                V = project_tangent(shape, R, rng.standard_normal(R.shape))
                yield M, shape, retract(shape, R, (size / np.linalg.norm(V)) * V)


def test_schur_certificate_bounds_lambda_min():
    rng = np.random.default_rng(0)
    returned = declined = 0
    for M, shape, R in itertools.chain(_random_block_points(rng, 1000),
                                       _fuses_points(rng)):
        t = _schur_bound(M, shape, R)
        if t is None:
            declined += 1
            continue
        returned += 1
        lam_min = np.linalg.eigvalsh(certificate_matrix(M, shape, R))[0]
        assert t <= lam_min + 1e-10 * max(1.0, abs(lam_min))
    assert returned + declined >= 2000
    assert returned and declined


@pytest.mark.parametrize("rows,cols,k", [(25, 40, 19), (100, 100, 5)])
def test_certified_fuses_staircase_makes_no_eigen_solve(rows, cols, k,
                                                        monkeypatch):
    # fuses_solve's staircase call, on its default start
    calls = []
    eigsh = staircase.eigsh
    monkeypatch.setattr(staircase, "eigsh",
                        lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
    inst = generate_grid_instance(rows, cols, k, unary_noise=0.3, seed=0)
    M, shape = encode_zo(inst).Q, ManifoldShape(inst.num_nodes, k, k)
    res = staircase_solve(M, shape, SolverParams(), seed_or_rng=0)
    assert res.certified and res.certificate == "schur"
    assert not calls
    # Schur certifies the loose TNT point at rank K: no refinement, so the
    # gradient norm stays above the refined target
    [(rank, iters, gnorm)] = res.rank_history
    assert rank == k
    assert iters == {(25, 40, 19): 4, (100, 100, 5): 5}[rows, cols, k]
    assert gnorm < SolverParams().grad_norm_tol
    # min_eig is the bound t*, within the budget / m of the eigen-solve's
    # charged bound on R
    R = res.R_opt
    budget = staircase._CERTIFY_RTOL * max(1.0, abs(res.objective))
    t, _ = staircase._certificate(
        M, *_multipliers(shape.with_rank(R.shape[1]), R, M @ R), budget,
        np.random.default_rng(0))
    assert calls
    assert abs(res.min_eig - t) <= budget / shape.total_rows


def _record_stages(monkeypatch, declines=0):
    """Record ("tnt", grad_norm_tol) per TNT call, ("schur", gradient norm
    at the tested point) per Schur test and "eigsh" per eigen-solve, in call
    order; the first `declines` Schur tests return None."""
    events = []
    tnt, schur, certificate = (staircase.tnt_minimize,
                               staircase._schur_certificate,
                               staircase._certificate)

    def recording_tnt(M, shape, R, params, **kw):
        events.append(("tnt", params.grad_norm_tol))
        return tnt(M, shape, R, params, **kw)

    def recording_schur(shape, R, MR, *args):
        grad = project_tangent(shape, R, 2.0 * MR)
        events.append(("schur", float(np.linalg.norm(grad))))
        if len(_kinds(events, "schur")) <= declines:
            return None
        return schur(shape, R, MR, *args)

    def recording_certificate(*args):
        events.append("eigsh")
        return certificate(*args)

    monkeypatch.setattr(staircase, "tnt_minimize", recording_tnt)
    monkeypatch.setattr(staircase, "_schur_certificate", recording_schur)
    monkeypatch.setattr(staircase, "_certificate", recording_certificate)
    return events


def _kinds(events, kind=None):
    """The events' kinds ("tnt", "schur", "eigsh"), or the events of one kind."""
    kinds = [e[0] if isinstance(e, tuple) else e for e in events]
    return kinds if kind is None else [e for e, k in zip(events, kinds)
                                       if k == kind]


_FUSES_LARGE_SHAPE = ManifoldShape(1000, 19, 19)


def _fuses_large_staircase():
    inst = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=0)
    return staircase_solve(encode_zo(inst).Q, _FUSES_LARGE_SHAPE,
                           SolverParams(), seed_or_rng=0)


def test_schur_certified_rank_runs_tnt_once(monkeypatch):
    # TNT run to grad_norm_tol alone, from the staircase's start
    inst = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=0)
    R0 = random_point(_FUSES_LARGE_SHAPE, np.random.default_rng(0))
    R_loose, _, gnorm, iters = tnt_minimize(
        encode_zo(inst).Q, _FUSES_LARGE_SHAPE, R0, SolverParams())
    events = _record_stages(monkeypatch)
    res = _fuses_large_staircase()
    assert res.certified and res.certificate == "schur"
    # one TNT call toward the refined target, which the Schur test stops at
    # its first point below grad_norm_tol: the point TNT alone ends on
    refined = SolverParams().grad_norm_tol * staircase._REFINE_GRAD_FACTOR
    assert events == [("tnt", refined), ("schur", pytest.approx(gnorm))]
    assert np.array_equal(res.R_opt, R_loose)
    assert res.rank_history == [(19, iters, gnorm)]


def test_declined_schur_takes_one_more_tnt_step(monkeypatch):
    events = _record_stages(monkeypatch, declines=1)
    res = _fuses_large_staircase()
    tol = SolverParams().grad_norm_tol
    assert _kinds(events) == ["tnt", "schur", "schur"]
    (_, first), (_, second) = _kinds(events, "schur")
    assert second < first < tol
    # one TNT step past the 4 of the undeclined run, with no eigen-solve
    assert res.certified and res.certificate == "schur"
    assert res.rank_history[0][1] == 5


def test_declined_schur_refines_before_the_eigen_solve(monkeypatch):
    events = _record_stages(monkeypatch, declines=math.inf)
    res = _fuses_large_staircase()
    tol = SolverParams().grad_norm_tol
    refined = tol * staircase._REFINE_GRAD_FACTOR
    # Schur at every accepted point below grad_norm_tol, then the
    # eigen-solve at the refined point
    schur = _kinds(events, "schur")
    assert _kinds(events) == ["tnt"] + ["schur"] * len(schur) + ["eigsh"]
    assert len(schur) >= 2 and all(g < tol for _, g in schur)
    assert schur[-1][1] < refined
    assert res.certified and res.certificate == "eigsh"
    assert res.rank_history[0][2] < refined


def test_no_block_staircase_runs_only_refined_tnt(monkeypatch):
    events = _record_stages(monkeypatch)
    inst = generate_grid_instance(3, 3, 2, unary_noise=0.3, seed=0)
    dars_solve(inst, seed=0)
    refined = DARS_SOLVER_PARAMS.grad_norm_tol * staircase._REFINE_GRAD_FACTOR
    tnt_calls = [e for e in events if e != "eigsh"]
    assert tnt_calls and set(tnt_calls) == {("tnt", refined)}
    # each rank's refined point goes straight to the eigen-solve
    assert events[::2] == tnt_calls and set(events[1::2]) == {"eigsh"}


@pytest.mark.parametrize("method", ["dars", "fuses"])
def test_certificate_reads_tnt_end_point_product(method, monkeypatch):
    # the multipliers behind each eigen-solve come from the M R that TNT's
    # stop last received, the product at the point TNT returned
    tnt, multipliers, certificate = (staircase.tnt_minimize,
                                     staircase._multipliers,
                                     staircase._certificate)
    last = {}
    feeds = []

    def recording_tnt(M, shape, R, params, *, stop=None, **kw):
        def recording_stop(R, f, MR, gnorm):
            last["stop"] = MR
            return stop is not None and stop(R, f, MR, gnorm)

        return tnt(M, shape, R, params, stop=recording_stop, **kw)

    def recording_multipliers(shape, R, MR):
        last["multipliers"] = MR
        return multipliers(shape, R, MR)

    def recording_certificate(*args):
        feeds.append((last["multipliers"], last["stop"]))
        return certificate(*args)

    monkeypatch.setattr(staircase, "tnt_minimize", recording_tnt)
    monkeypatch.setattr(staircase, "_multipliers", recording_multipliers)
    monkeypatch.setattr(staircase, "_certificate", recording_certificate)
    if method == "dars":
        dars_solve(generate_grid_instance(3, 3, 2, unary_noise=0.3, seed=3),
                   seed=3)
    else:
        _decline_schur(monkeypatch)
        fuses_solve(generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=2))
    assert feeds and all(fed is end for fed, end in feeds)


@pytest.mark.parametrize("call", [
    lambda: check_symmetric(np.ones((2, 3))),
    lambda: check_symmetric(sp.csr_matrix(np.ones((2, 3)))),
    lambda: check_symmetric(np.ones(3)),
    lambda: staircase_solve(np.eye(3), ManifoldShape(2, 0, 1),
                            SolverParams()),
    lambda: staircase_solve(sp.identity(3, format="csr"),
                            ManifoldShape(2, 2, 2), SolverParams()),
], ids=["dense", "sparse", "vector", "solve dense", "solve sparse"])
def test_cost_matrix_of_the_wrong_shape_is_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


def test_sphere_offdiag_sums_match_dense_row_sums():
    rng = np.random.default_rng(5)
    points = list(_random_block_points(rng, 50))
    # the same matrix with each row's entries in reverse order
    C = points[0][0].tocsr()
    order = np.concatenate([np.arange(a, b)[::-1]
                            for a, b in zip(C.indptr[:-1], C.indptr[1:])])
    unsorted = sp.csr_matrix((C.data[order], C.indices[order], C.indptr),
                             shape=C.shape)
    assert not unsorted.has_sorted_indices
    for M, shape, _ in points + [(unsorted, points[0][1], None)]:
        ns = shape.n_sphere_rows
        A = np.abs(M.toarray()[:ns, :ns])
        np.fill_diagonal(A, 0.0)
        np.testing.assert_allclose(staircase._sphere_offdiag_sums(M, ns),
                                   A.sum(axis=1), rtol=1e-14, atol=0.0)


def test_sum_down_is_at_most_the_exact_sum():
    rng = np.random.default_rng(0)
    for _ in range(500):
        terms = (rng.standard_normal(int(rng.integers(1, 40)))
                 * 10.0 ** rng.integers(-8, 9))
        exact = sum(map(Fraction, terms.tolist()))
        assert Fraction(staircase._sum_down(terms)) <= exact
        assert Fraction(staircase._sum_down(terms[:1], terms[1:])) <= exact
    assert staircase._sum_down(np.zeros(3), 0.0) == 0.0


def test_sum_down_matches_the_listwise_formula():
    # fsum is correctly rounded in any order, so summing |terms| from numpy
    # gives the bits of the Python abs over the list
    rng = np.random.default_rng(0)
    for _ in range(500):
        terms = [rng.choice([-1.0, 1.0], size=n)
                 * 10.0 ** rng.uniform(-300.0, 300.0, size=n)
                 for n in rng.integers(0, 30, size=int(rng.integers(1, 4)))]
        terms.append(float(rng.standard_normal()))
        flat = np.concatenate([np.ravel(t) for t in terms]).tolist()
        listwise = math.fsum(flat) - 4.0 * staircase._EPS * math.fsum(
            map(abs, flat))
        assert staircase._sum_down(*terms) == listwise


def test_progress_line_names_the_certificate(caplog):
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=2)
    no_block = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with caplog.at_level(logging.INFO, logger="mrfsdp.staircase"):
        staircase_solve(encode_zo(inst).Q, ManifoldShape(9, 3, 4),
                        SolverParams(), seed_or_rng=0)
        staircase_solve(no_block, ManifoldShape(2, 0, 1), SolverParams(),
                        seed_or_rng=3)
    steps = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("staircase step=")]
    assert [line.rsplit(" ", 1)[1] for line in steps] == [
        "certificate=schur", "certificate=eigsh"]


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

    # g0 = ||grad||: the first step of a TNT call, so the target is 1e-6 r0
    s, Hs, hit_boundary, iters = staircase._steihaug(
        grad.reshape(point_shape), hess_vec, c, radius, 2000, 1e-6,
        np.linalg.norm(grad))
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


def test_initial_radius_is_relative_to_the_point(rng, caplog):
    # the first radius is _INITIAL_TR_RADIUS * sqrt(N) on N sphere rows;
    # after one step it is at least a quarter of that, where a radius of 1
    # would be at most 2.5
    inst = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=1)
    shape = ManifoldShape(1000, 19, 19)
    with caplog.at_level(logging.INFO, logger="mrfsdp.staircase"):
        tnt_minimize(encode_zo(inst).Q, shape, random_point(shape, rng),
                     SolverParams())
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("tnt iter=1 ")]
    radius = float(re.search(r" radius=(\S+) ", line).group(1))
    assert radius >= 0.25 * np.sqrt(1000), line
    # one default serves every size
    for rows, cols, k in [(3, 3, 3), (25, 40, 19)]:
        res = fuses_solve(generate_grid_instance(rows, cols, k, unary_noise=0.3,
                                                 seed=1), SolverParams(), seed=1)
        assert res.certified, (rows, cols, k)


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


@pytest.mark.parametrize("c", [2.0 ** 10, 2.0 ** -4, 2.0 ** -12])
def test_tnt_is_scale_covariant(c, monkeypatch):
    # weights times a power of two scale f, the gradient and the Hessian
    # exactly.  With grad_norm_tol scaled alike, every TNT decision (the CG
    # forcing term, the step ratio and the radius) is the same, so the
    # iterates agree bit for bit, also where |f| ~ 630 c falls below 1
    inst = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=0)
    M = encode_zo(inst).Q
    R0 = random_point(_FUSES_LARGE_SHAPE, np.random.default_rng(0))
    steihaug = staircase._steihaug
    cg_iterations = []

    def counting_steihaug(*args):
        out = steihaug(*args)
        cg_iterations[-1].append(out[3])
        return out

    monkeypatch.setattr(staircase, "_steihaug", counting_steihaug)
    runs = []
    for scale in (1.0, c):
        cg_iterations.append([])
        runs.append(tnt_minimize(scale * M, _FUSES_LARGE_SHAPE, R0,
                                 SolverParams(1e-5 * scale)))
    (R, f, gnorm, iters), (R_c, f_c, gnorm_c, iters_c) = runs
    assert np.array_equal(R, R_c)
    assert (f_c, gnorm_c, iters_c) == (c * f, c * gnorm, iters)
    assert cg_iterations[0] == cg_iterations[1]
    assert len(cg_iterations[0]) == iters >= 4
    assert gnorm < 1e-5


@pytest.mark.parametrize("c", [2.0 ** -4, 2.0 ** -8])
def test_warm_started_tnt_is_scale_covariant(c, monkeypatch):
    # a warm start near the optimum, as dars hands TNT each dual iteration:
    # none of TNT's stop rules reads f, so with the target scaled alike TNT
    # takes the same steps at every power-of-two scale and reaches its target
    solve = dars.staircase_solve
    warm_calls = []

    def recording_solve(M, shape, params, warm_start=None, seed_or_rng=0):
        if warm_start is not None:
            warm_calls.append((M, warm_start))
        return solve(M, shape, params, warm_start=warm_start,
                     seed_or_rng=seed_or_rng)

    monkeypatch.setattr(dars, "staircase_solve", recording_solve)
    dars_solve(generate_grid_instance(3, 3, 2, unary_noise=0.3, seed=6),
               seed=6)
    M, R0 = warm_calls[3]
    shape = ManifoldShape(R0.shape[0], 0, R0.shape[1])
    # 1e-6 is dars's refined gradient target
    R, f, gnorm, iters = tnt_minimize(M, shape, R0, SolverParams(1e-6))
    R_c, f_c, gnorm_c, iters_c = tnt_minimize(c * M, shape, R0,
                                              SolverParams(1e-6 * c))
    assert np.array_equal(R, R_c)
    assert (f_c, gnorm_c, iters_c) == (c * f, c * gnorm, iters)
    assert gnorm_c < 1e-6 * c
