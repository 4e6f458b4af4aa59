import numpy as np
import pytest
import scipy.sparse as sp

from mrfsdp import (
    DegenerateStepError,
    InvalidInputError,
    ManifoldShape,
    MrfInstance,
    encode_zo,
    generate_grid_instance,
    lift_labeling,
    manifold_residual,
    project_tangent,
    random_point,
    retract,
    riemannian_gradient,
    riemannian_hessian_vec,
    tangent_residual,
    trace_quadratic,
)
from mrfsdp.manifold import (
    _hessian_operator,
    _multipliers,
    _sparse_asymmetry,
    check_symmetric,
)
from mrfsdp.staircase import _PRECON_FLOOR, _certificate, _preconditioner

SHAPES = [ManifoldShape(8, 0, 3), ManifoldShape(6, 3, 4), ManifoldShape(5, 2, 2)]


def random_symmetric(rng, d):
    A = rng.standard_normal((d, d))
    return sp.csr_matrix((A + A.T) / 2.0)


def random_tangent(shape, R, rng, unit=True):
    V = project_tangent(shape, R, rng.standard_normal(R.shape))
    if unit:
        V /= np.linalg.norm(V)
    return V


def test_shape_validation():
    with pytest.raises(InvalidInputError):
        ManifoldShape(2, 3, 2)  # orthonormal rows need rank >= 3
    with pytest.raises(InvalidInputError):
        ManifoldShape(2, 0, 0)
    with pytest.raises(InvalidInputError):
        ManifoldShape(0, 0, 1)
    assert ManifoldShape(0, 2, 3).total_rows == 2


def test_random_point_rank1_rows_are_signs(rng):
    shape = ManifoldShape(6, 0, 1)
    R = random_point(shape, rng)
    assert np.all(np.abs(np.abs(R) - 1.0) < 1e-15)


@pytest.mark.parametrize("shape", SHAPES)
def test_random_point_on_manifold(shape, rng):
    R = random_point(shape, rng)
    assert manifold_residual(shape, R) < 1e-12


def test_random_point_deterministic():
    shape = ManifoldShape(5, 3, 4)
    assert np.array_equal(random_point(shape, 42), random_point(shape, 42))


@pytest.mark.parametrize("shape", SHAPES)
def test_project_radial_rows_vanish(shape, rng):
    R = random_point(shape, rng)
    V = project_tangent(shape, R, R.copy())
    ns = shape.n_sphere_rows
    assert np.max(np.abs(V[:ns])) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_project_idempotent_and_tangent(shape, rng):
    R = random_point(shape, rng)
    G = rng.standard_normal(R.shape)
    V = project_tangent(shape, R, G)
    assert tangent_residual(shape, R, V) < 1e-12
    V2 = project_tangent(shape, R, V)
    assert np.max(np.abs(V2 - V)) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_project_self_adjoint(shape, rng):
    R = random_point(shape, rng)
    A = rng.standard_normal(R.shape)
    B = rng.standard_normal(R.shape)
    PA = project_tangent(shape, R, A)
    PB = project_tangent(shape, R, B)
    assert float(np.sum(PA * B)) == pytest.approx(float(np.sum(A * PB)),
                                                  rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_retract_zero_tangent_exact(shape, rng):
    R = random_point(shape, rng)
    assert np.array_equal(retract(shape, R, np.zeros_like(R)), R)


@pytest.mark.parametrize("shape", SHAPES)
def test_retract_on_manifold(shape, rng):
    R = random_point(shape, rng)
    for _ in range(5):
        V = random_tangent(shape, R, rng)
        assert manifold_residual(shape, R=retract(shape, R, V)) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_retract_first_order_agreement(shape, rng):
    # ||retract(x, tv) - (x + tv)|| = O(t^2): log-log slope >= 1.9
    R = random_point(shape, rng)
    V = random_tangent(shape, R, rng)
    ts = np.logspace(-1, -4, 7)
    errs = np.array([
        np.linalg.norm(retract(shape, R, t * V) - (R + t * V)) for t in ts
    ])
    mask = errs > 1e-14
    slope = np.polyfit(np.log(ts[mask]), np.log(errs[mask]), 1)[0]
    assert slope >= 1.9


def test_retract_degenerate_row_error(rng):
    shape = ManifoldShape(2, 0, 2)
    R = random_point(shape, rng)
    with pytest.raises(DegenerateStepError):
        retract(shape, R, -R)  # not tangent; collapses both rows


def test_gradient_zero_matrix(rng):
    shape = ManifoldShape(4, 2, 3)
    R = random_point(shape, rng)
    M = sp.csr_matrix((6, 6))
    assert np.max(np.abs(riemannian_gradient(M, shape, R))) == 0.0


def test_gradient_zero_for_empty_mrf_cost():
    enc = encode_zo(MrfInstance(3, 2))
    shape = ManifoldShape(3, 2, 3)
    V = lift_labeling(enc, [0, 1, 0])
    R = np.hstack([V, np.zeros((5, 1))])
    g = riemannian_gradient(enc.Q, shape, R)
    assert np.max(np.abs(g)) == 0.0


def test_gradient_identity_on_spheres(rng):
    # ambient gradient 2R is radial on every sphere row
    shape = ManifoldShape(7, 0, 3)
    R = random_point(shape, rng)
    g = riemannian_gradient(sp.identity(7, format="csr"), shape, R)
    assert np.max(np.abs(g)) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
def test_gradient_matches_finite_differences(shape, rng):
    M = random_symmetric(rng, shape.total_rows)
    for _ in range(3):
        R = random_point(shape, rng)
        g = riemannian_gradient(M, shape, R)
        for _ in range(5):
            V = random_tangent(shape, R, rng)
            h = 1e-5
            fd = (trace_quadratic(M, retract(shape, R, h * V)) -
                  trace_quadratic(M, retract(shape, R, -h * V))) / (2 * h)
            assert abs(fd - float(np.sum(g * V))) < 1e-6 * max(1.0, abs(fd))


def test_asymmetric_matrix_rejected(rng):
    shape = ManifoldShape(3, 0, 2)
    R = random_point(shape, rng)
    M = sp.csr_matrix(np.triu(np.ones((3, 3))))
    with pytest.raises(InvalidInputError):
        riemannian_gradient(M, shape, R)
    with pytest.raises(InvalidInputError):
        riemannian_hessian_vec(M, shape, R, np.zeros_like(R))


def _asymmetry_cases(rng):
    """(name, sparse matrix) pairs for the symmetry check, by kind."""
    A = sp.random(30, 30, density=0.2, random_state=rng, format="csr")
    S = (A + A.T).tocsr()
    S.sort_indices()
    cases = [("symmetric", S),
             ("grid", encode_zo(generate_grid_instance(3, 4, 3, seed=0)).Q),
             ("empty", sp.csr_matrix((4, 4)))]
    i, j = [int(x) for x in np.argwhere(np.triu(S.toarray(), 1) != 0)[0]]
    for delta in (1e-15, 1e-9, 1.0):
        P = S.copy()
        P[i, j] += delta
        cases.append((f"perturbed {delta:g}", P))
    # one entry whose mirror is not stored
    i, j = [int(x) for x in np.argwhere(np.triu(S.toarray() == 0, 1))[0]]
    for value in (1e-14, 2.0):
        P = S.tolil()
        P[i, j] = value
        cases.append((f"one-sided {value:g}", P.tocsr()))
    cases.append(("triangular", sp.csr_matrix(np.triu(np.ones((3, 3))))))
    # an explicit zero mirrored by a stored zero, by a nonzero, by nothing
    for name, mirror in (("zero", [0.0]), ("nonzero", [0.5]), ("absent", [])):
        vals = [0.0, 1.0, 1.0, 3.0] + mirror
        rows, cols = [0, 1, 2, 2, 1][:len(vals)], [1, 2, 1, 2, 0][:len(vals)]
        cases.append((f"explicit zero, {name} mirror",
                      sp.csr_matrix((vals, (rows, cols)), shape=(3, 3))))
    # non-canonical CSR: each row's entries reversed, and duplicates
    order = np.concatenate([np.arange(b - 1, a - 1, -1)
                            for a, b in zip(S.indptr[:-1], S.indptr[1:])])
    cases.append(("unsorted", sp.csr_matrix(
        (S.data[order], S.indices[order], S.indptr.copy()), shape=S.shape)))
    cases.append(("duplicates", sp.csr_matrix(
        ([1.0, 1.5, 2.0, 0.5], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2))))
    cases.append(("duplicates, asymmetric",
                  sp.csr_matrix(([1.0, 1.5, 2.0, 3.0], [1, 1, 0, 0],
                                 [0, 2, 4]), shape=(2, 2))))
    return cases


def test_sparse_symmetry_check_matches_subtraction(rng):
    paths = []
    for name, M in _asymmetry_cases(rng):
        T = M.T.tocsr()
        paths.append(M.has_canonical_format
                     and np.array_equal(M.indptr, T.indptr)
                     and np.array_equal(M.indices, T.indices))
        D = (M - M.T).tocoo()
        expected = float(np.max(np.abs(D.data))) if D.nnz else 0.0
        assert _sparse_asymmetry(M) == expected, name
        scale = max(1.0, float(np.max(np.abs(M.data))) if M.nnz else 0.0)
        if expected > 1e-12 * scale:
            with pytest.raises(InvalidInputError, match=f"{expected:.3g}"):
                check_symmetric(M)
        else:
            check_symmetric(M)
    # the entry-by-entry comparison and the subtraction both ran
    assert paths.count(True) >= 4 and paths.count(False) >= 4


@pytest.mark.parametrize("shape", SHAPES)
def test_hessian_zero_tangent(shape, rng):
    M = random_symmetric(rng, shape.total_rows)
    R = random_point(shape, rng)
    H = riemannian_hessian_vec(M, shape, R, np.zeros_like(R))
    assert np.max(np.abs(H)) == 0.0


@pytest.mark.parametrize("shape", SHAPES)
def test_hessian_self_adjoint(shape, rng):
    M = random_symmetric(rng, shape.total_rows)
    R = random_point(shape, rng)
    for _ in range(5):
        U = random_tangent(shape, R, rng)
        W = random_tangent(shape, R, rng)
        HU = riemannian_hessian_vec(M, shape, R, U)
        HW = riemannian_hessian_vec(M, shape, R, W)
        a = float(np.sum(HU * W))
        b = float(np.sum(U * HW))
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("shape", SHAPES)
def test_hessian_taylor_remainder(shape, rng):
    # f(retract(x, tv)) - quadratic model = O(t^3): slope >= 2.7
    M = random_symmetric(rng, shape.total_rows)
    for _ in range(3):
        R = random_point(shape, rng)
        V = random_tangent(shape, R, rng)
        f0 = trace_quadratic(M, R)
        g = float(np.sum(riemannian_gradient(M, shape, R) * V))
        h = float(np.sum(riemannian_hessian_vec(M, shape, R, V) * V))
        ts = np.logspace(-1, -3, 9)
        errs = np.array([
            abs(trace_quadratic(M, retract(shape, R, t * V)) -
                (f0 + t * g + 0.5 * t * t * h)) for t in ts
        ])
        mask = errs > 1e-13 * max(1.0, abs(f0))
        assert mask.sum() >= 3
        slope = np.polyfit(np.log(ts[mask]), np.log(errs[mask]), 1)[0]
        assert slope >= 2.7


def hessian_reference(M, shape, R, V):
    """P_R(2MV - w*V_sphere) with G = 2MR and w_i = G_i . R_i, written out on
    a dense M with its own tangent projection; tangent vectors vanish on the
    block (V_B = 0), and so do the output's block rows."""
    A = M.toarray()
    G = 2.0 * A @ R
    ns = shape.n_sphere_rows
    assert not V[ns:].any()
    W = 2.0 * A @ V
    for i in range(ns):
        W[i] -= (G[i] @ R[i]) * V[i]
        W[i] -= (W[i] @ R[i]) * R[i]
    W[ns:] = 0.0
    return W


@pytest.mark.parametrize("shape", SHAPES)
def test_hessian_operator_matches_reference_formula(shape, rng):
    M = random_symmetric(rng, shape.total_rows)
    for _ in range(3):
        R = random_point(shape, rng)
        hess = _hessian_operator(shape, R, M, _multipliers(shape, R, M @ R)[0])
        for _ in range(3):
            V = random_tangent(shape, R, rng, unit=False)
            V_before = V.copy()
            ref = hessian_reference(M, shape, R, V)
            for H in (hess(V), hess(V), riemannian_hessian_vec(M, shape, R, V)):
                assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)
                assert tangent_residual(shape, R, H) <= 1e-12
            assert np.array_equal(V, V_before)


@pytest.mark.parametrize("shape", SHAPES)
def test_preconditioned_tangent_stays_tangent(shape, rng):
    # truncated CG's z = r / c: one scalar per sphere row, 1 on the anchor
    # block
    M = random_symmetric(rng, shape.total_rows)
    R = random_point(shape, rng)
    c = _preconditioner(shape, M.diagonal(), _multipliers(shape, R, M @ R)[0])
    assert np.ptp(c) > 0.0
    for _ in range(3):
        r = random_tangent(shape, R, rng)
        assert tangent_residual(shape, R, r / c) <= 1e-12


def certificate_matrix_reference(M, shape, R):
    """S = M - blkdiag(Diag lambda, Lambda_B), written out entry by entry:
    lambda_i = (M R)_i . R_i, Lambda_B = sym((M R)_B R_B^T)."""
    S = M.toarray()
    MR = S @ R
    ns = shape.n_sphere_rows
    for i in range(ns):
        S[i, i] -= MR[i] @ R[i]
    if shape.bottom_block_rows:
        C = MR[ns:] @ R[ns:].T
        S[ns:, ns:] -= 0.5 * (C + C.T)
    return S


@pytest.mark.parametrize("shape", SHAPES)
def test_hessian_preconditioner_and_certificate_share_one_matrix(shape, rng):
    M = random_symmetric(rng, shape.total_rows)
    R = random_point(shape, rng)
    S = certificate_matrix_reference(M, shape, R)
    lam, Lam_B = _multipliers(shape, R, M @ R)
    # the certificate's lambda_min is that of this S (dense path at this
    # size, which does not read the budget)
    t, _ = _certificate(M, lam, Lam_B, 1.0, np.random.default_rng(0))
    assert t == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-12)
    # Hess f(R)[V] = P_R(2 S V)
    hess = _hessian_operator(shape, R, M, lam)
    for _ in range(3):
        V = random_tangent(shape, R, rng, unit=False)
        ref = project_tangent(shape, R, 2.0 * S @ V)
        assert np.linalg.norm(hess(V) - ref) <= 1e-12 * np.linalg.norm(ref)
    # the preconditioner is S's floored sphere-row diagonal over its mean,
    # and 1 on the anchor block
    ns = shape.n_sphere_rows
    d = np.diag(S)[:ns]
    c_ref = np.ones(shape.total_rows)
    c_ref[:ns] = np.maximum(d, _PRECON_FLOOR * np.max(np.abs(d)))
    c_ref[:ns] /= c_ref[:ns].mean()
    assert _preconditioner(shape, M.diagonal(), lam)[:, 0] == pytest.approx(
        c_ref, rel=1e-12)
