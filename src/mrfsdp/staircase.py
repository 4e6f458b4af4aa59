"""Truncated-Newton trust-region solver and the rank staircase.

tnt_minimize drives trace(M R R^T) down over the product manifold with a
preconditioned Steihaug-Toint truncated-CG inner solve.  The Hessian is
P_R(2 S V), with S the certificate matrix below (see manifold), and the
preconditioner is one positive scalar per row: c_i = max(S_ii, 1e-2 max_j
|S_jj|) on sphere row i (S_ii = M_ii - lambda_i), divided by the sphere
rows' mean (which cancels the Hessian's factor 2), and 1 on the anchor
block, where tangent vectors vanish; a per-row scalar keeps r / c tangent.
The trust region is measured in the norm ||s||_c = sqrt(<s, c s>), as in
Riemannian trust regions with a preconditioner (Absil, Baker, Gallivan,
FoCM 2007).

staircase_solve wraps TNT in a Burer-Monteiro rank staircase certified by a
dual (Lagrange-multiplier) bound, as in SE-Sync (Rosen et al., arXiv
1612.07386):

* at each rank, one TNT run heads for a gradient norm 1000x below
  grad_norm_tol, where the multipliers read off R are accurate.  With an
  anchor block, the Schur test below is tried at every accepted point
  below grad_norm_tol (and at the point TNT ends on): the bound holds at
  any R, so the first point it certifies ends the rank, and after a point
  it declines TNT takes one more step.  The eigen-solve runs only at the
  refined point, where the Schur test has declined (or without a block);
* the multipliers (manifold._multipliers, computed at each point tested
  from TNT's own product M R, the one its objective was evaluated with;
  the staircase computes no M R) are lambda_i = (M R)_i . R_i on unit
  rows and Lambda_B = sym((M R)_B R_B^T) on the fixed anchor block B0, and
  the certificate matrix is S = M - blkdiag(Diag lambda, Lambda_B);
* every feasible Y of the SDP (unit diagonal, Y_BB = I, Y psd) has trace
  m, the number of rows, so trace(M Y) = sum(lambda) + tr(Lambda_B) +
  trace(S Y) is at least

      lower_bound = sum(lambda) + tr(Lambda_B) + min(0, t) * m

  for any t <= lambda_min(S), for any R at any weight scale.  _dual_bound
  owns this formula (rounded down by _sum_down, so that floating point
  cannot lift it); each mechanism below only supplies t, and min_eig is
  always the t that lower_bound used.  sum(lambda) + tr(Lambda_B) equals
  trace(M R R^T) exactly, so the gap f - lower_bound is the eigenvalue term
  alone;
* with an anchor block, _schur_certificate tries first, with no
  eigen-solve: the near-null directions of S lie along the block, (X b, b)
  with X = R_s B^T, while Gershgorin discs prove the N x N sphere block
  A = M_ss - Diag lambda >= mu I, mu > 0.  A Schur complement over A then
  bounds lambda_min(S) below by t*, the smallest eigenvalue of a K x K
  pencil (see its docstring).  Its t* stands when its bound is within
  budget ("certificate=schur");
* otherwise (and always without a block, as in dars) _certificate runs
  ARPACK (scipy eigsh, largest eigenvalue of the Gershgorin-shifted
  G I - S, G = max_i sum_j |S_ij|; a dense solve for m <= 300)
  ("certificate=eigsh").  The Ritz pair (theta, v) has residual
  r = S v - theta v, and t = theta - ||r||, so the eigen-solver's error is
  charged against the bound.  If ARPACK does not converge, the Gershgorin
  bound t = -G stands in;
* the run is certified when the gap is within the budget
  1e-5 max(1, |f|).  Otherwise, when t < -_EIG_TOL, v is a direction of
  negative curvature one rank up (Boumal, Voroninski, Bandeira, arXiv
  1606.04970): R gains a zero column and descends along v e_{r+1}^T,
  gauge-fixed so the anchor block stays put (see the lift below), before
  TNT resumes at rank r + 1.  Otherwise the staircase stops uncertified.

SolverParams holds the one setting callers vary, the gradient norm
tolerance (1e-2; 1e-3 in dars.DARS_SOLVER_PARAMS).  The rest of the
reference parameterization is fixed below: eigenvalue tolerance 1e-2, 500
TNT iterations, initial radius 1 (in units of the point's size sqrt(N), the
c-norm of N unit rows), radius factors 0.25 / 2.5, 2000 CG iterations, a
CG forcing term min(0.9, ||grad|| / g0) relative to the gradient norm g0 at
the start of the TNT call (see _steihaug) and 10 staircase steps.  TNT
stops on four rules only: its gradient target, the caller's stop test, 500
iterations, or a trust radius below 1e-14.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import InvalidInputError, NumericalFailureError
from .manifold import (
    ManifoldShape,
    _as_rng,
    _hessian_operator,
    _multipliers,
    check_symmetric,
    project_tangent,
    random_point,
    retract,
    trace_quadratic,
)
from .mrf import _is_size

logger = logging.getLogger(__name__)

# trust-region quality thresholds (standard values)
_ACCEPT_RATIO = 0.1
_VERY_SUCCESSFUL_RATIO = 0.9
# exponent of CG's relative forcing term, with _CG_ETA its cap (see
# _steihaug): 1 gives inexact Newton its quadratic local rate
_CG_THETA = 1.0
_MIN_RADIUS = 1e-14
# the reference parameterization's fixed settings (see the module docstring)
_EIG_TOL = 1e-2
_MAX_TNT_ITERATIONS = 500
_INITIAL_TR_RADIUS = 1.0
_TR_DECREASE_FACTOR = 0.25
_TR_INCREASE_FACTOR = 2.5
_MAX_CG_ITERATIONS = 2000
_CG_ETA = 0.9
_MAX_STAIRCASE_STEPS = 10
# floor of the CG preconditioner, relative to its largest |entry|: a row
# whose Hessian diagonal is tiny or negative would otherwise get a huge step
# or make the preconditioner indefinite
_PRECON_FLOOR = 1e-2
# TNT's gradient tolerance, relative to grad_norm_tol, when no Schur test
# certifies on the way: the gap f - lower_bound grows with the gradient norm
# at R, and ARPACK stalls on S at loosely converged points
_REFINE_GRAD_FACTOR = 1e-3
# certified when f - lower_bound <= _CERTIFY_RTOL * max(1, |f|)
_CERTIFY_RTOL = 1e-5
# certificate matrices up to this size get a dense eigen-solve: it is as
# fast there, and ARPACK stalls on small matrices with clustered spectra
_DENSE_EIG_ROWS = 300
# ARPACK's tolerance keeps the charged residual ||r|| m within this share
# of the certification budget
_EIGSH_BUDGET_SHARE = 0.5
# Krylov basis size: the smallest eigenvalues of S come in tight clusters
# (one per column of R), which a larger basis resolves in far fewer restarts
_EIGSH_NCV = 60
_EIGSH_MAXITER = 1000
# the Schur certificate's shift t may reach -_SCHUR_ETA mu, where
# A^-1 (A - t I)^-1 >= A^-2 / (1 + _SCHUR_ETA) still holds
_SCHUR_ETA = 1e-2
_EPS = float(np.finfo(float).eps)


def _check_params(params) -> None:
    """Every field of a parameter dataclass is > 0 (so not NaN): an integer
    (mrf._is_size) where the default is an int, else a real number; no bool."""
    for f in fields(params):
        v = getattr(params, f.name)
        count = isinstance(f.default, int)
        typed = _is_size(v) if count else isinstance(v, Real) and not isinstance(v, bool)
        if not (typed and v > 0):
            raise InvalidInputError(
                f"{f.name} must be a positive {'integer' if count else 'number'}, "
                f"got {v!r}")


@dataclass(frozen=True)
class SolverParams:
    """grad_norm_tol is the gradient norm below which the staircase tries
    the Schur certificate (with an anchor block) at each accepted TNT
    point.  TNT runs on to
    grad_norm_tol * _REFINE_GRAD_FACTOR (1000x below) only while no such
    attempt certifies, and always before an eigen-solve."""

    grad_norm_tol: float = 1e-2

    def __post_init__(self):
        _check_params(self)


@dataclass
class StaircaseResult:
    R_opt: np.ndarray
    objective: float
    rank_history: list = field(default_factory=list)
    certified: bool = False
    lower_bound: float = -math.inf
    min_eig: float = float("nan")
    certificate: str | None = None


@dataclass
class SolveResult:
    """What fuses_solve and dars_solve return: a labeling, its energy
    f_rounded and subopt_bound >= f_rounded - f_opt.  Fields that belong to
    the other method hold None."""

    labeling: np.ndarray
    f_relaxed: float
    f_rounded: float
    subopt_bound: float
    certified: bool
    rank_history: list = field(default_factory=list)
    offset: float = 0.0
    timings: dict = field(default_factory=dict)
    # staircase certificate (fuses)
    lower_bound: float | None = None
    min_eig: float | None = None
    certificate: str | None = None
    # dual ascent (dars)
    dual_bound: float | None = None
    dual_bound_iteration: int | None = None
    dual_converged: bool | None = None
    dual_iterations: int | None = None
    constraint_residual_max: float | None = None
    dual_value_history: list | None = None
    residual_history: list | None = None
    primal_certified_history: list | None = None


def _inner(a, b) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def _preconditioner(shape: ManifoldShape, diag_M, lam) -> np.ndarray:
    """Per-row scalars c > 0, shaped (rows, 1): the certificate matrix's
    diagonal S_ii = M_ii - lam_i on the sphere rows (floored at
    _PRECON_FLOOR times its largest |entry|) over its mean, and 1 on the
    anchor block, where tangent vectors vanish.  Scaling M scales lam and
    diag_M alike, so c does not change."""
    ns = shape.n_sphere_rows
    c = np.ones(shape.total_rows)
    if ns:
        diag = diag_M[:ns] - lam
        scale = float(np.max(np.abs(diag)))
        if scale > 0.0:  # else M and lam vanish on these rows: keep c = 1
            c[:ns] = np.maximum(diag, _PRECON_FLOOR * scale)
            c[:ns] /= c[:ns].mean()
    return c[:, None]


def _steihaug(grad, hess_vec, precon, radius, max_iters, eta, g0):
    """Preconditioned truncated CG (Steihaug-Toint) on the trust-region
    model; stops on negative curvature, the boundary ||s||_c = radius, or
    when the residual's Euclidean norm falls to

        r0 min(eta, (r0 / g0)^_CG_THETA),

    r0 = ||grad|| and g0 the gradient norm at the start of the TNT call.
    This inexact-Newton forcing term (Eisenstat and Walker, SIAM J. Sci.
    Comput. 1996) asks for a cut by eta at the start and an ever deeper one
    as the gradient falls, which gives Riemannian trust regions their
    superlinear rate (Absil, Baker, Gallivan, FoCM 2007).  r0 and g0 scale
    together with M, so the stop does not depend on the weight scale.

    precon holds one positive scalar per row (broadcast over columns); each
    iteration takes z = r / precon.  <s, c s>, <s, c d> and <d, c d> follow
    scalar recurrences (Conn, Gould, Toint), so the boundary test touches no
    array; precon = 1 gives plain Steihaug-Toint.

    Returns (s, Hs, hit_boundary, iterations).  CG keeps the model gradient
    r = grad + H s, so Hs = r - grad comes for free; a boundary or
    negative-curvature exit at s + tau d adds tau H d.  hess_vec is applied
    once per iteration and never to s itself.  s, r, z and d are updated in
    place.
    """
    s = np.zeros_like(grad)
    r = grad.copy()
    z = r / precon
    d = -z
    rz = _inner(r, z)
    r0 = math.sqrt(_inner(r, r))
    target = r0 * min(eta, (r0 / g0) ** _CG_THETA)
    radius2 = radius * radius
    sCs, sCd, dCd = 0.0, 0.0, rz
    for k in range(max_iters):
        Hd = hess_vec(d)
        dHd = _inner(d, Hd)
        if dHd > 0.0:
            alpha = rz / dHd
            sCs_new = sCs + alpha * (2.0 * sCd + alpha * dCd)
        # a NaN curvature (an overflowed Hessian product) exits here too
        if not dHd > 0.0 or sCs_new >= radius2:
            disc = max(sCd * sCd + dCd * (radius2 - sCs), 0.0)
            tau = (math.sqrt(disc) - sCd) / dCd
            d *= tau
            s += d
            Hd *= tau
            r -= grad
            r += Hd
            return s, r, True, k + 1
        np.multiply(d, alpha, out=z)
        s += z
        Hd *= alpha
        r += Hd
        sCs = sCs_new
        if math.sqrt(_inner(r, r)) <= target:
            return s, r - grad, False, k + 1
        np.divide(r, precon, out=z)
        rz_new = _inner(r, z)
        beta = rz_new / rz
        sCd = beta * (sCd + alpha * dCd)
        dCd = rz_new + beta * beta * dCd
        d *= beta
        d -= z
        rz = rz_new
    return s, r - grad, False, max_iters


def _local_model(shape: ManifoldShape, R, M, MR, diag_M):
    """TNT's model at R from MR = M @ R: (grad, ||grad||, Hessian operator,
    CG preconditioner), the last two from one set of multipliers."""
    grad = project_tangent(shape, R, 2.0 * MR)
    lam = _multipliers(shape, R, MR)[0]
    return (grad, math.sqrt(_inner(grad, grad)),
            _hessian_operator(shape, R, M, lam),
            _preconditioner(shape, diag_M, lam))


def tnt_minimize(M, shape: ManifoldShape, initial_point, params: SolverParams,
                 *, check: bool = True, stop=None):
    """Minimize trace(M R R^T) from initial_point.

    Returns (point, objective, grad_norm, iterations).  Accepted steps
    strictly decrease the objective; the radius is measured in the
    preconditioner's norm ||s||_c (see _preconditioner) and starts at
    _INITIAL_TR_RADIUS times sqrt(N), N the number of sphere rows: c has
    mean 1, so that is the c-norm of the unit rows, the point's size.  The
    first radius thus grows with the manifold, as Manopt's default (a
    fraction of the typical distance; Boumal et al., JMLR 2014) does.  It
    shrinks by _TR_DECREASE_FACTOR on rejected steps and grows by
    _TR_INCREASE_FACTOR on very successful boundary steps.  TNT stops on
    four rules: below params.grad_norm_tol; when stop(R, f, MR, grad_norm),
    if given, returns True (it is called on the start point and on every
    accepted one, so the point returned is the last one passed to stop);
    after _MAX_TNT_ITERATIONS steps; or when a rejected step takes the
    radius below _MIN_RADIUS.  check=False skips the symmetry check of M
    (for callers that made it).

    The model (see _local_model) is built once per iterate and kept across
    rejected steps; its predicted decrease uses the Hs that truncated CG
    returns, so each step costs exactly one Hessian-vector product per CG
    iteration.  M R of an accepted point is the product its objective was
    evaluated with.
    """
    if check:
        check_symmetric(M)
    R = np.array(initial_point, dtype=float, copy=True)
    if R.shape != (shape.total_rows, shape.rank):
        raise InvalidInputError("initial point shape mismatch")
    MR = M @ R
    f = float(np.sum(R * MR))
    if not math.isfinite(f):
        raise NumericalFailureError("non-finite objective at start", last_point=R)
    diag_M = M.diagonal()
    grad, gnorm, hess, precon = _local_model(shape, R, M, MR, diag_M)
    g0 = gnorm  # CG's forcing term is relative to it (see _steihaug)
    # no sphere rows: the gradient is 0 and no step is taken
    radius = _INITIAL_TR_RADIUS * math.sqrt(max(shape.n_sphere_rows, 1))
    iterations = 0
    done = stop is not None and stop(R, f, MR, gnorm)
    while (not done and iterations < _MAX_TNT_ITERATIONS
           and gnorm >= params.grad_norm_tol):
        s, Hs, hit_boundary, cg_iters = _steihaug(
            grad, hess, precon, radius, _MAX_CG_ITERATIONS, _CG_ETA, g0)
        predicted = -(_inner(grad, s) + 0.5 * _inner(s, Hs))
        R_new = retract(shape, R, s)
        MR_new = M @ R_new
        f_new = float(np.sum(R_new * MR_new))
        if not math.isfinite(f_new):
            raise NumericalFailureError("non-finite objective", last_point=R)
        iterations += 1
        rho = (f - f_new) / predicted if predicted > 0.0 else -math.inf
        accepted = rho >= _ACCEPT_RATIO and f_new < f
        if accepted:
            if rho >= _VERY_SUCCESSFUL_RATIO and hit_boundary:
                radius *= _TR_INCREASE_FACTOR
            R, f, MR = R_new, f_new, MR_new
            grad, gnorm, hess, precon = _local_model(shape, R, M, MR, diag_M)
            done = stop is not None and stop(R, f, MR, gnorm)
        else:
            radius *= _TR_DECREASE_FACTOR
            done = radius < _MIN_RADIUS
        logger.info(
            "tnt iter=%d accepted=%d f=%.12g grad_norm=%.6g radius=%.6g "
            "rank=%d cg=%d",
            iterations, accepted, f, gnorm, radius, shape.rank, cg_iters,
        )
        if done:
            break
    return R, f, gnorm, iterations


def _sum_down(*terms) -> float:
    """The sum of the terms (scalars or arrays) rounded down, so that a lower
    bound assembled here stays one after rounding: fsum is within half an
    ulp of the floats' sum, each term is at most one rounding (a product)
    off its exact value, and 4 eps sum|terms| covers both plus the
    subtraction."""
    flat = np.concatenate([np.ravel(t) for t in terms])
    return (math.fsum(flat.tolist())
            - 4.0 * _EPS * math.fsum(np.abs(flat).tolist()))


def _dual_bound(lam, Lam_B, t) -> float:
    """The dual bound sum(lambda) + tr(Lambda_B) + min(0, t) m on trace(M Y)
    over the SDP, valid for any t <= lambda_min(S), rounded down by
    _sum_down; m is the number of rows and Lam_B None without a block."""
    diag = [lam] if Lam_B is None else [lam, np.diag(Lam_B)]
    m = sum(map(len, diag))
    return _sum_down(*diag, min(0.0, t) * m)


def _certificate(M, lam, Lam_B, budget, rng):
    """Lower bound on lambda_min(S) from one eigen-solve, for S = M -
    blkdiag(Diag lam, Lam_B).

    Returns (t, v): t = theta - ||S v - theta v|| for the Ritz pair
    (theta, v), so the eigen-solver's error is charged, and v is the unit
    Ritz vector; or (-G, None), the Gershgorin bound, when ARPACK does not
    converge.  ARPACK's tolerance keeps the charged ||r|| m within
    _EIGSH_BUDGET_SHARE of budget.
    """
    blocks = [sp.diags(lam)]
    if Lam_B is not None:
        blocks.append(sp.csr_matrix(Lam_B))
    S = (sp.csr_matrix(M) - sp.block_diag(blocks, format="csr")).tocsr()
    m = S.shape[0]
    G = float(abs(S).sum(axis=1).max())
    if m <= _DENSE_EIG_ROWS:
        w, vecs = scipy.linalg.eigh(S.toarray(), subset_by_index=[0, 0])
        theta, v = float(w[0]), vecs[:, 0]
    else:
        shift = G or 1.0  # S = 0 would make the shifted matrix 0
        try:
            mu, vecs = eigsh(shift * sp.identity(m, format="csr") - S, k=1,
                             which="LA", v0=rng.standard_normal(m), rng=rng,
                             ncv=min(m, _EIGSH_NCV),
                             tol=_EIGSH_BUDGET_SHARE * budget / (m * shift),
                             maxiter=_EIGSH_MAXITER)
        except ArpackNoConvergence:
            return -G, None
        theta, v = shift - float(mu[0]), vecs[:, 0]
    return theta - float(np.linalg.norm(S @ v - theta * v)), v


def _sphere_offdiag_sums(M, ns) -> np.ndarray:
    """sum_{j != i} |M_ij| over the sphere block (i, j < ns), in one pass
    over the first ns rows of M's CSR arrays (sorted or not)."""
    C = sp.csr_matrix(M)
    end = C.indptr[ns]
    rows = np.repeat(np.arange(ns), np.diff(C.indptr[:ns + 1]))
    cols = C.indices[:end]
    off = (cols < ns) & (cols != rows)
    return np.bincount(rows[off], weights=np.abs(C.data[:end][off]),
                       minlength=ns)


def _schur_certificate(shape: ManifoldShape, R, MR, lam, Lam_B, diag_M,
                       offdiag):
    """Lower bound on lambda_min(S) from the sphere block's Gershgorin discs
    and K x K algebra, with no eigen-solve; MR = M @ R, (lam, Lam_B) its
    multipliers, offdiag from _sphere_offdiag_sums.

    Writes S = [[A, C], [C^T, D]] (A = M_ss - Diag lambda, C = M_sB,
    D = M_BB - Lambda_B) and needs A's Gershgorin bound mu > 0.  With
    X = R_s B^T, E = A X + C, e = ||E||_2 and F = [X; I]^T S [X; I], the
    Schur complement of A - tI at t = -s' in [-eta mu, 0] is at least
    F - (e^2/mu) I + s' W, where eta = _SCHUR_ETA, kappa = 1/(1 + eta),
    s = min(1/2, e/mu) and

        W = I + kappa (1 - s) X^T X - kappa (1/s - 1) (e/mu)^2 I,

    because (A + s'I)^-1 = A^-1 - s' A^-1 (A + s'I)^-1, A^-1 (A + s'I)^-1
    >= kappa A^-2, A^-1 C = -X + A^-1 E (then ||u + v||^2 >= (1 - s)
    ||u||^2 - (1/s - 1) ||v||^2), and D - C^T A^-1 C = F - E^T A^-1 E.  So
    lambda_min(S) >= t* = min(0, lambda_min(F - (e^2/mu) I, W)) whenever
    W > 0 and t* >= -eta mu.

    Returns t*, or None when a condition fails or the block B is not
    orthonormal (then MR B^T is not M [X; I]).
    """
    ns = shape.n_sphere_rows
    B = R[ns:]
    k = B.shape[0]
    identity = np.eye(k)
    if not np.array_equal(B @ B.T, identity):
        return None
    mu = float(np.min(diag_M[:ns] - lam - offdiag)) if ns else math.inf
    if not mu > 0.0:
        return None
    X = R[:ns] @ B.T
    Y = MR @ B.T  # M [X; I]
    E = Y[:ns] - lam[:, None] * X
    F = X.T @ E + Y[ns:] - Lam_B
    e2 = max(float(np.linalg.eigvalsh(E.T @ E)[-1]), 0.0)
    r = math.sqrt(e2) / mu
    s = min(0.5, r)
    kappa = 1.0 / (1.0 + _SCHUR_ETA)
    spill = r - r * r if r <= 0.5 else r * r  # (1/s - 1) r^2
    W = (1.0 - kappa * spill) * identity + (kappa * (1.0 - s)) * (X.T @ X)
    try:
        w = scipy.linalg.eigh(0.5 * (F + F.T) - (e2 / mu) * identity, W,
                              eigvals_only=True, subset_by_index=[0, 0])
    except np.linalg.LinAlgError:  # W not positive definite
        return None
    t = min(0.0, float(w[0]))
    return None if t < -_SCHUR_ETA * mu else t


def _schur_test(shape: ManifoldShape, R, f, MR, diag_M, offdiag):
    """(t, lower_bound) of _schur_certificate at R when lower_bound is within
    the certification budget, else None; MR = M @ R and f = trace(M R R^T)."""
    lam, Lam_B = _multipliers(shape, R, MR)
    t = _schur_certificate(shape, R, MR, lam, Lam_B, diag_M, offdiag)
    if t is None:
        return None
    lower = _dual_bound(lam, Lam_B, t)
    return (t, lower) if f - lower <= _CERTIFY_RTOL * max(1.0, abs(f)) else None


# relative size of the escape perturbation before backtracking
_ESCAPE_STEP_FRACTION = 1e-2


def _escape_step(M, shape, R, f, direction):
    """Backtracking move along a negative-curvature direction; returns the
    strictly improving point or None."""
    V = (_ESCAPE_STEP_FRACTION * float(np.linalg.norm(R))) * direction
    t = 1.0
    for _ in range(25):
        R_try = retract(shape, R, t * V)
        if trace_quadratic(M, R_try) < f - 1e-12 * (1.0 + abs(f)):
            return R_try
        t *= 0.5
    return None


def staircase_solve(M, shape: ManifoldShape, params: SolverParams,
                    warm_start=None, seed_or_rng=0) -> StaircaseResult:
    """Rank staircase: optimize, bound by the dual certificate, else lift.

    The start rank is shape.rank (from a random point), unless warm_start
    is given: then its column count is.  Each rank appends one (rank, TNT
    iterations, gradient norm) entry to rank_history: the iterations of
    the rank's TNT run (see the module docstring) and the gradient norm at
    its final point.  The result carries
    the last rank's point, objective, lower_bound, min_eig and
    certificate; certified means f - lower_bound is within _CERTIFY_RTOL *
    max(1, |f|).  min_eig is the lower bound t on lambda_min(S) that
    lower_bound was built from (see _dual_bound), and certificate names the
    mechanism that supplied it: "schur" (_schur_certificate, TNT's stop
    test when shape has an anchor block) or "eigsh" (_certificate: a charged
    Ritz value, or the Gershgorin bound).  Progress goes to this
    module's logger at INFO, one line per TNT step and per rank.
    """
    check_symmetric(M)
    if M.shape[0] != shape.total_rows:
        raise InvalidInputError(
            f"cost matrix has {M.shape[0]} rows, shape has {shape.total_rows}")
    rng = _as_rng(seed_or_rng)
    if warm_start is not None:
        R = np.array(warm_start, dtype=float, copy=True)
        if R.shape[0] != shape.total_rows:
            raise InvalidInputError("warm start row count mismatch")
        shape = shape.with_rank(R.shape[1])
    else:
        R = random_point(shape, rng)
    refined = SolverParams(params.grad_norm_tol * _REFINE_GRAD_FACTOR)
    block = shape.bottom_block_rows > 0
    if block:
        offdiag = _sphere_offdiag_sums(M, shape.n_sphere_rows)
        diag_M = M.diagonal()

    # TNT's stop test (see the module docstring).  TNT's last call is on the
    # point it returns, so `end` holds that point's M R and, with an anchor
    # block below grad_norm_tol, its _schur_test
    end = {}

    def stop(R, f, MR, gnorm):
        end["MR"] = MR
        end["schur"] = None
        if block and gnorm < params.grad_norm_tol:
            end["schur"] = _schur_test(shape, R, f, MR, diag_M, offdiag)
        return end["schur"] is not None

    result = StaircaseResult(R_opt=R, objective=math.nan)
    for step in range(_MAX_STAIRCASE_STEPS):
        R, f, gnorm, iters = tnt_minimize(M, shape, R, refined, check=False,
                                          stop=stop)
        MR = end["MR"]
        if block and gnorm >= params.grad_norm_tol:
            # TNT ended above grad_norm_tol (iteration cap or collapsed radius)
            end["schur"] = _schur_test(shape, R, f, MR, diag_M, offdiag)
        budget = _CERTIFY_RTOL * max(1.0, abs(f))
        if end["schur"] is not None:
            (t, lower), v, mechanism = end["schur"], None, "schur"
        else:
            lam, Lam_B = _multipliers(shape, R, MR)
            (t, v), mechanism = _certificate(M, lam, Lam_B, budget, rng), "eigsh"
            lower = _dual_bound(lam, Lam_B, t)
        result.rank_history.append((shape.rank, iters, gnorm))
        result.R_opt, result.objective = R, f
        result.lower_bound, result.min_eig = lower, t
        result.certificate = mechanism
        result.certified = f - lower <= budget
        logger.info(
            "staircase step=%d rank=%d f=%.12g grad_norm=%.6g "
            "lower_bound=%.12g min_eig=%.6g certified=%d certificate=%s",
            step, shape.rank, f, gnorm, lower, t, result.certified,
            mechanism,
        )
        if (result.certified or v is None or t >= -_EIG_TOL
                or step == _MAX_STAIRCASE_STEPS - 1):
            break
        # lift: a zero column keeps R R^T (and the objective) unchanged.  v
        # in the new column is orthogonal to every row of the lifted point,
        # of curvature 2 theta < 0, but it moves the anchor block B.  Taking
        # away R Omega, Omega = B^T v_B e^T - e v_B^T B (e the new unit
        # column), an infinitesimal rotation that leaves R R^T alone, leaves
        # v_sphere - R_sphere B^T v_B in the new column and 0 on the block:
        # tangent, with the same curvature wherever S R ~ 0.  Without a
        # block the subtracted term is an exact 0
        ns = shape.n_sphere_rows
        shape = shape.with_rank(shape.rank + 1)
        R_lift = np.hstack([R, np.zeros((R.shape[0], 1))])
        direction = np.zeros_like(R_lift)
        direction[:ns, -1] = v[:ns] - R[:ns] @ (R[ns:].T @ v[ns:])
        R = _escape_step(M, shape, R_lift, f, direction)
        if R is None:
            break
    return result
