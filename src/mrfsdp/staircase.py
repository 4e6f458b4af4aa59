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

* at each rank, TNT runs to a gradient norm 1000x below grad_norm_tol (and a
  relative decrease 1e4x below rel_func_decrease_tol), so the multipliers
  read off R are accurate;
* the multipliers (manifold._multipliers) are lambda_i = (M R)_i . R_i on
  unit rows and Lambda_B = sym((M R)_B R_B^T) on the fixed anchor block B0,
  and the certificate matrix is S = M - blkdiag(Diag lambda, Lambda_B);
* every feasible Y of the SDP (unit diagonal, Y_BB = I, Y psd) has trace
  m, the number of rows, so trace(M Y) = sum(lambda) + tr(Lambda_B) +
  trace(S Y) is at least

      lower_bound = sum(lambda) + tr(Lambda_B) + min(0, lambda_min(S)) * m,

  for any R at any weight scale.  sum(lambda) + tr(Lambda_B) equals
  trace(M R R^T) exactly, so the gap f - lower_bound is the eigenvalue term
  alone;
* lambda_min(S) comes from ARPACK (scipy eigsh, largest eigenvalue of the
  Gershgorin-shifted G I - S, G = max_i sum_j |S_ij|; a dense solve for
  m <= 300).  The Ritz pair (theta, v) has residual r = S v - theta v, and
  the bound uses theta - ||r||, so the eigen-solver's error is charged
  against it.  If ARPACK does not converge, the Gershgorin bound -G stands
  in for theta;
* the run is certified when the gap is within 1e-5 max(1, |f|).  Otherwise,
  when theta < -eig_tol, v is a direction of negative curvature one rank up
  (Boumal, Voroninski, Bandeira, arXiv 1606.04970): R gains a zero column
  and descends along v e_{r+1}^T, gauge-fixed so the anchor block stays
  put (see the lift below), before TNT resumes at rank r + 1.  Otherwise
  the staircase stops uncertified.

Default tolerances follow the reference parameterization: gradient norm
1e-2 (the sign-vector pipeline tightens it, see dars.DARS_SOLVER_PARAMS),
eigenvalue tolerance 1e-2, relative decrease 1e-5, 500 outer iterations,
initial radius 1 (in the c-norm), radius factors 0.25 / 2.5, 2000 CG
iterations, eta 0.9.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

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

logger = logging.getLogger(__name__)

# trust-region quality thresholds (standard values; the table's eta drives
# the CG residual test below)
_ACCEPT_RATIO = 0.1
_VERY_SUCCESSFUL_RATIO = 0.9
_CG_THETA = 0.5
_MIN_RADIUS = 1e-14
# floor of the CG preconditioner, relative to its largest |entry|: a row
# whose Hessian diagonal is tiny or negative would otherwise get a huge step
# or make the preconditioner indefinite
_PRECON_FLOOR = 1e-2
# TNT tolerances before a certificate, relative to grad_norm_tol and
# rel_func_decrease_tol: the gap f - lower_bound grows with the gradient
# norm at R, and ARPACK stalls on S at loosely converged points
_REFINE_GRAD_FACTOR = 1e-3
_REFINE_DECREASE_FACTOR = 1e-4
# certified when f - lower_bound <= _CERTIFY_RTOL * max(1, |f|)
_CERTIFY_RTOL = 1e-5
# certificate matrices up to this size get a dense eigen-solve: it is as
# fast there, and ARPACK stalls on small matrices with clustered spectra
_DENSE_EIG_ROWS = 300
# ARPACK's tolerance keeps the charged residual ||r|| m within this share
# of the certification budget _CERTIFY_RTOL * max(1, |f|)
_EIGSH_BUDGET_SHARE = 0.5
# Krylov basis size: the smallest eigenvalues of S come in tight clusters
# (one per column of R), which a larger basis resolves in far fewer restarts
_EIGSH_NCV = 60
_EIGSH_MAXITER = 1000


@dataclass(frozen=True)
class SolverParams:
    grad_norm_tol: float = 1e-2
    eig_tol: float = 1e-2
    rel_func_decrease_tol: float = 1e-5
    max_tnt_iterations: int = 500
    initial_tr_radius: float = 1.0
    tr_decrease_factor: float = 0.25
    tr_increase_factor: float = 2.5
    max_cg_iterations: int = 2000
    cg_success_eta: float = 0.9
    max_staircase_steps: int = 10

    def __post_init__(self):
        positive = (
            self.grad_norm_tol,
            self.eig_tol,
            self.rel_func_decrease_tol,
            self.max_tnt_iterations,
            self.initial_tr_radius,
            self.tr_decrease_factor,
            self.tr_increase_factor,
            self.max_cg_iterations,
            self.cg_success_eta,
            self.max_staircase_steps,
        )
        if any(not (v > 0) for v in positive):
            raise InvalidInputError("solver parameters must be positive")
        if not (self.tr_decrease_factor < 1.0 < self.tr_increase_factor):
            raise InvalidInputError("need 0 < alpha1 < 1 < alpha2")
        if not (self.cg_success_eta < 1.0):
            raise InvalidInputError("need 0 < eta < 1")


@dataclass
class StaircaseResult:
    R_opt: np.ndarray
    objective: float
    rank_history: list = field(default_factory=list)
    certified: bool = False
    lower_bound: float = -math.inf
    min_eig: float = float("nan")


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
    # dual ascent (dars)
    dual_bound: float | None = None
    dual_converged: bool | None = None
    dual_iterations: int | None = None
    constraint_residual_max: float | None = None
    dual_value_history: list | None = None
    residual_history: list | None = None
    primal_certified_history: list | None = None
    divergence_warning: bool | None = None


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


def _steihaug(grad, hess_vec, precon, radius, max_iters, eta):
    """Preconditioned truncated CG (Steihaug-Toint) on the trust-region
    model; stops on negative curvature, the boundary ||s||_c = radius, or
    eta-based reduction of the residual's Euclidean norm.

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
    target = r0 * min(eta, r0 ** _CG_THETA)
    radius2 = radius * radius
    sCs, sCd, dCd = 0.0, 0.0, rz
    for k in range(max_iters):
        Hd = hess_vec(d)
        dHd = _inner(d, Hd)
        if dHd > 0.0:
            alpha = rz / dHd
            sCs_new = sCs + alpha * (2.0 * sCd + alpha * dCd)
        if dHd <= 0.0 or sCs_new >= radius2:
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
                 *, check: bool = True):
    """Minimize trace(M R R^T) from initial_point.

    Returns (point, objective, grad_norm, iterations).  Accepted steps
    strictly decrease the objective; the radius, measured in the
    preconditioner's norm ||s||_c (see _preconditioner; c has mean 1, so
    initial_tr_radius keeps its scale), shrinks by alpha1 on rejected steps
    and grows by alpha2 on very successful boundary steps.  check=False
    skips the symmetry check of M (for callers that made it).

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
    radius = params.initial_tr_radius
    iterations = 0
    while iterations < params.max_tnt_iterations and gnorm >= params.grad_norm_tol:
        s, Hs, hit_boundary, cg_iters = _steihaug(
            grad, hess, precon, radius, params.max_cg_iterations,
            params.cg_success_eta,
        )
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
            stop = (f - f_new) / max(1.0, abs(f)) < params.rel_func_decrease_tol
            if rho >= _VERY_SUCCESSFUL_RATIO and hit_boundary:
                radius *= params.tr_increase_factor
            R, f, MR = R_new, f_new, MR_new
            grad, gnorm, hess, precon = _local_model(shape, R, M, MR, diag_M)
        else:
            radius *= params.tr_decrease_factor
            stop = radius < _MIN_RADIUS
        logger.info(
            "tnt iter=%d accepted=%d f=%.12g grad_norm=%.6g radius=%.6g "
            "rank=%d cg=%d",
            iterations, accepted, f, gnorm, radius, shape.rank, cg_iters,
        )
        if stop:
            break
    return R, f, gnorm, iterations


def _certificate(M, shape: ManifoldShape, R, rng):
    """Dual bound on trace(M Y) over the SDP from the multipliers at R.

    Returns (lower_bound, theta, v): theta estimates lambda_min(S) and v is
    its unit eigenvector, or (Gershgorin bound, -G, None) when ARPACK does
    not converge.
    """
    lam, Lam_B = _multipliers(shape, R, M @ R)
    blocks = [sp.diags(lam)]
    if Lam_B is not None:
        blocks.append(sp.csr_matrix(Lam_B))
    multipliers = sp.block_diag(blocks, format="csr")
    dual_value = float(multipliers.diagonal().sum())
    S = (sp.csr_matrix(M) - multipliers).tocsr()
    m = S.shape[0]
    G = float(abs(S).sum(axis=1).max())
    if m <= _DENSE_EIG_ROWS:
        w, vecs = scipy.linalg.eigh(S.toarray(), subset_by_index=[0, 0])
        theta, v = float(w[0]), vecs[:, 0]
    else:
        shift = G or 1.0  # S = 0 would make the shifted matrix 0
        tol = (_EIGSH_BUDGET_SHARE * _CERTIFY_RTOL * max(1.0, abs(dual_value))
               / (m * shift))
        try:
            mu, vecs = eigsh(shift * sp.identity(m, format="csr") - S, k=1,
                             which="LA", v0=rng.standard_normal(m), rng=rng,
                             ncv=min(m, _EIGSH_NCV), tol=tol,
                             maxiter=_EIGSH_MAXITER)
        except ArpackNoConvergence:
            return dual_value - G * m, -G, None
        theta, v = shift - float(mu[0]), vecs[:, 0]
    charged = theta - float(np.linalg.norm(S @ v - theta * v))
    return dual_value + min(0.0, charged) * m, theta, v


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
    iterations, gradient norm) entry to rank_history.  The result carries
    the last rank's point, objective, lower_bound and min_eig; certified
    means f - lower_bound is within _CERTIFY_RTOL * max(1, |f|).  Progress
    goes to this module's logger at INFO, one line per TNT step and per
    rank.
    """
    check_symmetric(M)
    rng = _as_rng(seed_or_rng)
    if warm_start is not None:
        R = np.array(warm_start, dtype=float, copy=True)
        if R.shape[0] != shape.total_rows:
            raise InvalidInputError("warm start row count mismatch")
        shape = shape.with_rank(R.shape[1])
    else:
        R = random_point(shape, rng)
    refined = replace(
        params,
        grad_norm_tol=params.grad_norm_tol * _REFINE_GRAD_FACTOR,
        rel_func_decrease_tol=params.rel_func_decrease_tol * _REFINE_DECREASE_FACTOR,
    )

    result = StaircaseResult(R_opt=R, objective=math.nan)
    for step in range(params.max_staircase_steps):
        R, f, gnorm, iters = tnt_minimize(M, shape, R, refined, check=False)
        lower, theta, v = _certificate(M, shape, R, rng)
        result.rank_history.append((shape.rank, iters, gnorm))
        result.R_opt, result.objective = R, f
        result.lower_bound, result.min_eig = lower, theta
        result.certified = f - lower <= _CERTIFY_RTOL * max(1.0, abs(f))
        logger.info(
            "staircase step=%d rank=%d f=%.12g grad_norm=%.6g "
            "lower_bound=%.12g min_eig=%.6g certified=%d", step,
            shape.rank, f, gnorm, lower, theta, result.certified,
        )
        if (result.certified or v is None or theta >= -params.eig_tol
                or step == params.max_staircase_steps - 1):
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
