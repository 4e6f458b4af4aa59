"""Dual ascent over the sign-vector relaxation with staircase primal steps.

The relaxation keeps diag(Y) = 1 and the PSD cone implicit in the low-rank
factorization, and dualizes the per-node sum constraints
trace(U_i Y) = 2 - K with multipliers lambda.  Each iteration:

  primal:  minimize trace(L_lambda R R^T) over unit rows, where
           L_lambda = L + sum_i lambda_i * sym(U_i)  (symmetrized so the
           manifold cost stays symmetric; trace against symmetric Y is
           unchanged), warm-started from the previous factor;
  dual:    lambda_i += _DUAL_STEP_SIZE * (trace(U_i R R^T) - (2 - K)).

The loop stops when the constraint residual max_i |trace(U_i R R^T) - (2-K)|
is below _DUAL_GRAD_TOL (dual_converged) or after DualParams.max_iterations,
whichever comes first; nothing else ends it.  The step 0.005 and the
absolute tolerance 0.5 are fixed: dual ascent has no convergence guarantee,
so the iteration cap is the one setting a caller needs.  Since Y = R R^T
has a unit diagonal, the residual never exceeds 2K - 2.

The dual function d(lambda) = min_Y trace(L_lambda Y) - (2-K) sum(lambda)
is a lower bound on the relaxation optimum for every lambda.  The primal
minimum is itself bounded below by the staircase's dual certificate on
L_lambda, with diagonal multipliers mu_i = (L_lambda R R^T)_ii only:

    min_Y trace(L_lambda Y)
        >= lower_bound = sum(mu) + min(0, lambda_min(L_lambda - Diag mu)) (NK+1)

with the eigen-solver's residual charged, so

    dual_bound = lower_bound - (2-K) sum(lambda) + offset

(summed once and rounded down, see staircase._sum_down) is a lower bound
on the discrete optimum at any lambda, converged or not (weak duality).
So dars_solve reports the largest bound over all iterates, the later one on
a tie, as dual_bound, its 1-based iteration as dual_bound_iteration and that
iterate's primal certificate flag as certified, and
subopt_bound = f_rounded - dual_bound.  f_relaxed, the primal value at
a point that need not satisfy the sum constraints, is reported but is not
a bound.  dars_solve returns a staircase.SolveResult with the dual-ascent
fields set and the staircase-certificate fields None; its primal solves
default to DARS_SOLVER_PARAMS, a tighter gradient tolerance than
SolverParams'.

Rounding takes the dominant singular direction of R, fixes its global sign
so the homogenization entry is nonnegative, and assigns each node the
argmax entry of its block (pure sign rounding can produce zero or multiple
labels per block; argmax always yields one).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .encode_pm import PmEncoding, encode_pm
from .errors import InvalidInputError
from .manifold import ManifoldShape, _as_rng, trace_quadratic
from .mrf import MrfInstance, energy
from .staircase import (SolveResult, SolverParams, _check_params, _sum_down,
                        staircase_solve)

logger = logging.getLogger(__name__)

DARS_SOLVER_PARAMS = SolverParams(grad_norm_tol=1e-3)

# the dual loop's fixed step length and stop tolerance on the constraint
# residual (see the module docstring)
_DUAL_STEP_SIZE = 0.005
_DUAL_GRAD_TOL = 0.5


@dataclass(frozen=True)
class DualParams:
    max_iterations: int = 1000

    def __post_init__(self):
        _check_params(self)


def dual_gradient(enc: PmEncoding, R) -> np.ndarray:
    """Constraint residuals trace(U_i R R^T) - (2 - K), one per node,
    computed as block sums of R @ R_last without forming Y."""
    R = np.asarray(R, dtype=float)
    n, k = enc.num_nodes, enc.num_labels
    if R.shape[0] != n * k + 1:
        raise InvalidInputError("factor row count mismatch")
    w = R @ R[-1]
    return w[:-1].reshape(n, k).sum(axis=1) - enc.rhs


def _l_lambda(enc: PmEncoding, lam) -> sp.csr_matrix:
    """L_lambda = L + sum_i lambda_i * sym(U_i) = L + C + C^T, where C holds
    lambda_i / 2 at (i K + c, last) for every label c."""
    nk, dim = enc.num_nodes * enc.num_labels, enc.dim
    C = sp.csr_matrix((0.5 * np.repeat(lam, enc.num_labels),
                       (np.arange(nk), np.full(nk, dim - 1))), shape=(dim, dim))
    return (enc.L + C + C.T).tocsr()


def dars_round(R, num_nodes: int, num_labels: int) -> np.ndarray:
    """Rank-1 sign-fixed rounding followed by per-block argmax."""
    R = np.asarray(R, dtype=float)
    if R.shape[0] != num_nodes * num_labels + 1:
        raise InvalidInputError("factor row count mismatch")
    u, s, _ = np.linalg.svd(R, full_matrices=False)
    v = s[0] * u[:, 0]
    if v[-1] < 0:
        v = -v
    return v[:-1].reshape(num_nodes, num_labels).argmax(axis=1)


def dars_solve(mrf: MrfInstance, params: SolverParams | None = None,
               dual_params: DualParams | None = None, seed: int = 0) -> SolveResult:
    t0 = time.perf_counter()
    if params is None:
        params = DARS_SOLVER_PARAMS
    if dual_params is None:
        dual_params = DualParams()
    enc = encode_pm(mrf)
    t_encode = time.perf_counter()
    n, k = mrf.num_nodes, mrf.num_labels
    shape = ManifoldShape(n_sphere_rows=enc.dim, bottom_block_rows=0, rank=2)
    rng = _as_rng(seed)

    lam = np.zeros(n)
    R = None
    dual_values: list = []
    residuals: list = []
    cert_hist: list = []
    rank_history: list = []
    converged = False
    iterations = 0
    for _ in range(dual_params.max_iterations):
        iterations += 1
        res = staircase_solve(_l_lambda(enc, lam), shape, params,
                              warm_start=R, seed_or_rng=rng)
        R = res.R_opt
        rank_history = res.rank_history
        dual_values.append(res.objective - enc.rhs * float(lam.sum()))
        bound = _sum_down(res.lower_bound, -enc.rhs * lam, enc.offset)
        if iterations == 1 or bound >= dual_bound:
            dual_bound, bound_iteration = bound, iterations
        cert_hist.append(res.certified)
        grad = dual_gradient(enc, R)
        residual = float(np.max(np.abs(grad)))
        residuals.append(residual)
        logger.info(
            "dual iter=%d grad_inf_norm=%.6g primal_objective=%.12g rank=%d",
            iterations, residual, res.objective, R.shape[1],
        )
        if residual < _DUAL_GRAD_TOL:
            converged = True
            break
        lam = lam + _DUAL_STEP_SIZE * grad

    t_solve = time.perf_counter()
    labeling = dars_round(R, n, k)
    f_rounded = energy(mrf, labeling)
    f_relaxed = trace_quadratic(enc.L, R) + enc.offset
    t_end = time.perf_counter()
    timings = {
        "encode_s": t_encode - t0,
        "solve_s": t_solve - t_encode,
        "round_s": t_end - t_solve,
        "total_s": t_end - t0,
    }
    return SolveResult(
        labeling=labeling,
        f_relaxed=f_relaxed,
        f_rounded=f_rounded,
        subopt_bound=f_rounded - dual_bound,
        certified=bool(cert_hist[bound_iteration - 1]),
        rank_history=rank_history,
        offset=enc.offset,
        timings=timings,
        dual_bound=dual_bound,
        dual_bound_iteration=bound_iteration,
        dual_converged=converged,
        dual_iterations=iterations,
        constraint_residual_max=residuals[-1],
        dual_value_history=dual_values,
        residual_history=residuals,
        primal_certified_history=cert_hist,
    )
