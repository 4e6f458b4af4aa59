"""Binary-matrix relaxation pipeline: encode, staircase at rank K+1, round.

The relaxed problem minimizes trace(Q R R^T) over N unit-norm rows plus a
K-row block with orthonormal rows.  trace(Q R R^T) is invariant under
R -> R Q for orthogonal Q, so the block is held at the fixed anchor block
B0 = [I_K 0] and only the N unit rows move.  The staircase's dual
certificate (see mrfsdp.staircase) bounds the relaxation, and so the
discrete optimum, from below at whatever point it stops, so with
lower_bound = that bound + offset

    f_rounded - f_opt <= subopt_bound = f_rounded - lower_bound

holds without knowing f_opt, certified or not.  fuses_solve returns a
staircase.SolveResult with the certificate fields lower_bound and min_eig
set and the dual-ascent fields None.  Rounding reads the
top-right N x K block of R R^T directly as R_top @ R_bottom^T (rank <= r
already) and takes per-row argmax, ties broken toward the lowest label
index.
"""

from __future__ import annotations

import time

import numpy as np

from .encode_zo import encode_zo, lift_labeling
from .errors import InvalidInputError
from .manifold import ManifoldShape, _as_rng, project_tangent, retract
from .mrf import MrfInstance, energy, unary_argmax_labeling
from .staircase import SolveResult, SolverParams, staircase_solve


def fuses_round(R, num_nodes: int, num_labels: int) -> np.ndarray:
    """One-hot matrix from the factored top-right block of R R^T."""
    R = np.asarray(R, dtype=float)
    if R.shape[0] != num_nodes + num_labels:
        raise InvalidInputError("factor row count mismatch")
    frac = R[:num_nodes] @ R[num_nodes:].T
    labels = frac.argmax(axis=1)
    X = np.zeros((num_nodes, num_labels))
    X[np.arange(num_nodes), labels] = 1.0
    return X


def fuses_solve(mrf: MrfInstance, params: SolverParams | None = None,
                seed: int = 0, init: str = "random") -> SolveResult:
    """Full pipeline; init is "random" (default, no initial guess needed) or
    "unary" (lift the unary-argmax labeling, nudged by a small tangent)."""
    t0 = time.perf_counter()
    if params is None:
        params = SolverParams()
    enc = encode_zo(mrf)
    t_encode = time.perf_counter()
    n, k = mrf.num_nodes, mrf.num_labels
    shape = ManifoldShape(n_sphere_rows=n, bottom_block_rows=k, rank=k + 1)
    rng = _as_rng(seed)
    warm = None
    if init == "unary":
        V = lift_labeling(enc, unary_argmax_labeling(mrf))
        R0 = np.hstack([V, np.zeros((n + k, 1))])
        pert = project_tangent(shape, R0, 0.01 * rng.standard_normal(R0.shape))
        warm = retract(shape, R0, pert)
    elif init != "random":
        raise InvalidInputError(f"unknown init mode {init!r}")
    res = staircase_solve(enc.Q, shape, params, warm_start=warm, seed_or_rng=rng)
    t_solve = time.perf_counter()
    X = fuses_round(res.R_opt, n, k)
    labeling = X.argmax(axis=1)
    f_relaxed = res.objective + enc.offset
    lower_bound = res.lower_bound + enc.offset
    f_rounded = energy(mrf, labeling)
    t_end = time.perf_counter()
    return SolveResult(
        labeling=labeling,
        f_relaxed=f_relaxed,
        f_rounded=f_rounded,
        subopt_bound=f_rounded - lower_bound,
        certified=res.certified,
        rank_history=res.rank_history,
        lower_bound=lower_bound,
        min_eig=res.min_eig,
        offset=enc.offset,
        timings={
            "encode_s": t_encode - t0,
            "solve_s": t_solve - t_encode,
            "round_s": t_end - t_solve,
            "total_s": t_end - t0,
        },
    )
