"""Binary-matrix relaxation pipeline: encode, staircase from rank K, round.

The relaxed problem minimizes trace(Q R R^T) over N unit-norm rows plus a
K-row block with orthonormal rows.  trace(Q R R^T) is invariant under
R -> R Q for orthogonal Q, so the block is held at a fixed anchor and only
the N unit rows move.  The staircase starts at rank K, with anchor B0 = I_K
(a K+1-th column would be pure gauge), and lifts to [I_K 0] and beyond only
when the certificate finds negative curvature.  The staircase's dual
certificate (see mrfsdp.staircase) bounds the relaxation, and so the
discrete optimum, from below at whatever point it stops, so with
lower_bound = that bound + offset (rounded down, see staircase._sum_down)

    f_rounded - f_opt <= subopt_bound = f_rounded - lower_bound

holds without knowing f_opt, certified or not.  fuses_solve returns a
staircase.SolveResult with the certificate fields lower_bound, min_eig and
certificate set and the dual-ascent fields None.  min_eig is the lower
bound t on lambda_min(S) that lower_bound was built from; certificate names
its source: "schur", the sphere block's Gershgorin discs and a K x K Schur
complement, or "eigsh", an eigen-solve whose Ritz value is charged its
residual.  Rounding (fuses_round) reads the top-right N x K block of R R^T
directly as R_top @ R_bottom^T (rank <= r already) and takes per-row
argmax, ties broken toward the lowest label index.
"""

from __future__ import annotations

import time

import numpy as np

from .encode_zo import encode_zo, lift_labeling
from .errors import InvalidInputError
from .manifold import ManifoldShape, _as_rng, project_tangent, retract
from .mrf import MrfInstance, energy, unary_argmax_labeling
from .staircase import SolveResult, SolverParams, _sum_down, staircase_solve


def fuses_round(R, num_nodes: int, num_labels: int) -> np.ndarray:
    """Labeling from the factored top-right block of R R^T: per-row argmax,
    ties toward the lowest label."""
    R = np.asarray(R, dtype=float)
    if R.shape[0] != num_nodes + num_labels:
        raise InvalidInputError("factor row count mismatch")
    return (R[:num_nodes] @ R[num_nodes:].T).argmax(axis=1)


def fuses_solve(mrf: MrfInstance, params: SolverParams | None = None,
                seed: int = 0, init: str = "random") -> SolveResult:
    """Full pipeline; init is "random" (default, no initial guess needed) or
    "unary" (lift the unary-argmax labeling, nudged by a small tangent).
    The result's min_eig is the lower bound t on lambda_min(S) behind
    lower_bound, whichever certificate supplied it."""
    t0 = time.perf_counter()
    if params is None:
        params = SolverParams()
    enc = encode_zo(mrf)
    t_encode = time.perf_counter()
    n, k = mrf.num_nodes, mrf.num_labels
    shape = ManifoldShape(n_sphere_rows=n, bottom_block_rows=k, rank=k)
    rng = _as_rng(seed)
    warm = None
    if init == "unary":
        V = lift_labeling(enc, unary_argmax_labeling(mrf))
        pert = project_tangent(shape, V, 0.01 * rng.standard_normal(V.shape))
        warm = retract(shape, V, pert)
    elif init != "random":
        raise InvalidInputError(f"unknown init mode {init!r}")
    res = staircase_solve(enc.Q, shape, params, warm_start=warm, seed_or_rng=rng)
    t_solve = time.perf_counter()
    labeling = fuses_round(res.R_opt, n, k)
    f_relaxed = res.objective + enc.offset
    lower_bound = _sum_down(res.lower_bound, enc.offset)
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
        certificate=res.certificate,
        offset=enc.offset,
        timings={
            "encode_s": t_encode - t0,
            "solve_s": t_solve - t_encode,
            "round_s": t_end - t_solve,
            "total_s": t_end - t0,
        },
    )
