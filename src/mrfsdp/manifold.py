"""Product of unit spheres, with an optional fixed anchor block.

Points are (n_sphere_rows + bottom_block_rows) x rank matrices R whose first
n_sphere_rows rows have unit Euclidean norm and whose trailing block B (when
present) is a fixed anchor B0 with orthonormal rows (random_point uses
B0 = [I_K 0]).  This is the feasible set of the low-rank factorizations used
by both relaxations: diag(R R^T) = 1 rows, plus, for the binary-matrix
relaxation, a block with B B^T = I.  Costs trace(M R R^T) do not change
under R -> R Q for orthogonal Q, so every orthonormal block is a rotation of
B0 away and holding B at B0 loses nothing (the O(r) quotient of the
Burer-Monteiro factorization: Journee, Bach, Absil, Sepulchre, SIAM J.
Optim. 2010).  Tangent vectors vanish on the block rows, so the manifold is
a product of spheres (Manopt's oblique manifold) in every case.

All operations use the embedded (Frobenius) metric.  The retraction is
metric projection: row normalization of the sphere rows (projection
retractions are second order, which the Taylor-remainder tests rely on).
Cost functions are trace quadratics f(R) = trace(M R R^T) for sparse
symmetric M; the Riemannian gradient is the tangent projection of 2 M R.

The Lagrange multipliers of the constraints at R are lambda_i = (M R)_i . R_i
on the sphere rows and Lambda_B = sym((M R)_B R_B^T) on the block B
(_multipliers, their only definition).  They give the SE-Sync certificate
matrix S(R) = M - blkdiag(Diag lambda, Lambda_B) (Rosen et al., arXiv
1612.07386) of the SDP with Y_BB = I, and the Riemannian Hessian at R is

    Hess f(R)[V] = P_R(2 S(R) V) = P_R(2 (M V - lambda * V_sphere))

(Boumal, Voroninski, Bandeira, arXiv 1606.04970; V_B = 0, so Lambda_B drops
out).  _hessian_operator takes lambda once per iterate and returns a map
V -> Hess f(R)[V] that costs one sparse product and one in-place projection
per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStepError, InvalidInputError
from .mrf import _seeded_rng

_SPHERE_COLLAPSE_TOL = 1e-14


@dataclass(frozen=True)
class ManifoldShape:
    n_sphere_rows: int
    bottom_block_rows: int
    rank: int

    def __post_init__(self):
        if self.n_sphere_rows < 0 or self.bottom_block_rows < 0:
            raise InvalidInputError("row counts must be nonnegative")
        if self.n_sphere_rows + self.bottom_block_rows < 1:
            raise InvalidInputError("shape must have at least one row")
        if self.rank < 1:
            raise InvalidInputError("rank must be >= 1")
        if self.bottom_block_rows and self.rank < self.bottom_block_rows:
            raise InvalidInputError(
                "the anchor block needs rank >= bottom_block_rows"
            )

    @property
    def total_rows(self) -> int:
        return self.n_sphere_rows + self.bottom_block_rows

    @property
    def tangent_dim(self) -> int:
        return self.n_sphere_rows * (self.rank - 1)

    def with_rank(self, rank: int) -> "ManifoldShape":
        return ManifoldShape(self.n_sphere_rows, self.bottom_block_rows, rank)


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return _seeded_rng(seed_or_rng)


def _check_point(shape: ManifoldShape, R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.shape != (shape.total_rows, shape.rank):
        raise InvalidInputError(
            f"point has shape {R.shape}, expected {(shape.total_rows, shape.rank)}"
        )
    return R


def random_point(shape: ManifoldShape, seed_or_rng=0) -> np.ndarray:
    """Gaussian rows normalized to the sphere above the anchor block
    B0 = [I_K 0].  Deterministic per seed."""
    rng = _as_rng(seed_or_rng)
    ns = shape.n_sphere_rows
    R = np.empty((shape.total_rows, shape.rank))
    R[:ns] = rng.standard_normal((ns, shape.rank))
    R[ns:] = np.eye(shape.bottom_block_rows, shape.rank)
    norms = np.linalg.norm(R[:ns], axis=1, keepdims=True)
    # resample any (measure-zero) degenerate row
    while np.any(norms < _SPHERE_COLLAPSE_TOL):
        bad = norms[:, 0] < _SPHERE_COLLAPSE_TOL
        R[:ns][bad] = rng.standard_normal((bad.sum(), shape.rank))
        norms = np.linalg.norm(R[:ns], axis=1, keepdims=True)
    R[:ns] /= norms
    return R


def _project_inplace(shape: ManifoldShape, R: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Overwrite V (a float array shaped like R) with its tangent projection."""
    ns = shape.n_sphere_rows
    if ns:
        dots = np.einsum("ij,ij->i", V[:ns], R[:ns])
        V[:ns] -= dots[:, None] * R[:ns]
    V[ns:] = 0.0
    return V


def project_tangent(shape: ManifoldShape, R, ambient) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto the tangent space."""
    R = _check_point(shape, R)
    V = np.array(ambient, dtype=float, copy=True)
    if V.shape != R.shape:
        raise InvalidInputError("ambient direction shape mismatch")
    return _project_inplace(shape, R, V)


def retract(shape: ManifoldShape, R, tangent) -> np.ndarray:
    """Metric-projection retraction: normalize the sphere rows of R + V; the
    block stays R's.  retract(R, 0) returns R exactly."""
    R = _check_point(shape, R)
    V = np.asarray(tangent, dtype=float)
    if V.shape != R.shape:
        raise InvalidInputError("tangent shape mismatch")
    if not V.any():
        return R.copy()
    out = R + V
    ns = shape.n_sphere_rows
    if ns:
        norms = np.sqrt(np.einsum("ij,ij->i", out[:ns], out[:ns]))
        if np.any(norms < _SPHERE_COLLAPSE_TOL):
            raise DegenerateStepError(
                "retraction collapsed a sphere row", last_point=R
            )
        out[:ns] /= norms[:, None]
    out[ns:] = R[ns:]
    return out


# --- trace-quadratic costs ------------------------------------------------

def _sparse_asymmetry(M) -> float:
    """max |M_ij - M_ji| over the entries stored in M or M^T (0 if none).  A
    canonical CSR matrix whose transpose stores the same pattern is compared
    entry by entry; anything else goes through M - M^T."""
    if M.format == "csr" and M.has_canonical_format:
        T = M.T.tocsr()
        if (np.array_equal(M.indptr, T.indptr)
                and np.array_equal(M.indices, T.indices)):
            return float(np.max(np.abs(M.data - T.data))) if M.nnz else 0.0
    D = (M - M.T).tocoo()
    return float(np.max(np.abs(D.data))) if D.nnz else 0.0


def check_symmetric(M, tol: float = 1e-12) -> None:
    """Reject cost matrices that are not square or not numerically
    symmetric."""
    shape = np.shape(M)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidInputError(f"cost matrix has shape {shape}, not square")
    if sp.issparse(M):
        scale = max(1.0, float(np.max(np.abs(M.data))) if M.nnz else 0.0)
        err = _sparse_asymmetry(M)
    else:
        A = np.asarray(M, dtype=float)
        scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
        err = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if err > tol * scale:
        raise InvalidInputError(f"cost matrix asymmetric (residual {err:.3g})")


def trace_quadratic(M, R) -> float:
    """f(R) = trace(M R R^T)."""
    return float(np.sum(np.asarray(R) * (M @ R)))


def _multipliers(shape: ManifoldShape, R, MR):
    """The multipliers (lambda, Lambda_B) at R, from MR = M @ R; Lambda_B is
    None without a bottom block."""
    ns = shape.n_sphere_rows
    lam = np.einsum("ij,ij->i", MR[:ns], R[:ns])
    Lam_B = None
    if shape.bottom_block_rows:
        C = MR[ns:] @ R[ns:].T
        Lam_B = 0.5 * (C + C.T)
    return lam, Lam_B


def _hessian_operator(shape: ManifoldShape, R, M, lam):
    """Riemannian Hessian of trace(M R R^T) at R, as a map V -> P_R(2 S V).

    lam is the sphere rows' multiplier at R (see _multipliers); tangent
    vectors vanish on the block, so S V = M V - lam * V_sphere on the
    sphere rows and the projection zeroes the block rows.  Each application
    is one product M V, the multiplier term, and an in-place tangent
    projection.
    """
    ns = shape.n_sphere_rows
    lam = lam[:, None]

    def apply(V):
        W = M @ V
        if ns:
            W[:ns] -= lam * V[:ns]
        W *= 2.0
        return _project_inplace(shape, R, W)

    return apply
