"""Sign-vector encoding of the MRF energy.

Each node variable becomes a block of K entries in {-1,+1} with exactly one
+1 (block i occupies indices [i*K, i*K + K)); a homogenizing +1 entry is
appended.  For the resulting vector y of length N*K + 1,

    energy(x) = y^T L y + offset

holds for every valid assignment, with L = [[A, b], [b^T, 0]] sparse
symmetric.  With one-hot-in-signs blocks, x~_i . x~_j equals K when the two
labels agree and K - 4 otherwise, so each stored undirected edge contributes
-(w/4) * x~_i . x~_j to the quadratic form (split as -w/8 per matrix
orientation) plus a constant w*K/4; each unary term contributes -(w/4) at
entry (i*K + label, last) of L, twice by symmetry, plus a constant w/2.

Feasibility of y is the per-node sum constraint 1^T x~_i = 2 - K, written
trace(U_i y y^T) = 2 - K with U_i = [[0, 0], [u_i^T, 0]]; the trace reduces
to a block sum over the last column, which is how dars.dual_gradient
evaluates it (U_i is never materialized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mrf import MrfInstance, _check_labeling


@dataclass(frozen=True)
class PmEncoding:
    num_nodes: int
    num_labels: int
    L: sp.csr_matrix
    offset: float

    @property
    def dim(self) -> int:
        return self.num_nodes * self.num_labels + 1

    @property
    def rhs(self) -> float:
        """Per-node sum-constraint right-hand side, 2 - K."""
        return float(2 - self.num_labels)


def encode_pm(mrf: MrfInstance) -> PmEncoding:
    n, k = mrf.num_nodes, mrf.num_labels
    dim = n * k + 1
    last = np.full(mrf.unary_node.size, dim - 1)
    p = mrf.unary_node * k + mrf.unary_label
    # edge (i, j) couples entry i*K + c with j*K + c for every label c
    pi = (mrf.edge_i[:, None] * k + np.arange(k)).ravel()
    pj = (mrf.edge_j[:, None] * k + np.arange(k)).ravel()
    vals = np.concatenate([mrf.unary_weight / -4.0,
                           np.repeat(mrf.edge_weight / -8.0, k)])
    L = sp.coo_matrix(
        (np.concatenate([vals, vals]),
         (np.concatenate([p, pi, last, pj]), np.concatenate([last, pj, p, pi]))),
        shape=(dim, dim),
    ).tocsr()
    offset = float(mrf.unary_weight.sum() / 2.0 + mrf.edge_weight.sum() * k / 4.0)
    return PmEncoding(num_nodes=n, num_labels=k, L=L, offset=offset)


def labeling_to_pm(labeling, num_nodes: int, num_labels: int) -> np.ndarray:
    """Sign vector with +1 at each node's label position, homogenized."""
    x = _check_labeling(labeling, num_nodes, num_labels)
    y = -np.ones(num_nodes * num_labels + 1)
    y[np.arange(num_nodes) * num_labels + x] = 1.0
    y[-1] = 1.0
    return y
