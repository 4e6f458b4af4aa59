"""Binary-matrix encoding of the MRF energy.

Node labels become an N x K one-hot matrix X.  With

    G[i, measured_label] accumulating -w   per unary term,
    H[i, j] = H[j, i]    accumulating -w/2 per stored undirected edge,
    offset = sum_u w + sum_e w,

the identity  trace(X^T H X) + trace(G X^T) + offset = energy(x)  holds for
every valid one-hot X.  Homogenizing with V = [X; I_K] gives the single
quadratic form trace(V^T Q V) with

    Q = [[H, G/2], [G^T/2, 0]]   of size (N+K) x (N+K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError
from .mrf import MrfInstance, _check_labeling


@dataclass(frozen=True)
class ZoEncoding:
    num_nodes: int
    num_labels: int
    Q: sp.csr_matrix
    offset: float

    @property
    def dim(self) -> int:
        return self.num_nodes + self.num_labels


def encode_zo(mrf: MrfInstance) -> ZoEncoding:
    n, k = mrf.num_nodes, mrf.num_labels
    dim = n + k
    un, ul = mrf.unary_node, n + mrf.unary_label
    ei, ej = mrf.edge_i, mrf.edge_j
    # Q top-right holds G/2; every entry is stored in both orientations
    half = np.concatenate([mrf.unary_weight, mrf.edge_weight]) / -2.0
    Q = sp.coo_matrix(
        (np.concatenate([half, half]),
         (np.concatenate([un, ei, ul, ej]), np.concatenate([ul, ej, un, ei]))),
        shape=(dim, dim),
    ).tocsr()
    offset = float(mrf.unary_weight.sum() + mrf.edge_weight.sum())
    return ZoEncoding(num_nodes=n, num_labels=k, Q=Q, offset=offset)


def labeling_to_zo(labeling, num_nodes: int, num_labels: int) -> np.ndarray:
    """N x K one-hot matrix with a 1 at each node's label."""
    x = _check_labeling(labeling, num_nodes, num_labels)
    X = np.zeros((num_nodes, num_labels))
    X[np.arange(num_nodes), x] = 1.0
    return X


def zo_objective(enc: ZoEncoding, V) -> float:
    """trace(V^T Q V); equals energy - offset at V = [X; I_K] for valid X."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != enc.dim:
        raise InvalidInputError(f"V must have {enc.dim} rows")
    return float(np.sum(V * (enc.Q @ V)))


def lift_labeling(enc: ZoEncoding, labeling) -> np.ndarray:
    """The homogenized assignment V = [X; I_K] for a labeling."""
    X = labeling_to_zo(labeling, enc.num_nodes, enc.num_labels)
    return np.vstack([X, np.eye(enc.num_labels)])
