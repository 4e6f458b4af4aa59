import itertools

import numpy as np
import pytest

from mrfsdp import ManifoldShape, MrfInstance, project_tangent
from mrfsdp.manifold import (
    _check_point,
    _hessian_operator,
    _multipliers,
    check_symmetric,
)


def make_instance(num_nodes, num_labels, unary=(), binary=()):
    """Instance from (node, label, weight) unary and (i, j, weight) edge
    triples, in the given storage order."""
    def columns(triples):
        a, b, w = zip(*triples) if triples else ((), (), ())
        return (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                np.array(w, dtype=float))

    return MrfInstance(num_nodes, num_labels, *columns(unary), *columns(binary))


def unary_triples(mrf):
    return list(zip(mrf.unary_node.tolist(), mrf.unary_label.tolist(),
                    mrf.unary_weight.tolist()))


def edge_triples(mrf):
    return list(zip(mrf.edge_i.tolist(), mrf.edge_j.tolist(),
                    mrf.edge_weight.tolist()))


def random_instance(rng, max_nodes=5, max_labels=4, min_nodes=1):
    """Random small instance with arbitrary-sign weights."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    k = int(rng.integers(2, max_labels + 1))
    unary = []
    seen = set()
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        node, lab = int(rng.integers(n)), int(rng.integers(k))
        if (node, lab) in seen:
            continue
        seen.add((node, lab))
        unary.append((node, lab, float(rng.normal())))
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    m = int(rng.integers(0, len(pairs) + 1)) if pairs else 0
    binary = [(i, j, float(rng.normal())) for i, j in pairs[:m]]
    return make_instance(n, k, unary, binary)


def nth_random_instance(seed, index, **kwargs):
    """The index-th (from 0) random_instance drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_instance(rng, **kwargs)
    return random_instance(rng, **kwargs)


def all_labelings(n, k):
    return (np.array(x) for x in itertools.product(range(k), repeat=n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# references that tests check the solver's manifold operations against
# (project_tangent, retract, _hessian_operator)
def manifold_residual(shape: ManifoldShape, R) -> float:
    """Max violation of the defining constraints (0 on the manifold)."""
    R = _check_point(shape, R)
    ns = shape.n_sphere_rows
    res = 0.0
    if ns:
        res = float(np.max(np.abs(np.einsum("ij,ij->i", R[:ns], R[:ns]) - 1.0)))
    if shape.bottom_block_rows:
        B = R[ns:]
        res = max(res, float(np.max(np.abs(B @ B.T - np.eye(B.shape[0])))))
    return res


def tangent_residual(shape: ManifoldShape, R, V) -> float:
    """Max violation of the tangency conditions at R (block rows of V are
    zero)."""
    R = _check_point(shape, R)
    V = _check_point(shape, V)
    ns = shape.n_sphere_rows
    res = 0.0
    if ns:
        res = float(np.max(np.abs(np.einsum("ij,ij->i", V[:ns], R[:ns]))))
    if shape.bottom_block_rows:
        res = max(res, float(np.max(np.abs(V[ns:]))))
    return res


def riemannian_gradient(M, shape: ManifoldShape, R) -> np.ndarray:
    """Tangent projection of the ambient gradient 2 M R."""
    check_symmetric(M)
    R = _check_point(shape, R)
    return project_tangent(shape, R, 2.0 * (M @ R))


def riemannian_hessian_vec(M, shape: ManifoldShape, R, tangent) -> np.ndarray:
    """Riemannian Hessian of trace(M R R^T) applied to a tangent vector."""
    check_symmetric(M)
    R = _check_point(shape, R)
    V = _check_point(shape, tangent)
    return _hessian_operator(shape, R, M, _multipliers(shape, R, M @ R)[0])(V)
