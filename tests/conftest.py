import itertools

import numpy as np
import pytest

from mrfsdp import MrfInstance


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
