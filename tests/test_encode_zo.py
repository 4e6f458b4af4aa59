import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfsdp import (
    InvalidInputError,
    MrfInstance,
    encode_zo,
    energy,
    labeling_to_zo,
    lift_labeling,
    zo_objective,
)

from conftest import all_labelings, make_instance, random_instance


def test_empty_instance():
    enc = encode_zo(MrfInstance(2, 3))
    assert enc.Q.nnz == 0
    assert enc.offset == 0.0
    assert enc.dim == 5
    assert enc.num_nodes == 2 and enc.num_labels == 3


def test_unary_coefficient_value():
    enc = encode_zo(make_instance(1, 3, [(0, 1, 2.0)]))
    # Q carries G/2 in the top-right N x K block, with G = -w at (node, label)
    G = 2.0 * enc.Q[:1, 1:].toarray()
    assert np.array_equal(G, [[0.0, -2.0, 0.0]])


def test_exhaustive_equivalence_n4_k3(rng):
    for _ in range(3):
        mrf = random_instance(rng, max_nodes=4, max_labels=3, min_nodes=4)
        enc = encode_zo(mrf)
        for x in all_labelings(mrf.num_nodes, mrf.num_labels):
            V = lift_labeling(enc, x)
            assert zo_objective(enc, V) + enc.offset == pytest.approx(
                energy(mrf, x), abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_energy_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    mrf = random_instance(rng, max_nodes=5, max_labels=4)
    enc = encode_zo(mrf)
    for x in all_labelings(mrf.num_nodes, mrf.num_labels):
        V = lift_labeling(enc, x)
        assert abs(zo_objective(enc, V) + enc.offset - energy(mrf, x)) < 1e-10


def test_edge_block_symmetric_zero_diagonal(rng):
    mrf = random_instance(rng, min_nodes=3)
    n = mrf.num_nodes
    H = encode_zo(mrf).Q[:n, :n].toarray()
    assert np.allclose(H, H.T)
    assert np.all(np.diag(H) == 0.0)


def test_labeling_to_zo_single_node():
    assert np.array_equal(labeling_to_zo([2], 1, 3), [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("x", [[0.5, 1.7], [0], [0, 2], [0, -1]])
def test_labeling_to_zo_rejects_what_energy_rejects(x):
    # non-integer, wrong-length and out-of-range labelings, as energy does
    with pytest.raises(InvalidInputError):
        energy(MrfInstance(2, 2), x)
    with pytest.raises(InvalidInputError):
        labeling_to_zo(x, 2, 2)
    with pytest.raises(InvalidInputError):
        lift_labeling(encode_zo(MrfInstance(2, 2)), x)


def test_one_hot_rows(rng):
    for _ in range(20):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = rng.integers(0, k, size=n)
        X = labeling_to_zo(x, n, k)
        assert np.array_equal(np.diag(X @ X.T), np.ones(n))


def test_round_trip_identity(rng):
    # row i is the one-hot row of label x_i
    for _ in range(100):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = rng.integers(0, k, size=n)
        assert np.array_equal(labeling_to_zo(x, n, k), np.eye(k)[x])


def test_zo_objective_lifted_empty():
    enc = encode_zo(MrfInstance(2, 2))
    V = lift_labeling(enc, [0, 1])
    assert zo_objective(enc, V) == 0.0


def test_zo_objective_equals_energy_minus_offset(rng):
    mrf = random_instance(rng, min_nodes=2)
    enc = encode_zo(mrf)
    for _ in range(10):
        x = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
        V = lift_labeling(enc, x)
        assert zo_objective(enc, V) == pytest.approx(
            energy(mrf, x) - enc.offset, abs=1e-12)


def test_zo_objective_zero_matrix(rng):
    enc = encode_zo(MrfInstance(3, 2))
    V = rng.standard_normal((enc.dim, 2))
    assert zo_objective(enc, V) == 0.0


def test_zo_objective_dimension_mismatch(rng):
    enc = encode_zo(MrfInstance(3, 2))
    with pytest.raises(InvalidInputError):
        zo_objective(enc, rng.standard_normal((4, 2)))


def test_trace_cyclicity(rng):
    mrf = random_instance(rng, min_nodes=3)
    enc = encode_zo(mrf)
    Q = enc.Q.toarray()
    for _ in range(5):
        V = rng.standard_normal((enc.dim, mrf.num_labels))
        a = zo_objective(enc, V)
        b = float(np.trace(Q @ V @ V.T))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_lift_bottom_right_identity(rng):
    mrf = random_instance(rng, min_nodes=2)
    enc = encode_zo(mrf)
    x = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
    V = lift_labeling(enc, x)
    W = V @ V.T
    k = mrf.num_labels
    assert np.array_equal(W[-k:, -k:], np.eye(k))
