import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfsdp import (
    InvalidInputError,
    MrfInstance,
    dual_gradient,
    encode_pm,
    energy,
    labeling_to_pm,
)

from conftest import all_labelings, make_instance, random_instance


def test_empty_instance():
    enc = encode_pm(MrfInstance(2, 3))
    assert enc.L.nnz == 0
    assert enc.offset == 0.0
    assert enc.dim == 7
    assert enc.rhs == -1.0


def test_unary_coefficient_value():
    # a unary term of weight 2 at (node 0, label 1) lands as -1/2 in the
    # homogenizing column
    enc = encode_pm(make_instance(1, 3, [(0, 1, 2.0)]))
    L = enc.L.toarray()
    assert L[1, enc.dim - 1] == pytest.approx(-0.5)
    assert L[enc.dim - 1, 1] == pytest.approx(-0.5)


def test_exhaustive_equivalence_n4_k3(rng):
    for _ in range(3):
        mrf = random_instance(rng, max_nodes=4, max_labels=3, min_nodes=4)
        enc = encode_pm(mrf)
        L = enc.L.toarray()
        for x in all_labelings(mrf.num_nodes, mrf.num_labels):
            y = labeling_to_pm(x, mrf.num_nodes, mrf.num_labels)
            assert y @ L @ y + enc.offset == pytest.approx(
                energy(mrf, x), abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_energy_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    mrf = random_instance(rng, max_nodes=5, max_labels=4)
    enc = encode_pm(mrf)
    L = enc.L.toarray()
    for x in all_labelings(mrf.num_nodes, mrf.num_labels):
        y = labeling_to_pm(x, mrf.num_nodes, mrf.num_labels)
        assert abs(y @ L @ y + enc.offset - energy(mrf, x)) < 1e-10


def test_labeling_to_pm_single_node():
    assert np.array_equal(labeling_to_pm([0], 1, 2), [1.0, -1.0, 1.0])


@pytest.mark.parametrize("x", [[0.5, 1.7], [0], [0, 2], [0, -1]])
def test_labeling_to_pm_rejects_what_energy_rejects(x):
    with pytest.raises(InvalidInputError):
        labeling_to_pm(x, 2, 2)


def test_block_sums_equal_rhs(rng):
    n, k = 4, 4
    for _ in range(20):
        x = rng.integers(0, k, size=n)
        y = labeling_to_pm(x, n, k)
        blocks = y[:-1].reshape(n, k)
        assert np.all(blocks.sum(axis=1) == 2 - k)
        assert y[-1] == 1.0


def test_round_trip_identity(rng):
    # block i is +1 at label x_i and -1 elsewhere, and the homogenizing entry
    # is +1
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(2, 5))
        x = rng.integers(0, k, size=n)
        y = labeling_to_pm(x, n, k)
        assert np.array_equal(y[:-1].reshape(n, k), 2.0 * np.eye(k)[x] - 1.0)
        assert y[-1] == 1.0


def test_constraint_value_feasible_vector(rng):
    n, k = 3, 4
    enc = encode_pm(MrfInstance(n, k))
    for _ in range(10):
        x = rng.integers(0, k, size=n)
        assert np.all(dual_gradient(enc, labeling_to_pm(x, n, k)[:, None]) == 0)


def test_nnz_audit(rng):
    for _ in range(5):
        mrf = random_instance(rng, min_nodes=2)
        enc = encode_pm(mrf)
        bound = 2 * mrf.num_labels ** 2 * mrf.edge_i.size + 2 * mrf.unary_node.size
        assert enc.L.nnz <= bound
