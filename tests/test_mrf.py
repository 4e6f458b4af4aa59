import copy
import decimal
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfsdp import (
    InvalidInputError,
    KernelWeights,
    MrfInstance,
    energy,
    energy_batch,
    generate_grid_instance,
    grid_edges,
    icm,
    labeling_to_pm,
    unary_argmax_labeling,
)
from mrfsdp.formats import dumps_instance
from mrfsdp.mrf import _kernel_weight, _patch_labeling

from conftest import (
    all_labelings,
    edge_triples,
    make_instance,
    random_instance,
    unary_triples,
)


def energy_double_loop(mrf, x):
    """Independent oracle: literal double loop over terms and labels."""
    total = 0.0
    for u in range(mrf.unary_node.size):
        if x[mrf.unary_node[u]] != mrf.unary_label[u]:
            total = total + float(mrf.unary_weight[u])
    for e in range(mrf.edge_i.size):
        if x[mrf.edge_i[e]] != x[mrf.edge_j[e]]:
            total = total + float(mrf.edge_weight[e])
    return total


def test_energy_empty_instance():
    mrf = MrfInstance(3, 2)
    assert energy(mrf, [0, 1, 0]) == 0.0
    assert energy(mrf, [1, 1, 1]) == 0.0


def test_energy_single_unary_by_cases():
    mrf = make_instance(1, 2, [(0, 0, 1.0)])
    assert energy(mrf, [0]) == 0.0
    assert energy(mrf, [1]) == 1.0


def test_energy_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    slots = [(0, 0), (1, 2), (2, 1), (3, 0), (4, 2), (5, 1), (0, 1), (1, 0)]
    unary = [(node, lab, float(rng.normal())) for node, lab in slots]
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 5)]
    binary = [(i, j, float(rng.normal())) for i, j in pairs]
    mrf = make_instance(6, 3, unary, binary)
    for _ in range(20):
        x = rng.integers(0, 3, size=6)
        assert energy(mrf, x) == pytest.approx(energy_double_loop(mrf, x), abs=1e-14)


def test_energy_term_order_invariance(rng):
    mrf = random_instance(rng, min_nodes=3)
    u = unary_triples(mrf)
    b = edge_triples(mrf)
    rng.shuffle(u)
    rng.shuffle(b)
    shuffled = make_instance(mrf.num_nodes, mrf.num_labels, u, b)
    for _ in range(10):
        x = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
        assert energy(mrf, x) == pytest.approx(energy(shuffled, x), abs=1e-12)


@given(seed=st.integers(0, 1000), perm_seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_relabeling_symmetry(seed, perm_seed):
    rng = np.random.default_rng(seed)
    mrf = random_instance(rng, min_nodes=2)
    k = mrf.num_labels
    perm = np.random.default_rng(perm_seed).permutation(k)
    relabeled = make_instance(
        mrf.num_nodes, k,
        [(node, int(perm[lab]), w) for node, lab, w in unary_triples(mrf)],
        edge_triples(mrf),
    )
    for _ in range(5):
        x = rng.integers(0, k, size=mrf.num_nodes)
        assert energy(mrf, x) == pytest.approx(energy(relabeled, perm[x]), abs=1e-12)


def test_nonnegative_weights_energy_bounds():
    mrf = make_instance(2, 2, [(0, 0, 0.5), (1, 1, 0.25)], [(0, 1, 0.75)])
    for x in all_labelings(2, 2):
        assert energy(mrf, x) >= 0.0
    # all unary terms matched and the edge agrees: impossible here
    mrf2 = make_instance(2, 2, [(0, 0, 0.5), (1, 0, 0.25)], [(0, 1, 0.75)])
    assert energy(mrf2, [0, 0]) == 0.0


def test_energy_batch_matches_scalar(rng):
    mrf = random_instance(rng, min_nodes=3)
    xs = rng.integers(0, mrf.num_labels, size=(12, mrf.num_nodes))
    batch = energy_batch(mrf, xs)
    for row, val in zip(xs, batch):
        assert val == pytest.approx(energy(mrf, row), abs=1e-12)


def _unary(node, label, weight):
    return dict(unary_node=node, unary_label=label, unary_weight=weight)


def _edges(i, j, weight):
    return dict(edge_i=i, edge_j=j, edge_weight=weight)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_nodes=0, num_labels=2),
        dict(num_nodes=2, num_labels=1),
        dict(num_nodes=2, num_labels=2, **_unary([2], [0], [1.0])),
        dict(num_nodes=2, num_labels=2, **_unary([0], [5], [1.0])),
        dict(num_nodes=2, num_labels=2, **_unary([0, 0], [0, 0], [1.0, 2.0])),
        dict(num_nodes=2, num_labels=2, **_unary([0], [0], [math.inf])),
        dict(num_nodes=2, num_labels=2, **_edges([1], [0], [1.0])),
        dict(num_nodes=2, num_labels=2, **_edges([0], [0], [1.0])),
        dict(num_nodes=3, num_labels=2, **_edges([0, 0], [1, 1], [1.0, 2.0])),
        dict(num_nodes=2, num_labels=2, **_edges([0], [1], [math.nan])),
        # index columns must be integer-typed: no truncation of 1.5 to 1,
        # no float or bool index slipping through
        dict(num_nodes=3, num_labels=2, **_unary([1.5], [0], [1.0])),
        dict(num_nodes=3, num_labels=2, **_unary([1.0], [0], [1.0])),
        dict(num_nodes=3, num_labels=2, **_unary([0], [True], [1.0])),
        dict(num_nodes=3, num_labels=2, **_edges([0.0], [1], [1.0])),
        dict(num_nodes=3, num_labels=2, **_edges([0], [np.float64(2)], [1.0])),
        dict(num_nodes=3, num_labels=2, **_edges([False], [1], [1.0])),
        # columns of one kind must have equal lengths
        dict(num_nodes=3, num_labels=2, **_unary([0, 1], [0], [1.0, 1.0])),
        dict(num_nodes=3, num_labels=2, **_unary([0], [0], [1.0, 2.0])),
        dict(num_nodes=3, num_labels=2, **_edges([0, 1], [1, 2], [1.0])),
        dict(num_nodes=3, num_labels=2, **_edges([0], [1, 2], [1.0])),
        # columns are one-dimensional, weights real
        dict(num_nodes=3, num_labels=2, **_edges([[0]], [[1]], [[1.0]])),
        dict(num_nodes=3, num_labels=2, **_unary([0], [0], ["heavy"])),
        # sizes are integers, not bools
        dict(num_nodes=True, num_labels=2),
        dict(num_nodes=3, num_labels=True),
    ],
)
def test_instance_validation_errors(kwargs):
    with pytest.raises(InvalidInputError):
        MrfInstance(**kwargs)


def test_instance_columns_read_only():
    mrf = make_instance(2, 2, [(0, 1, 0.5)], [(0, 1, 0.25)])
    for name in ("unary_node", "unary_label", "unary_weight",
                 "edge_i", "edge_j", "edge_weight"):
        with pytest.raises(ValueError):
            getattr(mrf, name)[0] = 1


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda m: pickle.loads(pickle.dumps(m))])
def test_instance_clones_stay_read_only(clone):
    mrf = generate_grid_instance(2, 3, 3, seed=4)
    twin = clone(mrf)
    assert dumps_instance(twin) == dumps_instance(mrf)
    with pytest.raises(ValueError):
        twin.edge_weight[0] = 0.0


def test_instance_copies_caller_columns():
    node = np.array([0, 1])
    mrf = MrfInstance(2, 2, node, [1, 0], [0.5, 0.25])
    node[0] = 1
    assert mrf.unary_node.tolist() == [0, 1]
    assert node.flags.writeable


def test_unary_argmax_several_terms_per_node():
    mrf = make_instance(4, 3, [
        (0, 1, 0.5), (0, 2, 0.75), (0, 0, 0.25),   # highest weight wins
        (1, 2, 0.5), (1, 0, 0.5), (1, 1, 0.5),     # tie: first stored wins
        (3, 1, -0.5), (3, 2, -0.5),                # negative tie: first
    ])
    assert unary_argmax_labeling(mrf).tolist() == [2, 2, 0, 1]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_unary_argmax_matches_sequential_scan(seed):
    # tie-heavy weights from a small set; oracle is the first-max scan
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    slots = [(i, lab) for i in range(n) for lab in range(k)]
    rng.shuffle(slots)
    slots = slots[:int(rng.integers(0, len(slots) + 1))]
    mrf = make_instance(n, k, [(i, lab, float(rng.choice([-1.0, 0.0, 0.5, 1.0])))
                               for i, lab in slots])
    expected = [0] * n
    best = [-math.inf] * n
    for i, lab, w in unary_triples(mrf):
        if w > best[i]:
            best[i], expected[i] = w, lab
    assert unary_argmax_labeling(mrf).tolist() == expected


def test_labeling_validation_errors():
    mrf = MrfInstance(2, 2)
    with pytest.raises(InvalidInputError):
        energy(mrf, [0])
    with pytest.raises(InvalidInputError):
        energy(mrf, [0, 2])
    with pytest.raises(InvalidInputError):
        energy(mrf, [0, -1])


@pytest.mark.parametrize("x", [np.array([True, False]), [True, False]])
def test_boolean_labeling_rejected(x):
    # as for every count, True is not the label 1
    mrf = generate_grid_instance(1, 2, 2)
    for call in (lambda: energy(mrf, x), lambda: icm(mrf, x),
                 lambda: labeling_to_pm(x, 2, 2)):
        with pytest.raises(InvalidInputError):
            call()


def test_grid_1x1_degenerate():
    inst = generate_grid_instance(1, 1, 4, seed=3)
    assert inst.num_nodes == 1
    assert inst.edge_i.size == 0
    assert inst.unary_node.size == 1


def test_grid_2x2_has_four_edges():
    inst = generate_grid_instance(2, 2, 2, seed=0)
    assert inst.edge_i.size == 4


@given(rows=st.integers(1, 5), cols=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_grid_edge_count_formula(rows, cols):
    edges = grid_edges(rows, cols)
    assert len(edges) == rows * (cols - 1) + cols * (rows - 1)
    assert all(i < j for i, j in edges)


def test_grid_determinism_byte_identical():
    a = generate_grid_instance(4, 4, 3, unary_noise=0.3, seed=7)
    b = generate_grid_instance(4, 4, 3, unary_noise=0.3, seed=7)
    assert dumps_instance(a) == dumps_instance(b)
    c = generate_grid_instance(4, 4, 3, unary_noise=0.3, seed=8)
    assert dumps_instance(a) != dumps_instance(c)


def _patch_labeling_reference(rows, cols, num_labels, rng):
    """The region growing with one rng.integers call per pop, over an
    adjacency built from grid_edges: the draws _patch_labeling replays."""
    n = rows * cols
    labels = np.full(n, -1, dtype=int)
    num_seeds = max(1, n // 8)
    seeds = rng.choice(n, size=num_seeds, replace=False)
    labels[seeds] = rng.integers(0, num_labels, size=num_seeds)
    neighbors = [[] for _ in range(n)]
    for i, j in grid_edges(rows, cols).tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    frontier = list(seeds)
    while frontier:
        k = int(rng.integers(len(frontier)))
        node = frontier.pop(k)
        for nb in neighbors[node]:
            if labels[nb] < 0:
                labels[nb] = labels[node]
                frontier.append(nb)
    return labels


@pytest.mark.parametrize("rows,cols", [
    (1, 1), (1, 2), (2, 1), (1, 7), (9, 1), (2, 2), (3, 4), (25, 40),
    (40, 25), (31, 17), (100, 100)])
@pytest.mark.parametrize("num_labels", [2, 3, 5, 19])
def test_patch_labeling_replays_per_call_draws(rows, cols, num_labels):
    # same labels, and the generator left in the same state, so every later
    # draw of generate_grid_instance is unchanged too
    for seed in range(3 if rows * cols > 1000 else 6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels = _patch_labeling(rows, cols, num_labels, rng)
        ref = _patch_labeling_reference(rows, cols, num_labels, ref_rng)
        assert labels.dtype == ref.dtype
        assert np.array_equal(labels, ref), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


class _ZeroWordAfterSeeds(np.random.Generator):
    """A Generator whose next 32-bit word after the first integers call
    (the seed labels) is 0, through PCG64's one-word buffer.  Word 0 gives
    m mod 2**32 = 0, which numpy's bounded draw rejects for every bound that
    is not a power of two."""

    armed = True

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        if self.armed:
            self.armed = False
            state = self.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            self.bit_generator.state = state
        return out


@pytest.mark.parametrize("rows,cols", [(3, 4), (3, 8), (25, 40)])
def test_patch_labeling_replays_a_rejected_word(rows, cols):
    # per-call draws reject a word about once in 10**6 here, so the seeded
    # cases above never reach the rule's rejection; this start forces one:
    # 3x4 grows from 1 seed (first draw over its 3 or 2 neighbours),
    # 3x8 from 3 seeds, 25x40 from 125
    for seed in range(4):
        rng = _ZeroWordAfterSeeds(np.random.PCG64(seed))
        ref_rng = _ZeroWordAfterSeeds(np.random.PCG64(seed))
        labels = _patch_labeling(rows, cols, 3, rng)
        ref = _patch_labeling_reference(rows, cols, 3, ref_rng)
        assert np.array_equal(labels, ref), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,model,digest", [
    (1, KernelWeights(),
     "e974e3f07a2f50bebdc5b1aea61bcbc833705abda25b3add14576f055fae9ce3"),
    (2, KernelWeights(),
     "9f13c159923d5ba57514ece62589b02e0309e3bff0f15e5edd12323c76c6bed8"),
    (3, KernelWeights(),
     "47b857065b1151dcf749b4fa787248527fcb5442968ced4c65c8b7fd932e0df1"),
], ids=["kernel-1", "kernel-2", "kernel-3"])
def test_grid_instance_golden(seed, model, digest):
    # seeded instances pinned byte for byte: a numpy release that changes
    # Generator.integers, or a slip in the replayed draws, shows here
    inst = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=seed,
                                  binary_weight_model=model)
    assert _sha256(dumps_instance(inst)) == digest


def test_grid_truth_golden():
    _, truth = generate_grid_instance(25, 40, 19, unary_noise=0.3, seed=6,
                                      return_truth=True)
    assert truth.dtype == np.int64
    assert _sha256(json.dumps(truth.tolist())) == (
        "01eb7043f9fb0c082b47eb6658b4237cc5ebb7b4a7e1928f7d331008f4cf5026")


def test_grid_one_unary_per_node_and_truth():
    inst, truth = generate_grid_instance(3, 4, 3, unary_noise=0.0, seed=1,
                                         return_truth=True)
    assert inst.unary_node.size == 12
    assert sorted(inst.unary_node.tolist()) == list(range(12))
    measured = dict(zip(inst.unary_node.tolist(), inst.unary_label.tolist()))
    assert all(measured[i] == truth[i] for i in range(12))


def test_grid_edge_weight_models():
    # the kernel is the one edge model; None stands for its defaults
    ker = generate_grid_instance(2, 3, 2, seed=0,
                                 binary_weight_model=KernelWeights(0.02, 0.04))
    assert all(0.02 <= w <= 0.06 + 1e-12 for w in ker.edge_weight)
    default = generate_grid_instance(2, 3, 2, seed=0)
    assert dumps_instance(default) == dumps_instance(generate_grid_instance(
        2, 3, 2, seed=0, binary_weight_model=KernelWeights()))
    for model in (0.25, (0.1, 0.2), "constant"):
        with pytest.raises(InvalidInputError, match="binary weight model"):
            generate_grid_instance(2, 3, 2, seed=0, binary_weight_model=model)


def test_kernel_weight_equal_features():
    # exponent vanishes, so the weight is the sum of the two coefficients
    assert _kernel_weight(0.0, 0.02, 0.04, 5.0) == pytest.approx(0.06)


def test_kernel_weight_lam2_zero():
    assert _kernel_weight(81.0, 0.7, 0.0, 1.0) == pytest.approx(0.7)


def test_kernel_weight_high_precision_oracle():
    # expected value from decimal arithmetic at 50 digits:
    # 0.02 + 0.04 * exp(-0.000173 * 1000)
    decimal.getcontext().prec = 50
    expected = decimal.Decimal("0.02") + decimal.Decimal("0.04") * (
        -decimal.Decimal("0.000173") * decimal.Decimal(1000)).exp()
    got = _kernel_weight(1000.0, 0.02, 0.04, 0.000173)
    assert got == pytest.approx(float(expected), rel=1e-12)


def test_kernel_weight_errors():
    for beta in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            _kernel_weight(0.0, 0.0, 1.0, beta)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rows=0, cols=2, num_labels=2),
        dict(rows=2, cols=2, num_labels=1),
        dict(rows=2, cols=2, num_labels=2, unary_noise=1.5),
        dict(rows=2, cols=2, num_labels=2, unary_weight_range=(2.0, 1.0)),
        dict(rows=2, cols=2, num_labels=2, unary_weight_range=(0.0, math.inf)),
        # a negative or non-finite kernel bandwidth, with or without edges
        dict(rows=2, cols=2, num_labels=2,
             binary_weight_model=KernelWeights(beta=-5.0)),
        dict(rows=1, cols=1, num_labels=2,
             binary_weight_model=KernelWeights(beta=math.nan)),
        # sizes and the seed are integers, not floats or bools, and the seed
        # is not negative
        dict(rows=2.0, cols=2, num_labels=2),
        dict(rows=2, cols=2, num_labels=2.5),
        dict(rows=True, cols=2, num_labels=2),
        dict(rows=2, cols=2, num_labels=2, seed=-1),
        dict(rows=2, cols=2, num_labels=2, seed=0.5),
    ],
)
def test_generate_errors(kwargs):
    with pytest.raises(InvalidInputError):
        generate_grid_instance(**kwargs)
