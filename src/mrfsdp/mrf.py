"""Potts-model MRF instances: data model, discrete energy, synthetic grids.

An instance holds N nodes, K labels and its terms as six parallel numpy
columns: unary terms (unary_node, unary_label, unary_weight), one per
(node, measured label) pair, and binary Potts terms (edge_i, edge_j,
edge_weight), one per undirected edge with i < j.  The energy of a labeling
x is

    E(x) = sum_u  w_u * [x[node_u] != label_u]
         + sum_e  w_e * [x[i_e] != x[j_e]]

The constructor validates the columns and stores read-only int64/float64
copies, so an instance cannot change after it is built.  Weights may have
any sign; nothing here assumes attractive potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError


_INDEX_COLUMNS = ("unary_node", "unary_label", "edge_i", "edge_j")
_WEIGHT_COLUMNS = ("unary_weight", "edge_weight")


def _column(value, name, dtype):
    """Read-only 1-D copy of a column.  Index columns must hold integers and
    weight columns real numbers; an empty column may have any dtype."""
    a = np.asarray(value)
    if a.ndim != 1:
        raise InvalidInputError(f"{name} must be one-dimensional")
    kinds, what = ("iu", "integers") if dtype is np.int64 else ("iuf", "real numbers")
    if a.size and a.dtype.kind not in kinds:
        raise InvalidInputError(f"{name} must hold {what}, not {a.dtype}")
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _check_range(a, limit, what):
    bad = (a < 0) | (a >= limit)
    if bad.any():
        raise InvalidInputError(f"{what} {a[bad.argmax()]} out of range")


def _first_duplicate(keys):
    s = np.sort(keys)
    dup = s[1:] == s[:-1]
    return int(s[dup.argmax()]) if dup.any() else None


def _is_size(v) -> bool:
    """An int or numpy integer, not a bool (isinstance(True, int) holds)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_count(value, what: str, minimum: int):
    """value if it is an integer (_is_size) of at least minimum, else an
    InvalidInputError naming what it is."""
    if not _is_size(value) or value < minimum:
        raise InvalidInputError(
            f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _seeded_rng(seed) -> np.random.Generator:
    """default_rng(seed) for a seed that is an integer >= 0 (_check_count)."""
    return np.random.default_rng(_check_count(seed, "seed", 0))


@dataclass(frozen=True, eq=False)
class MrfInstance:
    """Immutable MRF instance over validated, read-only term columns."""

    num_nodes: int
    num_labels: int
    unary_node: np.ndarray = ()
    unary_label: np.ndarray = ()
    unary_weight: np.ndarray = ()
    edge_i: np.ndarray = ()
    edge_j: np.ndarray = ()
    edge_weight: np.ndarray = ()

    def __post_init__(self):
        if not _is_size(self.num_nodes) or self.num_nodes < 1:
            raise InvalidInputError("num_nodes must be a positive integer")
        if not _is_size(self.num_labels) or self.num_labels < 2:
            raise InvalidInputError("num_labels must be an integer >= 2")
        for names, dtype in ((_INDEX_COLUMNS, np.int64), (_WEIGHT_COLUMNS, np.float64)):
            for name in names:
                object.__setattr__(self, name, _column(getattr(self, name), name, dtype))
        n, k = self.num_nodes, self.num_labels
        un, ul, uw = self.unary_node, self.unary_label, self.unary_weight
        ei, ej, ew = self.edge_i, self.edge_j, self.edge_weight
        if not un.size == ul.size == uw.size:
            raise InvalidInputError("unary columns must have equal lengths")
        if not ei.size == ej.size == ew.size:
            raise InvalidInputError("edge columns must have equal lengths")
        _check_range(un, n, "unary node")
        _check_range(ul, k, "unary label")
        _check_range(ei, n, "edge node")
        _check_range(ej, n, "edge node")
        if not (np.isfinite(uw).all() and np.isfinite(ew).all()):
            raise InvalidInputError("weights must be finite")
        if np.any(ei >= ej):
            raise InvalidInputError("edges must satisfy the canonical order i < j")
        key = _first_duplicate(un * k + ul)
        if key is not None:
            raise InvalidInputError(f"duplicate unary term for {divmod(key, k)}")
        key = _first_duplicate(ei * n + ej)
        if key is not None:
            raise InvalidInputError(f"duplicate edge {divmod(key, n)}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since a pickled
        # numpy array comes back writeable
        return MrfInstance, tuple(getattr(self, f.name) for f in fields(self))


def _check_labeling(labeling, num_nodes: int, num_labels: int) -> np.ndarray:
    """Coerce to an int array and check length, integrality and label range."""
    x = np.asarray(labeling)
    if x.ndim != 1 or x.shape[0] != num_nodes:
        raise InvalidInputError(
            f"labeling has length {x.shape}, expected ({num_nodes},)"
        )
    if x.dtype == bool:
        raise InvalidInputError("labeling entries must be integers, not bools")
    if not np.issubdtype(x.dtype, np.integer):
        xr = np.rint(np.asarray(labeling, dtype=float)).astype(int)
        if not np.array_equal(xr, np.asarray(labeling, dtype=float)):
            raise InvalidInputError("labeling entries must be integers")
        x = xr
    if x.size and (x.min() < 0 or x.max() >= num_labels):
        raise InvalidInputError("labeling entry out of [0, K)")
    return x.astype(int)


def validate_labeling(mrf: MrfInstance, labeling) -> np.ndarray:
    """Coerce to an int array and check it is a labeling of mrf."""
    return _check_labeling(labeling, mrf.num_nodes, mrf.num_labels)


def energy(mrf: MrfInstance, labeling) -> float:
    """Discrete energy of a labeling (sum of violated unary/binary terms)."""
    x = validate_labeling(mrf, labeling)
    return float(energy_batch(mrf, x[None, :])[0])


def energy_batch(mrf: MrfInstance, labelings: np.ndarray) -> np.ndarray:
    """Energies of a (m, N) batch of labelings, vectorized over rows."""
    x = np.asarray(labelings)
    # einsum casts the violation masks to float in buffered chunks, where
    # `@` would first copy each whole mask to float64 (~8x slower)
    return (np.einsum("su,u->s", x[:, mrf.unary_node] != mrf.unary_label,
                      mrf.unary_weight)
            + np.einsum("se,e->s", x[:, mrf.edge_i] != x[:, mrf.edge_j],
                        mrf.edge_weight))


def unary_argmax_labeling(mrf: MrfInstance) -> np.ndarray:
    """Measured label of the largest-weight unary term per node (0 if none);
    among equal weights the term stored first wins."""
    # sorted by node, then weight descending, then storage position
    order = np.lexsort((np.arange(mrf.unary_node.size), -mrf.unary_weight,
                        mrf.unary_node))
    nodes = mrf.unary_node[order]
    first = np.ones(nodes.size, dtype=bool)
    first[1:] = nodes[1:] != nodes[:-1]
    labels = np.zeros(mrf.num_nodes, dtype=int)
    labels[nodes[first]] = mrf.unary_label[order][first]
    return labels


def _kernel_weight(d2, lam1: float, lam2: float, beta: float):
    """Gaussian-kernel edge weight lam1 + lam2 * exp(-beta * d2) of a squared
    feature distance d2 (a number or an array of them)."""
    if not (math.isfinite(beta) and beta >= 0):
        raise InvalidInputError("beta must be finite and >= 0")
    return lam1 + lam2 * np.exp(-beta * d2)


# --- synthetic grid generation ------------------------------------------

@dataclass(frozen=True)
class KernelWeights:
    """Edge weights from synthetic node features via the Gaussian kernel.

    Features are noisy one-hot embeddings of the ground-truth labels; with
    beta=None the bandwidth is set to 1 / (2 * mean squared edge distance).
    A given beta must be finite and >= 0.
    """

    lam1: float = 0.02
    lam2: float = 0.04
    beta: float | None = None
    feature_noise: float = 0.3


def grid_edges(rows: int, cols: int) -> np.ndarray:
    """4-connected grid edges as an (m, 2) array of (i, j), i < j, with node
    index r * cols + c; ordered by i, each node's right edge first."""
    i = np.arange(rows * cols)
    pairs = np.stack([np.stack([i, i + 1], axis=1),
                      np.stack([i, i + cols], axis=1)], axis=1)
    exists = np.stack([i % cols + 1 < cols, i // cols + 1 < rows], axis=1)
    return pairs[exists]


# the bounded draws of _patch_labeling are replayed from 32-bit words
_WORD = 1 << 32
_WORD_MASK = _WORD - 1


def _patch_labeling(rows, cols, num_labels, rng):
    """Smooth ground truth by multi-source region growing from random seeds.

    Each step pops the frontier node at index rng.integers(len(frontier))
    and gives its unlabeled neighbours (up, left, right, down) its label,
    appending them to the frontier.  The indices are not drawn one call at a
    time: they are replayed from blocks of raw 32-bit words, by the rule
    numpy's Generator.integers applies to them (Lemire's bounded-integer
    method): for h >= 2, m = word * h, a word is rejected while
    m mod 2**32 < (2**32 - h) mod h, and the index is m >> 32; for h == 1 no
    word is drawn.  A block holds len(frontier) - 1 words.  The next
    len(frontier) - 1 pops all see a frontier of at least 2, and each takes
    at least one word, so a block never holds a word that the per-call draws
    would not have taken: the labels and the generator's state afterwards
    are those of the per-call loop.  test_mrf.py checks both against that
    loop (test_patch_labeling_replays_per_call_draws, and
    test_patch_labeling_replays_a_rejected_word for the rejection) and pins
    digests of seeded instances (test_grid_instance_golden).
    """
    n = rows * cols
    labels = [-1] * n
    num_seeds = max(1, n // 8)
    seeds = rng.choice(n, size=num_seeds, replace=False)
    for node, label in zip(seeds.tolist(),
                           rng.integers(0, num_labels, size=num_seeds).tolist()):
        labels[node] = label
    frontier = seeds.tolist()
    words = iter(())
    last = cols - 1
    while frontier:
        h = len(frontier)
        k = 0
        if h > 1:
            while True:
                word = next(words, None)
                if word is None:
                    words = iter(rng.integers(0, _WORD, size=h - 1,
                                              dtype=np.uint32).tolist())
                    word = next(words)
                m = word * h
                low = m & _WORD_MASK
                # (2**32 - h) % h < h, so it is computed only for low < h
                if low >= h or low >= (_WORD - h) % h:
                    break
            k = m >> 32
        node = frontier.pop(k)
        label = labels[node]
        c = node % cols
        if node >= cols and labels[node - cols] < 0:
            labels[node - cols] = label
            frontier.append(node - cols)
        if c > 0 and labels[node - 1] < 0:
            labels[node - 1] = label
            frontier.append(node - 1)
        if c < last and labels[node + 1] < 0:
            labels[node + 1] = label
            frontier.append(node + 1)
        if node + cols < n and labels[node + cols] < 0:
            labels[node + cols] = label
            frontier.append(node + cols)
    return np.array(labels, dtype=int)


def generate_grid_instance(
    rows: int,
    cols: int,
    num_labels: int,
    unary_noise: float = 0.2,
    unary_weight_range=(0.2, 1.0),
    binary_weight_model=None,
    seed: int = 0,
    return_truth: bool = False,
):
    """Random 4-connected grid instance, deterministic for a fixed seed.

    A smooth ground-truth labeling is sampled; each node gets one unary term
    whose measured label equals the truth with probability 1 - unary_noise
    (uniform wrong label otherwise).  Edge weights come from
    binary_weight_model, a KernelWeights (KernelWeights() when None).
    """
    _check_count(rows, "rows", 1)
    _check_count(cols, "cols", 1)
    _check_count(num_labels, "num_labels", 2)
    if not (0.0 <= unary_noise <= 1.0):
        raise InvalidInputError("unary_noise must be a probability in [0, 1]")
    lo, hi = float(unary_weight_range[0]), float(unary_weight_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise InvalidInputError("unary_weight_range must be a finite (lo, hi) with lo <= hi")
    model = KernelWeights() if binary_weight_model is None else binary_weight_model
    if not isinstance(model, KernelWeights):
        raise InvalidInputError(f"unknown binary weight model {model!r}")

    rng = _seeded_rng(seed)
    n = rows * cols
    k = num_labels
    truth = _patch_labeling(rows, cols, k, rng)
    edges = grid_edges(rows, cols)

    measured = truth.copy()
    flip = rng.random(n) < unary_noise
    # uniform over the K-1 wrong labels
    offsets = rng.integers(1, k, size=n)
    measured[flip] = (truth[flip] + offsets[flip]) % k
    weights = rng.uniform(lo, hi, size=n)

    feats = np.eye(k)[truth] + model.feature_noise * rng.standard_normal((n, k))
    d2 = np.sum((feats[edges[:, 0]] - feats[edges[:, 1]]) ** 2, axis=1)
    beta = model.beta
    if beta is None:
        mean_d2 = float(d2.mean()) if d2.size else 0.0
        beta = 0.0 if mean_d2 == 0.0 else 1.0 / (2.0 * mean_d2)
    ew = _kernel_weight(d2, model.lam1, model.lam2, beta)

    inst = MrfInstance(n, k, np.arange(n), measured, weights,
                       edges[:, 0], edges[:, 1], ew)
    if return_truth:
        return inst, truth
    return inst
