"""Exact brute-force MAP oracle and a greedy local-search baseline."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import SizeRefusalError
from .mrf import MrfInstance, _check_count, energy, validate_labeling

DEFAULT_BUDGET = 20_000_000
_MAX_BLOCK_STATES = 1 << 17


@dataclass
class ExactResult:
    labeling: np.ndarray
    f_opt: float
    states_enumerated: int


def _decode_states(start: int, stop: int, num_nodes: int, num_labels: int):
    """Rows are labelings for state indices [start, stop), most significant
    digit = node 0, so enumeration order is lexicographic.  Labels are held
    in the smallest dtype that fits them, which keeps gathers cheap."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, num_nodes), dtype=np.min_scalar_type(num_labels - 1))
    for col in range(num_nodes - 1, -1, -1):
        out[:, col] = idx % num_labels
        idx //= num_labels
    return out


def brute_force(mrf: MrfInstance, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Exhaustive minimization over all K^N labelings.

    Refuses (never silently approximates) when K^N exceeds the budget.
    Nodes split into a high prefix and a low block of at most
    _MAX_BLOCK_STATES states; energies of low-only terms are evaluated once
    and reused across every prefix assignment, with only prefix-crossing
    edges re-evaluated per block.  States are scanned in lexicographic
    order with strict improvement, so ties resolve to the lexicographically
    smallest labeling.  A budget that is not an integer >= 1 is an
    InvalidInputError.
    """
    _check_count(budget, "budget", 1)
    n, k = mrf.num_nodes, mrf.num_labels
    total = k ** n
    if total > budget:
        raise SizeRefusalError(
            f"state space {total} exceeds budget {budget}"
        )
    low_n = 0
    while low_n < n and k ** (low_n + 1) <= _MAX_BLOCK_STATES:
        low_n += 1
    high_n = n - low_n
    low_states = _decode_states(0, k ** low_n, low_n, k)

    un, ul, uw = mrf.unary_node, mrf.unary_label, mrf.unary_weight
    ei, ej, ew = mrf.edge_i, mrf.edge_j, mrf.edge_weight
    low_u, high_u = un >= high_n, un < high_n
    # canonical order i < j puts a crossing edge's i in the prefix
    low_e, high_e, cross_e = ei >= high_n, ej < high_n, (ei < high_n) & (ej >= high_n)
    low_energy = (
        np.einsum("su,u->s", low_states[:, un[low_u] - high_n] != ul[low_u],
                  uw[low_u])
        + np.einsum("se,e->s", low_states[:, ei[low_e] - high_n]
                    != low_states[:, ej[low_e] - high_n], ew[low_e]))
    cross_low = low_states[:, ej[cross_e] - high_n]

    best_f = np.inf
    best_x = None
    for h_idx in range(k ** high_n):
        h = _decode_states(h_idx, h_idx + 1, high_n, k)[0]
        const = ((h[un[high_u]] != ul[high_u]) @ uw[high_u]
                 + (h[ei[high_e]] != h[ej[high_e]]) @ ew[high_e])
        vals = low_energy + np.einsum("se,e->s", cross_low != h[ei[cross_e]],
                                      ew[cross_e])
        pos = int(np.argmin(vals))
        cand = vals[pos] + const
        if cand < best_f:
            best_f = float(cand)
            best_x = np.concatenate([h, low_states[pos]]).astype(np.int64)
    return ExactResult(labeling=best_x, f_opt=best_f, states_enumerated=total)


def _local_tables(mrf: MrfInstance):
    """Per-node unary cost rows and CSR adjacency for coordinate descent:
    node i's neighbours are nbr[ptr[i]:ptr[i + 1]], with weights nbr_w."""
    n, k = mrf.num_nodes, mrf.num_labels
    unary_cost = np.zeros((n, k))
    violated = np.arange(k) != mrf.unary_label[:, None]
    np.add.at(unary_cost, mrf.unary_node, mrf.unary_weight[:, None] * violated)
    ends = np.concatenate([mrf.edge_i, mrf.edge_j])
    order = np.argsort(ends, kind="stable")
    nbr = np.concatenate([mrf.edge_j, mrf.edge_i])[order]
    nbr_w = np.concatenate([mrf.edge_weight, mrf.edge_weight])[order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
    return unary_cost, nbr, nbr_w, ptr


def icm(mrf: MrfInstance, init, max_sweeps: int = 100):
    """Iterated conditional modes: sweep nodes in index order, moving each
    to its locally optimal label; stops at a no-change sweep or after
    max_sweeps sweeps.  Returns (labeling, energy); ties keep the current
    label, so a local optimum is returned unchanged.

    The sweeps visit only the nodes whose local costs may have changed.
    Every node's costs are evaluated once, vectorized, and the nodes that
    would move are queued.  Queued nodes are then visited in cyclic index
    order; a node that moves queues its neighbours, those above it for this
    sweep (a heap) and those below it for the next.  A node left out has
    the costs of its last visit, at which it kept or took their argmin, so
    a full sweep would leave it alone too: the result is the sweep's, move
    for move, with each node's costs summed in the same order.

    max_sweeps must be an integer >= 0, else InvalidInputError.
    """
    _check_count(max_sweeps, "max_sweeps", 0)
    x = validate_labeling(mrf, init).copy()
    unary_cost, nbr, nbr_w, ptr = _local_tables(mrf)
    n, k = mrf.num_nodes, mrf.num_labels
    owner = np.repeat(np.arange(n), np.diff(ptr))
    # a neighbour j disagrees with label l unless x[j] == l
    w_sum = np.bincount(owner, nbr_w, n)
    costs = unary_cost + (w_sum[:, None]
                          - np.bincount(owner * k + x[nbr], nbr_w, n * k).reshape(n, k))
    heap = np.flatnonzero(costs.min(axis=1) < costs[np.arange(n), x]).tolist()
    queued = np.zeros(n, dtype=bool)
    ptr = ptr.tolist()
    for _ in range(max_sweeps):
        queued[heap] = True
        below = set()
        while heap:
            i = heapq.heappop(heap)
            queued[i] = False
            nb = slice(ptr[i], ptr[i + 1])
            nbrs = nbr[nb]
            costs = unary_cost[i] + (w_sum[i] - np.bincount(x[nbrs], nbr_w[nb], k))
            best = int(np.argmin(costs))
            if costs[best] < costs[x[i]]:
                x[i] = best
                for j in nbrs.tolist():
                    if j < i:
                        below.add(j)
                    elif not queued[j]:
                        queued[j] = True
                        heapq.heappush(heap, j)
        if not below:
            break
        heap = sorted(below)
    return x, energy(mrf, x)
