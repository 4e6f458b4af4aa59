import itertools

import numpy as np
import pytest

from mrfsdp import (
    InvalidInputError,
    MrfInstance,
    SizeRefusalError,
    brute_force,
    energy,
    fuses_solve,
    generate_grid_instance,
    icm,
    unary_argmax_labeling,
)
from mrfsdp.baselines import _local_tables
from mrfsdp.mrf import validate_labeling

from conftest import make_instance, random_instance


def test_single_node_single_unary():
    inst = make_instance(1, 3, [(0, 2, 1.0)])
    res = brute_force(inst)
    assert np.array_equal(res.labeling, [2])
    assert res.f_opt == 0.0
    assert res.states_enumerated == 3


def test_empty_instance_lexicographic_tie_break():
    res = brute_force(MrfInstance(3, 2))
    assert res.f_opt == 0.0
    assert np.array_equal(res.labeling, [0, 0, 0])
    assert res.states_enumerated == 8


def test_hand_enumerated_2x2_grid():
    # attractive couplings with one contrarian unary term; the oracle here is
    # a literal scan of all 16 states
    inst = make_instance(
        4, 2,
        [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 1, 0.5)],
        [(0, 1, 2.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 2.0)],
    )
    best, best_x = None, None
    for x in itertools.product(range(2), repeat=4):
        e = energy(inst, np.array(x))
        if best is None or e < best:
            best, best_x = e, x
    res = brute_force(inst)
    assert res.f_opt == pytest.approx(best)
    assert tuple(res.labeling) == best_x


def test_budget_refusal():
    inst = MrfInstance(30, 3)
    with pytest.raises(SizeRefusalError):
        brute_force(inst)
    # small budgets refuse small instances too
    with pytest.raises(SizeRefusalError):
        brute_force(MrfInstance(3, 3), budget=26)


@pytest.mark.parametrize("call", [
    lambda mrf: icm(mrf, np.zeros(3, dtype=int), max_sweeps=-1),
    lambda mrf: icm(mrf, np.zeros(3, dtype=int), max_sweeps=2.5),
    lambda mrf: icm(mrf, np.zeros(3, dtype=int), max_sweeps="3"),
    lambda mrf: icm(mrf, np.zeros(3, dtype=int), max_sweeps=True),
    lambda mrf: brute_force(mrf, budget="big"),
    lambda mrf: brute_force(mrf, budget=0),
    lambda mrf: brute_force(mrf, budget=10.0),
], ids=["icm-negative", "icm-float", "icm-string", "icm-bool",
        "budget-string", "budget-zero", "budget-float"])
def test_counts_are_checked(call):
    # an integer in the mrf._is_size sense: max_sweeps >= 0, budget >= 1
    with pytest.raises(InvalidInputError, match="must be an integer >= "):
        call(make_instance(3, 2, [(0, 1, 1.0)], [(0, 1, 1.0), (1, 2, 1.0)]))


def test_counts_at_their_minimum_run():
    mrf = make_instance(3, 2, [(0, 1, 1.0)], [(0, 1, 1.0), (1, 2, 1.0)])
    start = np.zeros(3, dtype=int)
    out, _ = icm(mrf, start, max_sweeps=np.int64(0))
    assert np.array_equal(out, start)
    with pytest.raises(SizeRefusalError):
        brute_force(mrf, budget=1)


def test_brute_force_matches_direct_scan(rng):
    # cross-check the block-decomposed enumeration against plain evaluation
    for _ in range(8):
        mrf = random_instance(rng, max_nodes=5, max_labels=3, min_nodes=2)
        res = brute_force(mrf)
        energies = {
            x: energy(mrf, np.array(x))
            for x in itertools.product(range(mrf.num_labels),
                                       repeat=mrf.num_nodes)
        }
        best = min(energies.values())
        assert res.f_opt == pytest.approx(best, abs=1e-12)
        assert energies[tuple(res.labeling)] == pytest.approx(best, abs=1e-12)
        # lexicographic tie-break
        winners = sorted(x for x, e in energies.items()
                         if abs(e - best) < 1e-15)
        assert tuple(res.labeling) == winners[0]


def test_icm_fixed_point_returned_unchanged():
    inst = generate_grid_instance(3, 3, 2, unary_noise=0.2, seed=0)
    opt = brute_force(inst).labeling
    out, f = icm(inst, opt)
    assert np.array_equal(out, opt)
    assert f == pytest.approx(energy(inst, opt))


def test_icm_unary_only_one_sweep():
    unary = [(i, (i + 1) % 4, 1.0) for i in range(6)]
    inst = make_instance(6, 4, unary)
    out, f = icm(inst, np.zeros(6, dtype=int), max_sweeps=1)
    assert np.array_equal(out, [lab for _, lab, _ in unary])
    assert f == 0.0


def test_icm_monotone_on_random_instances(rng):
    for _ in range(100):
        mrf = random_instance(rng, max_nodes=6, max_labels=4, min_nodes=2)
        init = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
        out, f = icm(mrf, init)
        assert f <= energy(mrf, init) + 1e-12
        assert f == pytest.approx(energy(mrf, out))


def icm_reference(mrf, init, max_sweeps=100):
    """Independent oracle: each node in index order takes the label of least
    energy with every other node fixed, moving only on strict improvement."""
    x = np.array(init)
    for _ in range(max_sweeps):
        changed = False
        for i in range(mrf.num_nodes):
            trials = np.repeat(x[None, :], mrf.num_labels, axis=0)
            trials[:, i] = np.arange(mrf.num_labels)
            costs = [energy(mrf, t) for t in trials]
            best = int(np.argmin(costs))
            if costs[best] < costs[x[i]] - 1e-12:
                x[i] = best
                changed = True
        if not changed:
            break
    return x


def test_icm_matches_sequential_reference(rng):
    for _ in range(40):
        mrf = random_instance(rng, max_nodes=6, max_labels=4, min_nodes=2)
        init = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
        out, _ = icm(mrf, init)
        assert np.array_equal(out, icm_reference(mrf, init))


def icm_sweep_reference(mrf, init, max_sweeps=100):
    """The plain sweep icm implements: every node, in index order, every
    sweep, with the per-node sum of neighbour weights taken by w.sum()."""
    x = validate_labeling(mrf, init).copy()
    unary_cost, nbr, nbr_w, ptr = _local_tables(mrf)
    k = mrf.num_labels
    for _ in range(max_sweeps):
        changed = False
        for i in range(mrf.num_nodes):
            nb = slice(ptr[i], ptr[i + 1])
            w = nbr_w[nb]
            # a neighbour j disagrees with label l unless x[j] == l
            costs = unary_cost[i] + (w.sum() - np.bincount(x[nbr[nb]], w, k))
            best = int(np.argmin(costs))
            if costs[best] < costs[x[i]]:
                x[i] = best
                changed = True
        if not changed:
            break
    return x, energy(mrf, x)


def _assert_icm_is_the_sweep(mrf, init):
    # the caps stop mid-descent, where a wrong count of sweeps shows
    for max_sweeps in (1, 2, 3, 100):
        out, f = icm(mrf, init, max_sweeps=max_sweeps)
        ref, f_ref = icm_sweep_reference(mrf, init, max_sweeps=max_sweeps)
        assert np.array_equal(out, ref), max_sweeps
        assert f == f_ref, max_sweeps


def test_icm_worklist_equals_the_sweep_on_random_instances(rng):
    # mixed-sign weights; degree < 8 keeps w.sum() a sequential sum, so the
    # costs agree bit for bit
    for _ in range(300):
        mrf = random_instance(rng, max_nodes=8, max_labels=4, min_nodes=1)
        _assert_icm_is_the_sweep(
            mrf, rng.integers(0, mrf.num_labels, size=mrf.num_nodes))


@pytest.mark.parametrize("rows, cols, k", [(25, 40, 19), (100, 100, 5)])
def test_icm_worklist_equals_the_sweep_on_grids(rows, cols, k, rng):
    inst = generate_grid_instance(rows, cols, k, unary_noise=0.3, seed=4)
    _assert_icm_is_the_sweep(inst, unary_argmax_labeling(inst))
    _assert_icm_is_the_sweep(inst, rng.integers(0, k, size=inst.num_nodes))


def test_icm_output_is_one_flip_local_optimum(rng):
    for _ in range(10):
        mrf = random_instance(rng, max_nodes=5, max_labels=3, min_nodes=2)
        init = rng.integers(0, mrf.num_labels, size=mrf.num_nodes)
        out, f = icm(mrf, init)
        for i in range(mrf.num_nodes):
            for lab in range(mrf.num_labels):
                trial = out.copy()
                trial[i] = lab
                assert energy(mrf, trial) >= f - 1e-12


def test_brute_force_lower_bounds_other_solvers():
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.35, seed=13)
    exact = brute_force(inst)
    fus = fuses_solve(inst, seed=13)
    assert exact.f_opt <= fus.f_rounded + 1e-12
    _, f_icm = icm(inst, unary_argmax_labeling(inst))
    assert exact.f_opt <= f_icm + 1e-12
