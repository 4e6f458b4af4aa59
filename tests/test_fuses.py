import logging

import numpy as np
import pytest

from mrfsdp import (
    InvalidInputError,
    brute_force,
    dars_solve,
    fuses_round,
    fuses_solve,
    generate_grid_instance,
    labeling_to_zo,
)

from conftest import (
    edge_triples,
    make_instance,
    nth_random_instance,
    unary_triples,
)


def test_unary_only_recovers_measured_labels():
    unary = [(i, (i + 1) % 3, 0.5 + 0.2 * i) for i in range(5)]
    inst = make_instance(5, 3, unary)
    res = fuses_solve(inst, seed=0)
    assert res.certified
    assert np.array_equal(res.labeling, [lab for _, lab, _ in unary])
    assert res.f_rounded == 0.0
    # the relaxation is tight here (optimum 0); the solver lands near it at
    # its refined gradient target, within the certification budget 1e-5
    assert abs(res.f_relaxed) <= 1e-5


def test_relaxed_value_matches_independent_sdp_oracle():
    # the dual-ascent module's TEST_INSTANCE and its binary-matrix relaxation
    # optimum, computed offline by scripts/standard_sdp_oracle.py
    from test_dars import ORACLE_ZO_RELAXED_OPTIMUM as oracle, TEST_INSTANCE

    res = fuses_solve(TEST_INSTANCE, seed=0)
    assert res.certified
    assert abs(res.f_relaxed - oracle) <= 0.005 * abs(oracle)


def test_certified_bounds_against_brute_force():
    for seed in range(5):
        inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=seed)
        res = fuses_solve(inst, seed=seed)
        assert res.certified
        exact = brute_force(inst)
        # lower bound up to the certification budget 1e-5 max(1, |f|), the
        # gap a certified point may leave above the relaxation optimum
        assert res.f_relaxed <= exact.f_opt + 1e-5 * (1.0 + abs(exact.f_opt))
        assert res.f_rounded >= exact.f_opt - 1e-12
        assert res.f_rounded - exact.f_opt <= res.subopt_bound + 1e-9


def test_frustrated_complete_graph_bounds():
    # repulsive complete graph: all-different labels are impossible for
    # N > K, the relaxation gap is genuinely large, and the certified lower
    # bound must still hold
    import itertools

    edges = [(i, j, -0.5) for i, j in itertools.combinations(range(5), 2)]
    unary = [(i, i % 2, 0.1) for i in range(5)]
    inst = make_instance(5, 2, unary, edges)
    exact = brute_force(inst)
    res = fuses_solve(inst, seed=1)
    assert res.certified
    assert res.f_relaxed <= exact.f_opt + 1e-5 * (1.0 + abs(exact.f_opt))
    assert res.f_rounded >= exact.f_opt - 1e-12
    assert res.subopt_bound >= res.f_rounded - exact.f_opt - 1e-9


def test_certified_bounds_with_repulsive_weights(rng):
    # weights of any sign are in-contract; certificates must hold regardless
    from conftest import random_instance

    for t in range(10):
        inst = random_instance(rng, max_nodes=5, max_labels=3, min_nodes=2)
        res = fuses_solve(inst, seed=t)
        exact = brute_force(inst)
        if res.certified:
            assert res.f_relaxed <= exact.f_opt + 1e-5 * (1.0 + abs(exact.f_opt))
        assert res.f_rounded >= exact.f_opt - 1e-12


def test_round_exact_lift_round_trip(rng):
    n, k = 6, 3
    x = rng.integers(0, k, size=n)
    X = labeling_to_zo(x, n, k)
    V = np.vstack([X, np.eye(k)])
    R = np.hstack([V, np.zeros((n + k, 1))])
    assert np.array_equal(fuses_round(R, n, k), x)


def test_round_tie_break_lowest_label():
    # constant rows give ties everywhere; argmax must pick label 0
    n, k = 3, 3
    R = np.zeros((n + k, k))
    R[:n, :] = 1.0 / np.sqrt(k)
    R[n:, :] = np.eye(k)
    assert np.array_equal(fuses_round(R, n, k), np.zeros(n, dtype=int))


def test_determinism_same_seed():
    inst = generate_grid_instance(3, 4, 3, unary_noise=0.25, seed=9)
    a = fuses_solve(inst, seed=5)
    b = fuses_solve(inst, seed=5)
    assert np.array_equal(a.labeling, b.labeling)
    assert a.f_relaxed == b.f_relaxed
    assert a.f_rounded == b.f_rounded
    assert a.rank_history == b.rank_history


def test_initial_rank_is_labels():
    for k in (2, 3, 4):
        inst = generate_grid_instance(2, 2, k, unary_noise=0.3, seed=1)
        for init in ("random", "unary"):
            res = fuses_solve(inst, seed=1, init=init)
            assert res.rank_history[0][0] == k


@pytest.mark.parametrize("draw", [80, 275])
def test_lower_bound_does_not_round_above_the_optimum(draw):
    # tight instances (f_opt = 0) whose bound, summed plainly, lands one ulp
    # above the optimum
    inst = nth_random_instance(7, draw, max_nodes=6, max_labels=4)
    res = fuses_solve(inst, seed=draw)
    assert res.lower_bound <= brute_force(inst).f_opt


def test_unary_warm_start_mode():
    inst = generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=4)
    cold = fuses_solve(inst, seed=4, init="random")
    warm = fuses_solve(inst, seed=4, init="unary")
    assert warm.certified
    assert warm.f_relaxed == pytest.approx(cold.f_relaxed, abs=1e-5)
    again = fuses_solve(inst, seed=4, init="unary")
    assert np.array_equal(warm.labeling, again.labeling)
    assert warm.f_relaxed == again.f_relaxed


def test_result_invariants():
    inst = generate_grid_instance(3, 3, 2, unary_noise=0.35, seed=6)
    res = fuses_solve(inst, seed=6)
    assert res.certified
    assert res.f_rounded >= res.f_relaxed - 1e-9
    assert res.subopt_bound == res.f_rounded - res.lower_bound
    assert res.lower_bound <= res.f_relaxed
    assert np.isfinite(res.min_eig)
    assert res.timings["total_s"] >= 0.0


def _scaled(inst, c):
    return make_instance(
        inst.num_nodes, inst.num_labels,
        [(node, lab, c * w) for node, lab, w in unary_triples(inst)],
        [(i, j, c * w) for i, j, w in edge_triples(inst)],
    )


def _assert_bound_holds(inst, res):
    # the claimed lower bound must hold certified or not
    f_opt = brute_force(inst).f_opt
    assert res.f_rounded - res.subopt_bound <= f_opt + 1e-9 * (1.0 + abs(f_opt))


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_scaled_weights_keep_a_true_bound(scale):
    # at scale 1e-3 this instance once started below the absolute gradient
    # tolerance and was certified with f_relaxed > f_opt
    inst = _scaled(generate_grid_instance(3, 3, 3, unary_noise=0.3, seed=0),
                   scale)
    res = fuses_solve(inst, seed=0)
    assert res.certified
    assert res.f_relaxed <= brute_force(inst).f_opt
    _assert_bound_holds(inst, res)


def test_mixed_sign_bounds_hold_at_any_scale():
    from conftest import random_instance

    rng = np.random.default_rng(7)
    for t in range(6):
        base = random_instance(rng, max_nodes=4, max_labels=3, min_nodes=2)
        for scale in (1e-3, 1.0, 1e3):
            inst = _scaled(base, scale)
            _assert_bound_holds(inst, fuses_solve(inst, seed=t))


def test_progress_follows_logger_level(caplog):
    inst = generate_grid_instance(2, 2, 2, unary_noise=0.3, seed=1)
    with caplog.at_level(logging.INFO, logger="mrfsdp.staircase"):
        fuses_solve(inst, seed=0)
    assert any(r.getMessage().startswith("staircase step=")
               for r in caplog.records)


@pytest.mark.parametrize("solve", [fuses_solve, dars_solve])
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_must_be_a_non_negative_integer(solve, seed):
    inst = generate_grid_instance(2, 2, 2, unary_noise=0.3, seed=1)
    with pytest.raises(InvalidInputError, match="seed"):
        solve(inst, seed=seed)
