import pytest

from mrfsdp import (
    InvalidInputError,
    compute_metrics,
    fuses_solve,
    generate_grid_instance,
    mann_kendall_positive_p,
)
from mrfsdp.baselines import brute_force
from mrfsdp.metrics import percent_agreement


def test_self_comparison_is_exact():
    report = compute_metrics(
        labeling=[0, 1, 2],
        f_rounded=2.0,
        f_relaxed=1.5,
        exact_labeling=[0, 1, 2],
        f_opt=2.0,
        offset=10.0,
    )
    assert report.percent_optimal_labels == 100.0
    assert report.rounding_gap_pct == 0.0
    assert report.relaxation_gap_pct == pytest.approx(25.0)


def test_tight_relaxation_zero_gap():
    report = compute_metrics(labeling=[0], f_rounded=3.0, f_relaxed=2.0,
                             f_opt=2.0)
    assert report.relaxation_gap_pct == 0.0
    assert report.rounding_gap_pct == pytest.approx(50.0)


def test_gap_arithmetic():
    # hand-computed: f_opt=4, f_rounded=5, f_relaxed=3 -> 25% both
    report = compute_metrics(labeling=[1], f_rounded=5.0, f_relaxed=3.0,
                             f_opt=4.0, offset=2.0)
    assert report.rounding_gap_pct == pytest.approx(25.0)
    assert report.relaxation_gap_pct == pytest.approx(25.0)
    # raw scale divides by (f_opt - offset) = 2
    assert report.rounding_gap_raw_pct == pytest.approx(50.0)
    assert report.relaxation_gap_raw_pct == pytest.approx(50.0)


def test_gaps_keep_their_sign_when_optimum_negative():
    # f_opt=-4, f_rounded=-3, f_relaxed=-5: both gaps are 1 above zero
    report = compute_metrics(labeling=[1], f_rounded=-3.0, f_relaxed=-5.0,
                             f_opt=-4.0, offset=-2.0)
    assert report.rounding_gap_pct == pytest.approx(25.0)
    assert report.relaxation_gap_pct == pytest.approx(25.0)
    # raw optimum f_opt - offset = -2
    assert report.rounding_gap_raw_pct == pytest.approx(50.0)
    assert report.relaxation_gap_raw_pct == pytest.approx(50.0)


def test_raw_scale_gaps_of_a_fuses_run():
    # 3x4 K=3 seed 1: the relaxation is below f_opt = f_rounded, and the raw
    # optimum f_opt - offset is negative
    inst = generate_grid_instance(3, 4, 3, unary_noise=0.3, seed=1)
    res = fuses_solve(inst, seed=0)
    exact = brute_force(inst)
    report = compute_metrics(res.labeling, res.f_rounded, res.f_relaxed,
                             exact.labeling, exact.f_opt, offset=res.offset)
    f_opt_raw = exact.f_opt - res.offset
    assert f_opt_raw < 0.0 < exact.f_opt - res.f_relaxed
    assert report.relaxation_gap_raw_pct > 0.0
    assert report.relaxation_gap_raw_pct == pytest.approx(
        report.relaxation_gap_pct * exact.f_opt / abs(f_opt_raw))
    assert report.rounding_gap_raw_pct == report.rounding_gap_pct == 0.0


def test_zero_optimum_yields_null_not_zero():
    report = compute_metrics(labeling=[0], f_rounded=1.0, f_relaxed=-1.0,
                             f_opt=0.0)
    assert report.rounding_gap_pct is None
    assert report.relaxation_gap_pct is None
    assert any("undefined" in note for note in report.notes)
    doc = report.to_doc()
    assert doc["rounding_gap_pct"] is None


def test_label_agreement():
    report = compute_metrics(labeling=[0, 1, 1, 0], f_rounded=1.0,
                             truth=[0, 1, 0, 0])
    assert report.label_agreement_pct == pytest.approx(75.0)


def test_agreement_validation():
    with pytest.raises(InvalidInputError):
        percent_agreement([0, 1], [0, 1, 2])
    with pytest.raises(InvalidInputError):
        percent_agreement([], [])


def test_mann_kendall_three_points_never_significant():
    s, p = mann_kendall_positive_p([1.0, 2.0, 3.0])
    assert s == 3
    assert p == pytest.approx(1.0 / 6.0)
    s, p = mann_kendall_positive_p([3.0, 2.0, 1.0])
    assert s == -3
    assert p == 1.0


def test_mann_kendall_monotone_five_points():
    s, p = mann_kendall_positive_p([1, 2, 3, 4, 5])
    assert s == 10
    assert p == pytest.approx(1.0 / 120.0)


def test_mann_kendall_large_n_normal_approximation():
    xs = list(range(20))
    s, p = mann_kendall_positive_p(xs)
    assert s == 190
    assert p < 1e-4
    s2, p2 = mann_kendall_positive_p(xs[::-1])
    assert p2 > 0.999
