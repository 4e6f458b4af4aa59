"""Suboptimality and accuracy metrics.

Gaps are computed on offset-restored energies (so "within x% of optimal"
statements refer to the discrete objective); the same gaps on the raw
relaxation scale (offset removed from both operands) are reported alongside
for comparison.  Percentages are of |f_opt| (of |f_opt - offset| on the raw
scale), so a positive gap reads positive whatever the optimum's sign.  A
zero optimal energy makes the percentage undefined; the report then carries
null and a note, never a zero-filled value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError


@dataclass
class MetricsReport:
    percent_optimal_labels: float | None = None
    relaxation_gap_pct: float | None = None
    rounding_gap_pct: float | None = None
    relaxation_gap_raw_pct: float | None = None
    rounding_gap_raw_pct: float | None = None
    label_agreement_pct: float | None = None
    wall_times: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_doc(self) -> dict:
        return asdict(self)


def percent_agreement(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InvalidInputError("labelings must have equal length")
    if a.size == 0:
        raise InvalidInputError("empty labelings")
    return 100.0 * float(np.mean(a == b))


def _pct_gap(numerator: float, denominator: float):
    """numerator as a percentage of |denominator|, so a gap keeps its sign
    when the optimum it is measured against is negative."""
    if denominator == 0.0:
        return None
    return 100.0 * numerator / abs(denominator)


def compute_metrics(
    labeling,
    f_rounded: float,
    f_relaxed: float | None = None,
    exact_labeling=None,
    f_opt: float | None = None,
    truth=None,
    offset: float | None = None,
    wall_times: dict | None = None,
) -> MetricsReport:
    report = MetricsReport(wall_times=dict(wall_times or {}))
    if exact_labeling is not None:
        report.percent_optimal_labels = percent_agreement(labeling, exact_labeling)
    if truth is not None:
        report.label_agreement_pct = percent_agreement(labeling, truth)
    if f_opt is not None:
        report.rounding_gap_pct = _pct_gap(f_rounded - f_opt, f_opt)
        if report.rounding_gap_pct is None:
            report.notes.append("rounding gap undefined: optimal energy is 0")
        if f_relaxed is not None:
            report.relaxation_gap_pct = _pct_gap(f_opt - f_relaxed, f_opt)
            if report.relaxation_gap_pct is None:
                report.notes.append("relaxation gap undefined: optimal energy is 0")
        if offset is not None:
            f_opt_raw = f_opt - offset
            report.rounding_gap_raw_pct = _pct_gap(f_rounded - f_opt, f_opt_raw)
            if f_relaxed is not None:
                report.relaxation_gap_raw_pct = _pct_gap(f_opt - f_relaxed, f_opt_raw)
            if f_opt_raw == 0.0:
                report.notes.append("raw-scale gaps undefined: raw optimum is 0")
    return report


def mann_kendall_positive_p(values) -> tuple[int, float]:
    """Exact one-sided Mann-Kendall test for a positive trend.

    Returns (S, p) where S = sum_{i<j} sign(x_j - x_i) and p is the
    probability, under random ordering of the observed values, of S at
    least as large as observed.  Exact enumeration for n <= 8, normal
    approximation beyond.
    """
    x = [float(v) for v in values]
    n = len(x)
    if n < 2:
        raise InvalidInputError("need at least two values")

    def s_stat(seq):
        s = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                s += (seq[j] > seq[i]) - (seq[j] < seq[i])
        return s

    s_obs = s_stat(x)
    if n <= 8:
        count = 0
        total = 0
        for perm in itertools.permutations(x):
            total += 1
            if s_stat(perm) >= s_obs:
                count += 1
        return s_obs, count / total
    # normal approximation with tie correction
    unique, tie_counts = np.unique(x, return_counts=True)
    var = (n * (n - 1) * (2 * n + 5) -
           sum(t * (t - 1) * (2 * t + 5) for t in tie_counts)) / 18.0
    if var == 0:
        return s_obs, 1.0
    z = (s_obs - math.copysign(1, s_obs)) / math.sqrt(var) if s_obs != 0 else 0.0
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return s_obs, p
