"""Order statistics and the end-to-end summary of one timed pass."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# op_s_tail is the highest percentile with at least this many samples above it
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """One op as the benchmark saw it.  `failure` is None for a passing op,
    else a one-line reason: a typed error, an invalid output, or a bound the
    oracle refutes."""

    label: str
    seconds: float = 0.0
    check_s: float = 0.0
    failure: str | None = None
    solver: bool = False
    certified: bool = False
    cert_gap_rel: float | None = None
    rounding_gap_pct: float | None = None


def tail(values):
    """(value, percentile, samples_beyond) of the highest percentile of
    `values` that has TAIL_BEYOND samples above it.

    Percentiles use linear ranks, so index j of the n sorted values is the
    100*j/(n-1) percentile.  With n <= TAIL_BEYOND no percentile qualifies;
    the maximum is returned with the number of samples above it, 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    j = n - 1 - TAIL_BEYOND
    return xs[j], 100.0 * j / (n - 1), TAIL_BEYOND


def summarize(outcomes, wall_s):
    """End-to-end metrics of a pass that took wall_s seconds.  ops_per_s
    counts that wall time, garbage collection included, less the time spent
    in the benchmark's own output checks.  Values that do not apply to the
    pass (no solver ops, no certified ops, no exact reference) are None."""
    if not outcomes:
        raise ValueError("a pass needs at least one op")
    seconds = [o.seconds for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    solver = [o for o in outcomes if o.solver]
    certified = [o for o in solver if o.certified]
    gaps = [o.cert_gap_rel for o in certified if o.cert_gap_rel is not None]
    rounding = [o.rounding_gap_pct for o in solver if o.rounding_gap_pct is not None]
    tail_value, tail_pct, beyond = tail(seconds)
    return {
        "op_s_p50": statistics.median(seconds),
        "op_s_tail": tail_value,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_beyond": beyond,
        "ops_per_s": len(outcomes) / (wall_s - sum(o.check_s for o in outcomes)),
        "failed_frac": failed / len(outcomes),
        "passed_frac": 1.0 - failed / len(outcomes),
        "solver_ops": len(solver),
        "certified_frac": len(certified) / len(solver) if solver else None,
        "cert_gap_rel_p50": statistics.median(gaps) if gaps else None,
        "rounding_gap_pct_mean": statistics.fmean(rounding) if rounding else None,
    }
