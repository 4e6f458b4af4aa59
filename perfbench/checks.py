"""Output checks, one call per op.  Each returns an Outcome whose `failure`
names the first check the op failed, or is None.

A certified run claims a lower bound on the MAP energy f_opt: f_rounded -
subopt_bound = f_relaxed for fuses, dual_bound for dars.  Any feasible
labeling's energy is an upper bound on f_opt, so the claimed bound must not
exceed f_rounded; with an exact reference it must not exceed f_opt, up to the
acceptance suite's slacks.  Every certified run must also have f_relaxed <=
f_rounded, which dars, whose f_relaxed is taken at a point that violates
the sum constraints, does not always meet (ROADMAP item 1).
"""

from __future__ import annotations

import json

import numpy as np

import mrfsdp
import mrfsdp.formats
from stats import Outcome

ENERGY_RTOL = 1e-9
# acceptance criterion 3: f_relaxed <= f_opt + 1e-5 * (1 + |f_opt|); also the
# solver-precision slack of f_relaxed <= f_rounded on every certified run
BOUND_RTOL = 1e-5
# acceptance criterion 4: f_rounded - f_opt <= f_rounded - dual_bound + 1e-3
DARS_BOUND_SLACK = 1e-3


def _close(a, b) -> bool:
    return abs(a - b) <= ENERGY_RTOL * (1.0 + abs(b))


def labeling_failure(mrf, labeling):
    x = np.asarray(labeling)
    if x.shape != (mrf.num_nodes,):
        return f"labeling shape {x.shape}, expected ({mrf.num_nodes},)"
    if not np.issubdtype(x.dtype, np.integer):
        return f"labeling dtype {x.dtype} is not integer"
    if x.size and (x.min() < 0 or x.max() >= mrf.num_labels):
        return "label outside [0, K)"
    return None


def _rounded_failure(mrf, res):
    reason = labeling_failure(mrf, res.labeling)
    if reason:
        return reason
    e = mrfsdp.energy(mrf, res.labeling)
    if not _close(res.f_rounded, e):
        return f"f_rounded {res.f_rounded!r} != energy {e!r}"
    return None


def _rounding_gap_pct(res, f_opt):
    if f_opt is None or f_opt == 0.0:
        return None
    return 100.0 * (res.f_rounded - f_opt) / f_opt


def _bound_failure(res, bound, f_opt, rel_slack=0.0, abs_slack=0.0):
    """A certified run needs f_relaxed <= f_rounded, and its claimed lower
    bound must not exceed f_rounded (an upper bound on f_opt), nor f_opt
    when the exact optimum is known, up to the given slack."""
    if res.f_relaxed > res.f_rounded + BOUND_RTOL * (1.0 + abs(res.f_rounded)):
        return (f"certified f_relaxed {res.f_relaxed:.9g} > "
                f"f_rounded {res.f_rounded:.9g}")
    upper, what = (res.f_rounded, "f_rounded") if f_opt is None else (f_opt, "f_opt")
    if bound > upper + rel_slack * (1.0 + abs(upper)) + abs_slack:
        return f"false certificate: bound {bound:.9g} > {what} {upper:.9g}"
    return None


def check_fuses(label, mrf, res, f_opt=None) -> Outcome:
    out = Outcome(label, solver=True, certified=bool(res.certified),
                  rounding_gap_pct=_rounding_gap_pct(res, f_opt))
    out.failure = _rounded_failure(mrf, res)
    if out.certified:
        out.cert_gap_rel = res.subopt_bound / max(1.0, abs(res.f_rounded))
        out.failure = out.failure or _bound_failure(
            res, res.f_rounded - res.subopt_bound, f_opt, rel_slack=BOUND_RTOL)
    return out


def check_dars(label, mrf, res, f_opt=None) -> Outcome:
    """dars claims its bound only when the dual loop converged."""
    out = Outcome(label, solver=True, certified=bool(res.certified and res.dual_converged),
                  rounding_gap_pct=_rounding_gap_pct(res, f_opt))
    out.failure = _rounded_failure(mrf, res)
    if out.certified:
        out.cert_gap_rel = (res.f_rounded - res.dual_bound) / max(1.0, abs(res.f_rounded))
        out.failure = out.failure or _bound_failure(
            res, res.dual_bound, f_opt, abs_slack=DARS_BOUND_SLACK)
    return out


def check_data_path(label, out) -> Outcome:
    """`out` is the DataPathOutput of one data_path op."""
    loaded = out.loaded

    def failure():
        if out.sha256 != mrfsdp.formats.instance_sha256(out.original):
            return "reloaded instance hashes differently from the original"
        reason = labeling_failure(loaded, out.labeling)
        if reason:
            return reason
        if not _close(out.icm_energy, out.energy):
            return f"icm energy {out.icm_energy!r} != energy {out.energy!r}"
        zo = out.zo
        zo_value = mrfsdp.zo_objective(zo, mrfsdp.lift_labeling(zo, out.labeling)) + zo.offset
        if not _close(zo_value, out.energy):
            return f"zo objective {zo_value!r} != energy {out.energy!r}"
        pm = out.pm
        y = mrfsdp.labeling_to_pm(out.labeling, loaded.num_nodes, loaded.num_labels)
        pm_value = float(y @ (pm.L @ y)) + pm.offset
        if not _close(pm_value, out.energy):
            return f"pm objective {pm_value!r} != energy {out.energy!r}"
        doc = json.loads(out.result_text)
        if doc.get("energy") != out.energy or doc.get("labels") != out.labeling.tolist():
            return "result document does not round-trip"
        return None

    return Outcome(label, failure=failure())
