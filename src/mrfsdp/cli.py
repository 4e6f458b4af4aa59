"""Command-line surface: gen, solve, eval, bench, export-matrix.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 size
refusal.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import statistics
import sys
import time
from dataclasses import asdict, fields, replace
from functools import lru_cache

import numpy as np

from . import formats
from .baselines import DEFAULT_BUDGET, brute_force, icm
from .dars import DARS_SOLVER_PARAMS, DualParams, dars_solve
from .encode_pm import encode_pm
from .encode_zo import encode_zo
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    SizeRefusalError,
)
from .fuses import fuses_solve
from .metrics import compute_metrics
from .mrf import (
    ConstantWeights,
    KernelWeights,
    MrfInstance,
    UniformWeights,
    generate_grid_instance,
    unary_argmax_labeling,
)
from .staircase import SolveResult, SolverParams

METHODS = ("fuses", "dars", "icm", "exact")


# help text of the solver flags that carry one; "{fuses}"/"{dars}" stand
# for the field's default in SolverParams()/DARS_SOLVER_PARAMS
_SOLVER_FLAG_HELP = {
    "grad_norm_tol": "gradient norm tolerance (default {fuses} fuses, {dars} dars)",
    "eig_tol": "lift the rank when the smallest eigenvalue of the certificate "
               "matrix S is below -EIG_TOL (default {fuses})",
}
# DualParams fields exposed as --dual-* flags
_DUAL_FLAGS = ("step_size", "max_iterations", "grad_tol")


def _sci(x: float) -> str:
    """0.01 -> "1e-2"."""
    return f"{x:.0e}".replace("e-0", "e-")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per SolverParams field and per _DUAL_FLAGS field, each
    defaulting to None (= the method's base value, see _params_from_args)."""
    g = parser.add_argument_group("solver parameters")
    for f in fields(SolverParams):
        text = _SOLVER_FLAG_HELP.get(f.name)
        g.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=type(f.default), default=None,
                       help=text and text.format(
                           fuses=_sci(f.default),
                           dars=_sci(getattr(DARS_SOLVER_PARAMS, f.name))))
    d = parser.add_argument_group("dual ascent parameters")
    for f in fields(DualParams):
        if f.name in _DUAL_FLAGS:
            d.add_argument("--dual-" + f.name.replace("_", "-"),
                           dest="dual_" + f.name, type=type(f.default),
                           default=None)


def _params_from_args(base, args, prefix: str = ""):
    """base with every flag the user gave (dest prefix + field name)
    applied on top."""
    given = {f.name: getattr(args, prefix + f.name) for f in fields(base)
             if getattr(args, prefix + f.name, None) is not None}
    return replace(base, **given)


def _build_config(method: str, args, seed: int) -> dict:
    config = {"method": method, "seed": seed}
    if method == "fuses":
        config["solver"] = asdict(_params_from_args(SolverParams(), args))
        config["init"] = args.init
    if method == "dars":
        config["solver"] = asdict(_params_from_args(DARS_SOLVER_PARAMS, args))
        config["dual"] = asdict(_params_from_args(DualParams(), args, "dual_"))
    if method == "icm":
        config["icm"] = {"init": args.icm_init, "max_sweeps": args.icm_max_sweeps}
    if method == "exact":
        config["budget"] = args.budget
    return config


def _solve_payload(res: SolveResult) -> dict:
    """Result-document blocks of a fuses or dars run; staircase carries
    lower_bound/min_eig when set (fuses), dual is None unless dars."""
    staircase = {"rank_history": [[int(r), int(i), float(g)]
                                  for r, i, g in res.rank_history]}
    if res.lower_bound is not None:
        staircase.update(lower_bound=float(res.lower_bound),
                         min_eig=float(res.min_eig))
    dual = None
    if res.dual_iterations is not None:
        dual = {
            "iterations": res.dual_iterations,
            "constraint_residual_max": res.constraint_residual_max,
            "residual_history": [float(v) for v in res.residual_history],
            "dual_value_history": [float(v) for v in res.dual_value_history],
        }
    return {
        "labeling": [int(v) for v in res.labeling],
        "objectives": {"f_rounded": res.f_rounded, "f_relaxed": res.f_relaxed,
                       "subopt_bound": res.subopt_bound,
                       "dual_bound": res.dual_bound, "offset": res.offset},
        "flags": {"certified": bool(res.certified),
                  "dual_converged": res.dual_converged,
                  "divergence_warning": res.divergence_warning},
        "staircase": staircase,
        "dual": dual,
        "timing": dict(res.timings),
    }


def run_from_config(mrf: MrfInstance, config: dict) -> dict:
    """Run a solver as described by a result document's config block.

    Returns the payload (labeling, objectives, flags, staircase, dual,
    timing) shared by the solve and bench commands.  Rerunning the emitted
    config reproduces the run.
    """
    method = config["method"]
    seed = config.get("seed", 0)
    if method == "fuses":
        return _solve_payload(fuses_solve(
            mrf, params=SolverParams(**config["solver"]), seed=seed,
            init=config.get("init", "random")))
    if method == "dars":
        return _solve_payload(dars_solve(
            mrf, params=SolverParams(**config["solver"]),
            dual_params=DualParams(**config["dual"]), seed=seed))
    t0 = time.perf_counter()
    payload: dict = {
        "labeling": None,
        "objectives": {"f_rounded": None, "f_relaxed": None,
                       "subopt_bound": None, "dual_bound": None, "offset": None},
        "flags": {"certified": None, "dual_converged": None,
                  "divergence_warning": None},
        "staircase": None,
        "dual": None,
        "timing": {},
    }
    if method == "icm":
        icm_cfg = config.get("icm", {})
        init_mode = icm_cfg.get("init", "unary")
        if init_mode == "unary":
            init = unary_argmax_labeling(mrf)
        elif init_mode == "zeros":
            init = np.zeros(mrf.num_nodes, dtype=int)
        else:
            raise InvalidInputError(f"unknown icm init {init_mode!r}")
        labeling, f = icm(mrf, init, max_sweeps=icm_cfg.get("max_sweeps", 100))
        payload["labeling"] = [int(v) for v in labeling]
        payload["objectives"]["f_rounded"] = f
    elif method == "exact":
        res = brute_force(mrf, budget=config.get("budget", DEFAULT_BUDGET))
        payload["labeling"] = [int(v) for v in res.labeling]
        payload["objectives"]["f_rounded"] = res.f_opt
        payload["states_enumerated"] = res.states_enumerated
    else:
        raise InvalidInputError(f"unknown method {method!r}")
    elapsed = time.perf_counter() - t0
    payload["timing"] = {"solve_s": elapsed, "total_s": elapsed}
    return payload


def _result_doc(mrf: MrfInstance, instance_path: str, config: dict,
                payload: dict) -> dict:
    doc = {
        "schema": formats.RESULT_SCHEMA,
        "method": config["method"],
        "instance": {
            "path": instance_path,
            "sha256": formats.instance_sha256(mrf),
            "num_nodes": mrf.num_nodes,
            "num_labels": mrf.num_labels,
        },
        "config": config,
        "error": None,
    }
    doc.update(payload)
    return doc


# --- subcommands ----------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.edge_model == "kernel":
        model = KernelWeights(lam1=args.lam1, lam2=args.lam2, beta=args.beta,
                              feature_noise=args.feature_noise)
    elif args.edge_model == "constant":
        model = ConstantWeights(value=args.edge_const)
    elif args.edge_model == "uniform":
        model = UniformWeights(low=args.edge_lo, high=args.edge_hi)
    else:
        raise InvalidInputError(f"unknown edge model {args.edge_model!r}")
    inst, truth = generate_grid_instance(
        rows=args.rows, cols=args.cols, num_labels=args.labels,
        unary_noise=args.noise,
        unary_weight_range=(args.unary_lo, args.unary_hi),
        binary_weight_model=model, seed=args.seed, return_truth=True,
    )
    formats.save_instance(inst, args.out)
    if args.truth_out:
        formats.save_labeling(truth, args.truth_out)
    print(f"num_nodes={inst.num_nodes} num_labels={inst.num_labels} "
          f"num_edges={inst.edge_i.size} out={args.out}")
    return 0


def _cmd_solve(args) -> int:
    mrf = formats.load_instance(args.instance)
    if args.method not in METHODS:
        raise InvalidInputError(f"unknown method {args.method!r}")
    config = _build_config(args.method, args, args.seed)
    try:
        payload = run_from_config(mrf, config)
    except (NumericalFailureError, SizeRefusalError) as exc:
        doc = _result_doc(mrf, args.instance, config, {
            "labeling": None,
            "objectives": None,
            "flags": None,
            "staircase": None,
            "dual": None,
            "timing": {},
        })
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if args.out:
            formats.save_result(doc, args.out)
        raise
    doc = _result_doc(mrf, args.instance, config, payload)
    if args.out:
        formats.save_result(doc, args.out)
    else:
        sys.stdout.write(formats.dumps_result(doc))
    obj = doc["objectives"]["f_rounded"]
    flags = doc["flags"]
    print(f"method={args.method} f={obj} certified={flags.get('certified')} "
          f"out={args.out or '-'}", file=sys.stderr)
    return 0


def _check_same_instance(docs) -> None:
    shas = {d["instance"]["sha256"] for d in docs}
    if len(shas) > 1:
        raise InvalidInputError("result documents refer to different instances")


# what eval reads of a result document; one that records an error needs only
# the first, for the same-instance check
_EVAL_KEYS = (("instance", "sha256"), ("method",), ("labeling",),
              ("objectives", "f_rounded"))


def _load_for_eval(path: str) -> dict:
    doc = formats.load_result(path)
    for keys in _EVAL_KEYS[:1] if doc.get("error") else _EVAL_KEYS:
        node = doc
        for key in keys:
            if not isinstance(node, dict) or node.get(key) is None:
                raise InvalidInputError(
                    f"result document {path} has no {'.'.join(keys)}")
            node = node[key]
    return doc


def _cmd_eval(args) -> int:
    docs = [_load_for_eval(p) for p in args.results]
    exact_doc = _load_for_eval(args.exact) if args.exact else None
    if exact_doc and exact_doc.get("error"):
        raise InvalidInputError(
            f"exact reference {args.exact} records an error: "
            f"{json.dumps(exact_doc['error'], sort_keys=True)}")
    truth = formats.load_labeling(args.truth) if args.truth else None
    _check_same_instance(docs + ([exact_doc] if exact_doc else []))
    reports = []
    for path, doc in zip(args.results, docs):
        if doc.get("error"):
            reports.append({"result": path, "error": doc["error"]})
            continue
        obj = doc["objectives"]
        report = compute_metrics(
            labeling=doc["labeling"],
            f_rounded=obj["f_rounded"],
            f_relaxed=obj.get("f_relaxed"),
            exact_labeling=exact_doc["labeling"] if exact_doc else None,
            f_opt=exact_doc["objectives"]["f_rounded"] if exact_doc else None,
            truth=truth,
            offset=obj.get("offset"),
            wall_times=doc.get("timing", {}),
        ).to_doc()
        report["result"] = path
        report["method"] = doc["method"]
        reports.append(report)
    out_doc = {"schema": "mrfsdp-eval-v1", "reports": reports}
    text = json.dumps(out_doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        formats.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _mean_std(values):
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None, None
    if len(vals) == 1:
        return vals[0], 0.0
    return statistics.fmean(vals), statistics.stdev(vals)


@lru_cache(maxsize=None)
def _bench_reference(rows, cols, k, noise, seed, budget):
    """Exact optimum for a bench cell, shared across methods (or None when
    the state space exceeds the budget)."""
    inst = generate_grid_instance(rows=rows, cols=cols, num_labels=k,
                                  unary_noise=noise, seed=seed)
    try:
        res = brute_force(inst, budget=budget)
    except SizeRefusalError:
        return None
    return res.f_opt, tuple(int(v) for v in res.labeling)


def _bench_cell(size, k, config, args):
    rows_, cols_ = size
    records = []
    for s in range(args.seeds):
        seed = args.seed + s
        inst = generate_grid_instance(
            rows=rows_, cols=cols_, num_labels=k, unary_noise=args.noise,
            seed=seed,
        )
        exact = None
        if args.with_exact:
            exact = _bench_reference(rows_, cols_, k, args.noise, seed,
                                     args.budget)
        rec = {"seed": seed, "error": None}
        try:
            t0 = time.perf_counter()
            payload = run_from_config(inst, dict(config, seed=seed))
            rec["time_ms"] = 1000.0 * (time.perf_counter() - t0)
            obj = payload["objectives"]
            rec["f_rounded"] = obj["f_rounded"]
            rec["f_relaxed"] = obj.get("f_relaxed")
            rec["subopt_bound"] = obj["subopt_bound"]
            rec["certified"] = (payload["flags"] or {}).get("certified")
            if exact is not None and exact[0] != 0:
                f_opt, opt_labels = exact
                rec["rounding_gap_pct"] = 100.0 * (obj["f_rounded"] - f_opt) / f_opt
                if obj.get("f_relaxed") is not None:
                    rec["relaxation_gap_pct"] = 100.0 * (f_opt - obj["f_relaxed"]) / f_opt
                rec["percent_optimal_labels"] = 100.0 * float(
                    np.mean(np.asarray(payload["labeling"]) ==
                            np.asarray(opt_labels)))
        except (NumericalFailureError, SizeRefusalError, InvalidInputError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


_BENCH_COLUMNS = (
    "method", "rows", "cols", "num_nodes", "num_labels", "n_runs", "n_failed",
    "certified_rate",
    "time_ms_mean", "time_ms_std",
    "f_rounded_mean", "f_rounded_std",
    "subopt_bound_mean", "subopt_bound_std",
    "rounding_gap_pct_mean", "rounding_gap_pct_std",
    "relaxation_gap_pct_mean", "relaxation_gap_pct_std",
    "percent_optimal_labels_mean", "percent_optimal_labels_std",
)


def _parse_sizes(text):
    sizes = []
    for token in text.split(","):
        r, _, c = token.strip().partition("x")
        try:
            sizes.append((int(r), int(c)))
        except ValueError as exc:
            raise InvalidInputError(f"bad size token {token!r}") from exc
    return sizes


def _cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    try:
        labels = [int(v) for v in args.labels.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"bad label list {args.labels!r}") from exc
    methods = [m.strip() for m in args.methods.split(",")]
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}")
    # built before any run, so a bad solver flag is an input error here
    configs = {m: _build_config(m, args, args.seed) for m in methods}
    args.with_exact = "exact" in methods or args.gaps
    cells = [(size, k, m) for size in sizes for k in labels for m in methods]
    all_records = [_bench_cell(size, k, configs[m], args) for size, k, m in cells]
    lines = ["\t".join(_BENCH_COLUMNS)]
    for (size, k, m), records in zip(cells, all_records):
        ok = [r for r in records if r["error"] is None]
        failed = len(records) - len(ok)
        cert = [r for r in ok if r.get("certified")]
        row = {
            "method": m, "rows": size[0], "cols": size[1],
            "num_nodes": size[0] * size[1], "num_labels": k,
            "n_runs": len(records), "n_failed": failed,
            "certified_rate": (len(cert) / len(ok)) if ok and m in ("fuses", "dars") else None,
        }
        for key in ("time_ms", "f_rounded", "subopt_bound",
                    "rounding_gap_pct", "relaxation_gap_pct",
                    "percent_optimal_labels"):
            mean, std = _mean_std([r.get(key) for r in ok])
            row[f"{key}_mean"] = mean
            row[f"{key}_std"] = std
        lines.append("\t".join(
            "" if row.get(c) is None else
            (f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]))
            for c in _BENCH_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        formats.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_matrix(args) -> int:
    mrf = formats.load_instance(args.instance)
    if args.encoding == "pm":
        enc = encode_pm(mrf)
        M, offset = enc.L, enc.offset
    elif args.encoding == "zo":
        enc = encode_zo(mrf)
        M, offset = enc.Q, enc.offset
    else:
        raise InvalidInputError(f"unknown encoding {args.encoding!r}")
    coo = M.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"# encoding {args.encoding}", f"# dim {M.shape[0]}",
             f"# offset {float(offset)!r}"]
    for idx in order:
        lines.append(
            f"{int(coo.row[idx])} {int(coo.col[idx])} {float(coo.data[idx])!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        formats.atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrfsdp",
        description="MAP inference in Potts MRFs via low-rank SDP relaxations",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="emit solver progress as key=value log lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic grid instance")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument("--labels", type=int, required=True)
    p_gen.add_argument("--noise", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--unary-lo", type=float, default=0.2)
    p_gen.add_argument("--unary-hi", type=float, default=1.0)
    p_gen.add_argument("--edge-model", choices=("kernel", "constant", "uniform"),
                       default="kernel")
    p_gen.add_argument("--lam1", type=float, default=0.02)
    p_gen.add_argument("--lam2", type=float, default=0.04)
    p_gen.add_argument("--beta", type=float, default=None)
    p_gen.add_argument("--feature-noise", type=float, default=0.3)
    p_gen.add_argument("--edge-const", type=float, default=0.1)
    p_gen.add_argument("--edge-lo", type=float, default=0.05)
    p_gen.add_argument("--edge-hi", type=float, default=0.2)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--truth-out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--method", required=True, choices=METHODS)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--init", choices=("random", "unary"), default="random",
                         help="fuses initialization mode")
    p_solve.add_argument("--icm-init", choices=("unary", "zeros"), default="unary")
    p_solve.add_argument("--icm-max-sweeps", type=int, default=100)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="exact-method state budget")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("eval", help="metrics from result documents")
    p_eval.add_argument("--results", nargs="+", required=True)
    p_eval.add_argument("--exact", default=None,
                        help="result file from solve --method exact")
    p_eval.add_argument("--truth", default=None, help="ground-truth labeling file")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="run a gen/solve/eval family")
    p_bench.add_argument("--sizes", required=True, help="e.g. 4x4,6x6,8x8")
    p_bench.add_argument("--labels", required=True, help="e.g. 2,3")
    p_bench.add_argument("--methods", required=True, help="e.g. fuses,icm,exact")
    p_bench.add_argument("--seeds", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--noise", type=float, default=0.2)
    p_bench.add_argument("--init", choices=("random", "unary"), default="random")
    p_bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_bench.add_argument("--gaps", action="store_true",
                         help="compute exact gaps even without the exact method")
    p_bench.add_argument("--out", default=None)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench, icm_init="unary", icm_max_sweeps=100)

    p_exp = sub.add_parser("export-matrix",
                           help="dump an encoding in coordinate triplet form")
    p_exp.add_argument("--instance", required=True)
    p_exp.add_argument("--encoding", choices=("pm", "zo"), required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=_cmd_export_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SizeRefusalError as exc:
        print(f"size refusal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
