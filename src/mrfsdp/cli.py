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
    KernelWeights,
    MrfInstance,
    _check_count,
    generate_grid_instance,
    unary_argmax_labeling,
)
from .staircase import SolveResult, SolverParams

# the config keys each method reads besides "method" and "seed"
_CONFIG_KEYS = {"fuses": ("solver", "init"), "dars": ("solver", "dual"),
                "icm": (), "exact": ("budget",)}
METHODS = tuple(_CONFIG_KEYS)


# help text of the solver flags that carry one; "{fuses}"/"{dars}" stand
# for the field's default in SolverParams()/DARS_SOLVER_PARAMS
_SOLVER_FLAG_HELP = {
    "grad_norm_tol": ("TNT's gradient norm below which each accepted point "
                      "gets a (Schur) certificate attempt; it refines 1000x "
                      "below only while none certifies, and always before an "
                      "eigen-solve (default {fuses} fuses, {dars} dars)"),
}


def _sci(x: float) -> str:
    """0.01 -> "1e-2"."""
    return f"{x:.0e}".replace("e-0", "e-")


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per SolverParams field and one --dual-* flag per DualParams
    field, each defaulting to None (= the method's base value, see
    _params_from_args)."""
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
    if method == "exact":
        config["budget"] = args.budget
    return config


# the keys of a result document's objectives and flags blocks; an icm or
# exact run sets objectives.f_rounded and leaves the others None
_OBJECTIVE_KEYS = ("f_rounded", "f_relaxed", "subopt_bound", "dual_bound",
                   "offset")
_FLAG_KEYS = ("certified", "dual_converged")


def _solve_payload(res: SolveResult) -> dict:
    """Result-document blocks of a fuses or dars run; staircase carries
    lower_bound/min_eig/certificate when set (fuses), dual is None unless
    dars."""
    staircase = {"rank_history": [[int(r), int(i), float(g)]
                                  for r, i, g in res.rank_history]}
    if res.lower_bound is not None:
        staircase.update(lower_bound=float(res.lower_bound),
                         min_eig=float(res.min_eig),
                         certificate=res.certificate)
    dual = None
    if res.dual_iterations is not None:
        dual = {
            "iterations": res.dual_iterations,
            "bound_iteration": res.dual_bound_iteration,
            "constraint_residual_max": res.constraint_residual_max,
            "residual_history": [float(v) for v in res.residual_history],
            "dual_value_history": [float(v) for v in res.dual_value_history],
        }
    return {
        "labeling": [int(v) for v in res.labeling],
        "objectives": {key: getattr(res, key) for key in _OBJECTIVE_KEYS},
        "flags": {key: getattr(res, key) for key in _FLAG_KEYS},
        "staircase": staircase,
        "dual": dual,
        "timing": dict(res.timings),
    }


def _config_params(config: dict, block: str, cls):
    """cls built from config[block].  A block that is missing or not an
    object, or that has a key not a field of cls, is an InvalidInputError
    naming the block (and the key); the values are checked by cls."""
    if block not in config:
        raise InvalidInputError(f"config has no {block!r} block")
    values = config[block]
    if not isinstance(values, dict):
        raise InvalidInputError(
            f"config block {block!r} must be an object, got {values!r}")
    names = {f.name for f in fields(cls)}
    for key in values:
        if key not in names:
            raise InvalidInputError(
                f"config block {block!r} has unknown key {key!r}")
    return cls(**values)


def run_from_config(mrf: MrfInstance, config: dict) -> dict:
    """Run a solver as described by a result document's config block.

    Returns the payload (labeling, objectives, flags, staircase, dual,
    timing) shared by the solve and bench commands.  Rerunning the emitted
    config reproduces the run.  A malformed config is an InvalidInputError,
    and so is a key the method does not read, such as the icm block an
    older version wrote.
    """
    if not isinstance(config, dict):
        raise InvalidInputError(f"config must be an object, got {config!r}")
    if "method" not in config:
        raise InvalidInputError("config has no 'method' key")
    method = config["method"]
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}")
    for key in config:
        if key not in ("method", "seed") + _CONFIG_KEYS[method]:
            raise InvalidInputError(
                f"config key {key!r} is not read by method {method!r}")
    seed = _check_count(config.get("seed", 0), "config key 'seed'", 0)
    if method == "fuses":
        return _solve_payload(fuses_solve(
            mrf, params=_config_params(config, "solver", SolverParams),
            seed=seed, init=config.get("init", "random")))
    if method == "dars":
        return _solve_payload(dars_solve(
            mrf, params=_config_params(config, "solver", SolverParams),
            dual_params=_config_params(config, "dual", DualParams), seed=seed))
    t0 = time.perf_counter()
    payload: dict = {
        "labeling": None,
        "objectives": dict.fromkeys(_OBJECTIVE_KEYS),
        "flags": dict.fromkeys(_FLAG_KEYS),
        "staircase": None,
        "dual": None,
        "timing": {},
    }
    if method == "icm":
        labeling, f = icm(mrf, unary_argmax_labeling(mrf))
        payload["labeling"] = [int(v) for v in labeling]
        payload["objectives"]["f_rounded"] = f
    else:  # "exact"
        res = brute_force(mrf, budget=_check_count(
            config.get("budget", DEFAULT_BUDGET), "config key 'budget'", 1))
        payload["labeling"] = [int(v) for v in res.labeling]
        payload["objectives"]["f_rounded"] = res.f_opt
        payload["states_enumerated"] = res.states_enumerated
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


def _write_output(text: str, out: str | None) -> None:
    """A command's output goes to --out, written atomically, else stdout."""
    if out:
        formats.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


# --- subcommands ----------------------------------------------------------

def _cmd_gen(args) -> int:
    model = KernelWeights(lam1=args.lam1, lam2=args.lam2, beta=args.beta,
                          feature_noise=args.feature_noise)
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
    config = _build_config(args.method, args, args.seed)
    try:
        payload = run_from_config(mrf, config)
    except (NumericalFailureError, SizeRefusalError) as exc:
        doc = _result_doc(mrf, args.instance, config, {
            "labeling": None, "objectives": None, "flags": None,
            "staircase": None, "dual": None, "timing": {}})
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        if args.out:
            formats.save_result(doc, args.out)
        raise
    doc = _result_doc(mrf, args.instance, config, payload)
    _write_output(formats.dumps_result(doc), args.out)
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
    _write_output(json.dumps(out_doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _mean_std(values):
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return None, None
    if len(vals) == 1:
        return vals[0], 0.0
    return statistics.fmean(vals), statistics.stdev(vals)


# the MetricsReport fields a bench cell reports, where the exact optimum is
# known; a gap is None when f_opt = 0
_GAP_KEYS = ("rounding_gap_pct", "relaxation_gap_pct", "percent_optimal_labels")


def _bench_run(inst: MrfInstance, config: dict, exact) -> dict:
    """One bench record: the run config describes on inst, with its gaps
    where exact, the brute-force result for inst, is not None."""
    rec = {"seed": config["seed"], "error": None}
    try:
        t0 = time.perf_counter()
        payload = run_from_config(inst, config)
        rec["time_ms"] = 1000.0 * (time.perf_counter() - t0)
        obj = payload["objectives"]
        rec["f_rounded"] = obj["f_rounded"]
        rec["f_relaxed"] = obj.get("f_relaxed")
        rec["subopt_bound"] = obj["subopt_bound"]
        rec["certified"] = (payload["flags"] or {}).get("certified")
        if exact is not None:
            report = compute_metrics(
                payload["labeling"], obj["f_rounded"],
                f_relaxed=obj.get("f_relaxed"), exact_labeling=exact.labeling,
                f_opt=exact.f_opt)
            for key in _GAP_KEYS:
                rec[key] = getattr(report, key)
    except (NumericalFailureError, SizeRefusalError, InvalidInputError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


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
    _check_count(args.seeds, "--seeds", 1)
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
    with_exact = "exact" in methods or args.gaps
    # each instance is generated, and brute-forced, once for all methods
    rows = []  # (size, K, method, one record per seed) in output order
    for size in sizes:
        for k in labels:
            cells = [(size, k, m, []) for m in methods]
            for seed in range(args.seed, args.seed + args.seeds):
                inst = generate_grid_instance(
                    rows=size[0], cols=size[1], num_labels=k,
                    unary_noise=args.noise, seed=seed)
                exact = None
                if with_exact:
                    try:
                        exact = brute_force(inst, budget=args.budget)
                    except SizeRefusalError:
                        pass  # too large to enumerate: no gaps
                for _, _, m, records in cells:
                    records.append(
                        _bench_run(inst, dict(configs[m], seed=seed), exact))
            rows += cells
    lines = ["\t".join(_BENCH_COLUMNS)]
    for size, k, m, records in rows:
        ok = [r for r in records if r["error"] is None]
        failed = len(records) - len(ok)
        cert = [r for r in ok if r.get("certified")]
        row = {
            "method": m, "rows": size[0], "cols": size[1],
            "num_nodes": size[0] * size[1], "num_labels": k,
            "n_runs": len(records), "n_failed": failed,
            "certified_rate": (len(cert) / len(ok)) if ok and m in ("fuses", "dars") else None,
        }
        for key in ("time_ms", "f_rounded", "subopt_bound") + _GAP_KEYS:
            mean, std = _mean_std([r.get(key) for r in ok])
            row[f"{key}_mean"] = mean
            row[f"{key}_std"] = std
        lines.append("\t".join(
            "" if row.get(c) is None else
            (f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]))
            for c in _BENCH_COLUMNS))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export_matrix(args) -> int:
    mrf = formats.load_instance(args.instance)
    if args.encoding == "pm":
        enc = encode_pm(mrf)
        M, offset = enc.L, enc.offset
    else:  # "zo"
        enc = encode_zo(mrf)
        M, offset = enc.Q, enc.offset
    coo = M.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"# encoding {args.encoding}", f"# dim {M.shape[0]}",
             f"# offset {float(offset)!r}"]
    for idx in order:
        lines.append(
            f"{int(coo.row[idx])} {int(coo.col[idx])} {float(coo.data[idx])!r}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
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
    p_gen.add_argument("--lam1", type=float, default=0.02)
    p_gen.add_argument("--lam2", type=float, default=0.04)
    p_gen.add_argument("--beta", type=float, default=None)
    p_gen.add_argument("--feature-noise", type=float, default=0.3)
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
    p_bench.set_defaults(func=_cmd_bench)

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
