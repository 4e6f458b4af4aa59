import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mrfsdp
import mrfsdp.cli as cli
import mrfsdp.staircase as staircase
from mrfsdp import (
    DARS_SOLVER_PARAMS,
    DualParams,
    InvalidInputError,
    SolverParams,
    brute_force,
    encode_pm,
    encode_zo,
)
from mrfsdp.cli import _build_config, build_parser, main, run_from_config
from mrfsdp.formats import (
    load_instance,
    load_labeling,
    load_result,
    save_instance,
    strip_timing,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def small_instance(tmp_path):
    path = tmp_path / "inst.json"
    code = run_cli("gen", "--rows", 2, "--cols", 2, "--labels", 2,
                   "--noise", 0.3, "--seed", 1, "--out", path)
    assert code == 0
    return path


def test_gen_4x4_edge_count(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert run_cli("gen", "--rows", 4, "--cols", 4, "--labels", 3,
                   "--noise", 0.3, "--seed", 7, "--out", path) == 0
    out = capsys.readouterr().out
    assert "num_nodes=16" in out
    assert "num_edges=24" in out
    inst = load_instance(str(path))
    assert inst.num_nodes == 16
    assert inst.edge_i.size == 24


def test_gen_1x1_no_edges(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert run_cli("gen", "--rows", 1, "--cols", 1, "--labels", 2,
                   "--out", path) == 0
    assert "num_edges=0" in capsys.readouterr().out


def test_gen_negative_beta_exit_2(tmp_path):
    assert run_cli("gen", "--rows", 2, "--cols", 2, "--labels", 2,
                   "--beta", -5, "--out", tmp_path / "g.json") == 2
    assert not (tmp_path / "g.json").exists()


def test_gen_deterministic_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli("gen", "--rows", 4, "--cols", 4, "--labels", 3,
                "--noise", 0.3, "--seed", 7, "--out", path)
    assert a.read_bytes() == b.read_bytes()


def test_gen_truth_out(tmp_path):
    inst_path, truth_path = tmp_path / "i.json", tmp_path / "t.json"
    run_cli("gen", "--rows", 3, "--cols", 3, "--labels", 3, "--noise", 0.0,
            "--seed", 2, "--out", inst_path, "--truth-out", truth_path)
    truth = load_labeling(str(truth_path))
    inst = load_instance(str(inst_path))
    measured = dict(zip(inst.unary_node.tolist(), inst.unary_label.tolist()))
    assert all(measured[i] == truth[i] for i in range(9))


def test_solve_exact_matches_brute_force(small_instance, tmp_path):
    out = tmp_path / "exact.json"
    assert run_cli("solve", "--instance", small_instance, "--method", "exact",
                   "--out", out) == 0
    doc = load_result(str(out))
    inst = load_instance(str(small_instance))
    res = brute_force(inst)
    assert doc["objectives"]["f_rounded"] == pytest.approx(res.f_opt)
    assert np.array_equal(doc["labeling"], res.labeling)


def test_solve_fuses_deterministic_documents(small_instance, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("solve", "--instance", small_instance, "--method",
                       "fuses", "--seed", 1, "--out", out) == 0
    da, db = load_result(str(a)), load_result(str(b))
    assert strip_timing(da) == strip_timing(db)


def test_solve_dars_deterministic_documents(tmp_path):
    # 10x10 K=5: dars certifies through ARPACK, not the dense eigen-solve
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--rows", 10, "--cols", 10, "--labels", 5,
                   "--noise", 0.3, "--seed", 3, "--out", inst) == 0
    docs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        assert run_cli("solve", "--instance", inst, "--method", "dars",
                       "--seed", 2, "--out", out) == 0
        docs.append(json.dumps(strip_timing(load_result(str(out))),
                               indent=2, sort_keys=True).encode())
    assert docs[0] == docs[1]


def test_solve_fuses_default_config(small_instance, tmp_path):
    out = tmp_path / "f.json"
    run_cli("solve", "--instance", small_instance, "--method", "fuses",
            "--out", out)
    doc = load_result(str(out))
    assert doc["config"]["solver"] == {"grad_norm_tol": 1e-2}
    assert doc["flags"]["certified"] is True
    assert doc["staircase"]["rank_history"][0][0] == 2  # K
    assert doc["objectives"]["subopt_bound"] == \
        doc["objectives"]["f_rounded"] - doc["staircase"]["lower_bound"]
    assert abs(doc["staircase"]["min_eig"]) < staircase._EIG_TOL
    assert doc["staircase"]["certificate"] == "schur"


def test_solve_dars_default_config(small_instance, tmp_path):
    out = tmp_path / "d.json"
    run_cli("solve", "--instance", small_instance, "--method", "dars",
            "--out", out)
    doc = load_result(str(out))
    assert doc["config"]["solver"]["grad_norm_tol"] == 1e-3
    assert doc["config"]["dual"] == {"max_iterations": 1000}
    assert doc["flags"]["dual_converged"] is True
    assert 1 <= doc["dual"]["bound_iteration"] <= doc["dual"]["iterations"]
    assert doc["dual"]["constraint_residual_max"] < 0.5
    assert doc["objectives"]["dual_bound"] is not None


def test_result_config_reproduces_run(small_instance, tmp_path):
    out = tmp_path / "f.json"
    run_cli("solve", "--instance", small_instance, "--method", "fuses",
            "--seed", 3, "--out", out)
    doc = load_result(str(out))
    payload = run_from_config(load_instance(str(small_instance)),
                              doc["config"])
    assert payload["labeling"] == doc["labeling"]
    assert payload["objectives"] == doc["objectives"]
    doc["config"]["solver"]["grad_norm_tol"] = "1e-2"
    with pytest.raises(InvalidInputError):
        run_from_config(load_instance(str(small_instance)), doc["config"])


@pytest.mark.parametrize("config,named", [
    ({"method": "fuses", "solver": {"bogus": 1}}, "'solver'.*'bogus'"),
    # a block written when the staircase's fixed settings were parameters
    ({"method": "fuses", "solver": {"grad_norm_tol": 1e-2, "eig_tol": 1e-2}},
     "'solver'.*'eig_tol'"),
    ({"method": "fuses", "solver": [1]}, "'solver'"),
    ({"method": "fuses"}, "'solver'"),
    ({"method": "dars", "solver": {}}, "'dual'"),
    ({"method": "dars", "solver": {}, "dual": {"bogus": 1}}, "'dual'.*'bogus'"),
    ({"solver": {}}, "'method'"),
], ids=["unknown-solver-key", "removed-solver-key", "solver-not-object",
        "no-solver", "no-dual", "unknown-dual-key", "no-method"])
def test_malformed_config_block_is_an_input_error(small_instance, config,
                                                  named):
    with pytest.raises(InvalidInputError, match=named):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("config,named", [
    # the icm method reads no block, so any icm block is rejected whole
    ({"method": "icm", "icm": [1]}, "'icm'"),
    ({"method": "icm", "icm": {"max_sweeps": "x"}}, "'icm'"),
    ({"method": "icm", "icm": {"max_sweeps": 2.5}}, "'icm'"),
    ({"method": "icm", "icm": {"max_sweeps": -1}}, "'icm'"),
    ({"method": "icm", "icm": {"bogus": 1}}, "'icm'"),
    ({"method": "exact", "budget": "big"}, "'budget'"),
    ({"method": "exact", "budget": 0}, "'budget'"),
], ids=["icm-not-object", "max-sweeps-string", "max-sweeps-float",
        "max-sweeps-negative", "unknown-icm-key", "budget-string",
        "budget-zero"])
def test_malformed_icm_or_exact_config_is_an_input_error(small_instance,
                                                         config, named):
    with pytest.raises(InvalidInputError, match=named):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("method", ["fuses", "dars", "icm", "exact"])
@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_config_seed_must_be_a_non_negative_integer(small_instance, method,
                                                    seed):
    config = _config(method)
    config["seed"] = seed
    with pytest.raises(InvalidInputError, match="'seed'"):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("argv", [
    ("gen", "--rows", 2, "--cols", 2, "--labels", 2, "--out", "g.json"),
    ("solve", "--method", "fuses", "--instance"),
    ("bench", "--sizes", "2x2", "--labels", "2", "--methods", "icm",
     "--seeds", 1),
], ids=["gen", "solve", "bench"])
def test_negative_seed_flag_exits_2(argv, small_instance, tmp_path, capsys):
    if argv[0] == "solve":
        argv += (small_instance,)
    if argv[0] == "gen":
        argv = argv[:-1] + (tmp_path / "g.json",)
    assert run_cli(*argv, "--seed", -1) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert err.endswith(" must be an integer >= 0, got -1\n")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("config", [["method"], "method", None, 1],
                         ids=["list", "string", "null", "number"])
def test_config_that_is_not_an_object_is_an_input_error(small_instance,
                                                        config):
    with pytest.raises(InvalidInputError, match="config must be an object"):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("method,key", [
    ("fuses", "dual"), ("fuses", "budget"), ("dars", "init"), ("icm", "solver"),
    ("exact", "init"), ("exact", "icm"),
])
def test_config_key_the_method_does_not_read_is_rejected(small_instance,
                                                         method, key):
    config = dict(_config(method), **{key: {}})
    with pytest.raises(InvalidInputError, match=f"'{key}'.*'{method}'"):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("block,key,value", [
    ("dual", "step_size", 0.005), ("dual", "grad_tol", 0.5),
    ("icm", None, {"init": "unary", "max_sweeps": 100}),
], ids=["dual-step-size", "dual-grad-tol", "icm-block"])
def test_old_document_settings_are_rejected_by_name(small_instance, tmp_path,
                                                    block, key, value):
    # a document written while these were settings: rerunning it fails by
    # name rather than solving with the fixed values
    method = "dars" if block == "dual" else "icm"
    out = tmp_path / "doc.json"
    flags = ("--dual-max-iterations", 1) if method == "dars" else ()
    assert run_cli("solve", "--instance", small_instance, "--method", method,
                   *flags, "--out", out) == 0
    config = load_result(str(out))["config"]
    if key is None:
        config[block] = value
    else:
        config[block][key] = value
    with pytest.raises(InvalidInputError, match=f"'{key or block}'"):
        run_from_config(load_instance(str(small_instance)), config)


@pytest.mark.parametrize("argv", [
    ("gen", "--edge-model", "constant"), ("gen", "--edge-const", "0.1"),
    ("gen", "--edge-lo", "0.05"), ("gen", "--edge-hi", "0.2"),
    ("solve", "--icm-init", "zeros"), ("solve", "--icm-max-sweeps", "-1"),
    ("solve", "--dual-step-size", "0.005"), ("solve", "--dual-grad-tol", "0.5"),
    ("bench", "--dual-step-size", "0.005"), ("bench", "--dual-grad-tol", "0.5"),
], ids=lambda argv: "-".join(argv[:2]))
def test_removed_flags_are_usage_errors(argv, small_instance, tmp_path):
    command, *flag = argv
    base = {"gen": ("--rows", 2, "--cols", 2, "--labels", 2,
                    "--out", tmp_path / "g.json"),
            "solve": ("--instance", small_instance, "--method", "icm"),
            "bench": ("--sizes", "2x2", "--labels", "2", "--methods", "icm",
                      "--seeds", 1)}[command]
    with pytest.raises(SystemExit) as err:
        run_cli(command, *base, *flag)
    assert err.value.code == 2
    assert not (tmp_path / "g.json").exists()


def test_eval_self_comparison(small_instance, tmp_path, capsys):
    exact_out = tmp_path / "exact.json"
    run_cli("solve", "--instance", small_instance, "--method", "exact",
            "--out", exact_out)
    report_path = tmp_path / "eval.json"
    assert run_cli("eval", "--results", exact_out, "--exact", exact_out,
                   "--out", report_path) == 0
    report = json.loads(report_path.read_text())["reports"][0]
    assert report["percent_optimal_labels"] == 100.0
    assert report["rounding_gap_pct"] == 0.0


def test_eval_with_truth_and_solver(tmp_path):
    inst = tmp_path / "i.json"
    truth = tmp_path / "t.json"
    run_cli("gen", "--rows", 3, "--cols", 3, "--labels", 2, "--noise", 0.2,
            "--seed", 5, "--out", inst, "--truth-out", truth)
    fuses_out = tmp_path / "f.json"
    exact_out = tmp_path / "e.json"
    run_cli("solve", "--instance", inst, "--method", "fuses", "--out", fuses_out)
    run_cli("solve", "--instance", inst, "--method", "exact", "--out", exact_out)
    report_path = tmp_path / "r.json"
    assert run_cli("eval", "--results", fuses_out, "--exact", exact_out,
                   "--truth", truth, "--out", report_path) == 0
    report = json.loads(report_path.read_text())["reports"][0]
    assert report["relaxation_gap_pct"] is not None
    assert report["label_agreement_pct"] is not None
    assert report["method"] == "fuses"


def test_eval_mismatched_instances_rejected(tmp_path):
    a_inst, b_inst = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--rows", 2, "--cols", 2, "--labels", 2, "--seed", 1,
            "--out", a_inst)
    run_cli("gen", "--rows", 2, "--cols", 2, "--labels", 2, "--seed", 2,
            "--out", b_inst)
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    run_cli("solve", "--instance", a_inst, "--method", "icm", "--out", ra)
    run_cli("solve", "--instance", b_inst, "--method", "icm", "--out", rb)
    assert run_cli("eval", "--results", ra, rb) == 2


def test_eval_document_without_instance_exit_2(small_instance, tmp_path,
                                                capsys):
    out = tmp_path / "icm.json"
    run_cli("solve", "--instance", small_instance, "--method", "icm",
            "--out", out)
    doc = json.loads(out.read_text())
    del doc["instance"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("eval", "--results", out) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_directory_path_exit_2(tmp_path, capsys):
    assert run_cli("eval", "--results", tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_errored_exact_reference_exit_2(tmp_path, capsys):
    inst = tmp_path / "big.json"
    run_cli("gen", "--rows", 6, "--cols", 6, "--labels", 3, "--out", inst)
    exact, icm_out = tmp_path / "exact.json", tmp_path / "icm.json"
    assert run_cli("solve", "--instance", inst, "--method", "exact",
                   "--out", exact) == 4
    assert load_result(str(exact))["error"]["type"] == "SizeRefusalError"
    run_cli("solve", "--instance", inst, "--method", "icm", "--out", icm_out)
    capsys.readouterr()
    assert run_cli("eval", "--results", icm_out, "--exact", exact) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_dars_zero_max_iterations_exit_2(small_instance, capsys):
    assert run_cli("solve", "--instance", small_instance, "--method", "dars",
                   "--dual-max-iterations", "0") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("method", ["fuses", "dars"])
def test_solve_overflowing_weights_exit_3(method, tmp_path, capsys):
    # the Hessian products overflow: a typed numerical failure, not a crash
    inst = tmp_path / "huge.json"
    save_instance(mrfsdp.MrfInstance(2, 2, [0], [1], [1e300], [0], [1],
                                     [1e300]), str(inst))
    out = tmp_path / "r.json"
    assert run_cli("solve", "--instance", inst, "--method", method,
                   "--out", out) == 3
    assert load_result(str(out))["error"]["type"] == "NumericalFailureError"
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_solve_missing_instance_exit_2(tmp_path):
    assert run_cli("solve", "--instance", tmp_path / "nope.json",
                   "--method", "icm") == 2


def test_solve_size_refusal_exit_4(tmp_path):
    inst = tmp_path / "big.json"
    run_cli("gen", "--rows", 6, "--cols", 6, "--labels", 3, "--out", inst)
    assert run_cli("solve", "--instance", inst, "--method", "exact",
                   "--out", tmp_path / "r.json") == 4


def test_export_matrix_round_trip(small_instance, tmp_path):
    inst = load_instance(str(small_instance))
    for encoding, enc in (("pm", encode_pm(inst)), ("zo", encode_zo(inst))):
        out = tmp_path / f"{encoding}.txt"
        assert run_cli("export-matrix", "--instance", small_instance,
                       "--encoding", encoding, "--out", out) == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        dim = int(header[1].split()[2])
        offset = float(header[2].split()[2])
        triplets = [l.split() for l in lines if not l.startswith("#")]
        M = sp.coo_matrix(
            ([float(v) for _, _, v in triplets],
             ([int(r) for r, _, _ in triplets], [int(c) for _, c, _ in triplets])),
            shape=(dim, dim),
        )
        ref = enc.L if encoding == "pm" else enc.Q
        assert offset == enc.offset
        assert abs(M - ref).max() == 0.0


def test_bench_table_structure(tmp_path):
    out = tmp_path / "table.tsv"
    assert run_cli("bench", "--sizes", "2x2,2x3", "--labels", "2",
                   "--methods", "fuses,icm,exact", "--seeds", 2,
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "method"
    assert "rounding_gap_pct_mean" in header
    assert len(lines) == 1 + 2 * 3  # sizes x methods
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        assert row["n_runs"] == "2"
        assert row["n_failed"] == "0"
        if row["method"] in ("fuses", "dars"):
            assert float(row["relaxation_gap_pct_mean"]) >= -1e-6
            assert float(row["subopt_bound_mean"]) >= -1e-9
            assert float(row["subopt_bound_std"]) >= 0.0
        else:
            assert row["subopt_bound_mean"] == row["subopt_bound_std"] == ""


def test_bench_gap_columns_for_relaxation(tmp_path):
    out = tmp_path / "table.tsv"
    assert run_cli("bench", "--sizes", "2x2", "--labels", "2,3",
                   "--methods", "fuses", "--seeds", 2, "--gaps",
                   "--out", out) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split("\t")
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        assert row["rounding_gap_pct_mean"] != ""
        assert float(row["certified_rate"]) == 1.0


def test_bench_gaps_keep_their_sign_below_zero(tmp_path, monkeypatch):
    # every energy shifted by -100 (the same MAP problem) puts f_opt below
    # zero; a gap is a difference over |f_opt| and stays positive
    shift = 100.0
    reference, run = cli.brute_force, cli.run_from_config

    def shifted_reference(*args, **kwargs):
        res = reference(*args, **kwargs)
        res.f_opt -= shift
        return res

    def shifted_run(inst, config):
        payload = run(inst, config)
        payload["objectives"]["f_rounded"] -= shift
        payload["objectives"]["f_relaxed"] -= shift
        return payload

    monkeypatch.setattr(cli, "brute_force", shifted_reference)
    monkeypatch.setattr(cli, "run_from_config", shifted_run)
    out = tmp_path / "table.tsv"
    assert run_cli("bench", "--sizes", "2x3", "--labels", "3",
                   "--methods", "fuses", "--seeds", 3, "--gaps",
                   "--out", out) == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split("\t"), line.split("\t")))
    assert float(row["rounding_gap_pct_mean"]) >= 0.0
    assert float(row["relaxation_gap_pct_mean"]) > 0.0


def test_bench_zero_optimum_keeps_label_agreement(tmp_path):
    # noise 0 gives f_opt = 0 on these grids: the gaps are undefined there,
    # as in eval, but the share of optimal labels is not
    out = tmp_path / "table.tsv"
    assert run_cli("bench", "--sizes", "1x1,2x2", "--labels", "2",
                   "--methods", "fuses,exact", "--seeds", 2, "--noise", 0,
                   "--gaps", "--out", out) == 0
    header, *lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        row = dict(zip(header.split("\t"), line.split("\t")))
        assert float(row["f_rounded_mean"]) == 0.0
        assert row["rounding_gap_pct_mean"] == row["relaxation_gap_pct_mean"] == ""
        assert float(row["percent_optimal_labels_mean"]) == 100.0


def test_bench_malformed_tokens_exit_2(tmp_path):
    assert run_cli("bench", "--sizes", "3y3", "--labels", "2",
                   "--methods", "fuses") == 2
    assert run_cli("bench", "--sizes", "2x2", "--labels", "two",
                   "--methods", "fuses") == 2
    assert run_cli("bench", "--sizes", "2x2", "--labels", "2",
                   "--methods", "solver-nine") == 2


@pytest.mark.parametrize("seeds", [0, -3])
def test_bench_seeds_below_one_exit_2(seeds, tmp_path, capsys):
    # no table of empty rows: the count is an input error, as in the library
    out = tmp_path / "table.tsv"
    assert run_cli("bench", "--sizes", "2x2", "--labels", "2", "--methods",
                   "icm", "--seeds", seeds, "--out", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --seeds must be an integer >= 1")


@pytest.mark.parametrize("method,flag,value", [
    ("dars", "--dual-max-iterations", "0"),
    ("fuses", "--grad-norm-tol", "-1"),
])
def test_bench_bad_solver_flag_exit_2(method, flag, value, capsys):
    # rejected before any run, as solve rejects it, not counted as failed runs
    assert run_cli("bench", "--sizes", "2x2", "--labels", "2", "--methods",
                   method, "--seeds", 2, flag, value) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_method_rejected_by_parser(small_instance):
    with pytest.raises(SystemExit) as err:
        run_cli("solve", "--instance", small_instance, "--method", "magic")
    assert err.value.code == 2


def _cli_in_fresh_process(*argv):
    """(exit code, stderr) of the CLI run by a new interpreter, where
    --verbose configures logging as it does for the console script."""
    src = str(Path(mrfsdp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mrfsdp.cli import main; sys.exit(main())",
         *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    return proc.returncode, proc.stderr


_PROGRESS = ("tnt iter=", "staircase step=", "dual iter=")
_BENCH_ARGV = ("bench", "--sizes", "2x2", "--labels", "2", "--seeds", "1",
               "--methods")


@pytest.mark.parametrize("argv, prefixes", [
    (("solve", "--method", "fuses"), _PROGRESS[:2]),
    (("solve", "--method", "dars"), _PROGRESS),
    (_BENCH_ARGV + ("fuses,dars",), _PROGRESS),
], ids=["solve-fuses", "solve-dars", "bench"])
def test_verbose_streams_progress(argv, prefixes, small_instance):
    if argv[0] == "solve":
        argv += ("--instance", small_instance)
    code, err = _cli_in_fresh_process("--verbose", *argv)
    assert code == 0
    lines = err.splitlines()
    for prefix in prefixes:
        assert any(line.startswith(prefix) for line in lines), prefix


def test_quiet_without_verbose(small_instance):
    for argv in (("solve", "--method", "dars", "--instance", small_instance),
                 _BENCH_ARGV + ("fuses,dars",)):
        code, err = _cli_in_fresh_process(*argv)
        assert code == 0
        assert not any(p in err for p in _PROGRESS)


@pytest.mark.parametrize("method", ["icm", "exact"])
def test_solve_timing_is_one_clock_span(method, small_instance, tmp_path):
    out = tmp_path / f"{method}.json"
    assert run_cli("solve", "--instance", small_instance, "--method", method,
                   "--out", out) == 0
    timing = load_result(str(out))["timing"]
    assert timing["solve_s"] == timing["total_s"] > 0.0


# --- result-document layout and solver flags --------------------------------

def _key_paths(doc, prefix=""):
    paths = set()
    for key, value in doc.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, prefix + key + ".")
    return paths


_COMMON_KEYS = {
    "schema", "method", "error", "labeling", "staircase", "dual",
    "instance", "instance.path", "instance.sha256", "instance.num_nodes",
    "instance.num_labels",
    "config", "config.method", "config.seed",
    "objectives", "objectives.f_rounded", "objectives.f_relaxed",
    "objectives.subopt_bound", "objectives.dual_bound", "objectives.offset",
    "flags", "flags.certified", "flags.dual_converged",
}
_SOLVER_KEYS = {"config.solver"} | {
    f"config.solver.{f.name}" for f in fields(SolverParams)}
_EXPECTED_KEYS = {
    "fuses": _COMMON_KEYS | _SOLVER_KEYS | {
        "config.init", "staircase.rank_history", "staircase.lower_bound",
        "staircase.min_eig", "staircase.certificate"},
    "dars": _COMMON_KEYS | _SOLVER_KEYS | {"config.dual"} | {
        f"config.dual.{f.name}" for f in fields(DualParams)} | {
        "staircase.rank_history", "dual.iterations", "dual.bound_iteration",
        "dual.constraint_residual_max", "dual.residual_history",
        "dual.dual_value_history"},
    "icm": _COMMON_KEYS,
    "exact": _COMMON_KEYS | {"config.budget", "states_enumerated"},
}


@pytest.mark.parametrize("method", sorted(_EXPECTED_KEYS))
def test_solve_document_key_set(method, small_instance, tmp_path):
    out = tmp_path / f"{method}.json"
    assert run_cli("solve", "--instance", small_instance, "--method", method,
                   "--out", out) == 0
    doc = strip_timing(load_result(str(out)))
    assert _key_paths(doc) == _EXPECTED_KEYS[method]


# (config block, field, flag) for every solver and dual-ascent flag: every
# field of both parameter classes is a flag, none is config-only
_PARAM_FLAGS = [("solver", f.name, "--" + f.name.replace("_", "-"))
                for f in fields(SolverParams)] + [
    ("dual", f.name, "--dual-" + f.name.replace("_", "-"))
    for f in fields(DualParams)]


def _param_flags(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return [action.option_strings for group in sub._action_groups
            if group.title in ("solver parameters", "dual ascent parameters")
            for action in group._group_actions]


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_param_flags_one_per_field(command):
    assert sorted(_param_flags(command)) == sorted(
        [flag] for _, _, flag in _PARAM_FLAGS)


def _config(method, *flags):
    args = build_parser().parse_args(
        ["solve", "--instance", "x.json", "--method", method, *flags])
    return _build_config(method, args, 0)


def test_default_configs_are_the_param_dataclasses():
    assert _config("fuses")["solver"] == asdict(SolverParams())
    assert _config("dars")["solver"] == asdict(DARS_SOLVER_PARAMS)
    assert _config("dars")["dual"] == asdict(DualParams())


@pytest.mark.parametrize("block,name,flag", _PARAM_FLAGS,
                         ids=[flag for _, _, flag in _PARAM_FLAGS])
def test_param_flag_changes_only_its_field(block, name, flag):
    for method in ("dars",) if block == "dual" else ("fuses", "dars"):
        base = _config(method)
        default = base[block][name]
        value = default + 1 if isinstance(default, int) else default / 2
        config = _config(method, flag, str(value))
        got = config[block].pop(name)
        assert got == value and type(got) is type(default)
        base[block].pop(name)
        assert config == base
