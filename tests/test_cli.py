"""Command-line interface: reports, exit codes, determinism, CSV output."""

import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import g2lab
from g2lab import catalog, cli
from g2lab.cli import CliError, build_parser, main
from g2lab.g2 import adapted_phi


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# -- analyze -----------------------------------------------------------------------

def test_analyze_g_abk_derivation_dimension(capsys):
    code, report = run_json(capsys, "analyze", "g_abk",
                            "--param", "a=1", "b=1", "k=0")
    assert code == 0 and report["status"] == "ok"
    assert report["results"]["dim_der"] == 8
    assert report["schema"] == "g2lab-report/1"


def test_analyze_abelian_betti(capsys):
    code, report = run_json(capsys, "analyze", "abelian7")
    assert code == 0
    assert report["results"]["betti"][3] == 35


def test_analyze_n2_first_betti(capsys):
    code, report = run_json(capsys, "analyze", "n2")
    assert code == 0
    assert report["results"]["betti"][1] == 4


def test_analyze_ranks_each_differential_once(capsys, monkeypatch):
    # betti needs rank d_k and rank d_{k-1}; the algebra ranks each d_k once
    from g2lab import linalg
    calls = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or rank(m))
    code, _ = run_cli(capsys, "analyze", "nonsolv_levi")
    assert code == 0
    assert len(calls) == 7


def test_analyze_reuses_the_catalog_checks(capsys, monkeypatch):
    # catalog verification and the report share one Jacobi check (one d(de^k)
    # per k) and one structure classification (one [g, g]) per algebra
    from g2lab import liealg
    calls = []
    for name in ("ce_differential", "_derived"):
        fn = getattr(liealg, name)
        monkeypatch.setattr(liealg, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    code, _ = run_cli(capsys, "analyze", "g_a", "--param", "a=2")
    assert code == 0
    assert calls.count("ce_differential") == 7
    assert calls.count("_derived") == 1


def test_analyze_works_on_sparse_data_only(capsys, monkeypatch):
    # ranks from d^T = d_columns, brackets through the structure constants,
    # derivations from sparse rows: the dense copies are never built
    from g2lab import liealg
    argv = ("analyze", "g_a", "--param", "a=2")
    code, expected = run_cli(capsys, *argv)
    assert code == 0

    def dense(*_):
        raise AssertionError("analyze built a dense copy")

    for owner, name in ((liealg.LieAlgebra, "d_matrix"), (liealg.LieAlgebra, "bracket"),
                        (liealg, "derivation_equations")):
        monkeypatch.setattr(owner, name, dense)
    assert run_cli(capsys, *argv) == (0, expected)


def test_analyze_unknown_entry_exit_2(capsys):
    code, report = run_json(capsys, "analyze", "does_not_exist")
    assert code == 2 and report["status"] == "error"
    assert report["results"]["error"] == "unknown catalog entry 'does_not_exist'"


def test_analyze_bad_param_exit_2(capsys):
    code, _ = run_json(capsys, "analyze", "g_a", "--param", "a=1/10")
    assert code == 2
    code, _ = run_json(capsys, "analyze", "g_a", "--param", "oops")
    assert code == 2


def test_param_value_naming_a_second_key_exit_2(capsys):
    # a comma separates values of one name; "b=1" is not a value of a
    code, report = run_json(capsys, "flow", "g_abk", "--param", "a=1,b=1,k=0",
                            "--t-end", "0.3")
    assert code == 2 and report["status"] == "error"
    assert report["schema"] == "g2lab-report/1"
    assert "malformed parameter" in report["results"]["error"]


def test_analyze_json_file_input(capsys, tmp_path):
    entry = catalog.get("n2")
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(entry.algebra.to_json_dict()))
    code, report = run_json(capsys, "analyze", str(path))
    assert code == 0
    assert report["results"]["betti"][1] == 4


def _non_jacobi_n2():
    # de^6 gains an e^15 term: Jacobi fails
    data = catalog.get("n2").algebra.to_json_dict()
    data["d"][5]["terms"].append({"idx": [1, 5], "c": "1"})
    return data


def test_invalid_algebra_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_non_jacobi_n2()))
    code, report = run_json(capsys, "analyze", str(path))
    assert code == 3 and report["status"] == "error"
    assert "Jacobi" in report["results"]["error"]


def _n2_with_coefficient(c):
    data = catalog.get("n2").algebra.to_json_dict()
    data["d"][4]["terms"][0]["c"] = c
    return data


def _form_with_coefficient(n, c):
    return {"n": n, "k": 3, "terms": [{"idx": [1, 2, 3], "c": c}]}


@pytest.mark.parametrize("command, payload", [
    ("analyze", lambda: _n2_with_coefficient(0.5)),
    ("analyze", lambda: [_n2_with_coefficient("1")]),
    ("analyze", lambda: _n2_with_coefficient("1/0")),
    ("g2", lambda: [_form_with_coefficient(7, "1")]),
    ("g2", lambda: _form_with_coefficient(7, [1])),
    ("g2", lambda: _form_with_coefficient(7, "1/0")),
    ("su3", lambda: [_form_with_coefficient(6, "1")]),
    ("su3", lambda: _form_with_coefficient(6, "1/0")),
    ("catalog", lambda: {"entries": [{"id": "bad", "algebra": _n2_with_coefficient(0.5)}]}),
    ("catalog", lambda: {"entries": [{"id": "bad", "algebra": _n2_with_coefficient("1/0")}]}),
    ("catalog", lambda: [{"id": "bad", "algebra": _n2_with_coefficient("1")}]),
    ("catalog list", lambda: [{"id": "bad", "algebra": _n2_with_coefficient("1")}]),
], ids=["algebra-float", "algebra-list", "algebra-1/0", "phi-list", "phi-list-coefficient",
        "phi-1/0", "su3-list", "su3-1/0", "catalog-float", "catalog-1/0", "catalog-list",
        "catalog-list-command"])
def test_malformed_json_exits_2(capsys, tmp_path, monkeypatch, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload()))
    argv = {"analyze": ["analyze", str(path)],
            "g2": ["g2", "abelian7", "--phi", str(path)],
            "su3": ["su3", "n2", "--omega", str(path), "--psi", str(path)],
            "catalog": ["analyze", "n2"],
            "catalog list": ["catalog", "list"]}[command]
    if command.startswith("catalog"):
        monkeypatch.setenv("G2LAB_CATALOG_PATH", str(path))
    code, report = run_json(capsys, *argv)
    assert code == 2
    assert report["schema"] == "g2lab-report/1" and report["status"] == "error"
    assert report["command"] == argv[:2]
    if command.startswith("catalog"):
        assert report["results"]["error"].startswith("cannot load user catalog: ")


def test_a_file_named_like_an_entry_does_not_shadow_it(capsys, tmp_path, monkeypatch):
    from test_report_digests import DIGESTS

    (tmp_path / "n1").write_text("garbage")
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, "analyze", "n1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == dict(DIGESTS)[("analyze", "n1")]
    code, report = run_json(capsys, "analyze", "./n1")
    assert code == 2
    assert report["results"]["error"].startswith("cannot load algebra file ./n1: ")


# -- g2 ---------------------------------------------------------------------------

def test_g2_erp_report(capsys):
    code, report = run_json(capsys, "g2", "g_a", "--param", "a=1",
                            "--default", "--erp-diagnostics")
    assert code == 0
    res = report["results"]
    assert res["closed"] is True
    assert res["erp_residual"] < 1e-8
    assert res["erp_diagnostics"]["passed"] is True
    eigs = res["ric_eigenvalues"]
    assert all(abs(e + res["tau_norm_sq"] / 6.0) < 1e-7 for e in eigs[:3])
    assert all(abs(e) < 1e-7 for e in eigs[3:])


def test_g2_abelian_parallel(capsys):
    code, report = run_json(capsys, "g2", "abelian7", "--default")
    assert code == 0
    res = report["results"]
    assert res["tau_norm_sq"] == 0.0 and res["scal"] == 0.0
    assert res["erp_residual"] == 0.0


def test_g2_g110_scalar_curvature(capsys):
    code, report = run_json(capsys, "g2", "g_abk",
                            "--param", "a=1", "b=1", "k=0")
    assert code == 0
    assert report["results"]["scal"] == -7.0
    assert report["results"]["tau_norm_sq"] == 14.0


def test_g2_non_positive_exit_4(capsys, tmp_path):
    phi = {"n": 7, "k": 3, "terms": [{"idx": [1, 2, 3], "c": "1"},
                                     {"idx": [4, 5, 6], "c": "1"}]}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi))
    code, report = run_json(capsys, "g2", "abelian7", "--phi", str(path))
    assert code == 4 and report["status"] == "error"


def test_g2_missing_form_exit_4(capsys):
    code, report = run_json(capsys, "g2", "n2", "--default")
    assert code == 4
    assert "pass --phi" in report["results"]["error"]


# -- su3 --------------------------------------------------------------------------

def test_su3_n2_report(capsys):
    code, report = run_json(capsys, "su3", "n2", "--default")
    assert code == 0
    res = report["results"]
    assert res["torsion_class"] == "coupled"
    assert res["c"] == "-1"
    assert res["dw2_proportional_to_psi"] is True
    assert res["dw2_factor"] == "8/3"
    w2_terms = {tuple(t["idx"]): t["c"] for t in res["w2"]["terms"]}
    assert w2_terms == {(1, 2): "4/3", (3, 4): "4/3", (5, 6): "-8/3"}


def test_su3_report_reuses_the_catalog_structure(capsys, monkeypatch):
    # the entry's verification builds the structure and its torsion class;
    # the report reads both instead of computing them again
    from g2lab import cli as cli_mod, su3

    calls = {"reconstruct_su3": 0, "su3_torsion_class": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (catalog, cli_mod, su3):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, report = run_json(capsys, "su3", "n2")
    assert code == 0 and report["results"]["c"] == "-1"
    assert calls == {"reconstruct_su3": 1, "su3_torsion_class": 1}


def test_su3_n1_not_proportional(capsys):
    code, report = run_json(capsys, "su3", "n1", "--default")
    assert code == 0
    assert report["results"]["dw2_proportional_to_psi"] is False


def test_su3_sab_coupled_constant(capsys):
    code, report = run_json(capsys, "su3", "s_ab",
                            "--param", "a=1", "b=2", "--default")
    assert code == 0
    assert report["results"]["c"] == "2"


def test_default_flag_changes_nothing(capsys):
    for argv in (["g2", "abelian7"], ["su3", "n2"]):
        plain = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *argv, "--default")
        assert plain[0] == 0
        assert flagged == plain


# -- soliton ----------------------------------------------------------------------

def test_soliton_expanding(capsys):
    code, report = run_json(capsys, "soliton", "g_a", "--param", "a=2")
    assert code == 0
    res = report["results"]
    assert res["feasible"] is True
    assert res["lambda"] == "20" and res["character"] == "expanding"


def test_soliton_infeasible(capsys):
    code, report = run_json(capsys, "soliton", "g_abk",
                            "--param", "a=1", "b=1", "k=1")
    assert code == 0
    assert report["results"]["feasible"] is False


def test_soliton_abelian(capsys):
    code, report = run_json(capsys, "soliton", "abelian7")
    assert code == 0
    res = report["results"]
    assert res["lambda"] == "0" and res["character"] == "steady"


def test_soliton_ambiguous_band_exit_5(capsys, monkeypatch):
    import g2lab.flow as flow_mod

    # the residual band is float-only: rational feasibility is exact
    monkeypatch.setattr(flow_mod, "INFEASIBLE_RATIO", 1.0)
    code, report = run_json(capsys, "soliton", "g_abk",
                            "--param", "a=1", "b=1", "k=0", "--backend", "float")
    assert code == 5
    assert report["status"] == "ambiguous"
    code, report = run_json(capsys, "soliton", "g_abk",
                            "--param", "a=1", "b=1", "k=0")
    assert code == 0 and report["results"]["feasible"] is False


@pytest.mark.parametrize("argv", [("soliton", "nonsolv_3", "--param", "mu=1"),
                                  ("flow", "ffkm_n", "--t-end", "0.1")])
def test_missing_form_names_no_option_the_command_lacks(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 4 and report["status"] == "error"
    assert "has no attached 3-form" in report["results"]["error"]
    assert "--phi" not in report["results"]["error"]


def test_torsion_guard_failure_is_a_well_formed_error(capsys, monkeypatch):
    # a failing guard inside the ERP diagnostics is an error, not "not ERP"
    import g2lab.cli as cli_mod
    from g2lab.g2 import InconsistentTorsionError

    def broken(struct):
        raise InconsistentTorsionError("tau = -*d*phi fails tau wedge phi = d*phi")

    monkeypatch.setattr(cli_mod, "erp_diagnostics", broken)
    code, report = run_json(capsys, "g2", "g_a", "--param", "a=1",
                            "--erp-diagnostics")
    assert code == 5
    assert report["schema"] == "g2lab-report/1"
    assert report["command"] == ["g2", "g_a"]
    assert len(report["input_digest"]) == 64
    assert report["status"] == "error"
    assert "tau wedge phi" in report["results"]["error"]


def test_g2_report_computes_torsion_once(capsys, monkeypatch):
    # the report and its curvature share the structure's cached torsion
    import g2lab.cli as cli_mod
    from g2lab import g2

    calls, torsion_form = [], g2.torsion_form

    def counted(struct):
        calls.append(1)
        return torsion_form(struct)

    monkeypatch.setattr(g2, "torsion_form", counted)
    # a name imported into cli would bypass the patched module attribute
    monkeypatch.setattr(cli_mod, "torsion_form", counted, raising=False)
    code, _ = run_cli(capsys, "g2", "g_a", "--param", "a=2")
    assert code == 0
    assert len(calls) == 1


def test_g2_report_takes_three_hodge_stars(capsys, monkeypatch):
    # *phi and *d*phi for the torsion, and *(tau ^ tau) once for both the
    # curvature and the ERP residual
    from g2lab import g2
    calls, hodge = [], g2.hodge
    monkeypatch.setattr(g2, "hodge", lambda *a: calls.append(1) or hodge(*a))
    code, _ = run_cli(capsys, "g2", "g_a", "--param", "a=2")
    assert code == 0
    assert len(calls) == 3


def test_g2_zero_scal_is_positive_zero(capsys):
    code, report = run_json(capsys, "g2", "abelian7", "--backend", "float")
    assert code == 0
    assert report["results"]["scal"] == 0
    assert math.copysign(1.0, report["results"]["scal"]) == 1.0


def test_g2_irrational_volume_exit_5_unless_float(capsys, tmp_path):
    # 2 phi_0 has det b = 2^21, whose ninth root 2^(7/3) is irrational
    path = tmp_path / "phi.json"
    path.write_text(json.dumps((2 * adapted_phi()).to_json_dict()))
    code, report = run_json(capsys, "g2", "abelian7", "--phi", str(path))
    assert code == 5 and report["status"] == "error"
    assert len(report["input_digest"]) == 64
    code, report = run_json(capsys, "g2", "abelian7", "--phi", str(path),
                            "--backend", "float")
    assert code == 0 and report["status"] == "ok"


def test_g2_float_backend(capsys):
    code, report = run_json(capsys, "g2", "g_abk", "--param",
                            "a=1", "b=1", "k=0", "--backend", "float")
    assert code == 0
    assert abs(report["results"]["scal"] + 7.0) < 1e-9


# -- flow --------------------------------------------------------------------------

def test_flow_compare_lauret(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=1/2",
                            "--t-end", "0.3", "--compare", "lauret",
                            "--out", str(out))
    assert code == 0
    res = report["results"]
    assert res["status"] == "completed"
    assert res["max_deviation"] < 1e-6
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert (tmp_path / "traj_derived.csv").exists()


def test_flow_compare_gabk(capsys):
    code, report = run_json(capsys, "flow", "g_abk",
                            "--param", "a=1", "b=1", "k=0",
                            "--t-end", "0.3", "--compare", "gabk")
    assert code == 0
    assert report["results"]["max_deviation"] < 1e-6


def test_flow_abelian_constant(capsys):
    code, report = run_json(capsys, "flow", "abelian7", "--t-end", "1")
    assert code == 0
    assert report["results"]["tau_norm_sq_final"] < 1e-15


def test_flow_zero_scal_is_positive_zero(capsys):
    code, report = run_json(capsys, "flow", "abelian7", "--t-end", "0.01")
    assert code == 0
    assert report["results"]["scal_final"] == 0
    assert math.copysign(1.0, report["results"]["scal_final"]) == 1.0


def assert_parse_error_report(code, report, command):
    assert code == 2
    assert report["schema"] == "g2lab-report/1"
    assert report["command"] == command
    assert len(report["input_digest"]) == 64
    assert report["status"] == "error"


def test_flow_non_positive_t_end_exit_2(capsys):
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=1/2",
                            "--t-end", "0")
    assert_parse_error_report(code, report, ["flow", "g_a"])
    assert "--t-end" in report["results"]["error"]


@pytest.mark.parametrize("flag, value", [("--dt", "0"), ("--dt", "-1"), ("--dt", "nan"),
                                         ("--dt", "inf"), ("--tol", "0"), ("--tol", "-1"),
                                         ("--tol", "nan"), ("--t-end", "nan")])
def test_flow_bad_step_or_tolerance_exit_2(capsys, flag, value):
    argv = {"--t-end": "0.05", flag: value}
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=1/2",
                            *(x for pair in argv.items() for x in pair))
    assert_parse_error_report(code, report, ["flow", "g_a"])
    assert flag in report["results"]["error"]


def test_flow_stall_exit_5(capsys):
    # no step can meet tol = 1e-300, and the torsion does not grow: a genuine stall
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=1/2",
                            "--t-end", "0.05", "--tol", "1e-300")
    assert code == 5 and report["status"] == "error"
    assert report["schema"] == "g2lab-report/1" and len(report["input_digest"]) == 64
    assert "step size underflow" in report["results"]["error"]


def test_long_expanding_flow_stalls_with_exit_5(capsys, monkeypatch):
    # no float step moves t past ~1.9e8; the run must end, not spin
    from g2lab.flow import FlowKernel

    calls, rhs = [], FlowKernel.rhs

    def capped(self, y):
        calls.append(1)
        assert len(calls) <= 3000, "the flow did not end"
        return rhs(self, y)

    monkeypatch.setattr(FlowKernel, "rhs", capped)
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=2", "--t-end", "1e16")
    assert code == 5 and report["status"] == "error"
    assert report["schema"] == "g2lab-report/1" and len(report["input_digest"]) == 64
    assert "step size underflow" in report["results"]["error"]


def test_flow_failing_after_the_out_check_leaves_no_csv(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, report = run_json(capsys, "flow", "g_a", "--param", "a=1/2",
                            "--t-end", "0.05", "--tol", "1e-300", "--out", str(out))
    assert code == 5 and report["status"] == "error"
    assert list(tmp_path.iterdir()) == []


# -- search-closed -------------------------------------------------------------------

def test_search_closed_ffkm(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n",
                            "--attempts", "10000", "--seed", "7")
    assert code == 0
    assert report["results"]["found"] is True


def test_search_closed_zero_attempts(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n", "--attempts", "0")
    assert code == 0
    assert report["results"]["found"] is False


def test_search_closed_negative_attempts_exit_2(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n", "--attempts", "-5")
    assert_parse_error_report(code, report, ["search-closed", "ffkm_n"])
    assert "--attempts" in report["results"]["error"]


def test_search_closed_negative_seed_exit_2(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n", "--seed", "-1")
    assert_parse_error_report(code, report, ["search-closed", "ffkm_n"])
    assert "--seed" in report["results"]["error"]


# -- catalog and global behaviour ------------------------------------------------------

def test_catalog_list(capsys):
    code, report = run_json(capsys, "catalog", "list")
    assert code == 0
    ids = [e["id"] for e in report["results"]["entries"]]
    assert "g_abk" in ids and "nonsolv_levi" in ids
    ambiguous = {e["id"]: e["ambiguous"] for e in report["results"]["entries"]}
    assert ambiguous["nonsolv_1"] is True


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "g2", "g_abk", "--param", "a=1", "b=1", "k=0")
    _, second = run_cli(capsys, "g2", "g_abk", "--param", "a=1", "b=1", "k=0")
    assert first == second
    _, s1 = run_cli(capsys, "search-closed", "ffkm_n", "--seed", "3",
                    "--attempts", "5000")
    _, s2 = run_cli(capsys, "search-closed", "ffkm_n", "--seed", "3",
                    "--attempts", "5000")
    assert s1 == s2


def test_param_sweep(capsys):
    code, report = run_json(capsys, "soliton", "g_a", "--param", "a=1/2,1,2")
    assert code == 0
    sweep = report["results"]["sweep"]
    assert [s["results"]["lambda"] for s in sweep] == ["-4", "0", "20"]


def test_param_sweep_parallel(capsys):
    code, report = run_json(capsys, "analyze", "g_a",
                            "--param", "a=1/2,1", "--jobs", "2")
    assert code == 0
    assert len(report["results"]["sweep"]) == 2


def test_sweep_starts_no_more_workers_than_jobs(capsys, monkeypatch):
    import g2lab.cli as cli_mod

    started = []

    class RecordingPool:
        def __init__(self, processes, initializer):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class RecordingContext:
        Pool = RecordingPool

    monkeypatch.setattr(cli_mod.multiprocessing, "get_context",
                        lambda method: RecordingContext)
    code, report = run_json(capsys, "analyze", "g_a",
                            "--param", "a=1/2,1", "--jobs", "8")
    assert code == 0 and len(report["results"]["sweep"]) == 2
    assert started == [2]


def test_in_process_sweep_loads_user_catalog_once(capsys, tmp_path, monkeypatch):
    _user_catalog(tmp_path, monkeypatch, "once_entry",
                  {"algebra": catalog.get("n2").algebra.to_json_dict()})
    load, calls = catalog.load_user_catalog, []
    monkeypatch.setattr(catalog, "load_user_catalog",
                        lambda path: calls.append(path) or load(path))
    code, report = run_json(capsys, "analyze", "g_a",
                            "--param", "a=1/2,1,2", "--jobs", "1")
    assert code == 0 and len(report["results"]["sweep"]) == 3
    assert len(calls) == 1


def test_a_closed_stdout_exits_1_with_nothing_on_stderr():
    # as in `g2lab catalog list | head -c 10`: without the BrokenPipeError
    # handler the error report also meets the closed pipe, and both tracebacks
    # reach stderr
    env = dict(os.environ, PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "g2lab.cli", "catalog", "list"],
                              stdout=write, stderr=subprocess.PIPE, timeout=60, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_spawned_workers_load_the_user_catalog(tmp_path):
    # without the pool initializer a worker reports the entry as unknown
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"entries": [
        {"id": "worker_entry", "algebra": catalog.get("n2").algebra.to_json_dict()}]}))
    env = dict(os.environ, G2LAB_CATALOG_PATH=str(path),
               PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "g2lab.cli", "analyze", "worker_entry",
         "--param", "a=1,2", "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "does not accept parameters" in json.loads(proc.stdout)["results"]["error"]


def test_catalog_non_derivation_exits_3(capsys, monkeypatch):
    from g2lab.exterior import Endo

    monkeypatch.setattr(catalog, "lauret_derivation", lambda a: Endo.identity(6))
    code, report = run_json(capsys, "analyze", "g_a")
    assert code == 3 and report["status"] == "error"
    assert report["command"] == ["analyze", "g_a"]
    assert "Jacobi" in report["results"]["error"]


def test_cli_error_pickle_round_trip():
    err = pickle.loads(pickle.dumps(CliError("bad parameters")))
    assert type(err) is CliError
    assert str(err) == "bad parameters"


def test_failing_parallel_sweep_exits_2():
    # a worker's CliError must reach the parent; a timeout here means it hung
    env = dict(os.environ, PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "g2lab.cli", "analyze", "g_a",
         "--param", "a=1/10,1/2", "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["command"] == ["analyze", "g_a"]


def test_compare_on_another_family_in_a_spawned_worker_exits_2():
    # the CliError is raised in a worker and maps to 2 through EXIT_CODES
    env = dict(os.environ, PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "g2lab.cli", "flow", "g_ab", "--param", "a=2,3",
         "--t-end", "0.1", "--compare", "lauret", "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error" and report["command"] == ["flow", "g_ab"]
    assert report["results"]["error"] == "--compare lauret applies to g_a only"


def test_library_error_in_a_spawned_worker_exits_2():
    # a ParamError raised by catalog.get in a worker, not a CliError, must map to 2
    env = dict(os.environ, PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "g2lab.cli", "analyze", "g_a",
         "--param", "a=x,1", "--jobs", "2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["status"] == "error" and report["command"] == ["analyze", "g_a"]
    assert "Invalid literal for Fraction" in report["results"]["error"]


def test_shared_parser_leaks_nothing_between_invocations(capsys):
    # the parser is built once per process: each of two invocations in one
    # process must report what it reports alone, in a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(g2lab.__file__).parent.parent))
    argvs = (["g2", "g_a", "--backend", "float"], ["g2", "g_a"])
    shared = [run_cli(capsys, *argv) for argv in argvs]
    assert build_parser() is build_parser()
    for argv, (code, out) in zip(argvs, shared):
        alone = subprocess.run([sys.executable, "-m", "g2lab.cli", *argv],
                               capture_output=True, text=True, timeout=60, env=env)
        assert code == alone.returncode == 0
        assert out == alone.stdout


def test_sweep_digest_covers_every_item(capsys):
    digests = []
    for values in ("a=1,2", "a=1,3", "a=1"):
        code, report = run_json(capsys, "analyze", "g_a", "--param", values)
        assert code == 0
        digests.append(report["input_digest"])
    assert len(set(digests)) == 3


def test_pretty_format(capsys):
    code, out = run_cli(capsys, "analyze", "n2", "--format", "pretty")
    assert code == 0
    assert "status: ok" in out


def test_user_catalog_env(capsys, tmp_path, monkeypatch):
    entry = catalog.get("n2")
    payload = {"entries": [{"id": "env_entry",
                            "algebra": entry.algebra.to_json_dict()}]}
    path = tmp_path / "user.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setenv("G2LAB_CATALOG_PATH", str(path))
    code, report = run_json(capsys, "analyze", "env_entry")
    assert code == 0
    assert report["results"]["betti"][1] == 4


def _user_catalog(tmp_path, monkeypatch, entry_id, item):
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"entries": [dict(item, id=entry_id)]}))
    monkeypatch.setenv("G2LAB_CATALOG_PATH", str(path))


def test_user_catalog_cannot_replace_a_builtin_entry_exit_2(capsys, tmp_path, monkeypatch):
    _user_catalog(tmp_path, monkeypatch, "g_a",
                  {"algebra": catalog.get("n2").algebra.to_json_dict()})
    for argv in (["analyze", "g_a"], ["analyze", "g_a", "--param", "a=1"]):
        code, report = run_json(capsys, *argv)
        assert code == 2
        assert report["schema"] == "g2lab-report/1" and report["status"] == "error"
        assert report["command"] == argv[:2]
        error = report["results"]["error"]
        assert error.startswith("cannot load user catalog: ")
        assert "'g_a' would replace a built-in entry" in error
    assert catalog.get("g_a").algebra.n == 7



@pytest.mark.parametrize("entry_id", [5, None])
def test_user_catalog_id_that_is_not_a_string_exit_2(capsys, tmp_path, monkeypatch, entry_id):
    _user_catalog(tmp_path, monkeypatch, entry_id,
                  {"algebra": catalog.get("n2").algebra.to_json_dict()})
    for argv in (["catalog", "list"], ["analyze", "n1"]):
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert_parse_error_report(code, report, argv)
        assert report["results"]["error"] == (
            "cannot load user catalog: user entry id %r is not a string" % entry_id)
        assert captured.err == ""


@pytest.mark.parametrize("given", ["omega", "psi"])
def test_user_catalog_lone_omega_or_psi_exit_2(capsys, tmp_path, monkeypatch, given):
    entry = catalog.get("n2")
    form = dict(zip(("omega", "psi"), entry.su3_pair))[given]
    _user_catalog(tmp_path, monkeypatch, "lone_form",
                  {"algebra": entry.algebra.to_json_dict(), given: form.to_json_dict()})
    code, report = run_json(capsys, "su3", "lone_form")
    assert_parse_error_report(code, report, ["su3", "lone_form"])
    assert "omega and psi must be given together" in report["results"]["error"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_exit_2(capsys, jobs):
    for argv in (["analyze", "g_a", "--param", "a=1/2,1"], ["catalog", "list"]):
        code, report = run_json(capsys, *argv, "--jobs", jobs)
        assert_parse_error_report(code, report, argv[:2])
        assert report["results"]["error"] == "--jobs must be at least 1"

def test_user_catalog_jacobi_failure_exit_3(capsys, tmp_path, monkeypatch):
    _user_catalog(tmp_path, monkeypatch, "non_jacobi", {"algebra": _non_jacobi_n2()})
    code, report = run_json(capsys, "analyze", "non_jacobi")
    assert code == 3 and report["status"] == "error"
    assert "Jacobi" in report["results"]["error"]


def test_user_catalog_verification_failure_exit_4(capsys, tmp_path, monkeypatch):
    # every form on abelian7 is closed, but e^123 is not positive
    phi = {"n": 7, "k": 3, "terms": [{"idx": [1, 2, 3], "c": "1"}]}
    _user_catalog(tmp_path, monkeypatch, "degenerate_phi",
                  {"algebra": catalog.get("abelian7").algebra.to_json_dict(),
                   "phi": phi})
    code, report = run_json(capsys, "analyze", "degenerate_phi")
    assert code == 4 and report["status"] == "error"
    assert "phi positive" in report["results"]["error"]


@pytest.mark.parametrize("argv, code, message", [
    (["search-closed", "n2"], 4, "search needs a 7-dimensional algebra"),
    (["g2", "n1", "--phi", "{phi}"], 4, "G2-structures need a 7-dimensional algebra"),
    (["g2", "{alg6}", "--phi", "{phi}"], 4, "G2-structures need a 7-dimensional algebra"),
    (["g2", "g_a", "--phi", "{two}"], 4, "phi must be a 3-form on R^7"),
    (["su3", "g_a", "--omega", "{omega}", "--psi", "{psi}"], 4,
     "SU(3)-structures need a 6-dimensional algebra"),
    (["su3", "n2", "--omega", "{psi}", "--psi", "{omega}"], 4,
     "expected a 2-form and a 3-form on R^6"),
    (["analyze", "g_a", "--param", "a=x"], 2, "Invalid literal for Fraction"),
    (["analyze", "nonsolv_2", "--param", "mu=abc"], 2, "Invalid literal for Fraction"),
    (["analyze", "g_a", "--param", "a=1/0"], 2, "g_a parameter a:"),
    (["analyze", "g_a", "--param", "a=1", "a=2"], 2, "parameter a given twice"),
    (["analyze", "g_a", "--param", "a=1,2", "a=3"], 2, "parameter a given twice"),
    (["flow", "g_a", "--param", "a=1", "--t-end", "0.1", "--out", "{missing}/x.csv"], 2,
     "No such file or directory"),
    (["analyze", "user_entry", "--param", "_algebra=1"], 2,
     "user_entry does not accept parameters ['_algebra']"),
    (["analyze", "user_entry", "--param", "_id=x"], 2,
     "user_entry does not accept parameters ['_id']"),
    (["flow", "g_ab", "--param", "a=2", "b=1", "--t-end", "0.1", "--compare", "lauret"], 2,
     "--compare lauret applies to g_a only"),
    (["flow", "g_abk", "--param", "a=2", "b=1/2", "k=1", "--t-end", "0.1",
      "--compare", "lauret"], 2, "--compare lauret applies to g_a only"),
    (["flow", "g_ab", "--param", "a=2", "b=1", "--t-end", "0.1", "--compare", "gabk"], 2,
     "--compare gabk applies to g_abk only"),
    (["flow", "g_a", "--param", "a=1", "--t-end", "0.1", "--compare", "lauret"], 4,
     "a = 1 is the steady case"),
    (["flow", "g_abk", "--param", "a=1", "b=0", "k=0", "--t-end", "0.1",
      "--compare", "gabk"], 4, "b must be nonzero"),
    (["su3", "n2", "--omega", "{missing}/omega.json"], 2,
     "--omega and --psi must be given together"),
    (["su3", "n2", "--psi", "{psi}"], 2, "--omega and --psi must be given together"),
], ids=["search-6-dim", "g2-6-dim-entry", "g2-6-dim-file", "g2-2-form", "su3-7-dim",
        "su3-swapped-pair", "param-not-rational", "mu-not-rational", "param-zero-denominator",
        "param-given-twice", "param-sweep-given-twice",
        "out-unwritable",
        "user-entry-_algebra", "user-entry-_id",
        "compare-lauret-on-g_ab", "compare-lauret-on-g_abk", "compare-gabk-on-g_ab",
        "compare-lauret-steady", "compare-gabk-b-zero", "su3-lone-omega", "su3-lone-psi"])
def test_rejected_input_is_a_well_formed_report(capsys, tmp_path, monkeypatch, argv, code,
                                                message):
    omega, psi = catalog.get("n2").su3_pair
    files = {"phi": adapted_phi().to_json_dict(),
             "two": {"n": 7, "k": 2, "terms": [{"idx": [1, 2], "c": "1"}]},
             "omega": omega.to_json_dict(), "psi": psi.to_json_dict(),
             "alg6": catalog.get("n2").algebra.to_json_dict()}
    paths = {"missing": str(tmp_path / "missing")}
    for name, payload in files.items():
        paths[name] = str(tmp_path / (name + ".json"))
        Path(paths[name]).write_text(json.dumps(payload))
    _user_catalog(tmp_path, monkeypatch, "user_entry", {"algebra": files["alg6"]})
    flows = []  # none of these inputs may start a flow; --out fails before it
    monkeypatch.setattr(cli, "laplacian_flow", lambda *a, **k: flows.append(a))
    argv = [a.format(**paths) for a in argv]
    got, report = run_json(capsys, *argv)
    assert flows == []
    assert got == code
    assert report["schema"] == "g2lab-report/1"
    assert report["command"] == argv[:2]
    assert report["status"] == "error"
    assert message in report["results"]["error"]
