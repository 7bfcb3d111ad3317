"""Command-line interface: reports, exit codes, determinism, CSV output."""

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import g2lab
from g2lab import catalog
from g2lab.cli import CliError, main
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


def test_analyze_unknown_entry_exit_2(capsys):
    code, report = run_json(capsys, "analyze", "does_not_exist")
    assert code == 2 and report["status"] == "error"


def test_analyze_bad_param_exit_2(capsys):
    code, _ = run_json(capsys, "analyze", "g_a", "--param", "a=1/10")
    assert code == 2
    code, _ = run_json(capsys, "analyze", "g_a", "--param", "oops")
    assert code == 2


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
    code, _ = run_json(capsys, "g2", "n2", "--default")
    assert code == 4


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


def test_su3_n1_not_proportional(capsys):
    code, report = run_json(capsys, "su3", "n1", "--default")
    assert code == 0
    assert report["results"]["dw2_proportional_to_psi"] is False


def test_su3_sab_coupled_constant(capsys):
    code, report = run_json(capsys, "su3", "s_ab",
                            "--param", "a=1", "b=2", "--default")
    assert code == 0
    assert report["results"]["c"] == "2"


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

    monkeypatch.setattr(flow_mod, "INFEASIBLE_RATIO", 1.0)
    code, report = run_json(capsys, "soliton", "g_abk",
                            "--param", "a=1", "b=1", "k=0")
    assert code == 5
    assert report["status"] == "ambiguous"


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


# -- search-closed -------------------------------------------------------------------

def test_search_closed_ffkm(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n",
                            "--attempts", "10000", "--seed", "7")
    assert code == 0
    assert report["results"]["found"] is True


def test_search_closed_zero_attempts(capsys):
    code, report = run_json(capsys, "search-closed", "n2" if False else "ffkm_n",
                            "--attempts", "0")
    assert code == 0
    assert report["results"]["found"] is False


def test_search_closed_negative_attempts_exit_2(capsys):
    code, report = run_json(capsys, "search-closed", "ffkm_n", "--attempts", "-5")
    assert_parse_error_report(code, report, ["search-closed", "ffkm_n"])
    assert "--attempts" in report["results"]["error"]


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


def test_cli_error_pickle_round_trip():
    err = pickle.loads(pickle.dumps(CliError("bad parameters", 2)))
    assert type(err) is CliError
    assert str(err) == "bad parameters" and err.code == 2


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
    catalog._REGISTRY.pop("env_entry", None)


def _user_catalog(tmp_path, monkeypatch, entry_id, item):
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"entries": [dict(item, id=entry_id)]}))
    monkeypatch.setenv("G2LAB_CATALOG_PATH", str(path))


def test_user_catalog_jacobi_failure_exit_3(capsys, tmp_path, monkeypatch):
    _user_catalog(tmp_path, monkeypatch, "non_jacobi", {"algebra": _non_jacobi_n2()})
    try:
        code, report = run_json(capsys, "analyze", "non_jacobi")
    finally:
        catalog._REGISTRY.pop("non_jacobi", None)
    assert code == 3 and report["status"] == "error"
    assert "Jacobi" in report["results"]["error"]


def test_user_catalog_verification_failure_exit_4(capsys, tmp_path, monkeypatch):
    # every form on abelian7 is closed, but e^123 is not positive
    phi = {"n": 7, "k": 3, "terms": [{"idx": [1, 2, 3], "c": "1"}]}
    _user_catalog(tmp_path, monkeypatch, "degenerate_phi",
                  {"algebra": catalog.get("abelian7").algebra.to_json_dict(),
                   "phi": phi})
    try:
        code, report = run_json(capsys, "analyze", "degenerate_phi")
    finally:
        catalog._REGISTRY.pop("degenerate_phi", None)
    assert code == 4 and report["status"] == "error"
    assert "phi positive" in report["results"]["error"]
