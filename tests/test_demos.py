"""The narrative demos run to completion in-process."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_demo_lie_algebra_cohomology(capsys):
    out = run_demo("02_lie_algebra_cohomology.py", capsys)
    assert "the diagonal derivation is a member: True" in out
    assert "extension satisfies Jacobi: True" in out


def test_demo_closed_structures_and_torsion(capsys):
    out = run_demo("03_closed_structures_and_torsion.py", capsys)
    assert "pi_14 fixes tau: True" in out
    assert "eigenvalues {-|tau|^2/6 x3, 0 x4}: True" in out


def test_demo_coupled_su3_structures(capsys):
    out = run_demo("04_coupled_su3_structures.py", capsys)
    assert "contains the diagonal family: True" in out
    assert "extension by the diagonal derivation is closed: True" in out


def test_demo_catalog_and_search(capsys):
    out = run_demo("06_catalog_and_search.py", capsys)
    assert "closed positive form found on the 3-step nilpotent algebra: True" in out
    assert "search-derived form on a non-solvable entry: True" in out
    assert "generic closed positive perturbation found: True" in out
