"""Tests of the benchmark itself: seeded inputs, parameter ranges, checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import g2lab  # noqa: E402
from g2lab import catalog, exterior, flow, g2, liealg  # noqa: E402
from g2lab.exterior import KForm  # noqa: E402

SEEDS = range(300)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    plan = workloads.WORKLOADS[name][0]
    assert plan(7) == plan(7)
    assert plan(7) != plan(8)


def test_flow_parameters_stay_in_documented_ranges():
    for seed in SEEDS:
        plan = workloads.flow_plan(seed)
        assert len(plan) == len(workloads.FLOW_STRATA)
        for entry, params in plan:
            if entry == "g_a":
                assert params["a"] >= Fraction(1, 4) and params["a"] != 1
            else:
                b = params["b"]
                assert b != 0 and Fraction(3, 8) / (b * b) > Fraction(3, 10)


def test_search_parameters_stay_in_documented_ranges():
    for seed in SEEDS:
        for entry, params, search_seed in workloads.search_plan(seed):
            if entry == "nonsolv_2":
                assert Fraction(-1) < params["mu"] <= Fraction(1, 2)
            if entry == "nonsolv_3":
                assert params["mu"] > 0
            assert 0 <= search_seed < 2 ** 32


def test_report_parameters_stay_in_documented_ranges():
    for seed in SEEDS:
        plan = workloads.exact_plan(seed)
        assert len(set(item[3] for item in plan)) == 27
        assert sorted(item[0] for item in plan if item[4]) == [
            "analyze", "g2", "g2-float", "soliton", "su3"]
        for kind, entry, params, argv, _ in plan:
            if entry == "g_a":
                assert params["a"] >= Fraction(1, 4)
            if entry in ("s_ab", "g_abk"):
                assert params["b"] != 0
            if entry == "nonsolv_1":
                assert params["variant"] in ("A", "B")
            if entry == "nonsolv_2":
                assert Fraction(-1) < params["mu"] <= Fraction(1, 2)
            if entry == "nonsolv_3":
                assert params["mu"] > 0


# ---------------------------------------------------------------------------
# the references agree with the library where both apply
# ---------------------------------------------------------------------------

def test_reference_d_matches_ce_differential():
    alg = catalog.get("nonsolv_levi").algebra
    consts = reference.structure_constants(alg)
    rng = np.random.default_rng(0)
    quads = exterior.basis_indices(7, 4)
    for _ in range(3):
        y = rng.standard_normal(35)
        ours = reference.d3(consts, y)
        lib = liealg.ce_differential(alg, KForm(7, 3, y, "float")).np_coeffs
        assert np.allclose([ours[q] for q in quads], lib, atol=1e-12)


def test_reference_positivity_matches_is_positive():
    rng = np.random.default_rng(1)
    base = g2.adapted_phi().to_float().np_coeffs
    ys = base + rng.standard_normal((60, 35)) * 0.6
    lib = [g2.is_positive(7, KForm(7, 3, y, "float")) for y in ys]
    assert 0 < sum(lib) < len(lib)
    assert list(reference.positive(ys)) == lib


def test_reference_closed_forms_match_library():
    for t in (0.0, 0.1, 0.29):
        a, b = Fraction(11, 20), Fraction(-3, 4)
        assert np.allclose(reference.lauret_phi(a, t),
                           flow.lauret_solution(a, t).np_coeffs, rtol=1e-14)
        assert np.allclose(reference.gabk_phi(b, t), flow.gabk_phi(b, t).np_coeffs,
                           rtol=1e-14)


# ---------------------------------------------------------------------------
# output checks pass on real outputs and fail on a wrong reference
# ---------------------------------------------------------------------------

def test_flow_check_fails_against_a_wrong_reference():
    params = {"a": Fraction(1), "b": Fraction(3, 10), "k": Fraction(0)}
    cat = catalog.get("g_abk", **params)
    traj = flow.laplacian_flow(g2.G2Structure(cat.algebra, cat.phi), workloads.FLOW_T_END)
    right = workloads.flow_reference("g_abk", params)
    wrong = workloads.flow_reference("g_abk", dict(params, b=Fraction(1, 3)))
    failure, stats = workloads.check_trajectory(traj, right)
    assert failure is None and stats["accepted_steps"] == len(traj.samples) - 1
    assert "deviation" in workloads.check_trajectory(traj, wrong)[0]


def test_report_checks_fail_against_wrong_references():
    argv = ("soliton", "g_a", "--param", "a=1/2")
    code, text = workloads._invoke(argv)
    right = {"a": Fraction(1, 2)}
    assert workloads.check_report("soliton", "g_a", right, argv, code, text, text) is None
    wrong = workloads.check_report("soliton", "g_a", {"a": Fraction(3, 4)}, argv, code, text)
    assert "lambda" in wrong
    assert "repeated" in workloads.check_report("soliton", "g_a", right, argv, code, text,
                                                text.replace("-4", "-5"))
    argv = ("soliton", "g_abk", "--param", "a=0", "b=1", "k=0")
    code, text = workloads._invoke(argv)
    at_zero = {"a": Fraction(0), "b": Fraction(1), "k": Fraction(0)}
    assert workloads.check_report("soliton", "g_abk", at_zero, argv, code, text) is None
    assert "feasible" in workloads.check_report("soliton", "g_abk", dict(at_zero, a=1),
                                                argv, code, text)
    argv = ("su3", "s_ab", "--param", "a=1", "b=2")
    code, text = workloads._invoke(argv)
    assert workloads.check_report("su3", "s_ab", {"a": 1, "b": Fraction(2)}, argv,
                                  code, text) is None
    assert "su3" in workloads.check_report("su3", "s_ab", {"a": 1, "b": Fraction(3)},
                                           argv, code, text)


def test_search_check_fails_against_a_wrong_replay():
    alg = catalog.get("ffkm_n").algebra
    kernel = np.array([f.np_coeffs for f in g2.closed_3form_basis(alg)])
    consts = reference.structure_constants(alg)
    phi = g2.search_closed_positive(alg, attempts=workloads.SEARCH_ATTEMPTS, seed=5)
    failure, stats = workloads.check_search(phi, kernel, consts, 5)
    assert failure is None and stats["hits"] == 1
    assert "draw" in workloads.check_search(phi, kernel, consts, 6)[0]
    assert "missed" in workloads.check_search(None, kernel, consts, 5)[0]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    original = exterior.wedge
    tracer = Tracer().install()
    try:
        assert not tracer.missing
        for module in (g2lab, exterior, liealg, g2, catalog):
            assert module.wedge is not original
        assert liealg.LieAlgebra.d_matrix.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (g2lab, exterior, liealg, g2, catalog):
        assert module.wedge is original


def test_self_times_add_up_and_counts_repeat():
    tracer = Tracer().install()
    try:
        tracer.op(lambda: catalog.get("n2"))
        first = len(tracer.start)
        tracer.op(lambda: catalog.get("n2"))
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    assert np.all(spans["self"] >= -1e-9)
    ops = spans["name"] == 0
    assert np.isclose(spans["self"].sum(), spans["duration"][ops].sum())
    names = spans["name"]
    assert sorted(names[:first]) == sorted(names[first:])
