"""Structure equations, cohomology, classification, derivations, extensions."""

from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from g2lab import catalog, linalg
from g2lab.catalog import (
    lauret_derivation,
    n1_derivation,
    nilpotent_n1,
    nilpotent_n2,
    sab_derivation,
    solvable_s_ab,
)
from g2lab.exterior import Endo, KForm, basis_indices, endo_action, wedge
from g2lab.liealg import (
    InvalidStructureError,
    LieAlgebra,
    abelian,
    betti,
    ce_differential,
    check_jacobi,
    derivation_equations,
    derivation_space,
    from_structure_equations,
    is_derivation,
    is_unimodular,
    killing_matrix,
    radical_basis,
    rank_one_extension,
    structure_flags,
)
from g2lab.su3 import adapted_su3_pair

from oracles import (
    ce_differential_oracle,
    kform_to_terms,
    series_dims_oracle,
    sympy_nullity,
    sympy_rank,
    wedge_oracle,
)

SO3 = {1: {(2, 3): -1}, 2: {(3, 1): -1}, 3: {(1, 2): -1}}
SL2 = {1: {(2, 3): -1}, 2: {(1, 2): -2}, 3: {(1, 3): 2}}


def oracle_algebras():
    """Every catalog entry at default or representative parameters, plus
    so(3), sl(2,R) and the abelian algebra of dimension 5."""
    algs = [catalog.get(eid).algebra for eid in catalog.entry_ids()
            if not catalog.describe(eid).ambiguous]
    algs += [catalog.get("nonsolv_1", variant=v).algebra for v in ("A", "B")]
    algs += [from_structure_equations(3, SO3), from_structure_equations(3, SL2),
             abelian(5)]
    return algs


# -- Chevalley-Eilenberg differential ------------------------------------------

def test_differential_of_generator(n2_entry):
    alg = n2_entry.algebra
    assert ce_differential(alg, KForm.monomial(6, (5,))) \
        == KForm.from_terms(6, 2, {(1, 4): 1, (2, 3): 1})


def test_differential_on_abelian_vanishes():
    alg = abelian(6)
    rng = np.random.default_rng(2)
    for k in range(0, 6):
        coeffs = [F(int(c)) for c in
                  rng.integers(-3, 4, size=len(KForm.zero(6, k).coeffs))]
        assert ce_differential(alg, KForm(6, k, coeffs)).is_zero()


def test_differential_of_omega_is_minus_psi(n2_entry):
    omega, psi = adapted_su3_pair()
    assert ce_differential(n2_entry.algebra, omega) == -1 * psi


def test_differential_is_antiderivation(n2_entry, sab_12):
    rng = np.random.default_rng(17)
    for alg in (n2_entry.algebra, sab_12.algebra):
        for _ in range(10):
            p = int(rng.integers(1, 3))
            q = int(rng.integers(1, 3))
            a = KForm(6, p, [F(int(c)) for c in
                             rng.integers(-2, 3, size=len(KForm.zero(6, p).coeffs))])
            b = KForm(6, q, [F(int(c)) for c in
                             rng.integers(-2, 3, size=len(KForm.zero(6, q).coeffs))])
            lhs = ce_differential(alg, wedge(a, b))
            rhs = wedge(ce_differential(alg, a), b) \
                + ((-1) ** p) * wedge(a, ce_differential(alg, b))
            assert lhs == rhs


def test_differential_float_backend_matches_rational(g110_entry):
    alg = g110_entry.algebra
    rng = np.random.default_rng(4)
    coeffs = [F(int(c)) for c in rng.integers(-3, 4, size=35)]
    gamma = KForm(7, 3, coeffs)
    exact = ce_differential(alg, gamma)
    approx = ce_differential(alg, gamma.to_float())
    assert float((exact.to_float() - approx).max_abs()) < 1e-12


def _random_rational_form(rng, n, k):
    size = len(basis_indices(n, k))
    return KForm(n, k, [F(int(p), int(q)) for p, q in
                        zip(rng.integers(-3, 4, size), rng.integers(1, 4, size))])


def test_ce_differential_matches_koszul_oracle():
    # every degree, both backends, each catalog algebra and a change of its basis
    rng = np.random.default_rng(53)
    for alg in oracle_algebras():
        for case in (alg, _random_basis_change(alg, rng)):
            for k in range(case.n):
                gamma = _random_rational_form(rng, case.n, k)
                expected = ce_differential_oracle(case, kform_to_terms(gamma), k)
                assert kform_to_terms(ce_differential(case, gamma)) == expected, (alg, k)
                approx = ce_differential(case, gamma.to_float()).coeffs
                exact = [float(expected.get(idx, 0)) for idx in basis_indices(case.n, k + 1)]
                scale = max([1.0] + [abs(x) for x in exact])
                assert max(abs(x - y) for x, y in zip(approx, exact)) <= 1e-12 * scale


def test_d_matrix_columns_match_koszul_oracle():
    for alg in oracle_algebras():
        for k in range(alg.n):
            m = alg.d_matrix(k)
            rows = basis_indices(alg.n, k + 1)
            for col, idx in enumerate(basis_indices(alg.n, k)):
                got = {rows[r]: row[col] for r, row in enumerate(m) if row[col] != 0}
                assert got == ce_differential_oracle(alg, {idx: F(1)}, k), (alg, idx)


def test_ce_differential_reads_only_the_sparse_columns(monkeypatch, g110_entry):
    # one path for both backends: no dense d, no matvec, no float copy of d
    import inspect

    def dense(*_):
        raise AssertionError("ce_differential used a dense matrix of d")

    alg = LieAlgebra(g110_entry.algebra.d1)  # nothing cached yet
    assert not hasattr(alg, "d_matrix_np")
    assert not any(name.startswith("_d_matrices") for name in vars(alg))
    assert "backend ==" not in inspect.getsource(ce_differential)
    monkeypatch.setattr(LieAlgebra, "d_matrix", dense)
    monkeypatch.setattr(linalg, "matvec", dense)
    gamma = _random_rational_form(np.random.default_rng(59), 7, 3)
    exact = ce_differential(alg, gamma)
    assert kform_to_terms(exact) == ce_differential_oracle(alg, kform_to_terms(gamma), 3)
    approx = ce_differential(alg, gamma.to_float())
    assert approx.backend == "float"
    assert float((exact.to_float() - approx).max_abs()) <= 1e-12 * float(exact.max_abs())


def test_top_degree_differential_is_zero(n2_entry):
    top = KForm.monomial(6, tuple(range(1, 7)))
    assert ce_differential(n2_entry.algebra, top).is_zero()


# -- Jacobi --------------------------------------------------------------------

def test_jacobi_s_ab_and_abelian():
    assert check_jacobi(solvable_s_ab(1, 1)) == 0
    assert check_jacobi(abelian(7)) == 0


def test_jacobi_fails_for_perturbed_n2():
    # adding e^15 to de^6 breaks d^2 = 0
    alg = from_structure_equations(
        6, {5: {(1, 4): 1, (2, 3): 1}, 6: {(1, 3): 1, (2, 4): -1, (1, 5): 1}})
    assert check_jacobi(alg) > 0


def test_jacobi_iff_d_squared_on_all_degrees():
    rng = np.random.default_rng(29)
    base = nilpotent_n2()
    seen_valid = seen_invalid = 0
    for trial in range(60):
        if trial % 3 == 0:
            alg = base
        else:
            eqs = {}
            for k in range(1, 7):
                terms = {}
                for _ in range(int(rng.integers(0, 3))):
                    i = int(rng.integers(1, 6))
                    j = int(rng.integers(i + 1, 7))
                    terms[(i, j)] = F(int(rng.integers(-2, 3)))
                eqs[k] = terms
            alg = from_structure_equations(6, eqs)
        jacobi_ok = check_jacobi(alg) == 0
        dd_ok = True
        for k in range(1, 6):
            for idx, _ in enumerate(KForm.zero(6, k).coeffs):
                mono = [F(0)] * len(KForm.zero(6, k).coeffs)
                mono[idx] = F(1)
                gamma = KForm(6, k, mono)
                if not ce_differential(alg, ce_differential(alg, gamma)).is_zero():
                    dd_ok = False
                    break
            if not dd_ok:
                break
        assert jacobi_ok == dd_ok
        seen_valid += jacobi_ok
        seen_invalid += not jacobi_ok
    assert seen_valid and seen_invalid


# -- Betti numbers ---------------------------------------------------------------

def test_betti_values(n2_entry):
    alg = n2_entry.algebra
    assert betti(alg, 0) == 1
    assert betti(alg, 1) == 4
    assert betti(abelian(7), 3) == 35


def test_betti_against_sympy_oracle(n2_entry, sab_12):
    for alg in (n2_entry.algebra, sab_12.algebra):
        for k in range(0, alg.n + 1):
            dim_k = len(KForm.zero(alg.n, k).coeffs)
            rank_k = sympy_rank(alg.d_matrix(k)) if k < alg.n else 0
            rank_km1 = sympy_rank(alg.d_matrix(k - 1)) if k >= 1 else 0
            assert betti(alg, k) == dim_k - rank_k - rank_km1


def test_top_betti_iff_unimodular(n2_entry, g_half):
    # the top class survives exactly in the unimodular case
    for entry, expect in ((n2_entry, True), (g_half, False)):
        alg = entry.algebra
        assert is_unimodular(alg) == expect
        assert (betti(alg, alg.n) == 1) == expect
    assert betti(abelian(5), 5) == 1


# -- unimodularity and structure flags -------------------------------------------

def test_unimodular_flags(g_half):
    assert is_unimodular(solvable_s_ab(2, 3))
    assert is_unimodular(abelian(4))
    assert not is_unimodular(g_half.algebra)
    assert lauret_derivation(F(1, 2)).trace() == 2


def test_structure_flags_nilpotent_step():
    ffkm = from_structure_equations(
        7, {4: {(1, 2): 1}, 5: {(1, 3): 1}, 6: {(1, 4): 1}, 7: {(1, 5): 1}})
    flags = structure_flags(ffkm)
    assert flags.nilpotent and flags.nilpotent_step == 3
    assert structure_flags(nilpotent_n2()).nilpotent_step == 2
    assert structure_flags(nilpotent_n1()).nilpotent_step == 4
    assert structure_flags(abelian(5)).nilpotent_step == 1


def test_structure_flags_solvable_non_nilpotent():
    flags = structure_flags(solvable_s_ab(1, 1))
    assert flags.solvable and not flags.nilpotent


def test_structure_flags_levi(n2_entry):
    from g2lab.catalog import get

    flags = structure_flags(get("nonsolv_2", mu=F(1, 2)).algebra)
    assert not flags.solvable
    assert flags.semisimple_dim == 3
    assert flags.levi_type == "sl2R"


def test_su2_detected_by_killing_signature():
    # so(3): [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2
    so3 = from_structure_equations(3, SO3)
    assert check_jacobi(so3) == 0
    flags = structure_flags(so3)
    assert flags.radical_dim == 0 and flags.levi_type == "su2"


def test_sl2_direct():
    sl2 = from_structure_equations(3, SL2)
    flags = structure_flags(sl2)
    assert flags.levi_type == "sl2R" and flags.semisimple


def _from_brackets(n, bracket):
    """The algebra with [e_i, e_j] = bracket(i, j) (0-based coefficient vectors)."""
    eqs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k, c in enumerate(bracket(i, j)):
                if c != 0:
                    eqs.setdefault(k + 1, {})[(i + 1, j + 1)] = -c
    return from_structure_equations(n, eqs)


def _euclidean3():
    """e(3) = so(3) + R^3: [L_i, L_j] = eps_ijk L_k, [L_i, P_j] = eps_ijk P_k."""
    def eps(i, j, k):
        return (i - j) * (j - k) * (k - i) // 2

    def bracket(i, j):
        out = [F(0)] * 6
        if j < 3:
            for k in range(3):
                out[k] = F(eps(i, j, k))
        elif i < 3:
            for k in range(3):
                out[3 + k] = F(eps(i, j - 3, k))
        return out
    return _from_brackets(6, bracket)


def _random_basis_change(alg, rng):
    """alg in the random rational basis f_i = sum_a p[a][i] e_a."""
    n = alg.n
    p = [[F(0)]]
    while linalg.det(p) == 0:
        p = [[F(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in range(n)]
             for _ in range(n)]
    cols, to_f = linalg.transpose(p), linalg.inverse(p)
    return _from_brackets(
        n, lambda i, j: linalg.matvec(to_f, alg.bracket(cols[i], cols[j])))


def test_levi_type_survives_a_change_of_basis():
    # a random basis f_i = sum_a p[a][i] e_a puts the radical off the coordinate axes
    rng = np.random.default_rng(43)
    cases = [(from_structure_equations(5, SO3), "su2"), (_euclidean3(), "su2"),
             (from_structure_equations(5, SL2), "sl2R"),
             (catalog.get("nonsolv_levi").algebra, "sl2R")]
    for alg, levi in cases:
        n = alg.n
        flags = structure_flags(alg)
        assert flags.levi_type == levi and flags.radical_dim == n - 3
        moved = _random_basis_change(alg, rng)
        assert check_jacobi(moved) == 0
        moved_flags = structure_flags(moved)
        assert moved_flags.levi_type == levi
        assert moved_flags.radical_dim == flags.radical_dim
        red, pivots = linalg.rref(radical_basis(moved))
        assert any(red[r][c] != 0 for r in range(len(pivots))
                   for c in range(n) if c not in pivots)


def test_structure_flags_match_series_oracle():
    rng = np.random.default_rng(47)
    for alg in oracle_algebras() + [_euclidean3()]:
        for case in (alg, _random_basis_change(alg, rng)):
            flags = structure_flags(case)
            assert (flags.derived_series_dims, flags.lower_central_dims) \
                == series_dims_oracle(case), alg.name


def test_structure_flags_builds_derived_algebra_once(monkeypatch):
    # one span for [g, g], one per further series term, one for the radical
    import g2lab.liealg as liealg_mod

    spans, span = [], liealg_mod._span
    monkeypatch.setattr(liealg_mod, "_span", lambda v: spans.append(v) or span(v))
    for alg in oracle_algebras():
        alg = LieAlgebra(alg.d1, alg.name)  # unclassified: catalog.get classified its own
        spans.clear()
        flags = structure_flags(alg)
        series_terms = len(flags.derived_series_dims) + len(flags.lower_central_dims) - 1
        assert len(spans) == series_terms + 1, alg.name
        assert structure_flags(alg) is flags and len(spans) == series_terms + 1, alg.name


# -- derivations -----------------------------------------------------------------

def test_derivation_space_dimensions(g110_entry):
    assert derivation_space(g110_entry.algebra).dim == 8
    assert derivation_space(abelian(3)).dim == 9


def test_derivation_space_n2_matches_sympy_nullity(n2_entry):
    alg = n2_entry.algebra
    rows = derivation_equations(alg)
    assert derivation_space(alg).dim == sympy_nullity(rows, 36)


def test_derivation_space_members_satisfy_leibniz(n2_entry):
    alg = n2_entry.algebra
    space = derivation_space(alg)
    for d in space.basis:
        assert is_derivation(alg, d)
    assert space.contains(lauret_derivation(F(2, 5)))


def test_derivations_commute_with_differential(n2_entry):
    alg = n2_entry.algebra
    rng = np.random.default_rng(41)
    gamma = KForm(6, 2, [F(int(c)) for c in rng.integers(-3, 4, size=15)])
    for d in derivation_space(alg).basis:
        lhs = endo_action(d, ce_differential(alg, gamma))
        rhs = ce_differential(alg, endo_action(d, gamma))
        assert lhs == rhs


def _structure_constant(alg, i, j, k):
    """c_ij^k = -de^k(e_i, e_j), read off the terms of the 2-form de^k."""
    terms = alg.d1[k].terms()
    if i < j:
        return -terms.get((i + 1, j + 1), F(0))
    if i > j:
        return terms.get((j + 1, i + 1), F(0))
    return F(0)


def _random_rational(rng, size):
    return [F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(size)]


def test_brackets_ad_and_unimodularity_match_structure_equations():
    rng = np.random.default_rng(53)
    for alg in oracle_algebras():
        n = alg.n
        c = [[[_structure_constant(alg, i, j, k) for k in range(n)] for j in range(n)]
             for i in range(n)]
        for i in range(n):
            assert alg.ad(i) == [[c[i][j][k] for j in range(n)] for k in range(n)], alg
            for j in range(n):
                assert alg.bracket_basis(i, j) == tuple(c[i][j]), (alg, i, j)
        for _ in range(5):
            x, y = _random_rational(rng, n), _random_rational(rng, n)
            x[int(rng.integers(0, n))] = F(0)
            expected = tuple(sum((x[i] * y[j] * c[i][j][k] for i in range(n)
                                  for j in range(n)), F(0)) for k in range(n))
            assert alg.bracket(x, y) == expected, alg
        traces = [sum((c[i][j][j] for j in range(n)), F(0)) for i in range(n)]
        assert is_unimodular(alg) == all(t == 0 for t in traces), alg


def _commutes_with_d(alg, d):
    """D is a derivation iff D act de^k = d(D act e^k) for every k."""
    return all(endo_action(d, alg.d1[k])
               == ce_differential(alg, endo_action(d, KForm.monomial(alg.n, (k + 1,))))
               for k in range(alg.n))


def test_is_derivation_matches_commuting_with_d():
    rng = np.random.default_rng(59)
    known = [(nilpotent_n2(), lauret_derivation(a)) for a in (F(0), F(1, 3), F(1))]
    known += [(nilpotent_n1(), n1_derivation(F(2), F(-3))),
              (solvable_s_ab(1, 2), sab_derivation(2, 3)),
              (solvable_s_ab(1, 1), sab_derivation(1, 0))]
    for alg, d in known:
        assert _commutes_with_d(alg, d) and is_derivation(alg, d), alg
    for alg in oracle_algebras():
        n = alg.n
        space = derivation_space(alg)
        for d in space.basis:
            assert _commutes_with_d(alg, d) and is_derivation(alg, d), alg
        for _ in range(3):
            d = Endo([_random_rational(rng, n) for _ in range(n)])
            derivation = _commutes_with_d(alg, d)
            assert is_derivation(alg, d) == derivation, alg
            assert derivation == (space.dim == n * n), alg


# -- rank-one extensions ----------------------------------------------------------

def test_extension_matches_hand_expanded_equations():
    a = F(1, 3)
    alg = rank_one_extension(nilpotent_n2(), lauret_derivation(a))
    expected = from_structure_equations(
        7,
        {1: {(1, 7): a},
         2: {(2, 7): a},
         3: {(3, 7): F(1, 2) - a},
         4: {(4, 7): F(1, 2) - a},
         5: {(1, 4): 1, (2, 3): 1, (5, 7): F(1, 2)},
         6: {(1, 3): 1, (2, 4): -1, (6, 7): F(1, 2)}})
    assert all(x == y for x, y in zip(alg.d1, expected.d1))


def test_extension_with_zero_derivation_is_product(n2_entry):
    alg = rank_one_extension(n2_entry.algebra, Endo.zero(6))
    for i in range(6):
        assert alg.d1[i] == n2_entry.algebra.d1[i].embedded(7)
    assert alg.d1[6].is_zero()


def test_extension_of_sab_carries_closed_form():
    ext = rank_one_extension(solvable_s_ab(1, 1), sab_derivation(1, 0))
    omega, psi = adapted_su3_pair()
    phi = wedge(omega.embedded(7), KForm.monomial(7, (7,))) + psi.embedded(7)
    assert ce_differential(ext, phi).is_zero()


def test_extension_rejects_non_derivation(n2_entry):
    with pytest.raises(ValueError):
        rank_one_extension(n2_entry.algebra, Endo.identity(6))


def test_extension_restriction_recovers_base(sab_12):
    base = sab_12.algebra
    ext = rank_one_extension(base, sab_derivation(2, 3))
    for i in range(6):
        assert ext.d1[i].restricted(6) == base.d1[i]


def test_extension_jacobi_always_holds(n1_entry):
    from g2lab.catalog import n1_derivation

    ext = rank_one_extension(n1_entry.algebra, n1_derivation(F(2), F(-3)))
    assert check_jacobi(ext) == 0


# -- misc ------------------------------------------------------------------------

def test_radical_basis_of_levi_entry():
    from g2lab.catalog import get
    from g2lab.liealg import _bracket_span

    alg = get("nonsolv_levi").algebra
    rad = radical_basis(alg)
    assert len(rad) == 4
    assert len(_bracket_span(alg, rad, rad)) > 0  # non-abelian radical


def test_lie_algebra_json_roundtrip(sab_12):
    data = sab_12.algebra.to_json_dict()
    back = LieAlgebra.from_json_dict(data)
    assert back.n == 6
    assert all(x == y for x, y in zip(back.d1, sab_12.algebra.d1))
    assert back.params == sab_12.algebra.params


def test_structure_equations_require_rational_backend():
    with pytest.raises(ValueError):
        LieAlgebra([KForm.zero(3, 2).to_float()] * 3)


def test_constructor_check_validates_jacobi():
    LieAlgebra(abelian(3).d1, check=True)
    LieAlgebra(nilpotent_n2().d1, check=True)
    broken = from_structure_equations(
        6, {5: {(1, 4): 1, (2, 3): 1}, 6: {(1, 3): 1, (2, 4): -1, (1, 5): 1}})
    with pytest.raises(InvalidStructureError):
        LieAlgebra(broken.d1, check=True)


# -- the exact kernel against independent oracles ----------------------------------

def test_killing_matrix_matches_sympy_trace():
    for alg in oracle_algebras():
        ads = [sympy.Matrix(alg.ad(i)) for i in range(alg.n)]
        expected = [[(ads[i] * ads[j]).trace() for j in range(alg.n)]
                    for i in range(alg.n)]
        assert killing_matrix(alg) == expected, alg


def _leibniz_columns(alg):
    """d e^I for every increasing I of degree < n, by the Leibniz rule
    d(e^i ^ e^J) = de^i ^ e^J - e^i ^ de^J with the shuffle-sum wedge."""
    n = alg.n
    d1 = [kform_to_terms(f) for f in alg.d1]
    cols = {(): {}}
    for k in range(1, n):
        for idx in basis_indices(n, k):
            i, rest = idx[0], idx[1:]
            out = wedge_oracle(d1[i], 2, {rest: F(1)}, k - 1, n) if d1[i] else {}
            if cols[rest]:
                for key, c in wedge_oracle({(i,): F(1)}, 1, cols[rest], k, n).items():
                    out[key] = out.get(key, F(0)) - c
            cols[idx] = {key: c for key, c in out.items() if c != 0}
    return cols


def test_d_matrix_matches_leibniz_oracle():
    for alg in oracle_algebras():
        n = alg.n
        cols = _leibniz_columns(alg)
        for k in range(n + 1):
            m = alg.d_matrix(k)
            if k == n:
                assert m == []
                continue
            rows = basis_indices(n, k + 1)
            assert len(m) == len(rows)
            for col, idx in enumerate(basis_indices(n, k)):
                got = {rows[r]: m[r][col] for r in range(len(rows)) if m[r][col] != 0}
                assert got == cols[idx], (alg, idx)
            if k + 1 < n:  # d o d = 0, summed over the nonzero entries of d_k
                support = [[(r, row[col]) for r, row in enumerate(m) if row[col] != 0]
                           for col in range(len(basis_indices(n, k)))]
                for row in alg.d_matrix(k + 1):
                    for col in support:
                        assert sum(row[r] * x for r, x in col) == 0


def _sparse_rational(rng, rows, cols, density=0.3):
    m = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
          if rng.random() < density else F(0) for _ in range(cols)]
         for _ in range(rows)]
    if rows > 1:
        m[int(rng.integers(0, rows))] = [F(0)] * cols
    if cols > 1:
        c = int(rng.integers(0, cols))
        for row in m:
            row[c] = F(0)
    return m


def test_matvec_and_matmul_match_sympy():
    rng = np.random.default_rng(23)
    for trial in range(40):
        r, inner, c = (int(x) for x in rng.integers(1, 9, size=3))
        a = _sparse_rational(rng, r, inner)
        b = _sparse_rational(rng, inner, c)
        v = _sparse_rational(rng, 1, inner)[0]
        if trial % 5 == 0:
            v = [F(0)] * inner
        if trial % 7 == 0:
            a = [[F(0)] * inner for _ in range(r)]
        expected_mv = list(sympy.Matrix(a) * sympy.Matrix(v))
        expected_mm = (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
        got_mv = linalg.matvec(a, v)
        got_mm = linalg.matmul(a, b)
        assert got_mv == expected_mv
        assert got_mm == expected_mm
        assert all(type(x) is F for x in got_mv)
        assert all(type(x) is F for row in got_mm for x in row)
