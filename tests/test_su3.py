"""SU(3)-structures: reconstruction, torsion classes, w2, derivations."""

from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from g2lab import catalog, linalg, su3
from g2lab.exterior import Endo, KForm, endo_action, inner, norm_sq, wedge
from g2lab.liealg import abelian, ce_differential, check_jacobi, derivation_space
from g2lab.su3 import (
    SU3ConstructionError,
    adapted_psi_hat,
    adapted_su3_pair,
    check_dw2_prop_psi,
    find_compatible_derivations,
    g2_from_extension,
    reconstruct_su3,
    su3_torsion_class,
    w2_of,
)

from oracles import (
    compatible_derivations_oracle,
    kform_to_terms,
    primitive_11_oracle,
    sympy_rank,
    wedge_oracle,
)

IDENTITY6 = tuple(tuple(F(1) if i == j else F(0) for j in range(6))
                  for i in range(6))


@pytest.fixture(scope="module")
def s_n2(n2_entry):
    return reconstruct_su3(n2_entry.algebra, *n2_entry.su3_pair)


@pytest.fixture(scope="module")
def s_n1(n1_entry):
    return reconstruct_su3(n1_entry.algebra, *n1_entry.su3_pair)


# -- reconstruction ----------------------------------------------------------------

def test_adapted_reconstruction(s_n2):
    assert s_n2.psi_hat == adapted_psi_hat()
    assert s_n2.metric.g == IDENTITY6
    # J e_1 = e_2, J e_3 = e_4, J e_5 = e_6
    assert s_n2.j.apply((1, 0, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)
    assert s_n2.j.apply((0, 0, 1, 0, 0, 0)) == (0, 0, 0, 1, 0, 0)


def test_normalisation_identity(s_n2):
    lhs = 3 * wedge(s_n2.psi, s_n2.psi_hat)
    om = s_n2.omega
    rhs = 2 * wedge(wedge(om, om), om)
    assert lhs == rhs


def test_psi_hat_compatibilities(s_n2):
    assert wedge(s_n2.omega, s_n2.psi).is_zero()
    assert wedge(s_n2.omega, s_n2.psi_hat).is_zero()


def test_degenerate_omega_rejected(n2_entry):
    _, psi = adapted_su3_pair()
    with pytest.raises(SU3ConstructionError, match="omega degenerate"):
        reconstruct_su3(n2_entry.algebra,
                        KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1}), psi)


def test_unstable_psi_rejected(n2_entry):
    omega, _ = adapted_su3_pair()
    with pytest.raises(SU3ConstructionError, match="psi not stable"):
        reconstruct_su3(n2_entry.algebra, omega, KForm.monomial(6, (1, 3, 5)))


def test_incompatible_pair_rejected(n2_entry):
    omega, psi = adapted_su3_pair()
    # a stable psi that is not omega-compatible: swap two covectors
    moved = KForm.from_terms(
        6, 3, {(1, 2, 5): 1, (1, 4, 6): -1, (3, 2, 6): -1, (3, 4, 5): -1})
    with pytest.raises(SU3ConstructionError):
        reconstruct_su3(n2_entry.algebra, omega, moved)


def test_scaling_homogeneity():
    omega, psi = adapted_su3_pair()
    t = F(3)
    scaled = reconstruct_su3(abelian(6), t**2 * omega, t**3 * psi)
    assert scaled.metric.g == tuple(
        tuple(t * t * IDENTITY6[i][j] for j in range(6)) for i in range(6))
    lhs = 3 * wedge(scaled.psi, scaled.psi_hat)
    om = scaled.omega
    assert lhs == 2 * wedge(wedge(om, om), om)


def test_reconstruction_idempotent(s_n2):
    again = reconstruct_su3(s_n2.algebra, s_n2.omega, s_n2.psi)
    assert again.psi_hat == s_n2.psi_hat
    assert again.j == s_n2.j
    assert again.metric.g == s_n2.metric.g


def test_float_reconstruction_close_to_exact(s_n2):
    approx = reconstruct_su3(s_n2.algebra, s_n2.omega.to_float(),
                             s_n2.psi.to_float())
    assert float((approx.psi_hat - s_n2.psi_hat.to_float()).max_abs()) < 1e-12


def test_definiteness_branches_agree_between_backends():
    # J = -K/sqrt(-lam) gives the adapted pair the same psi_hat in both
    # backends; the other two pairs give an indefinite g, rejected by both
    omega, psi = adapted_su3_pair()
    exact = reconstruct_su3(abelian(6), omega, psi)
    approx = reconstruct_su3(abelian(6), omega.to_float(), psi.to_float())
    assert float((approx.psi_hat - exact.psi_hat.to_float()).max_abs()) == 0
    flipped_omega = KForm.from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): -1})
    flipped_psi = KForm.from_terms(
        6, 3, {(1, 3, 5): 1, (1, 4, 6): 1, (2, 3, 6): 1, (2, 4, 5): -1})
    for pair in ((flipped_omega, psi), (omega, flipped_psi)):
        for om, ps in (pair, (pair[0].to_float(), pair[1].to_float())):
            with pytest.raises(SU3ConstructionError, match="metric not positive"):
                reconstruct_su3(abelian(6), om, ps)


def _error_order_cases():
    omega, psi = adapted_su3_pair()
    return (
        # stable and compatible, but 3 psi ^ psi_hat = 8 omega^3
        ((omega, 2 * psi), "incompatible pair"),
        # non-degenerate, but omega ^ psi = -e^12345
        ((omega + KForm.monomial(6, (1, 3)), psi), "incompatible pair"),
        # passes every test on psi_hat, but omega^3 < 0
        ((-omega, psi), "metric not positive"),
    )


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_reconstruction_error_order(backend):
    for (omega, psi), message in _error_order_cases():
        if backend == "float":
            omega, psi = omega.to_float(), psi.to_float()
        with pytest.raises(SU3ConstructionError, match=message):
            reconstruct_su3(abelian(6), omega, psi)


def _pullback(form, a):
    """A^* form, with e^i -> sum_j a[i][j] e^j."""
    theta = [KForm.from_terms(6, 1, {(j + 1,): a[i][j] for j in range(6)})
             for i in range(6)]
    out = KForm.zero(6, form.k)
    for idx, c in kform_to_terms(form).items():
        term = theta[idx[0]]
        for i in idx[1:]:
            term = wedge(term, theta[i])
        out = out + c * term
    return out


def test_reconstruction_is_gl6_equivariant():
    # g pulls back to A^T g A when det A > 0; when det A < 0 the pulled-back
    # omega^3 is negative and the pair is rejected, in both backends
    import random

    rng = random.Random(20)
    omega, psi = adapted_su3_pair()
    signs = set()
    for _ in range(12):
        a = [[rng.randint(-1, 1) for _ in range(6)] for _ in range(6)]
        det = linalg.det(a)
        if det == 0:
            continue
        signs.add(det > 0)
        pair = (_pullback(omega, a), _pullback(psi, a))
        for om, ps in (pair, (pair[0].to_float(), pair[1].to_float())):
            if det < 0:
                with pytest.raises(SU3ConstructionError, match="metric not positive"):
                    reconstruct_su3(abelian(6), om, ps)
                continue
            struct = reconstruct_su3(abelian(6), om, ps)
            want = linalg.matmul(linalg.transpose(a), a)
            assert max(abs(struct.metric.g[i][j] - want[i][j])
                       for i in range(6) for j in range(6)) <= 1e-12 * max(
                           abs(x) for row in want for x in row)
    assert signs == {True, False}


# -- torsion classes -----------------------------------------------------------------

def test_n2_coupled(s_n2):
    tc = su3_torsion_class(s_n2)
    assert tc.kind == "coupled" and tc.c == F(-1)


def test_sab_coupled_constant_is_b():
    for a, b in ((F(1), F(2)), (F(3), F(-1)), (F(0), F(1))):
        entry = catalog.get("s_ab", a=a, b=b)
        struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
        tc = su3_torsion_class(struct)
        assert tc.kind == "coupled" and tc.c == b


def test_sab_b_zero_is_symplectic_half_flat():
    entry = catalog.get("s_ab", a=2, b=0)
    struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
    tc = su3_torsion_class(struct)
    assert tc.kind == "symplectic_half_flat"
    assert ce_differential(entry.algebra, struct.psi_hat).is_zero()


def test_generic_class():
    # on the algebra with de^5 = e^14 + e^23 alone, the adapted pair has
    # d omega = e^146 + e^236, which is nonzero and not proportional to psi
    from g2lab.liealg import from_structure_equations

    alg = from_structure_equations(6, {5: {(1, 4): 1, (2, 3): 1}})
    omega, psi = adapted_su3_pair()
    struct = reconstruct_su3(alg, omega, psi)
    tc = su3_torsion_class(struct)
    assert tc.kind == "generic" and tc.c is None


def test_coupled_implies_psi_closed():
    for entry_id, params in (("n1", {}), ("n2", {}),
                             ("s_ab", {"a": 1, "b": 2})):
        entry = catalog.get(entry_id, **params)
        struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
        if su3_torsion_class(struct).kind == "coupled":
            assert ce_differential(entry.algebra, struct.psi).is_zero()


# -- w2 ------------------------------------------------------------------------------

def test_primitive_11_space_dimension(s_n2):
    basis = primitive_11_oracle(s_n2.j.rows, kform_to_terms(s_n2.omega))
    assert len(basis) == 8
    om2 = wedge_oracle(kform_to_terms(s_n2.omega), 2, kform_to_terms(s_n2.omega), 2, 6)
    for b in basis:
        assert wedge_oracle(b, 2, om2, 4, 6) == {}


def _w2_cases():
    """(structure, c) pairs covering n1, n2, s_ab (b = 0 too) and abelian(6)."""
    cases = []
    for entry_id, params, c in (("n1", {}, F(-1)), ("n2", {}, F(-1)),
                                ("s_ab", {"a": 1, "b": 2}, F(2)),
                                ("s_ab", {"a": 2, "b": 0}, F(0)),
                                ("s_ab", {"a": F(-3, 2), "b": F(1, 3)}, F(1, 3)),
                                ("s_ab", {"a": 0, "b": -1}, F(-1))):
        entry = catalog.get(entry_id, **params)
        cases.append((reconstruct_su3(entry.algebra, *entry.su3_pair), c))
    omega, psi = adapted_su3_pair()
    cases.append((reconstruct_su3(abelian(6), omega, psi), F(0)))
    cases.append((reconstruct_su3(abelian(6), 9 * omega, 27 * psi), F(0)))
    return cases


def test_w2_is_primitive_11_and_solves_its_equation():
    # w2 = -*(d psi_hat + (2c/3) omega^2) lies in the oracle's primitive (1,1)
    # span, and w2 ^ omega gives back d psi_hat + (2c/3) omega^2
    for struct, c in _w2_cases():
        w2 = w2_of(struct, c).w2
        basis = primitive_11_oracle(struct.j.rows, kform_to_terms(struct.omega))
        w2_terms = kform_to_terms(w2)
        vectors = [[b.get(pair, F(0)) for pair in combinations(range(6), 2)]
                   for b in basis + [w2_terms]]
        assert sympy_rank(vectors[:-1]) == sympy_rank(vectors) == 8
        rhs = ce_differential(struct.algebra, struct.psi_hat) \
            + F(2, 3) * c * wedge(struct.omega, struct.omega)
        assert wedge_oracle(w2_terms, 2, kform_to_terms(struct.omega), 2, 6) \
            == kform_to_terms(rhs)


def test_w2_with_inferred_constant(s_n2):
    sab = catalog.get("s_ab", a=1, b=2).su3_structure
    for struct, c in ((s_n2, F(-1)), (sab, F(2))):
        assert w2_of(struct) == w2_of(struct, c)
    from g2lab.liealg import from_structure_equations

    generic = reconstruct_su3(from_structure_equations(6, {5: {(1, 4): 1, (2, 3): 1}}),
                              *adapted_su3_pair())
    with pytest.raises(ValueError, match="coupled or half-flat"):
        w2_of(generic)


def test_w2_guard_rejects_a_wrong_constant(s_n2):
    for struct in (s_n2, s_n2.to_float()):
        for c in (0, -2):
            with pytest.raises(ArithmeticError, match="inconsistent"):
                w2_of(struct, c)


def test_float_w2_matches_exact():
    for struct, c in _w2_cases()[:6]:
        exact = w2_of(struct, c).w2
        approx = w2_of(struct.to_float(), c).w2
        assert float((approx - exact.to_float()).max_abs()) <= 1e-14


def test_n2_w2_golden_value(s_n2):
    data = w2_of(s_n2, -1)
    assert data.w2 == KForm.from_terms(
        6, 2, {(1, 2): F(4, 3), (3, 4): F(4, 3), (5, 6): F(-8, 3)})


def test_sab_w2_golden_value():
    for b in (F(1), F(2), F(-3)):
        entry = catalog.get("s_ab", a=1, b=b)
        struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
        data = w2_of(struct, b)
        assert data.w2 == KForm.from_terms(
            6, 2, {(1, 2): F(-4, 3) * b, (3, 4): F(8, 3) * b,
                   (5, 6): F(-4, 3) * b})


def test_abelian_w2_vanishes():
    omega, psi = adapted_su3_pair()
    struct = reconstruct_su3(abelian(6), omega, psi)
    data = w2_of(struct, 0)
    assert data.w2.is_zero()


def test_w2_orthogonal_to_omega_and_j_invariant(s_n2, sab_12):
    for struct, c in ((s_n2, F(-1)),
                      (reconstruct_su3(sab_12.algebra, *sab_12.su3_pair), F(2))):
        w2 = w2_of(struct, c).w2
        assert inner(struct.metric, w2, struct.omega) == 0
        j = struct.j.rows
        for i in range(6):
            for jdx in range(6):
                lhs = sum(j[m][i] * j[njdx][jdx] * w2.value((m + 1, njdx + 1))
                          for m in range(6) for njdx in range(6))
                assert lhs == w2.value((i + 1, jdx + 1))


def test_w2_defining_equation(s_n2):
    data = w2_of(s_n2, -1)
    om2 = wedge(s_n2.omega, s_n2.omega)
    lhs = ce_differential(s_n2.algebra, s_n2.psi_hat)
    rhs = F(-2, 3) * F(-1) * om2 + wedge(data.w2, s_n2.omega)
    assert lhs == rhs


# -- dw2 proportionality ----------------------------------------------------------------

def test_n2_dw2_proportional(s_n2):
    data = w2_of(s_n2, -1)
    prop = check_dw2_prop_psi(s_n2, data.w2)
    assert prop.proportional and prop.factor == F(8, 3)
    assert norm_sq(s_n2.metric, data.w2) == F(32, 3)


def test_exact_dw2_factor_rejects_a_scaled_w2(s_n2):
    # d(l w2) = l mu psi but |l w2|^2/4 = l^2 mu: off by 1e-12, inside any float threshold
    w2 = (1 + F(1, 10 ** 12)) * w2_of(s_n2, -1).w2
    with pytest.raises(ArithmeticError, match="differs from"):
        check_dw2_prop_psi(s_n2, w2)


def test_sab_dw2_proportional():
    for b in (F(1), F(3)):
        entry = catalog.get("s_ab", a=2, b=b)
        struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
        data = w2_of(struct, b)
        prop = check_dw2_prop_psi(struct, data.w2)
        assert prop.proportional and prop.factor == F(8, 3) * b * b


def test_n1_dw2_not_proportional(s_n1):
    data = w2_of(s_n1, -1)
    prop = check_dw2_prop_psi(s_n1, data.w2)
    assert not prop.proportional


# -- compatible derivations ---------------------------------------------------------------

def test_n2_family_contains_lauret_derivations(s_n2, n2_entry):
    fam = find_compatible_derivations(n2_entry.algebra, s_n2, -1)
    assert not fam.empty
    for a in (F(1, 4), F(1, 2), F(1), F(2)):
        assert fam.contains(catalog.lauret_derivation(a))


def test_n1_family_is_two_dimensional(s_n1, n1_entry):
    fam = find_compatible_derivations(n1_entry.algebra, s_n1, -1)
    assert fam.dim == 2
    for a, b in ((F(0), F(0)), (F(1), F(2)), (F(-3), F(5))):
        assert fam.contains(catalog.n1_derivation(a, b))


def test_sab_family_contains_rotations(sab_12):
    struct = reconstruct_su3(sab_12.algebra, *sab_12.su3_pair)
    fam = find_compatible_derivations(sab_12.algebra, struct, 2)
    assert fam.dim == 1
    for k in (F(0), F(1), F(-7)):
        assert fam.contains(catalog.sab_derivation(2, k))


def test_family_members_are_derivations(s_n2, n2_entry):
    from g2lab.liealg import is_derivation

    fam = find_compatible_derivations(n2_entry.algebra, s_n2, -1)
    assert is_derivation(n2_entry.algebra, fam.particular)
    for d in fam.directions:
        assert is_derivation(n2_entry.algebra, d)


def test_family_solves_action_equation(s_n2, n2_entry):
    from g2lab.exterior import endo_action

    fam = find_compatible_derivations(n2_entry.algebra, s_n2, -1)
    member = fam.element(F(1, 3), *([0] * (fam.dim - 1)))
    assert endo_action(member, s_n2.psi) == s_n2.psi


def _flat(rows):
    return [x for row in rows for x in row]


def _same_family_as_oracle(alg, struct, c):
    """Assert that find_compatible_derivations and the oracle's solve in the
    n^2 entries of D give the same affine subspace; return whether it is empty."""
    fam = find_compatible_derivations(alg, struct, c)
    particular, directions = compatible_derivations_oracle(
        alg, kform_to_terms(struct.psi), c)
    ours, theirs = [_flat(d.rows) for d in fam.directions], [_flat(d) for d in directions]
    rank = sympy_rank(ours)
    assert rank == len(ours) == len(theirs) == sympy_rank(theirs) == sympy_rank(ours + theirs)
    assert fam.empty == (particular is None)
    if particular is None:
        assert fam.dim == -1
        return True
    assert fam.dim == len(theirs)
    assert fam.contains(Endo(particular))
    gap = [a - b for a, b in zip(_flat(fam.particular.rows), _flat(particular))]
    assert sympy_rank(theirs + [gap]) == rank
    return False


@pytest.mark.parametrize("entry_id, params, c", [
    ("n1", {}, -1), ("n2", {}, -1), ("s_ab", {"a": 1, "b": 2}, 2), ("n2", {}, 0)])
def test_family_matches_the_entrywise_oracle(entry_id, params, c):
    entry = catalog.get(entry_id, **params)
    struct = reconstruct_su3(entry.algebra, *entry.su3_pair)
    assert not _same_family_as_oracle(entry.algebra, struct, c)


def test_family_matches_the_entrywise_oracle_on_random_algebras():
    from test_acceptance import _random_structure_equations

    rng = np.random.default_rng(5)
    omega, psi = adapted_su3_pair()
    empty = []
    while len(empty) < 60:
        alg = _random_structure_equations(rng)
        if check_jacobi(alg) == 0:
            empty.append(_same_family_as_oracle(alg, reconstruct_su3(alg, omega, psi), 1))
    assert empty.count(True) == 12  # both branches are covered


def test_family_acts_once_per_basis_derivation(monkeypatch, n2_entry, s_n2):
    calls = []

    def counted(a, gamma):
        calls.append(a)
        return endo_action(a, gamma)

    monkeypatch.setattr(su3, "endo_action", counted)
    find_compatible_derivations(n2_entry.algebra, s_n2, -1)
    assert len(calls) == derivation_space(n2_entry.algebra).dim < 36


# -- extensions ------------------------------------------------------------------------

def test_extension_closed_for_compatible_derivations(s_n2):
    res = g2_from_extension(s_n2, catalog.lauret_derivation(F(1, 3)))
    assert res.closed
    assert res.structure.is_closed()


def test_extension_closed_for_sab(sab_12):
    struct = reconstruct_su3(sab_12.algebra, *sab_12.su3_pair)
    res = g2_from_extension(struct, catalog.sab_derivation(2, 5))
    assert res.closed


def test_extension_not_closed_for_identity(s_n2):
    res = g2_from_extension(s_n2, Endo.identity(6))
    assert not res.closed
    assert not res.structure.is_closed()


def test_extension_threeway_agreement(s_n2):
    from g2lab.exterior import endo_action

    for d in (catalog.lauret_derivation(F(1, 2)), Endo.zero(6)):
        res = g2_from_extension(s_n2, d)
        cond = (ce_differential(s_n2.algebra, s_n2.omega)
                + endo_action(d, s_n2.psi)).is_zero() \
            and ce_differential(s_n2.algebra, s_n2.psi).is_zero()
        direct = ce_differential(res.algebra, res.structure.phi).is_zero()
        assert res.closed == cond == direct


def test_extension_tests_derivation_once(s_n2, monkeypatch):
    from g2lab import liealg, su3

    counts = {"is_derivation": 0, "check_jacobi": 0}

    def counting(name):
        fn = getattr(liealg, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    is_derivation = counting("is_derivation")
    monkeypatch.setattr(liealg, "is_derivation", is_derivation)
    monkeypatch.setattr(su3, "is_derivation", is_derivation)
    monkeypatch.setattr(liealg, "check_jacobi", counting("check_jacobi"))
    res = g2_from_extension(s_n2, catalog.lauret_derivation(F(1, 2)))
    assert res.closed
    # one derivation test, and the derivation's extension keeps its Jacobi guard
    assert counts == {"is_derivation": 1, "check_jacobi": 1}


def test_su3_json_roundtrip(s_n2):
    data = s_n2.to_json_dict()
    assert KForm.from_json_dict(data["omega"]) == s_n2.omega
    assert KForm.from_json_dict(data["psi_hat"]) == s_n2.psi_hat


def test_su3_from_json_reconstructs_missing_psi_hat(s_n2):
    from g2lab.su3 import SU3Structure

    data = s_n2.to_json_dict()
    del data["psi_hat"]
    loaded = SU3Structure.from_json_dict(s_n2.algebra, data)
    assert loaded.psi_hat == s_n2.psi_hat
    assert loaded.metric.g == s_n2.metric.g


def test_su3_from_json_checks_stated_psi_hat(s_n2):
    from g2lab.su3 import SU3Structure

    data = s_n2.to_json_dict()
    data["psi_hat"] = (2 * s_n2.psi_hat).to_json_dict()
    with pytest.raises(SU3ConstructionError):
        SU3Structure.from_json_dict(s_n2.algebra, data)
