"""Catalog of the Lie algebras and structures used throughout the library.

Each entry instantiates a Lie algebra (exact structure constants, rational
parameters), optionally together with an SU(3) pair on six-dimensional
entries or a positive 3-form on seven-dimensional ones, plus a record of
expected structural properties.  The record is re-derived and checked every
time an entry is instantiated, so a catalog regression cannot go unnoticed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .exterior import Endo, KForm, wedge
from .g2 import adapted_phi, is_positive
from .liealg import (
    InvalidStructureError,
    LieAlgebra,
    _bracket_span,
    abelian,
    check_jacobi,
    from_structure_equations,
    is_unimodular,
    radical_basis,
    rank_one_extension,
    structure_flags,
)
from .scalars import RATIONAL, as_rational
from .su3 import adapted_su3_pair, reconstruct_su3, su3_torsion_class


class UnknownEntryError(KeyError):
    pass


class ParamError(ValueError):
    pass


class AmbiguousEntryError(ValueError):
    """The entry's source data is ambiguous; an explicit variant is required."""


class CatalogVerificationError(AssertionError):
    """A re-derived property disagrees with the entry's expected record."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    algebra: LieAlgebra
    params: dict
    su3_pair: Optional[tuple]  # (omega, psi) or None
    phi: Optional[KForm]
    expected: dict
    description: str
    ambiguous: bool = False
    phi_origin: str = ""


@dataclass(frozen=True)
class EntrySpec:
    id: str
    builder: Callable
    param_doc: str
    description: str
    ambiguous: bool = False


_REGISTRY: dict = {}


def _register(spec: EntrySpec):
    _REGISTRY[spec.id] = spec
    return spec


def entry_ids():
    return sorted(_REGISTRY)


def describe(entry_id: str) -> EntrySpec:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None


def get(entry_id: str, **params) -> CatalogEntry:
    spec = describe(entry_id)
    entry = spec.builder(**params)
    _verify(entry)
    return entry


# ---------------------------------------------------------------------------
# verification of expected-property records
# ---------------------------------------------------------------------------

def _verify(entry: CatalogEntry):
    alg = entry.algebra
    exp = entry.expected
    if check_jacobi(alg) != 0:
        raise InvalidStructureError("%s: structure equations violate the Jacobi identity"
                                    % entry.id)
    checks = []
    if "unimodular" in exp:
        checks.append(("unimodular", is_unimodular(alg), exp["unimodular"]))
    flags = None
    if {"solvable", "nilpotent_step", "levi_type", "radical_dim"} & set(exp):
        flags = structure_flags(alg)
    if "solvable" in exp:
        checks.append(("solvable", flags.solvable, exp["solvable"]))
    if "nilpotent_step" in exp:
        checks.append(("nilpotent_step", flags.nilpotent_step, exp["nilpotent_step"]))
    if "levi_type" in exp:
        checks.append(("levi_type", flags.levi_type, exp["levi_type"]))
    if "radical_dim" in exp:
        checks.append(("radical_dim", flags.radical_dim, exp["radical_dim"]))
    if "coupled_c" in exp and entry.su3_pair is not None:
        struct = reconstruct_su3(alg, *entry.su3_pair)
        tc = su3_torsion_class(struct)
        want = exp["coupled_c"]
        if want == "shf":
            checks.append(("torsion class", tc.kind, "symplectic_half_flat"))
        else:
            checks.append(("torsion class", tc.kind, "coupled"))
            checks.append(("coupled c", tc.c, want))
    if "phi_closed" in exp and entry.phi is not None:
        from .liealg import ce_differential

        closed = ce_differential(alg, entry.phi).max_abs() == 0
        checks.append(("phi closed", closed, exp["phi_closed"]))
        checks.append(("phi positive", is_positive(alg, entry.phi), True))
    if "radical_nonabelian" in exp:
        rad = radical_basis(alg)
        derived_rad = _bracket_span(alg, rad, rad)
        checks.append(("radical non-abelian", len(derived_rad) > 0,
                       exp["radical_nonabelian"]))
    for label, got, want in checks:
        if got != want:
            raise CatalogVerificationError(
                "%s: %s is %r, expected %r" % (entry.id, label, got, want))


# ---------------------------------------------------------------------------
# six-dimensional entries
# ---------------------------------------------------------------------------

def nilpotent_n1() -> LieAlgebra:
    return from_structure_equations(
        6,
        {4: {(1, 3): 1},
         5: {(1, 4): 1, (2, 3): 1},
         6: {(1, 3): 1, (1, 5): -1, (2, 4): -1}},
        name="n1")


def nilpotent_n2() -> LieAlgebra:
    return from_structure_equations(
        6,
        {5: {(1, 4): 1, (2, 3): 1},
         6: {(1, 3): 1, (2, 4): -1}},
        name="n2")


def solvable_s_ab(a, b) -> LieAlgebra:
    a, b = as_rational(a), as_rational(b)
    return from_structure_equations(
        6,
        {1: {(2, 6): -a},
         2: {(1, 6): a},
         3: {(1, 6): b, (2, 5): b, (4, 6): a},
         4: {(1, 5): b, (2, 6): -b, (3, 6): -a}},
        name="s_ab", params={"a": a, "b": b})


def lauret_derivation(a) -> Endo:
    """The diagonal derivation of n2 whose extension carries a closed form."""
    a = as_rational(a)
    h = Fraction(1, 2)
    return Endo.diag([a, a, h - a, h - a, h, h])


def n1_derivation(a, b) -> Endo:
    """The two-parameter derivation family of n1 with (D act psi) = psi."""
    a, b = as_rational(a), as_rational(b)
    h = Fraction(1, 2)
    return Endo([
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [a, 0, h, 0, 0, 0],
        [0, a, 0, h, 0, 0],
        [b, 0, 0, 0, h, 0],
        [0, b, 0, 0, 0, h],
    ])


def sab_derivation(b, k) -> Endo:
    """The rotation-plus-shrink derivation of s_ab with (D act psi) = -b psi."""
    b, k = as_rational(b), as_rational(k)
    h = -b / 2
    return Endo([
        [h, k, 0, 0, 0, 0],
        [-k, h, 0, 0, 0, 0],
        [0, 0, h, -k, 0, 0],
        [0, 0, k, h, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ])


def _entry_n1(**params):
    _no_params("n1", params)
    return CatalogEntry(
        id="n1", algebra=nilpotent_n1(), params={},
        su3_pair=adapted_su3_pair(), phi=None,
        expected={"unimodular": True, "solvable": True, "nilpotent_step": 4,
                  "coupled_c": Fraction(-1)},
        description="nilpotent, coupled pair with c = -1; dw2 never proportional to psi",
    )


def _entry_n2(**params):
    _no_params("n2", params)
    return CatalogEntry(
        id="n2", algebra=nilpotent_n2(), params={},
        su3_pair=adapted_su3_pair(), phi=None,
        expected={"unimodular": True, "solvable": True, "nilpotent_step": 2,
                  "coupled_c": Fraction(-1)},
        description="nilpotent, coupled pair with c = -1 and dw2 = (8/3) psi",
    )


def _entry_s_ab(a=Fraction(1), b=Fraction(1), **extra):
    _no_params("s_ab", extra)
    a, b = as_rational(a), as_rational(b)
    alg = solvable_s_ab(a, b)
    coupled = b if b != 0 else "shf"
    if a != 0:
        step = None  # solvable non-nilpotent
    elif b != 0:
        step = 2  # isomorphic to the step-2 nilpotent algebra
    else:
        step = 1  # abelian
    expected = {"unimodular": True, "solvable": True, "coupled_c": coupled,
                "nilpotent_step": step}
    return CatalogEntry(
        id="s_ab", algebra=alg, params={"a": a, "b": b},
        su3_pair=adapted_su3_pair(), phi=None,
        expected=expected,
        description="unimodular solvable family; coupled with c = b when b != 0",
    )


# ---------------------------------------------------------------------------
# seven-dimensional entries
# ---------------------------------------------------------------------------

def _entry_abelian7(**params):
    _no_params("abelian7", params)
    return CatalogEntry(
        id="abelian7", algebra=abelian(7, name="abelian7"), params={},
        su3_pair=None, phi=adapted_phi(),
        expected={"unimodular": True, "solvable": True, "nilpotent_step": 1,
                  "phi_closed": True},
        description="flat baseline; the attached form is parallel",
        phi_origin="adapted",
    )


def _entry_ffkm_n(**params):
    _no_params("ffkm_n", params)
    alg = from_structure_equations(
        7,
        {4: {(1, 2): 1}, 5: {(1, 3): 1}, 6: {(1, 4): 1}, 7: {(1, 5): 1}},
        name="ffkm_n")
    return CatalogEntry(
        id="ffkm_n", algebra=alg, params={},
        su3_pair=None, phi=None,
        expected={"unimodular": True, "solvable": True, "nilpotent_step": 3},
        description="3-step nilpotent algebra; closed positive forms exist and "
                    "are found by randomized search",
    )


def _extension_entry(entry_id, base, deriv, params, description, extra_expected=None):
    alg = rank_one_extension(base, deriv, name=entry_id)
    omega, psi = adapted_su3_pair()
    eta = KForm.monomial(7, (7,))
    phi = wedge(omega.embedded(7), eta) + psi.embedded(7)
    expected = {"phi_closed": True}
    expected.update(extra_expected or {})
    return CatalogEntry(
        id=entry_id, algebra=alg, params=params,
        su3_pair=None, phi=phi, expected=expected,
        description=description, phi_origin="adapted extension",
    )


def _entry_g_a(a=Fraction(1, 2), **extra):
    _no_params("g_a", extra)
    a = as_rational(a)
    if a < Fraction(1, 4):
        raise ParamError("g_a requires a >= 1/4")
    return _extension_entry(
        "g_a", nilpotent_n2(), lauret_derivation(a), {"a": a},
        "one-parameter solvable extensions of n2 carrying algebraic solitons",
        extra_expected={"unimodular": False, "solvable": True,
                        "nilpotent_step": None},
    )


def _entry_g_ab(a=Fraction(1), b=Fraction(1), **extra):
    _no_params("g_ab", extra)
    a, b = as_rational(a), as_rational(b)
    return _extension_entry(
        "g_ab", nilpotent_n1(), n1_derivation(a, b), {"a": a, "b": b},
        "two-parameter extensions of n1 with closed structures",
        extra_expected={"unimodular": False, "solvable": True,
                        "nilpotent_step": None},
    )


def _entry_g_abk(a=Fraction(1), b=Fraction(1), k=Fraction(0), **extra):
    _no_params("g_abk", extra)
    a, b, k = as_rational(a), as_rational(b), as_rational(k)
    expected = {"solvable": True, "nilpotent_step": None}
    if b != 0:
        expected["unimodular"] = False
    return _extension_entry(
        "g_abk", solvable_s_ab(a, b), sab_derivation(b, k),
        {"a": a, "b": b, "k": k},
        "three-parameter extensions of the solvable family; closed but never "
        "an algebraic soliton when a != 0 and b != 0",
        extra_expected=expected,
    )


# ---------------------------------------------------------------------------
# non-solvable classification entries
# ---------------------------------------------------------------------------

_SL2_PART = {1: {(2, 3): -1}, 2: {(1, 2): -2}, 3: {(1, 3): 2}}


def _entry_nonsolv_2(mu=Fraction(1, 2), **extra):
    _no_params("nonsolv_2", extra)
    mu = as_rational(mu)
    if not (Fraction(-1) < mu <= Fraction(1, 2)):
        raise ParamError("nonsolv_2 requires -1 < mu <= 1/2")
    eqs = dict(_SL2_PART)
    eqs.update({5: {(4, 5): -1}, 6: {(4, 6): -mu}, 7: {(4, 7): 1 + mu}})
    alg = from_structure_equations(7, eqs, name="nonsolv_2", params={"mu": mu})
    return CatalogEntry(
        id="nonsolv_2", algebra=alg, params={"mu": mu}, su3_pair=None, phi=None,
        expected={"unimodular": True, "solvable": False, "levi_type": "sl2R",
                  "radical_dim": 4},
        description="trivial Levi decomposition, diagonal radical action",
    )


def _entry_nonsolv_3(mu=Fraction(1), **extra):
    _no_params("nonsolv_3", extra)
    mu = as_rational(mu)
    if not mu > 0:
        raise ParamError("nonsolv_3 requires mu > 0")
    eqs = dict(_SL2_PART)
    eqs.update({5: {(4, 5): -mu},
                6: {(4, 6): mu / 2, (4, 7): -1},
                7: {(4, 6): 1, (4, 7): mu / 2}})
    alg = from_structure_equations(7, eqs, name="nonsolv_3", params={"mu": mu})
    return CatalogEntry(
        id="nonsolv_3", algebra=alg, params={"mu": mu}, su3_pair=None, phi=None,
        expected={"unimodular": True, "solvable": False, "levi_type": "sl2R",
                  "radical_dim": 4},
        description="trivial Levi decomposition, rotational radical action",
    )


def _entry_nonsolv_levi(**params):
    _no_params("nonsolv_levi", params)
    eqs = dict(_SL2_PART)
    eqs.update({4: {(1, 4): -1, (2, 5): -1, (4, 7): -1},
                5: {(1, 5): 1, (3, 4): -1, (5, 7): -1},
                6: {(6, 7): 2}})
    alg = from_structure_equations(7, eqs, name="nonsolv_levi")
    return CatalogEntry(
        id="nonsolv_levi", algebra=alg, params={}, su3_pair=None, phi=None,
        expected={"unimodular": True, "solvable": False, "levi_type": "sl2R",
                  "radical_dim": 4, "radical_nonabelian": True},
        description="non-trivial Levi decomposition; radical is a solvable "
                    "non-abelian 4-dimensional ideal",
    )


#: the published list for this family has eight items for seven differentials;
#: the two self-consistent readings are shipped behind an explicit variant flag
NONSOLV1_VARIANTS = {
    # one unimodular reading: the sixth and seventh items form de^6
    "A": {5: {(4, 5): -1},
          6: {(4, 6): Fraction(1, 2), (4, 7): -1},
          7: {(4, 7): Fraction(1, 2)}},
    # the other reading merges the last two items into de^7 (not unimodular)
    "B": {5: {(4, 5): -1},
          6: {(4, 6): Fraction(1, 2)},
          7: {(4, 7): Fraction(-1, 2)}},
}


def _entry_nonsolv_1(variant=None, **extra):
    _no_params("nonsolv_1", extra)
    if variant is None:
        raise AmbiguousEntryError(
            "nonsolv_1 source data is ambiguous; pass variant='A' (unimodular "
            "reading) or variant='B' (non-unimodular reading)")
    if variant not in NONSOLV1_VARIANTS:
        raise ParamError("variant must be 'A' or 'B'")
    eqs = dict(_SL2_PART)
    eqs.update(NONSOLV1_VARIANTS[variant])
    alg = from_structure_equations(7, eqs, name="nonsolv_1%s" % variant)
    return CatalogEntry(
        id="nonsolv_1", algebra=alg, params={"variant": variant},
        su3_pair=None, phi=None,
        expected={"solvable": False, "levi_type": "sl2R",
                  "unimodular": (variant == "A")},
        description="ambiguous source list; variant A is the unimodular "
                    "reading, variant B fails unimodularity",
        ambiguous=True,
    )


def _no_params(entry_id, params):
    if params:
        raise ParamError("%s does not accept parameters %s"
                         % (entry_id, sorted(params)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_register(EntrySpec("abelian7", _entry_abelian7, "none",
                    "flat baseline with the adapted parallel form"))
_register(EntrySpec("n1", _entry_n1, "none",
                    "nilpotent step-4 algebra with coupled pair (c = -1)"))
_register(EntrySpec("n2", _entry_n2, "none",
                    "nilpotent step-2 algebra with coupled pair (c = -1)"))
_register(EntrySpec("ffkm_n", _entry_ffkm_n, "none",
                    "3-step nilpotent algebra used for closed-form search"))
_register(EntrySpec("s_ab", _entry_s_ab, "a, b rational",
                    "unimodular solvable family, coupled with c = b"))
_register(EntrySpec("g_a", _entry_g_a, "a rational >= 1/4",
                    "soliton-carrying extensions of n2"))
_register(EntrySpec("g_ab", _entry_g_ab, "a, b rational",
                    "extensions of n1 with closed structures"))
_register(EntrySpec("g_abk", _entry_g_abk, "a, b, k rational",
                    "extensions of the solvable family (no algebraic soliton "
                    "for a != 0 and b != 0)"))
_register(EntrySpec("nonsolv_1", _entry_nonsolv_1, "variant in {'A', 'B'}",
                    "first trivial-Levi family (ambiguous source data)",
                    ambiguous=True))
_register(EntrySpec("nonsolv_2", _entry_nonsolv_2, "mu rational in (-1, 1/2]",
                    "second trivial-Levi family"))
_register(EntrySpec("nonsolv_3", _entry_nonsolv_3, "mu rational > 0",
                    "third trivial-Levi family"))
_register(EntrySpec("nonsolv_levi", _entry_nonsolv_levi, "none",
                    "non-trivial Levi decomposition"))


#: retry ladder for the randomized search (primary seed plus three fallbacks)
SEARCH_SEEDS = (3, 0, 1, 2)


def search_derived_phi(entry: CatalogEntry, seed=None, attempts=30000):
    """A closed positive form for entries that do not ship one.

    The non-solvable classification entries are known to admit closed
    positive forms but no explicit expression is recorded for them; this
    returns a randomized-search representative (deterministic per seed),
    clearly search-derived rather than canonical.  With seed=None the
    documented retry ladder is walked until a form is found.
    """
    from .g2 import search_closed_positive

    if entry.phi is not None:
        return entry.phi
    seeds = SEARCH_SEEDS if seed is None else (seed,)
    for s in seeds:
        phi = search_closed_positive(entry.algebra, attempts=attempts, seed=s)
        if phi is not None:
            return phi
    return None


def closed_entry_instances():
    """Catalog entries carrying a closed positive 3-form, over sample params.

    Used by the curvature property suites: every instance returned here has
    an attached phi with d phi = 0.  Every instance except ``abelian7`` is
    non-unimodular, so Bryant's bound Scal^2 <= 3|Ric|^2 need not hold
    pointwise on them.
    """
    instances = [get("abelian7")]
    for a in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        instances.append(get("g_a", a=a))
    for (a, b) in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1))):
        instances.append(get("g_ab", a=a, b=b))
    for (a, b, k) in ((Fraction(1), Fraction(1), Fraction(0)),
                      (Fraction(1), Fraction(2), Fraction(1)),
                      (Fraction(2), Fraction(1), Fraction(3))):
        instances.append(get("g_abk", a=a, b=b, k=k))
    return instances


# ---------------------------------------------------------------------------
# user catalogs
# ---------------------------------------------------------------------------

def load_user_catalog(path):
    """Register parameterless entries from a JSON file.

    Schema: {"entries": [{"id": ..., "algebra": <liealg JSON>,
                          "phi": <KForm JSON, optional>,
                          "omega": ..., "psi": ... (optional pair),
                          "description": ...}]}
    Returns the list of registered ids.
    """
    with open(path) as fh:
        data = json.load(fh)
    ids = []
    for item in data.get("entries", []):
        entry_id = item["id"]
        algebra = LieAlgebra.from_json_dict(item["algebra"])
        phi = KForm.from_json_dict(item["phi"], backend=RATIONAL) \
            if "phi" in item else None
        pair = None
        if "omega" in item and "psi" in item:
            pair = (KForm.from_json_dict(item["omega"], backend=RATIONAL),
                    KForm.from_json_dict(item["psi"], backend=RATIONAL))
        description = item.get("description", "user entry")

        def builder(_algebra=algebra, _phi=phi, _pair=pair, _id=entry_id,
                    _descr=description, **params):
            _no_params(_id, params)
            expected = {}
            if _phi is not None:
                expected["phi_closed"] = True
            return CatalogEntry(id=_id, algebra=_algebra, params={},
                                su3_pair=_pair, phi=_phi, expected=expected,
                                description=_descr, phi_origin="user catalog")

        _register(EntrySpec(entry_id, builder, "none", description))
        ids.append(entry_id)
    return ids
