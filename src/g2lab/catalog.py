"""Catalog of the Lie algebras and structures used throughout the library.

Each entry instantiates a Lie algebra (exact structure constants, rational
parameters), optionally together with an SU(3) pair on six-dimensional
entries or a positive 3-form on seven-dimensional ones, plus a record of
expected structural properties.  The record is re-derived and checked every
time an entry is instantiated, so a catalog regression cannot go unnoticed.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional

from .exterior import Endo, KForm
from .g2 import adapted_phi, is_positive, search_closed_positive
from .liealg import (
    InvalidStructureError,
    LieAlgebra,
    _bracket_span,
    _extension_structure,
    _flags_and_radical,
    abelian,
    ce_differential,
    check_jacobi,
    from_structure_equations,
    is_unimodular,
)
from .scalars import RATIONAL, as_rational
from .su3 import adapted_su3_pair, reconstruct_su3


class UnknownEntryError(KeyError):
    def __str__(self):  # args[0] stays the id
        return "unknown catalog entry %r" % self.args[0]


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

    @cached_property
    def su3_structure(self):
        """The SU(3)-structure of the attached pair, reconstructed once."""
        if self.su3_pair is None:
            return None
        return reconstruct_su3(self.algebra, *self.su3_pair)


@dataclass(frozen=True)
class EntrySpec:
    id: str
    builder: Callable
    param_doc: str
    description: str
    ambiguous: bool = False

    @cached_property
    def defaults(self):
        """Parameter name -> the builder's default; a Fraction default marks a rational."""
        return {name: p.default
                for name, p in inspect.signature(self.builder).parameters.items()}


_REGISTRY: dict = {}


def _entry(entry_id, param_doc, description, ambiguous=False):
    """Register the decorated builder as catalog entry ``entry_id``.

    A builder takes the entry's parameters and returns only its mathematics:
    a dict with ``algebra`` and ``expected``, and ``su3_pair`` or ``phi``
    where the entry attaches one; ``get`` builds the CatalogEntry.
    """
    def register(builder):
        _REGISTRY[entry_id] = EntrySpec(entry_id, builder, param_doc, description,
                                        ambiguous)
        return builder
    return register


def entry_ids():
    return sorted(_REGISTRY)


def describe(entry_id: str) -> EntrySpec:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownEntryError(entry_id) from None


def get(entry_id: str, **params) -> CatalogEntry:
    """Build and verify an entry.  Parameter names are checked against the
    builder's signature, and a rational parameter whose value is not an exact
    rational is a ParamError.  The entry's params are the builder's defaults
    updated by the given values; its id, description and ambiguity are the
    spec's."""
    spec = describe(entry_id)
    unknown = sorted(set(params) - set(spec.defaults))
    if unknown:
        raise ParamError("%s does not accept parameters %s" % (entry_id, unknown))
    for name, value in params.items():
        if isinstance(spec.defaults[name], Fraction):
            try:
                params[name] = as_rational(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParamError("%s parameter %s: %s" % (entry_id, name, exc)) from None
    fields = spec.builder(**params)
    entry = CatalogEntry(
        id=spec.id, algebra=fields["algebra"], params={**spec.defaults, **params},
        su3_pair=fields.get("su3_pair"), phi=fields.get("phi"),
        expected=fields["expected"], description=spec.description,
        ambiguous=spec.ambiguous)
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
    flag_keys = [k for k in ("solvable", "nilpotent_step", "levi_type", "radical_dim")
                 if k in exp]
    if flag_keys or "radical_nonabelian" in exp:
        flags, rad = _flags_and_radical(alg)
        checks += [(k, getattr(flags, k), exp[k]) for k in flag_keys]
    if "coupled_c" in exp and entry.su3_pair is not None:
        tc = entry.su3_structure.torsion_class
        want = exp["coupled_c"]
        if want == "shf":
            checks.append(("torsion class", tc.kind, "symplectic_half_flat"))
        else:
            checks.append(("torsion class", tc.kind, "coupled"))
            checks.append(("coupled c", tc.c, want))
    if "phi_closed" in exp and entry.phi is not None:
        closed = ce_differential(alg, entry.phi).max_abs() == 0
        checks.append(("phi closed", closed, exp["phi_closed"]))
        checks.append(("phi positive", is_positive(alg, entry.phi), True))
    if "radical_nonabelian" in exp:
        checks.append(("radical non-abelian", len(_bracket_span(alg, rad, rad)) > 0,
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


@_entry("n1", "none", "nilpotent step-4 algebra with coupled pair (c = -1)")
def _entry_n1():
    return {"algebra": nilpotent_n1(), "su3_pair": adapted_su3_pair(),
            "expected": {"unimodular": True, "solvable": True, "nilpotent_step": 4,
                         "coupled_c": Fraction(-1)}}


@_entry("n2", "none", "nilpotent step-2 algebra with coupled pair (c = -1)")
def _entry_n2():
    return {"algebra": nilpotent_n2(), "su3_pair": adapted_su3_pair(),
            "expected": {"unimodular": True, "solvable": True, "nilpotent_step": 2,
                         "coupled_c": Fraction(-1)}}


@_entry("s_ab", "a, b rational", "unimodular solvable family, coupled with c = b")
def _entry_s_ab(a=Fraction(1), b=Fraction(1)):
    if a != 0:
        step = None  # solvable non-nilpotent
    elif b != 0:
        step = 2  # isomorphic to the step-2 nilpotent algebra
    else:
        step = 1  # abelian
    return {"algebra": solvable_s_ab(a, b), "su3_pair": adapted_su3_pair(),
            "expected": {"unimodular": True, "solvable": True,
                         "coupled_c": b if b != 0 else "shf", "nilpotent_step": step}}


# ---------------------------------------------------------------------------
# seven-dimensional entries
# ---------------------------------------------------------------------------

@_entry("abelian7", "none", "flat baseline with the adapted parallel form")
def _entry_abelian7():
    return {"algebra": abelian(7, name="abelian7"), "phi": adapted_phi(),
            "expected": {"unimodular": True, "solvable": True, "nilpotent_step": 1,
                         "phi_closed": True}}


@_entry("ffkm_n", "none", "3-step nilpotent algebra used for closed-form search")
def _entry_ffkm_n():
    alg = from_structure_equations(
        7,
        {4: {(1, 2): 1}, 5: {(1, 3): 1}, 6: {(1, 4): 1}, 7: {(1, 5): 1}},
        name="ffkm_n")
    return {"algebra": alg,
            "expected": {"unimodular": True, "solvable": True, "nilpotent_step": 3}}


def _extension_entry(entry_id, base, deriv, expected):
    # no derivation check here: a non-derivation breaks Jacobi, which _verify checks;
    # the algebra's name is part of a report's input digest
    return {"algebra": _extension_structure(base, deriv, name=entry_id),
            "phi": adapted_phi(), "expected": {"phi_closed": True, **expected}}


@_entry("g_a", "a rational >= 1/4", "soliton-carrying extensions of n2")
def _entry_g_a(a=Fraction(1, 2)):
    if a < Fraction(1, 4):
        raise ParamError("g_a requires a >= 1/4")
    return _extension_entry(
        "g_a", nilpotent_n2(), lauret_derivation(a),
        {"unimodular": False, "solvable": True, "nilpotent_step": None})


@_entry("g_ab", "a, b rational", "extensions of n1 with closed structures")
def _entry_g_ab(a=Fraction(1), b=Fraction(1)):
    return _extension_entry(
        "g_ab", nilpotent_n1(), n1_derivation(a, b),
        {"unimodular": False, "solvable": True, "nilpotent_step": None})


@_entry("g_abk", "a, b, k rational",
        "extensions of the solvable family (no algebraic soliton for a != 0 and b != 0)")
def _entry_g_abk(a=Fraction(1), b=Fraction(1), k=Fraction(0)):
    expected = {"solvable": True, "nilpotent_step": None}
    if b != 0:
        expected["unimodular"] = False
    return _extension_entry("g_abk", solvable_s_ab(a, b), sab_derivation(b, k), expected)


# ---------------------------------------------------------------------------
# non-solvable classification entries
# ---------------------------------------------------------------------------

_SL2_PART = {1: {(2, 3): -1}, 2: {(1, 2): -2}, 3: {(1, 3): 2}}

#: the record nonsolv_2, nonsolv_3 and nonsolv_levi share
_LEVI_EXPECTED = {"unimodular": True, "solvable": False, "levi_type": "sl2R",
                  "radical_dim": 4}


@_entry("nonsolv_2", "mu rational in (-1, 1/2]", "second trivial-Levi family")
def _entry_nonsolv_2(mu=Fraction(1, 2)):
    if not (Fraction(-1) < mu <= Fraction(1, 2)):
        raise ParamError("nonsolv_2 requires -1 < mu <= 1/2")
    eqs = dict(_SL2_PART)
    eqs.update({5: {(4, 5): -1}, 6: {(4, 6): -mu}, 7: {(4, 7): 1 + mu}})
    alg = from_structure_equations(7, eqs, name="nonsolv_2", params={"mu": mu})
    return {"algebra": alg, "expected": dict(_LEVI_EXPECTED)}


@_entry("nonsolv_3", "mu rational > 0", "third trivial-Levi family")
def _entry_nonsolv_3(mu=Fraction(1)):
    if not mu > 0:
        raise ParamError("nonsolv_3 requires mu > 0")
    eqs = dict(_SL2_PART)
    eqs.update({5: {(4, 5): -mu},
                6: {(4, 6): mu / 2, (4, 7): -1},
                7: {(4, 6): 1, (4, 7): mu / 2}})
    alg = from_structure_equations(7, eqs, name="nonsolv_3", params={"mu": mu})
    return {"algebra": alg, "expected": dict(_LEVI_EXPECTED)}


@_entry("nonsolv_levi", "none", "non-trivial Levi decomposition")
def _entry_nonsolv_levi():
    eqs = dict(_SL2_PART)
    eqs.update({4: {(1, 4): -1, (2, 5): -1, (4, 7): -1},
                5: {(1, 5): 1, (3, 4): -1, (5, 7): -1},
                6: {(6, 7): 2}})
    return {"algebra": from_structure_equations(7, eqs, name="nonsolv_levi"),
            "expected": {**_LEVI_EXPECTED, "radical_nonabelian": True}}


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


@_entry("nonsolv_1", "variant in {'A', 'B'}",
        "first trivial-Levi family (ambiguous source data)", ambiguous=True)
def _entry_nonsolv_1(variant=None):
    if variant is None:
        raise AmbiguousEntryError(
            "nonsolv_1 source data is ambiguous; pass variant='A' (unimodular "
            "reading) or variant='B' (non-unimodular reading)")
    if variant not in NONSOLV1_VARIANTS:
        raise ParamError("variant must be 'A' or 'B'")
    eqs = dict(_SL2_PART)
    eqs.update(NONSOLV1_VARIANTS[variant])
    return {"algebra": from_structure_equations(7, eqs, name="nonsolv_1%s" % variant),
            "expected": {"solvable": False, "levi_type": "sl2R",
                         "unimodular": (variant == "A")}}


#: retry ladder for the randomized search (primary seed plus three fallbacks)
SEARCH_SEEDS = (3, 0, 1, 2)


def search_derived_phi(entry: CatalogEntry, seed=None, attempts=30000):
    """A closed positive form for entries that do not ship one, or None.

    No explicit closed positive form is recorded for the non-solvable
    classification entries; this returns a randomized-search representative
    (deterministic per seed), clearly search-derived rather than canonical.
    With seed=None the documented retry ladder is walked until a form is
    found.  There is none on ``nonsolv_2`` at mu = 0 (b_66 vanishes on every
    closed 3-form) or on ``nonsolv_1`` variant B (b_55, b_66 and b_77 do), and
    there every search of the ladder returns None without drawing.
    """
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

#: the entries registered above; a user catalog may not replace one
_BUILTIN_IDS = frozenset(_REGISTRY)


def load_user_catalog(path):
    """Register parameterless entries from a JSON file, all of them or none:
    every entry is read and checked before any is registered.  An id that is
    not a string or names a built-in entry, and an omega without psi or the
    reverse, are a ValueError; a user id registered before is replaced.

    Schema: {"entries": [{"id": ..., "algebra": <liealg JSON>,
                          "phi": <KForm JSON, optional>,
                          "omega": ..., "psi": ... (optional pair),
                          "description": ...}]}
    Returns the list of registered ids.
    """
    with open(path) as fh:
        data = json.load(fh)
    builders = []
    for item in data.get("entries", []):
        entry_id = item["id"]
        if not isinstance(entry_id, str):
            raise ValueError("user entry id %r is not a string" % (entry_id,))
        if entry_id in _BUILTIN_IDS:
            raise ValueError("user entry %r would replace a built-in entry" % entry_id)
        if ("omega" in item) != ("psi" in item):
            raise ValueError("user entry %r: omega and psi must be given together" % entry_id)
        algebra = LieAlgebra.from_json_dict(item["algebra"])
        phi = KForm.from_json_dict(item["phi"], backend=RATIONAL) \
            if "phi" in item else None
        pair = tuple(KForm.from_json_dict(item[key], backend=RATIONAL)
                     for key in ("omega", "psi")) if "psi" in item else None
        builders.append((entry_id, item.get("description", "user entry"),
                         partial(_user_entry, algebra, phi, pair)))
    for entry_id, description, builder in builders:
        _entry(entry_id, "none", description)(builder)
    return [entry_id for entry_id, _, _ in builders]


def _user_entry(algebra, phi, pair):
    """A user catalog entry; bound by ``partial``, its builder takes no parameters."""
    return {"algebra": algebra, "phi": phi, "su3_pair": pair,
            "expected": {"phi_closed": True} if phi is not None else {}}
