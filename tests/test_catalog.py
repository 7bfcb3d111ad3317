"""Catalog entries: instantiation, verification, parameter validation."""

import json
from fractions import Fraction as F

import pytest

from g2lab import catalog
from g2lab.g2 import is_positive
from g2lab.liealg import (
    betti,
    ce_differential,
    check_jacobi,
    is_unimodular,
    structure_flags,
)


def test_all_entries_listed():
    assert set(catalog.entry_ids()) == {
        "abelian7", "ffkm_n", "g_a", "g_ab", "g_abk", "n1", "n2",
        "nonsolv_1", "nonsolv_2", "nonsolv_3", "nonsolv_levi", "s_ab"}


def test_every_default_entry_passes_jacobi():
    for eid in catalog.entry_ids():
        if eid == "nonsolv_1":
            entry = catalog.get(eid, variant="A")
        else:
            entry = catalog.get(eid)
        assert check_jacobi(entry.algebra) == 0, eid


def test_extension_entry_checks_jacobi_once(monkeypatch):
    from g2lab import liealg

    calls = []
    jacobi = liealg.check_jacobi

    def counted(alg):
        calls.append(alg)
        return jacobi(alg)

    monkeypatch.setattr(liealg, "check_jacobi", counted)
    monkeypatch.setattr(catalog, "check_jacobi", counted)
    catalog.get("g_a")
    assert len(calls) == 1


def test_levi_entry_builds_derived_algebra_once(monkeypatch):
    # the radical-nonabelian check reads the radical structure_flags built
    from g2lab import liealg

    calls, derived = [], liealg._derived
    monkeypatch.setattr(liealg, "_derived", lambda alg: calls.append(1) or derived(alg))
    catalog.get("nonsolv_levi")
    assert len(calls) == 1


def test_attached_forms_are_closed_and_positive():
    for entry in catalog.closed_entry_instances():
        assert ce_differential(entry.algebra, entry.phi).is_zero()
        assert is_positive(entry.algebra, entry.phi)


def test_g_a_parameter_bound():
    catalog.get("g_a", a=F(1, 4))
    with pytest.raises(catalog.ParamError):
        catalog.get("g_a", a=F(1, 10))


def test_unknown_entry():
    with pytest.raises(catalog.UnknownEntryError):
        catalog.get("nope")


def test_unknown_parameters_rejected():
    with pytest.raises(catalog.ParamError):
        catalog.get("abelian7", a=1)


def test_mu_range_validation():
    catalog.get("nonsolv_2", mu=F(1, 2))
    catalog.get("nonsolv_2", mu=F(-99, 100))
    with pytest.raises(catalog.ParamError):
        catalog.get("nonsolv_2", mu=F(3, 4))
    with pytest.raises(catalog.ParamError):
        catalog.get("nonsolv_2", mu=-1)
    catalog.get("nonsolv_3", mu=F(1, 7))
    with pytest.raises(catalog.ParamError):
        catalog.get("nonsolv_3", mu=0)


def test_nonsolv_classification_properties():
    instances = [catalog.get("nonsolv_2", mu=m) for m in (F(1, 2), F(0), F(-1, 2))]
    instances += [catalog.get("nonsolv_3", mu=m) for m in (F(1), F(5))]
    instances += [catalog.get("nonsolv_levi")]
    for entry in instances:
        alg = entry.algebra
        assert check_jacobi(alg) == 0
        assert is_unimodular(alg)
        flags = structure_flags(alg)
        assert not flags.solvable
        assert flags.levi_type == "sl2R"
        assert flags.radical_dim == 4


def test_nonsolv_levi_radical_is_nonabelian_solvable():
    from g2lab.liealg import _bracket_span, radical_basis

    alg = catalog.get("nonsolv_levi").algebra
    rad = radical_basis(alg)
    assert len(rad) == 4
    first = _bracket_span(alg, rad, rad)
    assert 0 < len(first) < 4
    second = _bracket_span(alg, first, first)
    assert len(second) == 0  # solvable in one more step


def test_ambiguous_entry_requires_variant():
    with pytest.raises(catalog.AmbiguousEntryError):
        catalog.get("nonsolv_1")
    a = catalog.get("nonsolv_1", variant="A")
    b = catalog.get("nonsolv_1", variant="B")
    assert a.ambiguous and b.ambiguous
    assert is_unimodular(a.algebra)
    assert not is_unimodular(b.algebra)
    with pytest.raises(catalog.ParamError):
        catalog.get("nonsolv_1", variant="C")


def test_ffkm_is_three_step_nilpotent():
    entry = catalog.get("ffkm_n")
    flags = structure_flags(entry.algebra)
    assert flags.nilpotent and flags.nilpotent_step == 3
    assert betti(entry.algebra, 1) == 3


def test_catalog_verification_catches_mismatch():
    entry = catalog.get("n2")
    broken = catalog.CatalogEntry(
        id="broken", algebra=entry.algebra, params={}, su3_pair=entry.su3_pair,
        phi=None, expected={"unimodular": False}, description="broken on purpose")
    with pytest.raises(catalog.CatalogVerificationError):
        catalog._verify(broken)


def test_entry_description_and_export(sab_12):
    spec = catalog.describe("s_ab")
    assert "solvable" in spec.description
    data = sab_12.algebra.to_json_dict()
    assert data["params"] == {"a": "1", "b": "2"}


#: per entry, parameters given beside the defaults (nonsolv_1 has no default)
SAMPLE_PARAMS = {
    "s_ab": [{"a": F(0), "b": F(2)}], "g_a": [{"a": F(2)}], "g_ab": [{"b": F(-1)}],
    "g_abk": [{"a": F(2), "k": F(3)}], "nonsolv_1": [{"variant": "A"}, {"variant": "B"}],
    "nonsolv_2": [{"mu": F(0)}], "nonsolv_3": [{"mu": F(1, 8)}],
}


def test_get_fills_in_the_spec_and_the_parameters():
    for eid in catalog.entry_ids():
        spec = catalog.describe(eid)
        samples = SAMPLE_PARAMS.get(eid, [])
        for given in samples if eid == "nonsolv_1" else [{}] + samples:
            entry = catalog.get(eid, **given)
            assert entry.id == eid
            assert entry.description == spec.description, eid
            assert entry.ambiguous == spec.ambiguous, eid
            assert entry.params == {**spec.defaults, **given}, (eid, given)


def test_nonsolv_3_at_mu_one_eighth_carries_a_closed_g2_structure(nonsolv_3_eighth_phi):
    from oracles import ce_differential_oracle, kform_to_terms

    from g2lab.g2 import induced_bilinear
    from g2lab.linalg import positive_det

    alg = catalog.get("nonsolv_3", mu=F(1, 8)).algebra
    phi = nonsolv_3_eighth_phi
    terms = kform_to_terms(phi)
    assert len(terms) == 17
    assert max(c.denominator for c in terms.values()) == 257
    assert ce_differential_oracle(alg, terms, 3) == {}
    assert positive_det(induced_bilinear(phi)) is not None


def test_search_derived_forms_on_nonsolvable_entries():
    from g2lab.liealg import ce_differential

    for eid, params in (("nonsolv_2", {"mu": F(1, 2)}),
                        ("nonsolv_3", {"mu": F(1)}),
                        ("nonsolv_levi", {})):
        entry = catalog.get(eid, **params)
        phi = catalog.search_derived_phi(entry)
        assert phi is not None, eid
        assert is_positive(entry.algebra, phi)
        residual = float(ce_differential(entry.algebra, phi).max_abs())
        assert residual < 1e-10 * max(1.0, float(phi.max_abs()))


def test_user_catalog_loading(tmp_path):
    entry = catalog.get("n2")
    payload = {
        "entries": [{
            "id": "user_n2",
            "algebra": entry.algebra.to_json_dict(),
            "omega": entry.su3_pair[0].to_json_dict(),
            "psi": entry.su3_pair[1].to_json_dict(),
            "description": "copy of the coupled nilpotent entry",
        }]
    }
    path = tmp_path / "user.json"
    path.write_text(json.dumps(payload))
    ids = catalog.load_user_catalog(path)
    assert ids == ["user_n2"]
    loaded = catalog.get("user_n2")
    assert loaded.algebra.n == 6
    assert loaded.su3_pair is not None


def test_user_catalog_reloads_but_never_replaces_a_builtin_entry(tmp_path):
    item = {"algebra": catalog.get("n2").algebra.to_json_dict()}
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"entries": [dict(item, id="user_n2")]}))
    # the CLI loads the user catalog on every call
    assert catalog.load_user_catalog(path) == catalog.load_user_catalog(path) == ["user_n2"]
    path.write_text(json.dumps({"entries": [dict(item, id="g_a")]}))
    with pytest.raises(ValueError, match="'g_a' would replace a built-in entry"):
        catalog.load_user_catalog(path)
    assert catalog.get("g_a").algebra.n == 7


def test_user_catalog_registers_all_entries_or_none(tmp_path):
    item = {"algebra": catalog.get("n2").algebra.to_json_dict()}
    path = tmp_path / "user.json"
    path.write_text(json.dumps({"entries": [dict(item, id="kept")]}))
    catalog.load_user_catalog(path)
    kept = catalog.describe("kept").builder
    path.write_text(json.dumps({"entries": [dict(item, id="good"), dict(item, id="kept"),
                                            dict(item, id="g_a")]}))
    with pytest.raises(ValueError, match="'g_a' would replace a built-in entry"):
        catalog.load_user_catalog(path)
    assert "good" not in catalog.entry_ids()
    assert catalog.describe("kept").builder is kept


def test_parameters_are_checked_against_the_builder(tmp_path):
    payload = {"entries": [{"id": "user_n2",
                            "algebra": catalog.get("n2").algebra.to_json_dict()}]}
    path = tmp_path / "user.json"
    path.write_text(json.dumps(payload))
    catalog.load_user_catalog(path)
    for name in ("_algebra", "_id"):
        with pytest.raises(catalog.ParamError, match="user_n2 does not accept"):
            catalog.get("user_n2", **{name: F(1)})
    for value in ("x", 0.5, "1/0"):
        with pytest.raises(catalog.ParamError, match="g_a parameter a"):
            catalog.get("g_a", a=value)
    assert catalog.get("g_a", a="3/4").params == {"a": F(3, 4)}
