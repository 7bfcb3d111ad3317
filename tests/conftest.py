import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from g2lab import catalog
from g2lab.g2 import G2Structure


@pytest.fixture(autouse=True)
def stock_registry():
    """Give back the catalog registry as the test found it, whatever the test
    registered, also when an assertion fails."""
    saved = dict(catalog._REGISTRY)
    yield
    catalog._REGISTRY.clear()
    catalog._REGISTRY.update(saved)


@pytest.fixture(scope="session")
def n2_entry():
    return catalog.get("n2")


@pytest.fixture(scope="session")
def n1_entry():
    return catalog.get("n1")


@pytest.fixture(scope="session")
def sab_12():
    return catalog.get("s_ab", a=1, b=2)


@pytest.fixture(scope="session")
def g_half():
    """The shrinking-soliton extension with a = 1/2."""
    return catalog.get("g_a", a=Fraction(1, 2))


@pytest.fixture(scope="session")
def g_one():
    """The steady/extremally-pinched extension with a = 1."""
    return catalog.get("g_a", a=1)


@pytest.fixture(scope="session")
def g110_entry():
    return catalog.get("g_abk", a=1, b=1, k=0)


@pytest.fixture(scope="session")
def g110_structure(g110_entry):
    return G2Structure(g110_entry.algebra, g110_entry.phi)


@pytest.fixture(scope="session")
def abelian7_entry():
    return catalog.get("abelian7")


@pytest.fixture(scope="session")
def nonsolv_3_eighth_phi():
    """A closed positive 3-form on nonsolv_3 at mu = 1/8, by its coordinates in
    closed_3form_basis; a directed ascent of the positivity margin over ker d
    found it, and the randomized search misses the thin cone it lies in."""
    from g2lab.exterior import KForm
    from g2lab.g2 import closed_3form_basis

    x = [0, 0, 0, 0, 0, Fraction(-1, 8), 1, 1, Fraction(-1, 8), Fraction(1, 2), -1,
         Fraction(-1, 8), Fraction(1, 2), 0, 0, 0, Fraction(1, 8)]
    basis = closed_3form_basis(catalog.get("nonsolv_3", mu=Fraction(1, 8)).algebra)
    assert len(basis) == len(x)
    return sum((c * v for c, v in zip(x, basis)), KForm.zero(7, 3))
