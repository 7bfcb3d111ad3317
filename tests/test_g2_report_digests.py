"""Pinned sha256 digests of the exact part of ``g2`` CLI reports.

The argv list is every distinct exact ``g2`` invocation of the seed 11-13
report mixes of the benchmark's ``exact_reports`` workload.  The digest is
taken over ``json.dumps(report, sort_keys=True)`` with
``results["ric_eigenvalues"]`` removed: those come from LAPACK, while tau, its
norm, the scalar curvature and the ERP residual are exact rationals that the
exterior algebra, the catalog and the G2 stack must reproduce byte for byte.
"""

import hashlib
import json

import pytest

from g2lab.cli import main

DIGESTS = [
    (("g2", "abelian7"),
     "e42eb3bae35cfd88a10a5e741a7363b75e763a145a9cf03ec72d36e4a515ed4c"),
    (("g2", "g_a", "--param", "a=2"),
     "6491a6ca4992123337934fe64936f1952d85a9fd6952fe626f73d4c81285949e"),
    (("g2", "g_a", "--param", "a=1/2"),
     "a092643a0bdd0872629d43bf5ad499081043190dfc5c280413de2e917af61e4b"),
    (("g2", "g_a", "--param", "a=3/2"),
     "b77eb5b32ebc91ef02fddd337d1e3ac754f59ba3a0e9c94d77a02b21190504f3"),
    (("g2", "g_ab", "--param", "a=1", "b=-1"),
     "31bcdd215f25cfce98af822dffaaae89ba297ad9c9553e9cf21c7f6b7a3957c4"),
    (("g2", "g_ab", "--param", "a=-1/2", "b=2"),
     "9f396853389854fe87719b29f65d47d13c1d12f084f8cd4ff0d4e191f9aec297"),
    (("g2", "g_ab", "--param", "a=0", "b=1"),
     "7382ca515396ca75be752e1dda2c3fbf2b5db4021ff28e7bd15c43bf3a9a02e5"),
    (("g2", "g_abk", "--param", "a=-7/4", "b=-1", "k=3/2"),
     "b1daea27ea8b0b9998699492acab712677db6353ba65e4b23b3dc6131bad101c"),
    (("g2", "g_abk", "--param", "a=-1/2", "b=3/2", "k=-3/2"),
     "20516d0c38734a758b7732c9d27a93a236ec315c2fc897dd62bd9971ec5b6a9e"),
    (("g2", "g_abk", "--param", "a=-1/2", "b=3/2", "k=0"),
     "96fc5d504c62dfeec942aecdae81c6db93d6181734c24f3787c034591aa3d184"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_exact_g2_report_digest(capsys, argv, digest):
    code = main(list(argv))
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "ok"
    report["results"].pop("ric_eigenvalues")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
