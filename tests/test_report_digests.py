"""Pinned sha256 digests of exact CLI reports.

The argv list is the exact-only part (analyze, su3 and rational soliton) of
the seed-11 report mix of the benchmark's ``exact_reports`` workload.  These
reports carry only exact rationals and decisions taken on them, so any
refactor of the exact stack must reproduce them byte for byte.  ``g2``
reports also carry LAPACK eigenvalues and are not pinned here.
"""

import hashlib

import pytest

from g2lab.cli import main

DIGESTS = [
    (("analyze", "n1"),
     "b275413763b4ce3a0ec5da61a368e7e1629424deb2fa8ae104b546551e32965b"),
    (("analyze", "nonsolv_2", "--param", "mu=0"),
     "013fd06457bf433aa0d4ab6cad315fea7db396a3ce6d5384d2c657b07545fd83"),
    (("soliton", "g_ab", "--param", "a=1", "b=-1"),
     "acab2246326730ecda5810073f6eb87ebc10183c39d305f467cb74b2d9af2b39"),
    (("analyze", "g_ab", "--param", "a=1", "b=-1"),
     "3b16c3ea59585eceb9b2a837a7135ce434585d3ecbdf9642d0bf697b7709d525"),
    (("analyze", "s_ab", "--param", "a=1/2", "b=-3/2"),
     "d22107fcf150b4d89ca307c4d1a07bcc50763197cb7b970cc7022a8d7fcafe29"),
    (("analyze", "g_abk", "--param", "a=-7/4", "b=-1", "k=3/2"),
     "8e0b0e370ea3682a06dee3b4518edb5608fe93733815fe3bde10d1a4067fc2ae"),
    (("soliton", "g_abk", "--param", "a=-7/4", "b=-1", "k=3/2"),
     "01aa6e2b5bff19df53005463bfc6d744583280a0ec24b137ce6fd0f539dcbd32"),
    (("analyze", "nonsolv_levi"),
     "bade1b8cbfe9dae8b9c0681e20a7a58e8c94e25585ff229f7e6877de2c576624"),
    (("soliton", "g_a", "--param", "a=2"),
     "7385ed0d9df46bcd505118d0535bd1fe6f1e8b2c44fbb001c3b90e5a62832202"),
    (("analyze", "ffkm_n"),
     "5d61d85d25b4ec2664b694cc5c0e14d4b565aa795278315a88eaf9fc7fb906e6"),
    (("su3", "n2"),
     "064a540b4c9babc388210b00554eb711f961c90cfa6aa08b8d147957033532e6"),
    (("analyze", "n2"),
     "4cc35cf5ef68baa72694ef824b197acb512621f676923f65735ba877aedb8a98"),
    (("analyze", "nonsolv_1", "--param", "variant=A"),
     "50009109a8a870c44f1ff199fc8b48c410fa1090ec6b287dc2c98006ed574447"),
    (("analyze", "abelian7"),
     "304f02d19235b7558a91e437a64781aa8471ed9de43e8d75af1a8f5ea2f900e6"),
    (("analyze", "g_a", "--param", "a=2"),
     "a1d0c101e95e8845b3ec2c680971b1d2bce47a053bff023a098bc4e7e8e93083"),
    (("soliton", "abelian7"),
     "382e3a06249b65e0bd5d5eba44c827a42616fc61495f983a5fff89d2b32a118b"),
    (("analyze", "nonsolv_3", "--param", "mu=7/3"),
     "e5299e2e353d9c1b74b23123c5eee81cec1504f393f902d142e2bac00886b83c"),
    (("su3", "n1"),
     "1da0569edde110fcbec73e3c00762f8d7ede2c2a99cc9f35f6624fa0d7534ec2"),
    (("su3", "s_ab", "--param", "a=1/2", "b=-3/2"),
     "74ff3ec18d98ffdff410b18f76b40e16b56aed3f2dfc686d5fc0276bb12df96e"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_exact_report_digest(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
