"""Golden certificate bytes: sha256 of certificates pinned across commits.

The other determinism tests compare two runs of the same code; these pin
the bytes themselves, so a change to the canonical bases, the closure or
the search order that alters any certificate fails here.  To re-pin after
an intended change, state the reason for the new bytes with the change.
"""

import hashlib

import pytest

from fuchs2.groups import build_group
from fuchs2.parsing import parse_presentation_text
from fuchs2.search import SearchConfig, enumerate_candidates, \
    run_fixtures, search_realizing_ideal, verify_certificate
from fuchs2.star import realize_exponent4

import oracles


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


REALIZE = {
    # the four nonabelian class-2 pins were re-pinned when their composition
    # bases came from chief chains only; every such certificate verifies
    "Q8": "ab42b3d1c03c79510c244e1f03dc3564"
          "5cbcabe4e5bc0bceea1e3c2715d6468d",
    "Q8xQ8": "2e338a67eef10b4c21f670b1deb54170"
             "028167b94bdb2679dac188276b82f859",
    "C4xC4xC4xC2xC2": "c70ea8b0e5df2d672d0521cefc76d7d0"
                      "a66ea243c76f42ae203f349ee4d98f64",
    "Q8xD8xC4": "ddbff64179db1c465d40e6ed386145b9"
                "cf340e12ef8e5a75a0f6714855ba4afb",
    "Q8xC4xC4xC2": "2d3f341712d73f873cabcd1faf3e197d"
                   "a7d59efde47ae7a7cebba4491535e01d",
    # exponent 4, class 3: its basis comes from a chief chain
    "CLS3_64": "937a8b74a7b9d46068e58cb35c6715c1"
               "7bb987d9c875f73d5d382bf92b0d80a0",
    # order 512, a product of four catalog atoms
    "D8xD8xC2xC4": "c2c111842c0f792227fba45ed4570866"
                   "15bb28ba45c3fc0be4e0b74a42e04260",
}

PRESENTED = {
    "CLS3_64": "gens: a b\n"
               "rels: a^4, b^4, a*b*a*b*a*b*a*b, "
               "a*b^-1*a*b^-1*a*b^-1*a*b^-1, [b,a]^2, [a^2,b]",
}

# realize file:c4c4.presxfile:c4c4.pres, the path relative to the working
# directory: a product of two file atoms whose generators a, b collide
C4C4 = "gens: a b\nrels: a^4, b^4, b^-1*a*b*a\n"
REALIZE_FILE_PRODUCT = ("110e1086255ee8b284f1003cd409bfad"
                        "73e34686882d3e9b32be68ae365939a5")

FIXTURES = {
    "SG32_37_char2": "6de95d867cd5f3d09f293b0a855a0259"
                     "4f203e15530be8dc145a5ea32ab7cedd",
    "SG64_88_char2": "d611b36ced70e2c5d2a07752e1983a81"
                     "d8622ef82101e675be8c1f65441ff1a2",
    "SG64_104_char2": "1a24cb1fca21653f60dda2dac0d8f4cd"
                      "3a5cd934397b06e71a6879193c6fe165",
    "Q8_char4": "07f66a9b1c65fa3bb8a40705d58b9430"
                "c28bb9465ec9cdad5966772da18ac28f",
    "C8_char2": "a5b65f310557d8852ee901a477636a7b"
                "dbc6cc8a18bc02b44761951a9481e00e",
    "C16_char2": "778ad940d14717c68183f5b3adf5b6d8"
                 "7d1ac1aa5fb1af537c09d052ae5345c6",
}

# the first hits of the ideal walk, each witnessed by the natural map;
# re-pinned when the walk replaced the bounded generator-tuple search, and
# each checked by ``verify_certificate`` and ``oracles.verify_by_unit_table``
SEARCH_C8XC2_CHAR2 = ("70430b7fba917ed8672c7f85e5f156e8"
                      "2c3980127982a39eff8c4880661b28ef")
# realize Q8 --char 4 --method search
SEARCH_Q8_CHAR4 = ("d90b9f6c97a42a850677e1372a7c3726"
                   "2a17b990feb261cfb81b66d17950bdab")
# realize C4xC2 --char 8 --method search
SEARCH_C4XC2_CHAR8 = ("aa0b099d1c95169a25a80cffd9f04628"
                      "068ace7856eca97d934487522bf19832")
# every realizing ideal of Z_4[C8xC2], in walk order: 8 ideals, the chain
# oracle's set; 6 of them have exact characteristic 4
HITS_C8XC2_CHAR4 = ("527840a5e9f0982d6a0b90644635cd00"
                    "3ac027886ba48c3a5210451312c28b05")


@pytest.mark.parametrize("spec", sorted(REALIZE))
def test_realize_certificate_bytes(spec):
    G = build_group(parse_presentation_text(PRESENTED[spec])
                    if spec in PRESENTED else spec)
    assert sha(realize_exponent4(G).to_json()) == REALIZE[spec]


def test_realize_certificate_bytes_of_a_file_product(tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4c4.pres").write_text(C4C4)
    G = build_group("file:c4c4.presxfile:c4c4.pres")
    assert G.gen_names == ("a", "b", "a2", "b2")
    assert sha(realize_exponent4(G).to_json()) == REALIZE_FILE_PRODUCT


def test_fixture_certificate_bytes():
    got = {r.name: sha(r.certificate.to_json()) for r in run_fixtures()}
    assert got == FIXTURES


def _verifies(cert):
    assert verify_certificate(cert.to_json())
    assert oracles.verify_by_unit_table(cert.to_dict())


def test_search_certificate_bytes_char2():
    cert = search_realizing_ideal(build_group("C8xC2"), SearchConfig())
    assert sha(cert.to_json()) == SEARCH_C8XC2_CHAR2
    _verifies(cert)


def test_search_certificate_bytes_char4():
    cert = search_realizing_ideal(build_group("Q8"), SearchConfig(m=2))
    assert sha(cert.to_json()) == SEARCH_Q8_CHAR4
    _verifies(cert)


def test_search_certificate_bytes_char8():
    cert = search_realizing_ideal(build_group("C4xC2"), SearchConfig(m=3))
    assert sha(cert.to_json()) == SEARCH_C4XC2_CHAR8
    _verifies(cert)


def test_search_hit_set_char4():
    G = build_group("C8xC2")
    hits = list(enumerate_candidates(G, SearchConfig(m=2)))
    digest = hashlib.sha256()
    for basis in hits:
        digest.update(repr(basis.rows).encode())
    assert len(hits) == 8
    assert sum(not basis.contains((2,) + (0,) * (G.n - 1))
               for basis in hits) == 6
    assert {tuple(basis.rows) for basis in hits} == \
        oracles.realizing_ideals_by_chains(G, 2)
    assert digest.hexdigest() == HITS_C8XC2_CHAR4
