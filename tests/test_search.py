import json

import pytest

from fuchs2.groups import build_group
from fuchs2.parsing import element_literal
from fuchs2.search import (
    FIXTURES,
    SearchConfig,
    enumerate_candidates,
    run_fixture,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)
from fuchs2.star import realize_exponent4


# -- candidate enumeration ----------------------------------------------------

def test_support2_candidates_c4():
    G = build_group("C4")
    cfg = SearchConfig(m=1, support_sizes=(2,), max_gens=1, budget=100)
    seen = [(idx, [element_literal(g.coeffs, G) for g in gens])
            for idx, gens, _ in enumerate_candidates(G, cfg)]
    # 1+a, 1+a^2, 1+a^3 are the raw stream; 1+a^3 closes to the same
    # ideal as 1+a and is deduplicated
    assert [lits for _, lits in seen] == [["1+a"], ["1+a^2"]]


def test_candidates_have_even_augmentation():
    G = build_group("C8xC2")
    cfg = SearchConfig(m=1, budget=200)
    for _, gens, _ in enumerate_candidates(G, cfg):
        for g in gens:
            assert g.augmentation() % 2 == 0


def test_candidates_respect_budget():
    G = build_group("C8")
    cfg = SearchConfig(m=1, budget=10)
    assert sum(1 for _ in enumerate_candidates(G, cfg)) <= 10


def test_scalar_candidates_in_char4():
    G = build_group("Q8")
    cfg = SearchConfig(m=2, support_sizes=(2,), max_gens=1, budget=50)
    lits = [element_literal(gens[0].coeffs, G)
            for _, gens, _ in enumerate_candidates(G, cfg)]
    assert "2+2*i" in lits  # the published generator shape


# -- search -------------------------------------------------------------------

def test_search_c8xc2_finds_certificate():
    G = build_group("C8xC2")
    cert = search_realizing_ideal(G, SearchConfig(m=1))
    assert cert is not None
    assert cert.method == "search"
    assert cert.quotient_size == 2 * G.n
    assert verify_certificate(cert)


def test_search_c8_negative_control():
    # the screeners refute C8 in characteristic 2; the search must come up
    # empty (budgeted run, not a proof)
    G = build_group("C8")
    cert = search_realizing_ideal(G, SearchConfig(m=1, budget=3000))
    assert cert is None


def test_search_c8xc2_support4_only():
    G = build_group("C8xC2")
    cert = search_realizing_ideal(G, SearchConfig(m=1, support_sizes=(4,)))
    assert cert is not None
    assert verify_certificate(cert)


def test_search_q8_in_characteristic_4():
    G = build_group("Q8")
    cert = search_realizing_ideal(G, SearchConfig(m=2, budget=200_000))
    assert cert is not None
    assert cert.quotient_size == 16
    assert verify_certificate(cert)


def test_pruning_soundness_sampled():
    # candidates pruned by the residue-count test truly cannot work: their
    # unit group (computed anyway) has the wrong order
    from fuchs2.gring import quotient_ring, unit_group
    G = build_group("C4xC2")
    cfg = SearchConfig(m=1, budget=60)
    checked = 0
    for _, gens, basis in enumerate_candidates(G, cfg):
        size = (1 << G.n) // basis.span_size()
        if size == 2 * G.n:
            continue  # not pruned
        units = unit_group(quotient_ring(basis))
        assert units.group.n != G.n
        checked += 1
    assert checked > 5


# -- certificate verification -------------------------------------------------

def test_verify_star_certificates():
    for spec in ("C2", "Q8", "D8"):
        cert = realize_exponent4(build_group(spec))
        assert verify_certificate(cert)
        assert verify_certificate(cert.to_json())


def test_verify_rejects_row_deletion():
    cert = realize_exponent4(build_group("Q8"))
    doc = cert.to_dict()
    doc["ideal_basis"] = doc["ideal_basis"][:-1]
    assert not verify_certificate(doc)


def test_verify_rejects_wrong_quotient_size():
    cert = realize_exponent4(build_group("Q8"))
    doc = cert.to_dict()
    doc["quotient_size"] *= 2
    assert not verify_certificate(doc)


def test_verify_rejects_tampered_witness():
    cert = realize_exponent4(build_group("Q8"))
    doc = cert.to_dict()
    doc["iso_witness"]["i"], doc["iso_witness"]["j"] = \
        doc["iso_witness"]["j"], doc["iso_witness"]["i"]
    # swapping i and j images is not an automorphism-compatible relabeling
    # of the stored map unless it extends to an isomorphism; either way the
    # verifier must decide by recomputation, never crash
    assert verify_certificate(doc) in (True, False)
    doc["iso_witness"]["i"] = "1+i"  # even augmentation: not a unit
    assert not verify_certificate(doc)


def test_verify_rejects_wrong_group():
    cert = realize_exponent4(build_group("Q8"))
    doc = cert.to_dict()
    doc["group"] = "D8"
    assert not verify_certificate(doc)


def test_verify_malformed_document():
    from fuchs2.errors import CertificateError
    with pytest.raises(CertificateError):
        verify_certificate(json.dumps({"group": "Q8"}))


@pytest.mark.parametrize("field,value", [
    ("char", "2"),
    ("char", True),
    ("char", 2.0),
    ("ideal_basis", "1+i"),
    ("ideal_basis", [1]),
    ("iso_witness", ["i", "j"]),
    ("iso_witness", {"i": 1, "j": "j"}),
    ("quotient_size", "16"),
    ("quotient_size", None),
])
def test_verify_rejects_ill_typed_fields(field, value):
    from fuchs2.errors import CertificateError
    doc = realize_exponent4(build_group("Q8")).to_dict()
    doc[field] = value
    with pytest.raises(CertificateError, match=field):
        verify_certificate(doc)
    with pytest.raises(CertificateError, match=field):
        verify_certificate(json.dumps(doc))


def test_verify_rejects_non_object_json():
    from fuchs2.errors import CertificateError
    for text in ("[1, 2]", "not json"):
        with pytest.raises(CertificateError):
            verify_certificate(text)


def test_verify_presentation_built_group():
    # groups built from raw presentations serialize their presentation
    # inline and re-verify from it
    from fuchs2.groups import enumerate_presentation
    from fuchs2.parsing import parse_presentation_text
    pres = parse_presentation_text("gens: a b\nrels: a^4, b^2, [b,a]")
    G = enumerate_presentation(pres)
    cert = realize_exponent4(G)
    doc = json.loads(cert.to_json())
    assert doc["group"] == {"gens": ["a", "b"],
                            "relators": ["a^4", "b^2", "[b,a]"]}
    assert verify_certificate(cert.to_json())


# -- fixtures -----------------------------------------------------------------

def test_fixture_names_unique():
    names = [row[0] for row in FIXTURES]
    assert len(set(names)) == len(names)


def test_single_fixture_c8():
    row = next(r for r in FIXTURES if r[0] == "C8_char2")
    result = run_fixture(*row)
    assert result.verified
    assert result.certificate.method == "fixture"


def test_all_fixtures_verify():
    results = run_fixtures(strict=True)
    assert all(r.verified for r in results)
    assert len(results) == 6
