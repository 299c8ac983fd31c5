import functools
import hashlib
import itertools
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuchs2.search
from fuchs2 import gring
from fuchs2.errors import (
    Fuchs2Error,
    InternalInvariantError,
    SizeCapError,
    UndecidedError,
)
from fuchs2.gring import (
    M_CAP,
    RESIDUE_CAP,
    IdealBasis,
    ideal_closure,
    quotient_ring,
    unit_group,
    verify_two_sided,
)
from fuchs2.groups import build_group
from fuchs2.parsing import element_literal, parse_element_literal, \
    parse_element_terms
from fuchs2.search import (
    DEFAULT_BUDGET,
    FIXTURES,
    SearchConfig,
    enumerate_candidates,
    run_fixture,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)
from fuchs2.star import certificate_from_parts, realize_exponent4

import oracles
from test_star import CLS4_128, OPEN_64, _presented


# -- the ideal walk -----------------------------------------------------------

# catalog groups of order <= 16
SMALL = ("C2", "C4", "C2xC2", "C8", "C4xC2", "Q8", "D8", "C2xC2xC2", "C16",
         "C8xC2", "C4xC4", "D16", "Q16", "QD16", "M16", "Q8xC2", "D8xC2",
         "C4xC2xC2")


def _hits(G, m, budget=None):
    config = SearchConfig(m=m) if budget is None else \
        SearchConfig(m=m, budget=budget)
    return list(enumerate_candidates(G, config))


# (spec, m, nodes, hits) of whole walks, counted through the cap as the
# class-4 pins below are: the walk ends within ``nodes`` and not within
# one fewer.  The cap bounds every walk, so a change of shape fails here
# fast, before the larger walks of this file run.
SHAPE_PINS = [("C8xC2", 2, 39, 8), ("C4xC4", 2, 111, 40),
              ("D8xC2", 2, 155, 40), ("C8xC4", 1, 37, 0)]


@pytest.mark.parametrize("spec, m, nodes, hits", SHAPE_PINS,
                         ids=[f"{p[0]}-m{p[1]}" for p in SHAPE_PINS])
def test_walk_shape_pinned(spec, m, nodes, hits):
    G = build_group(spec)
    assert len(_hits(G, m, budget=nodes)) == hits
    with pytest.raises(UndecidedError):
        _hits(G, m, budget=nodes - 1)


@settings(max_examples=16, deadline=None)
@given(spec=st.sampled_from(SMALL), m=st.sampled_from((1, 2)))
@example(spec="C8xC2", m=2)
@example(spec="D8xC2", m=1)
def test_walk_matches_the_chain_oracle(spec, m):
    # every realizing ideal, each once: the chain oracle's set
    G = build_group(spec)
    hits = [tuple(basis.rows) for basis in _hits(G, m)]
    assert len(set(hits)) == len(hits)
    assert set(hits) == oracles.realizing_ideals_by_chains(G, m)


def _elements(basis):
    """The elements of an ideal of F_2[G], as bit masks."""
    span = {0}
    for row in basis.rows:
        v = sum(1 << g for g, c in enumerate(row) if c)
        span |= {x ^ v for x in span}
    return frozenset(span)


@functools.cache
def _codim_3_ideals(spec):
    return oracles.codim_3_ideals_at_order_8(build_group(spec))


@pytest.mark.parametrize("spec, count", [
    ("C2xC2xC2", 8), ("C4xC2", 4), ("D8", 2), ("Q8", 2), ("C8", 0)])
def test_walk_matches_brute_force_at_order_8(spec, count):
    G = build_group(spec)
    brute = {span for span in _codim_3_ideals(spec)
             if not any(1 | 1 << g in span for g in range(1, G.n))}
    assert len(brute) == count
    assert {_elements(basis) for basis in _hits(G, 1)} == brute


def _is_natural(G, m, cert):
    """True when each generator's image in the certificate is its own
    residue."""
    return all(
        cert.basis.reduce(parse_element_literal(cert.witness[name], G, m))
        == cert.basis.reduce(tuple(int(h == g) for h in range(G.n)))
        for name, g in zip(G.gen_names, G.gen_indices))


def _certificate(G, m, basis):
    ring = quotient_ring(basis)
    images = [ring.element_index[g] for g in G.gen_indices]
    return certificate_from_parts(G, G, m, basis, ring, images,
                                  method="search")


@pytest.mark.parametrize("spec, m", [
    ("C1", 1), ("C1", 3), ("C2", 1), ("C2", 2), ("C2xC2xC2", 1), ("Q8", 2),
    ("D8", 3), ("C4xC2", 3), ("C8xC2", 2), ("Q8xC2", 1), ("C4xC4", 1)])
def test_every_hit_verifies(spec, m):
    # each hit, with the natural map as witness, passes the package's
    # verifier from its specs, and has 2|G| residues
    G = build_group(spec)
    hits = _hits(G, m)
    assert hits
    for basis in hits:
        assert basis.closed and verify_two_sided(basis)
        assert quotient_ring(basis).size == 2 * G.n
        assert verify_certificate(_certificate(G, m, basis).to_json())


@pytest.mark.parametrize("spec", ["C2xC2", "C4xC2", "D8", "Q8", "C4xC4",
                                  "Q8xC2", "D8xC2", "C4xC2xC2"])
def test_star_complement_ideals_are_hits(spec):
    # the star construction's ideal, whose witness is the natural map, is
    # among the walk's hits in characteristic 2
    G = build_group(spec)
    star = realize_exponent4(G)
    assert _is_natural(G, 1, star)
    assert star.basis.key() in {basis.key() for basis in _hits(G, 1)}


def test_candidates_have_even_augmentation():
    # every hit lies in the maximal ideal, so it is proper
    G = build_group("C8xC2")
    for m in (1, 2):
        for basis in _hits(G, m):
            assert all(sum(row) % 2 == 0 for row in basis.rows)
            assert not basis.contains_one()


def test_candidates_respect_budget():
    # the cap counts walk nodes, the root included; reaching it raises,
    # since a cap is never a refutation, and a walk that ends within it
    # returns None
    G = build_group("C8")
    assert _hits(G, 1, budget=3) == []
    with pytest.raises(UndecidedError, match="cap of 2 nodes"):
        _hits(G, 1, budget=2)
    with pytest.raises(UndecidedError):
        search_realizing_ideal(G, SearchConfig(m=1, budget=2))
    assert search_realizing_ideal(G, SearchConfig(m=1, budget=3)) is None
    # hits before the cap are yielded
    stream = enumerate_candidates(build_group("C2xC2xC2"),
                                  SearchConfig(m=1, budget=12))
    assert next(stream).closed
    with pytest.raises(UndecidedError):
        list(stream)


@pytest.mark.parametrize("text, nodes", [(CLS4_128, 237), (OPEN_64[0], 33),
                                         (OPEN_64[1], 33)],
                         ids=["CLS4_128", "OPEN_64a", "OPEN_64b"])
def test_the_class_4_open_cases_exhaust_the_walk(text, nodes):
    # these exponent-4 groups have no realizing ideal in characteristic 2,
    # against the abstract's sentence on exponent-4 groups; the screen
    # verdict stays unknown (tests/test_star.py)
    G = _presented(text)
    assert search_realizing_ideal(G, SearchConfig(m=1, budget=nodes)) is None
    with pytest.raises(UndecidedError):
        search_realizing_ideal(G, SearchConfig(m=1, budget=nodes - 1))


def test_scalar_candidates_in_char4():
    # Z_4[C4]/(2+2a, 1+a^2) is Z_4[i]/(2+2i): 8 residues, and a -> i a
    # bijection of C4 onto its units; the published generator shape 2+2g
    G = build_group("C4")
    ideal = ideal_closure(G, 2, [parse_element_literal(lit, G, 2)
                                 for lit in ("2+2*a", "1+a^2")])
    assert ideal.key() in {basis.key() for basis in _hits(G, 2)}


def test_pruning_soundness_sampled():
    # every ideal of F_2[G], |G| = 8, with 2|G| residues that the walk
    # does not yield (the brute force lists them all) fails: its unit
    # group has |G| elements, but the natural map sends two group elements
    # to one
    checked = 0
    for spec in ("C2xC2xC2", "C4xC2", "D8", "Q8", "C8"):
        G = build_group(spec)
        hits = {_elements(basis) for basis in _hits(G, 1)}
        for span in _codim_3_ideals(spec) - hits:
            basis = IdealBasis.from_vectors(G, 1, [
                [v >> g & 1 for g in range(G.n)] for v in span], closed=True)
            ring = quotient_ring(basis)
            assert unit_group(ring).group.n == G.n
            assert len(set(ring.element_index)) < G.n
            checked += 1
    assert checked > 5


def test_search_closes_no_ideal(monkeypatch):
    # the walk builds every ideal from the layers: no closure runs
    def refuse(*args):
        raise AssertionError("the walk closed an ideal")

    monkeypatch.setattr(fuchs2.search, "ideal_closure", refuse)
    monkeypatch.setattr(gring, "ideal_closure", refuse)
    assert search_realizing_ideal(build_group("C8xC2"), SearchConfig(m=2))


def _reference(G, m, rows):
    ref = oracles.HowellReference(G.n, m)
    for v in rows:
        ref.insert(v)
    return ref


@pytest.mark.parametrize("spec", SMALL)
def test_augmentation_powers_are_products_of_augmentation_elements(spec):
    # the powers of M = (2, D), at m = 1 those of the augmentation ideal D
    G = build_group(spec)
    for m in (1, 2, 3):
        brute = oracles.maximal_ideal_powers_brute(G, m)
        powers = list(gring.maximal_ideal_powers(G, m))
        assert [p.span_size() for p in powers] == \
            [_reference(G, m, rows).span_size() for rows in brute]
        for power, rows in zip(powers, brute):
            assert all(power.contains(power.pack(v)) for v in rows)


@pytest.mark.parametrize("spec, loewy", [
    ("C2", 2), ("C4", 4), ("C8", 8), ("C16", 16), ("C32", 32),
    ("C2xC2", 3), ("C2xC2xC2", 4), ("C2xC2xC2xC2", 5),
    ("C2xC2xC2xC2xC2", 6)])
def test_loewy_lengths(spec, loewy):
    # F_2[C_2^n] = F_2[t]/(t - 1)^(2^n); F_2[C_2^k] is a tensor power of
    # F_2[C2], whose radical has Loewy length 2
    G = build_group(spec)
    assert len(list(gring.maximal_ideal_powers(G, 1))) - 1 == loewy
    if G.n <= 16:
        assert len(oracles.maximal_ideal_powers_brute(G, 1)) - 1 == loewy


# sha256 over repr(basis.rows) of each hit, in walk order:
# (spec, m, hits, digest).  Each set of hits was checked equal to
# ``oracles.realizing_ideals_by_chains``; the digest also pins the order.
# C8xC2 at m = 1 is the benchmark's hit search and C8 its exhausting one;
# they cover right translations (D8) and m = 3 (Q8, C4xC2).  C8xC4xC2 and
# D8xC4 are the largest: order 64 at m = 1, and a nonabelian group of order
# 32 at m = 2.  The last two reach m = 6 and m = 5, where the powers of M
# run far below the walk's depth: C2xC16 hits, C4xC8 exhausts.
STREAM_PINS = [
    ("C8xC2", 1, 2,
     "cdb94529b1b9945c516251df4d74eef482090207e9ea3f9d89aba72570a07904"),
    ("C8xC2", 2, 8,
     "fa0e74f105a34e46c2365e5cc5514f5a32d8240975d4057d6aeea66ef4450e1b"),
    ("C8", 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("D8", 2, 4,
     "26e9d98f9feace7308514df6eb52fbea517487822aba1a7f39bbcc45b4c28ad3"),
    ("Q8", 3, 4,
     "8035f288c056df8d63000e4fd635c58c5fe73e70121dc651ddaba764313298bd"),
    ("C4xC2", 3, 20,
     "c7f9ae288cf511e316e83f6952a0295041eb3c0ddb55ceb6b4fe974e0b23b29c"),
    ("C8xC4xC2", 1, 176,
     "c19e77e2e23df496437325032adeb15b2f4291e19c310396fae8d5de9fbc8aa3"),
    ("D8xC4", 2, 288,
     "64aca382733a52f666605bd5c8716dc083465d1d1931c28c3a7a4827fe24ddfb"),
    ("C2xC16", 6, 32,
     "8af9f0ffd81e98042dbe155bfa31b49c30971ae8864b146ca072ce2a6a29675f"),
    ("C4xC8", 5, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("spec, m, count, pin", STREAM_PINS,
                         ids=[f"{p[0]}-m{p[1]}" for p in STREAM_PINS])
def test_candidate_stream_pinned(spec, m, count, pin):
    digest = hashlib.sha256()
    hits = _hits(build_group(spec), m)
    for basis in hits:
        digest.update(repr(basis.rows).encode() + b"\n")
    assert len(hits) == count
    assert digest.hexdigest() == pin


def test_walk_pulls_no_power_of_m_past_m_k_plus_1(monkeypatch):
    # a node at depth t reads M^t and M^(t+1), and children run only at
    # t <= k, |G| = 2^k; C2xC16 at m = 6 has 57 powers, M^0 ... M^56 = 0
    pulled = []

    def counted(G, m):
        for t, power in enumerate(gring.maximal_ideal_powers(G, m)):
            pulled.append(t)
            yield power

    monkeypatch.setattr(fuchs2.search, "maximal_ideal_powers", counted)
    G = build_group("C2xC16")
    assert len(_hits(G, 6)) == 32
    assert max(pulled) == 6  # M^(k+1), k = 5


# -- search -------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, match", [
    ({"m": 0}, "characteristic exponent"),
    ({"m": M_CAP + 1}, "characteristic exponent"),
    ({"budget": 0}, "must be positive"),
    ({"budget": -1}, "must be positive"),
])
def test_search_config_validates_its_fields(kwargs, match):
    with pytest.raises(Fuchs2Error, match=match):
        SearchConfig(**kwargs)


def test_search_configs_are_immutable_values():
    config = SearchConfig(m=2)
    assert config == SearchConfig(2, DEFAULT_BUDGET)
    assert hash(config) == hash(SearchConfig(budget=DEFAULT_BUDGET, m=2))
    assert config != SearchConfig(m=2, budget=5)
    assert SearchConfig() == SearchConfig(m=1)
    for field in ("m", "budget", "extra"):
        with pytest.raises(AttributeError):
            setattr(config, field, 3)
    assert repr(config) == f"SearchConfig(m=2, budget={DEFAULT_BUDGET})"


@pytest.mark.parametrize("spec, m, char", [
    ("C8xC2", 1, 2), ("Q8", 2, 4), ("C4xC2", 3, 4), ("C2xC16", 6, 64)])
def test_exact_characteristic_of_search_hits(spec, m, char):
    # the certificate's char, 2^m, names the ambient ring Z_{2^m}[G]; the
    # certified ring's exact characteristic is the least 2^e with
    # 2^e * 1 in I, which can be smaller (C4xC2 at m = 3)
    G = build_group(spec)
    cert = search_realizing_ideal(G, SearchConfig(m=m))
    assert cert.to_dict()["char"] == 1 << m
    exact = next(1 << e for e in range(m + 1)
                 if cert.basis.contains([(1 << e) % (1 << m)]
                                        + [0] * (G.n - 1)))
    assert exact == char


def test_search_c8xc2_finds_certificate():
    G = build_group("C8xC2")
    cert = search_realizing_ideal(G, SearchConfig(m=1))
    assert cert is not None
    assert cert.method == "search"
    assert cert.quotient_size == 2 * G.n
    assert _is_natural(G, 1, cert)
    assert verify_certificate(cert)


@pytest.mark.parametrize("spec", ["C1", "C2"])
def test_search_finds_the_zero_ideal(spec):
    # Z_2[C1] and Z_2[C2] have 2|G| elements: the group ring is the answer
    G = build_group(spec)
    cert = search_realizing_ideal(G, SearchConfig(m=1))
    assert cert is not None
    assert cert.to_dict()["ideal_basis"] == []
    assert cert.quotient_size == 2 * G.n
    assert verify_certificate(cert)


def test_search_c8_negative_control():
    # the screeners refute C8 in characteristic 2; the walk ends without a
    # hit
    G = build_group("C8")
    cert = search_realizing_ideal(G, SearchConfig(m=1, budget=3000))
    assert cert is None


def test_search_c8_full_stream():
    # the whole C8 walk, three nodes, at the default cap
    G = build_group("C8")
    t0 = time.perf_counter()
    assert search_realizing_ideal(G, SearchConfig(m=1)) is None
    assert time.perf_counter() - t0 < 1.0


def test_search_q8_in_characteristic_4():
    G = build_group("Q8")
    cert = search_realizing_ideal(G, SearchConfig(m=2))
    assert cert is not None
    assert cert.quotient_size == 16
    assert verify_certificate(cert)


@pytest.mark.parametrize("spec, config", [
    ("C8xC2", SearchConfig(m=1)), ("C1", SearchConfig(m=1)),
    ("C2", SearchConfig(m=1)), ("C8xC2", SearchConfig(m=2)),
    ("Q8", SearchConfig(m=2)), ("D8xC2", SearchConfig(m=1)),
    ("C2xC16", SearchConfig(m=6))])
def test_search_certificates_verify_from_their_specs(spec, config):
    # the search checks its certificate against the group it holds; the
    # rendered JSON still verifies with both groups built from its specs,
    # and by the unit-group table
    cert = search_realizing_ideal(build_group(spec), config)
    assert cert is not None
    assert verify_certificate(cert.to_json())
    assert oracles.verify_by_unit_table(cert.to_dict())


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


def test_verify_caps_the_residue_count_before_the_two_sided_check(
        monkeypatch):
    # an empty basis at order 512 leaves 2^512 residues: refused by the
    # cap as before, and no two-sided table is built for it
    doc = realize_exponent4(build_group("Q8xQ8xC4xC2")).to_dict()
    doc["ideal_basis"] = []

    def refuse(basis):
        raise AssertionError("two-sided check ran before the residue cap")

    monkeypatch.setattr(fuchs2.search, "verify_two_sided", refuse)
    with pytest.raises(SizeCapError, match=rf"quotient has {2 ** 512} "
                       rf"residues \(> {RESIDUE_CAP}\)"):
        verify_certificate(doc)


def test_verify_rejects_the_order_512_certificate_less_its_last_row():
    # the rows left are canonical, but their span is not two-sided and
    # has twice the stored residue count
    G = build_group("Q8xQ8xC4xC2")
    doc = realize_exponent4(G).to_dict()
    doc["ideal_basis"] = doc["ideal_basis"][:-1]
    rows = [parse_element_terms(lit, G, 1) for lit in doc["ideal_basis"]]
    basis = IdealBasis.from_canonical_rows(G, 1, rows)
    assert basis is not None
    assert not verify_two_sided(basis)
    # the same verdict from translating the rows themselves
    assert not gring._rows_translation_closed(basis._impl,
                                              gring._translations(G))
    assert not verify_certificate(doc)


def test_verify_rejects_a_canonical_basis_that_is_not_two_sided():
    # flip one free bit above the pivot of one stored row: the rows stay
    # canonical and keep their count, so the canonicity and quotient_size
    # checks pass, and the two-sided check is the one that must reject
    G = build_group("Q8xQ8")
    doc = realize_exponent4(G).to_dict()
    rows = [parse_element_literal(lit, G, 1) for lit in doc["ideal_basis"]]
    pivots = {row.index(1) for row in rows}
    free = [g for g in range(G.n) if g not in pivots]
    for i, f in itertools.product(range(len(rows)), free):
        if f < rows[i].index(1):
            continue
        tampered = list(rows)
        tampered[i] = tuple(c ^ (g == f) for g, c in enumerate(rows[i]))
        basis = IdealBasis.from_vectors(G, 1, tampered)
        if not verify_two_sided(basis):
            break
    else:
        pytest.fail("every one-bit change kept the span two-sided")
    assert basis.rows == tampered
    assert 1 << (G.n - basis.rank()) == doc["quotient_size"]
    doc["ideal_basis"] = [element_literal(r, G) for r in tampered]
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


def test_verify_checks_every_generator_image():
    # b = a in this presentation of C4, so b's image must equal a's
    doc = realize_exponent4(build_group("C4")).to_dict()
    doc["group"] = {"gens": ["a", "b"], "relators": ["a^4", "a*b^-1"]}
    image = doc["iso_witness"]["a"]
    doc["iso_witness"] = {"a": image, "b": image}
    assert verify_certificate(doc)
    doc["iso_witness"] = {"a": image, "b": "1"}
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


@pytest.mark.parametrize("field,value", [
    ("char", 2 ** 100),
    ("char", 2 ** 7),
    ("group", "C6"),
    ("ambient", "zz"),
    ("group", "C2x" * 9 + "C2"),
    ("group", {"gens": ["a"], "relators": ["a^3"]}),
    ("group", {"gens": ["a"], "relators": ["a^1024"]}),
    ("ambient", "file:/nonexistent/group.pres"),
    # specs that parse to a group other than the one they display
    ("group", {"gens": ["a"], "relators": ["a^8\nrels: a^2"]}),
    ("group", {"gens": ["a b"], "relators": ["a^2", "b^2", "[a,b]"]}),
    ("group", {"gens": ["a", "b"], "relators": ["a^4, b^2", "[b,a]"]}),
    ("group", {"gens": ["a"], "relators": ["a^8\n# note"]}),
    ("group", " Q8 x C2"),
    # the coset scan's work cap refuses it before a second vertex's scan
    ("group", {"gens": ["a"], "relators": ["a^65536"]}),
])
def test_verify_rejects_unbuildable_fields(field, value):
    from fuchs2.errors import CertificateError
    doc = realize_exponent4(build_group("Q8")).to_dict()
    doc[field] = value
    start = time.perf_counter()
    with pytest.raises(CertificateError):
        verify_certificate(doc)
    assert time.perf_counter() - start < 2


def test_verify_refuses_a_spec_that_builds_another_presentation():
    # the newline splits one relator into a second "rels:" line, so the
    # spec displays C8 but would build C2, which C2's certificate realizes
    from fuchs2.errors import CertificateError
    doc = realize_exponent4(build_group("C2")).to_dict()
    doc["group"] = {"gens": ["a"], "relators": ["a^8\nrels: a^2"]}
    with pytest.raises(CertificateError, match=r"'relators': \['a\^8', "
                                               r"'a\^2'\]"):
        verify_certificate(doc)


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


def test_fixture_suite_builds_each_group_once(monkeypatch):
    # six ambient groups, two of which differ from their expected group;
    # certificates are checked against the groups already built
    built = []
    real_build = fuchs2.search.build_group
    monkeypatch.setattr(fuchs2.search, "build_group",
                        lambda spec: built.append(spec) or real_build(spec))

    def no_verify(cert):
        raise AssertionError("run_fixtures rebuilt a certificate's groups")

    monkeypatch.setattr(fuchs2.search, "verify_certificate", no_verify)
    assert all(r.verified for r in run_fixtures())
    assert len(built) == 8


def test_fixture_suite_tabulates_no_unit_group(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("run_fixtures left the witness-check route")

    # the search module imports neither; their modules' names are patched
    # for any route through them
    assert not {"unit_group", "isomorphism"} & set(vars(fuchs2.search))
    monkeypatch.setattr(gring, "unit_group", forbidden)
    monkeypatch.setattr(fuchs2.groups, "isomorphism", forbidden)
    assert all(r.verified for r in run_fixtures())


@pytest.mark.parametrize("row", FIXTURES, ids=[row[0] for row in FIXTURES])
def test_recorded_witness_is_the_unit_table_discovery(row):
    _, ambient_spec, m, literals, expected_spec, witness = row
    assert oracles.fixture_witness_by_unit_table(
        ambient_spec, m, literals, expected_spec) == witness


# a fixture and a change to its witness: two images swapped on a
# nonabelian group, an image replaced by 1, an image of even augmentation
BAD_WITNESSES = {
    "swap": ("SG32_37_char2", lambda w: (w[1], w[0]) + w[2:]),
    "one": ("C16_char2", lambda w: ("1",) + w[1:]),
    "even": ("C8_char2", lambda w: (w[0] + "+a",) + w[1:]),
}


@pytest.mark.parametrize("kind", sorted(BAD_WITNESSES))
def test_wrong_witness_fails_the_fixture_suite(monkeypatch, kind):
    name, change = BAD_WITNESSES[kind]
    row = next(r for r in FIXTURES if r[0] == name)
    bad = row[:5] + (change(row[5]),)
    result = run_fixture(*bad)
    assert not result.verified
    assert ", ".join(bad[5]) in result.detail
    monkeypatch.setattr(fuchs2.search, "FIXTURES", [bad])
    with pytest.raises(InternalInvariantError, match=name):
        run_fixtures(strict=True)


def test_all_fixtures_verify():
    results = run_fixtures(strict=True)
    assert all(r.verified for r in results)
    assert len(results) == 6
