"""The generator-edge check of a map into the units of a residue ring
(``gring.unit_isomorphism``) and the certificate verifier built on it,
against the unit-group table route of ``oracles.verify_by_unit_table``."""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import fuchs2.gring
import fuchs2.search
from fuchs2.gring import IdealBasis, quotient_ring, unit_group, \
    unit_isomorphism
from fuchs2.groups import build_group, enumerate_presentation
from fuchs2.parsing import element_literal, parse_element_literal, \
    parse_presentation_text
from fuchs2.search import SearchConfig, run_fixtures, \
    search_realizing_ideal, verify_certificate
from fuchs2.star import realize_exponent4

import oracles
from test_star import CLS3_64

# every group of the certify benchmark's exponent-4 ladder
CERTIFY_LADDER = (
    "Q8", "D8", "C4xC2",
    "C4xC4", "Q8xC2", "D8xC2", "C4xC2xC2",
    "Q8xC4", "D8xC4", "C4xC4xC2", "Q8xC2xC2", "D8xC2xC2",
    "Q8xQ8", "D8xD8", "Q8xD8", "C4xC4xC4", "Q8xC4xC2", "D8xC4xC2",
)


@functools.cache
def certificate_docs():
    """name -> certificate document: the fixtures, star realizations of
    the certify ladder and CLS3_64, and two search hits (characteristic 2
    and, on the Howell path, characteristic 4)."""
    docs = {r.name: r.certificate.to_dict() for r in run_fixtures()}
    for spec in CERTIFY_LADDER:
        docs[spec] = realize_exponent4(build_group(spec)).to_dict()
    cls3 = enumerate_presentation(parse_presentation_text(CLS3_64))
    docs["CLS3_64"] = realize_exponent4(cls3).to_dict()
    docs["search C8xC2"] = search_realizing_ideal(
        build_group("C8xC2"), SearchConfig(m=1)).to_dict()
    docs["search Q8 char 4"] = search_realizing_ideal(
        build_group("Q8"), SearchConfig(m=2, budget=200_000)).to_dict()
    return docs


def test_verify_agrees_with_the_unit_table_on_certificates():
    docs = certificate_docs()
    assert len(docs) == 6 + len(CERTIFY_LADDER) + 3
    for name, doc in docs.items():
        assert verify_certificate(doc), name
        assert oracles.verify_by_unit_table(doc), name


# small enough to mutate quickly, and covering both basis forms, fixtures,
# star and search certificates, one- and many-generator groups
MUTATED = ("Q8", "D8", "C4xC2", "Q8xC2", "C4xC4xC2", "C8_char2",
           "C16_char2", "SG32_37_char2", "Q8_char4", "search C8xC2",
           "search Q8 char 4")


def _mutate(doc, kind, names, terms):
    """A copy of doc with its witness mutated: image of names[0] replaced
    by 1, by the image of names[1], or by itself plus the ambient elements
    ``terms``; or the images of names[0] and names[1] swapped."""
    doc = dict(doc, iso_witness=dict(doc["iso_witness"]))
    witness = doc["iso_witness"]
    a, b = names
    if kind == "one":
        witness[a] = "1"
    elif kind == "other":
        witness[a] = witness[b]
    elif kind == "swap":
        witness[a], witness[b] = witness[b], witness[a]
    else:
        ambient = fuchs2.search._build_from_spec(doc["ambient"])
        m = doc["char"].bit_length() - 1
        coeffs = list(parse_element_literal(witness[a], ambient, m))
        for t in terms:
            coeffs[t % ambient.n] = (coeffs[t % ambient.n] + 1) % (1 << m)
        witness[a] = element_literal(coeffs, ambient)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_agrees_with_the_unit_table_on_mutated_witnesses(data):
    # a swap can be an automorphism, which both routes accept, so the two
    # are compared on accepted certificates as well as rejected ones
    doc = certificate_docs()[data.draw(st.sampled_from(MUTATED))]
    names = sorted(doc["iso_witness"])
    kind = data.draw(st.sampled_from(["one", "other", "plus", "swap"]))
    pair = (data.draw(st.sampled_from(names)),
            data.draw(st.sampled_from(names)))
    terms = data.draw(st.lists(st.integers(0, 511), min_size=1, max_size=2))
    mutated = _mutate(doc, kind, pair, terms)
    assert verify_certificate(mutated) == \
        oracles.verify_by_unit_table(mutated)


def test_mutations_are_both_accepted_and_rejected():
    # the Hypothesis mutations reach both verdicts: swapping the images of
    # i and j is an automorphism of Q8, mapping i to 1 is not
    doc = certificate_docs()["Q8"]
    swapped = _mutate(doc, "swap", ("i", "j"), ())
    assert verify_certificate(swapped)
    assert oracles.verify_by_unit_table(swapped)
    killed = _mutate(doc, "one", ("i", "j"), ())
    assert not verify_certificate(killed)
    assert not oracles.verify_by_unit_table(killed)


def test_verify_rejects_an_injective_map_into_a_larger_ring():
    # Q8 -> Z_2[Q8], g -> g is an injective homomorphism into the units,
    # but they number 128, not 8: only the residue count rejects it
    doc = dict(certificate_docs()["Q8"], ideal_basis=[], quotient_size=256,
               iso_witness={"i": "i", "j": "j"})
    assert not verify_certificate(doc)
    assert not oracles.verify_by_unit_table(doc)


# -- unit_isomorphism against word maps on the unit table ---------------------

def _ring_and_witness(doc):
    """(group, residue ring, witness residues) of a certificate."""
    ambient = fuchs2.search._build_from_spec(doc["ambient"])
    G = fuchs2.search._build_from_spec(doc["group"])
    m = doc["char"].bit_length() - 1
    rows = [parse_element_literal(r, ambient, m) for r in doc["ideal_basis"]]
    ring = quotient_ring(IdealBasis.from_vectors(ambient, m, rows,
                                                 closed=True))
    images = [ring.project(parse_element_literal(
        doc["iso_witness"][g], ambient, m)) for g in G.gen_names]
    return G, ring, images


@functools.cache
def _rings():
    """(group, ring, witness residues, unit group) per realizing ring,
    plus the group ring Z_2[D8], whose units outnumber D8."""
    out = []
    for name in ("Q8", "D8", "C4xC2", "C8_char2", "search C8xC2",
                 "search Q8 char 4"):
        G, ring, images = _ring_and_witness(certificate_docs()[name])
        out.append((G, ring, images, unit_group(ring)))
    D8 = build_group("D8")
    ring = quotient_ring(IdealBasis.zero(D8, 1))
    out.append((D8, ring, [ring.element_index[g] for g in D8.gen_indices],
                unit_group(ring)))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_unit_isomorphism_is_the_word_map_when_it_is_an_isomorphism(data):
    G, ring, witness, units = data.draw(st.sampled_from(_rings()))
    kind = data.draw(st.sampled_from(["residue", "unit", "witness",
                                      "permuted"]))
    if kind == "residue":
        images = [data.draw(st.integers(0, ring.size - 1))
                  for _ in G.gen_indices]
    elif kind == "unit":
        images = [data.draw(st.sampled_from(units.residue_index))
                  for _ in G.gen_indices]
    elif kind == "witness":
        images = list(witness)
    else:
        images = data.draw(st.permutations(witness))
    phi = unit_isomorphism(ring, G, G.gen_indices, images)

    if not all(r in units.position for r in images):
        assert phi is None
        return
    words = oracles.word_map(G, G.gen_indices,
                             [units.position[r] for r in images], units.group)
    exists = (units.group.n == G.n
              and len(set(words.values())) == G.n
              and all(words[g] == units.position[r]
                      for g, r in zip(G.gen_indices, images))
              and oracles.is_homomorphism_on(G, units.group, words))
    assert (phi is None) == (not exists)
    if phi is not None:
        assert phi == [units.residue_index[words[x]] for x in range(G.n)]
        assert phi[0] == ring.one_index


def test_unit_isomorphism_rejects_non_units_before_any_product(monkeypatch):
    # a non-unit image also fails an edge (phi(g)^ord(g) = phi(1) = 1 would
    # make it a unit); the augmentation test rejects it without products
    G, ring, witness, _ = _rings()[0]
    monkeypatch.setattr(ring, "products", None)
    even = next(r for r in range(ring.size)
                if ring.augmentation_index(r) % 2 == 0)
    assert unit_isomorphism(ring, G, G.gen_indices,
                            [even] + witness[1:]) is None


def test_realize_and_verify_build_no_unit_table(monkeypatch):
    # unit_group tabulates the units only for `fuchs2 unitgroup`; the
    # search module does not import it
    def refuse(ring):
        raise AssertionError("unit_group called")

    monkeypatch.setattr(fuchs2.gring, "unit_group", refuse)
    assert not hasattr(fuchs2.search, "unit_group")
    cert = realize_exponent4(build_group("Q8xD8"))
    assert verify_certificate(cert.to_json())


# -- the one-table walk against the level-by-level walk -----------------------

def test_unit_isomorphism_is_the_level_by_level_walk():
    """Every fixture, every group of the certify ladder, CLS3_64 and Q8 at
    m = 2, with the witness as stored and tampered: two images swapped,
    one image replaced by an even-augmentation residue or by 1."""
    rejected = 0
    for name, doc in certificate_docs().items():
        G, ring, images = _ring_and_witness(doc)
        gens = G.gen_indices
        phi = unit_isomorphism(ring, G, gens, images)
        assert phi is not None, name
        assert phi == oracles.unit_isomorphism_by_levels(
            ring, G, gens, images), name
        even = next(r for r in range(ring.size)
                    if ring.augmentation_index(r) % 2 == 0)
        tampered = [[even] + images[1:], [ring.one_index] + images[1:]]
        orders = [G.element_order(g) for g in gens]
        for i, j in itertools.combinations(range(len(gens)), 2):
            swapped = list(images)
            swapped[i], swapped[j] = images[j], images[i]
            if orders[i] != orders[j]:
                tampered.append(swapped)
            else:  # it may be an automorphism: agree with the reference
                assert unit_isomorphism(ring, G, gens, swapped) == \
                    oracles.unit_isomorphism_by_levels(
                        ring, G, gens, swapped), name
        for bad in tampered:
            assert unit_isomorphism(ring, G, gens, bad) is None, name
            assert oracles.unit_isomorphism_by_levels(
                ring, G, gens, bad) is None, name
            rejected += 1
    assert rejected > 2 * len(certificate_docs())
