import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchs2.errors import Fuchs2Error
from fuchs2.gring import (
    _Gf2Basis,
    quotient_ring,
    unit_group,
    verify_two_sided,
)
from fuchs2.groups import build_group, verify_homomorphism
from fuchs2.parsing import parse_element_literal
from fuchs2.search import verify_certificate
from fuchs2.star import (
    CHIEF_CHAINS,
    _normal_forms,
    chief_chain_sequences,
    complement_ideal,
    composition_bases,
    pc_sequence,
    realize_exponent4,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

import oracles
from test_gring import SMALL


# -- composition bases --------------------------------------------------------

def test_pc_sequence_c2():
    G = build_group("C2")
    seq = pc_sequence(G)
    assert len(seq.elements) == 1
    assert seq.split == 0


def test_pc_sequence_c4():
    G = build_group("C4")
    seq = pc_sequence(G)
    a = G.gen_indices[0]
    assert seq.elements == (a, G.mul[a][a])
    assert seq.split == 0


def test_pc_sequence_q8():
    G = build_group("Q8")
    seq = pc_sequence(G)
    i, j = G.gen_indices
    assert seq.elements == (i, j, G.mul[i][i])
    assert seq.split == 2


PC_SPECS = ["C1", "C2", "C4", "C8", "C2xC2", "D8", "Q8", "M16", "Q16",
            "C4xC4", "D8xC2", "SG32_37", "SG64_88"]


@pytest.mark.parametrize("spec", PC_SPECS)
def test_pc_sequence_properties(spec):
    G = build_group(spec)
    seq = pc_sequence(G)
    k = len(seq.elements)
    assert (1 << k) == G.n
    # unique normal forms: encode is a bijection onto {0,1}^k
    assert sorted(seq.encode) == list(range(G.n))
    # center-last split
    center = set(G.center())
    tail = seq.elements[seq.split:]
    assert all(x in center for x in tail)
    assert set(G.subgroup(tail)) == center
    assert all(x not in center for x in seq.elements[:seq.split])


# -- star tables --------------------------------------------------------------

@pytest.mark.parametrize("spec", ["C4", "Q8", "D8", "C4xC2", "D8xC2",
                                  "Q8xQ8"])
def test_star_is_elementary_abelian(spec):
    G = build_group(spec)
    st = star_table(G, pc_sequence(G))
    n = G.n
    for x in range(n):
        assert st.star(x, x) == 0
        assert st.star(0, x) == x
        for y in range(n):
            assert st.star(x, y) == st.star(y, x)
    random.seed(13)
    for _ in range(200):
        x, y, z = (random.randrange(n) for _ in range(3))
        assert st.star(st.star(x, y), z) == st.star(x, st.star(y, z))


def test_star_c4_example():
    G = build_group("C4")
    st = star_table(G, pc_sequence(G))
    a = G.gen_indices[0]
    a2 = G.mul[a][a]
    a3 = G.mul[a][a2]
    # a * (a a^2) has exponent vectors 10 XOR 11 = 01, the square
    assert st.star(a, a3) == a2


# -- condition verification ---------------------------------------------------

@pytest.mark.parametrize("spec", ["C2", "C4", "C2xC2", "C4xC4", "D8", "Q8",
                                  "D8xC2", "Q8xC2"])
def test_conditions_hold_for_exponent_4(spec):
    G = build_group(spec)
    st = star_table(G, pc_sequence(G))
    ok, witness = verify_star_conditions(G, st)
    assert ok and witness is None


def test_conditions_fail_for_c8_naive_sequence():
    G = build_group("C8")
    a = G.gen_indices[0]
    seq = [a, G.power(a, 2), G.power(a, 4)]
    st = star_table_from_elements(G, seq)
    ok, witness = verify_star_conditions(G, st)
    assert not ok
    assert witness is not None
    # the witness triple from the source construction: a, a*a^2, a gives
    # a^2 on one side and a^2*a^4 on the other
    b = G.power(a, 3)
    lhs = st.star(G.mul[a][st.star(a, b)], a)
    rhs = st.star(G.mul[a][a], G.mul[a][b])
    assert lhs != rhs
    assert lhs == G.power(a, 2)
    assert rhs == G.power(a, 6)


def test_star_table_is_built_only_for_the_witness_scan():
    G = build_group("Q8xQ8")
    st = star_table(G, pc_sequence(G))
    assert verify_star_conditions(G, st) == (True, None)
    assert "table" not in st.__dict__
    C8 = build_group("C8")
    a = C8.gen_indices[0]
    naive = star_table_from_elements(C8, [a, C8.power(a, 2), C8.power(a, 4)])
    assert not verify_star_conditions(C8, naive)[0]
    assert "table" in naive.__dict__
    decode, enc = naive.decode, naive.encode
    assert naive.table == [[decode[ea ^ eb] for eb in enc] for ea in enc]


def test_nonunique_sequence_rejected():
    G = build_group("C8")
    a = G.gen_indices[0]
    with pytest.raises(Fuchs2Error):
        star_table_from_elements(G, [a, G.power(a, 2), G.power(a, 3)])


# -- complement ideal ---------------------------------------------------------

def test_complement_dimensions():
    for spec, dim in [("C2", 0), ("C4", 1), ("Q8", 4)]:
        G = build_group(spec)
        st = star_table(G, pc_sequence(G))
        basis = complement_ideal(G, st)
        assert basis.rank() == dim, spec


@pytest.mark.parametrize("spec", ["C2", "C4", "C2xC2", "C4xC2", "D8", "Q8",
                                  "C4xC4", "D8xC2", "Q8xC2"])
def test_complement_matches_brute_kernel(spec):
    # oracle: enumerate all even subsets with trivial star-sum (|G| <= 16)
    G = build_group(spec)
    st = star_table(G, pc_sequence(G))
    basis = complement_ideal(G, st)
    brute = oracles.brute_star_kernel(G, st.encode)
    assert basis.span_size() == len(brute)
    for mask in brute:
        vec = tuple((mask >> g) & 1 for g in range(G.n))
        assert basis.contains(vec)


# the certify ladder and the order-256 encode of the benchmark
CERTIFY_LADDER = ["Q8", "D8", "C4xC2", "C4xC4", "Q8xC2", "D8xC2",
                  "C4xC2xC2", "Q8xC4", "D8xC4", "C4xC4xC2", "Q8xC2xC2",
                  "D8xC2xC2", "Q8xQ8", "D8xD8", "Q8xD8", "C4xC4xC4",
                  "Q8xC4xC2", "D8xC4xC2", "CLS3_64"]
ENCODE_POOL = ["C4xC4xC4xC2xC2", "C4xC4xC4xC4", "C4xC4xC2xC2xC2xC2",
               "Q8xQ8xC4", "D8xD8xC4", "Q8xD8xC4",
               "Q8xC4xC4xC2", "D8xC4xC4xC2", "Q8xQ8xC2xC2"]


@pytest.mark.parametrize("spec", CERTIFY_LADDER + ENCODE_POOL)
def test_complement_rows_match_an_insert_built_kernel(spec):
    G = _group(spec)
    # the basis realize_exponent4 takes: the first passing the conditions
    tables = (star_table(G, seq) for seq in composition_bases(G))
    st = next(t for t in tables if verify_star_conditions(G, t)[0])
    expected = _Gf2Basis(G.n)
    for v in oracles.star_kernel_planes(st.encode):
        expected.insert(v)
    if G.n <= 8:
        # the planes span the kernel the exhaustive oracle enumerates
        assert expected.span_size() == \
            len(oracles.brute_star_kernel(G, st.encode))
    assert complement_ideal(G, st).key() == tuple(expected.rows)


def test_two_sided_check_translates_the_annihilator(monkeypatch):
    # the complement of an order-256 group has rank |G| - 9; deciding it
    # on the 9 annihilator vectors takes 2d translations each
    G = build_group("Q8xQ8xC4")
    basis = complement_ideal(G, star_table(G, pc_sequence(G)))
    count = [0]
    translate = _Gf2Basis.translate
    string_translation = _Gf2Basis.string_translation

    def counted(v, perm):
        count[0] += 1
        return translate(v, perm)

    def counted_string_translation(n, perm):
        move = string_translation(n, perm)

        def counted_move(v):
            count[0] += 1
            return move(v)
        return counted_move

    monkeypatch.setattr(_Gf2Basis, "translate", staticmethod(counted))
    monkeypatch.setattr(_Gf2Basis, "string_translation",
                        staticmethod(counted_string_translation))
    assert verify_two_sided(basis)
    d = len(G.minimal_generators())
    assert 0 < count[0] <= 2 * d * (G.n - basis.rank())


@pytest.mark.parametrize("spec", ["C4", "C2xC2", "D8", "Q8", "C4xC2"])
def test_normal_complement_meets_group_trivially(spec):
    # 1 + I intersects the embedded group only in the identity:
    # e_1 + e_g lies in the kernel only for g = 1
    G = build_group(spec)
    st = star_table(G, pc_sequence(G))
    basis = complement_ideal(G, st)
    for g in range(1, G.n):
        vec = [0] * G.n
        vec[0] = 1
        vec[g] = 1
        assert not basis.contains(tuple(vec)), g


# -- full pipeline ------------------------------------------------------------

def assert_natural_witness(G, cert):
    """The witness is g -> g + I: each generator's image is its own
    residue."""
    ring = quotient_ring(cert.basis)
    for name, g in zip(G.gen_names, G.gen_indices):
        image = parse_element_literal(cert.witness[name], G, 1)
        assert ring.project(image) == ring.element_index[g], name


@pytest.mark.parametrize("spec", ["C2", "C2xC2", "C4", "Q8", "D8"])
def test_realize_small(spec):
    G = build_group(spec)
    cert = realize_exponent4(G)
    assert cert.quotient_size == 2 * G.n
    assert cert.method == "star"
    assert verify_certificate(cert)
    assert_natural_witness(G, cert)


@pytest.mark.parametrize("spec", ["D8xC4xC4", "C4xC4xC4xC2xC2"])
def test_realize_orders_128_and_256(spec):
    G = build_group(spec)
    cert = realize_exponent4(G)
    assert cert.quotient_size == 2 * G.n
    assert verify_certificate(cert.to_json())
    assert_natural_witness(G, cert)


def test_realize_rejects_exponent_8():
    with pytest.raises(Fuchs2Error) as err:
        realize_exponent4(build_group("C8"))
    assert "screener" in str(err.value)


def test_realize_certificate_roundtrip():
    G = build_group("Q8")
    cert = realize_exponent4(G)
    assert verify_certificate(cert.to_json())


def test_certificate_units_are_local():
    # quotient is local: units are exactly the odd-augmentation residues
    G = build_group("D8")
    cert = realize_exponent4(G)
    ring = quotient_ring(cert.basis)
    units = unit_group(ring)
    odd = [i for i in range(ring.size) if ring.augmentation_index(i) % 2]
    assert sorted(units.residue_index) == odd
    assert all(units.position[r] == k
               for k, r in enumerate(units.residue_index))


def test_realize_verifies_the_natural_map_once(monkeypatch):
    from fuchs2 import star
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_homomorphism(*args)

    monkeypatch.setattr(star, "verify_homomorphism", counted)
    realize_exponent4(build_group("Q8"))
    assert len(calls) == 1


def test_realize_raises_when_the_natural_map_fails(monkeypatch):
    # the natural map is the isomorphism by theory; no other one is sought
    from fuchs2 import star
    from fuchs2.errors import InternalInvariantError
    monkeypatch.setattr(star, "projection_witness", lambda *args: None)
    with pytest.raises(InternalInvariantError, match="natural map"):
        realize_exponent4(build_group("Q8"))


def test_realize_deterministic():
    G1 = build_group("Q8xC2")
    G2 = build_group("Q8xC2")
    cert = realize_exponent4(G1)
    assert cert.to_json() == realize_exponent4(G2).to_json()
    assert_natural_witness(G1, cert)


# -- class >= 3 ---------------------------------------------------------------

CLS3_64 = ("gens: a b\n"
           "rels: a^4, b^4, a*b*a*b*a*b*a*b, "
           "a*b^-1*a*b^-1*a*b^-1*a*b^-1, [b,a]^2, [a^2,b]")

CLS4_128 = ("gens: a b\n"
            "rels: a^4, b^4, a*b*a*b*a*b*a*b, "
            "a*b^-1*a*b^-1*a*b^-1*a*b^-1, [[b,a],b], [a^2,b^2]")


def _presented(text):
    from fuchs2.groups import enumerate_presentation
    from fuchs2.parsing import parse_presentation_text
    return enumerate_presentation(parse_presentation_text(text))


# CLS4_128 with one more relator: the first two give non-isomorphic groups
# of order 64, class 4 and |Z| = 2, the third a class-3 group of order 64
OPEN_64 = [CLS4_128 + ", a^2*b*a^2*b", CLS4_128 + ", a^2*b*a*b^2*a*b^-1"]
CLS3_64B = CLS4_128 + ", a*b^2*a^-1*b^2"


def test_realize_class_3_group_via_chief_chain_fallback():
    # exponent-4 groups of nilpotency class 3, where every composition
    # basis comes from a chief chain through the center; one of them
    # passes the translation conditions
    for text in (CLS3_64, CLS3_64B):
        G = _presented(text)
        assert G.n == 64
        assert G.exponent() == 4
        assert G.nilpotency_class() == 3
        cert = realize_exponent4(G)
        assert cert.quotient_size == 2 * G.n
        assert verify_certificate(cert)
        assert_natural_witness(G, cert)


def test_class_4_group_is_a_recorded_open_case():
    # exponent-4 groups of class 4 where no tried composition basis
    # satisfies the conditions (every chief chain fails, and offline sweeps
    # over ~10^4 normal/subgroup-chain sequences of CLS4_128 fail too); the
    # constructive route reports honest exhaustion and the screeners
    # degrade to "unknown" with an explanatory note
    from fuchs2.errors import InternalInvariantError
    from fuchs2.groups import isomorphism
    from fuchs2.screeners import screen
    groups = [_presented(text) for text in [CLS4_128] + OPEN_64]
    assert [G.n for G in groups] == [128, 64, 64]
    assert isomorphism(groups[1], groups[2]) is None
    for G in groups:
        assert G.exponent() == 4
        assert G.nilpotency_class() == 4
        if G.n == 64:
            assert len(G.center()) == 2
        with pytest.raises(InternalInvariantError):
            realize_exponent4(G)
        v = screen(G)
        assert v.status == "unknown"
        assert any("bounded search" in note for note in v.notes)


# -- the candidate stream -----------------------------------------------------

PRESENTED = {"CLS3_64": CLS3_64, "CLS4_128": CLS4_128}


def _group(spec):
    if spec in PRESENTED:
        return _presented(PRESENTED[spec])
    return build_group(spec)


def _basis_key(seq):
    return seq.elements, seq.split, seq.encode


@pytest.mark.parametrize("spec", PC_SPECS + ["CLS3_64"])
def test_pc_sequence_is_first_composition_basis(spec):
    G = _group(spec)
    first = next(composition_bases(G))
    assert _basis_key(pc_sequence(G)) == _basis_key(first)


@pytest.mark.parametrize("spec", ["C2", "Q8", "D8xC2", "C4xC4xC2",
                                  "CLS3_64"])
def test_realize_takes_first_basis_passing_the_conditions(spec):
    G = _group(spec)
    for seq in composition_bases(G):
        st = star_table(G, seq)
        if verify_star_conditions(G, st)[0]:
            break
    else:
        pytest.fail("no composition basis passed the conditions")
    cert = realize_exponent4(G)
    assert cert.basis.rows == complement_ideal(G, st).rows
    assert_natural_witness(G, cert)


def test_open_case_message_counts_the_bases_checked():
    import re
    from fuchs2.errors import InternalInvariantError
    G = _presented(CLS4_128)
    with pytest.raises(InternalInvariantError) as info:
        realize_exponent4(G)
    tried = re.search(r"\((\d+) sequences tried\)", str(info.value))
    assert int(tried.group(1)) == len(list(composition_bases(G)))


def _elements(bases):
    return [seq.elements for seq in bases]


@pytest.mark.parametrize("spec", ["CLS3_64", "CLS4_128", "Q16"])
def test_class_3_up_bases_are_the_chief_chain_bases(spec):
    G = _group(spec)
    assert G.nilpotency_class() >= 3
    chains = itertools.islice(chief_chain_sequences(G), CHIEF_CHAINS)
    assert _elements(composition_bases(G)) == _elements(chains)


@pytest.mark.parametrize("spec", ["C1", "Q8", "CLS3_64", "CLS4_128"])
def test_composition_bases_do_not_repeat(spec):
    elements = _elements(composition_bases(_group(spec)))
    assert elements
    assert len(set(elements)) == len(elements)


def test_chief_chain_without_normal_forms_is_an_error(monkeypatch):
    # every chief chain through the center gives unique normal forms by
    # theory; a chain that does not is reported, not skipped
    from fuchs2 import star
    from fuchs2.errors import InternalInvariantError
    G = _presented(CLS3_64)
    monkeypatch.setattr(star, "_normal_forms", lambda *args: None)
    with pytest.raises(InternalInvariantError, match="normal-form"):
        list(chief_chain_sequences(G))


# -- normal forms -------------------------------------------------------------

@functools.cache
def _small_bases(spec):
    G = build_group(spec)
    return G, [seq.elements for seq in composition_bases(G)]


@st.composite
def element_sequences(draw):
    """A sequence over a small group: elements drawn with repeats and the
    identity, of any length up to log2|G| + 1, or a composition basis in a
    shuffled order."""
    G, bases = _small_bases(draw(st.sampled_from(SMALL)))
    if draw(st.booleans()):
        seq = draw(st.permutations(draw(st.sampled_from(bases))))
    else:
        seq = draw(st.lists(st.integers(0, G.n - 1),
                            max_size=G.n.bit_length()))
    return G, tuple(seq)


@settings(max_examples=300, deadline=None)
@given(drawn=element_sequences())
def test_normal_forms_match_the_brute_force(drawn):
    G, seq = drawn
    decode = _normal_forms(G, seq)
    encode = oracles.normal_forms_brute(G, seq)
    if encode is None:
        assert decode is None
    else:
        assert [decode[e] for e in encode] == list(range(G.n))


@pytest.mark.parametrize("spec", ["CLS3_64", "CLS4_128"])
def test_every_basis_has_the_brute_force_normal_forms(spec):
    G = _group(spec)
    for seq in composition_bases(G):
        assert seq.encode == oracles.normal_forms_brute(G, seq.elements)
        assert seq.decode == _normal_forms(G, seq.elements)


# sha256 over (spec, elements, split, encode) of the first 8 composition
# bases of every catalog group of order <= 64 and every order-256 encode
# group: neither the basis order nor the normal forms may drift
BASES_DIGEST = \
    "c09ba0ae07baf6c269fa385abd68cbdcd5bd83eb40fdfd1c376690510536512d"


def test_composition_bases_are_pinned():
    digest = hashlib.sha256()
    for spec in oracles.catalog_specs(64) + ENCODE_POOL:
        G = build_group(spec)
        for seq in itertools.islice(composition_bases(G), 8):
            digest.update(repr((spec, seq.elements, seq.split,
                                seq.encode)).encode())
    assert digest.hexdigest() == BASES_DIGEST


# -- group specs --------------------------------------------------------------

D8_PRESENTATION = "gens: a b\nrels: a^4, b^2, b*a*b^-1*a"


def test_realize_refuses_a_group_without_a_spec():
    # a product with a presented factor has a display name but no spec that
    # builds it, so a certificate naming it would fail its own verifier
    from fuchs2.groups import catalog_group, direct_product
    from fuchs2.screeners import screen
    G = direct_product(catalog_group("C", 4), _presented(D8_PRESENTATION))
    assert G.name == "C4xpresented" and G.source_spec is None
    with pytest.raises(Fuchs2Error, match="no serializable spec"):
        realize_exponent4(G)
    # a verdict without a certificate may still name it
    assert screen(G, realize=False).group_spec == "C4xpresented"
