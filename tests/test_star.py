import random

import pytest

from fuchs2.errors import Fuchs2Error
from fuchs2.gring import quotient_ring, unit_group
from fuchs2.groups import build_group
from fuchs2.search import verify_certificate
from fuchs2.star import (
    complement_ideal,
    pc_sequence,
    realize_exponent4,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

import oracles


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


@pytest.mark.parametrize("spec", ["C1", "C2", "C4", "C8", "C2xC2", "D8",
                                  "Q8", "M16", "Q16", "C4xC4", "D8xC2",
                                  "SG32_37", "SG64_88"])
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

@pytest.mark.parametrize("spec", ["C2", "C2xC2", "C4", "Q8", "D8"])
def test_realize_small(spec):
    G = build_group(spec)
    cert = realize_exponent4(G)
    assert cert.quotient_size == 2 * G.n
    assert cert.method == "star"
    assert verify_certificate(cert)


@pytest.mark.parametrize("spec", ["D8xC4xC4", "C4xC4xC4xC2xC2"])
def test_realize_orders_128_and_256(spec):
    G = build_group(spec)
    cert = realize_exponent4(G)
    assert cert.quotient_size == 2 * G.n
    assert verify_certificate(cert.to_json())


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


def test_realize_deterministic():
    G1 = build_group("Q8xC2")
    G2 = build_group("Q8xC2")
    assert realize_exponent4(G1).to_json() == realize_exponent4(G2).to_json()


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


def test_realize_class_3_group_via_chief_chain_fallback():
    # exponent-4 group of nilpotency class 3: the recursive construction
    # fails the translation conditions here, and the chief-series fallback
    # finds a working composition basis
    G = _presented(CLS3_64)
    assert G.n == 64
    assert G.exponent() == 4
    assert G.nilpotency_class() == 3
    cert = realize_exponent4(G)
    assert cert.quotient_size == 2 * G.n
    assert verify_certificate(cert)


def test_class_4_group_is_a_recorded_open_case():
    # exponent-4 group of class 4 where no tried composition basis
    # satisfies the conditions (recursion, chief chains, and offline
    # sweeps over ~10^4 normal/subgroup-chain sequences all fail); the
    # constructive route reports honest exhaustion and the screeners
    # degrade to "unknown" with an explanatory note
    from fuchs2.errors import InternalInvariantError
    from fuchs2.screeners import screen
    G = _presented(CLS4_128)
    assert G.n == 128
    assert G.exponent() == 4
    assert G.nilpotency_class() == 4
    with pytest.raises(InternalInvariantError):
        realize_exponent4(G)
    v = screen(G)
    assert v.status == "unknown"
    assert any("bounded search" in note for note in v.notes)
