import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuchs2.errors import (
    ImproperIdealError,
    NotAUnitError,
    RingMismatchError,
    SizeCapError,
    UnclosedIdealError,
)
from fuchs2.gring import (
    UNIT_TABLE_CAP,
    IdealBasis,
    RingElement,
    cyclic_quotient_order,
    full_group_ring,
    ideal_closure,
    quotient_ring,
    scalar_unit_identity_check,
    unit_group,
    verify_two_sided,
)
from fuchs2.gring import _Gf2Basis, _HowellBasis
from fuchs2.groups import build_group, isomorphism
from fuchs2.parsing import parse_element_literal

import oracles


def elem(spec, text, m=1):
    G = build_group(spec)
    return RingElement(G, m, parse_element_literal(text, G, m))


# -- element arithmetic -------------------------------------------------------

def test_one_is_identity():
    x = elem("C4", "1+a+a^3")
    one = RingElement.one(x.group, 1)
    assert one * x == x == x * one


def test_char2_square():
    x = elem("C4", "1+a")
    expected = parse_element_literal("1+a^2", x.group, 1)
    assert (x * x).coeffs == expected


def test_z4_q8_nilpotent_square():
    x = elem("Q8", "2*i+2", m=2)
    assert (x * x).is_zero()


def test_multiply_against_naive_oracle():
    random.seed(11)
    for spec, m in [("C8", 1), ("Q8", 2), ("D8", 2), ("M16", 1)]:
        G = build_group(spec)
        mod = 1 << m
        for _ in range(12):
            a = tuple(random.randrange(mod) for _ in range(G.n))
            b = tuple(random.randrange(mod) for _ in range(G.n))
            fast = (RingElement(G, m, a) * RingElement(G, m, b)).coeffs
            assert fast == oracles.naive_convolve(G, m, a, b)


def test_multiply_distributive_associative():
    random.seed(5)
    G = build_group("D8")
    m = 2
    mk = lambda: RingElement(
        G, m, tuple(random.randrange(4) for _ in range(G.n)))
    for _ in range(10):
        x, y, z = mk(), mk(), mk()
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_mismatched_rings_rejected():
    with pytest.raises(RingMismatchError):
        elem("C4", "1+a") * elem("C8", "1+a")
    with pytest.raises(RingMismatchError):
        x = elem("C4", "1+a", m=1)
        y = RingElement(x.group, 2, x.coeffs)
        x * y


# -- augmentation and units ---------------------------------------------------

def test_augmentation_values():
    assert elem("C8", "1+a+a^4+a^5").augmentation() == 0
    assert elem("C8", "1").augmentation() == 1
    assert elem("Q8", "2*i+2", m=2).augmentation() == 0


def test_augmentation_is_ring_hom():
    random.seed(3)
    G = build_group("Q8")
    for m in (1, 2):
        mod = 1 << m
        for _ in range(10):
            a = RingElement(G, m, tuple(random.randrange(mod)
                                        for _ in range(G.n)))
            b = RingElement(G, m, tuple(random.randrange(mod)
                                        for _ in range(G.n)))
            assert (a + b).augmentation() == \
                (a.augmentation() + b.augmentation()) % mod
            assert (a * b).augmentation() == \
                (a.augmentation() * b.augmentation()) % mod


def test_unit_criterion_and_inverse():
    x = elem("C4", "1+a")
    assert not x.is_unit()
    with pytest.raises(NotAUnitError):
        x.inverse()
    y = elem("C4", "1+a+a^2")
    assert y.is_unit()
    inv = y.inverse()
    assert inv.coeffs == oracles.brute_find_inverse(y.group, 1, y.coeffs)


def test_group_elements_are_units():
    G = build_group("Q8")
    for m in (1, 2):
        for g in range(G.n):
            x = RingElement.group_element(G, m, g)
            assert x.is_unit()
            assert x.inverse() == RingElement.group_element(G, m, G.inv[g])


@pytest.mark.parametrize("spec,m", [("C2", 1), ("C2", 2), ("C4", 1),
                                    ("C4", 2), ("C2xC2", 1)])
def test_units_equal_odd_augmentation_small(spec, m):
    # exhaustive dual route: linear-algebra invertibility vs parity
    G = build_group(spec)
    mod = 1 << m
    for coeffs in itertools.product(range(mod), repeat=G.n):
        ours = RingElement(G, m, coeffs).is_unit()
        theirs = oracles.is_unit_by_linear_algebra(G, m, coeffs)
        assert ours == theirs, coeffs


# -- canonical bases ----------------------------------------------------------

def test_gf2_basis_is_canonical():
    random.seed(23)
    n = 10
    vecs = [tuple(random.randrange(2) for _ in range(n)) for _ in range(5)]
    b1 = _Gf2Basis(n)
    for v in vecs:
        b1.insert(sum(c << i for i, c in enumerate(v)))
    # generating the same span in another order and with sums
    b2 = _Gf2Basis(n)
    masks = [sum(c << i for i, c in enumerate(v)) for v in vecs]
    random.shuffle(masks)
    masks.append(masks[0] ^ masks[-1])
    for v in masks:
        b2.insert(v)
    assert b1.rows == b2.rows


def test_howell_membership_matches_brute_span():
    random.seed(17)
    n, m = 4, 2
    mod = 1 << m
    for _ in range(25):
        vecs = [tuple(random.randrange(mod) for _ in range(n))
                for _ in range(random.randrange(1, 4))]
        h = _HowellBasis(n, m)
        for v in vecs:
            h.insert(list(v))
        # brute span: all Z_4-combinations
        span = {(0,) * n}
        for v in vecs:
            new = set(span)
            for k in range(1, mod):
                for s in span:
                    new.add(tuple((k * a + b) % mod for a, b in zip(v, s)))
            span = new
        assert h.span_size() == len(span)
        for v in itertools.product(range(mod), repeat=n):
            assert h.contains(v) == (v in span), v


def test_howell_form_is_canonical():
    random.seed(29)
    n, m = 5, 3
    mod = 1 << m
    for _ in range(15):
        vecs = [[random.randrange(mod) for _ in range(n)]
                for _ in range(3)]
        h1 = _HowellBasis(n, m)
        for v in vecs:
            h1.insert(v)
        # same span, different generators: random unimodular-ish recombos
        combos = []
        for _ in range(4):
            u = random.choice([1, 3, 5, 7])
            i, j = random.randrange(3), random.randrange(3)
            combos.append([(u * a + b) % mod
                           for a, b in zip(vecs[i], vecs[j])])
        h2 = _HowellBasis(n, m)
        for v in combos + vecs:
            h2.insert(list(v))
        assert h1.row_vectors() == h2.row_vectors()


def test_gf2_agrees_with_howell_at_m1():
    random.seed(31)
    G = build_group("C8")
    for _ in range(10):
        vecs = [tuple(random.randrange(2) for _ in range(G.n))
                for _ in range(3)]
        gf2 = IdealBasis.from_vectors(G, 1, vecs)
        how = _HowellBasis(G.n, 1)
        for v in vecs:
            how.insert(list(v))
        assert [tuple(r) for r in gf2.rows] == how.row_vectors()


# -- ideal closure ------------------------------------------------------------

def test_zero_ideal():
    G = build_group("C4")
    basis = ideal_closure([RingElement.zero(G, 1)])
    assert basis.rank() == 0
    assert basis.closed


def test_c8_fixture_closure_dimension():
    basis = ideal_closure([elem("C8", "1+a+a^4+a^5")])
    assert basis.span_size() == 8  # additive subgroup of size 2^3
    assert basis.closed
    assert verify_two_sided(basis)


def test_closure_matches_brute_force():
    for spec, m, lits in [
        ("C8", 1, ["1+a+a^4+a^5"]),
        ("C4", 1, ["1+a"]),
        ("Q8", 2, ["2*i+2", "2*j+2"]),
        ("D8", 1, ["1+a+b+a*b"]),
    ]:
        G = build_group(spec)
        gens = [RingElement(G, m, parse_element_literal(t, G, m))
                for t in lits]
        basis = ideal_closure(gens)
        brute = oracles.brute_two_sided_ideal(G, m, [g.coeffs for g in gens])
        assert basis.span_size() == len(brute)
        assert all(basis.contains(v) for v in brute)


def test_closure_idempotent():
    basis = ideal_closure([elem("C8", "1+a+a^4+a^5")])
    again = ideal_closure([RingElement(basis.group, 1, tuple(r))
                           for r in basis.rows])
    assert [tuple(r) for r in again.rows] == [tuple(r) for r in basis.rows]


def test_improper_ideal_rejected():
    with pytest.raises(ImproperIdealError):
        ideal_closure([elem("C4", "1")])
    with pytest.raises(ImproperIdealError):
        ideal_closure([elem("C4", "a^2")])  # unit generator


def test_z4_q8_fixture_quotient_16():
    G = build_group("Q8")
    lits = ["2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j", "i*j+j*i"]
    gens = [RingElement(G, 2, parse_element_literal(t, G, 2)) for t in lits]
    basis = ideal_closure(gens)
    ring = quotient_ring(basis)
    assert ring.size == 16


def test_z4_q8_published_generators_alone_give_double_cover():
    # the four published generators close to index 32, whose unit group is
    # Q8 x C2; the i*j+j*i symmetrizer is required to reach Q8 itself
    G = build_group("Q8")
    lits = ["2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j"]
    gens = [RingElement(G, 2, parse_element_literal(t, G, 2)) for t in lits]
    ring = quotient_ring(ideal_closure(gens))
    assert ring.size == 32
    units = unit_group(ring)
    other = build_group("Q8xC2")
    assert isomorphism(units.group, other) is not None


# -- quotient rings -----------------------------------------------------------

def test_zero_ideal_quotient_is_ambient():
    G = build_group("C4")
    ring = full_group_ring(G, 1)
    assert ring.size == 16


def test_c8_quotient_32():
    basis = ideal_closure([elem("C8", "1+a+a^4+a^5")])
    ring = quotient_ring(basis)
    assert ring.size == 32


def test_quotient_multiplication_well_defined():
    random.seed(41)
    G = build_group("C8")
    basis = ideal_closure([elem("C8", "1+a+a^4+a^5")])
    ring = quotient_ring(basis)
    rows = [tuple(r) for r in basis.rows]
    for _ in range(20):
        x = tuple(random.randrange(2) for _ in range(G.n))
        y = tuple(random.randrange(2) for _ in range(G.n))
        # perturb x and y by random ideal elements
        dx = rows[random.randrange(len(rows))]
        dy = rows[random.randrange(len(rows))]
        x2 = tuple((a + b) % 2 for a, b in zip(x, dx))
        y2 = tuple((a + b) % 2 for a, b in zip(y, dy))
        p1 = ring.project(oracles.naive_convolve(G, 1, x, y))
        p2 = ring.project(oracles.naive_convolve(G, 1, x2, y2))
        assert p1 == p2


def test_unclosed_basis_rejected():
    G = build_group("C8")
    basis = IdealBasis.from_vectors(
        G, 1, [parse_element_literal("1+a+a^4+a^5", G, 1)])
    with pytest.raises(UnclosedIdealError):
        quotient_ring(basis)


def test_quotient_ring_axioms_on_representatives():
    random.seed(43)
    G = build_group("Q8")
    lits = ["2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j", "i*j+j*i"]
    gens = [RingElement(G, 2, parse_element_literal(t, G, 2)) for t in lits]
    ring = quotient_ring(ideal_closure(gens))
    size = ring.size
    for _ in range(60):
        i, j, k = (random.randrange(size) for _ in range(3))
        assert ring.mul_index(ring.mul_index(i, j), k) == \
            ring.mul_index(i, ring.mul_index(j, k))
        assert ring.mul_index(i, ring.add_index(j, k)) == \
            ring.add_index(ring.mul_index(i, j), ring.mul_index(i, k))


# catalog groups of order <= 16
SMALL = ("C2", "C4", "C2xC2", "C8", "C4xC2", "Q8", "D8", "C2xC2xC2", "C16",
         "C8xC2", "C4xC4", "D16", "Q16", "QD16", "M16", "Q8xC2", "D8xC2",
         "C4xC2xC2")


@st.composite
def random_quotients(draw):
    """A residue ring of Z_{2^m}[G] by 1-4 random generators, each with odd
    coefficients on an even-size support (so inside the maximal ideal)."""
    G = build_group(draw(st.sampled_from(SMALL)))
    m = draw(st.sampled_from((1, 2, 3)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from((2, 4) if G.n >= 4 else (2,)))
        support = draw(st.lists(st.integers(0, G.n - 1), min_size=size,
                                max_size=size, unique=True))
        coeffs = [0] * G.n
        for g in support:
            coeffs[g] = draw(st.integers(0, (1 << (m - 1)) - 1)) * 2 + 1
        gens.append(RingElement(G, m, tuple(coeffs)))
    try:
        return quotient_ring(ideal_closure(gens))
    except SizeCapError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(ring=random_quotients(), data=st.data())
def test_products_match_naive_convolution(ring, data):
    G, m, mod = ring.group, ring.m, ring.mod
    index = st.integers(0, ring.size - 1)
    for _ in range(8):
        i, j = data.draw(index), data.draw(index)
        a, b = ring.reps[i], ring.reps[j]
        assert ring.mul_index(i, j) == \
            ring.project(oracles.naive_convolve(G, m, a, b))
        assert ring.add_index(i, j) == \
            ring.project([(x + y) % mod for x, y in zip(a, b)])
    rows = data.draw(st.lists(index, max_size=6))
    cols = data.draw(st.lists(index, max_size=6))
    assert ring.products(rows, cols) == \
        [[ring.mul_index(i, j) for j in cols] for i in rows]


def test_products_on_demand_above_unit_table_cap():
    random.seed(47)
    G = build_group("C16")
    ring = full_group_ring(G, 1)
    assert ring.size // 2 > UNIT_TABLE_CAP
    with pytest.raises(SizeCapError):
        unit_group(ring)
    for _ in range(40):
        i, j = random.randrange(ring.size), random.randrange(ring.size)
        assert ring.mul_index(i, j) == ring.project(
            oracles.naive_convolve(G, 1, ring.reps[i], ring.reps[j]))


# -- unit groups --------------------------------------------------------------

def test_units_z2_c8_invariants():
    units = unit_group(full_group_ring(build_group("C8"), 1))
    assert units.group.abelian_invariants() == (8, 4, 2, 2)


def test_units_of_c8_quotient():
    basis = ideal_closure([elem("C8", "1+a+a^4+a^5")])
    units = unit_group(quotient_ring(basis))
    assert units.group.abelian_invariants() == (8, 2)


def test_units_trivial_field():
    # Z_2[C1] is the field with two elements
    units = unit_group(full_group_ring(build_group("C1"), 1))
    assert units.group.n == 1


def test_unit_count_is_half_of_ring():
    for spec, m, lits in [("C8", 1, ["1+a+a^4+a^5"]), ("C4", 1, ["1+a"])]:
        G = build_group(spec)
        gens = [RingElement(G, m, parse_element_literal(t, G, m))
                for t in lits]
        ring = quotient_ring(ideal_closure(gens))
        units = unit_group(ring)
        assert 2 * units.group.n == ring.size


# -- the scalar lemma checks --------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_scalar_unit_identity(m):
    assert scalar_unit_identity_check(m)


def test_cyclic_quotient_orders():
    assert cyclic_quotient_order(2, 1) in (1, 2)
    assert cyclic_quotient_order(3, 5) in (1, 2)
    assert cyclic_quotient_order(3, 3) in (1, 2, 4)
    for N in range(2, 6):
        for k in range(1, 1 << N, 2):
            order = cyclic_quotient_order(N, k)
            if k % 4 == 1:
                assert 2 % order == 0, (N, k)
            else:
                assert 4 % order == 0, (N, k)
