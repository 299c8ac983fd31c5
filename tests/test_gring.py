import gc
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fuchs2.errors import (
    Fuchs2Error,
    ImproperIdealError,
    InternalInvariantError,
    RingMismatchError,
    SizeCapError,
    UnclosedIdealError,
)
from fuchs2.gring import (
    M_CAP,
    UNIT_TABLE_CAP,
    IdealBasis,
    convolve,
    cyclic_quotient_order,
    full_group_ring,
    ideal_closure,
    quotient_ring,
    scalar_unit_identity_check,
    unit_group,
    verify_two_sided,
)
from fuchs2 import gring
from fuchs2.gring import _Gf2Basis, _HowellBasis
from fuchs2.groups import build_group, isomorphism
from fuchs2.parsing import parse_element_literal, parse_element_terms, \
    terms_literal

import oracles


def elem(spec, text, m=1):
    """The element ``text`` of Z_{2^m}[spec], with its group."""
    G = build_group(spec)
    return G, parse_element_literal(text, G, m)


def close(spec, *literals, m=1):
    """The ideal_closure of the elements ``literals`` of Z_{2^m}[spec]."""
    G = build_group(spec)
    return ideal_closure(G, m, [parse_element_literal(t, G, m)
                                for t in literals])


def _add(m, a, b):
    return tuple((x + y) % (1 << m) for x, y in zip(a, b))


# -- element arithmetic -------------------------------------------------------

def test_one_is_identity():
    G, x = elem("C4", "1+a+a^3")
    one = (1, 0, 0, 0)
    assert convolve(G, 1, one, x) == x == convolve(G, 1, x, one)


def test_char2_square():
    G, x = elem("C4", "1+a")
    assert convolve(G, 1, x, x) == parse_element_literal("1+a^2", G, 1)


def test_z4_q8_nilpotent_square():
    G, x = elem("Q8", "2*i+2", m=2)
    assert not any(convolve(G, 2, x, x))


def test_multiply_against_naive_oracle():
    random.seed(11)
    for spec, m in [("C8", 1), ("Q8", 2), ("D8", 2), ("M16", 1)]:
        G = build_group(spec)
        mod = 1 << m
        for _ in range(12):
            a = tuple(random.randrange(mod) for _ in range(G.n))
            b = tuple(random.randrange(mod) for _ in range(G.n))
            assert convolve(G, m, a, b) == \
                oracles.naive_convolve(G, m, a, b)


def test_multiply_distributive_associative():
    random.seed(5)
    G = build_group("D8")
    m = 2
    mk = lambda: tuple(random.randrange(4) for _ in range(G.n))
    mul = lambda a, b: convolve(G, m, a, b)
    for _ in range(10):
        x, y, z = mk(), mk(), mk()
        assert mul(x, _add(m, y, z)) == _add(m, mul(x, y), mul(x, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


# -- augmentation and units ---------------------------------------------------

def test_augmentation_is_ring_hom():
    random.seed(3)
    G = build_group("Q8")
    for m in (1, 2):
        mod = 1 << m
        for _ in range(10):
            a = tuple(random.randrange(mod) for _ in range(G.n))
            b = tuple(random.randrange(mod) for _ in range(G.n))
            assert sum(convolve(G, m, a, b)) % mod == \
                sum(a) * sum(b) % mod


@pytest.mark.parametrize("spec,m", [("C2", 1), ("C2", 2), ("C4", 1),
                                    ("C4", 2), ("C2xC2", 1)])
def test_units_equal_odd_augmentation_small(spec, m):
    # exhaustive dual route: linear-algebra invertibility vs parity
    G = build_group(spec)
    mod = 1 << m
    for coeffs in itertools.product(range(mod), repeat=G.n):
        ours = sum(coeffs) % 2 == 1
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


def _in_span(masks, v):
    return oracles.gf2_rank(masks + [v]) == oracles.gf2_rank(masks)


@st.composite
def gf2_spans(draw):
    """Random masks over n columns, two insertion orders of them (the
    second with one redundant sum), and probe vectors."""
    n = draw(st.integers(1, 24))
    mask = st.integers(0, (1 << n) - 1)
    masks = draw(st.lists(mask, max_size=12))
    other = draw(st.permutations(masks))
    if len(masks) >= 2:
        i, j = draw(st.integers(0, len(masks) - 1)), \
            draw(st.integers(0, len(masks) - 1))
        pos = draw(st.integers(0, len(other)))
        other = other[:pos] + [masks[i] ^ masks[j]] + other[pos:]
    subset = draw(st.lists(st.booleans(), min_size=len(masks),
                           max_size=len(masks)))
    in_span = 0
    for keep, v in zip(subset, masks):
        if keep:
            in_span ^= v
    probes = draw(st.lists(mask, max_size=4)) + [in_span]
    return n, masks, other, probes


@settings(max_examples=150, deadline=None)
@given(case=gf2_spans())
def test_gf2_basis_against_rank_oracle(case):
    n, masks, other, probes = case
    b1 = _Gf2Basis(n)
    for v in masks:
        b1.insert(v)
    rows = b1.rows
    pivots = [r & -r for r in rows]
    # reduced echelon form: nonzero rows sorted by pivot, and each pivot
    # bit is set in exactly one row
    assert all(rows)
    assert pivots == sorted(set(pivots))
    for p in pivots:
        assert sum(1 for r in rows if r & p) == 1
    assert b1.rank() == len(rows) == oracles.gf2_rank(masks)
    pivot_bits = 0
    for p in pivots:
        pivot_bits |= p
    for v in probes:
        assert b1.contains(v) == _in_span(masks, v)
        red = b1.reduce(v)
        assert red & pivot_bits == 0
        assert _in_span(masks, v ^ red)
    b2 = _Gf2Basis(n)
    for v in other:
        b2.insert(v)
    assert b2.rows == rows


@settings(max_examples=60, deadline=None)
@given(case=gf2_spans())
def test_gf2_from_reduced_takes_an_echelon_basis(case):
    n, masks, _, _ = case
    built = _Gf2Basis(n)
    for v in masks:
        built.insert(v)
    placed = _Gf2Basis.from_reduced(n, built.rows)
    assert (placed.pivots, placed.mask) == (built.pivots, built.mask)


@pytest.mark.parametrize("rows", [
    [0b011, 0b110],   # the first row has a bit at the second's pivot
    [0b011, 0b101],   # two rows share a pivot
    [0b011, 0],       # a zero row
])
def test_gf2_from_reduced_rejects_rows_that_are_not_reduced(rows):
    with pytest.raises(InternalInvariantError, match="reduced echelon"):
        _Gf2Basis.from_reduced(4, rows)


def test_howell_membership_matches_brute_span():
    random.seed(17)
    n, m = 4, 2
    mod = 1 << m
    for _ in range(25):
        vecs = [tuple(random.randrange(mod) for _ in range(n))
                for _ in range(random.randrange(1, 4))]
        h = _HowellBasis(n, m)
        for v in vecs:
            h.insert(h.pack(v))
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
            assert h.contains(h.pack(v)) == (v in span), v


@pytest.mark.parametrize("n", [1, 2, 16, 512])
def test_howell_masks_are_the_fieldwise_sums(n):
    for m in range(1, M_CAP + 1):
        h = _HowellBasis(n, m)
        w = 2 * m
        assert h.low == sum(((1 << m) - 1) << (g * w) for g in range(n))
        assert h.add == sum((1 << m) << (g * w) for g in range(n))


def test_packed_sums_and_doubles_are_fieldwise():
    # plus and doubled of both basis classes are the sum and the double of
    # the coefficient tuples mod 2^m, with no carry between fields
    random.seed(31)
    n = 5
    for m in range(1, M_CAP + 1):
        mod = 1 << m
        impl = _Gf2Basis(n) if m == 1 else _HowellBasis(n, m)
        for _ in range(15):
            a, b = ([random.randrange(mod) for _ in range(n)]
                    for _ in range(2))
            assert impl.unpack(impl.plus(impl.pack(a), impl.pack(b))) == \
                tuple((x + y) % mod for x, y in zip(a, b))
            assert impl.unpack(impl.doubled(impl.pack(a))) == \
                tuple(2 * x % mod for x in a)


def test_howell_form_is_canonical():
    random.seed(29)
    n, m = 5, 3
    mod = 1 << m
    for _ in range(15):
        vecs = [[random.randrange(mod) for _ in range(n)]
                for _ in range(3)]
        h1 = _HowellBasis(n, m)
        for v in vecs:
            h1.insert(h1.pack(v))
        # same span, different generators: random unimodular-ish recombos
        combos = []
        for _ in range(4):
            u = random.choice([1, 3, 5, 7])
            i, j = random.randrange(3), random.randrange(3)
            combos.append([(u * a + b) % mod
                           for a, b in zip(vecs[i], vecs[j])])
        h2 = _HowellBasis(n, m)
        for v in combos + vecs:
            h2.insert(h2.pack(v))
        assert h1.rows == h2.rows


@st.composite
def howell_spans(draw):
    """Vectors over Z_{2^m} (m = 2..4), a second insertion order of them,
    combinations that lie in their span, and arbitrary probes."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(2, 4))
    mod = 1 << m
    vector = st.lists(st.integers(0, mod - 1), min_size=n, max_size=n)
    vecs = draw(st.lists(vector, min_size=1, max_size=6))
    other = draw(st.permutations(vecs))
    combos = []
    for _ in range(3):
        coeffs = draw(st.lists(st.integers(0, mod - 1), min_size=len(vecs),
                               max_size=len(vecs)))
        combos.append(tuple(sum(c * v[j] for c, v in zip(coeffs, vecs))
                            % mod for j in range(n)))
    probes = draw(st.lists(vector, max_size=4))
    return n, m, vecs, other, combos, probes


def _howell_reads(h, probes):
    packed = [h.pack(v) for v in probes]
    return ([h.unpack(h.reduce(v)) for v in packed],
            [h.contains(v) for v in packed],
            h.span_size(), h.pivot_radices())


@settings(max_examples=150, deadline=None)
@given(case=howell_spans())
def test_howell_reads_agree_before_and_after_back_substitution(case):
    n, m, vecs, other, combos, probes = case
    h1 = _HowellBasis(n, m)
    for v in vecs:
        h1.insert(h1.pack(v))
    mod = 1 << m
    # combinations and the 2^j-multiples of the inserted vectors lie in
    # the span; the multiples need the annihilator rows
    members = combos + [tuple((x << j) % mod for x in v)
                        for v in vecs for j in range(m)]
    assert all(h1.contains(h1.pack(v)) for v in members)
    probes = [tuple(v) for v in probes] + members
    before = _howell_reads(h1, probes)
    rows = h1.rows
    assert _howell_reads(h1, probes) == before
    h2 = _HowellBasis(n, m)
    for v in other:
        h2.insert(h2.pack(v))
    assert h2.rows == rows


def test_gf2_agrees_with_howell_at_m1():
    random.seed(31)
    G = build_group("C8")
    for _ in range(10):
        vecs = [tuple(random.randrange(2) for _ in range(G.n))
                for _ in range(3)]
        gf2 = IdealBasis.from_vectors(G, 1, vecs)
        how = _HowellBasis(G.n, 1)
        for v in vecs:
            how.insert(how.pack(v))
        assert gf2.rows == [how.unpack(r) for r in how.rows]


@st.composite
def howell_sessions(draw):
    """A width n <= 24 and an m in 1..M_CAP, two batches of vectors over
    Z_{2^m} (inserted before and after the rows are first read), probes
    and a column permutation.  Entries favour 0, 2^m - 1 and the powers
    of 2, where carries, borrows and valuations change."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, M_CAP))
    mod = 1 << m
    entry = st.one_of(
        st.sampled_from([0, mod - 1] + [1 << j for j in range(m)]),
        st.integers(0, mod - 1))
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    batches = [draw(st.lists(vector, min_size=1, max_size=6)),
               draw(st.lists(vector, max_size=3))]
    probes = draw(st.lists(vector, max_size=4))
    perm = draw(st.permutations(range(n)))
    return n, m, batches, probes, perm


def _packed_reads(h, probes, perm):
    packed = [h.pack(v) for v in probes]
    return ([h.unpack(h.reduce(v)) for v in packed],
            [h.contains(v) for v in packed],
            [h.unpack(h.translate(v, perm)) for v in packed],
            h.rank(), h.span_size(), h.pivot_radices())


def _reference_reads(ref, probes, perm):
    return ([ref.reduce(v) for v in probes],
            [ref.contains(v) for v in probes],
            [ref.translate(v, perm) for v in probes],
            ref.rank(), ref.span_size(), ref.pivot_radices())


def _check_against_reference(n, m, batches, probes, perm):
    """Every read of the packed basis equals the reference Howell form's,
    after each batch of inserts, before and after the rows are read."""
    h = _HowellBasis(n, m)
    ref = oracles.HowellReference(n, m)
    for batch in batches:
        for v in batch:
            # entry g sits in the low bits of the 2m-bit field at bit 2mg
            assert h.pack(v) == sum(c << (2 * m * g) for g, c in enumerate(v))
            assert h.insert(h.pack(v)) == ref.insert(v)
        # the inserted vectors reduce to zero; the probes need not
        here = probes + batch
        assert _packed_reads(h, here, perm) == _reference_reads(ref, here,
                                                                perm)
        assert [h.unpack(r) for r in h.rows] == ref.rows
        assert _packed_reads(h, here, perm) == _reference_reads(ref, here,
                                                                perm)


def test_packed_howell_fields_never_carry_or_borrow():
    # entries 2^m - 1 after the pivots: q * row reaches (2^m - 1)^2, which
    # needs the full 2m-bit field, and entries below the subtrahend need
    # the 2^m added to every field
    n, m = 512, 6
    top = (1 << m) - 1
    ones = (top,) * n
    batches = [[(1,) + ones[1:]], [(0, 2) + ones[2:]], [ones]]
    probes = [ones, (top,) + (0,) * (n - 1),
              tuple(top if g % 3 else 1 for g in range(n))]
    _check_against_reference(n, m, batches, probes, list(range(n))[::-1])


@settings(max_examples=150, deadline=None)
@given(case=howell_sessions())
def test_packed_howell_matches_reference(case):
    _check_against_reference(*case)


@st.composite
def packer_cases(draw):
    """A basis class at n <= 32 and m in {1, 2, 3, 6}, a vector with
    entries in [0, 2^(m+1)), sparse terms (a support that may repeat an
    element) and a permutation of the n elements."""
    n = draw(st.integers(1, 32))
    m = draw(st.sampled_from((1, 2, 3, 6)))
    entries = st.integers(0, (1 << (m + 1)) - 1)
    v = draw(st.lists(entries, min_size=n, max_size=n))
    support = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    coeffs = draw(st.lists(entries, min_size=len(support),
                           max_size=len(support)))
    perm = draw(st.permutations(range(n)))
    impl = _Gf2Basis(n) if m == 1 else _HowellBasis(n, m)
    return impl, m, v, support, coeffs, perm


@settings(max_examples=200, deadline=None)
@given(case=packer_cases())
def test_pack_and_translate_go_through_pack_terms(case):
    # pack_terms alone encodes each class's format; pack is its dense
    # view, and translating packed terms moves their support
    impl, m, v, support, coeffs, perm = case
    nonzero = [g for g, c in enumerate(v) if c]
    assert impl.pack(v) == impl.pack_terms(nonzero, [v[g] for g in nonzero])
    assert impl.unpack(impl.pack(v)) == tuple(c % (1 << m) for c in v)
    assert impl.translate(impl.pack_terms(support, coeffs), perm) == \
        impl.pack_terms([perm[g] for g in support], coeffs)


# -- ideal closure ------------------------------------------------------------

def test_zero_ideal():
    basis = close("C4", "0")
    assert basis.rank() == 0
    assert basis.closed


def test_c8_fixture_closure_dimension():
    basis = close("C8", "1+a+a^4+a^5")
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
        gens = [parse_element_literal(t, G, m) for t in lits]
        basis = ideal_closure(G, m, gens)
        brute = oracles.brute_two_sided_ideal(G, m, gens)
        assert basis.span_size() == len(brute)
        assert all(basis.contains(v) for v in brute)


def test_closure_idempotent():
    basis = close("C8", "1+a+a^4+a^5")
    again = ideal_closure(basis.group, 1, basis.rows)
    assert [tuple(r) for r in again.rows] == [tuple(r) for r in basis.rows]


@st.composite
def small_closures(draw):
    """1-2 generators in the even-sum ideal of Z_{2^m}[G], |G| <= 8."""
    G = build_group(draw(st.sampled_from(SMALL[:8])))
    m = draw(st.sampled_from((1, 2)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = draw(st.lists(st.integers(0, (1 << m) - 1),
                               min_size=G.n, max_size=G.n))
        if sum(coeffs) % 2:
            coeffs[draw(st.integers(0, G.n - 1))] ^= 1
        gens.append(tuple(coeffs))
    return G, m, gens


@settings(max_examples=60, deadline=None)
@given(case=small_closures())
def test_closure_against_brute_ideal(case):
    G, m, gens = case
    basis = ideal_closure(G, m, gens)
    brute = oracles.brute_two_sided_ideal(G, m, gens)
    assert basis.span_size() == len(brute)
    assert all(basis.contains(v) for v in brute)
    again = ideal_closure(G, m, basis.rows or [(0,) * G.n])
    assert again.rows == basis.rows


def test_improper_ideal_rejected():
    with pytest.raises(ImproperIdealError):
        close("C4", "1")
    with pytest.raises(ImproperIdealError):
        close("C4", "a^2")  # unit generator


@pytest.mark.parametrize("m, gen, error, match", [
    (1, (1, 1, 0), RingMismatchError, "wrong length"),
    (2, (1, 1, 0, 0, 0), RingMismatchError, "wrong length"),
    (1, (1, 2, 1, 0), RingMismatchError, "out of range"),
    (1, (1, -1, 0, 0), RingMismatchError, "out of range"),
    (2, (1, 4, 1, 0), RingMismatchError, "out of range"),
    (2, (3, -1, 0, 0), RingMismatchError, "out of range"),
    (0, (1, 1, 0, 0), Fuchs2Error, "m=0 outside"),
    (M_CAP + 1, (1, 1, 0, 0), Fuchs2Error, f"m={M_CAP + 1} outside"),
], ids=["short", "long", "2-at-m1", "negative-at-m1", "4-at-m2",
        "negative-at-m2", "m0", "above-M_CAP"])
def test_ideal_closure_checks_its_generators(m, gen, error, match):
    # a generator of Z_{2^m}[C4] has 4 coefficients in [0, 2^m), and m
    # lies in [1, M_CAP]
    with pytest.raises(Fuchs2Error, match=match) as info:
        ideal_closure(build_group("C4"), m, [(1, 1, 0, 0), gen])
    assert info.type is error


def test_ideal_closure_needs_a_generator():
    with pytest.raises(Fuchs2Error, match="at least one generator") as info:
        ideal_closure(build_group("C4"), 1, [])
    assert info.type is Fuchs2Error


def test_z4_q8_fixture_quotient_16():
    basis = close("Q8", "2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j",
                  "i*j+j*i", m=2)
    ring = quotient_ring(basis)
    assert ring.size == 16


def test_z4_q8_published_generators_alone_give_double_cover():
    # the four published generators close to index 32, whose unit group is
    # Q8 x C2; the i*j+j*i symmetrizer is required to reach Q8 itself
    ring = quotient_ring(close("Q8", "2*i+2", "2*j+2", "1+i+i^2+i^3",
                               "1+i+j+i*j", m=2))
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
    basis = close("C8", "1+a+a^4+a^5")
    ring = quotient_ring(basis)
    assert ring.size == 32


def test_quotient_multiplication_well_defined():
    random.seed(41)
    G = build_group("C8")
    basis = close("C8", "1+a+a^4+a^5")
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
    ring = quotient_ring(close("Q8", "2*i+2", "2*j+2", "1+i+i^2+i^3",
                               "1+i+j+i*j", "i*j+j*i", m=2))
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
def closure_inputs(draw):
    """1-3 generators of Z_{2^m}[G], G in SMALL, m <= 3: sparse ones on
    2-4 group elements or dense ones, each of even coefficient sum unless
    the case asks for an improper closure."""
    G = build_group(draw(st.sampled_from(SMALL)))
    m = draw(st.sampled_from((1, 2, 3)))
    proper = draw(st.integers(0, 9)) > 0
    coeff = st.integers(0, (1 << m) - 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(coeff, min_size=G.n, max_size=G.n))
        else:
            coeffs = [0] * G.n
            for g in draw(st.sets(st.integers(0, G.n - 1), min_size=1,
                                  max_size=min(4, G.n))):
                coeffs[g] = draw(coeff)
        if proper and sum(coeffs) % 2:
            coeffs[draw(st.integers(0, G.n - 1))] ^= 1
        gens.append(tuple(coeffs))
    return G, m, gens


def _elements(spec, m, *literals):
    G = build_group(spec)
    return G, m, [parse_element_literal(t, G, m) for t in literals]


def _closure_key(close, case):
    try:
        return close(*case).key()
    except ImproperIdealError:
        return None


@settings(max_examples=80, deadline=None)
@given(case=closure_inputs())
@example(case=_elements("D8", 1, "1+a+b+a*b"))
@example(case=_elements("D8xC2", 2, "1+a+b+a*b+a^2+a2",
                        "2*a+2*b*a2+2*a^3*b+2*a^2*a2+2*b+1+a"))
def test_closure_matches_the_worklist_closure(case):
    # spanning the left translates and closing them on the right by the
    # non-central generators gives the ideal the two-sided worklist gives
    assert _closure_key(ideal_closure, case) == \
        _closure_key(oracles.ideal_closure_worklist, case)


@pytest.mark.parametrize("spec", ["D8", "Q8", "D8xC2"])
@pytest.mark.parametrize("m", [1, 2])
def test_involution_of_a_closure_is_the_closure_of_x_star(spec, m):
    G = build_group(spec)
    rng = random.Random(f"{spec}/{m}")
    moved = 0
    for _ in range(80):
        support = rng.sample(range(G.n), 4)
        coeffs = [0] * G.n
        for g in support:
            coeffs[g] = rng.randrange(1, 1 << m, 2)
        x_star = [coeffs[G.inv[g]] for g in range(G.n)]
        ideal = ideal_closure(G, m, [coeffs])
        star = oracles.ideal_involution(ideal)
        assert star.key() == ideal_closure(G, m, [x_star]).key()
        assert oracles.ideal_involution(star).key() == ideal.key()
        moved += star.key() != ideal.key()
    assert moved  # I* differs from I for some x: the rows were moved


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
        gens.append(coeffs)
    try:
        return quotient_ring(ideal_closure(G, m, gens))
    except SizeCapError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(ring=random_quotients(), data=st.data())
def test_products_match_naive_convolution(ring, data):
    G, m, mod = ring.group, ring.m, ring.mod
    index = st.integers(0, ring.size - 1)
    for _ in range(8):
        i, j = data.draw(index), data.draw(index)
        a, b = ring.rep(i), ring.rep(j)
        assert ring.mul_index(i, j) == \
            ring.project(oracles.naive_convolve(G, m, a, b))
        assert ring.add_index(i, j) == \
            ring.project([(x + y) % mod for x, y in zip(a, b)])
    rows = data.draw(st.lists(index, max_size=6))
    cols = data.draw(st.lists(index, max_size=6))
    assert ring.products(rows, cols) == \
        [[ring.mul_index(i, j) for j in cols] for i in rows]


@settings(max_examples=60, deadline=None)
@given(ring=random_quotients())
def test_residue_index_is_mixed_radix_number(ring):
    assume(ring.size <= 4096)
    transversal = oracles.residue_transversal(ring.ideal)
    assert len(transversal) == ring.size
    for i, rep in enumerate(transversal):
        assert ring.rep(i) == rep
        assert ring.project(rep) == i
        assert ring.augmentation_index(i) == sum(rep) % ring.mod
    n = ring.group.n
    for g in range(n):
        e_g = tuple(int(h == g) for h in range(n))
        assert ring.element_index[g] == ring.project(e_g)


@st.composite
def deep_quotients(draw):
    """A residue ring of Z_{2^m}[G] at m = 4 or 6, where a packed Howell
    field is 8 or 12 bits wide, by 1-3 random generators of even
    coefficient sum, G of order <= 4, with at most 4096 residues."""
    G = build_group(draw(st.sampled_from(("C2", "C4", "C2xC2"))))
    m = draw(st.sampled_from((4, 6)))
    coeff = st.integers(0, (1 << m) - 1)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.lists(coeff, min_size=G.n, max_size=G.n))
        x[-1] ^= sum(x) & 1
        gens.append(x)
    try:
        ring = quotient_ring(ideal_closure(G, m, gens))
    except SizeCapError:
        assume(False)
    assume(ring.size <= 4096)
    return ring


@settings(max_examples=60, deadline=None)
@given(ring=deep_quotients(), data=st.data())
def test_packed_howell_ring_at_wide_fields(ring, data):
    # the packed residues agree with the transversal and with products
    # taken by the naive convolution and reduced by the ideal
    G, m, mod = ring.group, ring.m, ring.mod
    transversal = oracles.residue_transversal(ring.ideal)
    assert len(transversal) == ring.size
    position = {rep: i for i, rep in enumerate(transversal)}
    for i, rep in enumerate(transversal):
        assert ring.rep(i) == rep
        assert ring.project(rep) == i
        support = [g for g, c in enumerate(rep) if c]
        assert ring.terms(i) == (support, [rep[g] for g in support])
    for g in range(G.n):
        e_g = tuple(int(h == g) for h in range(G.n))
        assert ring.element_index[g] == position[ring.ideal.reduce(e_g)]
    index = st.integers(0, ring.size - 1)
    rows = data.draw(st.lists(index, min_size=1, max_size=6))
    cols = data.draw(st.lists(index, min_size=1, max_size=6))
    naive = [[position[ring.ideal.reduce(oracles.naive_convolve(
        G, m, transversal[i], transversal[j]))] for j in cols] for i in rows]
    assert ring.products(rows, cols) == naive
    for i, j in zip(rows, cols):
        added = [(x + y) % mod for x, y in zip(transversal[i], transversal[j])]
        assert ring.add_index(i, j) == position[ring.ideal.reduce(added)]


def test_q8_char4_fixture_units_are_the_images_of_the_brute_units():
    # R = Z_4[Q8]/I is local, so x + I is a unit exactly when x is one:
    # the units of Z_4[Q8], found by linear algebra, map onto the unit
    # group and the non-units miss it
    from fuchs2.search import FIXTURES
    _, spec, m, literals, _, _ = next(row for row in FIXTURES
                                      if row[0] == "Q8_char4")
    G = build_group(spec)
    ring = quotient_ring(ideal_closure(
        G, m, [parse_element_literal(t, G, m) for t in literals]))
    units = set(unit_group(ring).residue_index)
    brute = oracles.brute_unit_set(G, m)
    assert {ring.project(x) for x in brute} == units
    assert not any(ring.project(x) in units
                   for x in itertools.product(range(ring.mod), repeat=G.n)
                   if x not in brute)


def test_products_leave_no_reference_cycles():
    # a memo kept alive by a cycle would outlive the call until the next
    # full collection
    ring = full_group_ring(build_group("C8"), 1)
    gc.collect()
    gc.disable()
    try:
        table = ring.products(range(ring.size), [1, 2, 5, ring.size - 1])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert table[3] == [ring.mul_index(3, j) for j in (1, 2, 5, ring.size - 1)]


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
            oracles.naive_convolve(G, 1, ring.rep(i), ring.rep(j)))


def test_unit_table_cap_checked_before_scanning(monkeypatch):
    # a local ring with residue field GF(2) has size/2 units, so the cap is
    # decided without looking at a residue
    ring = full_group_ring(build_group("C16"), 1)

    def scanned(i):
        raise AssertionError("residues scanned")

    monkeypatch.setattr(ring, "augmentation_index", scanned)
    with pytest.raises(SizeCapError, match="32768"):
        unit_group(ring)


def _translation_closure(G, vectors, sides):
    """The GF(2) span of ``vectors`` closed under translation by every
    group element on the given sides ("left", "right")."""
    perms = []
    if "left" in sides:
        perms += [G.mul[g] for g in range(G.n)]
    if "right" in sides:
        perms += [[G.mul[h][g] for h in range(G.n)] for g in range(G.n)]
    return _closure_under(G, vectors, perms)


def _closure_under(G, vectors, perms):
    """The GF(2) span of ``vectors`` closed under the permutations."""
    impl = _Gf2Basis(G.n)
    work = [v for v in vectors if impl.insert(v)]
    while work:
        v = work.pop()
        for perm in perms:
            t = _Gf2Basis.translate(v, perm)
            if impl.insert(t):
                work.append(t)
    return IdealBasis(G, 1, impl)


@st.composite
def gf2_subspaces(draw):
    """A subspace of F_2[G]: the span of 0-4 random vectors, optionally
    closed on the left, the right or both sides, optionally plus one more
    random vector.  Vectors are random, or g + h, whose one-sided closures
    are often not two-sided."""
    G = build_group(draw(st.sampled_from(SMALL)))
    element = st.integers(0, G.n - 1)
    vector = st.one_of(st.integers(0, (1 << G.n) - 1),
                       st.builds(lambda g, h: 1 << g ^ 1 << h,
                                 element, element))
    sides = draw(st.sampled_from(((), ("left",), ("right",),
                                  ("left", "right"))))
    basis = _translation_closure(G, draw(st.lists(vector, max_size=4)),
                                 sides)
    if draw(st.booleans()):
        basis._impl.insert(draw(vector))
    return basis


@settings(max_examples=150, deadline=None)
@given(basis=gf2_subspaces())
def test_verify_two_sided_matches_brute_over_gf2(basis):
    assert verify_two_sided(basis) == \
        oracles.two_sided_brute(basis.group, 1, basis.rows)


RANKED = ("D8xC2", "Q8xC2", "C4xC4", "C8xC2")


@st.composite
def gf2_spans_of_every_rank(draw):
    """A subspace of F_2[G] of rank at least a drawn r in [0, n]: the span
    of one random vector, or of 1 + g, closed under all but up to two of
    the translations ``verify_two_sided`` tests (so it is often stable
    under all of them but one), then random vectors added until the rank
    reaches r.  Rank 0 is the case of the test below."""
    G = build_group(draw(st.sampled_from(RANKED)))
    rank = draw(st.integers(0, G.n))
    rnd = draw(st.randoms(use_true_random=False))
    perms = gring._translations(G)
    dropped = draw(st.lists(st.integers(0, len(perms) - 1), max_size=2))
    perms = [p for i, p in enumerate(perms) if i not in dropped]
    seed = draw(st.sampled_from((rnd.getrandbits(G.n),
                                 1 << rnd.randrange(G.n) | 1)))
    basis = _closure_under(G, [seed], perms)
    while basis.rank() < rank:
        basis._impl.insert(rnd.getrandbits(G.n))
    return basis


@settings(max_examples=120, deadline=None)
@given(basis=gf2_spans_of_every_rank())
def test_verify_two_sided_matches_brute_at_every_rank(basis):
    assert verify_two_sided(basis) == \
        oracles.two_sided_brute(basis.group, 1, basis.rows)


@pytest.mark.parametrize("spec", RANKED)
def test_verify_two_sided_on_the_zero_span_and_the_whole_ring(spec):
    G = build_group(spec)
    whole = IdealBasis.from_vectors(
        G, 1, [tuple(int(g == h) for h in range(G.n)) for g in range(G.n)])
    for basis in (IdealBasis.zero(G, 1), whole):
        assert verify_two_sided(basis)
        assert oracles.two_sided_brute(G, 1, basis.rows)
    assert whole.rank() == G.n


@pytest.mark.parametrize("spec", ["D8", "D16", "M16", "QD16", "D8xC2"])
def test_verify_two_sided_on_one_sided_ideals(spec):
    # s a noncentral involution and t = g s g^-1 != s: F_2[G](1 + s) is the
    # set of y with ys = y, and (1 + s)g is not in it, since
    # (1 + s)gs = (1 + s)tg and (1 + s)t != 1 + s; so it is a left ideal
    # and not a right ideal, and (1 + s)F_2[G] the other way round
    G = build_group(spec)
    s = next(x for x in range(G.n)
             if G.element_order(x) == 2 and x not in G.center())
    v = 1 | 1 << s
    both = _translation_closure(G, [v], ("left", "right"))
    assert verify_two_sided(both)
    assert oracles.two_sided_brute(G, 1, both.rows)
    for side in ("left", "right"):
        one = _translation_closure(G, [v], (side,))
        assert one.rank() == G.n // 2
        assert not oracles.two_sided_brute(G, 1, one.rows)
        assert verify_two_sided(one) is False
    # the left ideal passes the left translations alone, so only a right
    # translation can reject it
    left = _translation_closure(G, [v], ("left",))
    assert left._impl.translation_closed([G.mul[g] for g in range(G.n)])


@st.composite
def ideal_pairs(draw):
    """Two lists of 1-3 random generators of Z_{2^m}[G] inside the maximal
    ideal (odd coefficients on even supports)."""
    G = build_group(draw(st.sampled_from(SMALL)))
    m = draw(st.sampled_from((1, 2, 3)))

    def element():
        size = draw(st.sampled_from((2, 4) if G.n >= 4 else (2,)))
        support = draw(st.lists(st.integers(0, G.n - 1), min_size=size,
                                max_size=size, unique=True))
        coeffs = [0] * G.n
        for g in support:
            coeffs[g] = draw(st.integers(0, (1 << (m - 1)) - 1)) * 2 + 1
        return tuple(coeffs)

    return (G, m, [element() for _ in range(draw(st.integers(1, 3)))],
            [element() for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=40, deadline=None)
@given(pair=ideal_pairs())
def test_verify_two_sided_matches_brute_over_howell(pair):
    # a closed ideal, and the bare span of a few generators
    G, m, a, b = pair
    basis = ideal_closure(G, m, a)
    assert verify_two_sided(basis)
    assert oracles.two_sided_brute(G, m, basis.rows)
    partial = IdealBasis.from_vectors(G, m, b)
    assert verify_two_sided(partial) == \
        oracles.two_sided_brute(G, m, partial.rows)


@pytest.mark.parametrize("spec", SMALL + ("D8xC4", "Q8xQ8", "C4xC4xC2"))
def test_translations_are_distinct_and_cover_both_sides(spec):
    # R_g = L_g exactly for central g, so the right translation is kept
    # only for the non-central minimal generators
    G = build_group(spec)
    perms = gring._translations(G)
    gens = G.minimal_generators()
    central = set(oracles.center_brute(G))
    assert len({tuple(p) for p in perms}) == len(perms)
    assert len(perms) == len(gens) + sum(g not in central for g in gens)
    if G.is_abelian():
        assert len(perms) == len(gens)
    assert {tuple(p) for p in perms} == \
        {tuple(p) for p in oracles.translations_both_sides(G)}


@st.composite
def mixed_closures(draw):
    """1-3 random generators inside the maximal ideal of Z_{2^m}[G] over the
    SMALL groups and D8xC4 (whose minimal generators mix central and
    non-central ones, as Q8xC2's do), and one random vector that may
    perturb the closure into a span that is not an ideal."""
    G = build_group(draw(st.sampled_from(SMALL + ("D8xC4",))))
    m = draw(st.sampled_from((1, 2, 3)))
    mod = 1 << m

    def vector(even):
        coeffs = draw(st.lists(st.integers(0, mod - 1),
                               min_size=G.n, max_size=G.n))
        if even and sum(coeffs) % 2:
            coeffs[draw(st.integers(0, G.n - 1))] ^= 1
        return tuple(coeffs)

    gens = [vector(True) for _ in range(draw(st.integers(1, 3)))]
    return G, m, gens, vector(draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(case=mixed_closures())
def test_deduplicated_translations_match_both_sided_route(case):
    # closures, keys and two-sided verdicts are those of translating by
    # the left and the right translation of every minimal generator
    G, m, gens, extra = case

    def route():
        try:
            basis = ideal_closure(G, m, gens)
        except ImproperIdealError:
            return None, None, None
        perturbed = IdealBasis.from_vectors(G, m, basis.rows + [extra])
        return (basis.key(), verify_two_sided(basis),
                verify_two_sided(perturbed))

    ours = route()
    with mock.patch.object(gring, "_translations",
                           oracles.translations_both_sides):
        assert route() == ours
    assert ours[1] in (None, True)


# -- unit groups --------------------------------------------------------------

def test_units_z2_c8_invariants():
    units = unit_group(full_group_ring(build_group("C8"), 1))
    assert units.group.abelian_invariants() == (8, 4, 2, 2)


def test_units_of_c8_quotient():
    basis = close("C8", "1+a+a^4+a^5")
    units = unit_group(quotient_ring(basis))
    assert units.group.abelian_invariants() == (8, 2)


def test_units_trivial_field():
    # Z_2[C1] is the field with two elements
    units = unit_group(full_group_ring(build_group("C1"), 1))
    assert units.group.n == 1


def test_unit_count_is_half_of_ring():
    for spec, m, lits in [("C8", 1, ["1+a+a^4+a^5"]), ("C4", 1, ["1+a"])]:
        ring = quotient_ring(close(spec, *lits, m=m))
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


# -- certificate rows: sparse terms against the dense route -------------------

ROW_GROUPS = ("D8xC2", "Q8", "C8xC2")


def _read_rows(G, m, literals):
    """The packed canonical rows read back through the sparse terms, or
    None when the literals are not canonical rows."""
    basis = IdealBasis.from_canonical_rows(
        G, m, [parse_element_terms(lit, G, m) for lit in literals])
    return None if basis is None else list(basis.key())


def _outcome(read, G, m, literals):
    try:
        return read(G, m, literals)
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc)


@st.composite
def written_rows(draw):
    """(group, m, basis, its rows as written) for a random span."""
    G = build_group(draw(st.sampled_from(ROW_GROUPS)))
    m = draw(st.integers(1, 3))
    vectors = draw(st.lists(
        st.lists(st.integers(0, (1 << m) - 1), min_size=G.n,
                 max_size=G.n), min_size=1, max_size=4))
    basis = IdealBasis.from_vectors(G, m, vectors)
    return G, m, basis, [terms_literal(*t, G) for t in basis.row_terms()]


@settings(max_examples=150, deadline=None)
@given(case=written_rows())
def test_rows_are_written_and_read_as_the_dense_route_does(case):
    G, m, basis, written = case
    assert written == [oracles.element_literal_dense(r, G)
                       for r in basis.rows]
    assert _read_rows(G, m, written) == list(basis.key()) == \
        oracles.canonical_rows_dense(G, m, written)


@settings(max_examples=300, deadline=None)
@given(case=written_rows(), data=st.data())
def test_tampered_rows_get_the_dense_route_verdict(case, data):
    G, m, basis, written = case
    rows = list(written) or ["0"]
    i = data.draw(st.integers(0, len(rows) - 1))
    label = G.label(data.draw(st.integers(0, G.n - 1)))
    kind = data.draw(st.sampled_from(
        ["unknown", "coefficient", "repeat", "swap", "drop", "duplicate",
         "add", "sum"]))
    if kind == "unknown":
        rows[i] += "+zz"
    elif kind == "coefficient":
        rows[i] = f"{(1 << m) + data.draw(st.integers(0, 2))}*{label}+" \
            + rows[i]
    elif kind == "repeat":  # at m = 1 a repeated label cancels
        rows[i] += f"+{label}+{label}" if data.draw(st.booleans()) \
            else f"+{label}"
    elif kind == "swap":
        j = data.draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(i, rows[i])
    elif kind == "add":
        rows.append(label)
    else:  # a row plus another: the span is kept, the form is not
        j = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = oracles.element_literal_dense(
            [(a + b) % (1 << m) for a, b in zip(
                parse_element_literal(rows[i], G, m),
                parse_element_literal(rows[j], G, m))], G)
    assert _outcome(_read_rows, G, m, rows) == \
        _outcome(oracles.canonical_rows_dense, G, m, rows)


def test_a_label_repeated_at_m_1_cancels():
    G = build_group("Q8")
    one_plus_i = IdealBasis.from_vectors(G, 1, [[1, 1] + [0] * 6])
    assert [terms_literal(*t, G) for t in one_plus_i.row_terms()] == ["1+i"]
    # 1+i+i+i is 1+i and 1+i+i is 1 over GF(2); over Z_4, 1+i+i is 1+2i
    for m, text, key in [(1, "1+i+i+i", one_plus_i.key()), (1, "1+i+i", (1,)),
                         (2, "1+i+i", (1 | 2 << 4,))]:
        assert _read_rows(G, m, [text]) == list(key) == \
            oracles.canonical_rows_dense(G, m, [text])


def test_translations_are_memoized_on_the_group():
    G = build_group("Q8xQ8xC4")
    perms = gring._translations(G)
    assert gring._translations(G) is perms
    assert perms == [p for g in G.minimal_generators()
                     for p in gring._sides(G, g)]
