import functools
import itertools
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchs2 import kernels
from fuchs2.errors import ConstructionError
from fuchs2.groups import CayleyGroup, build_group
from fuchs2.star import (
    chief_chain_sequences,
    composition_bases,
    pc_sequence,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

import oracles
from test_star import CLS4_128, _presented

# orders <= 32 keep each cubic reference scan in the milliseconds; C8, D16,
# Q16, QD16, M16, C8xC2, C8xC4 and SG32_37 have exponent 8
SMALL = ("C8", "Q8", "D8", "C4xC2", "C8xC2", "C4xC4", "Q8xC2", "D16", "Q16",
         "QD16", "M16", "C8xC4", "Q8xC4", "D8xC4", "SG32_37")


@functools.cache
def _group(spec):
    return build_group(spec)


# the tests named per implementation keep its name as their case id
IMPLS = [kernels.BACKEND]


@pytest.mark.parametrize("impl", IMPLS)
def test_assoc_accepts_groups(impl):
    assert impl == "pure-python"
    for spec in ("C8", "Q16", "SG32_37"):
        G = build_group(spec)
        assert kernels.first_assoc_violation(G.mul) is None
        assert kernels.is_associative(G.mul)


@pytest.mark.parametrize("impl", IMPLS)
def test_assoc_finds_violation(impl):
    assert impl == "pure-python"
    G = build_group("D8")
    mul = [list(row) for row in G.mul]
    mul[3][5], mul[3][6] = mul[3][6], mul[3][5]
    assert kernels.first_assoc_violation(mul) is not None
    assert not kernels.is_associative(mul)


def test_light_test_on_tables_that_are_not_groups():
    n = 8
    left_zero = [[x] * n for x in range(n)]
    constant = [[3] * n for _ in range(n)]
    xor_plus_one = [[(x ^ y) + 1 & 7 for y in range(n)] for x in range(n)]
    for mul in (left_zero, constant, xor_plus_one):
        assert kernels.is_associative(mul) == \
            (kernels.first_assoc_violation(mul) is None)
    assert kernels.is_associative(left_zero)
    assert not kernels.is_associative(xor_plus_one)


@pytest.mark.parametrize("impl", IMPLS)
def test_conditions_backends(impl):
    assert impl == "pure-python"
    G = build_group("Q8")
    st_q8 = star_table(G, pc_sequence(G))
    assert kernels.first_condition_violation(G.mul, st_q8.table) is None
    assert kernels.translations_affine(G.mul, st_q8.encode)
    C8 = build_group("C8")
    a = C8.gen_indices[0]
    naive = star_table_from_elements(C8, [a, C8.power(a, 2), C8.power(a, 4)])
    assert kernels.first_condition_violation(C8.mul, naive.table) == \
        (1, 2, 1, 1)
    assert not kernels.translations_affine(C8.mul, naive.encode)


def test_pure_fallback_import_path():
    """The package works end to end from a fresh interpreter on its one,
    pure-Python path: the checks are defined in fuchs2.kernels itself, whose
    BACKEND names that path."""
    code = textwrap.dedent("""
        from fuchs2 import kernels
        assert kernels.BACKEND == "pure-python", kernels.BACKEND
        assert kernels.__file__.endswith(".py"), kernels.__file__
        for fn in (kernels.first_assoc_violation,
                   kernels.first_condition_violation,
                   kernels.is_associative, kernels.translations_affine):
            assert fn.__module__ == "fuchs2.kernels", fn
        from fuchs2.groups import build_group
        from fuchs2.star import realize_exponent4
        from fuchs2.search import verify_certificate
        cert = realize_exponent4(build_group("Q8"))
        assert verify_certificate(cert)
        print("pure path ok")
    """)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "pure path ok" in out.stdout


def test_star_conditions_match_scan_on_chief_chain_bases():
    checked = failing = 0
    for spec in SMALL:
        G = _group(spec)
        for seq in itertools.islice(chief_chain_sequences(G), 12):
            table = star_table(G, seq)
            bad = kernels.first_condition_violation(G.mul, table.table)
            assert verify_star_conditions(G, table) == (bad is None, bad)
            checked += 1
            failing += bad is not None
    assert failing and failing < checked


def _random_basis(G, rnd):
    """Ordered elements with unique {0,1} normal forms, chosen greedily from
    a shuffled order: c is kept when right-multiplying the products so far
    by c gives new elements only."""
    for _ in range(20):
        order = list(range(1, G.n))
        rnd.shuffle(order)
        products, seq = {0}, []
        for c in order:
            shifted = {G.mul[p][c] for p in products}
            if not products & shifted:
                products |= shifted
                seq.append(c)
        if len(products) == G.n:
            return seq
    return None


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SMALL), rnd=st.randoms(use_true_random=False))
def test_star_conditions_match_scan_on_random_bases(spec, rnd):
    G = _group(spec)
    seq = _random_basis(G, rnd)
    if seq is None:
        return
    table = star_table_from_elements(G, seq)
    bad = kernels.first_condition_violation(G.mul, table.table)
    assert verify_star_conditions(G, table) == (bad is None, bad)


def _affine_three_ways(G, table):
    """The generator-set decider, its all-elements oracle and the cubic
    scan, each as a verdict."""
    return (kernels.translations_affine(G.mul, table.encode),
            oracles.translations_affine_brute(G.mul, table.encode),
            kernels.first_condition_violation(G.mul, table.table) is None)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SMALL), rnd=st.randoms(use_true_random=False))
def test_affine_decider_matches_brute_on_random_bases(spec, rnd):
    G = _group(spec)
    seq = _random_basis(G, rnd)
    if seq is None:
        return
    verdicts = _affine_three_ways(G, star_table_from_elements(G, seq))
    assert len(set(verdicts)) == 1, verdicts


@pytest.mark.parametrize("spec, passes", [("C8", False), ("C16", False),
                                          ("C8xC2", False), ("Q8", True)])
def test_affine_decider_on_power_chain_bases(spec, passes):
    # a, a^2, a^4, ... then the other generators; the identity passes
    # every test, so a failure means more than one element was tested
    G = _group(spec)
    a, *rest = G.gen_indices
    chain = [G.power(a, 1 << i)
             for i in range(G.element_order(a).bit_length() - 1)]
    table = star_table_from_elements(G, chain + rest)
    assert _affine_three_ways(G, table) == (passes,) * 3


def test_affine_deciders_reject_every_cls4_128_basis():
    G = _presented(CLS4_128)
    bases = list(composition_bases(G))
    assert len(bases) == 33
    for seq in bases:
        assert not kernels.translations_affine(G.mul, seq.encode)
        assert not oracles.translations_affine_brute(G.mul, seq.encode)


@pytest.mark.parametrize("spec", SMALL + ("Q8xQ8",))
def test_greedy_generators_are_least_outside_the_span(spec):
    G = _group(spec)
    gens = list(kernels.greedy_generators(G.mul))
    assert gens[0] == 0
    for i in range(1, len(gens)):
        span = set(oracles.closure_brute(G, gens[:i]))
        assert gens[i] == min(set(range(G.n)) - span)
    assert oracles.closure_brute(G, gens) == list(range(G.n))


def test_star_conditions_match_scan_at_order_64():
    G = _group("Q8xQ8")
    table = star_table(G, pc_sequence(G))
    assert kernels.first_condition_violation(G.mul, table.table) is None
    assert verify_star_conditions(G, table) == (True, None)
    for spec in ("Q8xQ8", "SG64_88"):
        G = _group(spec)
        for seq in itertools.islice(chief_chain_sequences(G), 3):
            table = star_table(G, seq)
            bad = kernels.first_condition_violation(G.mul, table.table)
            assert verify_star_conditions(G, table) == (bad is None, bad)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SMALL + ("Q8xQ8",)), data=st.data())
def test_assoc_decider_matches_scan_on_swapped_rows(spec, data):
    G = _group(spec)
    n = G.n
    x = data.draw(st.integers(0, n - 1))
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    mul = [list(row) for row in G.mul]
    mul[x][a], mul[x][b] = mul[x][b], mul[x][a]
    bad = kernels.first_assoc_violation(mul)
    assert kernels.is_associative(mul) == (bad is None)
    if x == 0 or a == 0 or b == 0:
        return  # the identity check rejects these before associativity
    if bad is None:
        CayleyGroup(mul)
    else:
        with pytest.raises(ConstructionError,
                           match=rf"not associative at \({bad[0]}, "
                                 rf"{bad[1]}, {bad[2]}\)"):
            CayleyGroup(mul)
