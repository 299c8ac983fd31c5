import functools
import itertools
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchs2 import kernels
from fuchs2.errors import (
    ConstructionError,
    InternalInvariantError,
    UndecidedError,
)
from fuchs2.groups import CayleyGroup, build_group
from fuchs2.search import (
    SearchConfig,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)
from fuchs2.star import (
    PcSequence,
    chief_chain_sequences,
    composition_bases,
    pc_sequence,
    realize_exponent4,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

import oracles
from test_star import CLS3_64, CLS4_128, _presented

# orders <= 32 keep each cubic reference scan in the milliseconds; C8, D16,
# Q16, QD16, M16, C8xC2, C8xC4 and SG32_37 have exponent 8
SMALL = ("C8", "Q8", "D8", "C4xC2", "C8xC2", "C4xC4", "Q8xC2", "D16", "Q16",
         "QD16", "M16", "C8xC4", "Q8xC4", "D8xC4", "SG32_37")


@functools.cache
def _group(spec):
    return build_group(spec)


def _non_associative(mul, bad):
    x, y, z = bad
    return mul[mul[x][y]][z] != mul[x][mul[y][z]]


def _violates(mul, star, bad):
    """Whether (a, b, c, condition) violates its condition, evaluated
    through the multiplication and star tables."""
    a, b, c, condition = bad
    if condition == 1:
        return star[mul[c][star[a][b]]][c] != star[mul[c][a]][mul[c][b]]
    return star[mul[star[a][b]][c]][c] != star[mul[a][c]][mul[b][c]]


def _assert_decider_matches_scan(G, table):
    """verify_star_conditions gives the scan's verdict, and a witness it
    returns violates its condition."""
    ok, bad = verify_star_conditions(G, table)
    assert ok == (kernels.first_condition_violation(G.mul, table.table)
                  is None)
    assert (bad is None) == ok
    if bad is not None:
        assert _violates(G.mul, table.table, bad)
    return ok


# the tests named per implementation keep its name as their case id
IMPLS = [kernels.BACKEND]


@pytest.mark.parametrize("impl", IMPLS)
def test_assoc_accepts_groups(impl):
    assert impl == "pure-python"
    for spec in ("C8", "Q16", "SG32_37"):
        G = build_group(spec)
        assert kernels.first_assoc_violation(G.mul) is None
        assert kernels.assoc_violation(G.mul) is None


@pytest.mark.parametrize("impl", IMPLS)
def test_assoc_finds_violation(impl):
    assert impl == "pure-python"
    G = build_group("D8")
    mul = [list(row) for row in G.mul]
    mul[3][5], mul[3][6] = mul[3][6], mul[3][5]
    assert kernels.first_assoc_violation(mul) is not None
    assert _non_associative(mul, kernels.assoc_violation(mul))


def test_light_test_on_tables_that_are_not_groups():
    n = 8
    left_zero = [[x] * n for x in range(n)]
    constant = [[3] * n for _ in range(n)]
    xor_plus_one = [[(x ^ y) + 1 & 7 for y in range(n)] for x in range(n)]
    for mul in (left_zero, constant, xor_plus_one):
        bad = kernels.assoc_violation(mul)
        assert (bad is None) == (kernels.first_assoc_violation(mul) is None)
        assert bad is None or _non_associative(mul, bad)
    assert kernels.assoc_violation(left_zero) is None
    assert _non_associative(xor_plus_one,
                            kernels.assoc_violation(xor_plus_one))


def test_light_test_skips_the_identity_pass():
    # index 0, yielded first, is a two-sided identity of a group table, so
    # (x0)y = x(0y) always holds and its pass is skipped: C2^4 takes the
    # passes of its four generators, n^2 row reads each, not five
    reads = []

    class Row(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    G = build_group("C2xC2xC2xC2")
    n = G.n
    assert kernels.assoc_violation([Row(row) for row in G.mul]) is None
    assert 4 * n * n <= len(reads) < 5 * n * n


@pytest.mark.parametrize("impl", IMPLS)
def test_conditions_backends(impl):
    assert impl == "pure-python"
    G = build_group("Q8")
    st_q8 = star_table(G, pc_sequence(G))
    assert kernels.first_condition_violation(G.mul, st_q8.table) is None
    assert kernels.affine_violation(G.mul, st_q8.encode,
                                    G.minimal_generators()) is None
    C8 = build_group("C8")
    a = C8.gen_indices[0]
    naive = star_table_from_elements(C8, [a, C8.power(a, 2), C8.power(a, 4)])
    assert kernels.first_condition_violation(C8.mul, naive.table) == \
        (1, 2, 1, 1)
    assert _violates(C8.mul, naive.table,
                     kernels.affine_violation(C8.mul, naive.encode,
                                              C8.minimal_generators()))


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
                   kernels.assoc_violation, kernels.affine_violation):
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
            checked += 1
            failing += not _assert_decider_matches_scan(
                G, star_table(G, seq))
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
    _assert_decider_matches_scan(G, star_table_from_elements(G, seq))


def _affine_three_ways(G, table):
    """The generator-set decider, its all-elements oracle and the cubic
    scan, each as a verdict."""
    return (kernels.affine_violation(G.mul, table.encode,
                                     G.minimal_generators()) is None,
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


@settings(max_examples=60, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_affine_decider_on_arbitrary_exponent_labels(rnd):
    # under an arbitrary labelling of D8 by exponent vectors either
    # condition can fail alone, which no composition basis tried here shows
    G = _group("D8")
    mul = G.mul
    encode = [0] + rnd.sample(range(1, 8), 7)
    bad = kernels.affine_violation(mul, encode, G.minimal_generators())
    assert (bad is None) == oracles.translations_affine_brute(mul, encode)
    if bad is not None:
        decode = sorted(range(8), key=encode.__getitem__)
        star = [[decode[ea ^ eb] for eb in encode] for ea in encode]
        assert _violates(mul, star, bad)


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
        assert _affine_three_ways(G, seq) == (False,) * 3
        assert _violates(G.mul, seq.table,
                         kernels.affine_violation(G.mul, seq.encode,
                                                  G.minimal_generators()))


def test_affine_deciders_agree_on_every_cls3_64_basis():
    G = _presented(CLS3_64)
    verdicts = [_affine_three_ways(G, seq) for seq in composition_bases(G)]
    assert all(len(set(v)) == 1 for v in verdicts), verdicts
    assert {v[0] for v in verdicts} == {True, False}


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
            _assert_decider_matches_scan(G, star_table(G, seq))


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
    bad = kernels.assoc_violation(mul)
    assert (bad is None) == (kernels.first_assoc_violation(mul) is None)
    assert bad is None or _non_associative(mul, bad)
    if x == 0 or a == 0 or b == 0:
        return  # the identity check rejects these before associativity
    if bad is None:
        CayleyGroup(mul)
    else:
        with pytest.raises(ConstructionError) as info:
            CayleyGroup(mul)
        named = re.search(r"not associative at \((\d+), (\d+), (\d+)\)",
                          str(info.value))
        assert _non_associative(mul, tuple(map(int, named.groups())))


# the certify benchmark's exponent-4 ladder, up to order 64
CERTIFY_LADDER = ("Q8", "D8", "C4xC2", "C4xC4", "Q8xC2", "D8xC2", "C4xC2xC2",
                  "Q8xC4", "D8xC4", "C4xC4xC2", "Q8xC2xC2", "D8xC2xC2",
                  "Q8xQ8", "D8xD8", "Q8xD8", "C4xC4xC4", "Q8xC4xC2",
                  "D8xC4xC2")


def test_no_program_path_runs_a_scan_or_reads_a_star_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a program path used a brute-force reference")

    monkeypatch.setattr(kernels, "first_assoc_violation", forbidden)
    monkeypatch.setattr(kernels, "first_condition_violation", forbidden)
    monkeypatch.setattr(PcSequence, "table", property(forbidden))
    groups = [build_group(spec) for spec in CERTIFY_LADDER]
    for G in groups + [_presented(CLS3_64)]:
        assert verify_certificate(realize_exponent4(G).to_json())
    with pytest.raises(UndecidedError, match="route is exhausted"):
        realize_exponent4(_presented(CLS4_128))
    assert all(r.verified for r in run_fixtures())
    cert = search_realizing_ideal(build_group("C8xC2"), SearchConfig(m=1))
    assert verify_certificate(cert)
    mul = [list(row) for row in build_group("D8").mul]
    mul[3][5], mul[3][6] = mul[3][6], mul[3][5]
    with pytest.raises(ConstructionError, match="not associative at"):
        CayleyGroup(mul)


@pytest.mark.parametrize("condition", [1, 2])
def test_witness_where_the_condition_holds_is_refused(monkeypatch, condition):
    # translating by the identity c = 0 satisfies both conditions
    G = _group("C8")
    a = G.gen_indices[0]
    naive = star_table_from_elements(G, [a, G.power(a, 2), G.power(a, 4)])
    monkeypatch.setattr(kernels, "affine_violation",
                        lambda mul, encode, gens: (a, a, 0, condition))
    with pytest.raises(InternalInvariantError, match="condition holds"):
        verify_star_conditions(G, naive)
