import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuchs2.groups
from fuchs2.errors import (
    ConstructionError,
    InternalInvariantError,
    SizeCapError,
    UndecidedError,
)
from fuchs2.groups import (
    CATALOG_FAMILIES,
    CATALOG_NAMED,
    ORDER_CAP,
    QD_ORDER_CAP,
    CayleyGroup,
    Presentation,
    _CosetTable,
    _element_fingerprints,
    build_group,
    catalog_group,
    direct_factor_pair,
    direct_product,
    enumerate_presentation,
    generator_map,
    group_fingerprint,
    is_indecomposable,
    is_isomorphic,
    isomorphism,
    normal_subgroups,
    structure_report,
    verify_homomorphism,
)

import oracles
from test_star import CLS3_64, CLS4_128, ENCODE_POOL, _presented


@pytest.fixture(scope="module")
def groups():
    names = ["C2", "C4", "C8", "C16", "D8", "Q8", "Q16", "QD16", "M16",
             "SG32_37"]
    return {name: build_group(name) for name in names}


# -- construction -------------------------------------------------------------

def test_cyclic_groups():
    C4 = build_group("C4")
    assert C4.n == 4
    assert C4.exponent() == 4
    assert C4.element_order(C4.gen_indices[0]) == 4


def test_q16_structure(groups):
    Q16 = groups["Q16"]
    assert Q16.n == 16
    assert Q16.exponent() == 8
    a = Q16.gen_indices[0]
    assert Q16.element_order(a) == 8


def test_m16_structure(groups):
    M16 = groups["M16"]
    assert M16.n == 16
    assert M16.exponent() == 8
    assert M16.nilpotency_class() == 2


def test_presentation_orders_match_table():
    # orders cross-checked against an independent coset enumerator (sympy)
    expected = {"C8": 8, "D8": 8, "Q8": 8, "Q16": 16, "QD16": 16,
                "QD32": 32, "M16": 16, "SG32_37": 32, "SG64_88": 64,
                "SG64_104": 64}
    for spec, order in expected.items():
        assert build_group(spec).n == order, spec


def test_inconsistent_presentation_reports_relator():
    pres = Presentation(("a", "b"), (((0, 4),), ((1, 2),), ((0, 1), (1, 1))),
                        ("a^4", "b^2", "a*b"))
    # a*b = 1 makes b = a^-1, then b^2 = 1 forces a^2 = 1: consistent C2,
    # no generator trivializes; now force a collapse instead
    G = enumerate_presentation(pres)
    assert G.n == 2
    bad = Presentation(("a",), (((0, 4),), ((0, 3),)), ("a^4", "a^3"))
    with pytest.raises(ConstructionError) as err:
        enumerate_presentation(bad)
    assert "a" in str(err.value)


def test_collapsing_generator_names_a_relator_it_needs():
    from fuchs2.parsing import parse_presentation_text
    rels = ["a^2", "b^2", "[a,b]", "a*b*a"]
    text = "gens: a b\nrels: " + ", ".join(rels)
    with pytest.raises(ConstructionError) as err:
        enumerate_presentation(parse_presentation_text(text))
    message = str(err.value)
    assert "generator 'b' collapses" in message
    culprit = message.rsplit("offending relator: ", 1)[1]
    assert culprit in rels
    # without the named relator, b survives
    rest = [r for r in rels if r != culprit]
    G = enumerate_presentation(
        parse_presentation_text("gens: a b\nrels: " + ", ".join(rest)))
    assert G.gen_indices[1] != 0


def test_order_cap():
    from fuchs2.errors import Fuchs2Error
    with pytest.raises(Fuchs2Error):
        build_group("C1024")
    with pytest.raises(Fuchs2Error):
        build_group("Q8xQ8xQ8xQ8")
    for spec in ("QD256", "QD512"):
        with pytest.raises(ConstructionError, match=r"\[16, 128\]"):
            build_group(spec)


def test_catalog_builds_every_stated_order():
    # each kind's stated range of orders, from catalog_presentation
    ranges = {"C": 1, "D": 4, "Q": 8, "QD": 16}
    for kind, low in ranges.items():
        top = QD_ORDER_CAP if kind == "QD" else ORDER_CAP
        order = low
        while order <= top:
            assert build_group(f"{kind}{order}").n == order, (kind, order)
            order *= 2
    for spec, order in (("M16", 16), ("SG32_37", 32), ("SG64_88", 64),
                        ("SG64_104", 64)):
        assert build_group(spec).n == order


def test_relator_that_does_not_close_is_an_invariant_error(monkeypatch):
    # the table of C8 does not satisfy a^4, and enumerate_presentation
    # traces every relator through the table it is given
    c8 = _CosetTable(1, [(0,) * 8])
    c8.run()
    perms = c8.permutations()
    monkeypatch.setattr(_CosetTable, "permutations", lambda self: perms)
    with pytest.raises(InternalInvariantError, match="a\\^4"):
        enumerate_presentation(Presentation(("a",), (((0, 4),),), ("a^4",)))


# sha256 of json [mul, gen_indices, labels] for every catalog group:
# certificates name elements by index and label, so these must not drift
GOLDEN_TABLES = {
    "C1":
        "1700b9fa6081a57dc3f2069d388b6d00e5bf2af3dbcdd2c0484ccf3e36819820",
    "C2":
        "b2fb4df787c1c7fdc8eb06b7497f68749a0af1ff7650232160c2c5570834ba01",
    "C4":
        "1229ce55eb194b36215bb2e69872208ea10389a4cf8c95f48ec5df63a10a24af",
    "C8":
        "040c98f8810b8286c98d1eb34dd1763a48f3c2be88176ee44c6eae6cdbb6d95c",
    "C16":
        "260c1ede65a9ff52c77cc57cfd76d1c460c31728b6057d0d6541afd616782380",
    "C32":
        "9f1dad22d97767294e0e3c132b6ce45e9f05ceb072d3a013c039da05a06fbe51",
    "C64":
        "0e887aece26b5e28927295ec17d58adddb016679f332b43f6b075951e83f2a5b",
    "C128":
        "e65c047e1fe926fa7bb7b1fddd0337386d410d0cd157a67413d5ef794ffa39e4",
    "C256":
        "b8f1c6bcc4571705072cf31c39edd95466eac2ea23e55afdecd042be5a490ace",
    "C512":
        "382ebb18090f0112afa71ce8892dbf794a3d197d2e234c088b854396af03c23d",
    "D4":
        "f1b53ccc980f3ef01b523f953585708c0eb0bc72f49f37e9af0994503d6a89aa",
    "D8":
        "398502b653a086343e199b5898df69ba278f254dcf1879b5698298a955dca3d9",
    "D16":
        "5c61950db535adcdf2f8a4aa602cf5587f15e34932b83a16fc3bbdbef09f90fe",
    "D32":
        "aae0883103f7fe36e3e4e31ff254c088a9ba59130aedfa8b724691834fecfdaf",
    "D64":
        "690a7d7c4895d211db920ef8a5f644740d9280ec9ca4ce07853bab569debad17",
    "D128":
        "de7ee38e527add7a9300e793bda1995fa2cc5e3acc6a73eebe1190916d76e272",
    "D256":
        "4802589f14a60a17df38cc61ad5dc2c527a261287219aa549f7eb2691fe84754",
    "D512":
        "e140f51680211cae70530000e9d5f273771684fae64d17df0f8219b8f09e99e2",
    "Q8":
        "8915b704a445703c751d3a205dc036813eda4808d7cfaee13b58bdfb0d971e0c",
    "Q16":
        "bb40ecaa158acd371cc683c1cebdd97a42ef13bcb8cc630d5c0c9b7fbe9af371",
    "Q32":
        "ab49d0a71b11e08d1a50cc22af3ef011fb90dc25fa8769165bf269c9a3fab5a1",
    "Q64":
        "e24f53433c166cf4da8027c0f8bc161cda0faf75386cbe6857b6fa4f11138e6a",
    "Q128":
        "da722b696c7b55be171ba7e8b13e4a6c39bb2f6570f3e75b8bef0a39ba7ecefc",
    "Q256":
        "e57858f7c06c1e26f755872846c119d6c6298bcb5f7f4c29d6c6550169fd3079",
    "Q512":
        "869798767b8fb773a27509a407bf1b10b54dd520bc00e98a44e9744aa08e0f7f",
    "QD16":
        "7026710cb01a35c639b4251f37fa043ca893d4f3c84610be5559b6cb1c0d17e6",
    "QD32":
        "383026bb2434f7dd63c3b36dbdb4e36c5db35e0c0b74b8eaba8659997d66bdf9",
    "QD64":
        "e35be2e18bfc6ecdda78a79ce4fd8f9b5d250513056b7ccbfad9a4a7e1abed1d",
    "QD128":
        "5048073bc94ed6bf580045f4e032fa7109edf37c2b365aac90a276d3e79d1a42",
    "M16":
        "1c7b11e81299bd0e159281be513c4473ceb962b282e5403050cb111e827eb35c",
    "SG32_37":
        "b071c714ba8ba15fe2ded932b5b49cba254f16698040ddefe608cb9add5e89cc",
    "SG64_88":
        "f910d9e597237c2f50d828399e7551c5ab80491fd80ef5af2db2784e6eca3e89",
    "SG64_104":
        "c474d9824f02e38b1adfe1773447ccb82a0d383d02b90c565d05c2448704b914",
}


def test_catalog_tables_are_pinned():
    specs = list(CATALOG_NAMED)
    for kind, (low, top, _) in CATALOG_FAMILIES.items():
        specs += [f"{kind}{1 << k}" for k in range(low.bit_length() - 1,
                                                   top.bit_length())]
    assert sorted(specs) == sorted(GOLDEN_TABLES)
    for spec, digest in GOLDEN_TABLES.items():
        G = build_group(spec)
        data = json.dumps([G.mul, list(G.gen_indices), G.labels()])
        assert hashlib.sha256(data.encode()).hexdigest() == digest, spec


def test_associativity_rejected():
    table = [[0, 1], [1, 1]]  # not a latin square / not a group
    with pytest.raises(ConstructionError):
        CayleyGroup(table)


# -- structural data ----------------------------------------------------------

def test_element_orders_against_oracle(groups):
    for name in ("Q16", "M16", "SG32_37"):
        G = groups[name]
        for x in range(G.n):
            assert G.element_order(x) == oracles.element_order_brute(G, x)


def test_sg64_88_generator_order():
    G = build_group("SG64_88")
    assert G.element_order(G.gen_indices[0]) == 8


def test_center_against_oracle(groups):
    for name in ("Q8", "D8", "M16", "Q16"):
        G = groups[name]
        assert sorted(G.center()) == oracles.center_brute(G)


def test_center_q8(groups):
    assert len(groups["Q8"].center()) == 2


def test_centralizer_m16_self_centralizing(groups):
    M16 = groups["M16"]
    x1 = M16.gen_indices[0]
    assert set(M16.centralizer(x1)) == set(M16.cyclic(x1))
    assert len(M16.centralizer(x1)) == 8


def test_exponent_c2c2():
    G = build_group("C2xC2")
    assert G.exponent() == 2
    assert len(G.center()) == 4


def test_nilpotency_class(groups):
    assert build_group("C8").nilpotency_class() == 1
    assert groups["M16"].nilpotency_class() == 2
    for name in ("Q8", "D8", "Q16", "SG32_37"):
        G = groups[name]
        assert G.nilpotency_class() == oracles.upper_central_length(G)
    G = build_group("SG64_88")
    assert G.nilpotency_class() == oracles.upper_central_length(G)


# every catalog group and a spread of products up to order 64, and the
# class-3 and class-4 exponent-4 groups of orders 64 and 128
STRUCTURE_SPECS = (
    [f"C{1 << k}" for k in range(7)] + [f"D{1 << k}" for k in range(2, 7)]
    + [f"Q{1 << k}" for k in range(3, 7)] + ["QD16", "QD32", "QD64"]
    + list(CATALOG_NAMED)
    + ["C2xC2", "C4xC2xC2", "C8xC8", "D8xC2", "Q8xC4", "D16xC2",
       "M16xC2", "QD16xC4", "Q8xC2xC2", "D8xD8", "Q8xQ8", "Q8xD8",
       "SG32_37xC2", "Q16xC2xC2"]
    + ["CLS3_64", "CLS4_128"])


@pytest.mark.parametrize("spec", STRUCTURE_SPECS)
def test_class_structure_against_oracles(spec):
    presented = {"CLS3_64": CLS3_64, "CLS4_128": CLS4_128}
    G = _presented(presented[spec]) if spec in presented \
        else build_group(spec)
    assert list(G.center()) == oracles.center_brute(G)
    assert list(G.derived_subgroup()) == oracles.derived_brute(G)
    assert list(G.frattini_subgroup()) == oracles.frattini_brute(G)
    assert [list(t) for t in G.upper_central_series()] == \
        oracles.upper_central_series_brute(G)
    fps = _element_fingerprints(G)
    for cls in G.conjugacy_classes():
        for x in cls:
            assert G.n // len(cls) == fps[x][2] == len(G.centralizer(x))


@pytest.mark.parametrize("spec", oracles.catalog_specs(64) + ENCODE_POOL)
def test_conjugacy_classes_against_brute(spec):
    G = build_group(spec)
    assert G.conjugacy_classes() == oracles.conjugacy_classes_brute(G)


def test_conjugacy_classes_of_a_group_without_generators():
    # the unit group of the C16 fixture's residue ring, C16xC4xC2xC2, is
    # built from a table alone
    from fuchs2.gring import (RingElement, ideal_closure, quotient_ring,
                              unit_group)
    from fuchs2.parsing import parse_element_literal
    from fuchs2.search import FIXTURES
    _, spec, m, literals, _ = next(row for row in FIXTURES
                                   if row[0] == "C16_char2")
    ambient = build_group(spec)
    basis = ideal_closure([RingElement(ambient, m, parse_element_literal(
        lit, ambient, m)) for lit in literals])
    U = unit_group(quotient_ring(basis)).group
    assert U.gen_indices == () and U.n == 256
    assert U.conjugacy_classes() == oracles.conjugacy_classes_brute(U)


def test_n_a_values():
    C8 = build_group("C8")
    assert C8.n_a(C8.gen_indices[0]) == 0
    H = build_group("C8xC2")
    a = H.element_orders().index(8)
    assert H.n_a(a) == 1
    G = build_group("C16xC4xC2xC2")
    a = G.element_orders().index(16)
    assert G.n_a(a) == 2


def test_n_a_is_tight():
    # every centralizing b satisfies b^(2^N) in <a>, and N is minimal
    for spec in ("C8xC2", "M16", "Q16"):
        G = build_group(spec)
        for a in range(0, G.n, 3):
            N = G.n_a(a)
            members = set(G.cyclic(a))
            cent = G.centralizer(a)
            assert all(G.power(b, 1 << N) in members for b in cent)
            if N > 0:
                assert any(G.power(b, 1 << (N - 1)) not in members
                           for b in cent)


def test_minimal_generators():
    assert len(build_group("C4").minimal_generators()) == 1
    assert len(build_group("M16").minimal_generators()) == 2
    assert len(build_group("C4xC4").minimal_generators()) == 2
    G = build_group("SG32_37")
    gens = G.minimal_generators()
    assert len(gens) == 3
    assert G.subgroup(gens) == tuple(range(G.n))


@pytest.mark.parametrize(
    "spec", oracles.catalog_specs(64) + ["C4xC4xC4", "Q8xQ8",
                                         "C2xC2xC2xC2xC2", "CLS3_64"])
def test_minimal_generating_sequences_against_brute(spec):
    # the spans grow by one Frattini coset; the oracle closes each one
    # from scratch
    G = _presented(CLS3_64) if spec == "CLS3_64" else build_group(spec)
    assert list(itertools.islice(G.minimal_generating_sequences(), 64)) == \
        list(itertools.islice(oracles.minimal_generating_sequences_brute(G),
                              64))


def test_abelian_invariants():
    assert build_group("C8xC2").abelian_invariants() == (8, 2)
    assert build_group("C2").abelian_invariants() == (2,)
    assert build_group("C16xC4xC2xC2").abelian_invariants() == (16, 4, 2, 2)
    assert build_group("C1").abelian_invariants() == ()
    with pytest.raises(Exception):
        build_group("Q8").abelian_invariants()


# -- products -----------------------------------------------------------------

def test_direct_product_basics():
    G = build_group("C2xC2")
    assert G.n == 4 and G.exponent() == 2
    H = build_group("C8xC2")
    assert H.abelian_invariants() == (8, 2)


def test_product_exponent_is_lcm():
    random.seed(7)
    specs = ["C2", "C4", "C8", "D8", "Q8", "M16"]
    for _ in range(8):
        a, b = random.choice(specs), random.choice(specs)
        G, H = build_group(a), build_group(b)
        P = direct_product(G, H)
        lcm = max(G.exponent(), H.exponent())  # 2-power lcm = max
        assert P.exponent() == lcm, (a, b)


def test_product_generator_names_unique():
    G = build_group("C16xC4xC2xC2")
    assert len(set(G.gen_names)) == len(G.gen_names)


# -- isomorphism --------------------------------------------------------------

def test_isomorphism_reflexive(groups):
    for name, G in groups.items():
        phi = isomorphism(G, G)
        assert phi is not None, name
        assert verify_homomorphism(G, G, phi)


def test_isomorphism_symmetric(groups):
    sg = groups["SG32_37"]
    other = direct_product(groups["M16"], groups["C2"])
    p1 = isomorphism(sg, other)
    p2 = isomorphism(other, sg)
    assert p1 is not None and p2 is not None
    assert verify_homomorphism(sg, other, p1)
    assert verify_homomorphism(other, sg, p2)


def test_isomorphism_negative():
    assert not is_isomorphic(build_group("C8"), build_group("C4xC2"))
    assert not is_isomorphic(build_group("D8"), build_group("Q8"))
    assert not is_isomorphic(build_group("M16"), build_group("Q16"))


def test_isomorphism_reads_its_node_budget_at_call_time(monkeypatch):
    # Q8xQ8 has four generators: one node cannot reach a full image tuple
    monkeypatch.setattr(fuchs2.groups, "ISO_NODE_BUDGET", 1)
    G = build_group("Q8xQ8")
    with pytest.raises(UndecidedError, match="1 nodes"):
        isomorphism(G, G)


def test_coset_enumeration_reads_its_vertex_cap_at_call_time(monkeypatch):
    monkeypatch.setattr(fuchs2.groups, "ENUM_VERTEX_CAP", 100)
    with pytest.raises(SizeCapError, match="100 vertices"):
        catalog_group("C", 512)


def test_sg32_37_is_m16_x_c2(groups):
    other = direct_product(groups["M16"], groups["C2"])
    phi = isomorphism(groups["SG32_37"], other)
    assert phi is not None
    assert verify_homomorphism(groups["SG32_37"], other, phi)


# catalog groups of order <= 16
SMALL_GROUPS = ("C2", "C4", "C8", "C16", "C2xC2", "C4xC2", "C2xC2xC2",
                "C4xC4", "C8xC2", "C4xC2xC2", "C2xC2xC2xC2", "D8", "D16",
                "Q8", "Q16", "QD16", "M16", "D8xC2", "Q8xC2")


def _relabel(G, perm):
    """The same group on indices perm[x]; perm fixes the identity 0."""
    mul = [[0] * G.n for _ in range(G.n)]
    for x in range(G.n):
        for y in range(G.n):
            mul[perm[x]][perm[y]] = perm[G.mul[x][y]]
    return CayleyGroup(mul, check=False)


@st.composite
def relabelled_pairs(draw):
    G = build_group(draw(st.sampled_from(SMALL_GROUPS)))
    perm = [0] + draw(st.permutations(range(1, G.n)))
    return G, _relabel(G, perm)


@settings(max_examples=60, deadline=None)
@given(pair=relabelled_pairs())
def test_isomorphism_is_the_lex_least_oracle_map(pair):
    G, H = pair
    phi = isomorphism(G, H)
    assert phi == oracles.first_isomorphism(G, H)
    assert verify_homomorphism(G, H, phi)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generator_map_is_none_exactly_when_all_pairs_fails(data):
    G = build_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    H = build_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    gens = data.draw(st.lists(st.integers(0, G.n - 1), min_size=1,
                              max_size=3))
    if data.draw(st.booleans()) and H.n == G.n:
        # images of an isomorphism, so the map exists
        perm = [0] + data.draw(st.permutations(range(1, G.n)))
        H = _relabel(G, perm)
        images = [perm[g] for g in gens]
    else:
        images = [data.draw(st.integers(0, H.n - 1)) for _ in gens]
    words = oracles.word_map(G, gens, images, H)
    exists = (all(words[g] == h for g, h in zip(gens, images))
              and oracles.is_homomorphism_on(G, H, words))
    phi = generator_map(G, gens, images, H)
    assert (phi is None) == (not exists)
    if phi is not None:
        assert phi == [words.get(x) for x in range(G.n)]


def test_fingerprint_separates(groups):
    names = list(groups)
    for a in names:
        for b in names:
            if groups[a].n == groups[b].n and a != b:
                iso = is_isomorphic(groups[a], groups[b])
                same_fp = (group_fingerprint(groups[a])
                           == group_fingerprint(groups[b]))
                if not same_fp:
                    assert not iso


# -- decomposability ----------------------------------------------------------

def _partitions(k, top):
    if k == 0:
        yield ()
    for part in range(min(k, top), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


# every abelian group of order 2..32, as a product of cyclic catalog groups
ABELIAN_UP_TO_32 = ["x".join(f"C{1 << e}" for e in parts)
                    for k in range(1, 6) for parts in _partitions(k, k)]


def test_indecomposable():
    assert is_indecomposable(build_group("C2"))
    assert is_indecomposable(build_group("Q16"))
    assert is_indecomposable(build_group("M16"))
    assert not is_indecomposable(build_group("C4xC2"))
    assert not is_indecomposable(build_group("SG32_37"))
    assert is_indecomposable(build_group("SG64_88"))
    # abelian groups are decided by their invariants; the normal-subgroup
    # search must agree on every abelian catalog product of order <= 32
    for spec in ABELIAN_UP_TO_32:
        G = build_group(spec)
        assert is_indecomposable(G) == (direct_factor_pair(G) is None), spec
        assert is_indecomposable(G) == ("x" not in spec), spec


def test_normal_subgroup_orders_divide():
    G = build_group("Q16")
    for N in normal_subgroups(G):
        assert G.n % len(N) == 0
        assert 0 in N


# -- reports ------------------------------------------------------------------

def test_structure_report(groups):
    r = structure_report(groups["M16"])
    assert r.order == 16 and r.exponent == 8
    assert r.nilpotency_class == 2
    assert r.indecomposable is True
    assert r.minimal_generator_count == 2
    assert r.abelian_invariants == ()
    # above the normal-subgroup search's order cap an abelian group is
    # still decided by its invariants
    assert structure_report(build_group("C4xC4xC4xC4")).indecomposable is False


def test_invariant_order_divides_exponent(groups):
    for G in groups.values():
        expo = G.exponent()
        assert G.n % expo == 0
        for x in range(G.n):
            assert expo % G.element_order(x) == 0


def test_centralizer_contains_cyclic_and_center(groups):
    for G in groups.values():
        center = set(G.center())
        for x in range(0, G.n, 5):
            cent = set(G.centralizer(x))
            assert set(G.cyclic(x)) <= cent
            assert center <= cent
