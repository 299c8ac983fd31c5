import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fuchs2.groups
import fuchs2.star
from fuchs2.errors import InternalInvariantError
from fuchs2.groups import build_group, is_indecomposable
from fuchs2.screeners import (
    M_RANGE,
    SCOPE_ALL_2M,
    SCOPE_ANY_RING,
    Verdict,
    char_constraint,
    characteristic_candidates,
    exponent_bound,
    higher_exp_obstruction,
    maximal_exponent_obstruction,
    screen,
    self_centralizing_obstruction,
)

import oracles
from test_star import CLS3_64, OPEN_64, _presented

# a self-centralizing element of order >= 8 and no cyclic direct factor:
# not the unit group of any finite ring, at orders 256 and 512
C32_C8 = "gens: a b\nrels: a^32, b^8, b^-1*a*b*a^-5"
C64_C8 = "gens: a b\nrels: a^64, b^8, b^-1*a*b*a^-25"

# sha256 of the screen verdicts of every product of 1-3 catalog atoms of
# order <= 128, each without its certificate; pinned before the
# composition bases of class <= 2 groups came from chief chains
VERDICTS_DIGEST = ("807c4df5e1eea8191d9f5e1604fb2b69"
                   "578f76a4fe03fa2afbd44d4f357dafdc")


# -- individual rules ---------------------------------------------------------

def test_verdict_notes_default_to_a_fresh_list():
    first = Verdict("C2", "unknown", None, [], [1])
    first.notes.append("a note")
    second = Verdict("C2", "unknown", None, [], [1])
    assert second.notes == [] and second.to_dict()["notes"] == []


def test_characteristic_candidates_q8():
    # center C2: the order-4 scalar unit group C2 x C_{2^(m-2)} cannot embed
    assert characteristic_candidates(build_group("Q8")) == {1, 2}


def test_characteristic_candidates_always_contains_1():
    for spec in ("C1", "C2", "C8", "Q16", "M16", "SG64_88"):
        assert 1 in characteristic_candidates(build_group(spec))


def test_characteristic_candidates_cyclic_center():
    # a cyclic center admits no C_{2^(m-2)} x C2, so m <= 2
    assert characteristic_candidates(build_group("C8")) == {1, 2}
    assert characteristic_candidates(build_group("QD16")) == {1, 2}
    # rank-2 center of exponent 16 allows every m up to the cap
    assert characteristic_candidates(build_group("C16xC2")) == \
        {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("spec",
                         oracles.catalog_specs(64) + ["C4xC4xC4xC4xC2"])
def test_characteristic_candidates_need_no_center_table(spec):
    # the center's invariants come from its members' orders; building the
    # center's own Cayley table gives the same candidates
    G = build_group(spec)
    assert characteristic_candidates(G) == \
        oracles.characteristic_candidates_via_center_table(G, M_RANGE)


def test_characteristic_candidates_build_no_subgroup_table(monkeypatch):
    G = build_group("C4xC4xC4xC4xC2")

    def refuse(*args):
        raise AssertionError("subgroup_cayley called")

    monkeypatch.setattr(type(G), "subgroup_cayley", refuse)
    assert characteristic_candidates(G) == {1, 2, 3, 4}


def test_exponent_bound_values():
    assert exponent_bound(3, 1) == 4
    assert exponent_bound(5, 1) == 8
    assert exponent_bound(5, 6) == 256


def test_exponent_bound_is_exact_for_large_n():
    # a float log2 rounds 2^60 + 1 down to 2^60 and gives L = 60
    assert exponent_bound(2**60, 1) == 2**61


def test_exponent_bound_against_the_least_power_above_n():
    for n in range(1, 1 << 16):
        L = 0
        while 1 << L <= n:
            L += 1
        assert exponent_bound(n, 1) == 1 << L


def test_self_centralizing():
    M16 = build_group("M16")
    w = self_centralizing_obstruction(M16)
    assert w is not None and M16.element_order(w) >= 8
    C8 = build_group("C8")
    assert self_centralizing_obstruction(C8) == C8.gen_indices[0]
    assert self_centralizing_obstruction(build_group("Q8")) is None


def test_higher_exp_conditions():
    a, cond = higher_exp_obstruction(build_group("C16xC2"))
    assert cond == "ii"
    assert higher_exp_obstruction(build_group("C8xC2")) is None
    assert higher_exp_obstruction(build_group("C4")) is None
    a, cond = higher_exp_obstruction(build_group("C8"))
    assert cond == "i"
    a, cond = higher_exp_obstruction(build_group("C16xC2xC2"))
    assert cond == "ii"
    # N_a = 2 with |a| = 16 < 2^5 clears condition (iii); this matches the
    # realizability of C16xC4xC2xC2 in characteristic 2
    assert higher_exp_obstruction(build_group("C16xC4xC2")) is None


def test_maximal_exponent():
    assert maximal_exponent_obstruction(build_group("Q16"))
    assert maximal_exponent_obstruction(build_group("QD32"))
    assert not maximal_exponent_obstruction(build_group("D8"))  # n = 3
    assert not maximal_exponent_obstruction(build_group("C16"))  # abelian


def test_char_constraint():
    assert char_constraint(build_group("Q16"))
    assert char_constraint(build_group("M16"))
    assert char_constraint(build_group("Q8xQ8"))
    assert not char_constraint(build_group("C8"))
    assert not char_constraint(build_group("Q8xC2"))
    assert not char_constraint(build_group("C1"))


def test_char_constraint_decides_abelian_groups_above_the_cap():
    # an abelian group is never a product of nonabelian groups, at any order
    G = build_group("C8xC4xC4xC2")
    assert G.n > 128 and G.is_abelian()
    assert not char_constraint(G)


def test_indecomposability_note_only_where_it_is_untested():
    # the constraint is decided at every order, so indecomposability is
    # never left untested and no verdict carries a note about it
    for spec in ("C8xC4xC4xC2", "D16xC4xC4", "D16xD16"):
        assert screen(build_group(spec)).notes == []


PRESENTED = {"CLS3_64": CLS3_64, "OPEN_64a": OPEN_64[0],
             "OPEN_64b": OPEN_64[1]}


@pytest.mark.parametrize(
    "spec", oracles.catalog_atoms() + oracles.atom_products(64, (2, 3))
    + list(PRESENTED))
def test_char_constraint_matches_factor_split(spec):
    G = _presented(PRESENTED[spec]) if spec in PRESENTED else \
        build_group(spec)
    assert char_constraint(G) == oracles.char_constraint_by_factor_split(G)


def _word(*runs):
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in runs if e)


@st.composite
def three_generator_presentations(draw):
    """<a> normal in <a, b> normal in G: a^(2^e1), b^(2^e2) = a^v,
    c^(2^e3) = a^w, a^b = a^r, a^c = a^s, b^c = b a^u, so every element
    is a^i b^j c^k and the order is at most 2^(e1+e2+e3) <= 64."""
    e1 = draw(st.integers(1, 4))
    e2 = draw(st.integers(1, min(3, 5 - e1)))
    e3 = draw(st.integers(1, min(3, 6 - e1 - e2)))
    na = 1 << e1
    r, s = (draw(st.integers(0, na // 2 - 1)) * 2 + 1 for _ in range(2))
    u, v, w = (draw(st.integers(0, na - 1)) for _ in range(3))
    return "gens: a b c\nrels: " + ", ".join([
        f"a^{na}", _word(("b", 1 << e2), ("a", -v)),
        _word(("c", 1 << e3), ("a", -w)),
        _word(("b", -1), ("a", 1), ("b", 1), ("a", -r)),
        _word(("c", -1), ("a", 1), ("c", 1), ("a", -s)),
        _word(("c", -1), ("b", 1), ("c", 1), ("a", -u), ("b", -1))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=three_generator_presentations())
def test_char_constraint_matches_factor_split_on_presentations(text):
    G = _presented(text)
    assume(not G.is_abelian())
    assert char_constraint(G) == oracles.char_constraint_by_factor_split(G)


def test_char_constraint_builds_no_factor_and_no_normal_subgroup(
        monkeypatch):
    G = _presented(C64_C8)

    def refuse(*args):
        raise AssertionError("brute-force route called")

    monkeypatch.setattr(type(G), "subgroup_cayley", refuse)
    monkeypatch.setattr(fuchs2.groups, "normal_subgroups", refuse)
    assert G.n == 512 and char_constraint(G)
    assert not char_constraint(build_group("D16xC4xC4xC2"))


def test_screen_verdicts_pinned_on_atom_products():
    # sha256 of the screen JSON of every product of 1-3 catalog atoms of
    # order <= 128.  Re-pinned when the composition bases of class <= 2
    # groups came from chief chains: the certificates of the nonabelian
    # class <= 2 products changed, their verdicts did not (the test below)
    digest = hashlib.sha256()
    for spec in oracles.atom_products(128, (1, 2, 3)):
        digest.update(screen(build_group(spec)).to_json().encode())
    assert digest.hexdigest() == ("cc21b4c9fd7c1e5b38d8f86066967ffa"
                                  "b2e33b2e4835436593891631a90cff20")


def test_screen_verdicts_without_certificates_pinned_on_atom_products():
    # the same products, with each verdict's certificate left out: status,
    # scope, reasons and allowed characteristics may not move when only
    # the bytes of a certificate do
    digest = hashlib.sha256()
    for spec in oracles.atom_products(128, (1, 2, 3)):
        verdict = screen(build_group(spec)).to_dict()
        del verdict["certificate"]
        digest.update(json.dumps(verdict, indent=2).encode())
    assert digest.hexdigest() == VERDICTS_DIGEST


@pytest.mark.parametrize("text", [C32_C8, C64_C8], ids=["C32_C8", "C64_C8"])
def test_screen_refutes_any_ring_above_order_128(text):
    v = screen(_presented(text))
    assert v.status == "not_realizable"
    assert v.scope == SCOPE_ANY_RING
    assert {"self_centralizing_large_order",
            "two_power_characteristic_only"} <= v.rules_fired()
    assert v.notes == []


def test_two_power_constraint_above_order_128():
    assert "two_power_characteristic_only" in \
        screen(build_group("D16xD16")).rules_fired()
    assert "two_power_characteristic_only" not in \
        screen(build_group("D16xC4xC4")).rules_fired()


@pytest.mark.parametrize(
    "spec", oracles.catalog_specs(128) + oracles.atom_products(128, (2, 3)))
def test_near_maximal_exponent_fires_only_on_indecomposable_groups(spec):
    G = build_group(spec)
    if maximal_exponent_obstruction(G):
        assert is_indecomposable(G)


# -- aggregation --------------------------------------------------------------

def test_screen_realizable():
    v = screen(build_group("Q8"))
    assert v.status == "realizable"
    assert v.certificate is not None
    assert v.certificate.quotient_size == 16


def test_a_fault_under_the_construction_is_not_an_unknown_verdict(
        monkeypatch):
    # only running out of bases is undecided; a failed invariant check
    # inside the construction is a fault and exits 4
    from fuchs2.cli import dispatch

    def fault(*args):
        raise InternalInvariantError("complement ideal is not two-sided")

    monkeypatch.setattr(fuchs2.star, "complement_ideal", fault)
    with pytest.raises(InternalInvariantError, match="two-sided"):
        screen(build_group("Q8"))
    assert dispatch(["screen", "Q8"]) == 4


def test_screen_m16():
    v = screen(build_group("M16"))
    assert v.status == "not_realizable"
    assert v.scope == SCOPE_ANY_RING
    assert {"self_centralizing_large_order",
            "two_power_characteristic_only"} <= v.rules_fired()


def test_screen_cyclic():
    for spec in ("C8", "C16"):
        v = screen(build_group(spec))
        assert v.status == "not_realizable"
        assert v.scope == SCOPE_ALL_2M
        assert "self_centralizing_large_order" in v.rules_fired()
        assert v.allowed_characteristics == []


def test_screen_c16xc2():
    v = screen(build_group("C16xC2"))
    assert v.status == "unknown"
    assert 1 not in v.allowed_characteristics
    assert 6 in v.allowed_characteristics
    assert "centralizer_power_condition" in v.rules_fired()


def test_screen_c8xc2_unobstructed_in_char_2():
    v = screen(build_group("C8xC2"))
    assert v.status == "unknown"
    assert 1 in v.allowed_characteristics


def test_screen_never_both_certificate_and_obstruction():
    for spec in ("C4", "Q8", "C8", "M16", "Q16", "C16xC2", "C8xC2", "D8"):
        v = screen(build_group(spec))
        if v.certificate is not None:
            assert v.status == "realizable"
            assert not {r.rule for r in v.reasons
                        if r.scope != "constraint"} & {
                "self_centralizing_large_order",
                "centralizer_power_condition",
                "near_maximal_exponent"}


def test_self_centralizing_implies_condition_i():
    # condition (i) is the N_a = 0 case of the centralizer-power rule
    for spec in ("C8", "C16", "M16", "Q16", "Q32", "QD16", "QD32"):
        G = build_group(spec)
        if self_centralizing_obstruction(G) is not None:
            hit = higher_exp_obstruction(G)
            assert hit is not None


def test_certificates_satisfy_exponent_bound():
    for spec in ("C2", "C4", "Q8", "D8", "C4xC4"):
        G = build_group(spec)
        v = screen(G)
        assert v.status == "realizable"
        n = G.n.bit_length() - 1
        assert G.exponent() <= exponent_bound(max(n, 1), 1)


def test_verdict_json_shape():
    import json
    v = screen(build_group("M16"))
    doc = json.loads(v.to_json())
    assert doc["status"] == "not_realizable"
    assert doc["scope"] == SCOPE_ANY_RING
    assert isinstance(doc["reasons"], list)
    assert all({"rule", "statement", "scope", "witness"} <= set(r)
               for r in doc["reasons"])
    assert doc["allowed_characteristics"] == []
