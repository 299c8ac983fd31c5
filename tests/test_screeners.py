from fuchs2.groups import build_group
from fuchs2.screeners import (
    SCOPE_ALL_2M,
    SCOPE_ANY_RING,
    char_constraint,
    characteristic_candidates,
    exponent_bound,
    higher_exp_obstruction,
    maximal_exponent_obstruction,
    screen,
    self_centralizing_obstruction,
)


# -- individual rules ---------------------------------------------------------

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


def test_exponent_bound_values():
    assert exponent_bound(3, 1) == 4
    assert exponent_bound(5, 1) == 8
    assert exponent_bound(5, 6) == 256


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
    assert screen(build_group("C8xC4xC4xC2")).notes == []
    note = "indecomposability not tested above order 128"
    assert any(note in n for n in screen(build_group("D16xC4xC4")).notes)


# -- aggregation --------------------------------------------------------------

def test_screen_realizable():
    v = screen(build_group("Q8"))
    assert v.status == "realizable"
    assert v.certificate is not None
    assert v.certificate.quotient_size == 16


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
