"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated limit.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import json
import time

import pytest

from fuchs2.cli import dispatch
from fuchs2.gring import (
    cyclic_quotient_order,
    full_group_ring,
    scalar_unit_identity_check,
    unit_group,
)
from fuchs2.groups import build_group
from fuchs2.screeners import exponent_bound, screen
from fuchs2.search import (
    SearchConfig,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)
from fuchs2.star import (
    complement_ideal,
    pc_sequence,
    realize_exponent4,
    star_table,
    star_table_from_elements,
    verify_star_conditions,
)

import oracles

EXP4_CATALOG = ["C2", "C4", "C2xC2", "C4xC2", "C4xC4", "C4xC4xC4",
                "D8", "Q8", "D8xC2", "Q8xC2", "Q8xQ8"]

_certs = {}


class _Timer:
    def __init__(self, criterion, limit):
        self.criterion = criterion
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit \
            else "FAIL"
        print(f"\nACCEPTANCE {self.criterion}: {status} "
              f"({elapsed:.1f}s, limit {self.limit}s)")
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"{self.criterion} exceeded {self.limit}s ({elapsed:.1f}s)")
        return False


def test_criterion_1_exponent4_catalog():
    with _Timer("criterion 1 (exponent-4 realization catalog)", 120):
        for spec in EXP4_CATALOG:
            G = build_group(spec)
            cert = realize_exponent4(G)
            assert cert.quotient_size == 2 * G.n, spec
            assert verify_certificate(cert), spec
            _certs[spec] = (G, cert)


def test_criterion_2_explicit_ideal_fixtures():
    with _Timer("criterion 2 (explicit ideals, six quotients)", 120):
        results = run_fixtures(strict=True)
        assert len(results) == 6
        assert all(r.verified for r in results)


def test_criterion_3_units_of_z2_c8():
    with _Timer("criterion 3 (units of Z_2[C8])", 10):
        units = unit_group(full_group_ring(build_group("C8"), 1))
        assert units.group.abelian_invariants() == (8, 4, 2, 2)


def test_criterion_4_screener_table_and_search():
    with _Timer("criterion 4 (screener table + ideal walk)", 300):
        all_2m = "all characteristics 2^m"
        any_ring = "any finite ring"
        for spec in ("C8", "C16"):
            v = screen(build_group(spec))
            assert v.status == "not_realizable" and v.scope == all_2m, spec
            assert "self_centralizing_large_order" in v.rules_fired()
        for spec in ("M16", "Q16", "Q32", "QD16", "QD32"):
            v = screen(build_group(spec))
            assert v.status == "not_realizable" and v.scope == any_ring, spec
            assert "self_centralizing_large_order" in v.rules_fired()
            assert "two_power_characteristic_only" in v.rules_fired()
        v = screen(build_group("C16xC2"))
        assert v.status == "unknown"
        assert 1 not in v.allowed_characteristics
        assert 6 in v.allowed_characteristics
        assert any(r.rule == "centralizer_power_condition"
                   and "(ii)" in r.statement for r in v.reasons)
        G = build_group("C8xC2")
        v = screen(G)
        assert 1 in v.allowed_characteristics
        cert = search_realizing_ideal(G, SearchConfig(m=1))
        assert cert is not None
        assert verify_certificate(cert)
        _certs["C8xC2-search"] = (G, cert)


def test_criterion_5a_units_are_odd_augmentation():
    with _Timer("criterion 5a (unit = odd coefficient sum, exhaustive)",
                120):
        small = [s for s in ("C2", "C4", "C8", "D8", "Q8")]
        for spec in small:
            G = build_group(spec)
            for m in (1, 2):
                mod = 1 << m
                for coeffs in itertools.product(range(mod), repeat=G.n):
                    parity_unit = sum(coeffs) % 2 == 1
                    oracle_unit = oracles.is_unit_by_linear_algebra(
                        G, m, coeffs)
                    assert parity_unit == oracle_unit, (spec, m, coeffs)


def test_criterion_5b_scalar_unit_identity():
    with _Timer("criterion 5b (scalar 1+2t identity)", 120):
        for m in (2, 3, 4, 5):
            assert scalar_unit_identity_check(m)


def test_criterion_5c_cyclic_quotient_orders():
    with _Timer("criterion 5c (cyclic quotient relation orders)", 120):
        for N in (2, 3, 4, 5):
            for k in range(1, 1 << N, 2):
                order = cyclic_quotient_order(N, k)
                if k % 4 == 1:
                    assert 2 % order == 0, (N, k)
                else:
                    assert 4 % order == 0, (N, k)


def test_criterion_5d_c8_star_counterexample():
    with _Timer("criterion 5d (exponent-8 star counterexample)", 120):
        G = build_group("C8")
        a = G.gen_indices[0]
        st = star_table_from_elements(G, [a, G.power(a, 2), G.power(a, 4)])
        ok, witness = verify_star_conditions(G, st)
        assert not ok and witness is not None
        # the witness triple of the source: (x1, x1*x1^2, x1) yields
        # x1^2 on one side, x1^2*x1^4 on the other
        b = G.power(a, 3)
        lhs = st.star(G.mul[a][st.star(a, b)], a)
        rhs = st.star(G.mul[a][a], G.mul[a][b])
        assert lhs == G.power(a, 2)
        assert rhs == G.mul[G.power(a, 2)][G.power(a, 4)]
        assert lhs != rhs


def test_criterion_5e_certificates_satisfy_exponent_bound():
    with _Timer("criterion 5e (certificates respect the exponent bound)",
                120):
        assert _certs, "criteria 1/4 must run first"
        for spec, (G, cert) in _certs.items():
            n = max(G.n.bit_length() - 1, 1)
            m = cert.m
            assert G.exponent() <= exponent_bound(n, m), spec


def test_criterion_5f_kernel_matches_bruteforce():
    with _Timer("criterion 5f (complement ideal vs brute force, |G|<=16)",
                120):
        for spec in ("C2", "C4", "C2xC2", "C4xC2", "C4xC4", "D8", "Q8",
                     "D8xC2", "Q8xC2"):
            G = build_group(spec)
            if G.n > 16:
                continue
            st = star_table(G, pc_sequence(G))
            basis = complement_ideal(G, st)
            brute = oracles.brute_star_kernel(G, st.encode)
            assert basis.span_size() == len(brute), spec
            for mask in brute:
                vec = tuple((mask >> g) & 1 for g in range(G.n))
                assert basis.contains(vec), spec


def test_criterion_6_determinism(tmp_path, capsys):
    with _Timer("criterion 6 (byte-identical reruns, verify round-trip)",
                300):
        # repeated realize runs on freshly built groups
        for spec in ("Q8", "D8xC2"):
            a = realize_exponent4(build_group(spec)).to_json()
            b = realize_exponent4(build_group(spec)).to_json()
            assert a == b, spec
        # repeated searches
        G1 = build_group("C8xC2")
        G2 = build_group("C8xC2")
        s1 = search_realizing_ideal(G1, SearchConfig(m=1)).to_json()
        s2 = search_realizing_ideal(G2, SearchConfig(m=1)).to_json()
        assert s1 == s2
        # every emitted certificate round-trips through `verify`, exit 0
        docs = [cert.to_json() for _, cert in _certs.values()]
        docs.append(s1)
        for k, doc in enumerate(docs):
            path = tmp_path / f"cert{k}.json"
            path.write_text(doc)
            assert dispatch(["verify", str(path)]) == 0
        capsys.readouterr()
