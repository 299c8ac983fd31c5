"""Non-realizability screeners and the aggregate verdict.

Each rule is a standalone test with an explicit scope: some refute only
characteristic 2, one refutes every characteristic 2^m, and combining a
2-power-only constraint with a 2^m refutation rules out all finite rings.
Scopes only ever strengthen; a characteristic-2 refutation is never
reported as absolute without that support.

Witness selection is deterministic (lowest element index), so verdicts are
reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InternalInvariantError, SizeCapError
from .gring import M_CAP
from .groups import (
    CayleyGroup,
    INDECOMP_CAP,
    direct_factor_pair,
    invariants_from_orders,
    is_indecomposable,
)
from .star import Certificate, realize_exponent4

M_RANGE = range(1, M_CAP + 1)

SCOPE_CHAR2 = "characteristic 2"
SCOPE_ALL_2M = "all characteristics 2^m"
SCOPE_ANY_RING = "any finite ring"
SCOPE_CONSTRAINT = "constraint"


@dataclass
class Reason:
    rule: str
    statement: str
    scope: str
    witness: str | None = None

    def to_dict(self):
        return {
            "rule": self.rule,
            "statement": self.statement,
            "scope": self.scope,
            "witness": self.witness,
        }


@dataclass
class Verdict:
    group_spec: object
    status: str                       # realizable | not_realizable | unknown
    scope: str | None
    reasons: list[Reason]
    allowed_characteristics: list[int]
    certificate: Certificate | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self):
        return {
            "group": self.group_spec,
            "status": self.status,
            "scope": self.scope,
            "reasons": [r.to_dict() for r in self.reasons],
            "allowed_characteristics": list(self.allowed_characteristics),
            "notes": list(self.notes),
            "certificate": (self.certificate.to_dict()
                            if self.certificate else None),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def rules_fired(self):
        return {r.rule for r in self.reasons}


def characteristic_candidates(G: CayleyGroup):
    """All m in M_RANGE whose scalar unit group embeds in Z(G).

    The units of Z_{2^m} are trivial (m = 1), C2 (m = 2), or
    C_{2^(m-2)} x C2 (m >= 3); a central copy of them must exist in any
    realizing ring of characteristic 2^m.  Embedding into the abelian
    group Z(G) is read off its invariant factors.
    """
    orders = G.element_orders()
    inv = invariants_from_orders([orders[z] for z in G.center()])
    out = set()
    for m in M_RANGE:
        if m == 1:
            out.add(m)
        elif m == 2:
            if len(inv) >= 1:
                out.add(m)
        else:
            if len(inv) >= 2 and inv[0] >= (1 << (m - 2)):
                out.add(m)
    return out


def exponent_bound(n: int, m: int) -> int:
    """Upper bound 2^(L+m-1), L = ceil(log2(n+1)), for the exponent of a
    group of order 2^n realizable in characteristic 2^m."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    L = math.ceil(math.log2(n + 1))
    return 1 << (L + m - 1)


def self_centralizing_obstruction(G: CayleyGroup):
    """Lowest-index a with |a| >= 8 and C_G(a) = <a>, or None.  Such an
    element rules out every characteristic 2^m."""
    orders = G.element_orders()
    for a in range(G.n):
        if orders[a] >= 8 and len(G.centralizer(a)) == orders[a]:
            return a
    return None


def higher_exp_obstruction(G: CayleyGroup):
    """First (a, condition) refuting characteristic 2:
    (i) N_a = 0 and |a| >= 8; (ii) N_a = 1 and |a| >= 16;
    (iii) N_a >= 2 and |a| >= 2^(2*N_a + 1)."""
    orders = G.element_orders()
    for a in range(G.n):
        o = orders[a]
        if o < 8:
            continue
        na = G.n_a(a)
        if na == 0 and o >= 8:
            return a, "i"
        if na == 1 and o >= 16:
            return a, "ii"
        if na >= 2 and o >= (1 << (2 * na + 1)):
            return a, "iii"
    return None


def maximal_exponent_obstruction(G: CayleyGroup) -> bool:
    """Nonabelian of order 2^n (n >= 4) with exponent 2^(n-1): not the
    unit group of any finite ring."""
    if G.is_abelian() or G.n < 16:
        return False
    return G.exponent() == G.n // 2


def char_constraint(G: CayleyGroup) -> bool:
    """True when G is a direct product of nonabelian indecomposable
    groups, forcing char(R) = 2^m for any realizing ring R."""
    if G.n == 1 or G.is_abelian():
        return False
    if G.n > INDECOMP_CAP:
        raise SizeCapError(
            f"characteristic constraint needs order <= {INDECOMP_CAP}")
    pair = direct_factor_pair(G)
    if pair is None:
        return True
    for members in pair:
        factor, _, _ = G.subgroup_cayley(members)
        if not char_constraint(factor):
            return False
    return True


def screen(G: CayleyGroup, realize=True) -> Verdict:
    """Aggregate verdict.

    Exponent <= 4 delegates to the constructive realizer.  Otherwise all
    obstructions run; allowed_characteristics is the set of m in [1, 6]
    passing the scalar-embedding and exponent-bound constraints minus any
    m refuted outright.
    """
    # unlike a certificate, a verdict may name G by its display name
    spec = G.source_spec if G.source_spec is not None else G.name
    n_log = G.n.bit_length() - 1
    exponent = G.exponent()
    reasons = []
    notes = []

    candidates = characteristic_candidates(G)
    if G.n == 1:
        allowed = set(candidates)
    else:
        allowed = {m for m in candidates
                   if exponent <= exponent_bound(n_log, m)}
        bound_excluded = sorted(candidates - allowed)
        if bound_excluded:
            reasons.append(Reason(
                rule="exponent_order_bound",
                statement=(f"exponent {exponent} exceeds the bound "
                           f"2^(ceil(log2(n+1))+m-1) for order 2^{n_log} "
                           f"at m in {bound_excluded}"),
                scope=", ".join(f"characteristic {1 << m}"
                                for m in bound_excluded),
            ))

    if exponent <= 4 and realize:
        try:
            cert = realize_exponent4(G)
        except InternalInvariantError as exc:
            # exponent 4 means realizable in characteristic 2 by theory,
            # but without a verified certificate the honest verdict is
            # unknown; such groups are recorded as open construction cases
            notes.append(f"constructive realization exhausted its bounded "
                         f"search ({exc}); exponent-4 theory asserts "
                         f"realizability in characteristic 2 but no "
                         f"certificate was produced")
            return Verdict(spec, "unknown", None, reasons, sorted(allowed),
                           notes=notes)
        return Verdict(spec, "realizable", None, reasons,
                       sorted(allowed), certificate=cert)

    thm_self = self_centralizing_obstruction(G)
    if thm_self is not None:
        reasons.append(Reason(
            rule="self_centralizing_large_order",
            statement=("element of order >= 8 whose centralizer is the "
                       "cyclic group it generates"),
            scope=SCOPE_ALL_2M,
            witness=G.label(thm_self),
        ))
        allowed = set()

    higher = higher_exp_obstruction(G)
    if higher is not None:
        a, cond = higher
        reasons.append(Reason(
            rule="centralizer_power_condition",
            statement=(f"condition ({cond}): reduced centralizer exponent "
                       f"2^{G.n_a(a)} with |a| = {G.element_order(a)}"),
            scope=SCOPE_CHAR2,
            witness=G.label(a),
        ))
        allowed.discard(1)

    cor_max = maximal_exponent_obstruction(G)
    if cor_max:
        reasons.append(Reason(
            rule="near_maximal_exponent",
            statement=("nonabelian of order 2^n (n >= 4) with exponent "
                       "2^(n-1)"),
            scope=SCOPE_ANY_RING,
        ))
        allowed = set()
        if G.n <= INDECOMP_CAP and not is_indecomposable(G):
            notes.append(
                "near_maximal_exponent applied to a decomposable group; "
                "the rule's support argument routes through the "
                "2-power-characteristic constraint for products of "
                "nonabelian indecomposables")

    try:
        prop_2m = char_constraint(G)
    except SizeCapError:
        prop_2m = None
        notes.append("indecomposability not tested above order "
                     f"{INDECOMP_CAP}; absolute refutations limited")
    if prop_2m:
        reasons.append(Reason(
            rule="two_power_characteristic_only",
            statement=("direct product of nonabelian indecomposable "
                       "groups: any realizing ring has characteristic "
                       "2^m"),
            scope=SCOPE_CONSTRAINT,
        ))

    if cor_max or (thm_self is not None and prop_2m):
        return Verdict(spec, "not_realizable", SCOPE_ANY_RING, reasons,
                       sorted(allowed), notes=notes)
    if thm_self is not None:
        return Verdict(spec, "not_realizable", SCOPE_ALL_2M, reasons,
                       sorted(allowed), notes=notes)
    return Verdict(spec, "unknown", None, reasons, sorted(allowed),
                   notes=notes)
