"""Bounded ideal search, certificate verification, and the fixture suite.

The search walks small even-support generator tuples in Z_{2^m}[G] in a
fixed deterministic order (by generator count, then lexicographically over
a pool of single generators), depth first over the ideal lattice.  The
pool is a list of (scalar exponent, support) pairs, and ring elements are
built only for the tuples yielded and the supports closed.  Principal
two-sided ideals are computed once per orbit of supports under the
translations by the inverses of support elements: an orbit's scalar-1
representative is closed, and the ideal of 2^e*y is that of y scaled by
2^e, since scalars are central.  A tuple's ideal is the sum of its
entries' principal ideals, obtained by merging one canonical basis into
its prefix's; each distinct principal ideal is merged into a given prefix
span once, whatever the generator count, and the merged span and its key
are reused whenever that ideal comes up again under the same span.  A
prefix whose span already leaves fewer than 2|G| residues (the only size
a realizing residue ring can have) is not extended, and its subtree is
counted into the raw index, so the budget ends the stream at the same raw
index as closing every tuple in turn would.  The zero ideal is tried
before the walk.  The first candidate with exactly 2|G| residues whose
unit group is isomorphic to G is certified.  Identical (group, config)
inputs give byte-identical certificates.

The fixture suite rebuilds every explicit ideal from the literature this
package tracks and checks a recorded witness for each: the images of the
expected group's generators, checked on every generator edge by ring
products, as ``verify_certificate`` checks any certificate.  No unit group
is tabulated and no isomorphism is searched for.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

from .errors import (
    CertificateError,
    ConstructionError,
    Fuchs2Error,
    ImproperIdealError,
    InternalInvariantError,
    ParseError,
    SizeCapError,
    UndecidedError,
)
from .gring import M_CAP, IdealBasis, RingElement, _check_m, _sides, \
    ideal_closure, ideal_sum, quotient_ring, unit_group, unit_isomorphism, \
    verify_two_sided
from .groups import CayleyGroup, build_group, isomorphism
from .parsing import parse_element_literal
from .star import Certificate, certificate_from_parts

DEFAULT_BUDGET = 1_000_000
DEDUP_CACHE = 1 << 20  # most basis fingerprints remembered for dedup


@dataclass(frozen=True)
class SearchConfig:
    m: int = 1
    support_sizes: tuple[int, ...] = (2, 4)
    max_gens: int = 4
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        _check_m(self.m)
        if self.budget <= 0:
            raise Fuchs2Error("search budget must be positive")
        if self.max_gens < 1:
            raise Fuchs2Error("a candidate needs at least one generator")
        if any(s < 2 for s in self.support_sizes):
            raise Fuchs2Error("candidate supports need at least 2 elements")
        if any(s % 2 for s in self.support_sizes):
            raise Fuchs2Error("candidate supports must be even "
                              "(generators must lie in the maximal ideal)")


def _pool(G: CayleyGroup, config: SearchConfig):
    """Deterministic pool of candidate generators, as (e, support) pairs
    for the elements 2^e * sum of the support: even supports containing the
    identity, by size and then in index order, each with the scalar
    exponents 0..m-1.  Every entry has even coefficient sum
    (``SearchConfig`` allows only even support sizes), so it lies in the
    even-sum maximal ideal."""
    return [(e, (0,) + combo)
            for size in sorted(config.support_sizes)
            for combo in itertools.combinations(range(1, G.n), size - 1)
            for e in range(config.m)]


def _element(G: CayleyGroup, m, entry):
    e, support = entry
    return RingElement.from_support(G, m, support, 1 << e)


def _principal_closures(G: CayleyGroup, m, pool):
    """Lazy principal closure of each pool entry, None when improper.

    A group element s in the support of x is a unit, so s^-1 x and x s^-1
    generate the same two-sided ideal as x.  Both keep the scalar and move
    the support to s^-1 S or S s^-1, which is again a pool support (same
    size, identity included), so the orbits are orbits of supports: each
    is walked once, by the moves of each s^-1 built once per call (the
    left translation, and the right one only where it differs:
    ``gring._sides``, R_t = L_t exactly when t is central).  The left moves
    alone take S only to {s^-1 S : s in S}, since t^-1 s^-1 S = (st)^-1 S
    with st in S; so on an abelian group that set is the orbit, walked in
    |S| moves.

    Only an orbit's representative of scalar 1 is closed by
    ``ideal_closure``.  Scalars are central, so the ideal generated by
    2^e*y is 2^e times the one generated by y, the entry of scalar 1 on
    the same support; y lies in the even-sum maximal ideal, so its closure
    is proper, and the closure of 2^e*y is that closure scaled
    (``IdealBasis.scaled``).  Equal closures are one interned basis, and
    each interned basis of scalar 1 is scaled once per exponent."""
    orbit_of = {}  # support -> orbit number
    reps = []  # orbit number -> the support it was first reached from
    closures = {}  # orbit number -> interned basis of scalar 1, or None
    scaled = {}  # (interned basis of scalar 1, e) -> interned basis
    interned = {}
    moves = [_sides(G, G.inv[s]) for s in range(G.n)]
    abelian = G.is_abelian()

    def orbit(support):
        if support in orbit_of:
            return orbit_of[support]
        k = orbit_of[support] = len(reps)
        reps.append(support)
        if abelian:
            at = operator.itemgetter(*support)
            for s in support:
                orbit_of[tuple(sorted(at(moves[s][0])))] = k
            return k
        work = [support]
        while work:
            support = work.pop()
            at = operator.itemgetter(*support)
            for s in support:
                for perm in moves[s]:
                    moved = tuple(sorted(at(perm)))
                    if moved not in orbit_of:
                        orbit_of[moved] = k
                        work.append(moved)
        return k

    def closed(k):
        if k not in closures:
            try:
                basis = ideal_closure(
                    [RingElement.from_support(G, m, reps[k])])
                closures[k] = interned.setdefault(basis.key(), basis)
            except ImproperIdealError:
                closures[k] = None
        return closures[k]

    def closure(i):
        e, support = pool[i]
        basis = closed(orbit(support))
        if not e or basis is None:
            return basis
        if (basis, e) not in scaled:
            basis_e = basis.scaled(e)
            scaled[basis, e] = interned.setdefault(basis_e.key(), basis_e)
        return scaled[basis, e]

    return closure


def _merge(prefix, basis):
    """Span of a prefix plus one principal closure, None when improper."""
    if basis is None:
        return None
    try:
        return ideal_sum(prefix, basis)
    except ImproperIdealError:
        return None


def enumerate_candidates(G: CayleyGroup, config: SearchConfig):
    """Yield (index, generators, closed basis) for each distinct ideal.

    The raw stream is every generator tuple, by generator count and then
    lexicographically over the single-element pool; `index` is a tuple's
    position in it, and the stream ends at raw index `budget`.  It is
    walked depth first.  The closure of a tuple is the sum of the principal
    closures of its entries, because a sum of two-sided ideals is a
    two-sided ideal: each principal closure is computed once
    (``_principal_closures``), and a tuple's basis is its prefix's basis
    with one principal closure merged in.  Equal principal closures are one
    interned basis, so the merge depends only on the prefix span and that
    basis.  One memo per prefix span object keeps, per basis, the merged
    span and, once a leaf needs it, the span's key; every frame with that
    prefix span shares it, across generator counts too, since each count's
    walk reaches the span objects that the counts before it made.  A sum
    that is improper, or whose key is remembered and which no later count
    extends, is never extended nor yielded again and is kept as None, which
    drops its span.  No later count extends a sum that leaves too few
    residues, nor one whose lex-least tuple starts at a pool entry that the
    next count's walk does not reach before the budget ends the stream: so
    the memo keeps no span of the last count that runs, and of the count
    before it only those that the budget lets the last one extend.
    A leaf still tests its stored key against the remembered ones, so a
    reused span is skipped or yielded exactly as a freshly merged one
    would be, also past ``DEDUP_CACHE`` remembered keys.

    Spans only grow along a branch.  A proper prefix whose span leaves
    fewer than 2|G| residues, or contains 1, is not extended: its subtree
    is skipped and counted into the raw index, so the budget still ends the
    stream at raw index `budget`, inside a skipped subtree or not.  Leaves
    that close improperly, or to an already-yielded basis, are skipped.

    So every ideal with at least 2|G| residues is yielded at the same index,
    with the same generators and rows, as by closing every raw tuple in
    turn.  Only candidates inside skipped subtrees are never yielded; they
    have fewer than 2|G| residues and cannot certify.
    """
    for size in config.support_sizes:
        if size > G.n:
            raise Fuchs2Error(f"support size {size} exceeds |G| = {G.n}")
    pool = _pool(G, config)
    closure = _principal_closures(G, config.m, pool)
    element = functools.cache(lambda j: _element(G, config.m, pool[j]))
    limit = (1 << (config.m * G.n)) // (2 * G.n)  # spans leaving 2|G| residues
    # prefix span -> {principal closure -> [prefix + it, its key or None],
    # or None when that sum is improper, or its key is remembered and no
    # later count extends it: it is never extended nor yielded again}
    merges = {}
    reach = 0
    seen = set()
    chosen = []
    index = 0

    def walk(start, left, prefix):
        nonlocal index
        merged = merges.setdefault(prefix, {})
        for i in range(start, len(pool) - left):
            if index >= config.budget:
                return
            basis = closure(i)
            if basis not in merged:
                span = basis if prefix is None else _merge(prefix, basis)
                merged[basis] = None if span is None else [span, None]
            entry = merged[basis]
            if left == 0:
                index += 1
                if entry is None:
                    continue
                span, key = entry
                later = span.span_size() <= limit  # a later count may extend
                # first reached, by its lex-least tuple: no tuple that
                # reaches it later starts at an earlier pool entry
                if key is None:
                    key = entry[1] = span.key()
                    later = later and (chosen[0] if chosen else i) < reach
                fresh = key not in seen
                if fresh and len(seen) < DEDUP_CACHE:
                    seen.add(key)
                if key in seen and not later:
                    merged[basis] = None  # never extended, never new again
                if fresh:
                    yield index - 1, tuple(map(element, chosen + [i])), span
            elif entry is None or entry[0].span_size() > limit:
                index += math.comb(len(pool) - i - 1, left)
            else:
                chosen.append(i)
                yield from walk(i + 1, left - 1, entry[0])
                chosen.pop()

    raw = 0  # raw tuples of up to ng generators
    for ng in range(1, config.max_gens + 1):
        raw += math.comb(len(pool), ng)
        # the first pool entry at which the budget ends the stream before
        # any tuple of ng + 1 generators starting there, or 0 when no
        # later count runs
        reach = 0 if ng == config.max_gens else bisect.bisect_left(
            range(len(pool)), config.budget, key=lambda a: raw + math.comb(
                len(pool), ng + 1) - math.comb(len(pool) - a, ng + 1))
        yield from walk(0, ng - 1, None)


def _evaluate(G: CayleyGroup, config: SearchConfig, basis):
    """Certificate for one closed candidate, or None.

    The candidate is proper without a check: every pool element has even
    coefficient sum, so its ideal lies in the even-sum maximal ideal of
    the local ring Z_{2^m}[G]."""
    if basis.span_size() * 2 * G.n != (1 << (config.m * G.n)):
        return None
    ring = quotient_ring(basis)
    units = unit_group(ring)
    try:
        phi = isomorphism(G, units.group)
    except UndecidedError:
        return None
    if phi is None:
        return None
    images = [units.residue_index[phi[g]] for g in G.gen_indices]
    cert = certificate_from_parts(G, G, config.m, basis, ring, images,
                                  method="search")
    if not verify_certificate(cert):
        raise InternalInvariantError("search certificate failed to verify")
    return cert


def search_realizing_ideal(G: CayleyGroup, config: SearchConfig):
    """First certificate in enumeration order, or None at budget
    exhaustion (which is not a refutation).  The zero ideal is tried
    first: Z_2[C1] and Z_2[C2] realize their own groups, and for every
    other group and m its size test rejects it before any ring is built.
    The candidates are those of ``enumerate_candidates``: each principal
    closure is computed once per orbit of supports and scalar, and each
    merge once per prefix span."""
    candidates = (basis for _, _, basis in enumerate_candidates(G, config))
    for basis in itertools.chain([IdealBasis.zero(G, config.m)], candidates):
        cert = _evaluate(G, config, basis)
        if cert is not None:
            return cert
    return None


# -- certificate verification -------------------------------------------------


def _build_from_spec(spec):
    """The group a spec builds, if the spec is that group's own spec."""
    try:
        if isinstance(spec, str):
            group = build_group(spec)
        elif (isinstance(spec, dict) and _is_str_list(spec.get("gens"))
                and _is_str_list(spec.get("relators"))):
            from .groups import enumerate_presentation
            from .parsing import parse_presentation_text
            text = "gens: " + " ".join(spec["gens"]) + "\n" \
                   + "rels: " + ", ".join(spec["relators"])
            group = enumerate_presentation(parse_presentation_text(text))
        else:
            raise CertificateError(f"unbuildable group spec {spec!r}")
    except (ParseError, ConstructionError, SizeCapError, OSError,
            UnicodeDecodeError) as exc:
        raise CertificateError(
            f"group spec {spec!r} does not build: {exc}") from exc
    if group.source_spec != spec:
        raise CertificateError(f"group spec {spec!r} is not canonical: it "
                               f"builds the group of {group.source_spec!r}")
    return group


_REQUIRED_FIELDS = {"group", "ambient", "char", "ideal_basis",
                    "quotient_size", "iso_witness", "method", "tool_version"}


def certificate_from_json(text) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CertificateError(f"certificate is not JSON: {exc}") from exc
    _check_fields(doc)
    return doc


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str_list(x):
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _check_fields(doc):
    """Reject an untrusted certificate document whose fields are missing
    or of the wrong type, before any of them is used."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate is not a JSON object")
    missing = _REQUIRED_FIELDS - doc.keys()
    if missing:
        raise CertificateError(f"certificate missing fields {sorted(missing)}")
    if not _is_int(doc["char"]):
        raise CertificateError("char must be an integer")
    if not _is_int(doc["quotient_size"]):
        raise CertificateError("quotient_size must be an integer")
    if not _is_str_list(doc["ideal_basis"]):
        raise CertificateError("ideal_basis must be a list of strings")
    witness = doc["iso_witness"]
    if not (isinstance(witness, dict) and _is_str_list(list(witness))
            and _is_str_list(list(witness.values()))):
        raise CertificateError("iso_witness must map names to strings")


def verify_certificate(cert) -> bool:
    """Recompute everything a certificate claims, from its specs alone.

    Reads the document (str, dict or ``Certificate``), checks its fields
    and its characteristic, builds the ambient and the claimed group from
    their specs, and passes them to ``_check_document``.  Checks: the basis
    rows are exactly the canonical form of their span, the span is a proper
    two-sided ideal inside the even-sum maximal ideal, the residue count
    matches, and the stored generator images extend to a bijective
    homomorphism from the claimed group onto the unit group, checked on
    every generator edge by ring products (``gring.unit_isomorphism``): the
    residue ring is associative, so edges suffice for multiplicativity, and
    it is local with residue field GF(2), so with 2|G| residues it has |G|
    units and an injective map into them is onto."""
    if isinstance(cert, Certificate):
        doc = cert.to_dict()
    elif isinstance(cert, dict):
        doc = cert
        _check_fields(doc)
    elif isinstance(cert, str):
        doc = certificate_from_json(cert)
    else:
        raise CertificateError(f"cannot verify {type(cert).__name__}")

    char = doc["char"]
    if char < 2 or char & (char - 1):
        raise CertificateError(f"characteristic {char} is not a 2-power")
    m = char.bit_length() - 1
    if m > M_CAP:
        raise CertificateError(f"characteristic {char} above 2^{M_CAP}")

    ambient = _build_from_spec(doc["ambient"])
    target = (_build_from_spec(doc["group"])
              if doc["group"] != doc["ambient"] else ambient)
    return _check_document(doc, ambient, target, m)


def _check_document(doc, ambient, target, m) -> bool:
    """Every claim of a well-formed document of characteristic 2^m, against
    the groups its ``ambient`` and ``group`` specs name."""
    try:
        vectors = [parse_element_literal(lit, ambient, m)
                   for lit in doc["ideal_basis"]]
    except Fuchs2Error as exc:
        raise CertificateError(f"bad basis literal: {exc}") from exc

    basis = IdealBasis.from_canonical_rows(ambient, m, vectors)
    if basis is None:
        return False  # stored rows are not canonical for their span
    if not verify_two_sided(basis):
        return False
    basis.closed = True
    if basis.contains_one():
        return False
    ring = quotient_ring(basis)
    if ring.size != doc["quotient_size"]:
        return False

    witness = doc["iso_witness"]
    if set(witness) != set(target.gen_names):
        return False
    images = []
    for name in target.gen_names:
        try:
            coeffs = parse_element_literal(witness[name], ambient, m)
        except Fuchs2Error as exc:
            raise CertificateError(f"bad witness literal: {exc}") from exc
        images.append(ring.project(coeffs))
    return unit_isomorphism(ring, target, target.gen_indices,
                            images) is not None


# -- fixtures -----------------------------------------------------------------


@dataclass
class FixtureResult:
    name: str
    expected: str
    verified: bool
    certificate: Certificate | None = None
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "expected": self.expected,
            "verified": self.verified,
            "detail": self.detail,
            "certificate": (self.certificate.to_dict()
                            if self.certificate else None),
        }


# (name, ambient spec, m, generator literals, expected unit group spec,
# witness literals).  The witness literals are the ambient elements whose
# residues are the images of the expected group's generators, in the order
# of its generator names; they were read from the certificates that the
# unit-group route (``unit_group`` and ``isomorphism``) produced, and the
# test suite rederives them by that route.
# The characteristic-4 quaternion ideal carries the symmetrizer i*j+j*i in
# addition to the four published generators: without it the closure has
# index 32 and unit group Q8 x C2 (checked in the test suite); with it the
# residue ring has 16 elements and unit group exactly Q8.
FIXTURES = [
    ("SG32_37_char2", "SG32_37", 1,
     ("1+x1+x2+x1^5*x2", "1+x1+x1^2+x1^7*x3", "1+x1+x1^4+x1^5"),
     "SG32_37",
     ("x1^-3*x3", "x1*x2*x1^-1*x3", "x1*x2*x1^-1*x3+x1^-3*x3+x2*x1*x3")),
    ("SG64_88_char2", "SG64_88", 1,
     ("1+x1+x1^2+x1^3*[x2,x1]", "1+x1+x1*x2+x2*x3", "1+x1+x1*x3+x1^4*x3"),
     "SG64_88",
     ("x2*x1^-1*x2*x3", "x1*x2*x3*x1^-1",
      "x1*x2*x3*x1^-1+x1*x2*x1*x3+x1*x2*x1*x2*x3")),
    ("SG64_104_char2", "SG64_104", 1,
     ("1+x1+x1^2+x1^3*x2^2", "1+x1+x1*x2+x2*x3", "1+x1+x1*x3+x1^4*x3"),
     "SG64_104",
     ("x2^-1*x3*x1^-1", "x1^2*x2*x3", "x1*x2^2*x3*x1^-1")),
    ("Q8_char4", "Q8", 2,
     ("2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j", "i*j+j*i"),
     "Q8",
     ("i^-1", "j^-1")),
    ("C8_char2", "C8", 1,
     ("1+a+a^4+a^5",),
     "C8xC2",
     ("a^3", "a^3+a^-3+a^-2")),
    ("C16_char2", "C16", 1,
     ("1+a+a^2+a^3+a^4+a^5+a^6+a^7+a^8+a^9+a^10+a^11+a^12+a^13+a^14+a^15",
      "1+a+a^8+a^9", "1+a^2+a^8+a^10"),
     "C16xC4xC2xC2",
     ("a^7", "a^7+a^-7+a^-6", "a^7+a^8+a^-7+a^-5+a^-3", "a^7+a^-5+a^-4")),
]


def run_fixture(name, ambient_spec, m, literals, expected_spec, witness):
    """Rebuild one explicit ideal and check its recorded witness.

    The ambient group is built once and doubles as the expected group when
    the two specs are equal.  The witness literals are projected into the
    residue ring and assembled into a certificate, which is rendered
    (``to_dict``) and checked by ``_check_document`` against these groups,
    the route ``verify_certificate`` takes after building them from their
    specs: the generator-edge check of ``gring.unit_isomorphism`` proves
    the unit group isomorphic to the expected group without tabulating
    it.  The spec -> group route of ``verify_certificate`` is exercised by
    the test suite and by ``fuchs2 verify`` on each fixture certificate."""
    ambient = build_group(ambient_spec)
    gens = [RingElement(ambient, m, parse_element_literal(lit, ambient, m))
            for lit in literals]
    basis = ideal_closure(gens)
    ring = quotient_ring(basis)
    expected = (ambient if expected_spec == ambient_spec
                else build_group(expected_spec))
    images = [ring.project(parse_element_literal(w, ambient, m))
              for w in witness]
    cert = certificate_from_parts(expected, ambient, m, basis, ring, images,
                                  method="fixture")
    ok = _check_document(cert.to_dict(), ambient, expected, m)
    return FixtureResult(
        name, expected_spec, ok, cert,
        detail="" if ok else
        f"recorded witness ({', '.join(witness)}) is not an isomorphism "
        f"from {expected_spec} onto the unit group")


def run_fixtures(strict=True):
    """Rebuild and check every tracked explicit ideal, building each group
    once (see ``run_fixture``).  With strict=True any failure raises (the
    fixtures are ground truth)."""
    results = [run_fixture(*row) for row in FIXTURES]
    if strict:
        bad = [r for r in results if not r.verified]
        if bad:
            raise InternalInvariantError(
                "fixture failures: " + ", ".join(
                    f"{r.name} ({r.detail})" for r in bad))
    return results
