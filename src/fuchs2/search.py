"""Bounded ideal search, certificate verification, and the fixture suite.

The search walks small even-support generator tuples in Z_{2^m}[G] in a
fixed deterministic order (by generator count, then lexicographically over
a pool of single generators), depth first over the ideal lattice, and
yields only the candidates a certificate can come from: the ideals with
exactly 2|G| residues.  Each distinct principal ideal of scalar 1 is
closed once: pool supports fall into orbits under translation by the
inverses of their elements, and an orbit's representative is first tested
against the ideals closed from generators of its leading form in the
filtration of F_2[G] by the powers of the augmentation ideal (Nakayama's
lemma makes the test exact).  The ideal of 2^e*y is y's scaled by 2^e,
since scalars are central.  A tuple's ideal is its prefix's span with one
principal ideal merged in, each merge made once per prefix span.  A
prefix that leaves fewer than 2|G| residues is not extended, and its
subtree is counted into the raw index, so the budget ends the stream at
the same raw index as closing every tuple in turn would.  The zero ideal
is tried first.  The first candidate whose unit group is isomorphic to G
is certified; identical (group, config) inputs give byte-identical
certificates.

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
    InternalInvariantError,
    ParseError,
    SizeCapError,
    UndecidedError,
)
from .gring import M_CAP, IdealBasis, _check_m, _sides, \
    augmentation_powers, ideal_closure, ideal_sum, leading_form, \
    quotient_ring, residue_count, unit_group, unit_isomorphism, \
    verify_two_sided
from .groups import CayleyGroup, build_group, isomorphism
from .parsing import parse_element_literal, parse_element_terms
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
        if len(set(self.support_sizes)) < len(self.support_sizes):
            raise Fuchs2Error("candidate support sizes must be distinct")


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


def _element(G: CayleyGroup, entry):
    """The coefficient tuple of the pool entry (e, support): 2^e on each
    element of the support, 0 elsewhere."""
    e, support = entry
    coeffs = [0] * G.n
    for g in support:
        coeffs[g] = 1 << e
    return tuple(coeffs)


def _principal_closures(G: CayleyGroup, m, pool):
    """Lazy principal closure of each pool entry, memoized per entry.

    A group element s in the support of x is a unit, so s^-1 x and x s^-1
    generate the same two-sided ideal as x.  Both keep the scalar and move
    the support to s^-1 S or S s^-1, again a pool support, so the orbits
    are orbits of supports: each is walked once, by the moves of each s^-1
    built once per call (the left translation, and the right one only
    where it differs: ``gring._sides``).  On an abelian group the left
    moves take S to {s^-1 S : s in S}, the orbit, in |S| moves.

    Each distinct ideal of an orbit's representative x of scalar 1 is
    closed once, by ``ideal_closure``.  Generators of one ideal have one
    D-adic leading form (``gring.leading_form``, the filtration computed
    once per call), and each closed ideal goes in the bucket of its
    generator's form; x is first tested against the ideals in its bucket,
    and takes the one it generates (``IdealBasis.generates``, exact by
    Nakayama's lemma).  x is packed once for its leading form and once for
    all its tests, straight from the support.  Scalars are central, so the
    ideal of 2^e*y is 2^e times that of y, the entry of scalar 1 on the
    same support (``IdealBasis.scaled``); each ideal of scalar 1 is scaled
    once per exponent, and equal scaled ideals are one interned basis."""
    orbit_of = {}  # support -> orbit number
    reps = []  # orbit number -> the support it was first reached from
    closures = {}  # orbit number -> its ideal of scalar 1
    buckets = {}  # leading form -> the ideals of scalar 1 closed with it
    scaled = {}  # (ideal of scalar 1, e) -> interned basis
    interned = {}  # key -> scaled basis
    moves = [_sides(G, G.inv[s]) for s in range(G.n)]
    ones = itertools.repeat(1)
    abelian = G.is_abelian()
    powers = augmentation_powers(G)

    def orbit(support):  # numbers the orbit of a support not yet reached
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

    def closed(k):  # the ideal of orbit k's representative, found once
        support = reps[k]
        bar = sum(1 << g for g in support)  # x mod 2, packed
        bucket = buckets.setdefault(leading_form(powers, bar), [])
        # x packed in the ideals' own form, once for all the tests
        v = bucket and bucket[0].pack_terms(support, ones)
        basis = next((b for b in bucket if b.generates(v)), None)
        if basis is None:
            basis = ideal_closure(G, m, [_element(G, (0, support))])
            bucket.append(basis)
        closures[k] = basis
        return basis

    def closure(i):
        e, support = pool[i]
        k = orbit_of.get(support)
        if k is None:
            k = orbit(support)
        basis = closures.get(k) or closed(k)
        if not e:
            return basis
        if (basis, e) not in scaled:
            basis_e = basis.scaled(e)
            scaled[basis, e] = interned.setdefault(basis_e.key(), basis_e)
        return scaled[basis, e]

    return functools.cache(closure)


def enumerate_candidates(G: CayleyGroup, config: SearchConfig):
    """Yield (index, generators, closed basis) for each distinct ideal
    with exactly 2|G| residues, the only size a realizing residue ring can
    have; each generator is a coefficient tuple (``_element``).

    The raw stream is every generator tuple, by generator count and then
    lexicographically over the single-element pool; `index` is a tuple's
    position in it, and the stream ends at raw index `budget`.  It is
    walked depth first.  A tuple's ideal is the sum of the principal
    closures of its entries (``_principal_closures``), since a sum of
    two-sided ideals is two-sided: its prefix's span with one closure
    merged in.  Equal principal closures are one basis, so one memo per
    prefix span object keeps, per basis, the merged span and, once a leaf
    needs it, the span's key; every frame with that prefix span shares it,
    across generator counts too.  Only a leaf of exactly 2|G| residues
    takes a key and a place among the remembered keys.  A sum that no
    later count extends is kept as None, dropping its span, once its key
    is remembered or at once when it has another size: that is a sum that
    leaves too few residues, or whose lex-least tuple starts at a pool
    entry the next count's walk does not reach before the budget ends the
    stream.  A reused span is skipped or yielded exactly as a freshly
    merged one would be, also past ``DEDUP_CACHE`` remembered keys.

    Spans only grow along a branch and lie in the even-sum maximal ideal,
    so none is improper.  A prefix whose span leaves fewer than 2|G|
    residues is not extended, and its subtree is counted into the raw
    index.  So every ideal with exactly 2|G| residues is yielded at the
    same index, with the same generators and rows, as by closing every
    raw tuple in turn.
    """
    for size in config.support_sizes:
        if size > G.n:
            raise Fuchs2Error(f"support size {size} exceeds |G| = {G.n}")
    pool = _pool(G, config)
    closure = _principal_closures(G, config.m, pool)
    element = functools.cache(lambda j: _element(G, pool[j]))
    limit = (1 << (config.m * G.n)) // (2 * G.n)  # spans leaving 2|G| residues
    # prefix span -> {principal closure -> [prefix + it, its key or None],
    # or None when its key is remembered and no later count extends it:
    # it is never extended nor yielded again}
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
                merged[basis] = [basis if prefix is None
                                 else ideal_sum(prefix, basis), None]
            entry = merged[basis]
            if left == 0:
                index += 1
                if entry is None:
                    continue
                span, key = entry
                size = span.span_size()
                later = size <= limit  # a later count may extend it
                # first reached, by its lex-least tuple: no tuple that
                # reaches it later starts at an earlier pool entry
                if key is None:
                    key = entry[1] = span.key() if size == limit else ()
                    later = later and (chosen[0] if chosen else i) < reach
                fresh = size == limit and key not in seen
                if fresh and len(seen) < DEDUP_CACHE:
                    seen.add(key)
                if not later and (key in seen or size != limit):
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
    the local ring Z_{2^m}[G].  The rendered certificate is checked by
    ``_check_document`` against G, the route ``run_fixture`` takes; the
    spec -> group route of ``verify_certificate`` is left to the caller
    and the test suite."""
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
    if not _check_document(cert.to_dict(), G, G, config.m):
        raise InternalInvariantError("search certificate failed to verify")
    return cert


def search_realizing_ideal(G: CayleyGroup, config: SearchConfig):
    """First certificate in enumeration order, or None at budget
    exhaustion (which is not a refutation).  The zero ideal is tried
    first: Z_2[C1] and Z_2[C2] realize their own groups, and for every
    other group and m its size test rejects it before any ring is built.
    The candidates are those of ``enumerate_candidates``: each distinct
    principal ideal is closed once, and each merge made once per prefix
    span."""
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
    rows are exactly the canonical form of their span, the residue count
    matches (above RESIDUE_CAP it raises SizeCapError), the span is a
    proper two-sided ideal inside the even-sum maximal ideal, and the
    stored generator images extend to a bijective homomorphism from the
    claimed group onto the unit group, checked on every generator edge by
    ring products (``gring.unit_isomorphism``): the residue ring is
    associative, so edges suffice for multiplicativity, and it is local
    with residue field GF(2), so with 2|G| residues it has |G| units and
    an injective map into them is onto."""
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
        rows = [parse_element_terms(lit, ambient, m)
                for lit in doc["ideal_basis"]]
    except Fuchs2Error as exc:
        raise CertificateError(f"bad basis literal: {exc}") from exc

    basis = IdealBasis.from_canonical_rows(ambient, m, rows)
    if basis is None:
        return False  # stored rows are not canonical for their span
    # the residue count, capped, comes before the two-sided check, whose
    # GF(2) tables have as many entries as the quotient has residues
    if residue_count(basis) != doc["quotient_size"]:
        return False
    if not verify_two_sided(basis):
        return False
    basis.closed = True
    if basis.contains_one():
        return False
    ring = quotient_ring(basis)

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
    basis = ideal_closure(ambient, m, [
        parse_element_literal(lit, ambient, m) for lit in literals])
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
