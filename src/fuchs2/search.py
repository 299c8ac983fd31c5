"""Bounded ideal search, certificate verification, and the fixture suite.

The search walks small even-support generator tuples in Z_{2^m}[G] in a
fixed deterministic order (by generator count, then lexicographically over
a pool of single generators), depth first over the ideal lattice.  Each
pool element is closed to its principal two-sided ideal once; a tuple's
ideal is the sum of its entries' principal ideals, obtained by merging one
canonical basis into its prefix's.  A prefix whose span already leaves
fewer than 2|G| residues (the only size a realizing residue ring can have)
is not extended, and its subtree is counted into the raw index, so the
budget ends the stream at the same raw index as closing every tuple in
turn would.  The zero ideal is tried before the walk.  The first
candidate with exactly 2|G| residues whose unit group is isomorphic to G
is certified.  Identical (group, config) inputs give byte-identical
certificates.

The fixture suite rebuilds every explicit ideal from the literature this
package tracks and hard-checks the resulting unit groups.
"""

from __future__ import annotations

import itertools
import json
import math
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
from .gring import M_CAP, IdealBasis, RingElement, _check_m, \
    ideal_closure, ideal_sum, quotient_ring, unit_group, verify_two_sided
from .groups import CayleyGroup, build_group, generator_map, isomorphism, \
    verify_homomorphism
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


def _single_elements(G: CayleyGroup, config: SearchConfig):
    """Deterministic pool of candidate generators: 2-power scalars times
    even supports containing the identity, drawn in index order and
    filtered to even coefficient sum."""
    scalars = [1 << e for e in range(config.m)]
    out = []
    for size in sorted(config.support_sizes):
        for combo in itertools.combinations(range(1, G.n), size - 1):
            for c in scalars:
                coeffs = [0] * G.n
                coeffs[0] = c
                for g in combo:
                    coeffs[g] = c
                x = RingElement(G, config.m, tuple(coeffs))
                if x.augmentation() % 2 == 0:
                    out.append(x)
    return out


def _principal_closures(G: CayleyGroup, pool):
    """Lazy principal closure of each pool element, None when improper.

    A group element s in the support of x is a unit, so s^-1 x and x s^-1
    generate the same two-sided ideal as x; they are pool elements too
    (same scalar, same support size, identity in the support).  The whole
    orbit under these moves shares one closure, computed once, and equal
    closures are one interned basis."""
    where = {x.coeffs: i for i, x in enumerate(pool)}
    closures = {}
    interned = {}

    def closure(i):
        if i in closures:
            return closures[i]
        try:
            basis = ideal_closure([pool[i]])
            basis = interned.setdefault(basis.key(), basis)
        except ImproperIdealError:
            basis = None
        closures[i] = basis
        orbit = [i]
        while orbit:
            coeffs = pool[orbit.pop()].coeffs
            support = [g for g, c in enumerate(coeffs) if c]
            for s in support:
                t = G.inv[s]
                for perm in (G.mul[t], [row[t] for row in G.mul]):
                    moved = [0] * G.n
                    for g in support:
                        moved[perm[g]] = coeffs[g]
                    j = where[tuple(moved)]
                    if j not in closures:
                        closures[j] = basis
                        orbit.append(j)
        return basis

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
    two-sided ideal: each pool element is closed once, and a tuple's basis
    is its prefix's basis with one principal closure merged in.

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
    pool = _single_elements(G, config)
    closure = _principal_closures(G, pool)
    limit = (1 << (config.m * G.n)) // (2 * G.n)  # spans leaving 2|G| residues
    seen = set()
    chosen = []
    index = 0

    def walk(start, left, prefix):
        nonlocal index
        for i in range(start, len(pool) - left):
            if index >= config.budget:
                return
            span = closure(i) if prefix is None else _merge(prefix, closure(i))
            if left == 0:
                index += 1
                if span is None:
                    continue
                key = span.key()
                if key in seen:
                    continue
                if len(seen) < DEDUP_CACHE:
                    seen.add(key)
                yield index - 1, tuple(pool[j] for j in chosen + [i]), span
            elif span is None or span.span_size() > limit:
                index += math.comb(len(pool) - i - 1, left)
            else:
                chosen.append(i)
                yield from walk(i + 1, left - 1, span)
                chosen.pop()

    for ng in range(1, config.max_gens + 1):
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
    cert = certificate_from_parts(G, G, config.m, basis, ring, units, phi,
                                  method="search")
    if not verify_certificate(cert):
        raise InternalInvariantError("search certificate failed to verify")
    return cert


def search_realizing_ideal(G: CayleyGroup, config: SearchConfig):
    """First certificate in enumeration order, or None at budget
    exhaustion (which is not a refutation).  The zero ideal is tried
    first: Z_2[C1] and Z_2[C2] realize their own groups, and for every
    other group and m its size test rejects it before any ring is built."""
    candidates = (basis for _, _, basis in enumerate_candidates(G, config))
    for basis in itertools.chain([IdealBasis.zero(G, config.m)], candidates):
        cert = _evaluate(G, config, basis)
        if cert is not None:
            return cert
    return None


# -- certificate verification -------------------------------------------------


def _build_from_spec(spec):
    try:
        if isinstance(spec, str):
            return build_group(spec)
        if (isinstance(spec, dict) and _is_str_list(spec.get("gens"))
                and _is_str_list(spec.get("relators"))):
            from .groups import enumerate_presentation
            from .parsing import parse_presentation_text
            text = "gens: " + " ".join(spec["gens"]) + "\n" \
                   + "rels: " + ", ".join(spec["relators"])
            return enumerate_presentation(parse_presentation_text(text))
    except (ParseError, ConstructionError, SizeCapError, OSError,
            UnicodeDecodeError) as exc:
        raise CertificateError(
            f"group spec {spec!r} does not build: {exc}") from exc
    raise CertificateError(f"unbuildable group spec {spec!r}")


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
    """Recompute everything a certificate claims.

    Checks: the basis rows are exactly the canonical form of their span,
    the span is a proper two-sided ideal inside the even-sum maximal
    ideal, the residue count matches, and the stored generator images
    extend to a bijective homomorphism from the claimed group onto the
    unit group (checked on all pairs)."""
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
    units = unit_group(ring)
    if units.group.n != target.n:
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
        residue = ring.project(coeffs)
        if residue not in units.position:
            return False
        images.append(units.position[residue])
    phi = generator_map(target, target.gen_indices, images, units.group)
    if phi is None or None in phi:
        return False
    return verify_homomorphism(target, units.group, phi)


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


# (name, ambient spec, m, generator literals, expected unit group spec)
# The characteristic-4 quaternion ideal carries the symmetrizer i*j+j*i in
# addition to the four published generators: without it the closure has
# index 32 and unit group Q8 x C2 (checked in the test suite); with it the
# residue ring has 16 elements and unit group exactly Q8.
FIXTURES = [
    ("SG32_37_char2", "SG32_37", 1,
     ("1+x1+x2+x1^5*x2", "1+x1+x1^2+x1^7*x3", "1+x1+x1^4+x1^5"),
     "SG32_37"),
    ("SG64_88_char2", "SG64_88", 1,
     ("1+x1+x1^2+x1^3*[x2,x1]", "1+x1+x1*x2+x2*x3", "1+x1+x1*x3+x1^4*x3"),
     "SG64_88"),
    ("SG64_104_char2", "SG64_104", 1,
     ("1+x1+x1^2+x1^3*x2^2", "1+x1+x1*x2+x2*x3", "1+x1+x1*x3+x1^4*x3"),
     "SG64_104"),
    ("Q8_char4", "Q8", 2,
     ("2*i+2", "2*j+2", "1+i+i^2+i^3", "1+i+j+i*j", "i*j+j*i"),
     "Q8"),
    ("C8_char2", "C8", 1,
     ("1+a+a^4+a^5",),
     "C8xC2"),
    ("C16_char2", "C16", 1,
     ("1+a+a^2+a^3+a^4+a^5+a^6+a^7+a^8+a^9+a^10+a^11+a^12+a^13+a^14+a^15",
      "1+a+a^8+a^9", "1+a^2+a^8+a^10"),
     "C16xC4xC2xC2"),
]


def run_fixture(name, ambient_spec, m, literals, expected_spec):
    ambient = build_group(ambient_spec)
    gens = [RingElement(ambient, m, parse_element_literal(lit, ambient, m))
            for lit in literals]
    basis = ideal_closure(gens)
    ring = quotient_ring(basis)
    units = unit_group(ring)
    expected = build_group(expected_spec)
    phi = isomorphism(expected, units.group)
    if phi is None:
        return FixtureResult(
            name, expected_spec, False, None,
            detail=f"unit group of size {units.group.n} is not isomorphic "
                   f"to {expected_spec}")
    cert = certificate_from_parts(expected, ambient, m, basis, ring, units,
                                  phi, method="fixture")
    ok = verify_certificate(cert)
    return FixtureResult(name, expected_spec, ok, cert,
                         detail="" if ok else "re-verification failed")


def run_fixtures(strict=True):
    """Rebuild and verify every tracked explicit ideal.  With strict=True
    any failure raises (the fixtures are ground truth)."""
    results = [run_fixture(*row) for row in FIXTURES]
    if strict:
        bad = [r for r in results if not r.verified]
        if bad:
            raise InternalInvariantError(
                "fixture failures: " + ", ".join(
                    f"{r.name} ({r.detail})" for r in bad))
    return results
