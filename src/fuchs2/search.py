"""Bounded ideal search, certificate verification, and the fixture suite.

The search enumerates small even-support generator sets in Z_{2^m}[G] in a
fixed deterministic order, closes each candidate to a canonical two-sided
ideal, prunes unless the residue count is exactly 2|G| (the only shape a
realizing residue ring can have), and certifies the first candidate whose
unit group is isomorphic to G.  Identical (group, config) inputs give
byte-identical certificates.

The fixture suite rebuilds every explicit ideal from the literature this
package tracks and hard-checks the resulting unit groups.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import (
    CertificateError,
    Fuchs2Error,
    ImproperIdealError,
    InternalInvariantError,
    UndecidedError,
)
from .gring import IdealBasis, RingElement, ideal_closure, quotient_ring, \
    unit_group, verify_two_sided
from .groups import CayleyGroup, build_group, isomorphism, \
    verify_homomorphism
from .parsing import parse_element_literal
from .star import Certificate, certificate_from_parts

DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class SearchConfig:
    m: int = 1
    support_sizes: tuple[int, ...] = (2, 4)
    max_gens: int = 4
    budget: int = DEFAULT_BUDGET
    dedup_cache: int = 1 << 20

    def __post_init__(self):
        if self.budget <= 0:
            raise Fuchs2Error("search budget must be positive")
        if any(s % 2 for s in self.support_sizes):
            raise Fuchs2Error("candidate supports must be even "
                              "(generators must lie in the maximal ideal)")


def _single_elements(G: CayleyGroup, config: SearchConfig):
    """Deterministic pool of candidate generators: 2-power scalars times
    even supports containing the identity, drawn in index order and
    filtered to even coefficient sum."""
    scalars = [1 << e for e in range(config.m)]
    out = []
    mod = 1 << config.m
    for size in sorted(config.support_sizes):
        for combo in itertools.combinations(range(1, G.n), size - 1):
            for c in scalars:
                if (c * size) % 2 != 0 and size % 2 != 0:
                    continue
                coeffs = [0] * G.n
                coeffs[0] = c
                for g in combo:
                    coeffs[g] = c
                x = RingElement(G, config.m, tuple(coeffs))
                if x.augmentation() % 2 == 0:
                    out.append(x)
    return out


def _candidate_stream(G: CayleyGroup, config: SearchConfig):
    """All generator tuples in enumeration order: by generator count, then
    lexicographically over the single-element pool."""
    pool = _single_elements(G, config)
    for ng in range(1, config.max_gens + 1):
        for combo in itertools.combinations(range(len(pool)), ng):
            yield tuple(pool[i] for i in combo)


def enumerate_candidates(G: CayleyGroup, config: SearchConfig):
    """Yield (index, generators, closed basis) for each distinct ideal.

    Candidates closing to an already-seen canonical basis are skipped
    (dedup by basis fingerprint); improper closures are skipped too.  The
    stream ends when `budget` closures have been performed.
    """
    seen = set()
    for index, gens in enumerate(_candidate_stream(G, config)):
        if index >= config.budget:
            return
        try:
            basis = ideal_closure(list(gens))
        except ImproperIdealError:
            continue
        key = tuple(map(tuple, basis.rows))
        if key in seen:
            continue
        if len(seen) < config.dedup_cache:
            seen.add(key)
        yield index, gens, basis


def _evaluate(G: CayleyGroup, config: SearchConfig, index, gens, basis):
    """Certificate for one closed candidate, or None."""
    if basis.span_size() * 2 * G.n != (1 << (config.m * G.n)):
        return None
    if any(sum(r) % 2 for r in basis.rows):
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
    exhaustion (which is not a refutation)."""
    for index, gens, basis in enumerate_candidates(G, config):
        cert = _evaluate(G, config, index, gens, basis)
        if cert is not None:
            return cert
    return None


# -- certificate verification -------------------------------------------------


def _build_from_spec(spec):
    if isinstance(spec, str):
        return build_group(spec)
    if (isinstance(spec, dict) and _is_str_list(spec.get("gens"))
            and _is_str_list(spec.get("relators"))):
        from .groups import enumerate_presentation
        from .parsing import parse_presentation_text
        text = "gens: " + " ".join(spec["gens"]) + "\n" \
               + "rels: " + ", ".join(spec["relators"])
        return enumerate_presentation(parse_presentation_text(text))
    raise CertificateError(f"unbuildable group spec {spec!r}")


def extend_generator_map(G: CayleyGroup, gen_elements, images,
                         H: CayleyGroup):
    """Extend generator images to a full map G -> H by following words, or
    None when the generators fail to generate G."""
    phi = [None] * G.n
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in zip(gen_elements, images):
                y = G.mul[x][g]
                if phi[y] is None:
                    phi[y] = H.mul[phi[x]][h]
                    nxt.append(y)
        frontier = nxt
    if any(p is None for p in phi):
        return None
    return phi


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

    ambient = _build_from_spec(doc["ambient"])
    target = (_build_from_spec(doc["group"])
              if doc["group"] != doc["ambient"] else ambient)

    try:
        vectors = [parse_element_literal(lit, ambient, m)
                   for lit in doc["ideal_basis"]]
    except Fuchs2Error as exc:
        raise CertificateError(f"bad basis literal: {exc}") from exc

    basis = IdealBasis.from_vectors(ambient, m, vectors)
    if [tuple(r) for r in basis.rows] != [tuple(v) for v in vectors]:
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
    unit_pos = {r: k for k, r in enumerate(units.residue_index)}
    images = []
    for name in target.gen_names:
        try:
            coeffs = parse_element_literal(witness[name], ambient, m)
        except Fuchs2Error as exc:
            raise CertificateError(f"bad witness literal: {exc}") from exc
        residue = ring.project(coeffs)
        if residue not in unit_pos:
            return False
        images.append(unit_pos[residue])
    phi = extend_generator_map(target, list(target.gen_indices), images,
                               units.group)
    if phi is None:
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
