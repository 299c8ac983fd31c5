"""Exhaustive ideal walk, certificate verification, and the fixture suite.

Let R be a finite ring of characteristic 2^m whose unit group is a
2-group G.  Then R^x = 1 + J, J the Jacobson radical, and Z_{2^m}*1 + J
is a local ring with 2|G| elements and the same units.  It is spanned by
its units (j = (1 + j) - 1), so it is a quotient Z_{2^m}[G]/I on which
g -> g + I is a bijection of G onto the units.  The search finds every
such two-sided ideal I, each once, by a walk down Jennings' layers of the
maximal ideal M = (2, D) of Z_{2^m}[G], D the augmentation ideal
(``enumerate_candidates``): I is reached through I_t = I + M^t, from
I_1 = M.  The first hit is certified with the natural map as witness;
identical (group, config) inputs give byte-identical certificates.  A walk
that ends without a hit returns None; one that reaches its node cap raises
UndecidedError, since a cap is never a refutation.

The fixture suite rebuilds every explicit ideal from the literature this
package tracks and checks a recorded witness for each: the images of the
expected group's generators, checked on every generator edge by ring
products, as ``verify_certificate`` checks any certificate.  No unit group
is tabulated and no isomorphism is searched for.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import namedtuple

from .errors import (
    CertificateError,
    ConstructionError,
    Fuchs2Error,
    InternalInvariantError,
    ParseError,
    SizeCapError,
    UndecidedError,
)
from .gring import M_CAP, IdealBasis, _check_m, _translations, \
    ideal_closure, maximal_ideal_powers, quotient_ring, residue_count, \
    unit_isomorphism, verify_two_sided
from .groups import CayleyGroup, build_group, enumerate_presentation
from .parsing import parse_element_literal, parse_element_terms, presentation
from .star import Certificate, certificate_from_parts

DEFAULT_BUDGET = 1_000_000


class SearchConfig(namedtuple("SearchConfig", "m budget")):
    __slots__ = ()

    def __new__(cls, m=1, budget=DEFAULT_BUDGET):  # budget: most walk nodes
        _check_m(m)
        if budget <= 0:
            raise Fuchs2Error("search budget must be positive")
        return super().__new__(cls, m, budget)


def _subspaces(d, c):
    """Each subspace of codimension c in F_2^d once, as its reduced echelon
    rows (bit masks, pivot = lowest bit) and its non-pivot columns, whose
    unit vectors span a complement of it."""
    for pivots in itertools.combinations(range(d), d - c):
        free = [j for j in range(d) if j not in pivots]
        slots = [[j for j in free if j > p] for p in pivots]
        for bits in itertools.product((0, 1), repeat=sum(map(len, slots))):
            bit = iter(bits)
            yield [1 << p | sum(1 << j for j in slot if next(bit))
                   for p, slot in zip(pivots, slots)], free


def enumerate_candidates(G: CayleyGroup, config: SearchConfig):
    """Yield, as a closed ``IdealBasis``, every two-sided ideal I of
    Z_{2^m}[G] on which g -> g + I is a bijection of G onto the units of
    the quotient, each once, depth first; raise UndecidedError before the
    walk visits more than ``config.budget`` nodes.

    A node is I_t = I + M^t, a canonical basis, with e = log2|M/I_t| and
    its kernel {g != 1 : g - 1 in I_t}; the root is I_1 = M.  Its children
    are the I_(t+1) of every I with I_t = I + M^t:
    C_t = M I_t + I_t M + M^(t+1) lies in I_(t+1), and every subgroup U
    between C_t and I_t is an ideal, since gu - u and ug - u lie in C_t
    for every u in I_t and g in G.  C_t is built from the few generators
    X each node carries, not from the rows of I_t.  Lemma: if
    span(X) + M^t = I_t, then C_t is spanned by M^(t+1) and by 2x and
    P(x) - x, for x in X and P a translation of ``_translations``.  Proof:
    M = 2R + the sum of the (g - 1)R, g a minimal generator, so
    M I_t = 2 I_t + the sum of the (g - 1)I_t, as I_t is an ideal, and
    likewise I_t M on the right; 2M^t and (g - 1)M^t, on either side, lie
    in M^(t+1), so the part M^t of I_t adds nothing (and P(x) + x spans
    with 2x what P(x) - x does).  The root I_1 = M carries X = [].  A
    child's X is every vector whose insert grew a span while the child
    was built: the generators that grew C_t, then the combinations of W
    that grew S + C_t, then the lifted basis vectors that grew U.  A
    vector that did not grow its span lies in the span of those before
    it and M^(t+1), so X spans U modulo M^(t+1).  The children are the U
    with U + M^t = I_t and I_t/U of order 2^c, 1 <= c <= k - e,
    |G| = 2^k: a subspace S of codimension c in W = (M^t + C_t)/C_t, which
    is U meeting W, together with one of 2^(c r) lifts to U of a basis of
    I_t/(M^t + C_t), r its dimension, each lift taken mod S.  U is kept
    only when G maps onto 1 + M/U, that is when its kernel, a subgroup of
    the parent's, has |G|/|M/U| elements: every I below U has that
    property, since the units of Z_{2^m}[G]/I map onto those of the
    quotient by U.  A node with |M/U| = |G| is a hit: G maps onto
    1 + M/U of |G| elements.  Each I is reached once, through the unique
    chain I + M^t, and the walk ends, as M is nilpotent.

    g -> g - 1 + C_t is a homomorphism F of the kernel K into the F_2-space
    I_t/C_t, since (g - 1)(h - 1) lies in I_t I_t, inside C_t.  U is kept
    exactly when F(K) + U/C_t = I_t/C_t, so a node has a child if and only
    if F(K) and W are both nonzero: when every g - 1 lies in C_t the node
    is left as soon as C_t is built.

    The walk reads few powers of M.  Each step down adds c >= 1 to e, so
    e >= t - 1, and ``children`` runs only at e < k, that is at t <= k:
    it reads M^t and, through C_t, M^(t+1), so no power past M^(k+1) is
    built (``maximal_ideal_powers`` is lazy).  Siblings share prefixes of
    their X: every child starts with the vectors that grew its parent's
    C_t, and every child of one S goes on with the same combinations of
    W.  A span, and the list of the vectors that grew it, are fixed by the
    sequence of inserts made from M^(t+2), so C_(t+1) after each shared
    prefix is built once, by the first child expanded, and copied by the
    others (``prefix``): each child's C_(t+1), that list, the child's
    children and their order are those of inserting its X vector by
    vector.
    """
    m, n = config.m, G.n
    k = n.bit_length() - 1
    stream = maximal_ideal_powers(G, m)
    powers = [next(stream)]  # M^0, read by no node
    perms = _translations(G)
    pack = powers[0].pack_terms
    shifts = {g: pack((0, g), ((1 << m) - 1, 1)) for g in range(1, n)}

    def power(t):  # M^t, pulled on first use; M^L = 0 from t = L on
        while len(powers) <= t:
            powers.append(next(stream, powers[-1]))
        return powers[t]

    def prefix(below, xs):
        """(span, grown) after the X vectors of ``below``, then xs: a copy
        of ``below``'s span with 2x and P(x) - x inserted for each x in xs,
        and ``below``'s grown list with those that grew it appended.
        Built on the first call, then shared by every caller."""
        built = []

        def build():
            if not built:
                span, grown = below()
                span = span.copy()
                built.append((span, grown + [
                    v for x in xs for v in (span.doubled(x), *(
                        span.plus(span.translate(x, perm), x)
                        for perm in perms))
                    if span.insert(v)]))
            return built[0]
        return build

    def children(t, ideal, e, kernel, c_t):
        span, grown = c_t()
        if all(span.contains(shifts[g]) for g in kernel):
            return
        top = span.copy()
        ws = [v for v in power(t).rows if top.insert(v)]  # W
        bs = [v for v in ideal.rows if top.insert(v)]
        # a child's X: what grew C_t, then S + C_t, then U (lemma above)
        shared = prefix(lambda: (power(t + 2), []), grown)

        def combination(columns):  # the sum of the ws at those columns
            return functools.reduce(span.plus, (ws[j] for j in columns), 0)

        for c in range(1, min(len(ws), k - e) + 1):
            need = (n >> (e + c)) - 1
            for reduced, free in _subspaces(len(ws), c):
                base = span.copy()
                below = prefix(shared, [v for v in (combination(
                    j for j in range(len(ws)) if row >> j & 1)
                    for row in reduced) if base.insert(v)])
                lifts = [combination(itertools.compress(free, bits))
                         for bits in itertools.product((0, 1), repeat=c)]
                for chosen in itertools.product(lifts, repeat=len(bs)):
                    child = base.copy()
                    xs = [v for v in map(span.plus, bs, chosen)
                          if child.insert(v)]
                    left = [g for g in kernel if child.contains(shifts[g])]
                    if len(left) == need:
                        yield t + 1, child, e + c, left, prefix(below, xs)

    nodes = 0
    stack = [(1, power(1), 0, list(range(1, n)), lambda: (power(2), []))]
    while stack:
        t, ideal, e, kernel, c_t = stack.pop()
        nodes += 1
        if nodes > config.budget:
            raise UndecidedError(f"the ideal walk reached its cap of "
                                 f"{config.budget} nodes")
        if e == k:
            yield IdealBasis(G, m, ideal, closed=True)
        else:
            stack += reversed(list(children(t, ideal, e, kernel, c_t)))


def search_realizing_ideal(G: CayleyGroup, config: SearchConfig):
    """Certificate of the first ideal of ``enumerate_candidates``, with
    the natural map g -> g + I as witness, or None when the walk ends
    without one; UndecidedError when it reaches its node cap.  The
    rendered certificate is checked by ``_check_document`` against G, the
    route ``run_fixture`` takes; the spec -> group route of
    ``verify_certificate`` is left to the caller and the test suite.
    The certificate's ``char`` 2^m names the ambient ring Z_{2^m}[G]; the
    certified ring's exact characteristic, the least 2^e with 2^e * 1 in
    I, can be smaller (4 for C4xC2 at m = 3)."""
    for basis in enumerate_candidates(G, config):
        ring = quotient_ring(basis)
        images = [ring.element_index[g] for g in G.gen_indices]
        cert = certificate_from_parts(G, G, config.m, basis, ring, images,
                                      method="search")
        if not _check_document(cert.to_dict(), G, G, config.m):
            raise InternalInvariantError("search certificate failed to "
                                         "verify")
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
            group = enumerate_presentation(
                presentation(spec["gens"], spec["relators"]))
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


class FixtureResult:
    def __init__(self, name, expected, verified, certificate=None,
                 detail=""):
        self.name = name
        self.expected = expected
        self.verified = verified
        self.certificate = certificate
        self.detail = detail

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
