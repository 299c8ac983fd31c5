"""Constructive realization of exponent-4 groups in characteristic 2.

Pipeline: take the first center-last composition basis (every element a
unique {0,1}-product of the basis) whose induced elementary-abelian XOR
operation on exponent vectors satisfies the two translation-compatibility
conditions (exactly: every left and right translation is affine on the
exponent vectors, which holds for all of G once it holds for a generating
set; a cubic scan over all |G|^3 triples names the lex-least witness when
they fail), take the complement ideal (even-sum vectors whose XOR-sum of
supports vanishes), and certify that the unit group of the
resulting residue ring is the group we started from.  The candidate bases
are tried in the single order that ``composition_bases`` yields: direct
bases for class <= 2, then bases read off chief chains through the
center.

A basis is its list of ordered products, ``PcSequence.decode``, which
also carries the star operation.  One doubling step builds every such
list: after x_i come the products so far times x_i, one table lookup
each, and a step whose new products meet the old ones is refused.  That
disjointness at every step is exactly the uniqueness of the normal forms.

Every step that the underlying theory guarantees is still checked: every
normal form is built and checked unique, the conditions are decided
exactly, the kernel basis is re-verified to be a two-sided ideal, and
the witness, the natural map g -> g + I, is checked on all pairs.  The
certificate records enough to redo all of that from scratch.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field

from . import kernels
from .errors import Fuchs2Error, InternalInvariantError
from .gring import (
    IdealBasis,
    QuotientRing,
    UnitGroup,
    _Gf2Basis,
    quotient_ring,
    unit_group,
    verify_two_sided,
)
from .groups import CayleyGroup, normal_subgroups, verify_homomorphism
from .parsing import element_literal

__version__ = "0.1.0"

PC_ATTEMPTS = 64
CHIEF_CHAINS = 256


@dataclass
class PcSequence:
    """Ordered composition basis with all relative orders 2.

    ``elements[:split]`` are the noncentral entries, ``elements[split:]``
    generate the center.  ``decode[d]`` is the product x_1^d_1 ... x_k^d_k
    (bit i of d is d_(i+1)); every group element is exactly one of them,
    and ``encode`` is the inverse map.  The star operation a*b =
    decode[encode[a] XOR encode[b]] makes G elementary abelian; its |G| x
    |G| ``table`` is built on first read, since deciding the conditions
    needs only ``encode``.
    """

    group: CayleyGroup
    elements: tuple[int, ...]
    split: int
    decode: list[int]
    encode: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.encode = [0] * len(self.decode)
        for d, g in enumerate(self.decode):
            self.encode[g] = d

    @functools.cached_property
    def table(self):
        decode, enc = self.decode, self.encode
        return [[decode[ea ^ eb] for eb in enc] for ea in enc]

    def star(self, a, b):
        return self.table[a][b]


def _double(G: CayleyGroup, products, x):
    """Append each of ``products`` (the ordered products over x_1..x_i)
    times x = x_(i+1), one lookup each; return False, leaving the list as
    it was, when some element would then have two normal forms."""
    shifted = [G.mul[p][x] for p in products]
    if not set(products).isdisjoint(shifted):
        return False
    products.extend(shifted)
    return True


def _normal_forms(G: CayleyGroup, seq):
    """The ordered products of ``seq``, indexed by their exponent bitmask
    (the ``decode`` list), when they cover G exactly once; else None."""
    if (1 << len(seq)) != G.n:
        return None
    products = [0]
    for x in seq:
        if not _double(G, products, x):
            return None
    return products


def _base_sequence(G: CayleyGroup, gens):
    """Class <= 2 sequence: noncentral generators, then central generators,
    then square layers and independent commutators.  Returns a PcSequence,
    or None when the checks reject this ordering.

    The ordered products are grown with the basis, in its order: a tail
    candidate is kept when ``_double`` accepts it (that is exactly when
    the product count doubles), which handles power chains of any length,
    so exponent-8 class-2 groups get a basis too.
    """
    center = set(G.center())
    noncentral = [g for g in gens if g not in center]
    tail = [g for g in gens if g in center]
    ordered = noncentral + tail

    products = [0]
    for g in ordered:
        # minimal generators are independent mod Frattini, so they double
        if not _double(G, products, g):
            return None
    # each layer squares the last; the first also takes the commutators
    comms = [G.commutator(b, a)
             for i, a in enumerate(ordered) for b in ordered[i + 1:]]
    layer = ordered
    while layer and len(products) < G.n:
        layer = [x for x in (G.mul[y][y] for y in layer) if x] + \
            [c for c in comms if c]
        comms = []
        for x in layer:
            if _double(G, products, x):
                tail.append(x)

    if len(products) != G.n:
        return None
    if any(c not in center for c in tail):
        return None
    if set(G.subgroup(tail)) != center:
        return None
    return PcSequence(G, tuple(noncentral) + tuple(tail), len(noncentral),
                      products)


def pc_sequence(G: CayleyGroup) -> PcSequence:
    """The first center-last composition basis of ``composition_bases``."""
    seq = next(composition_bases(G), None)
    if seq is None:
        raise InternalInvariantError(
            f"no composition basis found for {G.name or 'group'}")
    return seq


def chief_chain_sequences(G: CayleyGroup):
    """Center-last composition bases from chief series through Z(G).

    Walk the maximal chains of normal subgroups that climb to the center
    and then through it to G, taking the minimal-index new element at each
    step, in a deterministic order.  Every such chain gives unique {0,1}
    normal forms with the suffix generating the center; that is checked,
    and a chain that fails it raises InternalInvariantError.
    """
    if G.n == 1:
        return
    center = set(G.center())
    split = G.n.bit_length() - len(center).bit_length()
    by_size = {}
    for s in normal_subgroups(G):
        by_size.setdefault(len(s), []).append(set(s))

    def walk(chain):
        cur = chain[-1]
        if len(cur) == G.n:
            seq = tuple(min(chain[lvl] - chain[lvl - 1])
                        for lvl in range(len(chain) - 1, 0, -1))
            decode = _normal_forms(G, seq)
            if decode is None:
                raise InternalInvariantError(
                    "chief-chain basis lost normal-form uniqueness")
            yield PcSequence(G, seq, split, decode)
            return
        for cand in by_size.get(len(cur) * 2, []):
            # climb to the center first, then through it to the top
            if cur < cand and (cand <= center
                               or (center <= cur and center <= cand)
                               or center == cand):
                yield from walk(chain + [cand])

    yield from walk([{0}])


def composition_bases(G: CayleyGroup):
    """Every candidate center-last composition basis, in the order the
    construction tries them.

    Class <= 2 groups (C1 included) first yield their direct bases: the
    ``_base_sequence`` results that pass its checks, over the first
    PC_ATTEMPTS minimal generating sequences.  The first CHIEF_CHAINS
    chief-chain bases follow; from class 3 up they are the only ones.  A
    basis is yielded once: the conditions depend on its elements only.
    """
    direct = ()
    if G.nilpotency_class() <= 2:
        made = (_base_sequence(G, gens) for gens in itertools.islice(
            G.minimal_generating_sequences(), PC_ATTEMPTS))
        direct = (seq for seq in made if seq is not None)
    chains = itertools.islice(chief_chain_sequences(G), CHIEF_CHAINS)
    seen = set()
    for seq in itertools.chain(direct, chains):
        if seq.elements not in seen:
            seen.add(seq.elements)
            yield seq


def star_table(G: CayleyGroup, seq: PcSequence) -> PcSequence:
    """The basis itself: a PcSequence carries its star operation.  The
    name stays because the benchmark in ``perfbench/`` traces and calls it."""
    return seq


def star_table_from_elements(G: CayleyGroup, elements) -> PcSequence:
    """The basis of an explicitly given sequence (must have unique normal
    forms); used to exhibit failures for exponent >= 8."""
    decode = _normal_forms(G, tuple(elements))
    if decode is None:
        raise Fuchs2Error("sequence does not give unique {0,1} normal forms")
    return PcSequence(G, tuple(elements), 0, decode)


def verify_star_conditions(G: CayleyGroup, seq: PcSequence):
    """Check, for all a, b, c,
        (1) (c(a*b))*c == (ca)*(cb)
        (2) ((a*b)c)*c == (ac)*(bc).
    Returns (ok, witness): witness is the lexicographically least violating
    (a, b, c, condition) or None.  The conditions are decided by checking
    that the translations by a generating set are affine on the exponent
    vectors; only when that fails are the star table built and the cubic
    scan run, to name the witness.
    """
    if kernels.translations_affine(G.mul, seq.encode):
        return (True, None)
    bad = kernels.first_condition_violation(G.mul, seq.table)
    if bad is None:
        raise InternalInvariantError(
            "affine-translation check and triple scan disagree")
    return (False, bad)


def complement_ideal(G: CayleyGroup, seq: PcSequence) -> IdealBasis:
    """Kernel of v -> (parity of support, XOR of encode over support) as a
    canonical GF(2) basis, verified to be a two-sided ideal.

    XOR-sums compose over symmetric differences (g*g = 1), so this kernel
    is exactly the set of even-support vectors whose star-sum is the
    identity; its dimension is |G| - log2|G| - 1.
    """
    n = G.n
    k = len(seq.elements)
    top = n - 1
    # constraint rows with column g at bit top - g: the parity of the
    # support, then one row per exponent bit.  Reduced echelon on their
    # lowest bits, they are reduced echelon on their highest columns.
    constraints = _Gf2Basis(n)
    constraints.insert((1 << n) - 1)
    for bit in range(k):
        constraints.insert(constraints.pack(e >> bit & 1
                                            for e in reversed(seq.encode)))
    rows_at = {top - (p.bit_length() - 1): r
               for p, r in constraints.pivots.items()}
    # one kernel vector per free column f: x_f = 1, and every pivot column
    # takes the entry its row has at f.  Each pivot column lies above the
    # free columns of its row, so f is the lowest bit and the only free
    # one: the vectors are already the reduced echelon basis.
    kernel = _Gf2Basis.from_reduced(n, [
        (1 << f) | sum(1 << p for p, r in rows_at.items()
                       if r >> (top - f) & 1)
        for f in range(n) if f not in rows_at])
    expected = n - k - 1
    if kernel.rank() != expected:
        raise InternalInvariantError(
            f"kernel dimension {kernel.rank()} != {expected}")
    basis = IdealBasis(G, 1, kernel)
    if not verify_two_sided(basis):
        raise InternalInvariantError(
            "complement kernel failed the two-sided ideal check")
    basis.closed = True
    if basis.contains_one():
        raise InternalInvariantError("complement ideal contains 1")
    return basis


# -- certificates -------------------------------------------------------------


@dataclass
class Certificate:
    """Verified realization witness: a closed ideal of an ambient group
    ring whose residue-ring unit group is isomorphic to the target group,
    together with the generator-image witness of that isomorphism."""

    group_spec: object          # str or {"gens": [...], "relators": [...]}
    ambient_spec: object
    m: int
    basis: IdealBasis
    quotient_size: int
    witness: dict               # generator label -> ambient element literal
    method: str
    tool_version: str = __version__

    def to_dict(self):
        ambient = self.basis.group
        return {
            "group": self.group_spec,
            "ambient": self.ambient_spec,
            "char": 1 << self.m,
            "ideal_basis": [element_literal(r, ambient)
                            for r in self.basis.rows],
            "quotient_size": self.quotient_size,
            "iso_witness": dict(self.witness),
            "method": self.method,
            "tool_version": self.tool_version,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


def group_spec_of(G: CayleyGroup):
    """The spec the verifier rebuilds G from; a display name is not one."""
    if G.source_spec is not None:
        return G.source_spec
    raise Fuchs2Error("group has no serializable spec; build it from a "
                      "spec string or presentation")


def projection_witness(G: CayleyGroup, units: UnitGroup, ring: QuotientRing):
    """The natural map g -> g + I, as a unit-index list, when it is a
    bijection onto the unit group; None otherwise.  It is multiplicative
    because the quotient map is a ring map; the caller checks that on all
    pairs."""
    phi = [units.position.get(r) for r in ring.element_index]
    if None in phi or len(set(phi)) != units.group.n:
        return None
    return phi


def realize_exponent4(G: CayleyGroup) -> Certificate:
    """Full pipeline for exponent <= 4 groups in characteristic 2.

    Composition basis -> exact condition check on its star operation ->
    complement ideal -> residue ring -> unit group -> natural map.
    The first of ``composition_bases`` that passes the condition check is
    used.  By the construction's theorem g -> g + I is an isomorphism onto
    the unit group, so that map is the witness; if it is not a bijective
    homomorphism (checked on all pairs), InternalInvariantError is raised.
    """
    if G.exponent() > 4:
        raise Fuchs2Error(
            f"exponent {G.exponent()} > 4: out of scope for the star "
            f"construction; run the screeners instead")
    tried = 0
    for seq in composition_bases(G):
        tried += 1
        if verify_star_conditions(G, seq)[0]:
            break
    else:
        raise InternalInvariantError(
            f"no composition basis satisfied the translation conditions "
            f"within the bounded search ({tried} sequences tried); "
            f"the constructive route is exhausted for this group")

    basis = complement_ideal(G, seq)
    ring = quotient_ring(basis)
    if ring.size != 2 * G.n:
        raise InternalInvariantError(
            f"residue ring has {ring.size} elements, expected {2 * G.n}")
    units = unit_group(ring)
    phi = projection_witness(G, units, ring)
    if phi is None or not verify_homomorphism(G, units.group, phi):
        raise InternalInvariantError(
            "the natural map is not an isomorphism onto the unit group")
    return certificate_from_parts(G, G, 1, basis, ring, units, phi, "star")


def certificate_from_parts(G: CayleyGroup, ambient: CayleyGroup, m,
                           basis, ring, units, phi, method) -> Certificate:
    """Assemble a certificate from an already-verified pipeline run."""
    group_spec, ambient_spec = group_spec_of(G), group_spec_of(ambient)
    witness = {}
    for name, g in zip(G.gen_names, G.gen_indices):
        rep = ring.rep(units.residue_index[phi[g]])
        witness[name] = element_literal(rep, ambient)
    return Certificate(
        group_spec=group_spec,
        ambient_spec=ambient_spec,
        m=m,
        basis=basis,
        quotient_size=ring.size,
        witness=witness,
        method=method,
    )
