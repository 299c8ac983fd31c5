"""Constructive realization of exponent-4 groups in characteristic 2.

Pipeline: take the first center-last composition basis (every element a
unique {0,1}-product of the basis) whose induced elementary-abelian XOR
operation on exponent vectors satisfies the two translation-compatibility
conditions (exactly: every left and right translation is affine on the
exponent vectors, which holds for all of G once it holds for a generating
set; a translation that is not affine names a violating triple), take the
complement ideal (even-sum vectors whose XOR-sum of supports vanishes),
and certify that the unit group of the resulting residue ring is the
group we started from.  The candidate bases are tried in the single order
that ``composition_bases`` yields: bases read off chief chains through
the center, for every group.

A basis is its list of ordered products, ``PcSequence.decode``, which
also carries the star operation.  One doubling step builds every such
list: after x_i come the products so far times x_i, one table lookup
each, and a step whose new products meet the old ones is refused.  That
disjointness at every step is exactly the uniqueness of the normal forms.

Every step that the underlying theory guarantees is still checked: every
normal form is built and checked unique, the conditions are decided
exactly, the kernel basis is re-verified to be a two-sided ideal, and
the witness, the natural map g -> g + I, is checked on every generator
edge by ring products (``gring.unit_isomorphism``): the residue ring is
associative, so edges suffice for multiplicativity, and it is local with
residue field GF(2), so an injective map of G into its units is onto.
The certificate records enough to redo all of that from scratch.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

from . import kernels
from .errors import Fuchs2Error, InternalInvariantError, UndecidedError
from .gring import (
    IdealBasis,
    QuotientRing,
    _Gf2Basis,
    quotient_ring,
    unit_isomorphism,
    verify_two_sided,
)
from .groups import CayleyGroup
from .parsing import element_literal, terms_literal

__version__ = "0.1.0"

CHIEF_CHAINS = 256


class PcSequence:
    """Ordered composition basis with all relative orders 2.

    ``elements[:split]`` are the noncentral entries, ``elements[split:]``
    generate the center.  ``decode[d]`` is the product x_1^d_1 ... x_k^d_k
    (bit i of d is d_(i+1)); every group element is exactly one of them,
    and ``encode`` is the inverse map.  The star operation a*b =
    decode[encode[a] XOR encode[b]] makes G elementary abelian.  Its |G| x
    |G| ``table`` is built on first read, for the tests' reference scan:
    the conditions and their witness need only ``encode`` and ``decode``.
    """

    def __init__(self, group, elements, split, decode):
        self.group = group
        self.elements = elements
        self.split = split
        self.decode = decode
        self.encode = [0] * len(decode)
        for d, g in enumerate(decode):
            self.encode[g] = d

    @functools.cached_property
    def table(self):
        decode, enc = self.decode, self.encode
        return [[decode[ea ^ eb] for eb in enc] for ea in enc]

    def star(self, a, b):
        return self.table[a][b]


def _normal_forms(G: CayleyGroup, seq):
    """The ordered products of ``seq``, indexed by their exponent bitmask
    (the ``decode`` list), when they cover G exactly once; else None.

    One doubling step per x_i: after the products over x_1..x_(i-1) come
    each of them times x_i, one lookup each, and a step whose new products
    meet the old ones refuses the sequence."""
    if (1 << len(seq)) != G.n:
        return None
    products = [0]
    for x in seq:
        shifted = [G.mul[p][x] for p in products]
        if not set(products).isdisjoint(shifted):
            return None
        products.extend(shifted)
    return products


def pc_sequence(G: CayleyGroup) -> PcSequence:
    """The first center-last composition basis of ``composition_bases``,
    the basis of the first chief chain through the center."""
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
    and a chain that fails it raises InternalInvariantError.  The walk
    starts at the trivial subgroup, so C1 gets its one chain, the empty
    basis.

    The children of a normal subgroup N are read off directly, without
    the normal-subgroup lattice.  A normal subgroup M over N with
    |M/N| = 2 makes M/N a normal subgroup of order 2 of the 2-group G/N,
    hence a central one, so the children are the sets N u xN for x
    outside N with x^2 in N and [x, g] in N for every generator g; x is
    taken from Z(G) until the chain reaches the center, and such an x
    commutes with every g, so only its square is tested there.  A node's
    candidates x are scanned in increasing order, so x is the least member
    of xN when it is reached, and the children come in the order of their
    sorted member tuples, the order of ``groups.normal_subgroups``: two
    children share N, and the one whose new coset holds the lesser least
    member sorts first.  The scan of a node runs only as far as the walk
    has asked for its children, once for all the chains through it, so
    the first basis reads one child per node.
    """
    center = G.center()
    split = G.n.bit_length() - len(center).bit_length()
    mul, gens = G.mul, G.gen_indices
    children_of = {}  # member tuple -> (children found so far, their scan)

    def scan(cur):
        """(members, least new element) of each child of ``cur``, a sorted
        member tuple, in order."""
        inside = set(cur)
        seen = set(cur)
        central = len(cur) < len(center)
        for x in center if central else range(G.n):
            if x in seen:
                continue
            coset = [mul[x][c] for c in cur]
            seen.update(coset)  # the test depends on the coset xN only
            if mul[x][x] in inside and (central or all(
                    G.commutator(x, g) in inside for g in gens)):
                yield tuple(sorted(cur + tuple(coset))), x

    def children(cur):
        """The children of ``cur`` in order, each scanned for once."""
        if cur not in children_of:
            children_of[cur] = ([], scan(cur))
        found, rest = children_of[cur]
        for i in itertools.count():
            if i == len(found):
                child = next(rest, None)
                if child is None:
                    return
                found.append(child)
            yield found[i]

    # depth first over the chains, on an explicit stack (a recursive
    # closure would keep the tables alive until a full collection):
    # chain holds the least new element of each step taken and
    # pending[i] iterates the children of the i-th subgroup on the chain
    chain = []
    pending = [iter([((0,), None)])]
    while pending:
        for cur, x in pending[-1]:
            if len(pending) > 1:
                chain.append(x)
            if len(cur) < G.n:
                pending.append(children(cur))
                break
            seq = tuple(reversed(chain))
            decode = _normal_forms(G, seq)
            if decode is None:
                raise InternalInvariantError(
                    "chief-chain basis lost normal-form uniqueness")
            yield PcSequence(G, seq, split, decode)
            if chain:
                chain.pop()
        else:
            pending.pop()
            if chain:
                chain.pop()


def composition_bases(G: CayleyGroup):
    """Every candidate center-last composition basis, in the order the
    construction tries them: the first CHIEF_CHAINS chief-chain bases, for
    every group.  Distinct chains give distinct element tuples, so each
    basis comes once."""
    return itertools.islice(chief_chain_sequences(G), CHIEF_CHAINS)


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
    Returns (ok, witness), witness None or a violating (a, b, c, condition).
    The conditions are decided by checking that the translations by the
    memoized generating set ``G.minimal_generators()`` are affine on the
    exponent vectors, which names the witness (``kernels.affine_violation``).
    InternalInvariantError is raised unless its condition, evaluated from
    G.mul, fails there.
    """
    bad = kernels.affine_violation(G.mul, seq.encode, G.minimal_generators())
    if bad is None:
        return (True, None)
    a, b, c, condition = bad
    mul, enc = G.mul, seq.encode
    # translate a*b, a and b by c: on the left for (1), on the right for (2)
    tab, ta, tb = (mul[c][x] if condition == 1 else mul[x][c]
                   for x in (seq.decode[enc[a] ^ enc[b]], a, b))
    if enc[tab] ^ enc[c] == enc[ta] ^ enc[tb]:
        raise InternalInvariantError(
            f"affine-translation check named {bad}, where the condition holds")
    return (False, bad)


def complement_ideal(G: CayleyGroup, seq: PcSequence) -> IdealBasis:
    """Kernel of v -> (parity of support, XOR of encode over support) as a
    canonical GF(2) basis, verified to be a two-sided ideal.

    XOR-sums compose over symmetric differences (g*g = 1), so this kernel
    is exactly the set of even-support vectors whose star-sum is the
    identity; its dimension is |G| - log2|G| - 1.

    The k + 1 constraint rows are reduced once.  Each reduced row is a
    combination of the parity row and the exponent-bit rows, so its entry
    at g is affine in enc g, and so is the column of entries at g: one
    table of 2^k columns, built by doubling from the columns at the
    identity and at the basis elements, gives each kernel row.
    """
    n = G.n
    k = len(seq.elements)
    top = n - 1
    enc, decode = seq.encode, seq.decode
    # constraint rows with column g at bit top - g, which is character g of
    # the row's n-digit binary string: the parity of the support, then one
    # row per exponent bit, a gather of that bit's pattern in exponent
    # order.  Reduced echelon on their lowest bits, they are reduced
    # echelon on their highest columns.
    gather = operator.itemgetter(*enc)
    constraints = _Gf2Basis(n)
    constraints.insert((1 << n) - 1)
    for bit in range(k):
        half = 1 << bit
        pattern = ("0" * half + "1" * half) * (n >> (bit + 1))
        constraints.insert(int("".join(gather(pattern)), 2))
    rows_at = {top - (p.bit_length() - 1): r
               for p, r in constraints.pivots.items()}

    def column(g):
        """The pivot columns whose reduced row has an entry at g."""
        return sum(1 << p for p, r in rows_at.items() if r >> (top - g) & 1)

    table = [column(decode[0])]
    for bit in range(k):
        step = column(decode[1 << bit]) ^ table[0]
        table += [t ^ step for t in table]
    # one kernel vector per free column f: x_f = 1, and every pivot column
    # takes the entry its row has at f.  Each pivot column lies above the
    # free columns of its row, so f is the lowest bit and the only free
    # one: the vectors are already the reduced echelon basis.
    kernel = _Gf2Basis.from_reduced(n, [
        (1 << f) | table[enc[f]] for f in range(n) if f not in rows_at])
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


class Certificate:
    """Verified realization witness: a closed ideal of an ambient group
    ring whose residue-ring unit group is isomorphic to the target group,
    together with the generator-image witness of that isomorphism.  A
    spec is a str or {"gens": [...], "relators": [...]}; ``witness`` maps
    each generator label to an ambient element literal."""

    def __init__(self, group_spec, ambient_spec, m, basis, quotient_size,
                 witness, method, tool_version=__version__):
        self.group_spec = group_spec
        self.ambient_spec = ambient_spec
        self.m = m
        self.basis = basis
        self.quotient_size = quotient_size
        self.witness = witness
        self.method = method
        self.tool_version = tool_version

    def to_dict(self):
        ambient = self.basis.group
        return {
            "group": self.group_spec,
            "ambient": self.ambient_spec,
            "char": 1 << self.m,
            "ideal_basis": [terms_literal(*terms, ambient)
                            for terms in self.basis.row_terms()],
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


def realize_exponent4(G: CayleyGroup) -> Certificate:
    """Full pipeline for exponent <= 4 groups in characteristic 2.

    Composition basis -> exact condition check on its star operation ->
    complement ideal -> residue ring -> natural map.
    The first of ``composition_bases`` that passes the condition check is
    used; when none of the first CHIEF_CHAINS passes, UndecidedError is
    raised, since running out of bases refutes nothing.  By the
    construction's theorem g -> g + I is an isomorphism onto the unit
    group, so that map is the witness.  It is checked on every generator
    edge by ring products (associativity of the ring makes edges suffice,
    locality makes an injective map onto the units); if the check fails,
    or yields any other map, InternalInvariantError is raised.
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
        raise UndecidedError(
            f"no composition basis satisfied the translation conditions "
            f"within the bounded search ({tried} sequences tried); "
            f"the constructive route is exhausted for this group")

    basis = complement_ideal(G, seq)
    ring = quotient_ring(basis)
    if ring.size != 2 * G.n:
        raise InternalInvariantError(
            f"residue ring has {ring.size} elements, expected {2 * G.n}")
    images = [ring.element_index[g] for g in G.gen_indices]
    phi = unit_isomorphism(ring, G, G.gen_indices, images)
    if phi != ring.element_index:
        raise InternalInvariantError(
            "the natural map is not an isomorphism onto the unit group")
    return certificate_from_parts(G, G, 1, basis, ring, images, "star")


def certificate_from_parts(G: CayleyGroup, ambient: CayleyGroup, m,
                           basis, ring: QuotientRing, images,
                           method) -> Certificate:
    """Assemble a certificate from an already-verified pipeline run;
    ``images`` are the residue indices of the images of G's generators."""
    group_spec, ambient_spec = group_spec_of(G), group_spec_of(ambient)
    witness = {name: element_literal(ring.rep(r), ambient)
               for name, r in zip(G.gen_names, images, strict=True)}
    return Certificate(
        group_spec=group_spec,
        ambient_spec=ambient_spec,
        m=m,
        basis=basis,
        quotient_size=ring.size,
        witness=witness,
        method=method,
    )
