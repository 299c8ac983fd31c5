"""Exact arithmetic in Z_{2^m}[G] and its residue rings.

Elements are coefficient vectors mod 2^m indexed by group elements.  Ideals
are kept in a canonical basis: reduced row echelon over GF(2) when m = 1
and Howell normal form over Z_{2^m} otherwise.  Both pack a row into one
Python int, so row operations are word-parallel, and both find the pivots
a vector hits with one AND against a mask, so reducing a vector costs one
row operation per pivot it hits.  A GF(2) row has one bit per group
element.  A Howell row has a 2m-bit field per group element with the
entry in its low m bits: a row operation multiplies a row by a scalar
below 2^m, and the m spare bits hold that product, so no field carries
into the next (``_HowellBasis`` gives the arithmetic and its ``hit``
mask).  Both forms are unique for the span they generate, support exact
membership tests, and make certificates byte-stable.  Howell rows are
back-substituted only when they are read; membership, reduction and
residue radices need only the Howell property, which every insert keeps.
Each basis class owns its vector format: it packs coefficient sequences
into its own vectors, unpacks them, and translates them by group
permutations, so callers never ask which form they hold; ``_make_impl``
alone chooses the class.

Two-sided closure runs a worklist: translations are linear, so only the
vectors that grew the span need translating, each of them once.  Whether
a given span is already two-sided is also decided by its basis class
(``translation_closed``).  A GF(2) basis tests its annihilator under the
standard pairing, read off the reduced rows: the transpose of a translation
is the translation by the inverse, so a subspace and its annihilator are
stable under the same translations, and the annihilator is the smaller of
the two for the ideals of large rank that certificates carry.  A Howell
basis translates its rows and reduces them, the only test over Z_{2^m}.

Residue rings Z_{2^m}[G]/I are products on the canonical representatives
of the quotient module.  A residue index is the mixed-radix number of its
representative, column 0 least significant, so indices are encoded and
decoded by arithmetic and the residues are never listed.  The quotient map
is linear, so multiplication is bilinear on the module generators (the
columns of radix > 1) and fixed by their d x d structure constants
proj(g_a g_b), read off the group table once.  Over GF(2) a residue index
is its own coordinate vector, so products are XORs of structure constants;
over Z_{2^m} the same bilinear sum is Howell-reduced.  No table over the
whole ring is ever built: the unit group's table is evaluated on the units
alone.

The group ring of a 2-group over Z_{2^m} is local: the elements of even
coefficient sum form the unique maximal ideal and everything else is a
unit.  Unit-group extraction from residue rings relies on that; the test
suite checks it against an independent linear-algebra oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    Fuchs2Error,
    ImproperIdealError,
    InternalInvariantError,
    NotAUnitError,
    RingMismatchError,
    SizeCapError,
    UnclosedIdealError,
)
from .groups import CayleyGroup, catalog_group

M_CAP = 6
UNIT_TABLE_CAP = 4096
RESIDUE_CAP = 65536


def _check_m(m):
    if not 1 <= m <= M_CAP:
        raise Fuchs2Error(f"characteristic exponent m={m} outside [1, {M_CAP}]")


@dataclass(frozen=True)
class RingElement:
    """An element of Z_{2^m}[G] as a dense coefficient tuple."""

    group: CayleyGroup
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_m(self.m)
        if len(self.coeffs) != self.group.n:
            raise RingMismatchError("coefficient vector has wrong length")
        mod = 1 << self.m
        if any(not 0 <= c < mod for c in self.coeffs):
            raise RingMismatchError("coefficient out of range")

    @staticmethod
    def zero(group, m):
        return RingElement(group, m, (0,) * group.n)

    @staticmethod
    def one(group, m):
        return RingElement(group, m, (1,) + (0,) * (group.n - 1))

    @staticmethod
    def from_support(group, m, support, coeff=1):
        coeffs = [0] * group.n
        for g in support:
            coeffs[g] = (coeffs[g] + coeff) % (1 << m)
        return RingElement(group, m, tuple(coeffs))

    @staticmethod
    def group_element(group, m, g):
        coeffs = [0] * group.n
        coeffs[g] = 1
        return RingElement(group, m, tuple(coeffs))

    def _match(self, other):
        if self.group is not other.group or self.m != other.m:
            raise RingMismatchError("operands from different group rings")

    def __add__(self, other):
        self._match(other)
        mod = 1 << self.m
        return RingElement(self.group, self.m, tuple(
            (a + b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._match(other)
        mod = 1 << self.m
        return RingElement(self.group, self.m, tuple(
            (a - b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        mod = 1 << self.m
        return RingElement(self.group, self.m,
                           tuple((-a) % mod for a in self.coeffs))

    def __mul__(self, other):
        self._match(other)
        return RingElement(self.group, self.m,
                           convolve(self.group, self.m,
                                    self.coeffs, other.coeffs))

    def support(self):
        return tuple(g for g, c in enumerate(self.coeffs) if c)

    def augmentation(self):
        return sum(self.coeffs) % (1 << self.m)

    def is_unit(self):
        return self.augmentation() % 2 == 1

    def is_zero(self):
        return not any(self.coeffs)

    def inverse(self):
        """Invert via the leading-unit decomposition x = u(1 + nil).

        u is the first odd-coefficient term (a unit scalar times a group
        element); 1 + nil is inverted by the finite geometric series, which
        terminates because the even-sum ideal is nilpotent.  The result is
        verified by multiplication on both sides.
        """
        if not self.is_unit():
            raise NotAUnitError("element has even coefficient sum")
        mod = 1 << self.m
        g = next(i for i, c in enumerate(self.coeffs) if c % 2)
        cinv = pow(self.coeffs[g], -1, mod)
        u_inv = RingElement.from_support(
            self.group, self.m, (self.group.inv[g],), cinv)
        y = u_inv * self
        one = RingElement.one(self.group, self.m)
        nil = y - one
        acc = one
        term = one
        bound = self.m * self.group.n + 2
        for _ in range(bound):
            term = term * (-nil)
            if term.is_zero():
                break
            acc = acc + term
        else:
            raise InternalInvariantError("geometric series did not terminate")
        inv = acc * u_inv
        if (inv * self != one) or (self * inv != one):
            raise InternalInvariantError("computed inverse failed to verify")
        return inv


def convolve(group, m, a, b):
    mod = 1 << m
    out = [0] * group.n
    mul = group.mul
    for g, cg in enumerate(a):
        if cg:
            row = mul[g]
            for h, ch in enumerate(b):
                if ch:
                    k = row[h]
                    out[k] = (out[k] + cg * ch) % mod
    return tuple(out)


# -- canonical bases ----------------------------------------------------------


class _Gf2Basis:
    """Reduced row echelon basis over GF(2), rows packed into ints.

    Bit g of a row is the coefficient at group element g and a row's pivot
    is its lowest set bit.  Every pivot column is cleared in all other rows,
    so the row set is unique for the span; ``rows`` lists it sorted by
    pivot.  Rows are indexed by pivot bit and ``mask`` is the OR of the
    pivot bits.  Since no row has a bit at another row's pivot, adding a
    row flips only its own pivot among the pivot bits, so ``reduce(v)``
    adds exactly the rows whose pivot bit is set in v: its cost is the
    number of those bits, not the rank.
    """

    def __init__(self, n):
        self.n = n
        self.pivots = {}  # pivot bit -> row
        self.mask = 0

    def copy(self):
        dup = _Gf2Basis(self.n)
        dup.pivots = dict(self.pivots)
        dup.mask = self.mask
        return dup

    @staticmethod
    def from_reduced(n, rows):
        """The basis whose rows are ``rows``, already in reduced echelon
        form: each row's lowest bit is its pivot and no row has a bit at
        another row's pivot.  Raises InternalInvariantError otherwise."""
        basis = _Gf2Basis(n)
        for row in rows:
            basis.pivots[row & -row] = row
        basis.mask = sum(basis.pivots)
        if len(basis.pivots) != len(rows) or any(
                row == 0 or row & basis.mask != row & -row for row in rows):
            raise InternalInvariantError("rows are not in reduced echelon form")
        return basis

    @staticmethod
    def pack(coeffs):
        """The packed vector of a coefficient sequence, read mod 2."""
        v = 0
        for g, c in enumerate(coeffs):
            if c & 1:
                v |= 1 << g
        return v

    def unpack(self, v):
        return tuple((v >> g) & 1 for g in range(self.n))

    @staticmethod
    def translate(v, perm):
        """The vector with bit perm[g] set for every bit g set in v."""
        out = 0
        while v:
            low = v & -v
            out |= 1 << perm[low.bit_length() - 1]
            v ^= low
        return out

    @staticmethod
    def string_translation(n, perm):
        """``translate`` by perm as a function, for dense vectors: bit g is
        character n-1-g of a vector's binary string, so a translate is one
        C-level gather on that string, whatever the number of set bits."""
        source = [0] * n
        for g, h in enumerate(perm):
            source[n - 1 - h] = n - 1 - g
        gather = operator.itemgetter(*source)
        width = f"0{n}b"
        return lambda v: int("".join(gather(format(v, width))), 2)

    @property
    def rows(self):
        return [self.pivots[p] for p in sorted(self.pivots)]

    def reduce(self, v):
        pivots = self.pivots
        hit = v & self.mask
        while hit:
            p = hit & -hit
            v ^= pivots[p]
            hit ^= p
        return v

    def insert(self, v):
        """Add v to the span; True if the span grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v & -v
        pivots = self.pivots
        for q, r in pivots.items():
            if r & p:
                pivots[q] = r ^ v
        pivots[p] = v
        self.mask |= p
        return True

    def contains(self, v):
        return self.reduce(v) == 0

    def rank(self):
        return len(self.pivots)

    def span_size(self):
        return 1 << len(self.pivots)

    def pivot_radices(self):
        """Per-column residue counts for canonical representatives."""
        radix = [2] * self.n
        for p in self.pivots:
            radix[p.bit_length() - 1] = 1
        return radix

    def annihilator(self):
        """A basis of the span's annihilator under the standard pairing,
        keyed by free bit: for each free column f, e_f plus e_p for every
        pivot p whose row has bit f.  It pairs to zero with every row (row
        p meets it at f and at p alone), has f as its only free bit, and
        there are n - rank of them, the annihilator's dimension."""
        pivots = self.pivots.items()
        free = ((1 << self.n) - 1) ^ self.mask
        ann = {}
        while free:
            f = free & -free
            ann[f] = f | sum(p for p, row in pivots if row & f)
            free ^= f
        return ann

    def translation_closed(self, perms):
        """True if the span is stable under every permutation in perms.

        Decided on the annihilator, which has n - rank vectors instead of
        rank rows.  A subspace stable under the permutations is stable
        under the finite group they generate, and the transpose of a
        permutation is its inverse, which lies in that group; so a
        subspace is stable exactly when its annihilator is.  A
        translate lies in the annihilator when clearing its free bits with
        the annihilator vectors (each has one free bit) leaves zero.
        Annihilator vectors are dense, so they are translated by
        ``string_translation``.
        """
        ann = self.annihilator()
        free = ((1 << self.n) - 1) ^ self.mask
        for perm in perms:
            translate = self.string_translation(self.n, perm)
            for a in ann.values():
                t = translate(a)
                hit = t & free
                while hit:
                    f = hit & -hit
                    t ^= ann[f]
                    hit ^= f
                if t:
                    return False
        return True


class _HowellBasis:
    """Howell form over Z_{2^m}, rows packed into ints: unique canonical
    rows, exact membership, and canonical coset representatives via
    reduce().

    A vector is one int with a field of w = 2m bits per group element:
    the entry at g, in [0, 2^m), sits in the low m bits of bits
    [g*w, (g+1)*w).  ``low`` is 2^m - 1 in every field and ``add`` is 2^m
    in every field.  A row operation v - q*row (q < 2^m) is
    ``(v + add - ((q * row) & low)) & low``: q * row_g < 2^(2m) fits its
    field, and v_g + 2^m - t_g lies in [1, 2^(m+1)), so no field carries
    into or borrows from the next.  Unit scaling is ``(v * u) & low`` and
    the annihilator 2^(m-k)*v is ``(v << (m-k)) & low``.

    The row at pivot column c has leading entry 2^k.  ``hit`` holds bits
    k..m-1 of field c for each pivot: v & hit is nonzero in field c
    exactly when v_c >= 2^k, i.e. when the row at c must be subtracted.
    So ``reduce(v)`` visits only those pivots, lowest first, as
    ``_Gf2Basis.reduce`` does; a reduced vector's lowest set bit names its
    leading column and, by its offset in the field, the valuation k.

    Inserts keep the Howell property (a span vector that is zero before
    column c is a combination of the rows with pivot >= c), which is all
    that ``reduce``, ``contains``, ``span_size`` and ``pivot_radices``
    need.  Back-substitution, which makes the rows unique for their span,
    runs only when ``rows`` is read.
    """

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.mod = 1 << m
        self.width = w = 2 * m
        self.low = sum((self.mod - 1) << (g * w) for g in range(n))
        self.add = sum(self.mod << (g * w) for g in range(n))
        self.pivots = {}  # col -> (k, row) with entry 2^k at col
        self.hit = 0
        self.substituted = True

    def copy(self):
        dup = _HowellBasis.__new__(_HowellBasis)
        dup.__dict__.update(self.__dict__)
        dup.pivots = dict(self.pivots)
        return dup

    def pack(self, coeffs):
        """The packed vector of a coefficient sequence, read mod 2^m."""
        w, mask = self.width, self.mod - 1
        v = 0
        for g, c in enumerate(coeffs):
            v |= (c & mask) << (g * w)
        return v

    def unpack(self, v):
        w, mask = self.width, self.mod - 1
        return tuple((v >> (g * w)) & mask for g in range(self.n))

    def translate(self, v, perm):
        """The vector with entry v_g in field perm[g] for every g."""
        w, mask = self.width, self.mod - 1
        out = 0
        while v:
            g = ((v & -v).bit_length() - 1) // w
            c = (v >> (g * w)) & mask
            out |= c << (perm[g] * w)
            v ^= c << (g * w)
        return out

    def _hit_bits(self, col, k):
        """Bits k..m-1 of field col."""
        return ((self.mod - 1) >> k << k) << (col * self.width)

    @property
    def rows(self):
        """The rows sorted by pivot, each reduced at every later pivot."""
        pivots = self.pivots
        if not self.substituted:
            for col in sorted(pivots):
                # the row's own hit bits are dropped while it is reduced,
                # so it is reduced by the others only
                k, row = pivots[col]
                bits = self._hit_bits(col, k)
                self.hit ^= bits
                pivots[col] = (k, self.reduce(row))
                self.hit ^= bits
            self.substituted = True
        return [pivots[c][1] for c in sorted(pivots)]

    def insert(self, v):
        """Add v to the span; True if the span grew.

        A worklist: each vector is reduced, scaled so its leading entry is
        2^k, and placed as the row at that column.  The row it displaces,
        and its annihilator 2^(m-k)*v, go back on the worklist."""
        m, w, low, pivots = self.m, self.width, self.low, self.pivots
        grew = False
        work = [v]
        while work:
            v = self.reduce(work.pop())
            if not v:
                continue
            col, k = divmod((v & -v).bit_length() - 1, w)
            unit = pow((v >> (col * w + k)) & ((self.mod - 1) >> k), -1,
                       self.mod)
            if unit != 1:
                v = (v * unit) & low
            if col in pivots:
                work.append(pivots[col][1])
            pivots[col] = (k, v)
            # v was reduced at col, so k is below a displaced row's and
            # the new bits cover the old ones
            self.hit |= self._hit_bits(col, k)
            if k:
                work.append((v << (m - k)) & low)
            grew = True
            self.substituted = False
        return grew

    def reduce(self, v):
        w, low, add, hit, pivots = (self.width, self.low, self.add,
                                     self.hit, self.pivots)
        h = v & hit
        while h:
            col = ((h & -h).bit_length() - 1) // w
            k, row = pivots[col]
            q = (v >> (col * w + k)) & ((self.mod - 1) >> k)
            # fields below col are untouched and field col drops below 2^k,
            # so the next hit lies above col
            v = (v + add - ((q * row) & low)) & low
            h = v & hit
        return v

    def contains(self, v):
        return self.reduce(v) == 0

    def rank(self):
        return len(self.pivots)

    def span_size(self):
        size = 1
        for k, _ in self.pivots.values():
            size *= 1 << (self.m - k)
        return size

    def pivot_radices(self):
        radix = [self.mod] * self.n
        for col, (k, _) in self.pivots.items():
            radix[col] = 1 << k
        return radix

    def translation_closed(self, perms):
        """True if the span is stable under every permutation in perms:
        each row's translates are reduced to zero."""
        return all(self.contains(self.translate(row, perm))
                   for row in self.rows for perm in perms)


def _make_impl(group, m, vectors):
    """The canonical basis of the span of ``vectors``: bit-packed GF(2)
    rows when m = 1, Howell rows otherwise."""
    impl = _Gf2Basis(group.n) if m == 1 else _HowellBasis(group.n, m)
    for v in vectors:
        impl.insert(impl.pack(v))
    return impl


class IdealBasis:
    """Canonical basis of a (candidate) two-sided ideal of Z_{2^m}[G].

    ``rows`` is the unique echelon/Howell basis of the additive span;
    ``closed`` is set only after two-sided closure has been verified.  A
    closed basis never contains 1 (such closures are rejected as improper).
    """

    def __init__(self, group, m, impl, closed=False):
        self.group = group
        self.m = m
        self._impl = impl
        self.closed = closed

    @staticmethod
    def zero(group, m):
        _check_m(m)
        return IdealBasis(group, m, _make_impl(group, m, []), closed=True)

    @staticmethod
    def from_vectors(group, m, vectors, closed=False):
        _check_m(m)
        return IdealBasis(group, m, _make_impl(group, m, vectors),
                          closed=closed)

    @staticmethod
    def from_canonical_rows(group, m, rows):
        """The basis spanned by ``rows`` when they are exactly its canonical
        rows, in order, else None; each row is packed once."""
        basis = IdealBasis.from_vectors(group, m, ())
        packed = [basis._impl.pack(r) for r in rows]
        for v in packed:
            basis._impl.insert(v)
        return basis if basis.key() == tuple(packed) else None

    @property
    def rows(self):
        return [self._impl.unpack(r) for r in self._impl.rows]

    def rank(self):
        return self._impl.rank()

    def span_size(self):
        return self._impl.span_size()

    def contains(self, coeffs):
        return self._impl.contains(self._impl.pack(coeffs))

    def reduce(self, coeffs):
        """Canonical representative of coeffs modulo the span."""
        impl = self._impl
        return impl.unpack(impl.reduce(impl.pack(coeffs)))

    def contains_one(self):
        one = (1,) + (0,) * (self.group.n - 1)
        return self.contains(one)

    def key(self):
        """Hashable canonical form of the rows: equal keys, equal spans."""
        return tuple(self._impl.rows)


def _translations(group):
    """Left/right index permutations by a fixed minimal generating set.
    A span closed under these is closed under translation by every group
    element on both sides, because the generators generate."""
    gens = group.minimal_generators()
    left = [group.mul[g] for g in gens]
    right = [[group.mul[h][g] for h in range(group.n)] for g in gens]
    return list(left) + list(right)


def ideal_closure(gens) -> IdealBasis:
    """Smallest two-sided ideal containing ``gens``, in canonical form.

    Translations are linear, so a span is closed once the vectors spanning
    it are.  A worklist starts with the generators; each popped vector is
    translated by the generator permutations, and a translate is queued
    only when inserting it grew the span.  Every queued vector is thus
    translated once, and the span of the queued vectors is the ideal.
    Raises ImproperIdealError if the closure reaches the whole ring.
    """
    if not gens:
        raise Fuchs2Error("ideal_closure needs at least one generator")
    group, m = gens[0].group, gens[0].m
    for x in gens:
        gens[0]._match(x)
    perms = _translations(group)
    impl = _make_impl(group, m, [])
    work = [v for v in (impl.pack(x.coeffs) for x in gens) if impl.insert(v)]
    while work:
        v = work.pop()
        for perm in perms:
            t = impl.translate(v, perm)
            if impl.insert(t):
                work.append(t)
    basis = IdealBasis(group, m, impl, closed=True)
    if basis.contains_one():
        raise ImproperIdealError("closure reached the whole ring")
    return basis


def ideal_sum(a: IdealBasis, b: IdealBasis) -> IdealBasis:
    """Canonical basis of the span a + b: the rows of the smaller basis
    inserted into a copy of the larger one (echelon insertion over GF(2),
    Howell insertion over Z_{2^m}).

    A sum of two-sided ideals is a two-sided ideal, so the sum is closed
    when both inputs are; a closed sum that reaches 1 raises
    ImproperIdealError, as ideal_closure does.
    """
    if a.group is not b.group or a.m != b.m:
        raise RingMismatchError("ideals from different group rings")
    if a.span_size() < b.span_size():
        a, b = b, a
    impl = a._impl.copy()
    for row in b._impl.rows:
        impl.insert(row)
    basis = IdealBasis(a.group, a.m, impl, closed=a.closed and b.closed)
    if basis.closed and basis.contains_one():
        raise ImproperIdealError("sum reached the whole ring")
    return basis


def verify_two_sided(basis: IdealBasis) -> bool:
    """Check that the span of the basis rows is a two-sided ideal without
    extending it: the span is stable under left and right translation by a
    generating set.  The basis class decides that on its own vectors: over
    GF(2) on the annihilator read off the rows (log2|G| + 1 vectors for a
    star complement instead of |G| - log2|G| - 1 rows), over Z_{2^m} on
    the translates of the Howell rows."""
    return basis._impl.translation_closed(_translations(basis.group))


# -- quotient rings -----------------------------------------------------------


class QuotientRing:
    """Z_{2^m}[G]/I on canonical residue representatives.

    Representatives are the vectors whose entry at each pivot column is
    below the pivot value (free columns unrestricted).  The columns of
    radix > 1 are the residue module generators g_0..g_{d-1}, and the
    representative of residue i is sum_a c_a(i) g_a, where the c_a(i) are
    the mixed-radix digits of i, column 0 least significant: a residue
    index is the mixed-radix number of its representative.  ``digits`` and
    ``rep`` decode an index and ``project`` encodes one; no list of the
    residues is built.  ``element_index[g]`` is the residue index of g + I,
    kept from building the structure constants.

    The quotient map is linear, so multiplication is bilinear on the
    generators and fixed by the d x d structure constants
    T[a][b] = proj(g_a g_b), read off the group table once.  No table over
    the ring is built: ``products`` evaluates the bilinear form on the
    pairs a caller asks for, and ``mul_index`` / ``add_index`` answer single
    pairs on demand.
    """

    def __init__(self, ideal: IdealBasis):
        if not ideal.closed:
            raise UnclosedIdealError("quotient of an unverified ideal basis")
        if ideal.contains_one():
            raise ImproperIdealError("quotient by the whole ring")
        self.group = ideal.group
        self.m = ideal.m
        self.mod = 1 << ideal.m
        self.ideal = ideal
        n = self.group.n
        total = (1 << (self.m * n)) // ideal.span_size()
        if total > RESIDUE_CAP:
            raise SizeCapError(
                f"quotient has {total} residues (> {RESIDUE_CAP})")
        self.size = total
        impl = ideal._impl
        radix = impl.pivot_radices()
        self._place = []  # place value of each column in a residue index
        place = 1
        for r in radix:
            self._place.append(place)
            place *= r
        if place != total:
            raise InternalInvariantError(
                f"residue radices multiply to {place}, not {total}")
        self.gens = [g for g in range(n) if radix[g] > 1]
        self._radix = [radix[g] for g in self.gens]
        # proj(g) for every group element: a residue index over GF(2), where
        # residue index bit t is the coefficient at generator t, so indices
        # add by XOR; otherwise the reduced representative itself
        if self.m == 1:
            proj = [_xor_bits(self._place, impl.reduce(1 << g))
                    for g in range(n)]
            self.element_index = proj
        else:
            proj = [ideal.reduce(tuple(int(g == h) for h in range(n)))
                    for g in range(n)]
            self.element_index = [
                sum(p * c for p, c in zip(self._place, v)) for v in proj]
        self.one_index = self.element_index[0]
        mul = self.group.mul
        self._sc = [[proj[mul[a][b]] for b in self.gens] for a in self.gens]

    def products(self, rows, cols):
        """Residue indices of r * c for r in rows, c in cols, as a
        len(rows) x len(cols) table, from the structure constants.  Rows
        of a repeated residue may be one shared list."""
        if self.m == 1:
            return self._gf2_products(rows, cols)
        return self._howell_products(rows, cols)

    def _gf2_products(self, rows, cols):
        # R[a][k] = proj(g_a * rep(cols[k])) is the XOR of T[a][b] over the
        # set bits b of cols[k]; the products of residue i with every column
        # follow from the subset recurrence row(i) = row(i ^ low) ^ R[low].
        R = [[_xor_bits(Ta, j) for j in cols] for Ta in self._sc]
        memo = {0: [0] * len(cols)}

        def row(i):
            r = memo.get(i)
            if r is None:
                low = i & -i
                r = memo[i] = [x ^ y for x, y in
                               zip(row(i ^ low), R[low.bit_length() - 1])]
            return r

        return [row(i) for i in rows]

    def _howell_products(self, rows, cols):
        # The same bilinear form on mixed-radix digits; sums of reduced
        # constants can overflow at pivot columns, so each product is
        # Howell-reduced by project().
        R = [[_combine(Ta, self.digits(j)) for j in cols] for Ta in self._sc]
        table = []
        for i in rows:
            ci = self.digits(i)
            table.append([self.project(_combine([Ra[k] for Ra in R], ci))
                          for k in range(len(cols))])
        return table

    def mul_index(self, i, j):
        return self.products([i], [j])[0][0]

    def add_index(self, i, j):
        return self.project([x + y for x, y in zip(self.rep(i), self.rep(j))])

    def project(self, coeffs):
        """Residue index of an ambient coefficient vector."""
        return sum(p * c for p, c in
                   zip(self._place, self.ideal.reduce(coeffs)))

    def digits(self, i):
        """The mixed-radix digits c_a(i) of residue index i."""
        out = []
        for r in self._radix:
            i, d = divmod(i, r)
            out.append(d)
        return out

    def rep(self, i):
        """The canonical representative of residue i."""
        coeffs = [0] * self.group.n
        for g, c in zip(self.gens, self.digits(i)):
            coeffs[g] = c
        return tuple(coeffs)

    def augmentation_index(self, i):
        return sum(self.digits(i)) % self.mod


def _xor_bits(values, mask):
    """XOR of values[b] over the set bits b of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc


def _combine(vectors, coeffs):
    """sum_b coeffs[b] * vectors[b], entries left unreduced."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            out = [x + c * y for x, y in zip(out, v)]
    return out


def quotient_ring(ideal: IdealBasis) -> QuotientRing:
    return QuotientRing(ideal)


@dataclass
class UnitGroup:
    """Cayley table on the units of a residue ring, identity first, plus
    the residue index of each unit and its inverse map ``position``
    (residue index -> unit index; non-units are absent)."""

    group: CayleyGroup
    residue_index: list[int]
    position: dict[int, int]
    ring: QuotientRing


def unit_group(ring) -> UnitGroup:
    """Unit group of a QuotientRing (or of Z_{2^m}[G] via the zero ideal).

    Residue rings of Z_{2^m}[G] inside the even-sum maximal ideal are
    local, so the units are exactly the odd-augmentation residues.  Their
    multiplication table comes straight from the ring's structure
    constants; it is checked closed and verified to be a group.

    The residue field is GF(2), so there are exactly size/2 units: the cap
    is checked before any residue is scanned.
    """
    if not isinstance(ring, QuotientRing):
        raise Fuchs2Error("unit_group expects a QuotientRing")
    if ring.size // 2 > UNIT_TABLE_CAP:
        raise SizeCapError(
            f"unit group of size {ring.size // 2} exceeds table cap")
    units = [i for i in range(ring.size)
             if ring.augmentation_index(i) % 2 == 1]
    if len(units) != ring.size // 2:
        raise InternalInvariantError("residue ring is not local")
    if ring.one_index not in units:
        raise InternalInvariantError("1 has even augmentation")
    units.remove(ring.one_index)
    units.insert(0, ring.one_index)
    pos = {r: k for k, r in enumerate(units)}
    table = []
    for row in ring.products(units, units):
        try:
            table.append([pos[p] for p in row])
        except KeyError:
            raise InternalInvariantError("units are not closed") from None
    G = CayleyGroup(table, name="units", check=True)
    return UnitGroup(group=G, residue_index=units, position=pos, ring=ring)


def full_group_ring(group, m) -> QuotientRing:
    """Z_{2^m}[G] itself, as the quotient by the zero ideal."""
    return quotient_ring(IdealBasis.zero(group, m))


# -- the two scalar lemma checks ---------------------------------------------


def cyclic_quotient_order(N: int, k: int) -> int:
    """Multiplicative order of t in Z_2[C_{2^N}] / <1 + t + t^2 + t^k>.

    This realizes the binomial-relation quotient as a group-ring residue
    ring.  k must be odd with 1 <= k < 2^N; the order divides 2 when
    k = 1 mod 4 and divides 4 when k = 3 mod 4.
    """
    if not 2 <= N <= M_CAP:
        raise Fuchs2Error(f"N={N} outside [2, {M_CAP}]")
    if k % 2 == 0 or not 1 <= k < (1 << N):
        raise Fuchs2Error(f"k={k} must be odd in [1, 2^{N})")
    G = catalog_group("C", 1 << N)
    coeffs = [0] * G.n
    for e in (0, 1, 2, k):
        coeffs[e % G.n] ^= 1
    gen = RingElement(G, 1, tuple(coeffs))
    q = quotient_ring(ideal_closure([gen]))
    t = q.element_index[1]
    order = 1
    r = t
    while r != q.one_index:
        r = q.mul_index(r, t)
        order += 1
        if order > G.n:
            raise InternalInvariantError("order exceeded group order")
    return order


def scalar_unit_identity_check(m: int) -> bool:
    """Verify (1 + 2t)^(2^(m-1)) == 1 in Z_{2^m}[t] with t a genuine
    indeterminate: computed in Z_{2^m}[C_{2^j}] with 2^j > 2^(m-1) so no
    exponent wraps around."""
    if not 2 <= m <= M_CAP:
        raise Fuchs2Error(f"m={m} outside [2, {M_CAP}]")
    G = catalog_group("C", 1 << m)
    coeffs = [0] * G.n
    coeffs[0] = 1
    coeffs[1] = 2
    x = RingElement(G, m, tuple(coeffs))
    for _ in range(m - 1):
        x = x * x
    return x == RingElement.one(G, m)
