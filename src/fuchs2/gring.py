"""Exact arithmetic in Z_{2^m}[G] and its residue rings.

Elements are plain coefficient tuples mod 2^m indexed by group elements,
the one element form: closures take them, residue rings read and write
them, and ``convolve`` multiplies two.  Ideals are kept in a canonical
basis: reduced row echelon over GF(2) when m = 1 and Howell normal form
over Z_{2^m} otherwise.  Both pack a row into one Python int, so row
operations are word-parallel, and both find the pivots
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
Each basis class encodes its vector format in ``pack_terms`` alone, from
the sparse terms (support, coefficients) literals are read into; ``pack``
reads a dense sequence through it, ``translate`` makes moved copies, and
callers never ask which form they hold (``_make_impl`` chooses).
Certificate rows are written and read as sparse terms of the packed row
(``terms``, ``pack_terms``), with no dense vector between.

Two-sided closure packs each generator once, spans its left translates
along the rows of the group table, and closes that left ideal under right
translation by the non-central generators with a worklist: translations
are linear, so only the vectors that grew the span need translating, each
of them once, and over an abelian group no worklist runs.  The powers of
the maximal ideal M = (2, D), D the augmentation ideal, are spanned by
the doubles and the left translates of the previous power's rows
(``maximal_ideal_powers``); both basis classes add and double packed
vectors (``plus``, ``doubled``) for that and for the ideal walk of
``search``.  Whether a given span is already two-sided is also
decided by its basis class (``translation_closed``): over GF(2) as
linearity on the columns of its annihilator, one table of 2^a images per
permutation for an annihilator of dimension a, and over Z_{2^m} on the
translates of the Howell rows.

Residue rings Z_{2^m}[G]/I are products on the canonical representatives
of the quotient module, indexed by mixed-radix numbers and multiplied by
d x d structure constants (``QuotientRing``).  Over GF(2) a residue index
is its own coordinate vector, so products are XORs of structure constants;
at m >= 2 residues and constants are packed reduced Howell ints, and a
product, a sum of terms c*T masked mod 2^m, is Howell-reduced once.  No
table over the whole ring is built: the unit group's table is evaluated
on the units alone, and a generator map into the units is checked on the
generator edges of its group alone (``unit_isomorphism``).

The group ring of a 2-group over Z_{2^m} is local: the elements of even
coefficient sum form the unique maximal ideal and everything else is a
unit.  Unit-group extraction from residue rings relies on that; the test
suite checks it against an independent linear-algebra oracle.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (
    Fuchs2Error,
    ImproperIdealError,
    InternalInvariantError,
    RingMismatchError,
    SizeCapError,
    UnclosedIdealError,
)
from .groups import CayleyGroup, catalog_group, memoized

M_CAP = 6
UNIT_TABLE_CAP = 4096
RESIDUE_CAP = 65536
# a GF(2) two-sided check builds tables of 2^a entries for an annihilator
# of dimension a up to this, as many as a residue ring of RESIDUE_CAP has
TABLE_BITS = RESIDUE_CAP.bit_length() - 1


# bytes of binary digits -> bytes of bit values
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _check_m(m):
    if not 1 <= m <= M_CAP:
        raise Fuchs2Error(f"characteristic exponent m={m} outside [1, {M_CAP}]")


def convolve(group, m, a, b):
    """The product a*b in Z_{2^m}[G] of two coefficient vectors."""
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

    width = 1  # bits per group element

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
        form and sorted by pivot: each row's lowest bit is its pivot and no
        row has a bit at another row's pivot.  Raises
        InternalInvariantError otherwise."""
        basis = _Gf2Basis(n)
        if not basis.load_canonical(rows):
            raise InternalInvariantError("rows are not in reduced echelon form")
        return basis

    def load_canonical(self, rows):
        """Make this empty basis the span of ``rows`` when they are exactly
        its canonical rows, in order, and say whether they are: reduced
        echelon rows sorted by pivot are the unique ones of their span, so
        no row is inserted."""
        pivots = self.pivots
        for row in rows:
            pivots[row & -row] = row
        self.mask = sum(pivots)
        return (len(pivots) == len(rows) and self.rows == rows
                and all(row and row & self.mask == row & -row
                        for row in rows))

    def pack(self, coeffs):
        """The packed vector of a coefficient sequence, read mod 2."""
        return self.pack_terms(range(len(coeffs)), coeffs)

    @staticmethod
    def pack_terms(support, coeffs):
        """The packed vector of the sparse terms c*g, for g in ``support``
        and c in ``coeffs``, read mod 2; a repeated g adds."""
        v = 0
        for g, c in zip(support, coeffs):
            if c & 1:
                v ^= 1 << g
        return v

    def unpack(self, v):
        return tuple(format(v, f"0{self.n}b")[::-1].encode()
                     .translate(_BIT_VALUES))

    @staticmethod
    def terms(v):
        """The sparse terms of v, (support, coefficients): its set bits in
        increasing order, each with coefficient 1."""
        support = list(itertools.compress(
            itertools.count(), bin(v)[:1:-1].encode().translate(_BIT_VALUES)))
        return support, [1] * len(support)

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
    def plus(a, b):
        """The packed sum a + b."""
        return a ^ b

    @staticmethod
    def doubled(v):
        """The packed 2v: zero over GF(2)."""
        return 0

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

    def translation_closed(self, perms):
        """True if the span is stable under every permutation in perms.

        Decided on the annihilator A, the vectors that pair to zero with
        every row, when its dimension a = n - rank is at most
        ``TABLE_BITS``, else on the rows (``_rows_translation_closed``).
        A has one basis vector per free column f, e_f plus e_p for every
        pivot p whose row has bit f, so its column at a free element is a
        unit vector and at a pivot element p it is the free bits of row p;
        ``col[g]`` holds that column as an a-bit index.  The span is the
        set of v whose columns col[g], over the bits g of v, sum to zero,
        and the translate Pv lies in it when the col[P g] sum to zero.  So
        the span is stable under P exactly when every linear relation
        among the col[g] holds among the col[P g], that is when
        col[P g] = L(col[g]) for a linear map L.  L is fixed by its values
        at the free elements, where col[g] is a unit vector: one table of
        its 2^a values, built by doubling, and one comparison of n entries
        decide each permutation.  At the free elements the comparison
        holds by the table's construction, so the pivot elements decide.
        """
        n = self.n
        free = ((1 << n) - 1) ^ self.mask
        if n - len(self.pivots) > TABLE_BITS:
            return _rows_translation_closed(self, perms)
        # spots[j] is the j-th free element; index maps a vector on the
        # free bits to its a-bit index, bit j for spots[j]
        spots, keys = [], [0]
        while free:
            f = free & -free
            spots.append(f.bit_length() - 1)
            keys += [key | f for key in keys]
            free ^= f
        index = dict(zip(keys, range(len(keys))))
        col = [0] * n
        for j, f in enumerate(spots):
            col[f] = 1 << j
        for p, row in self.pivots.items():
            col[p.bit_length() - 1] = index[row ^ p]
        at_col = operator.itemgetter(*col)
        for perm in perms:
            table = [0]
            for f in spots:
                image = col[perm[f]]
                table += [t ^ image for t in table]
            if at_col(table) != operator.itemgetter(*perm)(col):
                return False
        return True


def _rows_translation_closed(impl, perms):
    """True if every translate of every row of ``impl`` by every
    permutation in perms lies in the span."""
    return all(impl.contains(impl.translate(row, perm))
               for row in impl.rows for perm in perms)


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
        # 1 at the bottom of every field: the sum of 2^(g*w) over g < n,
        # a geometric series
        ones = ((1 << (n * w)) - 1) // ((1 << w) - 1)
        self.low = (self.mod - 1) * ones
        self.add = self.mod * ones
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
        return self.pack_terms(range(len(coeffs)), coeffs)

    def pack_terms(self, support, coeffs):
        """The packed vector of the sparse terms c*g, for g in ``support``
        and c in ``coeffs``, read mod 2^m; a repeated g adds (``plus``)."""
        w, mask, low = self.width, self.mod - 1, self.low
        v = 0
        for g, c in zip(support, coeffs):
            v = (v + ((c & mask) << (g * w))) & low
        return v

    def unpack(self, v):
        w, mask = self.width, self.mod - 1
        return tuple((v >> (g * w)) & mask for g in range(self.n))

    def terms(self, v):
        """The sparse terms of v, (support, coefficients): its nonzero
        fields in increasing order, each with its entry."""
        w, mask = self.width, self.mod - 1
        support, coeffs = [], []
        while v:
            g = ((v & -v).bit_length() - 1) // w
            c = (v >> (g * w)) & mask
            support.append(g)
            coeffs.append(c)
            v ^= c << (g * w)
        return support, coeffs

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

    def plus(self, a, b):
        """The packed sum a + b: each field's sum is below 2^(m+1), so it
        fits its field and is reduced mod 2^m by the mask."""
        return (a + b) & self.low

    def doubled(self, v):
        """The packed 2v."""
        return (v << 1) & self.low

    def load_canonical(self, rows):
        """Make this empty basis the span of ``rows`` and say whether they
        are exactly its canonical rows, in order."""
        for v in rows:
            self.insert(v)
        return self.rows == rows

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
            lead = (v >> (col * w + k)) & ((self.mod - 1) >> k)
            if lead != 1:
                v = (v * pow(lead, -1, self.mod)) & low
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
        w, low, add, hit, pivots, mask = (self.width, self.low, self.add,
                                           self.hit, self.pivots,
                                           self.mod - 1)
        h = v & hit
        while h:
            col = ((h & -h).bit_length() - 1) // w
            k, row = pivots[col]
            q = (v >> (col * w + k)) & (mask >> k)
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
        each row's translates are reduced to zero, the only test over
        Z_{2^m} (``_rows_translation_closed``)."""
        return _rows_translation_closed(self, perms)


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
        """The basis spanned by ``rows``, each a pair (support,
        coefficients) of sparse terms, when they are exactly its canonical
        rows, in order, else None.  Each row is packed straight from its
        terms, once, and the basis class decides canonicity."""
        _check_m(m)
        impl = _make_impl(group, m, ())
        packed = [impl.pack_terms(*row) for row in rows]
        return IdealBasis(group, m, impl) if impl.load_canonical(packed) \
            else None

    @property
    def rows(self):
        return [self._impl.unpack(r) for r in self._impl.rows]

    def row_terms(self):
        """The canonical rows as sparse terms, (support, coefficients)
        pairs, read off the packed rows without a dense vector."""
        return [self._impl.terms(r) for r in self._impl.rows]

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
        return self._impl.contains(1)  # 1 packs to 1 in both forms

    def key(self):
        """Hashable canonical form of the rows: equal keys, equal spans."""
        return tuple(self._impl.rows)


def _sides(group, t):
    """The left translation by t, then the right one only where it differs:
    R_t = L_t exactly when t is central."""
    left = group.mul[t]
    right = [row[t] for row in group.mul]
    return (left,) if right == left else (left, right)


@memoized
def _translations(group):
    """Index permutations by a fixed minimal generating set: for each
    generator, its left translation and, when the generator is not central,
    its right one (``_sides``).  A span closed under these is closed under
    translation by every group element on both sides, because the
    generators generate.  On an abelian group that is d permutations
    instead of 2d, and no permutation appears twice."""
    return [p for g in group.minimal_generators() for p in _sides(group, g)]


def _close(group, impl, gens):
    """Close the span in ``impl`` of the left translates of the packed
    vectors ``gens`` under right translation by the non-central minimal
    generators: the one closure worklist (see ``ideal_closure``)."""
    mul = group.mul
    # a left translation is the group's own row (``_sides``)
    rights = [p for p in _translations(group) if p is not mul[p[0]]]
    work = []
    for x in gens:
        for row in mul:
            v = impl.translate(x, row)
            if impl.insert(v) and rights:
                work.append(v)
    while work:
        v = work.pop()
        for perm in rights:
            t = impl.translate(v, perm)
            if impl.insert(t):
                work.append(t)


def ideal_closure(group, m, gens) -> IdealBasis:
    """Smallest two-sided ideal of Z_{2^m}[G] containing ``gens``, each a
    coefficient sequence indexed by the elements of ``group``, in canonical
    form.  Raises RingMismatchError for a generator of the wrong length or
    with a coefficient outside [0, 2^m), and Fuchs2Error for m outside
    [1, M_CAP] or no generator.

    The left ideal generated by x is spanned by its n left translates g*x,
    each x packed once and moved along the row mul[g].  Right translations
    commute with left ones, so they map a left ideal to a left ideal, and
    the two-sided ideal is the left ideal of ``gens`` closed under right
    translation by a generating set.  R_g = L_g for central g, so only
    the non-central minimal generators are needed (``_sides``): over an
    abelian group the left ideal is the ideal and no worklist runs.
    Raises ImproperIdealError if the closure reaches the whole ring.
    """
    _check_m(m)
    if not gens:
        raise Fuchs2Error("ideal_closure needs at least one generator")
    n, mod = group.n, 1 << m
    for x in gens:
        if len(x) != n:
            raise RingMismatchError("coefficient vector has wrong length")
        if not all(0 <= c < mod for c in x):
            raise RingMismatchError("coefficient out of range")
    impl = _make_impl(group, m, [])
    _close(group, impl, map(impl.pack, gens))
    basis = IdealBasis(group, m, impl, closed=True)
    if basis.contains_one():
        raise ImproperIdealError("closure reached the whole ring")
    return basis


def verify_two_sided(basis: IdealBasis) -> bool:
    """Check that the span of the basis rows is a two-sided ideal without
    extending it: the span is stable under left and right translation by a
    generating set, each distinct permutation once (R_g = L_g exactly for
    central g, see ``_translations``).  The basis class decides that on its
    own vectors: over GF(2) as linearity on the annihilator's columns, one
    table of 2^a entries per permutation (a = log2|G| + 1 for a star
    complement, and a = log2 of the residue count for any ideal), over
    Z_{2^m} on the translates of the Howell rows."""
    return basis._impl.translation_closed(_translations(basis.group))


def maximal_ideal_powers(group, m):
    """Canonical bases, in the basis class ``_make_impl`` chooses, of the
    powers R = M^0 > M^1 > ... > M^L = 0 of the maximal ideal M = (2, D)
    of R = Z_{2^m}[G], D the augmentation ideal.  At m = 1, M = D and these
    are Jennings' powers of D (Trans. AMS 50, 1941), L its Loewy length.
    M^1 is spanned by 2 and the g - 1, and M^(k+1) by 2r and (g - 1)r, for
    g a minimal generator and r a row of M^k.  That suffices because
    hg - 1 = (h - 1)g + (g - 1), so D is the right ideal of the g - 1, and
    M^(k+1) = M M^k is 2M^k plus the sum of the (g - 1)M^k; as 2r lies in
    M^(k+1), gr + r spans with it what gr - r does.

    Lazy: M^(k+1) is built only when the caller asks for it.  M^0 is
    loaded from its unit rows, and M^1 = {x : sum of the x_g even} from
    its closed-form rows e_c + e_(n-1) for c < n - 1, with 2e_(n-1) when
    m >= 2; both are canonical.  Each power is yielded
    back-substituted (its ``rows`` read), so copies of it reduce against
    canonical rows."""
    n = group.n
    power = _make_impl(group, m, ())
    power.load_canonical([power.pack_terms((g,), (1,)) for g in range(n)])
    yield power
    power = _make_impl(group, m, ())
    rows = [power.pack_terms((c, n - 1), (1, 1)) for c in range(n - 1)]
    if m >= 2:
        rows.append(power.pack_terms((n - 1,), (2,)))
    if not power.load_canonical(rows):
        raise InternalInvariantError("M^1 rows are not canonical")
    lefts = [group.mul[g] for g in group.minimal_generators()]
    while True:
        rows = power.rows
        yield power
        if not rows:
            return
        power = _make_impl(group, m, ())
        for row in rows:
            power.insert(power.doubled(row))
            for perm in lefts:
                power.insert(power.plus(power.translate(row, perm), row))


# -- quotient rings -----------------------------------------------------------


class QuotientRing:
    """Z_{2^m}[G]/I on canonical residue representatives.

    Representatives are the vectors whose entry at each pivot column is
    below the pivot value (free columns unrestricted).  The columns of
    radix > 1 are the residue module generators g_0..g_{d-1}, and the
    representative of residue i is sum_a c_a(i) g_a, where the c_a(i) are
    the mixed-radix digits of i, column 0 least significant: a residue
    index is the mixed-radix number of its representative.  Residues are
    kept packed and reduced in the ideal basis's vector format, so at
    m >= 2 they are reduced Howell ints: ``rep``, ``terms``, ``project``
    and ``add_index`` go through the packed vector, and an index is read
    off its d fields at the generator columns.  No list of the residues is
    built.  ``element_index[g]`` is the residue index of g + I.

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
        self._impl = impl = ideal._impl
        n = self.group.n
        self.size = residue_count(ideal)
        radix = impl.pivot_radices()
        self.gens = [g for g in range(n) if radix[g] > 1]
        self._radix = [radix[g] for g in self.gens]
        # the place value of each generator's digit in a residue index
        self._place = list(itertools.accumulate(self._radix, operator.mul,
                                                initial=1))
        if self._place.pop() != self.size:
            raise InternalInvariantError(
                f"residue radices do not multiply to {self.size}")
        self._shifts = [g * impl.width for g in self.gens]
        proj = [impl.reduce(impl.pack_terms((g,), (1,))) for g in range(n)]
        self.element_index = list(map(self._index, proj))
        self.one_index = self.element_index[0]
        # over GF(2) an index is its own coordinate vector, bit t at
        # generator t, so the constants are indices; else packed vectors
        sc = self.element_index if self.m == 1 else proj
        mul = self.group.mul
        self._sc = [[sc[mul[a][b]] for b in self.gens] for a in self.gens]

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
        # Each row walks its chain i, i ^ low, ... down to a memo hit and
        # fills the chain back up.  R is keyed by the bit 2^a.
        R = {1 << a: [_xor_bits(Ta, j) for j in cols]
             for a, Ta in enumerate(self._sc)}
        memo = {0: [0] * len(cols)}
        table = []
        for i in rows:
            chain = []
            while i not in memo:
                chain.append(i)
                i &= i - 1
            r = memo[i]
            for j in reversed(chain):
                r = memo[j] = list(map(operator.xor, r, R[j & -j]))
            table.append(r)
        return table

    def _howell_products(self, rows, cols):
        # The same bilinear form on packed vectors: R[k][a] =
        # proj(g_a * rep(cols[k])) unreduced.  A field of acc + c*T is at
        # most 2^m - 1 + (2^m - 1)^2 < 2^(2m), so it does not carry, and
        # the mask takes it mod 2^m; each product is reduced once.
        low, reduce = self._impl.low, self._impl.reduce

        def weighted(coeffs, vectors):
            acc = 0
            for c, v in zip(coeffs, vectors):
                acc = (acc + c * v) & low
            return acc

        R = [[weighted(cj, Ta) for Ta in self._sc]
             for cj in map(self.digits, cols)]
        return [[self._index(reduce(weighted(ci, Rk))) for Rk in R]
                for ci in map(self.digits, rows)]

    def mul_index(self, i, j):
        return self.products([i], [j])[0][0]

    def add_index(self, i, j):
        impl = self._impl
        return self._index(impl.reduce(impl.plus(*map(self._packed, (i, j)))))

    def project(self, coeffs):
        """Residue index of an ambient coefficient vector."""
        impl = self._impl
        return self._index(impl.reduce(impl.pack(coeffs)))

    def _index(self, v):
        """Residue index of a reduced packed vector, read off its fields."""
        mask = self.mod - 1
        return sum(p * ((v >> s) & mask)
                   for p, s in zip(self._place, self._shifts))

    def _packed(self, i):
        """The packed canonical representative of residue i."""
        return self._impl.pack_terms(self.gens, self.digits(i))

    def digits(self, i):
        """The mixed-radix digits c_a(i) of residue index i."""
        out = []
        for r in self._radix:
            i, d = divmod(i, r)
            out.append(d)
        return out

    def rep(self, i):
        """The canonical representative of residue i."""
        return self._impl.unpack(self._packed(i))

    def terms(self, i):
        """The canonical representative of residue i as sparse terms."""
        return self._impl.terms(self._packed(i))

    def augmentation_index(self, i):
        return sum(self.digits(i)) % self.mod

    def units(self):
        """The residues of odd augmentation: every radix is a power of 2,
        so a digit's parity is the index bit at its place."""
        low = sum(self._place)
        return [i for i in range(self.size) if (i & low).bit_count() & 1]


def _xor_bits(values, mask):
    """XOR of values[b] over the set bits b of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= values[low.bit_length() - 1]
        mask ^= low
    return acc


def residue_count(ideal: IdealBasis) -> int:
    """|Z_{2^m}[G]/I|, read off the span's size; SizeCapError above
    RESIDUE_CAP."""
    total = (1 << (ideal.m * ideal.group.n)) // ideal.span_size()
    if total > RESIDUE_CAP:
        raise SizeCapError(f"quotient has {total} residues (> {RESIDUE_CAP})")
    return total


def quotient_ring(ideal: IdealBasis) -> QuotientRing:
    return QuotientRing(ideal)


class UnitGroup:
    """Cayley table on the units of a residue ring, identity first, plus
    the residue index of each unit and its inverse map ``position``
    (residue index -> unit index; non-units are absent)."""

    def __init__(self, group, residue_index, position):
        self.group = group
        self.residue_index = residue_index
        self.position = position


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
    units = ring.units()
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
    return UnitGroup(group=G, residue_index=units, position=pos)


def unit_isomorphism(ring: QuotientRing, G: CayleyGroup, gens, images):
    """The isomorphism G -> R^x sending gens[j] to residue images[j], as
    a list of residue indices over G, or None when there is none.

    One ``ring.products`` call gives u*image(g) for every unit u and
    generator g, the only rows read; then the Cayley graph of G is walked
    breadth first from the identity by lookups in that table: each new
    element x*g gets phi(x)*image(g), and an edge into an element that
    already has an image must reproduce it, so phi(1) = 1 holds on every
    edge into 1 as well.
    phi is returned only when every image has odd augmentation, phi covers
    G and is injective, and the ring has 2|G| residues.

    Proof.  R = Z_{2^m}[A]/I (A the ambient 2-group) is associative, so
    agreement on every generator edge, phi(xg) = phi(x)phi(g), gives
    phi(xy) = phi(x)phi(y) by induction on the length of y as a positive
    word in the generators.
    So phi(x)phi(x^-1) = phi(1) = 1 and phi maps into R^x (a non-unit
    image would fail an edge; the augmentation test rejects it before any
    product).  R is local with residue field GF(2) (I is proper, so it
    lies in the even-sum maximal ideal), so its units are exactly the
    odd-augmentation residues and |R^x| = |R|/2 = |G|: an injective map
    into R^x is onto.
    """
    if ring.size != 2 * G.n:
        return None
    if any(ring.augmentation_index(r) % 2 == 0 for r in images):
        return None
    units = ring.units()
    times = dict(zip(units, ring.products(units, images)))
    phi = [None] * G.n
    phi[0] = ring.one_index
    walked = [0]
    for x in walked:  # grows while it is walked
        for y, r in zip(map(G.mul[x].__getitem__, gens), times[phi[x]]):
            if phi[y] is None:
                phi[y] = r
                walked.append(y)
            elif phi[y] != r:
                return None
    if None in phi or len(set(phi)) != G.n:
        return None
    return phi


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
    q = quotient_ring(ideal_closure(G, 1, [coeffs]))
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
    one = (1,) + (0,) * (G.n - 1)
    x = (1, 2) + one[2:]
    for _ in range(m - 1):
        x = convolve(G, m, x, x)
    return x == one
