"""Exact arithmetic in Z_{2^m}[G] and its residue rings.

Elements are coefficient vectors mod 2^m indexed by group elements.  Ideals
are kept in a canonical basis: reduced row echelon over GF(2) when m = 1
(rows bit-packed into Python ints, so row operations are word-parallel) and
Howell normal form over Z_{2^m} otherwise.  Both forms are unique for the
span they generate, support exact membership tests, and make certificates
byte-stable.

Residue rings Z_{2^m}[G]/I are products on the canonical representatives
of the quotient module.  The quotient map is linear, so multiplication is
bilinear on the module generators (the columns of radix > 1) and fixed by
their d x d structure constants proj(g_a g_b), read off the group table
once.  Over GF(2) a residue index is its own coordinate vector, so products
are XORs of structure constants; over Z_{2^m} the same bilinear sum is
Howell-reduced.  No table over the whole ring is ever built: the unit
group's table is evaluated on the units alone.

The group ring of a 2-group over Z_{2^m} is local: the elements of even
coefficient sum form the unique maximal ideal and everything else is a
unit.  Unit-group extraction from residue rings relies on that; the test
suite checks it against an independent linear-algebra oracle.
"""

from __future__ import annotations

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


def multiply(x: RingElement, y: RingElement) -> RingElement:
    return x * y


def augmentation(x: RingElement) -> int:
    return x.augmentation()


def is_unit(x: RingElement) -> bool:
    return x.is_unit()


def invert(x: RingElement) -> RingElement:
    return x.inverse()


# -- canonical bases ----------------------------------------------------------


class _Gf2Basis:
    """Reduced row echelon basis over GF(2), rows packed into ints.

    Bit g of a row is the coefficient at group element g; pivots are the
    lowest set bits, rows are kept sorted by pivot, and every pivot column
    is cleared in all other rows, so the row list is unique for the span.
    """

    def __init__(self, n):
        self.n = n
        self.rows = []

    def copy(self):
        dup = _Gf2Basis(self.n)
        dup.rows = list(self.rows)
        return dup

    def reduce(self, v):
        for r in self.rows:
            if v & (r & -r):
                v ^= r
        return v

    def insert(self, v):
        """Add v to the span; True if the span grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v & -v
        self.rows = [r ^ v if r & p else r for r in self.rows]
        self.rows.append(v)
        self.rows.sort(key=lambda r: r & -r)
        return True

    def contains(self, v):
        return self.reduce(v) == 0

    def rank(self):
        return len(self.rows)

    def span_size(self):
        return 1 << len(self.rows)

    def pivot_radices(self):
        """Per-column residue counts for canonical representatives."""
        radix = [2] * self.n
        for r in self.rows:
            radix[(r & -r).bit_length() - 1] = 1
        return radix

    def row_vectors(self):
        return [tuple((r >> g) & 1 for g in range(self.n)) for r in self.rows]


def _val2(x):
    return (x & -x).bit_length() - 1


class _HowellBasis:
    """Howell normal form over Z_{2^m}: unique canonical rows, exact
    membership, and canonical coset representatives via reduce()."""

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.mod = 1 << m
        self.pivots = {}  # col -> (k, row list) with row[col] == 1 << k

    def copy(self):
        dup = _HowellBasis(self.n, self.m)
        dup.pivots = {c: (k, list(r)) for c, (k, r) in self.pivots.items()}
        return dup

    def _leading(self, v):
        for j, x in enumerate(v):
            if x:
                return j
        return None

    def _absorb(self, v):
        """Echelon-insert one vector, queueing displaced/annihilator rows.
        Returns list of queued vectors and whether the span grew."""
        mod = self.mod
        queued = []
        grew = False
        v = list(v)
        while True:
            col = self._leading(v)
            if col is None:
                break
            entry = v[col]
            if col not in self.pivots:
                k = _val2(entry)
                uinv = pow(entry >> k, -1, mod)
                v = [(uinv * x) % mod for x in v]
                self.pivots[col] = (k, v)
                grew = True
                if k > 0:
                    ann = [(x << (self.m - k)) % mod for x in v]
                    if any(ann):
                        queued.append(ann)
                break
            k0, r0 = self.pivots[col]
            if _val2(entry) >= k0:
                q = entry >> k0
                v = [(x - q * y) % mod for x, y in zip(v, r0)]
            else:
                k = _val2(entry)
                uinv = pow(entry >> k, -1, mod)
                v = [(uinv * x) % mod for x in v]
                self.pivots[col] = (k, v)
                grew = True
                queued.append(r0)
                if k > 0:
                    ann = [(x << (self.m - k)) % mod for x in v]
                    if any(ann):
                        queued.append(ann)
                break
        return queued, grew

    def insert(self, v):
        pending = [list(v)]
        grew = False
        while pending:
            queued, g = self._absorb(pending.pop())
            grew = grew or g
            pending.extend(queued)
        if grew:
            self._normalize()
        return grew

    def _normalize(self):
        """Back-substitution: entries at later pivot columns reduced mod
        their pivot value, making the rows canonical for the span."""
        mod = self.mod
        cols = sorted(self.pivots)
        for col in cols:
            k, row = self.pivots[col]
            for col2 in cols:
                if col2 <= col:
                    continue
                k2, row2 = self.pivots[col2]
                q = row[col2] >> k2
                if q:
                    row = [(x - q * y) % mod for x, y in zip(row, row2)]
            self.pivots[col] = (k, row)

    def reduce(self, v):
        mod = self.mod
        v = list(v)
        for col in sorted(self.pivots):
            k, row = self.pivots[col]
            q = v[col] >> k
            if q:
                v = [(x - q * y) % mod for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))

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

    def row_vectors(self):
        return [tuple(self.pivots[c][1]) for c in sorted(self.pivots)]


def _make_impl(group, m, vectors):
    if m == 1:
        impl = _Gf2Basis(group.n)
        for v in vectors:
            impl.insert(_pack(v))
    else:
        impl = _HowellBasis(group.n, m)
        for v in vectors:
            impl.insert(v)
    return impl


def _pack(coeffs):
    mask = 0
    for g, c in enumerate(coeffs):
        if c & 1:
            mask |= 1 << g
    return mask


def _unpack(mask, n):
    return tuple((mask >> g) & 1 for g in range(n))


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

    @property
    def rows(self):
        if self.m == 1:
            return [_unpack(r, self.group.n) for r in self._impl.rows]
        return self._impl.row_vectors()

    def row_elements(self):
        return [RingElement(self.group, self.m, r) for r in self.rows]

    def rank(self):
        return len(self.rows)

    def span_size(self):
        return self._impl.span_size()

    def contains(self, coeffs):
        if self.m == 1:
            return self._impl.contains(_pack(coeffs))
        return self._impl.contains(coeffs)

    def reduce(self, coeffs):
        """Canonical representative of coeffs modulo the span."""
        if self.m == 1:
            return _unpack(self._impl.reduce(_pack(coeffs)), self.group.n)
        return self._impl.reduce(coeffs)

    def contains_one(self):
        one = (1,) + (0,) * (self.group.n - 1)
        return self.contains(one)

    def fingerprint(self):
        return hash((self.m, tuple(map(tuple, self.rows))))

    def __eq__(self, other):
        return (isinstance(other, IdealBasis)
                and self.group is other.group
                and self.m == other.m
                and self.rows == other.rows)

    def __hash__(self):
        return self.fingerprint()


def _translations(group):
    """Left/right index permutations by a fixed minimal generating set.
    Translating by generators on both sides per round reaches the whole
    two-sided closure because the generators generate."""
    gens = group.minimal_generators()
    left = [group.mul[g] for g in gens]
    right = [[group.mul[h][g] for h in range(group.n)] for g in gens]
    return list(left) + list(right)


def _translate_mask(mask, perm):
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _translate_vec(vec, perm, n):
    out = [0] * n
    for h, c in enumerate(vec):
        if c:
            out[perm[h]] = c
    return out


def ideal_closure(gens) -> IdealBasis:
    """Smallest two-sided ideal containing ``gens``, in canonical form.

    Iterates one-sided translations by a minimal generating set of G on the
    current basis rows, re-normalizing until stable.  Raises
    ImproperIdealError if the closure reaches the whole ring.
    """
    if not gens:
        raise Fuchs2Error("ideal_closure needs at least one generator")
    group, m = gens[0].group, gens[0].m
    for x in gens:
        gens[0]._match(x)
    perms = _translations(group)
    impl = _make_impl(group, m, [x.coeffs for x in gens])
    changed = True
    while changed:
        changed = False
        if m == 1:
            for row in list(impl.rows):
                for perm in perms:
                    if impl.insert(_translate_mask(row, perm)):
                        changed = True
        else:
            for row in impl.row_vectors():
                for perm in perms:
                    if impl.insert(_translate_vec(row, perm, group.n)):
                        changed = True
    basis = IdealBasis(group, m, impl, closed=True)
    if basis.contains_one():
        raise ImproperIdealError("closure reached the whole ring")
    return basis


def verify_two_sided(basis: IdealBasis) -> bool:
    """Check that the span of the basis rows is a two-sided ideal without
    extending it (generator translations stay inside the span)."""
    group = basis.group
    perms = _translations(group)
    if basis.m == 1:
        for row in basis._impl.rows:
            for perm in perms:
                if not basis._impl.contains(_translate_mask(row, perm)):
                    return False
    else:
        for row in basis._impl.row_vectors():
            for perm in perms:
                if not basis._impl.contains(
                        _translate_vec(row, perm, group.n)):
                    return False
    return True


# -- quotient rings -----------------------------------------------------------


class QuotientRing:
    """Z_{2^m}[G]/I on canonical residue representatives.

    Representatives are the vectors whose entry at each pivot column is
    below the pivot value (free columns unrestricted); they are enumerated
    with column 0 varying fastest, which fixes residue indexing.  The
    columns of radix > 1 are the residue module generators g_0..g_{d-1},
    and the representative of residue i is sum_a c_a(i) g_a with its
    mixed-radix digits c_a(i) as coefficients.

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
        radix = ideal._impl.pivot_radices()
        reps = []
        counter = [0] * n
        while True:
            reps.append(tuple(counter))
            j = 0
            while j < n:
                counter[j] += 1
                if counter[j] < radix[j]:
                    break
                counter[j] = 0
                j += 1
            if j == n:
                break
        if len(reps) != total:
            raise InternalInvariantError("transversal enumeration mismatch")
        self.reps = reps
        self.index = {r: i for i, r in enumerate(reps)}
        self.one_index = self.index[ideal.reduce((1,) + (0,) * (n - 1))]
        self.gens = [g for g in range(n) if radix[g] > 1]
        # proj(g) for every group element: a residue index over GF(2), where
        # residue index bit t is the coefficient at generator t, so indices
        # add by XOR; otherwise the reduced representative itself
        proj = [ideal.reduce(tuple(int(g == h) for h in range(n)))
                for g in range(n)]
        if self.m == 1:
            proj = [self.index[v] for v in proj]
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
        mod = self.mod
        digits = [[self.reps[j][g] for g in self.gens] for j in cols]
        R = [[_combine(Ta, cj) for cj in digits] for Ta in self._sc]
        table = []
        for i in rows:
            ci = [self.reps[i][g] for g in self.gens]
            row = []
            for k in range(len(cols)):
                v = _combine([Ra[k] for Ra in R], ci)
                row.append(self.project([x % mod for x in v]))
            table.append(row)
        return table

    def mul_index(self, i, j):
        return self.products([i], [j])[0][0]

    def add_index(self, i, j):
        s = [(x + y) % self.mod for x, y in zip(self.reps[i], self.reps[j])]
        return self.project(s)

    def project(self, coeffs):
        """Residue index of an ambient coefficient vector."""
        return self.index[self.ideal.reduce(tuple(coeffs))]

    def augmentation_index(self, i):
        return sum(self.reps[i]) % self.mod


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
    the residue index of each unit."""

    group: CayleyGroup
    residue_index: list[int]
    ring: QuotientRing

    def residue_of(self, unit_index):
        return self.residue_index[unit_index]


def unit_group(ring) -> UnitGroup:
    """Unit group of a QuotientRing (or of Z_{2^m}[G] via the zero ideal).

    Residue rings of Z_{2^m}[G] inside the even-sum maximal ideal are
    local, so the units are exactly the odd-augmentation residues.  Their
    multiplication table comes straight from the ring's structure
    constants; it is checked closed and verified to be a group.
    """
    if not isinstance(ring, QuotientRing):
        raise Fuchs2Error("unit_group expects a QuotientRing")
    units = [i for i in range(ring.size)
             if ring.augmentation_index(i) % 2 == 1]
    if ring.one_index not in units:
        raise InternalInvariantError("1 has even augmentation")
    units.remove(ring.one_index)
    units.insert(0, ring.one_index)
    if len(units) > UNIT_TABLE_CAP:
        raise SizeCapError(f"unit group of size {len(units)} exceeds table cap")
    pos = {r: k for k, r in enumerate(units)}
    table = []
    for row in ring.products(units, units):
        try:
            table.append([pos[p] for p in row])
        except KeyError:
            raise InternalInvariantError("units are not closed") from None
    G = CayleyGroup(table, name="units", check=True)
    return UnitGroup(group=G, residue_index=units, ring=ring)


def group_ring_quotient(group, m, ideal_elements):
    """Convenience: close the given generators and quotient."""
    if ideal_elements:
        basis = ideal_closure(list(ideal_elements))
    else:
        basis = IdealBasis.zero(group, m)
    return quotient_ring(basis)


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
    t = q.project(RingElement.group_element(G, 1, 1).coeffs)
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
