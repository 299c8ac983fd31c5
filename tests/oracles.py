"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results by the most direct method available
(full double loops, exhaustive enumeration, linear algebra from scratch)
without touching the code paths under test.
"""

import itertools

from fuchs2.errors import SizeCapError
from fuchs2.gring import IdealBasis
from fuchs2.groups import (
    CATALOG_FAMILIES,
    CATALOG_NAMED,
    ORDER_CAP,
    CayleyGroup,
    build_group,
    direct_factor_pair,
    unreadable_generator_name,
)
from fuchs2.parsing import _parse_literal_words


def naive_convolve(G, m, a, b):
    """Plain double-loop group-ring product, no sparsity tricks."""
    mod = 1 << m
    out = [0] * G.n
    for g in range(G.n):
        for h in range(G.n):
            out[G.mul[g][h]] = (out[G.mul[g][h]] + a[g] * b[h]) % mod
    return tuple(out)


def element_order_brute(G, x):
    y, k = x, 1
    while y != 0:
        y = G.mul[y][x]
        k += 1
    return k


def center_brute(G):
    return sorted(x for x in range(G.n)
                  if all(G.mul[x][g] == G.mul[g][x] for g in range(G.n)))


def commutator_brute(G, x, g):
    """[x, g] = x^-1 g^-1 x g, from the table."""
    return G.mul[G.mul[G.inv[x]][G.inv[g]]][G.mul[x][g]]


def closure_brute(G, elements):
    """The subgroup generated by ``elements``: products of members until
    nothing new appears (finite, so inverses come for free)."""
    members = {0} | set(elements)
    while True:
        grown = members | {G.mul[x][y] for x in members for y in members}
        if grown == members:
            return sorted(members)
        members = grown


def conjugacy_classes_brute(G):
    """Classes ordered by least member, each a sorted tuple: every
    element conjugated by all of G."""
    m, inv = G.mul, G.inv
    seen = [False] * G.n
    classes = []
    for x in range(G.n):
        if seen[x]:
            continue
        orb = {m[m[inv[g]][x]][g] for g in range(G.n)}
        for y in orb:
            seen[y] = True
        classes.append(tuple(sorted(orb)))
    return classes


def derived_brute(G):
    """Generated by every commutator [x, g], all pairs."""
    return closure_brute(G, {commutator_brute(G, x, g)
                             for x in range(G.n) for g in range(G.n)})


def frattini_brute(G):
    """Generated by the squares and the commutators (p = 2)."""
    return closure_brute(G, {G.mul[x][x] for x in range(G.n)}
                         | set(derived_brute(G)))


def minimal_generating_sequences_brute(G):
    """Minimal generating sequences in lexicographic index order: from the
    Frattini subgroup, add each element outside the span in index order and
    close the span with ``closure_brute``, until the span is G."""
    frat = set(frattini_brute(G))
    if len(frat) == G.n:
        yield ()
        return

    def extend(prefix, span):
        if len(span) == G.n:
            yield tuple(prefix)
            return
        for x in range(1, G.n):
            if x not in span:
                yield from extend(prefix + [x],
                                  set(closure_brute(G, span | {x})))

    yield from extend([], frat)


def upper_central_series_brute(G):
    """Every term [{1}, Z_1, Z_2, ..., G] as sorted lists: Z_{i+1} holds
    the x with [x, g] in Z_i for every g."""
    series = [[0]]
    while len(series[-1]) < G.n:
        current = set(series[-1])
        nxt = [x for x in range(G.n)
               if all(commutator_brute(G, x, g) in current
                      for g in range(G.n))]
        if len(nxt) == len(current):
            raise AssertionError("series stalled")
        series.append(nxt)
    return series


def upper_central_length(G):
    """Length of the upper central series, recomputed directly."""
    return len(upper_central_series_brute(G)) - 1


def gf2_left_mul_matrix(G, m, coeffs):
    """Rows (mod 2) of the left-multiplication matrix of an element."""
    rows = []
    for h in range(G.n):  # column h = coeffs * e_h
        col = [0] * G.n
        for g in range(G.n):
            if coeffs[g]:
                col[G.mul[g][h]] = (col[G.mul[g][h]] + coeffs[g])
        rows.append(col)
    # transpose to row-major and reduce mod 2 into bitmasks
    masks = []
    for i in range(G.n):
        mask = 0
        for h in range(G.n):
            if rows[h][i] & 1:
                mask |= 1 << h
        masks.append(mask)
    return masks


def gf2_rank(masks):
    rank = 0
    basis = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


class HowellReference:
    """Howell form over Z_{2^m} on coefficient tuples, one entry at a time.

    The reference for the packed ``gring._HowellBasis``: the same worklist
    insert and lazy back-substitution, with vectors as tuples of entries
    in [0, 2^m), pivots visited in sorted order and every row operation a
    list comprehension, so no bit layout is shared with the code under
    test.  The row at pivot column c has leading entry 2^k.
    """

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.mod = 1 << m
        self.pivots = {}  # col -> (k, row) with row[col] == 1 << k
        self.substituted = True

    @staticmethod
    def translate(v, perm):
        """The vector with entry v[g] at perm[g] for every g."""
        out = [0] * len(v)
        for g, c in enumerate(v):
            if c:
                out[perm[g]] = c
        return tuple(out)

    @property
    def rows(self):
        """The rows sorted by pivot, each reduced at every later pivot."""
        pivots = self.pivots
        if not self.substituted:
            for col in sorted(pivots):
                # popped, so the row is reduced by the others only
                k, row = pivots.pop(col)
                pivots[col] = (k, self.reduce(row))
            self.substituted = True
        return [pivots[c][1] for c in sorted(pivots)]

    def insert(self, v):
        """Add v to the span; True if the span grew."""
        mod, m, pivots = self.mod, self.m, self.pivots
        grew = False
        work = [tuple(c % mod for c in v)]
        while work:
            v = self.reduce(work.pop())
            col = next((j for j, x in enumerate(v) if x), None)
            if col is None:
                continue
            k = (v[col] & -v[col]).bit_length() - 1
            unit = pow(v[col] >> k, -1, mod)
            if unit != 1:
                v = tuple([unit * x % mod for x in v])
            if col in pivots:
                work.append(pivots[col][1])
            pivots[col] = (k, v)
            if k:
                work.append(tuple([(x << (m - k)) % mod for x in v]))
            grew = True
            self.substituted = False
        return grew

    def reduce(self, v):
        mod = self.mod
        v = [c % mod for c in v]
        for col in sorted(self.pivots):
            k, row = self.pivots[col]
            q = v[col] >> k
            if q:
                v = [(x - q * y) % mod for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))

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


def translations_both_sides(G):
    """The left and then the right translation by each minimal generator,
    2d permutations, repeats kept (a central generator's two are equal)."""
    gens = G.minimal_generators()
    left = [G.mul[g] for g in gens]
    right = [[G.mul[h][g] for h in range(G.n)] for g in gens]
    return left + right


def two_sided_brute(G, m, rows):
    """True if the span of ``rows`` (coefficient tuples) is a two-sided
    ideal of Z_{2^m}[G]: every row translated by every group element on
    either side lies in the span.  Over GF(2) membership is a rank test
    (``gf2_rank`` does not grow); over Z_{2^m} it is ``HowellReference``
    membership."""
    n = G.n
    translates = []
    for row in rows:
        for g in range(n):
            left = [0] * n
            right = [0] * n
            for h, c in enumerate(row):
                left[G.mul[g][h]] = c
                right[G.mul[h][g]] = c
            translates += [left, right]
    if m == 1:
        def pack(v):
            return sum(1 << g for g, c in enumerate(v) if c & 1)
        masks = [pack(r) for r in rows]
        rank = gf2_rank(masks)
        return all(gf2_rank(masks + [pack(t)]) == rank for t in translates)
    ref = HowellReference(n, m)
    for row in rows:
        ref.insert(row)
    return all(ref.contains(t) for t in translates)


def ideal_closure_worklist(group, m, gens):
    """Two-sided closure by a worklist over both sides: every vector that
    grows the span is translated on the left and, for a non-central
    generator, on the right by each minimal generator.  The closure route
    ``gring.ideal_closure`` took before it spanned left translates; raises
    ImproperIdealError when the closure contains 1."""
    from fuchs2.errors import ImproperIdealError
    from fuchs2.gring import IdealBasis, _make_impl, _translations

    perms = _translations(group)
    impl = _make_impl(group, m, [])
    work = [v for v in map(impl.pack, gens) if impl.insert(v)]
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


def maximal_ideal_powers_brute(G, m):
    """Canonical rows (``HowellReference``) of M^0, M^1, ... of the
    maximal ideal M of Z_{2^m}[G], ending with the first zero power.  M is
    spanned by 2 and every g - 1, and M^k by the products of k of those:
    each row of M^(k-1) is multiplied on the right by each of them
    (``naive_convolve``), with no use of generators or of the routine
    under test."""
    n, mod = G.n, 1 << m
    unit = [tuple(int(h == g) for h in range(n)) for g in range(n)]
    spanning = [tuple(2 * c % mod for c in unit[0])] + [
        tuple((c - d) % mod for c, d in zip(unit[g], unit[0]))
        for g in range(1, n)]

    def span(vectors):
        ref = HowellReference(n, m)
        for v in vectors:
            ref.insert(v)
        return ref.rows

    powers = [span(unit)]
    while powers[-1]:
        powers.append(span([naive_convolve(G, m, b, a) for b in powers[-1]
                            for a in spanning]))
    return powers


def _minus_one(G, m):
    """The coefficient tuple of g - 1 for every g != 1."""
    mod = 1 << m
    return {g: tuple((int(h == g) - int(h == 0)) % mod for h in range(G.n))
            for g in range(1, G.n)}


def realizing_ideals_by_chains(G, m):
    """The canonical rows of every two-sided ideal I of Z_{2^m}[G] on
    which g -> g + I is a bijection onto the units of the quotient, by
    chains of ideals, each of index 2 in the one before.

    Every such I ends a chain M = K_0 > K_1 > ... > K_k = I, |G| = 2^k, of
    ideals: the maximal sub-ideals of K containing I have index 2 in K,
    and they contain N = MK + KM.  G maps onto every 1 + M/K_j, so the
    kernel {g : g - 1 in K_j} has |G|/2^j elements.  So a breadth-first
    search finds them all: the children of K are the hyperplanes of K/N,
    N spanned by 2v, gv - v and vg - v over the rows v of K and every g
    in G, each hyperplane the kernel of a nonzero functional on K/N; each
    level is deduplicated by canonical rows and keeps the children whose
    kernel has the right size.  No layer of powers of M is used."""
    n, mod = G.n, 1 << m
    k = n.bit_length() - 1
    shifts = _minus_one(G, m)

    def canonical(vectors):
        ref = HowellReference(n, m)
        for v in vectors:
            ref.insert(v)
        return ref

    def moved(v, perm):
        out = [0] * n
        for g, c in enumerate(v):
            out[perm[g]] = c
        return out

    perms = [G.mul[g] for g in range(n)] + \
        [[G.mul[h][g] for h in range(n)] for g in range(n)]
    two = tuple(2 % mod * int(g == 0) for g in range(n))
    level = {tuple(canonical([two, *shifts.values()]).rows)}
    for j in range(1, k + 1):
        children = set()
        for rows in level:
            below = canonical(
                [tuple(2 * c % mod for c in v) for v in rows]
                + [tuple((a - b) % mod for a, b in zip(moved(v, perm), v))
                   for v in rows for perm in perms]).rows
            ref = canonical(below)
            quotient = [v for v in rows if ref.insert(v)]
            for f in range(1, 1 << len(quotient)):
                p = (f & -f).bit_length() - 1
                child = canonical(below + [
                    tuple((a + b) % mod for a, b in zip(v, quotient[p]))
                    if f >> i & 1 else v for i, v in enumerate(quotient)
                    if i != p])
                kernel = sum(child.contains(v) for v in shifts.values())
                if kernel + 1 == n >> j:
                    children.add(tuple(child.rows))
        level = children
    return level


def codim_3_ideals_at_order_8(G):
    """The two-sided ideals of F_2[G], |G| = 8, of codimension 3 in the
    augmentation ideal D, as sets of their elements (bit masks), by brute
    force over all 11,811 subspaces of that codimension: each
    4-dimensional subspace of D, in reduced echelon form over the
    coordinates of the basis 1 + g, g = 1..7, is kept when it is closed
    under every translation on both sides.  Such an ideal I realizes G
    exactly when it contains no 1 + g: then g -> g + I is injective, into
    units of which there are |G|."""
    assert G.n == 8
    perms = [G.mul[g] for g in range(8)] + \
        [[G.mul[h][g] for h in range(8)] for g in range(8)]
    subspaces = 0
    found = set()
    for pivots in itertools.combinations(range(7), 4):
        slots = [[j for j in range(p + 1, 7) if j not in pivots]
                 for p in pivots]
        for bits in itertools.product((0, 1), repeat=sum(map(len, slots))):
            bit = iter(bits)
            rows = [1 << p | sum(1 << j for j in slot if next(bit))
                    for p, slot in zip(pivots, slots)]
            subspaces += 1
            coords = {0}
            for row in rows:
                coords |= {c ^ row for c in coords}
            # coordinate bit j stands for 1 + g, g = j + 1
            span = {sum(1 << (j + 1) for j in range(7) if c >> j & 1)
                    | (c.bit_count() & 1) for c in coords}
            if all(sum(1 << perm[g] for g in range(8) if v >> g & 1) in span
                   for v in span for perm in perms):
                found.add(frozenset(span))
    assert subspaces == 11811
    return found


def ideal_involution(basis):
    """The image I* = {x* : x in I} of a span under the involution
    x* = sum c_g g^-1 of x = sum c_g g, in canonical form: the entry of
    x* at g is that of x at g^-1."""
    from fuchs2.gring import IdealBasis

    G = basis.group
    return IdealBasis.from_vectors(
        G, basis.m, [[row[G.inv[g]] for g in range(G.n)]
                     for row in basis.rows], closed=basis.closed)


def is_unit_by_linear_algebra(G, m, coeffs):
    """Unit test via invertibility of the left-multiplication matrix.

    Over Z_{2^m} a square matrix is invertible iff it is invertible mod 2,
    so a GF(2) rank computation decides; this never looks at coefficient
    sums.
    """
    return gf2_rank(gf2_left_mul_matrix(G, m, coeffs)) == G.n


def brute_unit_set(G, m):
    """All unit coefficient vectors of Z_{2^m}[G], by linear algebra."""
    mod = 1 << m
    units = set()
    for coeffs in itertools.product(range(mod), repeat=G.n):
        if is_unit_by_linear_algebra(G, m, coeffs):
            units.add(coeffs)
    return units


def brute_two_sided_ideal(G, m, gen_vectors):
    """The full two-sided ideal as a set of coefficient tuples: close the
    generators under left/right translation by every group element, then
    take all Z_{2^m}-combinations.  Exponential; only for tiny cases."""
    mod = 1 << m
    translates = set()
    work = [tuple(v) for v in gen_vectors]
    while work:
        v = work.pop()
        if v in translates:
            continue
        translates.add(v)
        for g in range(G.n):
            left = [0] * G.n
            right = [0] * G.n
            for h, c in enumerate(v):
                if c:
                    left[G.mul[g][h]] = c
                    right[G.mul[h][g]] = c
            work.append(tuple(left))
            work.append(tuple(right))
    span = {(0,) * G.n}
    for v in translates:
        if v in span:  # its multiples are already there
            continue
        new = set(span)
        for k in range(1, mod):
            for s in span:
                new.add(tuple((k * a + b) % mod for a, b in zip(v, s)))
        span = new
    return span


def brute_star_kernel(G, encode):
    """All even-support GF(2) vectors whose XOR of encodes vanishes,
    enumerated over all 2^|G| subsets (|G| <= 16)."""
    out = set()
    for mask in range(1 << G.n):
        support = [g for g in range(G.n) if mask >> g & 1]
        if len(support) % 2:
            continue
        acc = 0
        for g in support:
            acc ^= encode[g]
        if acc == 0:
            out.add(mask)
    return out


def normal_forms_brute(G, seq):
    """Multiply out each of the 2^k ordered products x_1^d_1 ... x_k^d_k
    from the identity, k table lookups each; the encode map (element ->
    exponent bitmask, bit i = d_(i+1)) when they cover G exactly once,
    else None."""
    k = len(seq)
    if (1 << k) != G.n:
        return None
    encode = [None] * G.n
    for d in range(1 << k):
        x = 0
        for i in range(k):
            if d >> i & 1:
                x = G.mul[x][seq[i]]
        if encode[x] is not None:
            return None
        encode[x] = d
    return encode


def chief_chain_sequences_by_lattice(G):
    """``star.chief_chain_sequences`` read off the normal-subgroup lattice
    (``groups.normal_subgroups``), as it was before the children of each
    node were read off directly: the chains of normal subgroups, each of
    index 2 in the next, that climb to the center and then through it to
    G, in the lattice's sorted order, each taking the least new element
    at every step."""
    from fuchs2.groups import normal_subgroups
    from fuchs2.star import PcSequence, _normal_forms

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
            yield PcSequence(G, seq, split, _normal_forms(G, seq))
            return
        for cand in by_size.get(len(cur) * 2, []):
            if cur < cand and (cand <= center
                               or (center <= cur and center <= cand)
                               or center == cand):
                yield from walk(chain + [cand])

    yield from walk([{0}])


def characteristic_candidates_via_center_table(G, m_range):
    """The m in m_range whose scalar unit group embeds in Z(G), with Z(G)'s
    invariants read off its own Cayley table."""
    center, _, _ = G.subgroup_cayley(G.center())
    inv = center.abelian_invariants()
    return {m for m in m_range
            if m == 1 or (m == 2 and len(inv) >= 1)
            or (m >= 3 and len(inv) >= 2 and inv[0] >= 1 << (m - 2))}


def star_kernel_planes(encode):
    """Vectors e_g + e_u + e_gu + e_1 spanning the star kernel, packed:
    one for every g and every unit exponent vector u, where gu has the
    exponent vector enc(g) XOR u.  They span it because, modulo them,
    e_g is a sum of e_1 and the e_u over the bits of enc(g); so their
    span has codimension at most log2|G| + 1, the kernel's."""
    n = len(encode)
    decode = [0] * n
    for g, e in enumerate(encode):
        decode[e] = g
    return [1 ^ 1 << g ^ 1 << decode[1 << i] ^ 1 << decode[encode[g] ^ 1 << i]
            for g in range(n) for i in range(n.bit_length() - 1)]


def translations_affine_brute(mul, encode):
    """Every left and right translation, for all |G| elements c, is
    affine on the exponent vectors: u -> enc(c dec(u)) XOR enc(c) and
    u -> enc(dec(u) c) XOR enc(c) equal the XOR-span of their values on
    the unit vectors."""
    n = len(mul)
    decode = [0] * n
    for g, u in enumerate(encode):
        decode[u] = g
    units = [1 << i for i in range(n.bit_length() - 1)]
    for c in range(n):
        ec = encode[c]
        left = [encode[mul[c][g]] ^ ec for g in decode]
        right = [encode[mul[g][c]] ^ ec for g in decode]
        for f in (left, right):
            span = [0]
            for u in units:
                span += [v ^ f[u] for v in span]
            if span != f:
                return False
    return True


def residue_transversal(ideal):
    """Canonical residue representatives of Z_{2^m}[G]/I, listed in
    residue-index order.

    A canonical row whose first nonzero entry is 2^k at column c leaves the
    2^k values below it at c; every other column takes all 2^m values.  The
    representatives are counted with column 0 varying fastest."""
    n, mod = ideal.group.n, 1 << ideal.m
    radix = [mod] * n
    for row in ideal.rows:
        c = next(j for j, x in enumerate(row) if x)
        radix[c] = row[c]
    digits = itertools.product(*[range(r) for r in reversed(radix)])
    return [tuple(reversed(d)) for d in digits]


def word_map(G, gens, images, H):
    """Generator images extended by words: each element of <gens>, found
    breadth first, takes phi(x) * h for the first edge x -> x * g that
    reaches it.  No consistency check.  Returns a dict over <gens>."""
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in zip(gens, images):
                y = G.mul[x][g]
                if y not in phi:
                    phi[y] = H.mul[phi[x]][h]
                    nxt.append(y)
        frontier = nxt
    return phi


def is_homomorphism_on(G, H, phi):
    """All-pairs check of phi (a dict over a subgroup of G)."""
    return all(phi[G.mul[x][y]] == H.mul[phi[x]][phi[y]]
               for x in phi for y in phi)


def first_isomorphism(G, H):
    """The isomorphism G -> H whose images of G.minimal_generators() form
    the lexicographically least tuple, as an index list, or None.

    Each generator's candidates are the elements of H of the same order,
    in index order; each tuple is extended by words and checked to be a
    bijective homomorphism on all pairs."""
    gens = G.minimal_generators()
    candidates = [[h for h in range(H.n) if element_order_brute(H, h)
                   == element_order_brute(G, g)] for g in gens]
    for images in itertools.product(*candidates):
        phi = word_map(G, gens, images, H)
        if (len(phi) == G.n == H.n and len(set(phi.values())) == H.n
                and is_homomorphism_on(G, H, phi)):
            return [phi[x] for x in range(G.n)]
    return None


def catalog_specs(top):
    """The named catalog groups (all of order <= 64) and every family
    member of order <= top."""
    specs = list(CATALOG_NAMED)
    for kind, (low, _, _) in CATALOG_FAMILIES.items():
        order = low
        while order <= top:
            specs.append(f"{kind}{order}")
            order *= 2
    return specs


def catalog_atoms():
    """The factors of the product specs: every catalog group of order
    <= 64 except C1 and D4 = C2 x C2."""
    return [s for s in catalog_specs(64) if s not in ("C1", "D4")]


def atom_products(top, counts):
    """Specs of the products of ``k`` catalog atoms (with repetition, in
    atom order), for k in ``counts``, of order <= top: the order of
    ``itertools.combinations_with_replacement``, pruned while each product
    is built, since every atom has order >= 2."""
    atoms = catalog_atoms()
    order = [build_group(s).n for s in atoms]

    def products(k, start, size):
        # the nondecreasing atom index tuples of length k from start on
        # whose product with size stays <= top
        if k == 0:
            yield ()
            return
        for i in range(start, len(atoms)):
            if size * order[i] << (k - 1) <= top:
                for rest in products(k - 1, i, size * order[i]):
                    yield (i, *rest)

    return ["x".join(atoms[i] for i in p) for k in counts
            for p in products(k, 0, 1)]


def char_constraint_by_factor_split(G):
    """True when G is a direct product of nonabelian indecomposable
    groups, by splitting G at its first pair of complementary normal
    subgroups and recursing into both factors (order <= 128)."""
    if G.n == 1 or G.is_abelian():
        return False
    pair = direct_factor_pair(G)
    if pair is None:
        return True
    return all(char_constraint_by_factor_split(G.subgroup_cayley(m)[0])
               for m in pair)


def verify_by_unit_table(doc):
    """Verify a certificate document by the unit-group table: rebuild and
    check the ideal and residue ring, tabulate the whole unit group
    (``unit_group``), extend the witness over it (``generator_map``) and
    check the extension on all pairs (``verify_homomorphism``)."""
    from fuchs2.gring import IdealBasis, quotient_ring, unit_group, \
        verify_two_sided
    from fuchs2.groups import generator_map, verify_homomorphism
    from fuchs2.parsing import parse_element_literal
    from fuchs2.search import _build_from_spec

    m = doc["char"].bit_length() - 1
    ambient = _build_from_spec(doc["ambient"])
    target = (_build_from_spec(doc["group"])
              if doc["group"] != doc["ambient"] else ambient)
    if canonical_rows_dense(ambient, m, doc["ideal_basis"]) is None:
        return False
    basis = IdealBasis.from_vectors(
        ambient, m, [parse_literal_dense(lit, ambient, m)
                     for lit in doc["ideal_basis"]])
    if not verify_two_sided(basis):
        return False
    basis.closed = True
    if basis.contains_one():
        return False
    ring = quotient_ring(basis)
    if ring.size != doc["quotient_size"]:
        return False
    units = unit_group(ring)
    witness = doc["iso_witness"]
    if units.group.n != target.n or set(witness) != set(target.gen_names):
        return False
    images = []
    for name in target.gen_names:
        residue = ring.project(parse_element_literal(witness[name], ambient, m))
        if residue not in units.position:
            return False
        images.append(units.position[residue])
    phi = generator_map(target, target.gen_indices, images, units.group)
    return (phi is not None and None not in phi
            and verify_homomorphism(target, units.group, phi))


def fixture_witness_by_unit_table(ambient_spec, m, literals, expected_spec):
    """A fixture's witness literals by discovery: tabulate the unit group
    of the residue ring (``unit_group``), search an isomorphism from the
    expected group onto it (``groups.isomorphism``) and render the residue
    image of each expected generator in the ambient group; None when there
    is no isomorphism."""
    from fuchs2.gring import ideal_closure, quotient_ring, unit_group
    from fuchs2.groups import isomorphism
    from fuchs2.parsing import element_literal, parse_element_literal

    ambient = build_group(ambient_spec)
    basis = ideal_closure(ambient, m, [
        parse_element_literal(lit, ambient, m) for lit in literals])
    ring = quotient_ring(basis)
    units = unit_group(ring)
    expected = build_group(expected_spec)
    phi = isomorphism(expected, units.group)
    if phi is None:
        return None
    return tuple(element_literal(ring.rep(units.residue_index[phi[g]]),
                                 ambient)
                 for g in expected.gen_indices)


def coset_scan_reference(table, cap=None):
    """The forward-only HLT scan, written plainly on the lists of a fresh
    ``groups._CosetTable``: every edge is followed through ``find``, a
    missing edge gets a new vertex, and every relator trace ends in
    ``unify``, which keeps the smaller root.  Raises SizeCapError on
    reaching ``cap`` vertices; no cap when None."""
    from fuchs2.errors import SizeCapError
    labels, neighbors = table.labels, table.neighbors

    def find(c):
        while labels[c] != c:
            c = labels[c]
        return c

    def follow(c, d):
        c = find(c)
        t = neighbors[c][d]
        if t == -1:
            t = len(labels)
            if t == cap:
                raise SizeCapError(f"reference scan reached {cap} vertices")
            labels.append(t)
            neighbors.append([-1] * table.nd)
            neighbors[c][d] = t
        return find(t)

    def unify(c1, c2):
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            labels[b] = a
            for d in range(table.nd):
                t = neighbors[b][d]
                if t == -1:
                    continue
                if neighbors[a][d] == -1:
                    neighbors[a][d] = t
                else:
                    queue.append((neighbors[a][d], t))

    i = 0
    while i < len(labels):
        if find(i) == i:
            for rel in table.relators:
                c = i
                for d in rel:
                    c = follow(c, d)
                unify(c, i)
        i += 1


def presented_table_by_columns(pres):
    """A presented group built the direct way: the coset table's
    permutations, column u of the table (x -> x*u) gathered from its BFS
    parent's column through one direction's permutation, the rows read as
    the columns transposed, and the table checked by ``CayleyGroup``'s
    own check (identity, row permutations and Light's test,
    ``kernels.assoc_violation``).  Nothing is read off the left
    translations, as ``groups.enumerate_presentation`` does."""
    from fuchs2.groups import _CosetTable, _relator_directions

    def runs(dirs):
        # direction sequence -> (generator position, exponent) runs
        out = []
        for d in dirs:
            g, e = d >> 1, -1 if d & 1 else 1
            if out and out[-1][0] == g and (out[-1][1] > 0) == (e > 0):
                out[-1] = (g, out[-1][1] + e)
            else:
                out.append((g, e))
        return tuple(out)

    table = _CosetTable(len(pres.gens),
                        [_relator_directions(w) for w in pres.relators])
    table.run()
    perms = table.permutations()
    n = len(perms[0]) if perms else 1
    words, cols = [None] * n, [None] * n
    words[0], cols[0] = (), list(range(n))
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for d, perm in enumerate(perms):
                u = perm[v]
                if words[u] is None:
                    words[u] = words[v] + (d,)
                    cols[u] = [perm[c] for c in cols[v]]
                    nxt.append(u)
        frontier = nxt
    return CayleyGroup([list(row) for row in zip(*cols)],
                       gen_names=pres.gens,
                       gen_indices=[perms[2 * i][0]
                                    for i in range(len(pres.gens))],
                       label_words=[runs(w) for w in words],
                       name="presented", check=True)


def first_touch_order(perms, relators):
    """The elements of a permutation group in the order in which tracing
    every relator, in turn, from each element, taken in this same order
    starting at the identity 0, first reaches them.  ``perms[d]`` is the
    action of direction d, as ``groups._CosetTable.permutations`` gives
    it.  A coset scan that traces every relator from each live vertex in
    index order, and makes vertices only along those traces, numbers the
    elements in this order."""
    order, seen = [0], {0}
    for x in order:
        for rel in relators:
            c = x
            for d in rel:
                c = perms[d][c]
                if c not in seen:
                    seen.add(c)
                    order.append(c)
    return order


# -- the dense and pairwise routes, kept as references ------------------------


def direct_product_pair(G, H):
    """The product of two groups entry by entry: (g, h) is index
    g*|H| + h, and each row is built from a pre-scaled left row."""
    n = G.n * H.n
    if n > ORDER_CAP:
        raise SizeCapError(f"product order {n} exceeds {ORDER_CAP}")
    nh = H.n
    mul = []
    for row_g in G.mul:
        scaled = [y * nh for y in row_g]
        for row_h in H.mul:
            mul.append([a + b for a in scaled for b in row_h])

    # duplicates get the smallest numeric suffix that collides neither with
    # names already assigned nor with raw names still to come
    combined = list(G.gen_names) + list(H.gen_names)
    gen_names = []
    for pos, s in enumerate(combined):
        if s not in gen_names:
            gen_names.append(s)
            continue
        k = 2
        while f"{s}{k}" in gen_names or f"{s}{k}" in combined[pos + 1:]:
            k += 1
        gen_names.append(f"{s}{k}")
    gen_names = tuple(gen_names)
    gen_indices = tuple(g * nh for g in G.gen_indices) + tuple(H.gen_indices)

    label_words = None
    if G.label_words is not None and H.label_words is not None:
        off = len(G.gen_names)
        label_words = []
        for xg in range(G.n):
            wg = G.label_words[xg]
            for xh in range(H.n):
                wh = H.label_words[xh]
                if wg is None or wh is None:
                    label_words.append(None)
                else:
                    label_words.append(
                        wg + tuple((p + off, e) for p, e in wh))
    name = f"{G.name}x{H.name}" if G.name and H.name else ""
    P = CayleyGroup(mul, gen_names=gen_names, gen_indices=gen_indices,
                    label_words=label_words, name=name, check=False)
    if isinstance(G.source_spec, str) and isinstance(H.source_spec, str):
        P.source_spec = f"{G.source_spec}x{H.source_spec}"
    return P


def element_literal_dense(coeffs, group):
    """The canonical literal of a dense coefficient vector, term by term:
    index order, unit coefficients omitted."""
    parts = []
    for g, c in enumerate(coeffs):
        if c == 0:
            continue
        word = group.label(g)
        if c == 1:
            parts.append(word)
        elif word == "1":
            parts.append(str(c))
        else:
            parts.append(f"{c}*{word}")
    return "+".join(parts) if parts else "0"


def parse_literal_dense(text, group, m):
    """An element literal as a dense coefficient tuple mod 2^m: a sum of
    labels by the label index, anything else by the word parser."""
    terms = "".join(text.split()).split("+")
    index = group.label_index()
    if (m >= 1 and all(t in index for t in terms)
            and unreadable_generator_name(group.gen_names) is None):
        mod = 1 << m
        coeffs = [0] * group.n
        for t in terms:
            g = index[t]
            coeffs[g] = (coeffs[g] + 1) % mod
        return tuple(coeffs)
    support, coeffs = _parse_literal_words(text, group, m)
    dense = [0] * group.n
    for g, c in zip(support, coeffs):
        dense[g] = c
    return tuple(dense)


def canonical_rows_dense(group, m, literals):
    """The packed rows of ``literals`` when they are exactly the canonical
    rows of their span, else None: each literal read into a dense vector,
    packed entry by entry (a 2m-bit field per element when m > 1) and
    inserted, and the rows compared with the basis's own."""
    width = 1 if m == 1 else 2 * m
    packed = [sum((c % (1 << m)) << (g * width)
                  for g, c in enumerate(parse_literal_dense(lit, group, m)))
              for lit in literals]
    basis = IdealBasis.from_vectors(group, m, ())
    for v in packed:
        basis._impl.insert(v)
    return packed if basis.key() == tuple(packed) else None


def unit_isomorphism_by_levels(ring, G, gens, images):
    """The generator-edge walk of G into the units of ``ring``, breadth
    first with one ``ring.products`` call per level of the walk."""
    if ring.size != 2 * G.n:
        return None
    if any(ring.augmentation_index(r) % 2 == 0 for r in images):
        return None
    phi = [None] * G.n
    phi[0] = ring.one_index
    level = [0]
    while level:
        grown = []
        rows = ring.products([phi[x] for x in level], images)
        for x, row in zip(level, rows):
            to = G.mul[x]
            for g, r in zip(gens, row):
                y = to[g]
                if phi[y] is None:
                    phi[y] = r
                    grown.append(y)
                elif phi[y] != r:
                    return None
        level = grown
    if None in phi or len(set(phi)) != G.n:
        return None
    return phi
