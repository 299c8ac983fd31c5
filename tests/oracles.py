"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results by the most direct method available
(full double loops, exhaustive enumeration, linear algebra from scratch)
without touching the code paths under test.
"""

import itertools

from fuchs2.groups import CATALOG_FAMILIES, CATALOG_NAMED


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


def brute_find_inverse(G, m, coeffs):
    """Scan the whole ring for a two-sided inverse (tiny rings only)."""
    mod = 1 << m
    for cand in itertools.product(range(mod), repeat=G.n):
        if naive_convolve(G, m, coeffs, cand) == \
                (1,) + (0,) * (G.n - 1) and \
                naive_convolve(G, m, cand, coeffs) == \
                (1,) + (0,) * (G.n - 1):
            return cand
    return None


def raw_candidates(G, config):
    """Every generator tuple of the search, unbudgeted: by count, then
    lexicographically over its single-element pool."""
    from fuchs2.search import _single_elements

    pool = _single_elements(G, config)
    for ng in range(1, config.max_gens + 1):
        yield from itertools.combinations(pool, ng)


def candidate_stream_oracle(G, config):
    """The search's candidate stream, one full closure per raw candidate.

    Every generator tuple over the search's single-element pool, by count
    and then lexicographically, is closed with ideal_closure; improper
    closures and bases already yielded are skipped, and the stream ends at
    raw index config.budget.  Yields (index, gens, basis)."""
    from fuchs2.errors import ImproperIdealError
    from fuchs2.gring import ideal_closure

    seen = set()
    for index, gens in enumerate(raw_candidates(G, config)):
        if index >= config.budget:
            return
        try:
            basis = ideal_closure(list(gens))
        except ImproperIdealError:
            continue
        key = tuple(map(tuple, basis.rows))
        if key in seen:
            continue
        seen.add(key)
        yield index, gens, basis


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
