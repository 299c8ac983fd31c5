"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results by the most direct method available
(full double loops, exhaustive enumeration, linear algebra from scratch)
without touching the code paths under test.
"""

import itertools


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


def upper_central_length(G):
    """Length of the upper central series, recomputed directly."""
    current = {0}
    length = 0
    while len(current) < G.n:
        comm = lambda x, g: G.mul[G.mul[G.inv[x]][G.inv[g]]][G.mul[x][g]]
        nxt = {x for x in range(G.n)
               if all(comm(x, g) in current for g in range(G.n))}
        if len(nxt) == len(current):
            raise AssertionError("series stalled")
        current = nxt
        length += 1
    return length


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
