"""Table checks: exact structural deciders, and cubic reference scans.

The deciders use the structure the mathematics gives, and both test only
a generating set.  `assoc_violation` runs Light's test, O(n^2 d) for d
generators, on a greedily found generating set (``greedy_generators``):
its table is not yet known to be a group.  It checks only tables of
unknown origin, the unit group's and any other handed to ``CayleyGroup``:
a presented group is proved by its regular coset action
(``groups.enumerate_presentation``), and a direct product is built from
groups.  `affine_violation` checks that
the left and right translations by each generator of a group, given by
the caller, are affine on the exponent vectors, O(n d).  Both decide
exactly the property the cubic scans check, and name a violation read
off the row or translation that failed.  The scans walk all |G|^3 triples
for the lex-least violation; only the tests run them, as the reference.

Tables are lists of rows: ``mul[x][y]`` is the index of x*y.
"""

import operator

BACKEND = "pure-python"


def greedy_generators(mul):
    """Yield elements in index order, each one outside the submagma
    generated by those yielded before.

    A caller that tests each element as it is yielded and stops at the
    first failure has tested a generating set of the table whenever every
    test passed.  The submagma is grown by right multiplication by the
    generators, which reaches every left-normed word in them.  That is all
    of the submagma when the table is associative, and for Light's test
    too: a product of elements that pass it equals its left-normed form.
    """
    n = len(mul)
    inside = [False] * n
    members = []
    gens = []
    for a in range(n):
        if inside[a]:
            continue
        yield a
        gens.append(a)
        # the old members are closed under the old generators, so only
        # their products with a, and everything new, need multiplying out
        work = [a] + [mul[x][a] for x in members]
        for x in work:
            if inside[x]:
                continue
            inside[x] = True
            members.append(x)
            row_x = mul[x]
            work.extend(row_x[g] for g in gens)


def assoc_violation(mul):
    """Light's test on a greedily found generating set.

    A table is associative iff (xa)y == x(ay) for all x, y and every a in
    a generating set (Clifford & Preston, *Algebraic Theory of Semigroups*
    I, section 1.2).  Returns None, or the first (x, a, y) that fails.
    The pass of 0, yielded first, is skipped when 0 is a two-sided
    identity: then (x0)y = x(0y).
    """
    gens = greedy_generators(mul)
    if list(mul[0]) == list(range(len(mul))) == [row[0] for row in mul]:
        next(gens)
    for a in gens:
        row_a = mul[a]
        for x, row_x in enumerate(mul):
            # row (xa) against row x gathered at row a: x(ay) for every y
            lhs, rhs = mul[row_x[a]], list(map(row_x.__getitem__, row_a))
            if lhs != rhs:
                return x, a, next(y for y, p in enumerate(lhs) if p != rhs[y])
    return None


def affine_violation(mul, encode, gens):
    """A violation (a, b, c, condition) of the two conditions, or None.
    ``mul`` is a group table and ``gens`` generates the group; the
    violation names a generator as its c.

    With enc the exponent-vector map and a*b = dec(enc(a) XOR enc(b)),
    condition (1) for all a, b at fixed c says that u -> enc(c dec(u)) XOR
    enc(c) is GF(2)-linear, and condition (2) says the same of
    u -> enc(dec(u) c) XOR enc(c).  A map f with f(0) = 0 is linear iff it
    equals the XOR-span of its values on the unit vectors.

    Affine maps compose, and L_cd = L_c L_d and R_cd = R_d R_c, so the c
    whose translations are affine form a subgroup: testing ``gens``
    decides all of G.

    The span is built by doubling, so where it first differs from f, at u
    with top bit h, f[u] != f[u ^ h] ^ f[h]: (dec(u ^ h), dec(h), c) fails.
    """
    n = len(mul)
    decode = [0] * n
    for g, u in enumerate(encode):
        decode[u] = g
    units = [1 << i for i in range(n.bit_length() - 1)]
    rows = list(map(mul.__getitem__, decode))
    for c in gens:
        ec = encode[c]
        # enc(c dec(u)) and enc(dec(u) c) for every u: the maps above with
        # enc(c) left in, so the span starts from enc(c)
        left = list(map(encode.__getitem__,
                        map(mul[c].__getitem__, decode)))
        right = list(map(encode.__getitem__,
                         map(operator.itemgetter(c), rows)))
        for condition, f in ((1, left), (2, right)):
            span = [ec]
            for u in units:
                image = f[u] ^ ec
                span += [v ^ image for v in span]
            if span != f:
                u = next(u for u, v in enumerate(span) if v != f[u])
                h = 1 << (u.bit_length() - 1)
                return (decode[u ^ h], decode[h], c, condition)
    return None


def first_assoc_violation(mul):
    """First (x, y, z) with (xy)z != x(yz), scanning triples in lex order.

    Returns None when the table is associative.  For fixed (x, y) the whole
    z-row is compared at once before a scalar scan locates the witness.
    """
    n = len(mul)
    for x in range(n):
        row_x = mul[x]
        for y in range(n):
            lhs = mul[row_x[y]]
            rhs = [row_x[v] for v in mul[y]]
            if lhs != rhs:
                for z in range(n):
                    if lhs[z] != rhs[z]:
                        return (x, y, z)
    return None


def first_condition_violation(mul, star):
    """The lex-least (a, b, c, condition) with (1) (c(a*b))*c != (ca)*(cb)
    or (2) ((a*b)c)*c != (ac)*(bc), condition 1 tested first; or None."""
    n = len(mul)
    for a in range(n):
        star_a = star[a]
        mrow_a = mul[a]
        for b in range(n):
            ab = star_a[b]
            mrow_ab = mul[ab]
            mrow_b = mul[b]
            for c in range(n):
                mrow_c = mul[c]
                if star[mrow_c[ab]][c] != star[mrow_c[a]][mrow_c[b]]:
                    return (a, b, c, 1)
                if star[mrow_ab[c]][c] != star[mrow_a[c]][mrow_b[c]]:
                    return (a, b, c, 2)
    return None
