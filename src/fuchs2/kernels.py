"""Table checks: exact structural deciders plus the cubic witness scans.

The deciders use the structure the mathematics gives, and both test only
a greedily found generating set (``greedy_generators``).
`is_associative` runs Light's test, O(n^2 d) for d generators;
`translations_affine` checks that the left and right translations by each
generator are affine on the exponent vectors, O(n d).  Both decide
exactly the property the cubic scans check.  The scans walk all |G|^3
triples and return the lexicographically least violation, so callers run
them only after a decider has failed, to name the witness.

Tables are lists of rows: ``mul[x][y]`` is the index of x*y.
"""

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


def is_associative(mul):
    """Light's test on a greedily found generating set.

    A table is associative iff (xa)y == x(ay) for all x, y and every a in
    a generating set (Clifford & Preston, *Algebraic Theory of Semigroups*
    I, section 1.2).
    """
    for a in greedy_generators(mul):
        row_a = mul[a]
        for row_x in mul:
            if mul[row_x[a]] != [row_x[v] for v in row_a]:
                return False
    return True


def translations_affine(mul, encode):
    """Whether the two translation-compatibility conditions hold.

    With enc the exponent-vector map and a*b = dec(enc(a) XOR enc(b)),
    condition (1) for all a, b at fixed c says that u -> enc(c dec(u)) XOR
    enc(c) is GF(2)-linear, and condition (2) says the same of
    u -> enc(dec(u) c) XOR enc(c).  A map f with f(0) = 0 is linear iff it
    equals the XOR-span of its values on the unit vectors.

    Affine maps compose, and L_cd = L_c L_d and R_cd = R_d R_c, so the c
    whose translations are affine form a subgroup: testing a generating
    set decides all of G.
    """
    n = len(mul)
    decode = [0] * n
    for g, u in enumerate(encode):
        decode[u] = g
    units = [1 << i for i in range(n.bit_length() - 1)]
    for c in greedy_generators(mul):
        ec = encode[c]
        row_c = mul[c]
        left = [encode[row_c[g]] ^ ec for g in decode]
        right = [encode[mul[g][c]] ^ ec for g in decode]
        for f in (left, right):
            span = [0]
            for u in units:
                image = f[u]
                span += [v ^ image for v in span]
            if span != f:
                return False
    return True


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
    """Lex-least failure of the two translation-compatibility conditions.

    For each triple (a, b, c) checks
      (1)  (c(a*b))*c == (ca)*(cb)
      (2)  ((a*b)c)*c == (ac)*(bc)
    and returns (a, b, c, which) for the lexicographically least violating
    triple (condition 1 tested before 2), or None.
    """
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
