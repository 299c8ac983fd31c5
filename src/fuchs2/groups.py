"""Finite 2-groups as explicit multiplication tables.

Groups are constructed from presentations by coset enumeration over the
trivial subgroup (one HLT scan-and-fill with a union-find over cosets,
the table read off the regular action it proves), from the built-in
catalog, whose presentations are written once in the
presentation-file grammar, or as direct products.  Element 0 is always the
identity and element indexing is the coset-discovery order, which is
fixed, so identical inputs always produce identical tables.

Everything downstream (group rings, screeners, the realization pipeline)
consumes the structural data computed here: element orders, centralizers,
conjugacy classes, a minimal generating sequence, abelian invariants,
isomorphism testing and indecomposability.  The minimal generating
sequence is read off the squares, which generate the Frattini subgroup of
a 2-group, and it is the one generating set of the structural queries:
the center is the set of elements that commute with it, and the conjugacy
classes are closed under conjugation by it.  The derived subgroup, the
upper central series and the centralizer orders are read off the classes.
All of it is exact and exhaustive; there are no probabilistic shortcuts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from . import kernels
from .errors import (
    ConstructionError,
    Fuchs2Error,
    InternalInvariantError,
    SizeCapError,
    UndecidedError,
)

ORDER_CAP = 512
ENUM_VERTEX_CAP = 200_000
# bound on vertices made x relator letters, the letters that a scan of
# every vertex traces: ten times C64:C8's 14,798 x 108, the most a test
# builds.  A presentation is untrusted input, and a long relator such as
# a^65536 would otherwise be traced from each of its 65,536 vertices
ENUM_WORK_CAP = 16_000_000
# vertex cap of each leave-one-out enumeration that names a collapsing
# generator's relator; most such runs present an infinite group
CULPRIT_VERTEX_CAP = 16 * ORDER_CAP
ISO_NODE_BUDGET = 10_000_000
INDECOMP_CAP = 128
NORMAL_SUBGROUP_CAP = 50_000


class Presentation(namedtuple("Presentation",
                              "gens relators relator_text")):
    """A finite presentation: generator names plus relator words.

    Each relator is a word stored as a tuple of (generator index, exponent)
    runs; the presented group is the quotient of the free group by their
    normal closure.  ``relator_text`` keeps the source strings for error
    messages.
    """

    __slots__ = ()

    def __new__(cls, gens, relators, relator_text=()):
        for word in relators:
            for g, _ in word:
                if not 0 <= g < len(gens):
                    raise ConstructionError(
                        f"relator uses undeclared generator index {g}")
        return super().__new__(cls, gens, relators, relator_text)


def invariants_from_orders(orders):
    """Invariant factors, in descending divisibility order, of the abelian
    2-group whose element orders are ``orders``.

    Uses the order-counting characterization, which is complete for
    abelian 2-groups: the number of solutions of x^(2^k) = 1 determines
    the partition.
    """
    maxk = max(orders).bit_length() - 1
    counts = [sum(1 for o in orders if o <= (1 << k)).bit_length() - 1
              for k in range(maxk + 1)]
    # counts[k] - counts[k-1] = number of invariants with exponent >= k
    parts = []
    for k in range(1, maxk + 1):
        geq_k = counts[k] - counts[k - 1]
        geq_k1 = counts[k + 1] - counts[k] if k < maxk else 0
        parts.extend([1 << k] * (geq_k - geq_k1))
    parts.sort(reverse=True)
    return tuple(parts)


def unreadable_generator_name(names):
    """The first name the word grammar cannot read back as that one
    generator, or None when every name reads back: a name must be
    nonempty, differ from the names before it, not start with a digit (2b
    reads as 2*b), and hold no whitespace and no character of the element
    grammar (x+y splits).  Presentation files are held to this rule, and
    label sums are read through the label index only when it holds
    (``CayleyGroup.labels_readable``), since a ``CayleyGroup`` built
    through the API may carry any names."""
    seen = set()
    for name in names:
        if (not name or name in seen or name[0].isdigit()
                or any(c in "+-*^[]," or c.isspace() for c in name)):
            return name
        seen.add(name)
    return None


def memoized(query):
    """A group query computed once per group: its result is kept in the
    group's one memo dict, ``CayleyGroup._memo``, under the query's name,
    which no other memoized query shares.  Methods and module functions
    whose only argument is the group take it alike."""
    key = query.__name__

    @functools.wraps(query)
    def cached(group):
        memo = group._memo
        if key not in memo:
            memo[key] = query(group)
        return memo[key]
    return cached


class CayleyGroup:
    """A finite 2-group of order <= 512 given by its full Cayley table.

    mul[x][y] is the index of x*y, index 0 is the identity, and inv[x] is
    the two-sided inverse.  Instances are immutable after construction and
    safe to share between threads.  Structural queries, here and in other
    modules, are ``memoized``: each result is computed once and kept in
    the one dict ``_memo``, keyed by the query's name, so the constructor's
    fields and that dict are all a group holds.
    """

    def __init__(self, mul, gen_names=(), gen_indices=(), label_words=None,
                 name="", check=True):
        n = len(mul)
        self.n = n
        # list rows are kept: callers hand over rows they never change
        self.mul = mul = [row if type(row) is list else list(row)
                          for row in mul]
        self.gen_names = tuple(gen_names)
        self.gen_indices = tuple(gen_indices)
        self.label_words = label_words
        self.name = name
        self.source_spec = None
        if check:
            self._verify()
        # x^-1 = x^(k-1) for x of order k: one walk along the powers of x
        # gives the inverse of each of them
        inv = [0] * n
        for x in range(1, n):
            if not inv[x]:
                powers = [x]
                while y := mul[powers[-1]][x]:
                    powers.append(y)
                for y, z in zip(powers, reversed(powers)):
                    inv[y] = z
        self.inv = inv
        self._memo = {}

    def _verify(self):
        """Index 0 is a two-sided identity, every row is a permutation (one
        set comparison per row) and the table passes Light's test
        (``kernels.assoc_violation``, row gathers).  Run on tables of
        unknown origin: ``gring.unit_group``'s and a caller's
        ``CayleyGroup(table)``.  Presented groups, proved by their regular
        coset action, direct products and subgroup tables skip it."""
        n, mul = self.n, self.mul
        if n == 0 or n & (n - 1):
            raise ConstructionError(f"order {n} is not a power of 2")
        elements = set(range(n))
        first = mul[0]
        for x, row in enumerate(mul):
            if first[x] != x or row[0] != x:
                raise ConstructionError("index 0 is not a two-sided identity")
            if len(row) != n or set(row) != elements:
                raise ConstructionError(f"row {x} is not a permutation")
        bad = kernels.assoc_violation(mul)
        if bad is not None:
            raise ConstructionError(f"table is not associative at {bad}")

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return self.n

    def power(self, x, k):
        if k < 0:
            x, k = self.inv[x], -k
        r = 0
        while k:
            if k & 1:
                r = self.mul[r][x]
            x = self.mul[x][x]
            k >>= 1
        return r

    def element_order(self, x):
        return self.element_orders()[x]

    @memoized
    def element_orders(self):
        orders = [1] * self.n
        for x in range(1, self.n):
            y, k = x, 1
            while y != 0:
                y = self.mul[y][x]
                k += 1
            orders[x] = k
        return orders

    def exponent(self):
        # orders are powers of 2, so the lcm is the maximum
        return max(self.element_orders(), default=1)

    def commutator(self, x, y):
        m = self.mul
        return m[m[self.inv[x]][self.inv[y]]][m[x][y]]

    def centralizer(self, x):
        m = self.mul
        row = m[x]
        return tuple(g for g in range(self.n) if row[g] == m[g][x])

    @memoized
    def center(self):
        """The elements that commute with every generator of
        ``minimal_generators``, in increasing order: x is central when its
        products with the generators on the left and on the right agree,
        one tuple comparison per element."""
        mul, gens = self.mul, self.minimal_generators()
        if not gens:
            return tuple(range(self.n))
        left = zip(*[mul[g] for g in gens])
        right = zip(*[[row[g] for row in mul] for g in gens])
        return tuple(itertools.compress(
            range(self.n), map(operator.eq, left, right)))

    def is_abelian(self):
        return len(self.center()) == self.n

    def cyclic(self, x):
        """Members of <x> in power order."""
        out = [0]
        y = x
        while y != 0:
            out.append(y)
            y = self.mul[y][x]
        return out

    def subgroup(self, gens):
        """Sorted member tuple of the subgroup generated by ``gens``."""
        seen = {0}
        frontier = [0]
        gens = [g for g in gens if g]
        while frontier:
            nxt = []
            for x in frontier:
                row = self.mul[x]
                for g in gens:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    @memoized
    def conjugacy_classes(self):
        """Classes ordered by least member, each a sorted tuple.

        A class is the closure of one member under conjugation y -> g^-1 y g
        by the generators g of ``minimal_generators``: conjugation by a
        product is the composite of the conjugations, so O(n d) in all.
        """
        m, n = self.mul, self.n
        conj = [[m[r][g] for r in m[self.inv[g]]]
                for g in self.minimal_generators()]
        seen = [False] * n
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            seen[x] = True
            orb = [x]
            for y in orb:  # grows while it is walked
                for c in conj:
                    z = c[y]
                    if not seen[z]:
                        seen[z] = True
                        orb.append(z)
            classes.append(tuple(sorted(orb)))
        return classes

    @memoized
    def derived_subgroup(self):
        """Generated by the commutators [x, g] = x^-1 x^g, which are the
        x^-1 y for y in the class of x."""
        m, inv = self.mul, self.inv
        comms = {m[inv[x]][y] for cls in self.conjugacy_classes()
                 for x in cls for y in cls}
        return self.subgroup(sorted(comms))

    def frattini_subgroup(self):
        """Generated by the squares: for p = 2 the Frattini subgroup is
        generated by the squares and the commutators, and every commutator
        is a product of squares, [x, y] = x^-2 (x y^-1)^2 y^2.  Not
        memoized: ``minimal_generators``, its one caller, is."""
        squares = set(map(list.__getitem__, self.mul, range(self.n)))
        return self.subgroup(sorted(squares))

    @memoized
    def upper_central_series(self):
        """[{1}, Z(G), Z_2(G), ...] ending at G (or stalling for non-nilpotent,
        which cannot happen for 2-groups).

        x lies in Z_{i+1} exactly when every [x, g] = x^-1 x^g lies in Z_i,
        that is when x^-1 y does for every y in the class of x.  Z_{i+1} is
        normal, so one member of a class decides the whole class.
        """
        m, inv = self.mul, self.inv
        series = [(0,)]
        current = {0}
        while len(current) < self.n:
            nxt = tuple(sorted(
                y for cls in self.conjugacy_classes()
                if all(m[inv[cls[0]]][y] in current for y in cls)
                for y in cls))
            if len(nxt) == len(current):
                break
            series.append(nxt)
            current = set(nxt)
        return series

    def nilpotency_class(self):
        series = self.upper_central_series()
        if self.n == 1:
            return 0
        if len(series[-1]) != self.n:
            raise ConstructionError("group is not nilpotent")
        return len(series) - 1

    def n_a(self, a):
        """Least N >= 0 with b^(2^N) in <a> for every b centralizing a."""
        members = set(self.cyclic(a))
        best = 0
        for b in self.centralizer(a):
            k = 0
            y = b
            while y not in members:
                y = self.mul[y][y]
                k += 1
            best = max(best, k)
        return best

    # -- generating sequences and abelian structure ----------------------

    @memoized
    def minimal_generators(self):
        """The greedy minimal generating sequence: from the
        Frattini subgroup, add the least element outside the span until the
        span is G.

        It projects to a basis of G modulo the Frattini subgroup, so every
        minimal generating sequence has its length.  Every span S grown
        here contains Phi(G), which holds all squares and commutators, so S
        is normal and x^2 lies in S.  Then Sx = xS and Sx * Sx = Sx^2 = S,
        so S u Sx is closed under products: it is <S, x>, and growing a
        span costs |S| table lookups.  Phi(G) is read off the squares
        (``frattini_subgroup``), so no conjugacy class is computed here;
        ``conjugacy_classes`` and the star-condition decider take this set
        as their generators.
        """
        mul = self.mul
        span = set(self.frattini_subgroup())
        gens = []
        for x in range(self.n):
            if x not in span:
                gens.append(x)
                span.update([mul[s][x] for s in span])
        return tuple(gens)

    def abelian_invariants(self):
        """Invariant factors in descending divisibility order."""
        if not self.is_abelian():
            raise Fuchs2Error("abelian invariants of a nonabelian group")
        return invariants_from_orders(self.element_orders())

    # -- labels ----------------------------------------------------------

    def label(self, x):
        """Canonical word string for element x (parseable back)."""
        if x == 0:
            return "1"
        if self.label_words is None or self.label_words[x] is None:
            return f"g{x}"
        parts = []
        for gen_pos, exp in self.label_words[x]:
            name = self.gen_names[gen_pos]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    @memoized
    def labels(self):
        """``label(x)`` for every x."""
        return [self.label(x) for x in range(self.n)]

    @memoized
    def label_index(self):
        """label(x) -> x over the identity and the elements with a label
        word; the g{x} fallback labels name no word and are left out."""
        words, labels = self.label_words, self.labels()
        return {labels[x]: x for x in range(self.n)
                if x == 0 or (words is not None and words[x] is not None)}

    @memoized
    def labels_readable(self):
        """Whether the word grammar reads every generator name back as
        that one generator (``unreadable_generator_name``)."""
        return unreadable_generator_name(self.gen_names) is None

    # -- derived groups --------------------------------------------------

    def subgroup_cayley(self, members):
        """CayleyGroup on a subgroup plus (to_sub, from_sub) index maps."""
        members = tuple(sorted(members))
        if members[0] != 0:
            raise ConstructionError("subgroup must contain the identity")
        to_sub = {g: i for i, g in enumerate(members)}
        try:
            mul = [[to_sub[self.mul[x][y]] for y in members] for x in members]
        except KeyError:
            raise ConstructionError("member set is not closed") from None
        sub = CayleyGroup(mul, name=f"subgroup({self.name})", check=False)
        return sub, to_sub, list(members)


# -- presentation enumeration ---------------------------------------------

_UNDEF = -1


class _CosetTable:
    """HLT coset enumeration over the trivial subgroup, by scan-and-fill.

    Directions 2i / 2i+1 are generator i and its inverse, d ^ 1 is the
    inverse of d, and every edge is made together with its inverse; the
    relators g g^-1 and g^-1 g are scanned too.  Vertices are merged
    through a union-find that keeps the smaller index as root.  One scan,
    in discovery order, scans and fills every relator from every live
    vertex (Holt, Eick & O'Brien, Handbook of Computational Group Theory,
    2005, 5.1, SCANANDFILL): trace forward until an edge is missing and
    backward until one is; traces that meet are unified at their ends, a
    one-edge gap is filled both ways (a deduction), and otherwise one new
    vertex is made at the forward front and the scan goes on.  That
    completes the table: a vertex live at the end was live when the scan
    reached it, and a merge maps closed relator loops to closed loops.

    The numbering is that of the forward-only scan, which makes a vertex at
    every missing edge of every forward trace.  A vertex only merges into a
    smaller one, so each element keeps its first vertex, and the final
    order is the order in which elements first get one.  Both scans trace
    every relator in full from the live vertices in index order and make
    vertices only at the forward front, in forward order; a backward trace
    reaches only vertices that exist.  So both first reach the elements in
    the same order, the first-touch order of the relator traces.
    """

    def __init__(self, ngens, relators, cap=None):
        self.nd = 2 * ngens
        self.relators = [rel for rel in relators]
        # tracing g then g^-1 (and vice versa) must return home
        for i in range(ngens):
            self.relators.append((2 * i, 2 * i + 1))
            self.relators.append((2 * i + 1, 2 * i))
        # the scan traces each relator from each live vertex, so capping
        # the vertices caps its work at ENUM_WORK_CAP letters
        self.letters = sum(map(len, self.relators))
        self.cap = min(ENUM_VERTEX_CAP if cap is None else cap,
                       ENUM_WORK_CAP // max(self.letters, 1))
        self.labels = [0]
        self.neighbors = [[_UNDEF] * self.nd]

    def find(self, c):
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def unify(self, c1, c2):
        labels, neighbors, find = self.labels, self.neighbors, self.find
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            if labels[a] != a:
                a = find(a)
            if labels[b] != b:
                b = find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            labels[b] = a
            na = neighbors[a]
            for d, t in enumerate(neighbors[b]):
                if t == _UNDEF:
                    continue
                if na[d] == _UNDEF:
                    na[d] = t
                else:
                    queue.append((na[d], t))

    def run(self):
        """The scan, with ``find``'s root case inlined: each relator is
        scanned and filled from the live vertex, up to ``cap`` vertices."""
        labels, neighbors, find = self.labels, self.neighbors, self.find
        nd, cap = self.nd, self.cap
        i = 0
        while i < len(labels):
            if labels[i] == i:
                for rel in self.relators:
                    f = b = i if labels[i] == i else find(i)
                    steps = iter(rel)
                    for d in steps:  # forward until a gap
                        t = neighbors[f][d]
                        if t == _UNDEF:
                            break
                        f = t if labels[t] == t else find(t)
                    else:
                        if f != b:
                            self.unify(f, b)
                        continue
                    # the gap is at rel[p]: steps has the rest after it
                    q = len(rel)
                    p = q - 1 - operator.length_hint(steps)
                    while True:
                        # backward from the back front b, down to p
                        while q > p:
                            t = neighbors[b][rel[q - 1] ^ 1]
                            if t == _UNDEF:
                                break
                            b = t if labels[t] == t else find(t)
                            q -= 1
                        else:
                            self.unify(f, b)
                            break
                        d = rel[p]
                        if q == p + 1:  # a one-edge gap: a deduction
                            neighbors[f][d] = b
                            neighbors[b][d ^ 1] = f
                            break
                        t = len(labels)
                        if t >= cap:
                            raise SizeCapError(
                                f"coset enumeration exceeded {cap} "
                                f"vertices of {self.letters} relator "
                                f"letters; the presented group is too "
                                f"large or infinite")
                        labels.append(t)
                        row = [_UNDEF] * nd
                        row[d ^ 1] = f
                        neighbors.append(row)
                        neighbors[f][d] = t
                        f = t
                        p += 1
                        # forward from the new front, up to the back front
                        while p < q:
                            t = neighbors[f][rel[p]]
                            if t == _UNDEF:
                                break
                            f = t if labels[t] == t else find(t)
                            p += 1
                        else:
                            if f != b:
                                self.unify(f, b)
                            break
            i += 1

    def permutations(self):
        live = [v for v in range(len(self.labels)) if self.find(v) == v]
        index = {v: i for i, v in enumerate(live)}
        perms = []
        for d in range(self.nd):
            perm = []
            for v in live:
                t = self.neighbors[v][d]
                if t == _UNDEF:
                    raise ConstructionError("incomplete coset table")
                perm.append(index[self.find(t)])
            perms.append(perm)
        return perms


def _relator_directions(word):
    dirs = []
    for g, e in word:
        if e >= 0:
            dirs.extend([2 * g] * e)
        else:
            dirs.extend([2 * g + 1] * (-e))
    return tuple(dirs)


def enumerate_presentation(pres: Presentation, name="") -> CayleyGroup:
    """Build the Cayley table of a presented group (order cap 512).

    The complete coset table gives the group as the permutation group P
    of the directions' right actions, ``perms[d][v]`` = v*d, on vertices
    that vertex 0, the identity, reaches by breadth-first search; each
    vertex's BFS word is its label word.  The table is read off P, with
    no test of the table itself:

    Lemma.  For each generator image s = perms[2i][0], let L_s be laid out
    along the BFS tree by L_s(0) = s and L_s(v*d) = L_s(v)*d.  If every L_s
    commutes with every perms[d], then P is regular, L_s is left
    translation by s, and the relators closing at 0 hold in the table.
    Proof: P is transitive, as the BFS reaches every vertex.  An h in the
    stabilizer P_0 of 0 has h(s) = h(L_s(0)) = L_s(h(0)) = s, so P_0 fixes
    s = 0*g_i, whose stabilizer is the conjugate g_i^-1 P_0 g_i; the two
    have one order, so each generator normalizes P_0 and P_0 is normal in
    P.  A normal point stabilizer of a transitive group fixes every point,
    so P_0 is trivial and P is regular: vertex x is the element 0*w_x of
    its word, L_s(0*w) = s*w is left translation by s, and a relator that
    closes at 0 is the identity of P.  So row 0 is the identity, row
    s*x = L_s o row x, breadth first from 0, and the table is the group's
    -- what Light's test and the row-permutation scan proved, in O(n d^2)
    list operations instead of O(n^2 d).  A commutation that fails raises
    InternalInvariantError: the coset table is not the group's.
    """
    ngens = len(pres.gens)
    relators = [_relator_directions(w) for w in pres.relators]
    table = _CosetTable(ngens, relators)
    table.run()
    perms = table.permutations()
    relator_text = pres.relator_text or tuple(
        _render_word(w, pres.gens) for w in pres.relators)
    for rel, text in zip(relators, relator_text):
        c = 0
        for d in rel:
            c = perms[d][c]
        if c != 0:
            raise InternalInvariantError(
                f"relator {text} does not close on the coset table")
    n = len(perms[0]) if perms else 1
    if n > ORDER_CAP:
        raise SizeCapError(f"presented group has order {n} > {ORDER_CAP}")
    if n & (n - 1):
        raise ConstructionError(
            f"presented group has order {n}, not a power of 2")

    gen_indices = [perms[2 * i][0] for i in range(ngens)]
    for i, gi in enumerate(gen_indices):
        if gi == 0:
            raise ConstructionError(
                f"generator {pres.gens[i]!r} collapses to the identity; "
                f"offending relator: {_find_culprit(pres, i)}")

    # BFS words from the identity, as (generator position, exponent) runs,
    # and the tree edges (u, v, perm), u = v*d, in BFS order
    words = [None] * n
    words[0] = ()
    tree = []
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            word = words[v]
            last = word[-1] if word else (-1, 0)
            for d, perm in enumerate(perms):
                u = perm[v]
                if words[u] is None:
                    g, e = d >> 1, -1 if d & 1 else 1
                    if last[0] == g and (last[1] > 0) == (e > 0):
                        words[u] = word[:-1] + ((g, last[1] + e),)
                    else:
                        words[u] = word + ((g, e),)
                    tree.append((u, v, perm))
                    nxt.append(u)
        frontier = nxt
    lefts = []
    for i, s in enumerate(gen_indices):
        left = [0] * n
        left[0] = s
        for u, v, perm in tree:
            left[u] = perm[left[v]]
        for perm in perms:
            if (list(map(left.__getitem__, perm))
                    != list(map(perm.__getitem__, left))):
                raise InternalInvariantError(
                    f"left translation by generator {pres.gens[i]!r} does "
                    f"not commute with the coset action: it is not regular")
        lefts.append(left)
    rows = [None] * n
    rows[0] = list(range(n))
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for left in lefts:
                y = left[x]
                if rows[y] is None:
                    rows[y] = list(map(left.__getitem__, row))
                    nxt.append(y)
        frontier = nxt
    G = CayleyGroup(rows, gen_names=pres.gens, gen_indices=gen_indices,
                    label_words=words, name=name or "presented",
                    check=False)
    G.source_spec = {"gens": list(pres.gens), "relators": list(relator_text)}
    return G


def _render_word(runs, names):
    if not runs:
        return "1"
    return "*".join(names[g] if e == 1 else f"{names[g]}^{e}"
                    for g, e in runs)


def _find_culprit(pres, gen_idx):
    """Leave-one-out search for a relator that trivializes a generator.

    Leaving out a power relator usually leaves an infinite group, so each
    run stops at CULPRIT_VERTEX_CAP vertices and is skipped, as any run
    that fails is."""
    for drop in range(len(pres.relators)):
        reduced = Presentation(
            pres.gens,
            tuple(w for j, w in enumerate(pres.relators) if j != drop))
        try:
            relators = [_relator_directions(w) for w in reduced.relators]
            table = _CosetTable(len(pres.gens), relators,
                                CULPRIT_VERTEX_CAP)
            table.run()
            perms = table.permutations()
            if perms[2 * gen_idx][0] != 0:
                if pres.relator_text:
                    return pres.relator_text[drop]
                return str(pres.relators[drop])
        except Fuchs2Error:
            continue
    return "unknown (every relator needed)"


# -- catalog ----------------------------------------------------------------


# kind -> (least order, greatest order, presentation of the group of order
# n, with h = n/2, q = n/4 and r = n/4 - 1)
CATALOG_FAMILIES = {
    "C": (1, ORDER_CAP, "gens: a\nrels: a^{n}"),
    "D": (4, ORDER_CAP, "gens: a b\nrels: a^{h}, b^2, b*a*b^-1*a"),
    "Q": (8, ORDER_CAP, "gens: a b\nrels: a^{h}, a^{q}*b^-2, b*a*b^-1*a"),
    "QD": (16, ORDER_CAP, "gens: a b\nrels: a^{h}, b^2, b*a*b^-1*a^-{r}"),
}
# the modular group of order 16 and three fixture groups of order 32 and 64
CATALOG_NAMED = {
    "M16": "gens: x1 x2\nrels: x1^8, x2^2, [x2,x1]^2, x1^4*[x2,x1]",
    "SG32_37": "gens: x1 x2 x3\n"
               "rels: x1^8, x2^2, x3^2, x1^4*[x2,x1], [x3,x1], [x3,x2]",
    "SG64_88": "gens: x1 x2 x3\n"
               "rels: x1^8, x2^2, x3^2, [x2,x1]^2, [x2,x1^2], x1^4*[x3,x1], "
               "[x3,x2]",
    "SG64_104": "gens: x1 x2 x3\n"
                "rels: x1^8, x2^4, x3^2, x2^2*[x2,x1], x1^4*[x3,x1], [x3,x2]",
}


@functools.cache
def catalog_presentation(kind, order=None):
    """Presentation for a named catalog group.

    C{2^k} (cyclic), D{2^n} (dihedral), Q{2^n} (generalized quaternion;
    Q8 names its generators i, j) and QD{2^n} (quasidihedral), each for the
    orders of its CATALOG_FAMILIES entry, plus the CATALOG_NAMED groups.
    Each presentation is written once, in the presentation-file grammar,
    and parsed by ``parse_presentation_text`` once per (kind, order): the
    ``Presentation`` is frozen, so every build shares it.
    """
    if kind in CATALOG_NAMED:
        text = CATALOG_NAMED[kind]
    elif kind in CATALOG_FAMILIES:
        low, top, template = CATALOG_FAMILIES[kind]
        if (not isinstance(order, int) or not low <= order <= top
                or order & (order - 1)):
            raise ConstructionError(
                f"{kind}{order}: order must be a power of 2 in [{low}, {top}]")
        text = template.format(n=order, h=order // 2, q=order // 4,
                               r=order // 4 - 1)
        if kind == "Q" and order == 8:  # written in i, j
            text = text.translate(str.maketrans("ab", "ij"))
    else:
        raise ConstructionError(f"unknown catalog group kind {kind!r}")
    from .parsing import parse_presentation_text
    return parse_presentation_text(text)


def catalog_group(kind, order=None, name=None) -> CayleyGroup:
    if name is None:
        name = kind if order is None else f"{kind}{order}"
    if kind == "C" and order == 1:
        # the trivial group; its declared generator is the identity
        G = CayleyGroup([[0]], gen_names=("a",), gen_indices=(0,),
                        label_words=[()], name=name)
        G.source_spec = name
        return G
    pres = catalog_presentation(kind, order)
    G = enumerate_presentation(pres, name=name)
    G.source_spec = name
    return G


def build_group(spec) -> CayleyGroup:
    """Build a group from a spec string, a Presentation, or pass through."""
    if isinstance(spec, CayleyGroup):
        return spec
    if isinstance(spec, Presentation):
        return enumerate_presentation(spec)
    if isinstance(spec, str):
        from .parsing import parse_group_spec
        return parse_group_spec(spec).build()
    raise TypeError(f"cannot build a group from {type(spec).__name__}")


def direct_product(*factors: CayleyGroup) -> CayleyGroup:
    """Componentwise product of one or more groups: (x_1, ..., x_k) has
    index x_1 n_2...n_k + ... + x_k, the left factor most significant, and
    factor generators are renamed on collision.  Everything but the table
    is the left fold of the product of two groups: generator names, label
    words, ``name`` and ``source_spec``.

    The table is built in one pass, right to left.  ``blocks[a][x]`` is
    row x of the product R of the factors taken so far, every entry plus
    a|R|: for the last factor alone, its rows shifted by one C-level map
    each.  A factor F to the left of R makes the row of (u, x) at offset a
    the concatenation, over v, of blocks[a|F| + F.mul[u][v]][x].  So no
    table of an intermediate product is built, and no entry is added to
    after the first shift.
    """
    n = math.prod(G.n for G in factors)
    if n > ORDER_CAP:
        raise SizeCapError(f"product order {n} exceeds {ORDER_CAP}")
    f = factors[-1].n
    blocks = [[list(map((a * f).__add__, row)) for row in factors[-1].mul]
              for a in range(n // f)]
    for F in reversed(factors[:-1]):
        f, grown = F.n, []
        for a in range(0, len(blocks), f):
            shifted = blocks[a:a + f]
            grown.append([functools.reduce(operator.iadd, pieces, [])
                          for row in F.mul
                          for pieces in zip(*map(shifted.__getitem__, row))])
        blocks = grown
    mul = blocks[0]

    gen_names = factors[0].gen_names
    for G in factors[1:]:
        gen_names = _renamed(gen_names + G.gen_names)
    gen_indices, scale = [], n
    for G in factors:
        scale //= G.n
        gen_indices.extend(g * scale for g in G.gen_indices)

    label_words = None
    if all(G.label_words is not None for G in factors):
        # each factor's words, with generator positions moved past the
        # generators of the factors to its left
        label_words, off = [()], 0
        for G in factors:
            moved = [None if w is None else tuple((p + off, e) for p, e in w)
                     for w in G.label_words]
            label_words = [None if u is None or w is None else u + w
                           for u in label_words for w in moved]
            off += len(G.gen_names)

    name, spec = factors[0].name, factors[0].source_spec
    for G in factors[1:]:
        name = f"{name}x{G.name}" if name and G.name else ""
        spec = (f"{spec}x{G.source_spec}" if isinstance(spec, str)
                and isinstance(G.source_spec, str) else None)
    P = CayleyGroup(mul, gen_names=gen_names, gen_indices=gen_indices,
                    label_words=label_words, name=name, check=False)
    P.source_spec = spec
    return P


def _renamed(combined):
    """Generator names with each duplicate given the smallest numeric
    suffix that collides neither with names already assigned nor with raw
    names still to come."""
    gen_names = []
    for pos, s in enumerate(combined):
        if s not in gen_names:
            gen_names.append(s)
            continue
        k = 2
        while f"{s}{k}" in gen_names or f"{s}{k}" in combined[pos + 1:]:
            k += 1
        gen_names.append(f"{s}{k}")
    return tuple(gen_names)


# -- isomorphism -------------------------------------------------------------


@memoized
def _element_fingerprints(G: CayleyGroup):
    n = G.n
    orders = G.element_orders()
    center = set(G.center())
    derived = set(G.derived_subgroup())
    class_size = [0] * n
    for cls in G.conjugacy_classes():
        for x in cls:
            class_size[x] = len(cls)
    sqrt_count = [0] * n
    for y in range(n):
        sqrt_count[G.mul[y][y]] += 1
    return [
        (orders[x], class_size[x], n // class_size[x], sqrt_count[x],
         x in center, x in derived)
        for x in range(n)
    ]


def group_fingerprint(G: CayleyGroup):
    """Cheap isomorphism invariants, used to reject before backtracking."""
    fps = _element_fingerprints(G)
    inv = G.abelian_invariants() if G.is_abelian() else ()
    # the sorted element fingerprints also fix the multiset of orders and
    # the sizes and orders of the center and the derived subgroup
    return (G.n, G.nilpotency_class(), inv, tuple(sorted(fps)))


def generator_map(G: CayleyGroup, gens, images, H: CayleyGroup):
    """The homomorphism <gens> -> H sending gens[j] to images[j], as an
    index list over G with None outside <gens>; None if there is none.

    Walks the Cayley graph of <gens> from the identity: each new element
    y = x*g gets phi(y) = phi(x)*h, and an edge into an element that
    already has a different image is a clash.  A map that agrees with
    right multiplication on every generator edge is a homomorphism,
    because every member of <gens> is a positive word in the generators.
    """
    phi = [None] * G.n
    phi[0] = 0
    members = [0]
    for x in members:
        row, hrow = G.mul[x], H.mul[phi[x]]
        for g, h in zip(gens, images):
            y, hy = row[g], hrow[h]
            if phi[y] is None:
                phi[y] = hy
                members.append(y)
            elif phi[y] != hy:
                return None
    return phi


def isomorphism(G: CayleyGroup, H: CayleyGroup):
    """Explicit isomorphism G -> H as an index list, or None.

    Strategy: reject on invariant fingerprints, then backtrack over images
    of a minimal generating sequence of G, candidates in index order among
    the elements of H with the same fingerprint.  A prefix of images is
    kept when ``generator_map`` extends it to a homomorphism on the
    subgroup its generators span and that map is injective; a full tuple
    whose map covers G is an isomorphism.  Raises UndecidedError after
    ISO_NODE_BUDGET nodes (never guesses).
    """
    if G.n != H.n:
        return None
    if G.n == 1:
        return [0]
    if group_fingerprint(G) != group_fingerprint(H):
        return None

    gens = list(G.minimal_generators())
    fps_g = _element_fingerprints(G)
    fps_h = _element_fingerprints(H)
    candidates = [
        [h for h in range(H.n) if fps_h[h] == fps_g[g]] for g in gens
    ]
    nodes = 0
    # depth first over image tuples, on an explicit stack (a recursive
    # closure would keep the tables alive until a full collection):
    # images is the prefix and pending[i] iterates the candidates for
    # gens[i]
    images = []
    pending = [iter(candidates[0])]
    while pending:
        i = len(images)
        for h in pending[-1]:
            nodes += 1
            if nodes > ISO_NODE_BUDGET:
                raise UndecidedError(
                    f"isomorphism search exceeded {ISO_NODE_BUDGET} nodes")
            phi = generator_map(G, gens[:i + 1], images + [h], H)
            if phi is None:
                continue
            mapped = [y for y in phi if y is not None]
            if len(set(mapped)) != len(mapped):
                continue
            if i + 1 < len(gens):
                images.append(h)
                pending.append(iter(candidates[i + 1]))
                break
            if len(mapped) == G.n:
                return phi
        else:
            pending.pop()
            if images:
                images.pop()
    return None


def is_isomorphic(G: CayleyGroup, H: CayleyGroup):
    return isomorphism(G, H) is not None


def verify_homomorphism(G: CayleyGroup, H: CayleyGroup, phi):
    """Check that phi (index list) is a bijective homomorphism, all pairs."""
    if sorted(phi) != list(range(H.n)) or G.n != H.n:
        return False
    for x in range(G.n):
        rowx = G.mul[x]
        hx = H.mul[phi[x]]
        for y in range(G.n):
            if phi[rowx[y]] != hx[phi[y]]:
                return False
    return True


# -- normal subgroups and decomposability ------------------------------------


@memoized
def normal_subgroups(G: CayleyGroup):
    """All normal subgroups, as sorted member tuples, found by closing
    joins of conjugacy classes."""
    classes = [cls for cls in G.conjugacy_classes() if cls != (0,)]
    trivial = (0,)
    found = {trivial: None}
    frontier = [trivial]
    while frontier:
        nxt = []
        for base in frontier:
            for cls in classes:
                if cls[0] in base:
                    continue
                closed = G.subgroup(set(base) | set(cls))
                if closed not in found:
                    if len(found) >= NORMAL_SUBGROUP_CAP:
                        raise SizeCapError(
                            "too many normal subgroups to enumerate")
                    found[closed] = None
                    nxt.append(closed)
        frontier = nxt
    return sorted(found, key=lambda t: (len(t), t))


def direct_factor_pair(G: CayleyGroup):
    """A pair (N1, N2) of complementary nontrivial normal subgroups, or
    None when G is indecomposable.  Deterministic: first pair in the sorted
    normal-subgroup order.  On an abelian group this searches the whole
    subgroup lattice; ``is_indecomposable`` reads the invariants instead."""
    if G.n > INDECOMP_CAP:
        raise SizeCapError(
            f"indecomposability is only decided for order <= {INDECOMP_CAP}")
    subs = normal_subgroups(G)
    by_size = {}
    for s in subs:
        by_size.setdefault(len(s), []).append(s)
    for n1 in subs:
        if len(n1) in (1, G.n):
            continue
        other = G.n // len(n1)
        n1set = set(n1)
        for n2 in by_size.get(other, ()):
            if len(n1set & set(n2)) == 1:
                return (n1, n2)
    return None


def has_cyclic_direct_factor(G: CayleyGroup):
    """True iff G = N x <z> for some central z != 1 of order 2^k, that is,
    iff the involution of <z> lies outside G'G^(2^k) (see ``screeners``)."""
    orders = G.element_orders()
    derived = set(G.derived_subgroup())
    for order in {orders[z] for z in G.center()} - {1}:
        H = set(G.subgroup(
            derived | {G.power(g, order) for g in range(G.n)}))
        if any(G.power(z, order // 2) not in H
               for z in G.center() if orders[z] == order):
            return True
    return False


def is_indecomposable(G: CayleyGroup):
    """True iff G is not a direct product of two nontrivial subgroups.

    An abelian group is indecomposable iff it is cyclic, and a nonabelian
    one with a cyclic direct factor is not, at every order; any other needs
    the normal-subgroup search of ``direct_factor_pair`` (order <= 128)."""
    if G.is_abelian():
        return len(G.abelian_invariants()) <= 1
    return not has_cyclic_direct_factor(G) and direct_factor_pair(G) is None


# -- structure report ---------------------------------------------------------


class StructureReport:
    def __init__(self, order, exponent, nilpotency_class, center,
                 abelian_invariants, indecomposable, minimal_generator_count):
        self.order = order
        self.exponent = exponent
        self.nilpotency_class = nilpotency_class
        self.center = center
        self.abelian_invariants = abelian_invariants
        self.indecomposable = indecomposable
        self.minimal_generator_count = minimal_generator_count

    def to_dict(self):
        return {
            "order": self.order,
            "exponent": self.exponent,
            "nilpotency_class": self.nilpotency_class,
            "center_size": len(self.center),
            "center": list(self.center),
            "abelian_invariants": list(self.abelian_invariants),
            "indecomposable": self.indecomposable,
            "minimal_generator_count": self.minimal_generator_count,
        }


def structure_report(G: CayleyGroup) -> StructureReport:
    invariants = G.abelian_invariants() if G.is_abelian() else ()
    try:
        indec = is_indecomposable(G)
    except SizeCapError:
        indec = None
    return StructureReport(
        order=G.n,
        exponent=G.exponent(),
        nilpotency_class=G.nilpotency_class(),
        center=G.center(),
        abelian_invariants=invariants,
        indecomposable=indec,
        minimal_generator_count=len(G.minimal_generators()),
    )
