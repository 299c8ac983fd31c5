"""Finite 2-groups as explicit multiplication tables.

Groups are constructed from presentations by coset enumeration over the
trivial subgroup (one HLT scan with a union-find over cosets), from the
built-in catalog, whose presentations are written once in the
presentation-file grammar, or as direct products.  Element 0 is always the
identity and element indexing is the coset-discovery order, which is
fixed, so identical inputs always produce identical tables.

Everything downstream (group rings, screeners, the realization pipeline)
consumes the structural data computed here: element orders, centralizers,
conjugacy classes, minimal generating sequences, abelian invariants,
isomorphism testing and indecomposability.  The conjugacy classes are the
one source of the commutator structure: the center, the derived subgroup,
the upper central series and the centralizer orders are read off them.
All of it is exact and exhaustive; there are no probabilistic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

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
ISO_NODE_BUDGET = 10_000_000
INDECOMP_CAP = 128
NORMAL_SUBGROUP_CAP = 50_000
# coset enumeration of the QD presentation outgrows ENUM_VERTEX_CAP above
# order 128 (QD256 needs 324,405 vertices)
QD_ORDER_CAP = 128


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus relator words.

    Each relator is a word stored as a tuple of (generator index, exponent)
    runs; the presented group is the quotient of the free group by their
    normal closure.  ``relator_text`` keeps the source strings for error
    messages.
    """

    gens: tuple[str, ...]
    relators: tuple[tuple[tuple[int, int], ...], ...]
    relator_text: tuple[str, ...] = ()

    def __post_init__(self):
        for word in self.relators:
            for g, _ in word:
                if not 0 <= g < len(self.gens):
                    raise ConstructionError(
                        f"relator uses undeclared generator index {g}")


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


class CayleyGroup:
    """A finite 2-group of order <= 512 given by its full Cayley table.

    mul[x][y] is the index of x*y, index 0 is the identity, and inv[x] is
    the two-sided inverse.  Instances are immutable after construction and
    safe to share between threads; structural queries cache their results.
    """

    def __init__(self, mul, gen_names=(), gen_indices=(), label_words=None,
                 name="", check=True):
        n = len(mul)
        self.n = n
        self.mul = [list(row) for row in mul]
        self.gen_names = tuple(gen_names)
        self.gen_indices = tuple(gen_indices)
        self.label_words = label_words
        self.name = name
        self.source_spec = None
        if check:
            self._verify()
        inv = [None] * n
        for x in range(n):
            y = self.mul[x].index(0)
            if self.mul[y][x] != 0:
                raise ConstructionError(f"element {x} has no two-sided inverse")
            inv[x] = y
        self.inv = inv
        self._orders = None
        self._center = None
        self._classes = None
        self._frattini = None
        self._derived = None
        self._ucs = None
        self._min_gens = None
        self._fingerprints = None
        self._normal_subgroups = None

    def _verify(self):
        n = self.n
        if n == 0 or n & (n - 1):
            raise ConstructionError(f"order {n} is not a power of 2")
        for x in range(n):
            if self.mul[0][x] != x or self.mul[x][0] != x:
                raise ConstructionError("index 0 is not a two-sided identity")
            row = self.mul[x]
            if len(row) != n or sorted(row) != list(range(n)):
                raise ConstructionError(f"row {x} is not a permutation")
        if not kernels.is_associative(self.mul):
            bad = kernels.first_assoc_violation(self.mul)
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

    def element_orders(self):
        if self._orders is None:
            orders = [1] * self.n
            for x in range(1, self.n):
                y, k = x, 1
                while y != 0:
                    y = self.mul[y][x]
                    k += 1
                orders[x] = k
            self._orders = orders
        return self._orders

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

    def center(self):
        """The elements whose conjugacy class is a singleton."""
        if self._center is None:
            self._center = tuple(
                cls[0] for cls in self.conjugacy_classes() if len(cls) == 1)
        return self._center

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

    def conjugacy_classes(self):
        """Classes ordered by least member, each a sorted tuple.

        A class is the closure of one member under conjugation y -> g^-1 y g
        by the generators g of ``kernels.greedy_generators``: conjugation by
        a product is the composite of the conjugations, so O(n d) in all.
        """
        if self._classes is None:
            m, n = self.mul, self.n
            conj = [[m[r][g] for r in m[self.inv[g]]]
                    for g in kernels.greedy_generators(m) if g]
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
            self._classes = classes
        return self._classes

    def derived_subgroup(self):
        """Generated by the commutators [x, g] = x^-1 x^g, which are the
        x^-1 y for y in the class of x."""
        if self._derived is None:
            m, inv = self.mul, self.inv
            comms = {m[inv[x]][y] for cls in self.conjugacy_classes()
                     for x in cls for y in cls}
            self._derived = self.subgroup(sorted(comms))
        return self._derived

    def frattini_subgroup(self):
        """Generated by all squares and commutators (p = 2)."""
        if self._frattini is None:
            gens = {self.mul[x][x] for x in range(self.n)}
            gens.update(self.derived_subgroup())
            self._frattini = self.subgroup(sorted(gens))
        return self._frattini

    def upper_central_series(self):
        """[{1}, Z(G), Z_2(G), ...] ending at G (or stalling for non-nilpotent,
        which cannot happen for 2-groups).

        x lies in Z_{i+1} exactly when every [x, g] = x^-1 x^g lies in Z_i,
        that is when x^-1 y does for every y in the class of x.  Z_{i+1} is
        normal, so one member of a class decides the whole class.
        """
        if self._ucs is None:
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
            self._ucs = series
        return self._ucs

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

    def minimal_generating_sequences(self):
        """Yield minimal generating sequences in lexicographic index order.

        Each sequence projects to a basis of G modulo the Frattini subgroup,
        so all have the same length.  The first yield is the greedy choice.

        Every span S grown here contains Phi(G), which holds all squares
        and commutators, so S is normal and x^2 lies in S.  Then Sx = xS
        and Sx * Sx = Sx^2 = S, so S u Sx is closed under products: it is
        <S, x>, and growing a span costs 2|S| table lookups.
        """
        frat = self.frattini_subgroup()
        if len(frat) == self.n:  # trivial group
            yield ()
            return
        mul = self.mul

        def extend(prefix, span):
            if len(span) == self.n:
                yield tuple(prefix)
                return
            for x in range(1, self.n):
                if x not in span:
                    yield from extend(prefix + [x],
                                      span | {mul[s][x] for s in span})

        yield from extend([], frozenset(frat))

    def minimal_generators(self):
        if self._min_gens is None:
            self._min_gens = next(self.minimal_generating_sequences())
        return self._min_gens

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

    def labels(self):
        return [self.label(x) for x in range(self.n)]

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
    """HLT coset enumeration over the trivial subgroup.

    Directions 2i / 2i+1 are generator i and its inverse; the relators
    g g^-1 and g^-1 g define every edge.  Vertices are merged through a
    union-find that keeps the smaller index as root.  One scan, in
    discovery order, traces every relator from every live vertex, and that
    completes the table (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005, 5.1): a vertex live at the end was live when the
    scan reached it, and a merge maps closed relator loops to closed loops.
    The discovery order fixes the final numbering, hence element indexing.
    """

    def __init__(self, ngens, relators):
        self.nd = 2 * ngens
        self.relators = [rel for rel in relators]
        # tracing g then g^-1 (and vice versa) must return home
        for i in range(ngens):
            self.relators.append((2 * i, 2 * i + 1))
            self.relators.append((2 * i + 1, 2 * i))
        self.labels = []
        self.neighbors = []
        self._new_vertex()

    def _new_vertex(self):
        if len(self.labels) >= ENUM_VERTEX_CAP:
            raise SizeCapError(
                f"coset enumeration exceeded {ENUM_VERTEX_CAP} vertices; "
                f"the presented group is too large or infinite")
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([_UNDEF] * self.nd)
        return c

    def find(self, c):
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def follow(self, c, d):
        c = self.find(c)
        t = self.neighbors[c][d]
        if t == _UNDEF:
            t = self._new_vertex()
            self.neighbors[c][d] = t
        return self.find(t)

    def unify(self, c1, c2):
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.labels[b] = a
            na, nb = self.neighbors[a], self.neighbors[b]
            for d in range(self.nd):
                t = nb[d]
                if t == _UNDEF:
                    continue
                if na[d] == _UNDEF:
                    na[d] = t
                else:
                    queue.append((na[d], t))

    def run(self):
        i = 0
        while i < len(self.labels):
            if self.find(i) == i:
                for rel in self.relators:
                    c = i
                    for d in rel:
                        c = self.follow(c, d)
                    self.unify(c, i)
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
    """Build the Cayley table of a presented group (order cap 512)."""
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

    # BFS words from the identity; building mul columns incrementally makes
    # the table O(n^2) even for long cyclic groups.
    words = [None] * n
    cols = [None] * n
    words[0] = ()
    cols[0] = list(range(n))
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for d in range(table.nd):
                u = perms[d][v]
                if words[u] is None:
                    words[u] = words[v] + (d,)
                    col = cols[v]
                    perm = perms[d]
                    cols[u] = [perm[c] for c in col]
                    nxt.append(u)
        frontier = nxt
    mul = [[cols[y][x] for y in range(n)] for x in range(n)]
    label_words = [_compress_word(words[x]) for x in range(n)]
    G = CayleyGroup(mul, gen_names=pres.gens, gen_indices=gen_indices,
                    label_words=label_words, name=name or "presented")
    G.source_spec = {"gens": list(pres.gens), "relators": list(relator_text)}
    return G


def _render_word(runs, names):
    if not runs:
        return "1"
    return "*".join(names[g] if e == 1 else f"{names[g]}^{e}"
                    for g, e in runs)


def _compress_word(dirs):
    """Direction sequence -> (generator position, exponent) runs."""
    runs = []
    for d in dirs:
        g, e = d >> 1, -1 if d & 1 else 1
        if runs and runs[-1][0] == g and (runs[-1][1] > 0) == (e > 0):
            runs[-1] = (g, runs[-1][1] + e)
        else:
            runs.append((g, e))
    return tuple(runs)


def _find_culprit(pres, gen_idx):
    """Leave-one-out search for a relator that trivializes a generator."""
    for drop in range(len(pres.relators)):
        reduced = Presentation(
            pres.gens,
            tuple(w for j, w in enumerate(pres.relators) if j != drop))
        try:
            relators = [_relator_directions(w) for w in reduced.relators]
            table = _CosetTable(len(pres.gens), relators)
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
    "QD": (16, QD_ORDER_CAP,
           "gens: a b\nrels: a^{h}, b^2, b*a*b^-1*a^-{r}"),
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


def catalog_presentation(kind, order=None):
    """Presentation for a named catalog group.

    C{2^k} (cyclic), D{2^n} (dihedral), Q{2^n} (generalized quaternion;
    Q8 names its generators i, j) and QD{2^n} (quasidihedral), each for the
    orders of its CATALOG_FAMILIES entry, plus the CATALOG_NAMED groups.
    Each presentation is written once, in the presentation-file grammar,
    and parsed by ``parse_presentation_text``.
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


def direct_product(G: CayleyGroup, H: CayleyGroup) -> CayleyGroup:
    """Componentwise product; factor generators are renamed on collision."""
    n = G.n * H.n
    if n > ORDER_CAP:
        raise SizeCapError(f"product order {n} exceeds {ORDER_CAP}")
    nh = H.n
    mul = []
    for xg in range(G.n):
        row_g = G.mul[xg]
        for xh in range(nh):
            row_h = H.mul[xh]
            mul.append([row_g[yg] * nh + row_h[yh]
                        for yg in range(G.n) for yh in range(nh)])

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


# -- isomorphism -------------------------------------------------------------


def _element_fingerprints(G: CayleyGroup):
    if G._fingerprints is not None:
        return G._fingerprints
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
    fps = [
        (orders[x], class_size[x], n // class_size[x], sqrt_count[x],
         x in center, x in derived)
        for x in range(n)
    ]
    G._fingerprints = fps
    return fps


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

    def backtrack(images):
        nonlocal nodes
        i = len(images)
        for h in candidates[i]:
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
                found = backtrack(images + [h])
                if found is not None:
                    return found
            elif len(mapped) == G.n:
                return phi
        return None

    return backtrack([])


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


def normal_subgroups(G: CayleyGroup):
    """All normal subgroups, as sorted member tuples, found by closing
    joins of conjugacy classes."""
    if G._normal_subgroups is not None:
        return G._normal_subgroups
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
    result = sorted(found, key=lambda t: (len(t), t))
    G._normal_subgroups = result
    return result


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


def is_indecomposable(G: CayleyGroup):
    """True iff G is not a direct product of two nontrivial subgroups.

    An abelian group is indecomposable exactly when it is cyclic, so its
    invariants decide it at every order; a nonabelian group needs the
    normal-subgroup search of ``direct_factor_pair`` (order <= 128)."""
    if G.is_abelian():
        return len(G.abelian_invariants()) <= 1
    return direct_factor_pair(G) is None


# -- structure report ---------------------------------------------------------


@dataclass
class StructureReport:
    order: int
    exponent: int
    nilpotency_class: int
    center: tuple[int, ...]
    abelian_invariants: tuple[int, ...]
    indecomposable: bool | None
    minimal_generator_count: int

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
