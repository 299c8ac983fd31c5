"""Independent checks of the program's outputs, in the benchmark's own
arithmetic.

Nothing here calls the program's ring, ideal, parsing or verification code.
The only things taken from the program are the inputs it was given: the
Cayley table of each group (``mul``, ``n``, ``gen_names``, ``gen_indices``).
Element literals and relator words are parsed by the small parser below,
products are naive convolutions over the Cayley table, and spans are
computed by this module's own elimination (bitmask echelon over GF(2), a
Smith-style valuation elimination over Z/2^m).

``check_certificate`` proves that a certificate's residue ring has unit
group isomorphic to the target group:

* the ideal basis is closed under left and right multiplication by the
  ambient group's generators, so its span is a two-sided ideal I;
* every basis row has even augmentation, so I lies in the augmentation-even
  maximal ideal and R/I is local with residue field GF(2);
* |R/I| equals ``quotient_size`` equals 2|G|, so R/I has exactly |G| units;
* the witness images are units, satisfy the target's defining relators
  modulo I (so g -> image extends to a homomorphism G -> (R/I)^*), and
  generate exactly |G| distinct residues (so that homomorphism is onto and
  hence bijective).

Run this file to execute the self-test: a certificate with one basis
literal and one witness literal altered must be rejected.
"""

from __future__ import annotations

# Presentations of the catalog atoms the benchmark uses, written out here
# rather than read from the program.  Generator names are the catalog's,
# so they match the names the program gives the factors of a product.
ATOM_PRESENTATIONS = {
    "C2": (("a",), ("a^2",)),
    "C4": (("a",), ("a^4",)),
    "C8": (("a",), ("a^8",)),
    "C16": (("a",), ("a^16",)),
    "D8": (("a", "b"), ("a^4", "b^2", "b*a*b*a")),
    "Q8": (("i", "j"), ("i^4", "i^2*j^-2", "i*j*i*j^-1")),
}


# -- words and literals ---------------------------------------------------


class _Reader:
    def __init__(self, text, names):
        self.s = "".join(text.split())
        self.i = 0
        self.names = sorted(names, key=len, reverse=True)

    def peek(self):
        return self.s[self.i] if self.i < len(self.s) else ""

    def fail(self, what):
        raise ValueError(f"{what} at {self.i} in {self.s!r}")

    def number(self):
        j = self.i
        if self.peek() == "-":
            self.i += 1
        while self.peek().isdigit():
            self.i += 1
        if self.s[j:self.i] in ("", "-"):
            self.fail("expected an integer")
        return int(self.s[j:self.i])

    def factor(self):
        if self.peek() == "[":
            self.i += 1
            x = self.word("],")
            if self.peek() != ",":
                self.fail("expected ','")
            self.i += 1
            y = self.word("]")
            if self.peek() != "]":
                self.fail("expected ']'")
            self.i += 1
            runs = invert_word(x) + invert_word(y) + x + y
        else:
            for name in self.names:
                if self.s.startswith(name, self.i):
                    self.i += len(name)
                    runs = [(name, 1)]
                    break
            else:
                self.fail("expected a generator")
        if self.peek() == "^":
            self.i += 1
            k = self.number()
            runs = (runs if k > 0 else invert_word(runs)) * abs(k)
        return runs

    def word(self, stop=""):
        if self.peek() == "1":
            self.i += 1
            return []
        runs = self.factor()
        while self.peek() not in ("", "+", "-") and self.peek() not in stop:
            if self.peek() == "*":
                self.i += 1
            runs += self.factor()
        return runs


def invert_word(runs):
    return [(name, -k) for name, k in reversed(runs)]


def parse_word(text, names):
    """Relator-style word -> list of (generator name, exponent)."""
    r = _Reader(text, names)
    runs = r.word()
    if r.i != len(r.s):
        r.fail("trailing input")
    return runs


def parse_literal(text, G, m):
    """Element literal 'c*word + ...' -> coefficient list mod 2^m over G."""
    mod = 1 << m
    r = _Reader(text, G.gen_names)
    coeffs = [0] * G.n
    sign = 1
    if r.peek() == "-":
        r.i += 1
        sign = -1
    while True:
        coeff = 1
        if r.peek().isdigit():
            j = r.i
            while r.peek().isdigit():
                r.i += 1
            coeff = int(r.s[j:r.i])
            if r.peek() == "*":
                r.i += 1
                runs = r.word()
            elif r.peek() in ("", "+", "-"):
                runs = []
            else:
                runs = r.word()
        else:
            runs = r.word()
        g = word_element(runs, G)
        coeffs[g] = (coeffs[g] + sign * coeff) % mod
        if r.i == len(r.s):
            return coeffs
        if r.peek() not in "+-":
            r.fail("expected '+' or '-'")
        sign = 1 if r.peek() == "+" else -1
        r.i += 1


def word_element(runs, G):
    """Group element index of a word, by walking the Cayley table."""
    gen = dict(zip(G.gen_names, G.gen_indices))
    x = 0
    for name, k in runs:
        g = gen[name]
        if k < 0:
            g = G.mul[g].index(0)
        for _ in range(abs(k)):
            x = G.mul[x][g]
    return x


# -- spans ------------------------------------------------------------------


def _val2(x):
    return (x & -x).bit_length() - 1


def _smith_log2_size(rows, m):
    """log2 of the size of the Z/2^m-span of integer rows.

    Repeatedly takes an entry of least 2-adic valuation v as pivot; its row
    spans a cyclic summand of order 2^(m-v) that meets the span of the
    other rows (cleared in the pivot column) only in 0.
    """
    mod = 1 << m
    rows = [[x % mod for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    total = 0
    while rows:
        v, i, j = min((_val2(x), i, j) for i, r in enumerate(rows)
                      for j, x in enumerate(r) if x)
        piv = rows.pop(i)
        total += m - v
        rest = []
        for r in rows:
            q = (r[j] >> v) * pow(piv[j] >> v, -1, mod)
            r = [(a - q * b) % mod for a, b in zip(r, piv)] if r[j] else r
            if any(r):
                rest.append(r)
        rows = rest
    return total


class Span:
    """Additive span of coefficient rows over Z/2^m.

    For m = 1 rows are bitmasks in echelon form (pivot = lowest set bit),
    and ``reduce`` returns the canonical coset representative with zeros
    at every pivot column.  For m > 1 the span is kept as its row list and
    membership is decided by comparing span sizes.
    """

    def __init__(self, m, rows=()):
        self.m = m
        self.rows = []
        self.log2 = 0
        for r in rows:
            self.add(r)

    def reduce(self, v):
        for r in self.rows:
            if v & r & -r:
                v ^= r
        return v

    def add(self, v):
        if self.m == 1:
            v = self.reduce(pack(v) if not isinstance(v, int) else v)
            if v:
                self.rows.append(v)
                self.rows.sort(key=lambda r: r & -r)
                self.log2 += 1
        else:
            self.rows.append(list(v))
            self.log2 = _smith_log2_size(self.rows, self.m)

    def contains(self, v):
        if self.m == 1:
            return self.reduce(pack(v) if not isinstance(v, int) else v) == 0
        return _smith_log2_size(self.rows + [list(v)], self.m) == self.log2


def pack(coeffs):
    mask = 0
    for g, c in enumerate(coeffs):
        if c & 1:
            mask |= 1 << g
    return mask


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def translate(v, perm, m):
    """Coefficients moved along an index permutation (a group translation)."""
    if m == 1:
        return sum(1 << perm[g] for g in _bits(v))
    out = [0] * len(v)
    for h, c in enumerate(v):
        out[perm[h]] = c
    return out


def is_two_sided(G, span, rows):
    """Every row times every generator, on either side, stays in the span."""
    m = span.m
    for g in G.gen_indices:
        left = G.mul[g]
        right = [G.mul[h][g] for h in range(G.n)]
        for r in rows:
            if not (span.contains(translate(r, left, m))
                    and span.contains(translate(r, right, m))):
                return False
    return True


# -- arithmetic in R/I --------------------------------------------------------


class Residues:
    """Multiplication in Z_{2^m}[G]/I by naive convolution."""

    def __init__(self, G, span):
        self.G = G
        self.span = span
        self.m = span.m
        self.one = self.canon([1] + [0] * (G.n - 1))

    def canon(self, coeffs):
        if self.m == 1:
            return self.span.reduce(pack(coeffs))
        return list(coeffs)

    def mul(self, a, b):
        mul = self.G.mul
        if self.m == 1:
            out = 0
            for g in _bits(a):
                row = mul[g]
                for h in _bits(b):
                    out ^= 1 << row[h]
            return self.span.reduce(out)
        mod = 1 << self.m
        out = [0] * self.G.n
        for g, x in enumerate(a):
            if x:
                row = mul[g]
                for h, y in enumerate(b):
                    if y:
                        out[row[h]] = (out[row[h]] + x * y) % mod
        return out

    def equal(self, a, b):
        if self.m == 1:
            return a == b
        mod = 1 << self.m
        return self.span.contains([(x - y) % mod for x, y in zip(a, b)])

    def inverse(self, u, bound):
        """u^(k-1) where u^k = 1, k <= bound; None if no such k."""
        p, prev = u, self.one
        for _ in range(bound):
            if self.equal(p, self.one):
                return prev
            prev, p = p, self.mul(p, u)
        return None

    def evaluate(self, runs, images, bound):
        x = self.one
        for name, k in runs:
            u = images[name]
            if k < 0:
                u = self.inverse(u, bound)
                if u is None:
                    return None
            for _ in range(abs(k)):
                x = self.mul(x, u)
        return x

    def generated_count(self, gens, cap):
        """Distinct residues in the monoid generated by gens, stopping once
        the count exceeds cap."""
        found = [self.one]
        keys = {self.one} if self.m == 1 else None
        frontier = [self.one]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if self.m == 1:
                        if y in keys:
                            continue
                        keys.add(y)
                    elif any(self.equal(y, z) for z in found):
                        continue
                    found.append(y)
                    nxt.append(y)
                    if len(found) > cap:
                        return len(found)
            frontier = nxt
        return len(found)


# -- certificate and property checks -------------------------------------------


def product_relators(atoms, gen_names, atom_presentations=None):
    """Defining relators of a direct product of catalog atoms, as words in
    the product's generator names: each factor's relators plus the
    commutators of generators from different factors."""
    table = dict(ATOM_PRESENTATIONS)
    table.update(atom_presentations or {})
    words, blocks, pos = [], [], 0
    for atom in atoms:
        names, rels = table[atom]
        local = list(gen_names[pos:pos + len(names)])
        rename = dict(zip(names, local))
        for rel in rels:
            words.append([(rename[g], k) for g, k in parse_word(rel, names)])
        blocks.append(local)
        pos += len(names)
    if pos != len(gen_names):
        raise ValueError("factor generators do not match the product")
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            for x in bi:
                for y in bj:
                    words.append([(x, -1), (y, -1), (x, 1), (y, 1)])
    return words


def check_certificate(doc, ambient, target, relators):
    """Problems found in a certificate document ([] when it is valid).

    ``ambient`` and ``target`` are the groups named by the certificate;
    ``relators`` are defining relators of the target, as lists of
    (generator name, exponent).
    """
    problems = []
    char = doc["char"]
    m = char.bit_length() - 1
    if char < 2 or char != 1 << m:
        return [f"characteristic {char} is not a power of 2"]
    order = target.n
    try:
        rows = [parse_literal(t, ambient, m) for t in doc["ideal_basis"]]
        images = {g: parse_literal(t, ambient, m)
                  for g, t in doc["iso_witness"].items()}
    except (ValueError, KeyError) as exc:
        return [f"unparsable literal: {exc}"]
    if any(sum(r) % 2 for r in rows):
        problems.append("a basis row has odd augmentation")
    span = Span(m, rows)
    if m == 1:
        rows = [pack(r) for r in rows]
    if not is_two_sided(ambient, span, rows):
        problems.append("basis span is not closed under generator "
                        "translations")
    index_log2 = m * ambient.n - span.log2
    if doc["quotient_size"] != 2 * order or index_log2 != order.bit_length():
        problems.append(f"ideal index 2^{index_log2}, quotient_size "
                        f"{doc['quotient_size']}, expected {2 * order}")
    if set(images) != set(target.gen_names):
        return problems + ["witness does not name the target's generators"]
    if any(sum(v) % 2 == 0 for v in images.values()):
        problems.append("a witness image is not a unit")
    if problems:
        return problems
    ring = Residues(ambient, span)
    images = {g: ring.canon(v) for g, v in images.items()}
    for runs in relators:
        value = ring.evaluate(runs, images, order)
        if value is None or not ring.equal(value, ring.one):
            problems.append(f"relator {runs} fails on the witness")
            break
    count = ring.generated_count([images[g] for g in target.gen_names], order)
    if count != order:
        problems.append(f"witness generates {count} residues, expected "
                        f"{order}")
    return problems


def check_complement_basis(G, rows):
    """Problems with an encode-large ideal basis ([] when all hold): rank
    |G| - log2|G| - 1, even support on every row, two-sided."""
    problems = []
    masks = [pack(r) for r in rows]
    span = Span(1, masks)
    k = G.n.bit_length() - 1
    if span.log2 != G.n - k - 1 or len(masks) != span.log2:
        problems.append(f"rank {span.log2} of {len(masks)} rows, expected "
                        f"{G.n - k - 1}")
    if any(bin(r).count("1") % 2 for r in masks):
        problems.append("a row has odd support")
    if not is_two_sided(G, span, masks):
        problems.append("basis span is not two-sided")
    return problems


def self_test(doc, group, relators):
    """Problems with the check itself ([] when it behaves): the intact
    certificate passes, and altering one basis literal, one witness
    literal, or both, gets it rejected.

    The basis alteration adds one group element to the first row, which
    puts a unit into the ideal.  The witness alteration maps the first
    generator to the second generator's image, so the images generate a
    proper subgroup."""
    first, second = group.gen_names[:2]
    bad_basis = dict(doc, ideal_basis=[doc["ideal_basis"][0] + "+" + first]
                     + doc["ideal_basis"][1:])
    bad_witness = dict(doc, iso_witness=dict(
        doc["iso_witness"], **{first: doc["iso_witness"][second]}))
    both = dict(bad_basis, iso_witness=bad_witness["iso_witness"])
    problems = []
    if check_certificate(doc, group, group, relators):
        problems.append("self-test: intact certificate rejected")
    for label, tampered in (("basis", bad_basis), ("witness", bad_witness),
                            ("basis and witness", both)):
        if not check_certificate(tampered, group, group, relators):
            problems.append(f"self-test: altered {label} accepted")
    return problems


def run_self_test(fx):
    """The self-test on a Q8xC4 certificate made by the program ``fx``."""
    import json

    G = fx.groups.build_group("Q8xC4")
    doc = json.loads(fx.star.realize_exponent4(G).to_json())
    return self_test(doc, G, product_relators(("Q8", "C4"), G.gen_names))


if __name__ == "__main__":
    import sys

    import env

    found = run_self_test(env.fresh_import())
    print("\n".join(found) or "self-test passed")
    sys.exit(1 if found else 0)
