"""Text grammars: group specs, element literals, presentation files.

One whitespace-insensitive grammar covers every textual surface:

  group spec    :=  atom ('x' atom)*
  atom          :=  C<n> | D<n> | Q<n> | QD<n> | M16 | SG32_37
                 |  SG64_88 | SG64_104 | file:<path>
  element       :=  term (('+'|'-') term)*
  term          :=  [coeff '*'] word
  word          :=  '1' | factor ('*'? factor)*
  factor        :=  gen ['^' int] | '[' word ',' word ']'

'^' binds tighter than '*', which binds tighter than '+'/'-'; the
commutator [x, y] means x^-1 * y^-1 * x * y.  Coefficients are decimal
residues mod 2^m.  Generator names are resolved against the group being
parsed into, longest match first.  In group specs the product separator is
a literal 'x', which a file path may contain too: the path runs up to the
first 'x' whose remainder parses as a group spec, or else to the end of the
spec.  So file:dir/box.pres and file:g.txt are single atoms, while
file:g.presxC2 is a product with C2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .groups import (
    CayleyGroup,
    ORDER_CAP,
    Presentation,
    catalog_group,
    direct_product,
    enumerate_presentation,
)

_ATOM_RE = re.compile(
    r"QD(\d+)|C(\d+)|D(\d+)|Q(\d+)|M16|SG32_37|SG64_88|SG64_104")


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group expression: a product of named atoms."""

    atoms: tuple[tuple, ...]  # ("C", 8) | ("QD", 16) | ("M16",) | ("file", path)

    def __str__(self):
        return "x".join(self._atom_str(a) for a in self.atoms)

    @staticmethod
    def _atom_str(atom):
        if atom[0] == "file":
            return f"file:{atom[1]}"
        if len(atom) == 2:
            return f"{atom[0]}{atom[1]}"
        return atom[0]

    def build(self) -> CayleyGroup:
        group = None
        for atom in self.atoms:
            if atom[0] == "file":
                pres = parse_presentation_file(atom[1])
                g = enumerate_presentation(pres, name=f"file:{atom[1]}")
            elif len(atom) == 2:
                g = catalog_group(atom[0], atom[1])
            else:
                g = catalog_group(atom[0])
            group = g if group is None else direct_product(group, g)
        group.name = str(self)
        group.source_spec = str(self)
        return group


def _parse_atoms(src, pos):
    """The atoms of src[pos:], or ParseError at the first bad position."""
    atoms = []
    while True:
        if src.startswith("file:", pos):
            start = pos + len("file:")
            for cut in range(start + 1, len(src)):
                if src[cut] != "x":
                    continue
                try:
                    rest = _parse_atoms(src, cut + 1)
                except ParseError:
                    continue
                return atoms + [("file", src[start:cut])] + rest
            if start == len(src):
                raise ParseError("empty file path", src, start)
            return atoms + [("file", src[start:])]
        m = _ATOM_RE.match(src, pos)
        if not m:
            raise ParseError("expected a group atom "
                             "(Cn, Dn, Qn, QDn, M16, SG32_37, SG64_88, "
                             "SG64_104, file:<path>)", src, pos)
        qd, c, d, q = m.groups()
        if qd is not None:
            atoms.append(("QD", int(qd)))
        elif c is not None:
            atoms.append(("C", int(c)))
        elif d is not None:
            atoms.append(("D", int(d)))
        elif q is not None:
            atoms.append(("Q", int(q)))
        else:
            atoms.append((m.group(0),))
        pos = m.end()
        if pos == len(src):
            return atoms
        if src[pos] != "x":
            raise ParseError("expected 'x' between atoms", src, pos)
        pos += 1


def parse_group_spec(text) -> GroupSpec:
    src = "".join(text.split())
    if not src:
        raise ParseError("empty group spec")
    atoms = _parse_atoms(src, 0)
    order = 1
    for atom in atoms:
        if len(atom) == 2 and atom[0] != "file":
            n = atom[1]
            if n < 1 or n & (n - 1):
                raise ParseError(f"{atom[0]}{n}: {n} is not a power of 2",
                                 src, 0)
            order *= n
            if order > ORDER_CAP:
                raise ParseError(f"product order exceeds {ORDER_CAP}", src, 0)
    return GroupSpec(tuple(atoms))


# -- word / element-literal parsing -----------------------------------------


class _WordParser:
    """Recursive-descent parser over one compact token stream."""

    def __init__(self, text, names):
        self.src = "".join(text.split())
        self.pos = 0
        # longest-match generator tokens
        self.names = sorted(names, key=len, reverse=True)

    def error(self, message):
        raise ParseError(message, self.src, self.pos)

    def peek(self):
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.src[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.src[start:self.pos])

    def gen_name(self):
        for name in self.names:
            if self.src.startswith(name, self.pos):
                self.pos += len(name)
                return name
        return None

    def factor(self):
        """-> list of (name, exp) runs."""
        if self.peek() == "[":
            self.pos += 1
            left = self.word(stop="],")
            self.eat(",")
            right = self.word(stop="]")
            self.eat("]")
            inv_l = [(g, -e) for g, e in reversed(left)]
            inv_r = [(g, -e) for g, e in reversed(right)]
            comm = inv_l + inv_r + left + right
            if self.peek() == "^":
                self.pos += 1
                exp = self.integer()
                if exp < 0:
                    comm = [(g, -e) for g, e in reversed(comm)]
                    exp = -exp
                return comm * exp
            return comm
        name = self.gen_name()
        if name is None:
            self.error("expected a generator name")
        exp = 1
        if self.peek() == "^":
            self.pos += 1
            exp = self.integer()
        return [(name, exp)]

    def word(self, stop=""):
        """-> list of (name, exp) runs; '1' is the empty word."""
        if self.peek() == "1":
            self.pos += 1
            return []
        runs = self.factor()
        while True:
            ch = self.peek()
            if ch == "" or ch in stop or ch in "+-":
                return runs
            if ch == "*":
                self.pos += 1
            runs += self.factor()

    def term(self):
        """-> (coefficient or None, word runs).

        A bare number is a scalar term (coefficient times the identity),
        so literals like '2i+2' from characteristic-4 ideals parse.
        """
        if self.peek().isdigit():
            num_end = self.pos
            while num_end < len(self.src) and self.src[num_end].isdigit():
                num_end += 1
            nxt = self.src[num_end] if num_end < len(self.src) else ""
            coeff = int(self.src[self.pos:num_end])
            if nxt == "*":
                self.pos = num_end + 1
                return coeff, self.word()
            if nxt == "" or nxt in "+-":
                self.pos = num_end
                return coeff, []
            # juxtaposed coefficient: '2i' style
            self.pos = num_end
            return coeff, self.word()
        return None, self.word()


def parse_word(text, names):
    """Parse a relator-style word into (name, exponent) runs."""
    p = _WordParser(text, names)
    runs = p.word()
    if p.pos != len(p.src):
        p.error("trailing input after word")
    return runs


def _word_to_element(runs, group: CayleyGroup):
    index = {name: group.gen_indices[i]
             for i, name in enumerate(group.gen_names)}
    x = 0
    for name, exp in runs:
        if name not in index:
            raise ParseError(f"unknown generator {name!r} "
                             f"(group has {', '.join(group.gen_names)})")
        x = group.mul[x][group.power(index[name], exp)]
    return x


def parse_element_literal(text, group: CayleyGroup, m: int):
    """Parse an element literal into a coefficient tuple mod 2^m."""
    mod = 1 << m
    p = _WordParser(text, group.gen_names)
    coeffs = [0] * group.n
    sign = 1
    if p.peek() == "-":
        p.pos += 1
        sign = -1
    while True:
        coeff, runs = p.term()
        if coeff is None:
            coeff = 1
        if coeff >= mod:
            p.error(f"coefficient {coeff} out of range for characteristic 2^{m}")
        g = _word_to_element(runs, group)
        coeffs[g] = (coeffs[g] + sign * coeff) % mod
        if p.pos == len(p.src):
            break
        ch = p.peek()
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            p.error("expected '+' or '-' between terms")
        p.pos += 1
    return tuple(coeffs)


def element_literal(coeffs, group: CayleyGroup) -> str:
    """Canonical literal: terms in element-index order, unit coefficients
    omitted.  parse_element_literal round-trips this exactly."""
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


# -- presentation files -------------------------------------------------------


def parse_presentation_text(text) -> Presentation:
    """Parse the two-line presentation format:

        gens: a b
        rels: a^8, a^4*b^-2, b*a*b^-1*a
    """
    gens = None
    rel_text = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("gens:"):
            gens = tuple(line[5:].split())
        elif line.lower().startswith("rels:"):
            rel_text.extend(_split_relators(line[5:]))
        else:
            raise ParseError(f"unrecognized presentation line: {line!r}")
    if gens is None:
        raise ParseError("presentation file has no 'gens:' line")
    if not gens:
        raise ParseError("presentation declares no generators")
    pos = {name: i for i, name in enumerate(gens)}
    relators = []
    for rel in rel_text:
        runs = parse_word(rel, gens)
        relators.append(tuple((pos[name], exp) for name, exp in runs))
    return Presentation(gens, tuple(relators), tuple(rel_text))


def _split_relators(text):
    """Split a relator list on commas outside commutator brackets."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_presentation_file(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation_text(fh.read())
