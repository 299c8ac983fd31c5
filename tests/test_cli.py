import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchs2.cli import dispatch
from fuchs2.errors import ParseError
from fuchs2.groups import CayleyGroup, build_group, enumerate_presentation
from fuchs2.parsing import (
    PRESENTATION_FILE_CAP,
    _label_terms,
    _parse_literal_words,
    element_literal,
    parse_element_literal,
    parse_element_terms,
    parse_group_spec,
    parse_presentation_text,
    terms_literal,
    unreadable_generator_name,
)

import oracles
from test_star import CLS3_64


# -- group spec grammar -------------------------------------------------------

def test_spec_atoms():
    assert str(parse_group_spec("Q16")) == "Q16"
    assert str(parse_group_spec("C8xC2")) == "C8xC2"
    assert str(parse_group_spec("QD32")) == "QD32"
    assert str(parse_group_spec(" C8 x C2 ")) == "C8xC2"


def test_spec_roundtrip():
    for text in ["C2", "C8xC2", "Q8xQ8", "M16xC2", "SG64_104",
                 "C16xC4xC2xC2", "QD16xC2"]:
        spec = parse_group_spec(text)
        again = parse_group_spec(str(spec))
        assert spec == again


def test_specs_are_immutable_values():
    spec = parse_group_spec("C8xC2")
    again = parse_group_spec(" C8 x C2 ")
    assert spec == again and hash(spec) == hash(again)
    assert len({spec, again, parse_group_spec("C2xC8")}) == 2
    with pytest.raises(AttributeError):
        spec.atoms = (("C", 2),)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert repr(spec) == "GroupSpec(atoms=(('C', 8), ('C', 2)))"


def test_spec_errors():
    with pytest.raises(ParseError):
        parse_group_spec("C6")
    with pytest.raises(ParseError):
        parse_group_spec("Z8")
    with pytest.raises(ParseError):
        parse_group_spec("C8x")
    with pytest.raises(ParseError):
        parse_group_spec("")


def test_qd_vs_q_tokenization():
    spec = parse_group_spec("QD16xQ8")
    assert spec.atoms == (("QD", 16), ("Q", 8))


# -- element literals ---------------------------------------------------------

def test_literal_roundtrip_exhaustive():
    G = build_group("Q8")
    import random
    random.seed(2)
    for m in (1, 2):
        mod = 1 << m
        for _ in range(40):
            coeffs = tuple(random.randrange(mod) for _ in range(G.n))
            lit = element_literal(coeffs, G)
            assert parse_element_literal(lit, G, m) == coeffs, lit


def test_fixture_literals_parse():
    SG = build_group("SG64_88")
    v = parse_element_literal("1+x1+x1^2+x1^3*[x2,x1]", SG, 1)
    assert sum(v) == 4
    Q8 = build_group("Q8")
    v = parse_element_literal("2*i+2", Q8, 2)
    assert v[0] == 2 and sum(v) == 4


def test_literal_whitespace_insensitive():
    G = build_group("C8")
    a = parse_element_literal("1 + a + a^4 + a^5", G, 1)
    b = parse_element_literal("1+a+a^4+a^5", G, 1)
    assert a == b


def test_literal_errors():
    G = build_group("C8")
    with pytest.raises(ParseError):
        parse_element_literal("1+zz", G, 1)
    with pytest.raises(ParseError):
        parse_element_literal("2*a", G, 1)  # coefficient out of range
    with pytest.raises(ParseError):
        parse_element_literal("1+*a", G, 1)


def _presented(text):
    return enumerate_presentation(parse_presentation_text(text))


def _renamed(G, names):
    """G with its generators renamed through the API, which, unlike a
    presentation file, accepts names the word grammar cannot read back."""
    return CayleyGroup(G.mul, gen_names=names, gen_indices=G.gen_indices,
                       label_words=G.label_words, check=False)


# generator names x1..x3, i/j, a/ab (one a prefix of the other), and two
# the word parser reads differently from a sum of labels: x+y next to x
# and y, and 2b, which also reads as 2*b
NAMED_GROUPS = {
    "SG32_37": lambda: build_group("SG32_37"),
    "Q8": lambda: build_group("Q8"),
    "a/ab": lambda: _presented("gens: a ab\nrels: a^4, ab^2, [a,ab]"),
    "x+y": lambda: _renamed(
        _presented("gens: x y z\nrels: x^2, y^2, z^4, [x,y], [x,z], [y,z]"),
        ("x", "y", "x+y")),
    "2b": lambda: _renamed(_presented("gens: b c\nrels: b^2, c^2, [b,c]"),
                           ("b", "2b")),
}


@pytest.mark.parametrize("make", [
    lambda: build_group("Q8xQ8xC4xC2"), lambda: build_group("SG64_88"),
    lambda: build_group("D16xC2"),
    lambda: _presented(CLS3_64),
    *(make for name, make in NAMED_GROUPS.items() if name != "2b")])
def test_every_label_reads_back_to_its_element(make):
    # every named group but 2b, whose label 2b reads as 2*b
    G = make()
    for x in range(G.n):
        unit = tuple(int(g == x) for g in range(G.n))
        assert parse_element_literal(G.label(x), G, 1) == unit
        assert _words_as_dense(G.label(x), G, 1) == unit
    assert all(G.label(x) == label for label, x in G.label_index().items())


@st.composite
def group_and_literal(draw):
    G = NAMED_GROUPS[draw(st.sampled_from(sorted(NAMED_GROUPS)))]()
    names = st.sampled_from(G.gen_names)
    exponents = st.sampled_from(["", "^2", "^-1", "^3", "^-2"])

    def word(depth):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            if depth < 2 and draw(st.integers(0, 5)) == 0:
                factors.append(f"[{word(depth + 1)},{word(depth + 1)}]"
                               + draw(exponents))
            else:
                factors.append(draw(names) + draw(exponents))
        return draw(st.sampled_from(["*", ""])).join(factors)

    def term():
        kind = draw(st.integers(0, 5))
        if kind <= 2:  # what element_literal writes
            return G.label(draw(st.integers(0, G.n - 1)))
        if kind == 3:
            return word(0)
        if kind == 4:
            c = draw(st.integers(0, 9))
            return draw(st.sampled_from([f"{c}", f"{c}*{word(0)}",
                                         f"{c}{word(0)}"]))
        return draw(st.text(alphabet="1a+-*^[],xyij ", max_size=5))

    text = term()
    for _ in range(draw(st.integers(0, 4))):
        text += draw(st.sampled_from(["+", "-", " + ", "- "])) + term()
    if draw(st.booleans()):
        text = "-" + text
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + " " + text[cut:]
    return G, text, draw(st.integers(1, 3))


def _words_as_dense(text, G, m):
    """The word parser's reading of a literal as a dense tuple."""
    support, coeffs = _parse_literal_words(text, G, m)
    dense = [0] * G.n
    for g, c in zip(support, coeffs):
        dense[g] = c
    return tuple(dense)


def _outcome(parse, text, G, m):
    try:
        return parse(text, G, m)
    except Exception as exc:  # the two readings must fail alike
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(case=group_and_literal())
def test_label_index_read_agrees_with_the_word_parser(case):
    G, text, m = case
    assert _outcome(parse_element_literal, text, G, m) == \
        _outcome(_words_as_dense, text, G, m)


def _terms_as_dense(text, G, m):
    support, coeffs = parse_element_terms(text, G, m)
    dense = [0] * G.n
    for g, c in zip(support, coeffs):
        dense[g] = (dense[g] + c) % (1 << m)
    return tuple(dense)


@settings(max_examples=400, deadline=None)
@given(case=group_and_literal())
def test_sparse_terms_read_as_the_dense_literal(case):
    G, text, m = case
    assert _outcome(_terms_as_dense, text, G, m) == \
        _outcome(parse_element_literal, text, G, m)


# catalog groups and products of catalog atoms of order <= 32
CATALOG_32 = [spec for spec in oracles.catalog_specs(32)
              + oracles.atom_products(32, (2, 3))
              if build_group(spec).n <= 32]


@st.composite
def written_terms(draw):
    """A catalog group, m in {2, 3, 6} and sparse terms as certificates
    hold them: increasing support, coefficients in [1, 2^m)."""
    G = build_group(draw(st.sampled_from(CATALOG_32)))
    m = draw(st.sampled_from((2, 3, 6)))
    support = sorted(draw(st.sets(st.integers(0, G.n - 1), min_size=1,
                                  max_size=6)))
    coeffs = [draw(st.integers(1, (1 << m) - 1)) for _ in support]
    return G, m, support, coeffs


@settings(max_examples=300, deadline=None)
@given(case=written_terms())
def test_coefficient_terms_read_through_the_label_index(case):
    # every literal terms_literal writes, c*label and bare c included, is
    # read by the label index, and the word parser reads it the same way
    G, m, support, coeffs = case
    text = terms_literal(support, coeffs, G)
    dense = [0] * G.n
    for g, c in zip(support, coeffs):
        dense[g] = c
    assert _label_terms(text, G, m) == (support, coeffs), text
    assert _words_as_dense(text, G, m) == tuple(dense)
    assert parse_element_literal(text, G, m) == tuple(dense)
    assert parse_element_terms(text, G, m) == (support, coeffs)


@pytest.mark.parametrize("text", ["0*a", "02*a", "4*a", "2*", "*a", "2*zz",
                                  "2**a", "1*a", "a+02", "3*a+4"])
def test_terms_the_label_index_refuses_go_to_the_word_parser(text):
    G = build_group("C8xC2")
    assert _label_terms(text, G, 2) is None
    assert _outcome(parse_element_literal, text, G, 2) == \
        _outcome(_words_as_dense, text, G, 2)
    assert _outcome(_terms_as_dense, text, G, 2) == \
        _outcome(_words_as_dense, text, G, 2)


@st.composite
def signed_word_literals(draw):
    """A catalog group, m in {1, 2, 3, 6}, and 1-6 signed terms c*w, c in
    [1, 2^m) and w a product of up to three generator powers with
    exponents in [-9, 9], as a literal and as the dense vector they sum
    to, computed from the group's table and powers alone."""
    G = build_group(draw(st.sampled_from(CATALOG_32)))
    m = draw(st.sampled_from((1, 2, 3, 6)))
    mod = 1 << m
    dense = [0] * G.n
    text = ""
    for _ in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from((1, -1)))
        c = draw(st.integers(1, mod - 1))
        x, factors = 0, []
        for _ in range(draw(st.integers(0, 3))):
            gen = draw(st.integers(0, len(G.gen_names) - 1))
            e = draw(st.integers(-9, 9))
            x = G.mul[x][G.power(G.gen_indices[gen], e)]
            factors.append(f"{G.gen_names[gen]}^{e}")
        dense[x] = (dense[x] + sign * c) % mod
        term = f"{c}*{'*'.join(factors) or '1'}"
        text += ("-" if sign < 0 else "+" if text else "") + term
    return G, m, text, tuple(dense)


@settings(max_examples=300, deadline=None)
@given(case=signed_word_literals())
def test_word_literals_read_as_the_sum_of_their_terms(case):
    G, m, text, dense = case
    assert parse_element_literal(text, G, m) == dense, text
    assert _terms_as_dense(text, G, m) == dense, text
    if "-" in text.replace("^-", "^"):
        # a '-' term is no label sum, so the word parser reads it
        support, coeffs = parse_element_terms(text, G, m)
        assert support == sorted(set(support)) and all(coeffs), text


# -- presentation files -------------------------------------------------------

def test_presentation_file(tmp_path):
    text = "gens: a b\nrels: a^8, a^4*b^-2, b*a*b^-1*a\n"
    pres = parse_presentation_text(text)
    assert pres.gens == ("a", "b")
    path = tmp_path / "q16.pres"
    path.write_text(text)
    G = build_group(f"file:{path}")
    assert G.n == 16
    assert G.exponent() == 8


def test_presentation_file_with_commutators(tmp_path):
    text = "gens: x1 x2\nrels: x1^8, x2^2, [x2,x1]^2, x1^4*[x2,x1]\n"
    path = tmp_path / "m16.pres"
    path.write_text(text)
    G = build_group(f"file:{path}")
    assert G.n == 16


Q16_TEXT = "gens: a b\nrels: a^8, a^4*b^-2, b*a*b^-1*a\n"


def test_presentation_file_path_containing_x(tmp_path):
    path = tmp_path / "box" / "q16.pres"
    path.parent.mkdir()
    path.write_text(Q16_TEXT)
    assert parse_group_spec(f"file:{path}").atoms == (("file", str(path)),)
    assert build_group(f"file:{path}").n == 16
    assert dispatch(["info", f"file:{path}"]) == 0


@pytest.mark.parametrize("text, bad", [
    ("gens: a 2b\nrels: a^4, 2b^4, [a,2b]\n", "2b"),
    ("gens: a a\nrels: a^4\n", "a"),
    ("gens: x y x+y\nrels: x^2, y^2\n", "x+y"),
    *((f"gens: a b{c}\nrels: a^2\n", f"b{c}") for c in "-*^[],"),
])
def test_unreadable_generator_names_rejected(capsys, tmp_path, text, bad):
    # a name the word grammar cannot read back would give certificates
    # that `verify` cannot parse, and a repeated name shadows the first
    with pytest.raises(ParseError, match="cannot be read back"):
        parse_presentation_text(text)
    path = tmp_path / "bad.pres"
    path.write_text(text)
    for command in ("info", "realize"):
        capsys.readouterr()
        assert dispatch([command, f"file:{path}"]) == 3
        assert repr(bad) in capsys.readouterr().err


def test_unreadable_generator_name_predicate():
    assert unreadable_generator_name(("a", "ab", "x1", "b2")) is None
    for names, bad in [(("a", ""), ""), (("a", "b", "a"), "a"),
                       (("1",), "1"), (("a b",), "a b"), (("x+y",), "x+y")]:
        assert unreadable_generator_name(names) == bad


def test_presentation_file_with_txt_suffix(tmp_path):
    path = tmp_path / "q16.txt"
    path.write_text(Q16_TEXT)
    assert build_group(f"file:{path}").n == 16


def test_presentation_file_size_cap(capsys, tmp_path):
    def padded(name, size):
        # a comment line pads the presentation to exactly `size` bytes
        path = tmp_path / name
        pad = size - len(Q16_TEXT) - 2
        path.write_text(Q16_TEXT + "#" + "-" * pad + "\n")
        assert path.stat().st_size == size
        return path

    at_cap = padded("at_cap.pres", PRESENTATION_FILE_CAP)
    assert dispatch(["info", f"file:{at_cap}"]) == 0
    over = padded("over.pres", PRESENTATION_FILE_CAP + 1)
    capsys.readouterr()
    assert dispatch(["info", f"file:{over}"]) == 3
    assert "longer than" in capsys.readouterr().err
    cert = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8", "--output", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc["ambient"] = f"file:{over}"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify", str(cert)]) == 3
    assert "longer than" in capsys.readouterr().err


def test_presentation_file_in_a_product(tmp_path):
    path = tmp_path / "q16.pres"
    path.write_text(Q16_TEXT)
    spec = parse_group_spec(f"file:{path}xC2")
    assert spec.atoms == (("file", str(path)), ("C", 2))
    assert build_group(f"file:{path}xC2").n == 32
    # a path with an 'x' in it, then a product
    boxed = tmp_path / "box.txt"
    boxed.write_text(Q16_TEXT)
    assert parse_group_spec(f"C2xfile:{boxed}xD8").atoms == \
        (("C", 2), ("file", str(boxed)), ("D", 8))


# -- dispatch -----------------------------------------------------------------

def test_info_exit_code(capsys):
    assert dispatch(["info", "Q8"]) == 0
    assert "order 8" in capsys.readouterr().out


def test_info_json(capsys):
    assert dispatch(["info", "Q8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 8
    assert doc["exponent"] == 4


def test_info_decides_a_cyclic_factor_above_order_128(capsys):
    assert dispatch(["info", "D16xC4xC4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["indecomposable"] is False


def test_screen_exit_codes(capsys):
    assert dispatch(["screen", "Q8"]) == 0
    capsys.readouterr()
    assert dispatch(["screen", "M16"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "not_realizable"
    assert dispatch(["screen", "C16xC2"]) == 2
    capsys.readouterr()


def test_realize_q8(capsys, tmp_path):
    out = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8", "--char", "2",
                     "--output", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotient_size"] == 16
    assert dispatch(["verify", str(out)]) == 0


def test_realize_refuted(capsys):
    assert dispatch(["realize", "C16xC2", "--char", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] in ("unknown", "not_realizable")


@pytest.mark.parametrize("char", [2, 4])
def test_realize_emits_requested_characteristic(capsys, tmp_path, char):
    out = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8", "--char", str(char),
                     "--output", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["char"] == char
    # characteristic 2 keeps the constructive route
    assert doc["method"] == ("star" if char == 2 else "search")
    assert dispatch(["verify", str(out)]) == 0


def test_realize_char_parsing(capsys):
    assert dispatch(["realize", "Q8", "--char", "2^1"]) == 0
    capsys.readouterr()
    assert dispatch(["realize", "Q8", "--char", "3"]) == 3
    for bad in ("abc", "2^x", "2^", "4.0", "3^2", "2^7", "128"):
        assert dispatch(["realize", "Q8", "--char", bad]) == 3, bad


def test_unitgroup(capsys):
    assert dispatch(["unitgroup", "C8", "--char", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["abelian_invariants"] == [8, 4, 2, 2]
    assert dispatch(["unitgroup", "C8", "--char", "2",
                     "--ideal", "1+a+a^4+a^5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["abelian_invariants"] == [8, 2]
    assert doc["quotient_size"] == 32


def test_unitgroup_of_the_trivial_group_prints_c1(capsys):
    assert dispatch(["unitgroup", "C1"]) == 0
    assert capsys.readouterr().out == "Z_2[C1]: 1 units, invariants C1\n"
    assert dispatch(["unitgroup", "C1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["abelian_invariants"] == []


def test_info_of_the_trivial_group_names_c1(capsys):
    assert dispatch(["info", "C1"]) == 0
    assert capsys.readouterr().out.endswith("  abelian invariants  C1\n")
    assert dispatch(["info", "C1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["abelian_invariants"] == []


def test_unknown_flag_rejected(capsys):
    assert dispatch(["screen", "Q8", "--frobnicate"]) == 3


def test_usage_errors(capsys, tmp_path):
    assert dispatch(["screen", "C6"]) == 3
    assert dispatch(["verify", "/nonexistent/cert.json"]) == 3
    assert dispatch(["verify", str(tmp_path)]) == 3
    assert dispatch(["info", f"file:{tmp_path}"]) == 3
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"char": "\xe9"}')
    assert dispatch(["verify", str(binary)]) == 3
    assert dispatch(["info", f"file:{binary}"]) == 3


def test_verify_ill_typed_certificate_exit_code(capsys, tmp_path):
    out = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["char"] = "2"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify", str(out)]) == 3
    assert "char must be an integer" in capsys.readouterr().err


def test_verify_refuses_an_empty_basis_at_order_512(capsys, tmp_path):
    # 2^512 residues exceed the cap: exit 3 before any two-sided check
    out = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8xQ8xC4xC2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["ideal_basis"] = []
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify", str(out)]) == 3
    assert "residues (> 65536)" in capsys.readouterr().err


def test_cli_json_outputs_are_json(capsys):
    for argv in (["info", "C4", "--json"],
                 ["screen", "C8", "--json"],
                 ["unitgroup", "C4", "--json"]):
        dispatch(argv)
        json.loads(capsys.readouterr().out)


def test_realize_methods_are_auto_and_search(capsys):
    for method in ("star", "screen-only"):
        assert dispatch(["realize", "Q8", "--method", method]) == 3
        assert "invalid choice" in capsys.readouterr().err


def test_realize_search_method(capsys):
    assert dispatch(["realize", "C8xC2", "--char", "2",
                     "--method", "search"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "search"


def test_realize_c2_by_search(capsys):
    assert dispatch(["realize", "C2", "--method", "search"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "search" and doc["ideal_basis"] == []


def test_realize_searches_order_2_with_the_sizes_that_fit(capsys):
    # the walk finds Z_4 = Z_4[C2]/(1+a)
    assert dispatch(["realize", "C2", "--char", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "search" and doc["char"] == 4


def test_auto_mode_does_not_search_an_exhausted_exponent_4_group(
        capsys, tmp_path, monkeypatch):
    import fuchs2.cli
    from test_star import CLS4_128

    def refuse(*args):
        raise AssertionError("auto mode ran the bounded search")

    monkeypatch.setattr(fuchs2.cli, "search_realizing_ideal", refuse)
    pres = tmp_path / "cls4_128.pres"
    pres.write_text(CLS4_128)
    assert dispatch(["realize", f"file:{pres}"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["search"]["result"] == "not_run"
    assert any("bounded search" in note for note in doc["notes"])


@pytest.mark.parametrize("budget, search", [
    (None, {"result": "exhausted"}),
    (32, {"budget": 32, "result": "budget"})])
def test_realize_search_reports_exhaustion_and_the_cap(
        capsys, tmp_path, budget, search):
    # an open class-4 group of order 64: its walk ends after 33 nodes
    # without a hit; a cap below that decides nothing; both are unknown
    from test_star import OPEN_64
    pres = tmp_path / "open64.pres"
    pres.write_text(OPEN_64[0])
    argv = ["realize", f"file:{pres}", "--method", "search"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    assert dispatch(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["search"] == search


def test_certificates_identical_across_processes(tmp_path):
    # byte-identical output from separate interpreter invocations (guards
    # against hash-order leaking into serialization)
    import subprocess
    import sys
    outs = []
    for k in range(2):
        path = tmp_path / f"cert{k}.json"
        r = subprocess.run(
            [sys.executable, "-m", "fuchs2.cli", "realize", "Q8xC2",
             "--char", "2", "--output", str(path)],
            capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_import_loads_no_code_generation_machinery():
    # the package's records are plain classes and namedtuples: importing
    # it, CLI included, pulls in none of the modules dataclasses needs
    import subprocess
    import sys
    banned = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, fuchs2, fuchs2.cli; "
         f"print(sorted(set({banned!r}) & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
