import json

import pytest

from fuchs2.cli import dispatch
from fuchs2.errors import ParseError
from fuchs2.groups import build_group
from fuchs2.parsing import (
    element_literal,
    parse_element_literal,
    parse_group_spec,
    parse_presentation_text,
)


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


def test_presentation_file_with_txt_suffix(tmp_path):
    path = tmp_path / "q16.txt"
    path.write_text(Q16_TEXT)
    assert build_group(f"file:{path}").n == 16


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


def test_realize_char_parsing(capsys):
    assert dispatch(["realize", "Q8", "--char", "2^1"]) == 0
    capsys.readouterr()
    assert dispatch(["realize", "Q8", "--char", "3"]) == 3


def test_unitgroup(capsys):
    assert dispatch(["unitgroup", "C8", "--char", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["abelian_invariants"] == [8, 4, 2, 2]
    assert dispatch(["unitgroup", "C8", "--char", "2",
                     "--ideal", "1+a+a^4+a^5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["abelian_invariants"] == [8, 2]
    assert doc["quotient_size"] == 32


def test_unknown_flag_rejected(capsys):
    assert dispatch(["screen", "Q8", "--frobnicate"]) == 3


def test_usage_errors(capsys):
    assert dispatch(["screen", "C6"]) == 3
    assert dispatch(["verify", "/nonexistent/cert.json"]) == 3


def test_verify_ill_typed_certificate_exit_code(capsys, tmp_path):
    out = tmp_path / "cert.json"
    assert dispatch(["realize", "Q8", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["char"] = "2"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify", str(out)]) == 3
    assert "char must be an integer" in capsys.readouterr().err


def test_cli_json_outputs_are_json(capsys):
    for argv in (["info", "C4", "--json"],
                 ["screen", "C8", "--json"],
                 ["unitgroup", "C4", "--json"]):
        dispatch(argv)
        json.loads(capsys.readouterr().out)


def test_realize_search_method(capsys):
    assert dispatch(["realize", "C8xC2", "--char", "2",
                     "--method", "search"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "search"


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
