import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qk.core import ELEMENT_CAP, check_axioms
from qk.errors import (
    DuplicateLabel,
    QuantaleError,
    QuantFileError,
    QuantSyntaxError,
    RowArity,
    TooLarge,
    UndeclaredLabel,
)
from qk.generators import (
    generate_from_spec,
    lukasiewicz_quantale,
    powerset_quantale,
)
from qk.ideals import ideal_quantale
from qk.quantfile import (
    load_hom,
    load_quant,
    parse_hom,
    parse_quant,
    save_quant,
    write_quant,
)

DATA = Path(__file__).parent / "data"


def test_parse_pretty_file(q4):
    assert q4.name == "q4"
    assert q4.elements == ("bot", "a", "b", "top")
    assert check_axioms(q4).ok


def _over_cap_text(count=ELEMENT_CAP + 1):
    """count labels over two element lines, then sections that never parse."""
    labels = [f"e{k}" for k in range(count)]
    half = count // 2
    return (
        "quantale big\nelements: " + " ".join(labels[:half]) + "\n  " + " ".join(labels[half:])
        + "\norder:\n  e0 <= <= nope\nmul:\n  : : :\nend end\n"
    )


def test_parser_refuses_more_elements_than_the_cap():
    with pytest.raises(TooLarge, match=f"^line 3, col .*more than {ELEMENT_CAP} elements"):
        parse_quant(_over_cap_text())
    # at the cap itself the parser reads on and meets the garbage
    with pytest.raises(QuantSyntaxError, match="line 5"):
        parse_quant(_over_cap_text(ELEMENT_CAP))


def test_write_is_canonical(q4):
    text = write_quant(q4)
    lines = text.splitlines()
    assert lines[0] == "quantale q4"
    assert lines[1] == "elements: bot a b top"
    assert "  bot <= a" in lines
    # only covering pairs are written
    assert "  bot <= top" not in lines
    assert lines[-1] == "end"
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "spec", ["powerset:4", "lukasiewicz:9", "lowersets:antichain5", "lowersets:5:0<1,0<2,3<4", "m3"]
)
def test_order_lines_are_the_covering_pairs(spec):
    """Each pair lo < hi with nothing strictly between, lo ascending, then hi."""
    q = generate_from_spec(spec)
    for c in (q, ideal_quantale(q).quantale):
        covers = [
            (lo, hi)
            for lo in range(c.n)
            for hi in range(c.n)
            if lo != hi and c.leq(lo, hi)
            and not any(m not in (lo, hi) and c.leq(lo, m) and c.leq(m, hi) for m in range(c.n))
        ]
        text = write_quant(c)
        order = text[text.index("order:\n") + 7 : text.index("mul:")].splitlines()
        assert order == [f"  {c.elements[lo]} <= {c.elements[hi]}" for lo, hi in covers]


def test_roundtrip_stability(q4, l3, m3):
    for q in (q4, l3, m3, powerset_quantale(3), lukasiewicz_quantale(6)):
        once = write_quant(q)
        again = write_quant(parse_quant(once))
        assert once == again
        assert parse_quant(once).same_structure(q)


def test_roundtrip_ideal_carrier_labels(q4):
    # ideal carriers use labels like ↓a; they must survive the format
    iq = ideal_quantale(q4).quantale
    text = write_quant(iq)
    back = parse_quant(text)
    assert back.same_structure(iq)
    assert write_quant(back) == text


def test_parser_tolerates_comments_and_alignment():
    text = (
        "# leading comment\n"
        "\n"
        "quantale   t   # trailing comment\n"
        "elements: x\n"
        "    y\n"
        "order:\n"
        "   x    <=     y   # wide\n"
        "mul:\n"
        "  x:  x x\n"
        "  y:  x y\n"
        "end\n"
        "# after the end is fine for comments\n"
    )
    q = parse_quant(text)
    assert q.elements == ("x", "y")
    assert q.name == "t"


def test_single_element_file():
    q = parse_quant("quantale one\nelements: z\norder:\nmul:\n  z: z\nend\n")
    assert q.n == 1
    assert q.bottom == q.top
    assert check_axioms(q).ok


_MUL_HEAD = "quantale q\nelements: a b c\norder:\n  a <= b\n  b <= c\nmul:\n  a: a a a\n"
_HOM_HEAD = "hom h : q4.quant -> c2.quant\nmap:\n  bot -> bot\n"
_ERROR_CASES = [
    ("elements: a\n", QuantSyntaxError, 1, 1),
    ("quantale q\nelements: a b\norder:\n  a <= c\nmul:\n  a: a a\n  b: a b\nend\n", UndeclaredLabel, 4, 8),
    ("quantale q\nelements: a a\norder:\nmul:\n  a: a a\nend\n", DuplicateLabel, 2, 13),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  a: a\n  b: a b\nend\n", RowArity, 6, 3),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  a: a a\nend\n", RowArity, 7, 1),
    ("quantale q\nelements: a b\norder:\n  a < b\nmul:\n  a: a a\n  b: a b\nend\n", QuantSyntaxError, 4, 3),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  a: a a\n  a: a a\n  b: a b\nend\n", DuplicateLabel, 7, 3),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  c: a a\n  b: a b\nend\n", UndeclaredLabel, 6, 3),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  a: a a\n  b: a b\nend\nmore\n", QuantSyntaxError, 9, 1),
    ("quantale q\nelements: a b\norder:\n  a <= b\nmul:\n  a: a a\n", QuantSyntaxError, 6, 1),
    # an undeclared label in the middle of a row, after runs of spaces
    (_MUL_HEAD + "  b:  a  zz   c\n  c: a b c\nend\n", UndeclaredLabel, 8, 10),
    # a row head without its colon
    (_MUL_HEAD + "  b a b b\n  c: a b c\nend\n", QuantSyntaxError, 8, 3),
    # short and holding an undeclared label: the label is named
    (_MUL_HEAD + "  b:\ta zz\n  c: a b c\nend\n", UndeclaredLabel, 8, 8),
    # a no-break space separates tokens and counts as one column
    (_MUL_HEAD + "  b: a\xa0zz c\n  c: a b c\nend\n", UndeclaredLabel, 8, 8),
    (_MUL_HEAD + "  b: a b c\n  c: a b c\nend # done\n  c: a b c\n", QuantSyntaxError, 11, 3),
    ("quantale q\nelements: a b#c\n  a:b\norder:\n", QuantSyntaxError, 3, 3),
    (_HOM_HEAD + "  a ->  zz\n  b -> bot\n  top -> top\nend\n", UndeclaredLabel, 4, 9),
    (_HOM_HEAD + "  a -> top\n  zz -> bot\n  top -> top\nend\n", UndeclaredLabel, 5, 3),
    (_HOM_HEAD + "  a -> top\n  b -> bot\n  top -> top\nend\n  x\n", QuantSyntaxError, 8, 3),
]


@pytest.mark.parametrize(
    "text,exc,line,col",
    _ERROR_CASES,
    # each case is named by its text, exception and line
    ids=[f"{text}-{exc.__name__}-{line}" for text, exc, line, _ in _ERROR_CASES],
)
def test_parse_error_locations(text, exc, line, col):
    with pytest.raises(exc) as e:
        if text.startswith("hom"):
            parse_hom(text, DATA)
        else:
            parse_quant(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value).startswith(f"line {line}, col {col}: ")


def test_split_gives_the_token_pattern():
    # every whitespace character that str.splitlines() leaves inside a line
    from qk.quantfile import _TOKEN

    spaces = [c for c in map(chr, range(sys.maxunicode + 1))
              if c.isspace() and len(f"a{c}b".splitlines()) == 1]
    assert {" ", "\t", "\x1f", "\xa0", "\u3000"} <= set(spaces)
    for space in spaces:
        line = f"{space}a:{space}{space}b c{space}↓d{space}"
        assert line.split() == _TOKEN.findall(line) == ["a:", "b", "c", "↓d"], repr(space)


def test_writer_rejects_unwritable_labels(q4):
    from dataclasses import replace

    bad_name = replace(q4, name="has space")
    with pytest.raises(ValueError):
        write_quant(bad_name)
    bad_label = replace(q4, elements=("bo t", "a", "b", "top"))
    with pytest.raises(ValueError):
        write_quant(bad_label)


@pytest.mark.parametrize(
    "change",
    [{"name": "a#b"}, {"elements": ("bot", "end", "b", "top")}, {"elements": ("bot", "a", "<=", "top")}],
)
def test_writer_rejects_what_the_parser_refuses(q4, change):
    # a#b would read back as a; end and <= are reserved words of the format
    from dataclasses import replace

    with pytest.raises(ValueError):
        write_quant(replace(q4, **change))


def test_save_and_load(tmp_path, l3):
    p = tmp_path / "out.quant"
    save_quant(l3, p)
    back = load_quant(p)
    assert back.same_structure(l3)


def test_load_hom_files(q4_to_c2, l3_to_c2):
    assert q4_to_c2.name == "q4_collapse"
    assert q4_to_c2.source.name == "q4" and q4_to_c2.target.name == "c2"
    assert q4_to_c2.check().ok
    assert l3_to_c2.check().ok


def test_bad_hom_file_is_loadable_but_invalid():
    h = load_hom(DATA / "q4_to_c2_bad.hom")
    rep = h.check()
    assert not rep.ok
    # meet is the first condition the a,b collapse breaks in check order
    assert rep.condition == "meet"
    assert rep.witness == (h.source.index("a"), h.source.index("b"))


def test_hom_parse_errors(tmp_path):
    (tmp_path / "a.quant").write_text(
        "quantale a\nelements: x\norder:\nmul:\n  x: x\nend\n"
    )
    cases = [
        ("hom h a.quant -> a.quant\nmap:\nend\n", QuantSyntaxError),
        ("hom h : missing.quant -> a.quant\nmap:\nend\n", QuantSyntaxError),
        ("hom h : a.quant -> a.quant\nmap:\n  x -> y\nend\n", UndeclaredLabel),
        ("hom h : a.quant -> a.quant\nmap:\n  y -> x\nend\n", UndeclaredLabel),
        ("hom h : a.quant -> a.quant\nmap:\n  x -> x\n  x -> x\nend\n", DuplicateLabel),
        ("hom h : a.quant -> a.quant\nmap:\nend\n", RowArity),
        ("hom h : a.quant -> a.quant\nmap:\n  x -> x\nend\nextra\n", QuantSyntaxError),
    ]
    for text, exc in cases:
        with pytest.raises(exc):
            parse_hom(text, tmp_path)


def test_hom_paths_relative_to_hom_file(tmp_path, q4, c2):
    sub = tmp_path / "sub"
    sub.mkdir()
    save_quant(q4, sub / "q4.quant")
    save_quant(c2, sub / "c2.quant")
    homfile = sub / "h.hom"
    homfile.write_text(
        "hom h : q4.quant -> c2.quant\nmap:\n  bot -> bot\n  a -> top\n  b -> bot\n  top -> top\nend\n"
    )
    h = load_hom(homfile)
    assert h.check().ok


_BUNDLED = [p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.quant"))]
_VOCAB = sorted(
    {tok for text in _BUNDLED for tok in text.split()}
    | {"end", "<=", "->", ":", "#", "x:", "a#b", "quantale", "elements:", "order:", "mul:"}
)


@st.composite
def edited_quant_texts(draw):
    """A bundled .quant text with a few tokens inserted or deleted."""
    rows = [line.split() for line in draw(st.sampled_from(_BUNDLED)).splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        if row and draw(st.booleans()):
            del row[draw(st.integers(min_value=0, max_value=len(row) - 1))]
        else:
            row.insert(draw(st.integers(min_value=0, max_value=len(row))), draw(st.sampled_from(_VOCAB)))
    return "\n".join(" ".join(row) for row in rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(edited_quant_texts())
def test_edited_files_parse_or_fail_with_a_location(text):
    try:
        q = parse_quant(text)
    except QuantFileError as e:
        assert e.line is not None and e.col is not None
        return
    except QuantaleError:
        return
    once = write_quant(q)
    assert write_quant(parse_quant(once)) == once


def test_file_refusals_name_their_fault(tmp_path):
    (tmp_path / "a.quant").write_text("quantale a\nelements: x\norder:\nmul:\n  x: x\nend\n")
    missing = tmp_path / "missing.quant"
    cases = [
        (lambda: parse_quant("quantale q\nelements:\norder:\nmul:\nend\n"),
         "line 3, col 1: no elements declared"),
        (lambda: parse_hom("hom h : a.quant -> missing.quant\nmap:\nend\n", tmp_path),
         f"line 1, col 20: no such carrier file: {missing}"),
        (lambda: parse_hom("hom h : a.quant -> a.quant\nmaps:\nend\n", tmp_path),
         "line 2, col 1: expected 'map:'"),
        (lambda: parse_hom("hom h : a.quant -> a.quant\nmap:\n  x => x\nend\n", tmp_path),
         "line 3, col 3: expected 'x -> y'"),
    ]
    for call, message in cases:
        with pytest.raises(QuantSyntaxError) as e:
            call()
        assert str(e.value) == message
