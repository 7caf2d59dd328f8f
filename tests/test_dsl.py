"""Text format: parsing, canonical printing, corpus round trips."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from localfourier.connection import FormalConnection, RegularPart
from localfourier.dsl import (
    ParsedDocument,
    connection_schema,
    parse,
    parse_scalar_text,
    print_canonical,
    relabel_variable,
    render_connection,
    render_scalar,
    render_series,
)
from localfourier.errors import ParseError
from localfourier.exactfield import ONE, rational, zeta
from localfourier.fourier import INFINITY, fourier_0_inf
from localfourier.series import LaurentSeries

CORPUS = Path(__file__).parent / "corpus"
VALID = sorted((CORPUS / "valid").glob("*.conn"))
MALFORMED = sorted((CORPUS / "malformed").glob("*.conn"))


def _first(doc: ParsedDocument):
    return doc.statements[0].value


# -- parsing basics --------------------------------------------------------

def test_parse_elementary():
    el = _first(parse("El(rho=u^2, phi=1/1*u^-3, R=[(1:1)])")).summands[0]
    assert el.p == 2 and el.q == 3
    assert el.slope == Fraction(3, 2)
    assert el.reg == RegularPart([(1, 1)])


def test_parse_residue_sugar():
    el = _first(parse("Reg(R=[(res:1/2 : 2)])")).summands[0]
    assert el.reg == RegularPart([(rational(-1), 2)])
    el = _first(parse("Reg(R=[(res:-1/3 : 1)])")).summands[0]
    assert el.reg.jordan[0][0] == zeta(3) ** 2


def test_parse_rejects_constant_rho():
    with pytest.raises(ParseError, match="constant term in rho"):
        parse("El(rho=u^0, phi=1/1*u^-1, R=[(1:1)])")
    with pytest.raises(ParseError, match="constant term in rho"):
        parse("El(rho=u + 2/1, phi=1/1*u^-1, R=[(1:1)])")
    with pytest.raises(ParseError, match="order at least one"):
        parse("El(rho=0/1, phi=1/1*u^-1, R=[(1:1)])")


def test_parse_direct_sum_and_names():
    doc = parse("a = El(rho=u, phi=1/1*u^-1, R=[(1:1)]) (+) Reg(R=[(2:1)]);\nb = Reg(R=[(1:1)]);")
    assert set(doc.connections) == {"a", "b"}
    assert len(doc.connections["a"].summands) == 2
    assert doc.statements[0].line == 1 and doc.statements[1].line == 2


def test_parse_anonymous_document():
    doc = parse("El(rho=u, phi=1/1*u^-1, R=[(1:1)])")
    assert doc.statements[0].name is None
    assert isinstance(_first(doc), FormalConnection)


def test_parse_series_features():
    el = _first(parse("El(rho=u, phi=1/1*u^-1 + 1/1*u^-1 - 1/2*u^-3, R=[(1:1)])")).summands[0]
    assert el.phi.coefficient(-1) == rational(2)
    assert el.phi.coefficient(-3) == rational(Fraction(-1, 2))
    el = _first(parse("El(rho=u^2 + O(u^4), phi=1/1*u^-1, R=[(1:1)])")).summands[0]
    assert el.rho.prec == 4


def test_parse_scalar_text_forms():
    assert parse_scalar_text("3/2") == rational(Fraction(3, 2))
    assert parse_scalar_text("-2") == rational(-2)
    assert parse_scalar_text("i") == zeta(4)
    assert parse_scalar_text("zeta(3)^2") == zeta(3) ** 2
    assert parse_scalar_text("root(2,2)") ** 2 == rational(2)
    assert parse_scalar_text("(1+i)*(1-i)") == rational(2)
    assert parse_scalar_text("2 - 3/4") == rational(Fraction(5, 4))


def test_parse_sing_finite():
    d = _first(parse("s = Sing(at=0, summands=El(rho=u, phi=1/1*u^-1, R=[(1:1)]), germ=[(2:1)]);"))
    assert not d.is_infinity()
    assert d.location == rational(0)
    assert len(d.summands) == 1
    assert d.germ.psi == RegularPart([(2, 1)])


def test_parse_sing_infinity():
    text = (
        "s = Sing(at=infinity, gt1=El(rho=u, phi=1/1*u^-3, R=[(1:1)]), "
        "eq1=[(shat=2, els=El(rho=u^3, phi=1/1*u^-2, R=[(1:1)]), R=[(5:1)])], "
        "reg=[]);"
    )
    d = _first(parse(text))
    assert d.is_infinity() and d.location is INFINITY
    assert len(d.slope_gt1) == 1
    shat, els, reg = d.slope_eq1[0]
    assert shat == rational(2) and len(els) == 1 and reg == RegularPart([(5, 1)])
    assert d.lt1_regular == RegularPart([])


def test_document_accessors():
    doc = parse(
        "c = El(rho=u, phi=1/1*u^-1, R=[(1:1)]);\n"
        "s = Sing(at=0, germ=[(2:1)]);"
    )
    assert list(doc.connections) == ["c"]
    assert list(doc.data) == ["s"]
    assert len(doc.data_list()) == 1 and len(doc.connection_list()) == 1


# -- located errors --------------------------------------------------------

def test_error_location_on_later_line():
    text = "a = Reg(R=[(1:1)]);\nb = El(rho=u, phi=1/1*u^-1, R=[(0:2)]);"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 2
    assert "zero eigenvalue" in str(exc.value)


def test_error_messages():
    cases = {
        "El(rho=u, phi=1/1*u^-1/2, R=[(1:1)])": "non-integer exponent",
        "El(rho=u, phi=1/0*u^-1, R=[(1:1)])": "zero denominator",
        "zeta = Reg(R=[(1:1)]);": "reserved word",
        "a = Reg(R=[(1:1)]);\na = Reg(R=[(1:1)]);": "duplicate name",
        "El(rho=u, phi=1/1*v^-1, R=[(1:1)])": "conflicts",
        "El(rho=u*u, phi=1/1*u^-1, R=[(1:1)])": "two variable factors",
        "s = Sing(at=0, orbit=[(1:1)]);": "unknown field",
        "": "empty document",
    }
    for text, needle in cases.items():
        with pytest.raises(ParseError, match=needle):
            parse(text)


def test_semantic_errors_from_constructors_have_locations():
    with pytest.raises(ParseError) as exc:
        parse("s = Sing(at=infinity, lt1=El(rho=u, phi=1/1*u^-3, R=[(1:1)]));")
    assert exc.value.line == 1 and "slope" in str(exc.value)


# -- printing --------------------------------------------------------------

def test_golden_family_text():
    el = _first(parse("El(rho=u, phi=1/1*u^-1, R=[(1:1)])")).summands[0]
    tr = fourier_0_inf(el, sign="-")
    text = render_connection(relabel_variable(tr, "u"))
    assert text == "El(rho=-1/1*u^2, phi=2/1*u^-1, R=[(-1:1)])"


def test_scalar_rendering():
    assert render_scalar(rational(-1)) == "-1"
    assert render_scalar(rational(Fraction(3, 2))) == "3/2"
    assert render_scalar(zeta(4)) == "zeta(4)"
    assert render_scalar(zeta(3) ** 2) == "-1 - zeta(3)"
    assert render_scalar(rational(2) * zeta(3)) == "2*zeta(3)"
    two_root = parse_scalar_text("root(2,2)")
    assert render_scalar(two_root) == "root(2,2)"
    assert parse_scalar_text(render_scalar(two_root * rational(3) + ONE)) == (
        two_root * rational(3) + ONE
    )


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: parse_scalar_text("root(2+zeta(3),2)"), "root(2 + zeta(3),2)"),
        (
            lambda: ONE / (ONE + parse_scalar_text("root(2+zeta(3),2)")),
            "zeta(3) - zeta(3)*root(2 + zeta(3),2)",
        ),
        (lambda: parse_scalar_text("root(root(2,2),2)"), "root(2,4)"),
    ],
)
def test_opaque_and_nested_roots_render_and_parse_back(build, text):
    # 2 + zeta(3) is no root of unity times a rational: an opaque generator
    value = build()
    assert render_scalar(value) == text
    assert parse_scalar_text(text) == value


def test_nested_root_is_a_prime_radical():
    assert parse_scalar_text("root(root(2,2),2)") ** 4 == 2


def test_opaque_residue_is_a_canonical_fixed_point():
    text = print_canonical(parse("El(rho=u, phi=1/1*u^-1, R=[(root(2+zeta(3),2):1)])"))
    assert "root(2 + zeta(3),2)" in text
    assert print_canonical(parse(text)) == text


def test_series_rendering():
    s = LaurentSeries({-1: 1, 2: rational(Fraction(-2, 3))})
    assert render_series(s) == "u^-1 - 2/3*u^2"
    assert render_series(LaurentSeries({}, 3)) == "O(u^3)"
    assert render_series(LaurentSeries({})) == "0/1"
    assert render_series(LaurentSeries({1: -1})) == "-1/1*u"


def test_relabel_variable():
    conn = _first(parse("El(rho=w^2, phi=5/1*w^-3, R=[(1:1)])"))
    out = relabel_variable(conn, "u")
    assert out.summands[0].rho.var == "u"
    assert out.summands[0].rho.items() == conn.summands[0].rho.items()


def test_json_schema():
    conn = _first(parse("El(rho=u, phi=1/1*u^-2, R=[(1:2)]) (+) Reg(R=[(3:1)])"))
    schema = connection_schema(conn)
    assert schema["total"] == {"rank": 3, "irr": 4}
    first = schema["summands"][0]
    assert set(first) == {"rho", "phi", "jordan", "p", "q", "r", "slope", "irr", "rank"}
    assert first["slope"] == "2"


# -- the corpus ------------------------------------------------------------

@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_corpus_roundtrip(path):
    doc = parse(path.read_text())
    text1 = print_canonical(doc)
    doc2 = parse(text1)
    text2 = print_canonical(doc2)
    assert text1 == text2
    for a, b in zip(doc.statements, doc2.statements):
        assert a.name == b.name
        if isinstance(a.value, FormalConnection):
            assert a.value == b.value


def test_corpus_is_large_enough():
    assert len(VALID) >= 30
    assert len(MALFORMED) >= 10


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_corpus_malformed(path):
    with pytest.raises(ParseError) as exc:
        parse(path.read_text())
    assert exc.value.line >= 1 and exc.value.column >= 1
    assert re.match(r"^\d+:\d+: ", str(exc.value))


# -- pinned locations --------------------------------------------------------
# Recorded from the tokenizer that counted lines and columns as it went, so
# locations computed on demand cannot drift from them.

MALFORMED_ERRORS = {
    "m01_unclosed": "1:34: expected ')', found 'end of input'",
    "m02_rho_constant": "1:1: constant term in rho",
    "m03_fraction_exponent": "1:23: non-integer exponent",
    "m04_zero_eigenvalue": "1:29: zero eigenvalue",
    "m05_zero_size": "1:31: block sizes must be positive",
    "m06_bad_char": "1:21: unexpected character '%'",
    "m07_missing_semicolon": "2:1: expected \"';'\", found 'b'",
    "m08_reserved_name": "1:1: 'zeta' is a reserved word",
    "m09_duplicate_name": "2:1: duplicate name 'a'",
    "m10_unknown_field": "1:16: unknown field 'slope'",
    "m11_missing_shat": "1:29: expected 'shat', found 'els'",
    "m12_empty": "2:1: empty document",
    "m13_two_letters": "1:19: series variable 'v' conflicts with 'u'",
    "m14_zero_denominator": "1:17: zero denominator",
    "m15_terms_after_tail": "1:22: terms after the O tail",
}

STATEMENT_LOCATIONS = {
    "07_named_many": [(1, 1), (2, 1), (3, 1)],
    "28_document_pair": [(1, 1), (2, 1), (3, 1)],
    "29_comments": [(2, 1)],
}

LOCATED_ERRORS = [
    ("a = Reg(R=[(1:1)]) # no semicolon", "1:20: expected \"';'\", found 'end of input'"),
    ("a = Reg(R=[(1:1)]);\n\n  # c\n   b = Reg(R=[(1:1)]) @", "4:23: unexpected character '@'"),
    ("\n\n   El(rho=u, phi=u^-1, R=[(1:1)] ", "3:34: expected ')', found 'end of input'"),
    ("El(rho=u^2\t+ 1, phi=u^-1, R=[(1:1)])", "1:1: constant term in rho"),
    ("a = Reg(R=[(1:1)]);\r\nb = El(rho=u, phi=u^-1, R=[(0:1)]);", "2:29: zero eigenvalue"),
    ("El(rho=u, phi=zeta(0)*u^-1, R=[(1:1)])", "1:20: zeta order must be a positive integer"),
    ("El(rho=u, phi=root(0,0)*u^-1, R=[(1:1)])", "1:22: root order must be a positive integer"),
    ("El(rho=u, phi=2^3*u^-1, R=[(1:1)])", "1:16: expected ',', found '^'"),
    (
        "Sing(at=0, summands=El(rho=u, phi=u^-1, R=[(1:1)]), germ=[(1:1)], germ=[(2:1)])",
        "1:67: duplicate field 'germ'",
    ),
    ("  # only a comment", "1:3: empty document"),
    ("", "1:1: empty document"),
    ("a = Reg(R=[(1:1)]);\nEl = Reg(R=[(1:1)]);", "2:1: 'El' is a reserved word"),
    ("El(rho=uü, phi=u^-1, R=[(1:1)])", "1:16: series variable 'u' conflicts with 'uü'"),
    ("El(rho=u, phi=u^-1, R=[(1:1)]) ; x", "1:34: expected 'end of input', found 'x'"),
    ("El(rho=u, phi=(1 + zeta(3)*u^-1, R=[(1:1)])", "1:28: expected a scalar, found 'u'"),
    ("El(rho=u, phi=u^-1, R=[(1:1)]) (+) ", "1:36: expected El(...) or Reg(...)"),
    ("El(rho=u, phi=u^-1 + O(u^2) + u, R=[(1:1)])", "1:29: terms after the O tail"),
    ("Sing(at=infinity, eq1=[(shat=1, foo=2)])", "1:33: unknown entry field 'foo'"),
    ("El(rho=u, phi=u^-1, R=[(1:1)])\n\n\t\t)", "3:3: expected 'end of input', found ')'"),
    ("El(rho=u, phi=u^-2/3, R=[(1:1)])", "1:19: non-integer exponent"),
    ("El(rho=x, phi=u^-1, R=[(1:1)])", "1:15: series variable 'u' conflicts with 'x'"),
]


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_corpus_malformed_message_is_pinned(path):
    with pytest.raises(ParseError) as exc:
        parse(path.read_text())
    assert str(exc.value) == MALFORMED_ERRORS[path.stem]


def test_corpus_statement_locations_are_pinned():
    for path in VALID:
        found = [(s.line, s.col) for s in parse(path.read_text()).statements]
        assert found == STATEMENT_LOCATIONS.get(path.stem, [(1, 1)]), path.stem


@pytest.mark.parametrize("text, message", LOCATED_ERRORS)
def test_error_locations_are_pinned(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_statement_locations_count_blanks_but_not_comments():
    doc = parse("  a = Reg(R=[(1:1)]);\n\t b = Reg(R=[(2:1)]);\r\n   c = Reg(R=[(3:1)]);")
    assert [(s.line, s.col) for s in doc.statements] == [(1, 3), (2, 3), (3, 4)]
    assert parse("El(rho=u, phi=u^-1, R=[(1:1)]) # tail").statements[0][2:] == (1, 1)
    for text, message in [
        ("1 +", "1:4: expected a scalar, found 'end of input'"),
        ("zeta(3", "1:7: expected ')', found 'end of input'"),
        ("2 2", "1:3: expected 'end of input', found '2'"),
        ("  @", "1:3: unexpected character '@'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_scalar_text(text)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("El(rho=u^², phi=u^-1, R=[(1:1)])", "1:10: unexpected character '²'"),
        ("El(rho=u, phi=u^-١, R=[(1:1)])", "1:18: unexpected character '١'"),
        ("El(rho=u², phi=u^-1, R=[(1:1)])", "1:9: unexpected character '²'"),
        ("a = Reg(R=[(３:1)]);", "1:13: unexpected character '３'"),
        ("# ١ in a comment\nReg(R=[(1:½)])", "2:11: unexpected character '½'"),
    ],
)
def test_integers_are_ascii_digits(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_names_keep_unicode_letters():
    el = _first(parse("El(rho=ü_1, phi=ü_1^-1, R=[(1:1)])")).summands[0]
    assert el.rho.var == "ü_1" and el.q == 1
