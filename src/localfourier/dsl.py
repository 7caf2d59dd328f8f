"""Text format for connections and singularity data.

Grammar, roughly:

    document  := stmt* | conn
    stmt      := NAME '=' (conn | sing) ';'
    conn      := term ('(+)' term)*
    term      := 'El(rho=' series ', phi=' series ', R=' jordan ')'
               | 'Reg(R=' jordan ')'
    sing      := 'Sing(at=' (scalar | 'infinity') (',' KEY '=' value)* ')'
    series    := ['-'] mono (('+'|'-') mono)* ['+' 'O(' VAR '^' INT ')']
    mono      := factor ('*' factor)*       # at most one variable factor
    factor    := scalar_atom | VAR ['^' ['-'] INT]
    scalar    := ['-'] product (('+'|'-') product)*
    scalar_atom := INT ['/' INT] | 'zeta(' INT ')' ['^' ['-'] INT] | 'i'
               | 'root(' scalar ',' INT ')' ['^' ['-'] INT] | '(' scalar ')'
    jordan    := '[' [entry (',' entry)*] ']'
    entry     := '(' ('res' ':' rational | scalar) ':' INT ')'

'#' starts a comment running to the end of the line.  A bare conn with no
name and no ';' is accepted as a one-expression document (handy on stdin).
Sing keys are summands/germ at a finite point and gt1/eq1/lt1/reg at
infinity; eq1 holds entries '(shat=' scalar [', els=' conn] [', R=' jordan]
')'.  'res:r' in an eigenvalue position abbreviates e^(2 pi i r).

Printing is deterministic: series coefficients keep explicit denominators
(a lone '+1' drops, so 'u^2' but '-1/1*u^2'), exponent one prints as the
bare variable, eigenvalue and location integers print bare, and truncated
series carry their 'O(u^N)' tail.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    elementary,
    regular_connection,
)
from .errors import DomainError, ParseError
from .exactfield import ONE, ZERO, FieldElement, adjoin_root, exp2pi, zeta
from .fourier import INFINITY, RegularGermData, SingularityDatum
from .series import LaurentSeries

_RESERVED = frozenset(
    "El Reg Sing O i res zeta root infinity at rho phi R shat els "
    "summands germ gt1 eq1 lt1 reg".split()
)


# --------------------------------------------------------------------------
# tokens

class _Token(NamedTuple):
    kind: str  # NAME, INT, OPLUS, EOF, or the symbol itself
    text: str
    line: int
    col: int


_SYMBOLS = set("=;()[],:^*/+-")


def _tokenize(text: str):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("(+)", i):
            toks.append(_Token("OPLUS", "(+)", line, col))
            i += 3
            col += 3
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


# --------------------------------------------------------------------------
# parsing

class Statement(NamedTuple):
    name: Optional[str]
    value: Union[FormalConnection, SingularityDatum]
    line: int
    col: int


class ParsedDocument(NamedTuple):
    statements: tuple

    @property
    def connections(self):
        return {
            s.name: s.value
            for s in self.statements
            if isinstance(s.value, FormalConnection)
        }

    @property
    def data(self):
        return {
            s.name: s.value
            for s in self.statements
            if isinstance(s.value, SingularityDatum)
        }

    def data_list(self):
        return [s.value for s in self.statements if isinstance(s.value, SingularityDatum)]

    def connection_list(self):
        return [s.value for s in self.statements if isinstance(s.value, FormalConnection)]


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.var: Optional[str] = None

    # -- machinery ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def fail(self, msg: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, kind: str, what: Optional[str] = None) -> _Token:
        if not self.at(kind):
            got = self.peek()
            shown = got.text or "end of input"
            self.fail(f"expected {what or kind!r}, found {shown!r}")
        return self.advance()

    def expect_word(self, word: str):
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            self.fail(f"expected {word!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def _build(self, tok: _Token, ctor, *args, **kwargs):
        # constructor preconditions become located parse errors
        try:
            return ctor(*args, **kwargs)
        except ParseError:
            raise
        except DomainError as e:
            self.fail(str(e), tok)

    # -- documents ---------------------------------------------------------

    def parse_document(self) -> ParsedDocument:
        if self.at("EOF"):
            self.fail("empty document")
        if self.at("NAME") and self.at("=", ahead=1):
            stmts = []
            names = set()
            while not self.at("EOF"):
                tok = self.expect("NAME", "a statement name")
                if tok.text in _RESERVED:
                    self.fail(f"{tok.text!r} is a reserved word", tok)
                if tok.text in names:
                    self.fail(f"duplicate name {tok.text!r}", tok)
                names.add(tok.text)
                self.expect("=")
                if self.at("NAME", "Sing"):
                    value = self.parse_sing()
                else:
                    value = self.parse_conn()
                self.expect(";", "';'")
                stmts.append(Statement(tok.text, value, tok.line, tok.col))
            if not stmts:
                self.fail("empty document")
            return ParsedDocument(tuple(stmts))
        tok = self.peek()
        value = self.parse_sing() if self.at("NAME", "Sing") else self.parse_conn()
        if self.at(";"):
            self.advance()
        self.expect("EOF", "end of input")
        return ParsedDocument((Statement(None, value, tok.line, tok.col),))

    # -- connections -------------------------------------------------------

    def parse_conn(self) -> FormalConnection:
        terms = [self.parse_term()]
        while self.at("OPLUS"):
            self.advance()
            terms.append(self.parse_term())
        return FormalConnection(tuple(terms))

    def parse_term(self) -> ElementaryConnection:
        tok = self.peek()
        if self.at("NAME", "El"):
            self.advance()
            self.expect("(")
            self.expect_word("rho")
            self.expect("=")
            rho = self.parse_series()
            self.expect(",")
            self.expect_word("phi")
            self.expect("=")
            phi = self.parse_series()
            self.expect(",")
            self.expect_word("R")
            self.expect("=")
            reg = self.parse_jordan()
            self.expect(")")
            if rho.is_zero_to_precision():
                self.fail("rho must vanish to order at least one", tok)
            if not rho.coeffs.get(0, ZERO).is_zero():
                self.fail("constant term in rho", tok)
            return self._build(tok, elementary, rho, phi, reg)
        if self.at("NAME", "Reg"):
            self.advance()
            self.expect("(")
            self.expect_word("R")
            self.expect("=")
            reg = self.parse_jordan()
            self.expect(")")
            return self._build(tok, regular_connection, reg)
        self.fail("expected El(...) or Reg(...)")

    # -- series ------------------------------------------------------------

    def _use_var(self, tok: _Token) -> str:
        if tok.text in _RESERVED:
            self.fail(f"{tok.text!r} is a reserved word", tok)
        if self.var is None:
            self.var = tok.text
        elif tok.text != self.var:
            self.fail(
                f"series variable {tok.text!r} conflicts with {self.var!r}", tok
            )
        return tok.text

    def _exponent(self) -> int:
        # after '^': an integer, explicitly signed or not
        neg = False
        if self.at("-"):
            self.advance()
            neg = True
        tok = self.expect("INT", "an integer exponent")
        if self.at("/"):
            self.fail("non-integer exponent")
        val = int(tok.text)
        return -val if neg else val

    def parse_series(self) -> LaurentSeries:
        coeffs: dict[int, FieldElement] = {}
        prec: Optional[int] = None
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        while True:
            if self.at("NAME", "O") and self.at("(", ahead=1):
                if sign < 0:
                    self.fail("the O tail cannot be subtracted")
                self.advance()
                self.advance()
                var_tok = self.expect("NAME", "the series variable")
                self._use_var(var_tok)
                self.expect("^")
                prec = self._exponent()
                self.expect(")")
                if self.at("+") or self.at("-"):
                    self.fail("terms after the O tail")
                break
            exp, coeff = self.parse_monomial()
            if sign < 0:
                coeff = -coeff
            coeffs[exp] = coeffs.get(exp, ZERO) + coeff
            if self.at("+"):
                self.advance()
                sign = 1
            elif self.at("-"):
                self.advance()
                sign = -1
            else:
                break
        return LaurentSeries(coeffs, prec, self.var or "u")

    def parse_monomial(self) -> tuple[int, FieldElement]:
        coeff = ONE
        exp: Optional[int] = None
        while True:
            tok = self.peek()
            if tok.kind == "NAME" and tok.text not in ("zeta", "root", "i"):
                self.advance()
                self._use_var(tok)
                if exp is not None:
                    self.fail("two variable factors in one term", tok)
                if self.at("^"):
                    self.advance()
                    exp = self._exponent()
                else:
                    exp = 1
            else:
                coeff = coeff * self._scalar_atom()
            if self.at("*"):
                self.advance()
            else:
                break
        return (0 if exp is None else exp, coeff)

    # -- scalars -----------------------------------------------------------

    def parse_scalar(self) -> FieldElement:
        total = ZERO
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        while True:
            value = self._scalar_atom()
            while self.at("*"):
                self.advance()
                value = value * self._scalar_atom()
            total = total + (value if sign > 0 else -value)
            if self.at("+"):
                self.advance()
                sign = 1
            elif self.at("-"):
                self.advance()
                sign = -1
            else:
                return total

    def _rational(self) -> Fraction:
        neg = False
        if self.at("-"):
            self.advance()
            neg = True
        tok = self.expect("INT", "a number")
        num = int(tok.text)
        den = 1
        if self.at("/"):
            self.advance()
            den_tok = self.expect("INT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                self.fail("zero denominator", den_tok)
        frac = Fraction(num, den)
        return -frac if neg else frac

    def _scalar_atom(self) -> FieldElement:
        tok = self.peek()
        if tok.kind == "INT":
            return FieldElement.from_any(self._rational())
        if tok.kind == "(":
            self.advance()
            value = self.parse_scalar()
            self.expect(")")
            return value
        if tok.kind == "NAME" and tok.text == "i":
            self.advance()
            return zeta(4)
        if tok.kind == "NAME" and tok.text == "zeta":
            self.advance()
            self.expect("(")
            order_tok = self.expect("INT", "a root-of-unity order")
            order = int(order_tok.text)
            self.expect(")")
            value = self._build(order_tok, zeta, order)
            return self._maybe_power(value)
        if tok.kind == "NAME" and tok.text == "root":
            self.advance()
            self.expect("(")
            inner = self.parse_scalar()
            self.expect(",")
            m_tok = self.expect("INT", "a root order")
            self.expect(")")
            value = self._build(m_tok, adjoin_root, inner, int(m_tok.text))
            return self._maybe_power(value)
        self.fail(f"expected a scalar, found {tok.text or 'end of input'!r}")

    def _maybe_power(self, value: FieldElement) -> FieldElement:
        if self.at("^"):
            tok = self.advance()
            return self._build(tok, value.__pow__, self._exponent())
        return value

    # -- Jordan data -------------------------------------------------------

    def parse_jordan(self) -> RegularPart:
        open_tok = self.expect("[", "'['")
        blocks = []
        if not self.at("]"):
            while True:
                blocks.append(self._jordan_entry())
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect("]", "']'")
        return self._build(open_tok, RegularPart, blocks)

    def _jordan_entry(self) -> tuple[FieldElement, int]:
        self.expect("(")
        tok = self.peek()
        if self.at("NAME", "res") and self.at(":", ahead=1):
            self.advance()
            self.advance()
            eig = exp2pi(self._rational())
        else:
            eig = self.parse_scalar()
        if eig.is_zero():
            self.fail("zero eigenvalue", tok)
        self.expect(":")
        size_tok = self.expect("INT", "a block size")
        size = int(size_tok.text)
        if size < 1:
            self.fail("block sizes must be positive", size_tok)
        self.expect(")")
        return eig, size

    # -- singularity data --------------------------------------------------

    def parse_sing(self) -> SingularityDatum:
        head = self.expect_word("Sing")
        self.expect("(")
        self.expect_word("at")
        self.expect("=")
        if self.at("NAME", "infinity"):
            self.advance()
            location = INFINITY
        else:
            location = self.parse_scalar()
        fields: dict[str, object] = {}
        while self.at(","):
            self.advance()
            key_tok = self.expect("NAME", "a field name")
            key = key_tok.text
            if key in fields:
                self.fail(f"duplicate field {key!r}", key_tok)
            self.expect("=")
            if key in ("summands", "gt1", "lt1"):
                fields[key] = self.parse_conn().summands
            elif key == "germ":
                fields[key] = RegularGermData(self.parse_jordan())
            elif key == "reg":
                fields[key] = self.parse_jordan()
            elif key == "eq1":
                fields[key] = self._eq1_entries()
            else:
                self.fail(f"unknown field {key!r}", key_tok)
        self.expect(")")
        return self._build(
            head,
            SingularityDatum,
            location,
            summands=fields.get("summands", ()),
            germ=fields.get("germ"),
            slope_gt1=fields.get("gt1", ()),
            slope_eq1=fields.get("eq1", ()),
            slope_lt1=fields.get("lt1", ()),
            lt1_regular=fields.get("reg"),
        )

    def _eq1_entries(self):
        self.expect("[", "'['")
        entries = []
        if not self.at("]"):
            while True:
                self.expect("(")
                self.expect_word("shat")
                self.expect("=")
                shat = self.parse_scalar()
                els = ()
                reg = None
                while self.at(","):
                    self.advance()
                    key_tok = self.expect("NAME", "'els' or 'R'")
                    self.expect("=")
                    if key_tok.text == "els":
                        els = self.parse_conn().summands
                    elif key_tok.text == "R":
                        reg = self.parse_jordan()
                    else:
                        self.fail(f"unknown entry field {key_tok.text!r}", key_tok)
                self.expect(")")
                entries.append((shat, els, reg))
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect("]", "']'")
        return tuple(entries)


def parse(text: str) -> ParsedDocument:
    return _Parser(text).parse_document()


def parse_scalar_text(text: str) -> FieldElement:
    p = _Parser(text)
    value = p.parse_scalar()
    p.expect("EOF", "end of input")
    return value


# --------------------------------------------------------------------------
# printing

def _rat_str(r: Fraction, bare_ints: bool) -> str:
    if bare_ints and r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _factor_str(kind, payload, e: Fraction) -> str:
    base = payload if kind == "p" else render_scalar(payload, bare_ints=True)
    out = f"root({base},{e.denominator})"
    if e.numerator != 1:
        out += f"^{e.numerator}"
    return out


def _scalar_pieces(value: FieldElement, bare_ints: bool):
    """Top-level sum pieces as (negative, body) with positive bodies."""
    if value.is_zero():
        return [(False, "0" if bare_ints else "0/1")]
    pieces = []
    for factors, n, coords in value.radical_parts():
        rad = "*".join(_factor_str(k, p, e) for k, p, e in factors)
        inner = []
        for j, coord in enumerate(coords):
            if not coord:
                continue
            neg = coord < 0
            mag = -coord if neg else coord
            if j == 0:
                inner.append((neg, _rat_str(mag, bare_ints)))
            else:
                z = f"zeta({n})" + (f"^{j}" if j > 1 else "")
                if mag == 1:
                    inner.append((neg, z))
                else:
                    inner.append((neg, f"{_rat_str(mag, bare_ints)}*{z}"))
        if not rad:
            pieces.extend(inner)
        elif len(inner) == 1:
            neg, body = inner[0]
            if body in ("1", "1/1"):
                pieces.append((neg, rad))
            else:
                pieces.append((neg, f"{body}*{rad}"))
        else:
            pieces.append((False, f"({_join_signed(inner)})*{rad}"))
    return pieces


def _join_signed(pieces) -> str:
    out = []
    for k, (neg, body) in enumerate(pieces):
        if k == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def render_scalar(value: FieldElement, bare_ints: bool = True) -> str:
    return _join_signed(_scalar_pieces(value, bare_ints))


def render_series(s: LaurentSeries) -> str:
    parts = []
    for e, coeff in s.items():
        varpow = s.var if e == 1 else f"{s.var}^{e}"
        if e == 0:
            pieces = _scalar_pieces(coeff, bare_ints=False)
            if len(pieces) == 1:
                parts.append(pieces[0])
            else:
                parts.append((False, f"({_join_signed(pieces)})"))
            continue
        pieces = _scalar_pieces(coeff, bare_ints=False)
        if len(pieces) == 1:
            neg, body = pieces[0]
            if body == "1/1" and not neg:
                parts.append((False, varpow))
            else:
                parts.append((neg, f"{body}*{varpow}"))
        else:
            parts.append((False, f"({_join_signed(pieces)})*{varpow}"))
    if s.prec is not None:
        parts.append((False, f"O({s.var}^{s.prec})"))
    if not parts:
        return "0/1"
    return _join_signed(parts)


def render_jordan(reg: RegularPart) -> str:
    entries = ",".join(
        f"({render_scalar(eig)}:{size})" for eig, size in reg.jordan
    )
    return f"[{entries}]"


def _is_identity_series(s: LaurentSeries) -> bool:
    return s.prec is None and s.items() == ((1, ONE),)


def render_elementary(el: ElementaryConnection) -> str:
    if _is_identity_series(el.rho) and el.phi.is_exactly_zero():
        return f"Reg(R={render_jordan(el.reg)})"
    return (
        f"El(rho={render_series(el.rho)}, phi={render_series(el.phi)}, "
        f"R={render_jordan(el.reg)})"
    )


def render_connection(m: Union[FormalConnection, ElementaryConnection]) -> str:
    if isinstance(m, ElementaryConnection):
        return render_elementary(m)
    if not m.summands:
        return "Reg(R=[])"
    return " (+) ".join(render_elementary(el) for el in m.summands)


def render_datum(d: SingularityDatum) -> str:
    bits = []
    if d.is_infinity():
        bits.append("at=infinity")
        if d.slope_gt1:
            bits.append("gt1=" + " (+) ".join(map(render_elementary, d.slope_gt1)))
        if d.slope_eq1:
            entries = []
            for shat, els, reg in d.slope_eq1:
                entry = [f"shat={render_scalar(shat)}"]
                if els:
                    entry.append("els=" + " (+) ".join(map(render_elementary, els)))
                if reg is not None and reg.jordan:
                    entry.append(f"R={render_jordan(reg)}")
                entries.append("(" + ", ".join(entry) + ")")
            bits.append("eq1=[" + ",".join(entries) + "]")
        if d.slope_lt1:
            bits.append("lt1=" + " (+) ".join(map(render_elementary, d.slope_lt1)))
        if d.lt1_regular is not None:
            bits.append(f"reg={render_jordan(d.lt1_regular)}")
    else:
        bits.append(f"at={render_scalar(d.location)}")
        if d.summands:
            bits.append(
                "summands=" + " (+) ".join(map(render_elementary, d.summands))
            )
        if d.germ is not None:
            bits.append(f"germ={render_jordan(d.germ.psi)}")
    return "Sing(" + ", ".join(bits) + ")"


def render_document(doc: ParsedDocument) -> str:
    lines = []
    for s in doc.statements:
        body = (
            render_datum(s.value)
            if isinstance(s.value, SingularityDatum)
            else render_connection(s.value)
        )
        lines.append(body if s.name is None else f"{s.name} = {body};")
    return "\n".join(lines) + "\n"


def relabel_variable(
    m: Union[FormalConnection, ElementaryConnection], var: str = "u"
) -> Union[FormalConnection, ElementaryConnection]:
    """Rewrite in another letter; the variable's name carries no meaning."""

    def series(s: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(dict(s.coeffs), s.prec, var)

    def one(el: ElementaryConnection) -> ElementaryConnection:
        return ElementaryConnection(series(el.rho), series(el.phi), el.reg)

    if isinstance(m, ElementaryConnection):
        return one(m)
    return FormalConnection(tuple(one(el) for el in m.summands))


def connection_schema(m: Union[FormalConnection, ElementaryConnection]) -> dict:
    summands = [m] if isinstance(m, ElementaryConnection) else list(m.summands)
    rows = []
    for el in summands:
        rows.append(
            {
                "rho": render_series(el.rho),
                "phi": render_series(el.phi),
                "jordan": render_jordan(el.reg),
                "p": el.p,
                "q": el.q,
                "r": el.reg.rank,
                "slope": str(el.slope),
                "irr": el.irregularity,
                "rank": el.rank,
            }
        )
    total_rank = sum(r["rank"] for r in rows)
    total_irr = sum(r["irr"] for r in rows)
    return {"summands": rows, "total": {"rank": total_rank, "irr": total_irr}}


def print_canonical(m, format: str = "text") -> str:
    """Deterministic text of a connection, round-tripping through parse."""
    if format == "json":
        return json.dumps(connection_schema(m), indent=2)
    if format != "text":
        raise DomainError(f"unknown output format {format!r}")
    if isinstance(m, ParsedDocument):
        return render_document(m)
    if isinstance(m, SingularityDatum):
        return render_datum(m)
    return render_connection(m)
