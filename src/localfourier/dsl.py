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

'#' starts a comment running to the end of the line.  INT is ASCII digits
only; any other digit is an unexpected character, while NAME may hold any
letter.  A bare conn with no name and no ';' is accepted as a
one-expression document (handy on stdin).  Tokens carry no position: the
line and column of one are computed from the text only for a ParseError or
a Statement.
Sing keys are summands/germ at a finite point and gt1/eq1/lt1/reg at
infinity; eq1 holds entries '(shat=' scalar [', els=' conn] [', R=' jordan]
')'.  'res:r' in an eigenvalue position abbreviates e^(2 pi i r).

Printing is deterministic: series coefficients keep explicit denominators
(a lone '+1' drops, so 'u^2' but '-1/1*u^2'), exponent one prints as the
bare variable, eigenvalue and location integers print bare, and truncated
series carry their 'O(u^N)' tail.
"""

from __future__ import annotations

import re
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

# A token is its own text: '(+)', a symbol, an INT of ASCII digits or a NAME,
# and '' ends the input.  Blanks and '#' comments lead each match; a comment
# is skipped whole, up to its newline or the end of the text.
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*(?!.))*(\(\+\)|[0-9]+|\w+|[^ \t\r\n#]|\Z)")
_ASCII_TOKENS = re.compile(r"[\w=;()\[\],:^*/+-]*", re.ASCII)
_SYMBOLS = set("=;()[],:^*/+-")


def _tokenize(text: str) -> list[str]:
    toks = _TOKEN.findall(text)
    if not _ASCII_TOKENS.fullmatch("".join(toks)):
        # names may hold any letter; any other character is refused
        for m in _TOKEN.finditer(text):
            if m[1] == "(+)" or m[1] in _SYMBOLS:
                continue
            for k, ch in enumerate(m[1]):
                if not (ch.isalpha() or ch == "_" or "0" <= ch <= "9"):
                    raise ParseError(f"unexpected character {ch!r}", *_line_col(text, m.start(1) + k))
    return toks


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _locate(text: str, indices: list[int]) -> list[tuple[int, int]]:
    """Line and column of the tokens of `text` at `indices` (ascending), in one pass."""
    out = []
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == indices[len(out)]:
            offset = m.start(1)
            if not m[1]:
                # the end of input stands before a comment that runs to the end
                comment = text.find("#", max(m.start(), text.rfind("\n") + 1))
                offset = comment if comment >= 0 else offset
            out.append(_line_col(text, offset))
            if len(out) == len(indices):
                return out


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
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.var: Optional[str] = None

    # -- machinery ---------------------------------------------------------
    # tokens are addressed by index; only an error or a statement asks for
    # the line and column of one

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> int:
        self.pos += 1
        return self.pos - 1

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead] == text

    def fail(self, msg: str, index: Optional[int] = None):
        [where] = _locate(self.text, [self.pos if index is None else index])
        raise ParseError(msg, *where)

    def _expect_if(self, ok: bool, what: str) -> int:
        if not ok:
            self.fail(f"expected {what!r}, found {self.peek() or 'end of input'!r}")
        return self.advance()

    def expect(self, text: str, what: Optional[str] = None) -> int:
        return self._expect_if(self.peek() == text, what or text)

    def expect_name(self, what: str) -> int:
        return self._expect_if(_is_name(self.peek()), what)

    def expect_int(self, what: str) -> int:
        return self._expect_if(self.peek().isdigit(), what)

    def _build(self, index: int, ctor, *args, **kwargs):
        # constructor preconditions become located parse errors
        try:
            return ctor(*args, **kwargs)
        except ParseError:
            raise
        except DomainError as e:
            self.fail(str(e), index)

    # -- documents ---------------------------------------------------------

    def parse_document(self) -> ParsedDocument:
        if self.at(""):
            self.fail("empty document")
        if _is_name(self.peek()) and self.at("=", ahead=1):
            stmts = []
            names = set()
            starts = []
            while not self.at(""):
                k = self.expect_name("a statement name")
                name = self.toks[k]
                if name in _RESERVED:
                    self.fail(f"{name!r} is a reserved word", k)
                if name in names:
                    self.fail(f"duplicate name {name!r}", k)
                names.add(name)
                self.expect("=")
                if self.at("Sing"):
                    value = self.parse_sing()
                else:
                    value = self.parse_conn()
                self.expect(";", "';'")
                stmts.append((name, value))
                starts.append(k)
            return ParsedDocument(tuple(
                Statement(name, value, *where)
                for (name, value), where in zip(stmts, _locate(self.text, starts))
            ))
        value = self.parse_sing() if self.at("Sing") else self.parse_conn()
        if self.at(";"):
            self.advance()
        self.expect("", "end of input")
        [where] = _locate(self.text, [0])
        return ParsedDocument((Statement(None, value, *where),))

    # -- connections -------------------------------------------------------

    def parse_conn(self) -> FormalConnection:
        terms = [self.parse_term()]
        while self.at("(+)"):
            self.advance()
            terms.append(self.parse_term())
        return FormalConnection(tuple(terms))

    def parse_term(self) -> ElementaryConnection:
        k = self.pos
        if self.at("El"):
            self.advance()
            self.expect("(")
            self.expect("rho")
            self.expect("=")
            rho = self.parse_series()
            self.expect(",")
            self.expect("phi")
            self.expect("=")
            phi = self.parse_series()
            self.expect(",")
            self.expect("R")
            self.expect("=")
            reg = self.parse_jordan()
            self.expect(")")
            if rho.is_zero_to_precision():
                self.fail("rho must vanish to order at least one", k)
            if not rho.coeffs.get(0, ZERO).is_zero():
                self.fail("constant term in rho", k)
            return self._build(k, elementary, rho, phi, reg)
        if self.at("Reg"):
            self.advance()
            self.expect("(")
            self.expect("R")
            self.expect("=")
            reg = self.parse_jordan()
            self.expect(")")
            return self._build(k, regular_connection, reg)
        self.fail("expected El(...) or Reg(...)")

    # -- series ------------------------------------------------------------

    def _use_var(self, k: int) -> str:
        name = self.toks[k]
        if name in _RESERVED:
            self.fail(f"{name!r} is a reserved word", k)
        if self.var is None:
            self.var = name
        elif name != self.var:
            self.fail(f"series variable {name!r} conflicts with {self.var!r}", k)
        return name

    def _exponent(self) -> int:
        # after '^': an integer, explicitly signed or not
        neg = self.at("-")
        if neg:
            self.advance()
        val = int(self.toks[self.expect_int("an integer exponent")])
        if self.at("/"):
            self.fail("non-integer exponent")
        return -val if neg else val

    def parse_series(self) -> LaurentSeries:
        coeffs: dict[int, FieldElement] = {}
        prec: Optional[int] = None
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        while True:
            if self.at("O") and self.at("(", ahead=1):
                if sign < 0:
                    self.fail("the O tail cannot be subtracted")
                self.pos += 2
                self._use_var(self.expect_name("the series variable"))
                self.expect("^")
                prec = self._exponent()
                self.expect(")")
                if self.at("+") or self.at("-"):
                    self.fail("terms after the O tail")
                break
            exp, coeff = self.parse_monomial()
            if sign < 0:
                coeff = -coeff
            coeffs[exp] = coeffs[exp] + coeff if exp in coeffs else coeff
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
        coeff: Optional[FieldElement] = None
        exp: Optional[int] = None
        while True:
            tok = self.peek()
            if _is_name(tok) and tok not in ("zeta", "root", "i"):
                k = self.advance()
                self._use_var(k)
                if exp is not None:
                    self.fail("two variable factors in one term", k)
                if self.at("^"):
                    self.advance()
                    exp = self._exponent()
                else:
                    exp = 1
            else:
                atom = self._scalar_atom()
                coeff = atom if coeff is None else coeff * atom
            if self.at("*"):
                self.advance()
            else:
                break
        return (0 if exp is None else exp, ONE if coeff is None else coeff)

    # -- scalars -----------------------------------------------------------

    def parse_scalar(self) -> FieldElement:
        total: Optional[FieldElement] = None
        neg = self.at("-")
        if neg:
            self.advance()
        while True:
            value = self._scalar_atom()
            while self.at("*"):
                self.advance()
                value = value * self._scalar_atom()
            if neg:
                value = -value
            total = value if total is None else total + value
            neg = self.at("-")
            if neg or self.at("+"):
                self.advance()
            else:
                return total

    def _rational(self) -> Fraction:
        neg = self.at("-")
        if neg:
            self.advance()
        num = int(self.toks[self.expect_int("a number")])
        den = 1
        if self.at("/"):
            self.advance()
            k = self.expect_int("a denominator")
            den = int(self.toks[k])
            if den == 0:
                self.fail("zero denominator", k)
        frac = Fraction(num, den)
        return -frac if neg else frac

    def _scalar_atom(self) -> FieldElement:
        tok = self.peek()
        if tok.isdigit():
            return FieldElement.from_any(self._rational())
        if tok == "(":
            self.advance()
            value = self.parse_scalar()
            self.expect(")")
            return value
        if tok == "i":
            self.advance()
            return zeta(4)
        if tok == "zeta":
            self.advance()
            self.expect("(")
            k = self.expect_int("a root-of-unity order")
            self.expect(")")
            value = self._build(k, zeta, int(self.toks[k]))
            return self._maybe_power(value)
        if tok == "root":
            self.advance()
            self.expect("(")
            inner = self.parse_scalar()
            self.expect(",")
            k = self.expect_int("a root order")
            self.expect(")")
            value = self._build(k, adjoin_root, inner, int(self.toks[k]))
            return self._maybe_power(value)
        self.fail(f"expected a scalar, found {tok or 'end of input'!r}")

    def _maybe_power(self, value: FieldElement) -> FieldElement:
        if self.at("^"):
            k = self.advance()
            return self._build(k, value.__pow__, self._exponent())
        return value

    # -- Jordan data -------------------------------------------------------

    def parse_jordan(self) -> RegularPart:
        k = self.expect("[", "'['")
        blocks = []
        if not self.at("]"):
            while True:
                blocks.append(self._jordan_entry())
                if self.at(","):
                    self.advance()
                else:
                    break
        self.expect("]", "']'")
        return self._build(k, RegularPart, blocks)

    def _jordan_entry(self) -> tuple[FieldElement, int]:
        self.expect("(")
        k = self.pos
        if self.at("res") and self.at(":", ahead=1):
            self.pos += 2
            eig = exp2pi(self._rational())
        else:
            eig = self.parse_scalar()
        if eig.is_zero():
            self.fail("zero eigenvalue", k)
        self.expect(":")
        k = self.expect_int("a block size")
        size = int(self.toks[k])
        if size < 1:
            self.fail("block sizes must be positive", k)
        self.expect(")")
        return eig, size

    # -- singularity data --------------------------------------------------

    def parse_sing(self) -> SingularityDatum:
        head = self.expect("Sing")
        self.expect("(")
        self.expect("at")
        self.expect("=")
        if self.at("infinity"):
            self.advance()
            location = INFINITY
        else:
            location = self.parse_scalar()
        fields: dict[str, object] = {}
        while self.at(","):
            self.advance()
            k = self.expect_name("a field name")
            key = self.toks[k]
            if key in fields:
                self.fail(f"duplicate field {key!r}", k)
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
                self.fail(f"unknown field {key!r}", k)
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
                self.expect("shat")
                self.expect("=")
                shat = self.parse_scalar()
                els = ()
                reg = None
                while self.at(","):
                    self.advance()
                    k = self.expect_name("'els' or 'R'")
                    self.expect("=")
                    if self.toks[k] == "els":
                        els = self.parse_conn().summands
                    elif self.toks[k] == "R":
                        reg = self.parse_jordan()
                    else:
                        self.fail(f"unknown entry field {self.toks[k]!r}", k)
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
    p.expect("", "end of input")
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
    """Rewrite in another letter; the variable's name carries no meaning.

    m comes back as is when it uses var: nothing mutates a connection or a
    series after construction, so sharing them is safe.
    """
    summands = (m,) if isinstance(m, ElementaryConnection) else m.summands
    if all(el.rho.var == var for el in summands):
        return m

    def series(s: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(dict(s.coeffs), s.prec, var)

    def one(el: ElementaryConnection) -> ElementaryConnection:
        return ElementaryConnection(series(el.rho), series(el.phi), el.reg)

    if isinstance(m, ElementaryConnection):
        return one(m)
    return FormalConnection(tuple(one(el) for el in summands))


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


def print_canonical(m) -> str:
    """Deterministic text of a connection, round-tripping through parse."""
    if isinstance(m, ParsedDocument):
        return render_document(m)
    if isinstance(m, SingularityDatum):
        return render_datum(m)
    return render_connection(m)
