"""Operator-level check of the pole-to-infinity transform.

Everything here runs over the localized Weyl algebra: the one-term family
E^{a/t^q} is presented by the operator t^{q+1} d/dt + qa, pushed through
the integral-kernel substitution, ramified, twisted, and reduced to its
regular part, entirely independently of the series formulas in the
fourier module.  Substitutions read their images off integer tables of
normal-ordered powers (_power_table), one field multiplication per table
entry.  oracle_check compares the two routes stage by stage.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import mul
from typing import NamedTuple, Optional

from .connection import elementary
from .dsl import render_scalar
from .errors import DomainError, InternalError
from .exactfield import ZERO, FieldElement, exp2pi, rational
from .fourier import INFINITY, fourier_0_inf
from .series import LaurentSeries


def _falling(m: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= m - i
    return out


class WeylOperator:
    """Finite sum of monomials c * x^m d^n in normal order.

    Negative powers of x are allowed (the algebra is localized at x);
    derivative powers are nonnegative.  Products re-establish normal
    order through d x = x d + 1.
    """

    __slots__ = ("terms", "var")

    def __init__(self, terms=None, var: str = "t"):
        clean = {}
        for (m, n), c in (terms or {}).items():
            if n < 0:
                raise DomainError("negative derivative powers are not operators")
            c = FieldElement.from_any(c)
            if not c.is_zero():
                key = (int(m), int(n))
                acc = clean.get(key)
                clean[key] = c if acc is None else acc + c
        self.terms = {k: c for k, c in clean.items() if not c.is_zero()}
        self.var = var

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(var: str = "t") -> "WeylOperator":
        return WeylOperator({}, var)

    @staticmethod
    def scalar(c, var: str = "t") -> "WeylOperator":
        return WeylOperator({(0, 0): c}, var)

    @staticmethod
    def monomial(m: int, n: int, coeff=1, var: str = "t") -> "WeylOperator":
        return WeylOperator({(m, n): coeff}, var)

    # -- ring structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: int, n: int) -> FieldElement:
        return self.terms.get((m, n), ZERO)

    def __add__(self, other: "WeylOperator") -> "WeylOperator":
        self._same_var(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return WeylOperator(out, self.var)

    def __neg__(self) -> "WeylOperator":
        return WeylOperator({k: -c for k, c in self.terms.items()}, self.var)

    def __sub__(self, other: "WeylOperator") -> "WeylOperator":
        return self + (-other)

    def scale(self, c) -> "WeylOperator":
        c = FieldElement.from_any(c)
        return WeylOperator({k: v * c for k, v in self.terms.items()}, self.var)

    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        self._same_var(other)
        out = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                c = c1 * c2
                # d^n1 x^m2 = sum_k C(n1,k) (m2)_k x^(m2-k) d^(n1-k)
                for k in range(n1 + 1):
                    w = comb(n1, k) * _falling(m2, k)
                    if w == 0:
                        continue
                    key = (m1 + m2 - k, n1 + n2 - k)
                    piece = c * w
                    out[key] = out[key] + piece if key in out else piece
        return WeylOperator(out, self.var)

    def __pow__(self, n: int) -> "WeylOperator":
        if n < 0:
            raise DomainError("operators have no negative powers")
        out = WeylOperator.scalar(1, self.var)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.var == other.var and self.terms == other.terms

    def _same_var(self, other: "WeylOperator"):
        if self.var != other.var:
            raise DomainError(
                f"operators in {self.var} and {other.var} do not combine"
            )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (m, n), c in sorted(self.terms.items()):
            s = f"({c!r})"
            if m:
                s += f"*{self.var}^{m}"
            if n:
                s += f"*D^{n}"
            bits.append(s)
        return " + ".join(bits)


class LaplaceResult(NamedTuple):
    """Substituted operator, denominators cleared.

    The transform of the input equals theta^(-theta_power) * operator;
    the power is recorded so nothing is silently rescaled.
    """

    operator: WeylOperator
    theta_power: int


def _power_table(image: dict, n: int) -> list:
    """Normal-ordered powers image^0..image^n as tables of Python ints.

    The image and each row map (x-power, d-power, power of s) to an int:
    a sum of any number of terms int * s^j x^a d^b, b <= 1, with s one
    scalar kept symbolic.  Row i is the image times row i-1, reordered
    through d x^e = x^e d + e x^(e-1).  The substitutions read x^m d^n off
    one row: (theta^2 d - n theta)^m behind theta^(-n) for the Laplace
    kernel, (eta^(1-k) d)^n for the ramification, and (d - q s x^(-q-1))^n,
    s = lam, for the twist.
    """
    rows = [{(0, 0, 0): 1}]
    for _ in range(n):
        out = {}
        for (a1, b1, j1), c1 in image.items():
            for (a, b, j), w in rows[-1].items():
                key = (a1 + a, b1 + b, j1 + j)
                out[key] = out.get(key, 0) + c1 * w
                if b1 and a:
                    key = (a1 + a - 1, b, j1 + j)
                    out[key] = out.get(key, 0) + c1 * a * w
        rows.append({k: w for k, w in out.items() if w})
    return rows


def _assemble(parts, var: str) -> WeylOperator:
    # sum of x^shift * row over (row, shift, scaled); an s^j entry takes scaled[j]
    out = {}
    for row, shift, scaled in parts:
        for (a, b, j), w in row.items():
            key = (shift + a, b)
            piece = scaled[j] * w
            out[key] = out[key] + piece if key in out else piece
    return WeylOperator(out, var)


def laplace_substitute(a: WeylOperator, var: str = "theta") -> LaplaceResult:
    """Rewrite an operator in t as one in theta.

    The source variable becomes theta^2 d_theta and its derivative a bare
    theta^(-1), matching the kernel that pairs a pole at the origin with
    the point at infinity.
    """
    if any(m < 0 for m, _ in a.terms):
        raise DomainError("the substitution needs polynomial powers of the source variable")
    top = max((m for m, _ in a.terms), default=0)
    # (theta^2 d)^m theta^(-n) = theta^(-n) (theta^2 d - n theta)^m
    rows = {n: _power_table({(2, 1, 0): 1, (1, 0, 0): -n}, top) for n in {n for _, n in a.terms}}
    out = _assemble(((rows[n][m], -n, [c]) for (m, n), c in a.terms.items()), var)
    shift = max(0, -min((m for m, _ in out.terms), default=0))
    if shift:
        out = WeylOperator({(m + shift, n): c for (m, n), c in out.terms.items()}, var)
    return LaplaceResult(out, shift)


def newton_polygon_slopes(a: WeylOperator, at=0):
    """Slopes of the lower boundary, with their horizontal lengths.

    Each monomial x^m d^n is plotted at (n, m - n); at infinity the
    weight flips sign.  Falling stretches of the boundary are read as
    slope zero: a boundary that only falls means the point is regular.
    """
    if a.is_zero():
        raise DomainError("the zero operator has no Newton polygon")
    if at in (0, "0"):
        flip = 1
    elif at is INFINITY or at in ("inf", "infinity"):
        flip = -1
    else:
        raise DomainError(f"unknown expansion point {at!r}")
    best = {}
    for (m, n), _ in a.terms.items():
        w = flip * (m - n)
        if n not in best or w < best[n]:
            best[n] = w
    pts = sorted(best.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = max(Fraction(y2 - y1, x2 - x1), Fraction(0))
        length = x2 - x1
        if out and out[-1][0] == slope:
            out[-1] = (slope, out[-1][1] + length)
        else:
            out.append((slope, length))
    return out


def ramify_operator(a: WeylOperator, c, k: int, var: str = "eta") -> WeylOperator:
    """Pull back along theta = c * eta^k.

    theta goes to the monomial and theta d_theta picks up the factor 1/k;
    the substituted operator is re-expressed in normal order.
    """
    c = FieldElement.from_any(c)
    if c.is_zero():
        raise DomainError("the ramification constant must be nonzero")
    if k < 1:
        raise DomainError("the ramification order must be a positive integer")
    rows = _power_table({(1 - k, 1, 0): 1}, max((n for _, n in a.terms), default=0))
    parts = ((rows[n], k * m, [c0 * c ** (m - n) / k ** n]) for (m, n), c0 in a.terms.items())
    return _assemble(parts, var)


def _single_pole(phi: LaurentSeries):
    if phi.is_zero_to_precision():
        return 0, ZERO
    terms = dict(phi.coeffs)
    if len(terms) != 1:
        raise DomainError("the twist must be a single-term pole")
    (e, lam), = terms.items()
    if e >= 0:
        raise DomainError("the twist must be a single-term pole")
    return -e, lam


def twist_operator(a: WeylOperator, phi: LaurentSeries) -> WeylOperator:
    """Conjugate by the exponential of -phi, phi = lam / x^q.

    On operators built from x^(q+1) d and powers of x this replaces
    x^(q+1) d by x^(q+1) d - q lam; concretely the derivative maps to
    d - q lam x^(-q-1) and the result is re-normal-ordered.
    """
    for (m, n), _ in a.terms.items():
        if m < n:
            raise DomainError(
                "expected an operator built from x^(q+1) d and powers of x"
            )
    q, lam = _single_pole(phi)
    return _twists(a, q, [lam])[0]


def _twists(a: WeylOperator, q: int, lams) -> list:
    # a twisted by each lam / x^q off one table, row n times c * lam^j at s^j
    top = max((n for _, n in a.terms), default=0)
    rows = _power_table({(0, 1, 0): 1, (-q - 1, 0, 1): -q}, top)
    return [_assemble(((rows[n], m, list(accumulate(repeat(lam, n), mul, initial=c)))
                       for (m, n), c in a.terms.items()), a.var) for lam in lams]


class ResidueData(NamedTuple):
    residue: FieldElement
    monodromy: Optional[FieldElement]


def regular_residue(a: WeylOperator) -> ResidueData:
    """Residue of the rank-one regular part left after the twist.

    The operator is divided by the largest x-power it carries; the part
    of weight zero (equal x and derivative powers) is rewritten as a
    polynomial in x d, which must come out linear, c (x d - r).  Returns
    r and, when r is rational, the monodromy it implies on solutions.
    """
    if a.is_zero():
        raise DomainError("the zero operator has no regular part")
    shift = min(m for m, _ in a.terms)
    indicial = {}
    for (m, n), c in a.terms.items():
        if m - shift == n:
            # x^n d^n = s(s-1)...(s-n+1) with s = x d, in integer coefficients
            ff = [1]
            for i in range(n):
                ff = [u - i * v for u, v in zip([0] + ff, ff + [0])]
            for j, v in enumerate(ff):
                indicial[j] = indicial[j] + c * v if j in indicial else c * v
    degree = max((j for j, v in indicial.items() if not v.is_zero()), default=0)
    if degree != 1:
        raise DomainError(
            "the twisted operator has no rank-one regular part; the pole "
            "division leaves an indicial polynomial of degree " + str(degree)
        )
    residue = -indicial[0] / indicial[1]
    monodromy = None
    if residue.is_rational():
        monodromy = exp2pi(residue.as_rational())
    return ResidueData(residue, monodromy)


# --------------------------------------------------------------------------
# the stage-by-stage comparison

class OracleStage(NamedTuple):
    name: str
    closed_form: str
    pipeline: str
    detail: str = ""


class OracleReport(NamedTuple):
    """The stages of one passing check; a failed stage raises instead."""

    a: FieldElement
    q: int
    stages: tuple

    def lines(self):
        head = f"oracle check for the pole datum a = {render_scalar(self.a)}, q = {self.q}"
        body = [
            f"  [ok] {s.name}: closed form {s.closed_form}, operator route "
            f"{s.pipeline}" + (f" ({s.detail})" if s.detail else "")
            for s in self.stages
        ]
        return [head] + body


def _stage_fail(name: str, expected, got):
    raise InternalError(
        f"oracle stage {name!r}: closed form gives {expected!r}, the "
        f"operator route produced {got!r}"
    )


def oracle_check(a, q: int) -> OracleReport:
    """Drive the operator pipeline for E^(a/t^q) and compare both routes.

    Stages: Newton slope, ramification order, exponential twist with an
    exactly vanishing constant term (plus a perturbed-twist control that
    must not vanish), residue of the regular part, and monodromy.  Any
    disagreement raises naming the stage.
    """
    a = FieldElement.from_any(a)
    if a.is_zero():
        raise DomainError("the pole coefficient must be nonzero")
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise DomainError("the pole order must be a positive integer")
    stages = []

    el = elementary(LaurentSeries.identity(), LaurentSeries({-q: a}))
    tr = fourier_0_inf(el, sign="-")

    # operator of the family, times the multiplier the ramification puts on
    # the displayed form: the substitutions are linear, and scaling moves no
    # Newton slope
    c = tr.rho.leading_coefficient()
    mult = rational(tr.p) * ((rational(tr.p) / c) ** q)
    op = WeylOperator({(q + 1, 1): mult, (0, 0): a * q * mult})
    lap = laplace_substitute(op)
    if lap.theta_power:
        raise InternalError("the family's substituted operator is polynomial")

    slopes = newton_polygon_slopes(lap.operator, at=0)
    steep = [s for s in slopes if s[0] > 0]
    if len(steep) != 1 or steep[0][0] != tr.slope:
        _stage_fail("slope", tr.slope, slopes)
    slope = steep[0][0]
    stages.append(OracleStage("slope", str(tr.slope), str(slope)))

    ram = slope.denominator
    if ram != tr.p or tr.rho.valuation() != ram:
        _stage_fail("ramification", tr.p, ram)
    stages.append(OracleStage("ramification", str(tr.p), str(ram)))

    eta_op = ramify_operator(lap.operator, c, ram)

    if tr.q != q:
        _stage_fail("twist", q, tr.q)
    lam = tr.phi.coefficient(-q)
    twisted, control = _twists(eta_op, q, [lam, lam * rational(2)])
    const = twisted.coefficient(0, 0)
    if not const.is_zero():
        _stage_fail("twist", ZERO, const)
    if control.coefficient(0, 0).is_zero():
        _stage_fail("twist-control", "nonzero constant term", ZERO)
    stages.append(
        OracleStage(
            "twist",
            f"coefficient {render_scalar(lam)}",
            "constant term vanishes",
            "perturbed twist leaves it nonzero",
        )
    )

    res = regular_residue(twisted)
    expected = rational(Fraction(q + 2, 2))
    if res.residue != expected:
        _stage_fail("residue", expected, res.residue)
    stages.append(
        OracleStage("residue", str(Fraction(q + 2, 2)), render_scalar(res.residue))
    )

    mono = tr.reg.eigenvalue_product()
    if res.monodromy != mono:
        _stage_fail("monodromy", mono, res.monodromy)
    stages.append(
        OracleStage("monodromy", render_scalar(mono), render_scalar(res.monodromy))
    )

    return OracleReport(a, q, tuple(stages))
