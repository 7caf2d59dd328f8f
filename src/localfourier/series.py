"""Formal Laurent series with explicit precision tracking.

A series is a finite table of exact coefficients plus a precision marker.
``prec=None`` means the table is the whole series (exact); ``prec=P`` means
every coefficient of u^k with k < P is known and nothing is claimed beyond.
Operations propagate precision pessimistically, so a result is either exact
or carries an honest bound; consumers that need completed data (for example
extraction of a polar part) raise PrecisionError instead of guessing.

Operations that turn an exact input into a genuinely infinite expansion
(inverse of a non-monomial, fractional roots, reversion) truncate at a
working window.  The caller chooses it through the ``window`` argument;
without one the default of working_window(0, 0) applies.  Both operands of
arithmetic must share one variable.

Two recurrences serve them all, for f = c u^v (1 + h).  Quotients, the
inverse among them, come from one division recurrence straight from the
numerator's coefficients.  Miller's power recurrence expands (1 + h)^alpha,
which gives roots directly and, through the Lagrange-Buermann formula,
reversion and substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Optional, Union

from .errors import DomainError, PrecisionError
from .exactfield import ONE, ZERO, FieldElement, adjoin_root

Scalar = Union[FieldElement, int, Fraction]


def working_window(p: int, q: int) -> int:
    """Relative coefficient budget for computations at ramification p, pole q."""
    return max(2 * (p + q) + 8, 16)


class LaurentSeries:
    """A Laurent series in one variable over the exact scalar field."""

    __slots__ = ("coeffs", "prec", "var")

    def __init__(
        self,
        coeffs: dict[int, Scalar],
        prec: Optional[int] = None,
        var: str = "u",
    ):
        table: dict[int, FieldElement] = {}
        for k, v in coeffs.items():
            fe = FieldElement.from_any(v)
            if fe.is_zero():
                continue
            if prec is not None and k >= prec:
                continue
            table[k] = fe
        self.coeffs = table
        self.prec = prec
        self.var = var

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(var: str = "u") -> "LaurentSeries":
        return LaurentSeries({}, None, var)

    @staticmethod
    def one(var: str = "u") -> "LaurentSeries":
        return LaurentSeries({0: ONE}, None, var)

    @staticmethod
    def monomial(exp: int, coeff: Scalar = 1, var: str = "u") -> "LaurentSeries":
        return LaurentSeries({exp: coeff}, None, var)

    @staticmethod
    def identity(var: str = "u") -> "LaurentSeries":
        return LaurentSeries({1: ONE}, None, var)

    # -- predicates and access ---------------------------------------------

    def is_exactly_zero(self) -> bool:
        return not self.coeffs and self.prec is None

    def is_zero_to_precision(self) -> bool:
        """No nonzero coefficient in the known range (weaker than exact zero)."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.prec is None

    def valuation(self) -> int:
        if self.coeffs:
            return min(self.coeffs)
        if self.prec is None:
            raise DomainError("the zero series has no valuation")
        raise PrecisionError(
            f"series is zero to O({self.var}^{self.prec}); valuation unknown"
        )

    def _val_bound(self) -> Union[int, float]:
        # a sound lower bound for the valuation, usable on any series
        if self.coeffs:
            return min(self.coeffs)
        return inf if self.prec is None else self.prec

    def coefficient(self, k: int) -> FieldElement:
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(
                f"coefficient of {self.var}^{k} lies beyond O({self.var}^{self.prec})"
            )
        return self.coeffs.get(k, ZERO)

    def leading_coefficient(self) -> FieldElement:
        return self.coeffs[self.valuation()]

    def items(self) -> tuple[tuple[int, FieldElement], ...]:
        return tuple(sorted(self.coeffs.items()))

    # -- structural helpers ------------------------------------------------

    def truncate(self, prec: int) -> "LaurentSeries":
        new_prec = prec if self.prec is None else min(self.prec, prec)
        return LaurentSeries(self.coeffs, new_prec, self.var)

    def with_var(self, var: str) -> "LaurentSeries":
        return LaurentSeries(self.coeffs, self.prec, var)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by var^n."""
        return LaurentSeries(
            {k + n: v for k, v in self.coeffs.items()},
            None if self.prec is None else self.prec + n,
            self.var,
        )

    def scale(self, c: Scalar) -> "LaurentSeries":
        fe = FieldElement.from_any(c)
        if fe.is_zero():
            return LaurentSeries.zero(self.var)
        return LaurentSeries(
            {k: v * fe for k, v in self.coeffs.items()}, self.prec, self.var
        )

    def principal_part(self) -> "LaurentSeries":
        """The strictly negative-exponent tail, certified complete.

        Requires the series to be known at least through exponent -1.
        """
        if self.prec is not None and self.prec < 0:
            raise PrecisionError(
                f"polar part not determined: series only known to O({self.var}^{self.prec})"
            )
        return LaurentSeries(
            {k: v for k, v in self.coeffs.items() if k < 0}, None, self.var
        )

    def regular_part(self) -> "LaurentSeries":
        return LaurentSeries(
            {k: v for k, v in self.coeffs.items() if k >= 0}, self.prec, self.var
        )

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.prec == other.prec

    def agrees_to_precision(self, other: "LaurentSeries") -> bool:
        """Equal on every exponent both sides know (full equality when exact)."""
        if self.prec is None and other.prec is None:
            return self.coeffs == other.coeffs
        bound = min(
            self.prec if self.prec is not None else inf,
            other.prec if other.prec is not None else inf,
        )
        exps = {k for k in self.coeffs if k < bound} | {
            k for k in other.coeffs if k < bound
        }
        return all(self.coeffs.get(k, ZERO) == other.coeffs.get(k, ZERO) for k in exps)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.var)
        prec = _min_prec(self.prec, other.prec)
        table = dict(self.coeffs)
        for k, v in other.coeffs.items():
            table[k] = table[k] + v if k in table else v
        return LaurentSeries(table, prec, self.var)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({k: -v for k, v in self.coeffs.items()}, self.prec, self.var)

    def __sub__(self, other):
        return self + (-_coerce(other, self.var))

    def __rsub__(self, other):
        return _coerce(other, self.var) + (-self)

    def __mul__(self, other):
        other = _coerce(other, self.var)
        if self.is_exactly_zero() or other.is_exactly_zero():
            return LaurentSeries.zero(self.var)
        prec: Optional[Union[int, float]]
        if self.prec is None and other.prec is None:
            prec = None
        else:
            va, vb = self._val_bound(), other._val_bound()
            pa = self.prec if self.prec is not None else inf
            pb = other.prec if other.prec is not None else inf
            prec = min(va + pb, vb + pa)
        table: dict[int, FieldElement] = {}
        for ka, va_ in self.coeffs.items():
            for kb, vb_ in other.coeffs.items():
                k = ka + kb
                if prec is not None and k >= prec:
                    continue
                prod = va_ * vb_
                table[k] = table[k] + prod if k in table else prod
        return LaurentSeries(table, None if prec is None else int(prec), self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.divide(other)

    def __rtruediv__(self, other):
        return _coerce(other, self.var).divide(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError("series powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return LaurentSeries.one(self.var) if out is None else out
            base = base * base

    def derivative(self) -> "LaurentSeries":
        table = {
            k - 1: v * Fraction(k) for k, v in self.coeffs.items() if k != 0
        }
        prec = None if self.prec is None else self.prec - 1
        return LaurentSeries(table, prec, self.var)

    # -- the exact-to-infinite operations ----------------------------------

    def inverse(self, window: Optional[int] = None) -> "LaurentSeries":
        """The multiplicative inverse 1/f: one divided by f, with divide's precision."""
        return LaurentSeries.one(self.var).divide(self, window)

    def divide(self, den, window: Optional[int] = None) -> "LaurentSeries":
        """The quotient self/den, by one division recurrence (TAOCP vol. 2, 4.7).

        With den = c u^v (1 + h), q_k = a_k/c - sum_j h_j q_(k-j) straight from
        self's coefficients a_k.  An exact monomial den divides exactly;
        otherwise the relative precision is that of an inexact den, or the
        window for an exact one, counted from the valuation of the quotient.
        """
        den = _coerce(den, self.var)
        if den.is_exactly_zero():
            raise DomainError("division by the zero series")
        v = den.valuation()
        c_inv = ONE / den.coeffs[v]
        if len(den.coeffs) == 1 and den.prec is None:
            table = {k - v: x * c_inv for k, x in self.coeffs.items()}
            return LaurentSeries(table, None if self.prec is None else self.prec - v, self.var)
        if self.is_exactly_zero():
            return LaurentSeries.zero(self.var)
        neg_h, rel = den._unit_part(-c_inv, window)
        low = self._val_bound() - v
        top = low + rel if self.prec is None else min(low + rel, self.prec - v)
        q: list[FieldElement] = []
        for k in range(top - low):
            a = self.coeffs.get(low + v + k)
            acc = ZERO if a is None else a * c_inv
            for j, x in neg_h:
                if j > k:
                    break
                if not q[k - j].is_zero():
                    acc = acc + x * q[k - j]
            q.append(acc)
        return LaurentSeries({low + k: x for k, x in enumerate(q)}, top, self.var)

    def nth_root(self, m: int, window: Optional[int] = None) -> "LaurentSeries":
        """The canonical m-th root by Miller's recurrence; m must divide the valuation."""
        if m < 1:
            raise DomainError("root order must be a positive integer")
        if self.is_exactly_zero():
            raise DomainError("the zero series has no root")
        v = self.valuation()
        if v % m:
            raise DomainError(f"valuation {v} is not divisible by {m}; root leaves the variable")
        c = self.coeffs[v]
        lead, s = adjoin_root(c, m), v // m
        if len(self.coeffs) == 1 and self.prec is None:
            return LaurentSeries.monomial(s, lead, self.var)
        h, rel = self._unit_part(ONE / c, window)
        b = _miller(h, Fraction(1, m), rel)
        return LaurentSeries({s + k: lead * x for k, x in enumerate(b)}, s + rel, self.var)

    def _unit_part(self, c_inv: FieldElement, window: Optional[int]):
        """Write self = c u^v (1 + h); return the terms (j, h_j) of h and rel.

        c_inv is 1/c (divide passes -1/c to get the terms of -h).  rel is
        the relative precision: that of an inexact input, or the window (by
        default working_window(0, 0)) for an exact one.  h is cut below it.
        """
        v = self.valuation()
        if self.prec is not None:
            rel = self.prec - v
        else:
            rel = working_window(0, 0) if window is None else window
        h = [(k - v, x * c_inv) for k, x in sorted(self.coeffs.items()) if v < k < v + rel]
        return h, rel

    def lagrange(self, rho: "LaurentSeries", exps: range) -> "LaurentSeries":
        """The coefficients of v^n, n in exps, of self(lambda(v)), all n != 0.

        Write rho = c u^p (1 + h), root the canonical p-th root of c, and
        lambda the compositional inverse of root u (1 + h)^(1/p), so that
        rho(lambda(v)) = v^p.  Lagrange-Buermann gives [v^n] self(lambda) =
        root^-n (1/n) [u^(n-1)] self' (1 + h)^(-n/p), with the powers of 1 + h
        from Miller's recurrence, so nothing is reversed or composed.  root^-n
        is a positive power of root for the n < 0 of an exponential factor.
        self must be exact, and so is the result.  Raises PrecisionError when
        rho is not known far enough for the largest n.
        """
        if not exps or self.is_exactly_zero():
            return LaurentSeries.zero(self.var)
        df = self.derivative()
        dval = df.valuation()
        need = max(exps) - dval
        p, c = rho.valuation(), rho.leading_coefficient()
        c_inv = ONE / c
        h, rel = rho._unit_part(c_inv, need)
        if rel < need:
            raise PrecisionError(f"rho is needed to relative order {need}, not {rel}")
        root = None if c.is_one() else adjoin_root(c, p)
        table = {}
        for n in exps:
            b = _miller(h, Fraction(-n, p), n - dval)
            terms = [x * b[n - 1 - i] for i, x in df.coeffs.items() if i < n]
            x = sum(terms, ZERO) * Fraction(1, n)
            table[n] = x if root is None else x * root ** -n
        return LaurentSeries(table, None, self.var)

    def compose(self, g: "LaurentSeries", window: Optional[int] = None) -> "LaurentSeries":
        """f(g(u)) for g of strictly positive valuation."""
        if g.is_exactly_zero() or g._val_bound() < 1:
            raise DomainError("composition requires a series of valuation >= 1")
        if self.is_exactly_zero():
            return LaurentSeries.zero(g.var)
        out = LaurentSeries.zero(g.var)
        ginv = None
        exps = sorted(self.coeffs)
        for k in exps:
            if k < 0 and ginv is None:
                ginv = g.inverse(window=window)
            base = (ginv ** (-k)) if k < 0 else (g ** k)
            out = out + base.scale(self.coeffs[k])
        if self.prec is not None:
            # the unknown tail of f starts contributing at g-valuation times prec
            gv = g._val_bound()
            if gv is not inf:
                out = out.truncate(int(self.prec * gv))
        return out

    def reversion(self, window: Optional[int] = None) -> "LaurentSeries":
        """The compositional inverse of a series of valuation exactly 1.

        It is lagrange's lambda for rho = self = a u (1 + h), read off f = u:
        [v^n] self^-1 = (1/n) a^-n [u^(n-1)] (1 + h)^-n.
        """
        if self.is_zero_to_precision() or self.valuation() != 1:
            raise DomainError("reversion requires valuation exactly 1")
        if len(self.coeffs) == 1 and self.prec is None:
            return LaurentSeries.monomial(1, ONE / self.coeffs[1], self.var)
        rel = working_window(0, 0) if window is None else window
        target = self.prec if self.prec is not None else 1 + rel
        g = LaurentSeries.identity(self.var).lagrange(self, range(1, target))
        return LaurentSeries(g.coeffs, target, self.var)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join(
                f"({v!r})*{self.var}^{k}" for k, v in sorted(self.coeffs.items())
            )
        tail = "" if self.prec is None else f" + O({self.var}^{self.prec})"
        return f"<series {body}{tail}>"


def _coerce(x, var: str) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        if x.var != var:
            raise DomainError(f"series in {x.var} and in {var} do not combine")
        return x
    if isinstance(x, (int, Fraction, FieldElement)):
        fe = FieldElement.from_any(x)
        if fe.is_zero():
            return LaurentSeries.zero(var)
        return LaurentSeries({0: fe}, None, var)
    raise DomainError(f"cannot treat {type(x).__name__} as a series")


def _min_prec(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _miller(h: list[tuple[int, FieldElement]], alpha: Fraction, n: int) -> list[FieldElement]:
    """The first n coefficients b_k of (1 + h)^alpha, h given by its terms (j, h_j).

    J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7),
    k b_k = sum_j ((alpha + 1) j - k) h_j b_(k-j), costs O(n t) scalar
    operations for a series h of t terms, all of exponent j >= 1.
    """
    b = [ONE]
    for k in range(1, n):
        acc = ZERO
        for j, hj in h:
            if j > k:
                break
            w = ((alpha + 1) * j - k) / k
            if w and not b[k - j].is_zero():
                acc = acc + hj * b[k - j] * w
        b.append(acc)
    return b
