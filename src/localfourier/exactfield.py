"""Exact scalar arithmetic in cyclotomic fields with optional radicals.

Scalars live in Q(zeta_N); N grows on demand when values from different
orders meet, so the caller never manages field embeddings by hand.  On top
of the cyclotomic layer an element may carry radical factors x with
x^m = gamma.  Radicals are kept in multiplicative normal form:

* positive rationals factor prime-wise, so root(2,2)*root(8,2) reduces to 4
  without any special casing;
* a root of unity zeta_N^k gets the canonical m-th root zeta_{mN}^k (N taken
  minimal, k reduced mod N);
* only a gamma that is not a root of unity times a rational receives an
  opaque generator, identified by the value of gamma and ordered by its
  sort key, so the same gamma gives the same generator in any process.

Equality is decidable within one tower of such generators; nesting depth is
capped at MAX_TOWER_DEPTH.  All arithmetic is exact; nothing here touches
floating point.

A monomial is inverted directly.  A sum is inverted by a norm taken one
generator g at a time: with m the lcm of the denominators of g's exponents,
the product conj of the Kummer conjugates g^e -> zeta_m^(j e m) g^e, 0 < j < m,
makes a * conj free of g, and 1/a = conj / (a * conj).  When a * conj is zero
the formal generators satisfy a relation over Q(zeta_N) and division is
refused with FieldError; sums over depth-2 generators are refused as well.

Values of Q(zeta_N) are power-basis coordinates of length phi(N).  A table
per order N, built once with integer entries, holds the coordinates of each
zeta_N^k, k < N, so reduction is a sum of table rows; an inverse is the
product of the other Galois conjugates over the rational norm.  Sort keys,
rationality tests and printed coefficients use the minimal field Q(zeta_d)
holding a value, read off the coordinates one prime of N at a time with no
linear solve; the only caches here are keyed by a cyclotomic order.
A rational operand (order 1) is scaled in or added to coordinate 0 in place,
never lifted, and radical_parts is the only coordinate view outside this
module.

A rational value also carries itself as a bare Fraction.  When every
operand is rational, division, equality, is_one, as_rational and sort keys
work on those Fractions alone and skip the coordinate layer; they return
exactly what the coordinates would.  Sums and products keep the coordinate
path for now (see ROADMAP, "The `population` ceiling").
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Optional, Union

from .errors import DomainError, FieldError, InternalError, TowerDepthError

MAX_TOWER_DEPTH = 2

_ZERO = Fraction(0)
_ONE = Fraction(1)


# --------------------------------------------------------------------------
# small number theory helpers

def _factorize(n: int) -> dict[int, int]:
    # trial division; arguments here are tiny (cyclotomic orders, numerators)
    if n <= 0:
        raise InternalError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def _euler_phi(n: int) -> int:
    total = 1
    for p, e in _factorize(n).items():
        total *= (p - 1) * p ** (e - 1)
    return total


def _reduce_unit(n: int, k: int) -> tuple[int, int]:
    # zeta_n^k written with n equal to the actual order of the unit
    k %= n
    g = gcd(k, n) if k else n
    return n // g, k // g


@lru_cache(maxsize=None)
def _zeta_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row k < n: the sparse integer coordinates (i, t) of zeta_n^k in the
    # basis zeta_n^i, i < phi(n).  Phi_n = prod_{e | rad(n)} (x^(n/e) - 1)^mu(e),
    # with every factor multiplied in before the exact divisions.
    primes = list(_factorize(n))
    steps = sorted(
        (len(sub) % 2, n // prod(sub))
        for size in range(len(primes) + 1)
        for sub in combinations(primes, size)
    )
    poly = [1]
    for divide, d in steps:
        if divide:
            # a = q (x^d - 1) gives q[k - d] = a[k] + q[k], from the top down
            for k in range(len(poly) - 1, d - 1, -1):
                poly[k - d] += poly[k]
            poly = poly[d:]
        else:
            poly = [0] * d + poly
            for k in range(len(poly) - d):
                poly[k] -= poly[k + d]
    phi = len(poly) - 1
    rows = [((k, 1),) for k in range(phi)]
    top = [0] * (phi - 1) + [1]
    for _ in range(phi, n):
        # x^k = x * x^(k-1), and x^phi = x^phi - Phi_n(x)
        lead, top = top[-1], [0] + top[:-1]
        top = [t - lead * c for t, c in zip(top, poly)]
        rows.append(tuple((i, t) for i, t in enumerate(top) if t))
    return tuple(rows)


# --------------------------------------------------------------------------
# the cyclotomic layer: values of Q(zeta_n) in the power basis

class _Cyc:
    """A value of Q(zeta_n), stored as reduced coordinates of length phi(n)."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: tuple[Fraction, ...]):
        self.n = n
        self.c = c

    @staticmethod
    def from_powers(n: int, powers: dict[int, Fraction]) -> "_Cyc":
        # dict exponent -> coefficient, exponents arbitrary integers
        return _Cyc(n, _cyc_reduce(n, powers.items()))

    def is_zero(self) -> bool:
        return not any(self.c)


def _cyc_reduce(n: int, pairs) -> tuple[Fraction, ...]:
    # coordinates of sum v zeta_n^k over the (k, v) pairs, k any integer
    table = _zeta_powers(n)
    out = [_ZERO] * _euler_phi(n)
    for k, v in pairs:
        if v:
            for i, t in table[k % n]:
                out[i] += v * t
    return tuple(out)


_CYC_ZERO = _Cyc(1, (_ZERO,))
_CYC_ONE = _Cyc(1, (_ONE,))


def _cyc_lift(a: _Cyc, n: int) -> _Cyc:
    # re-express in Q(zeta_n); a.n must divide n
    if a.n == n:
        return a
    if n % a.n:
        raise InternalError("lift target order must be a multiple")
    step = n // a.n
    return _Cyc(n, _cyc_reduce(n, ((i * step, v) for i, v in enumerate(a.c))))


def _cyc_pair(a: _Cyc, b: _Cyc) -> tuple[_Cyc, _Cyc, int]:
    n = lcm(a.n, b.n)
    return _cyc_lift(a, n), _cyc_lift(b, n), n


def _cyc_add(a: _Cyc, b: _Cyc) -> _Cyc:
    # a rational r lifts to (r, 0, ..., 0): it only moves coordinate 0
    if a.n == 1:
        a, b = b, a
    if b.n == 1:
        return _Cyc(a.n, (a.c[0] + b.c[0],) + a.c[1:])
    a, b, n = _cyc_pair(a, b)
    return _Cyc(n, tuple(x + y for x, y in zip(a.c, b.c)))


def _cyc_neg(a: _Cyc) -> _Cyc:
    return _Cyc(a.n, tuple(-x for x in a.c))


def _cyc_mul(a: _Cyc, b: _Cyc) -> _Cyc:
    if a.is_zero() or b.is_zero():
        return _CYC_ZERO
    if a.n == 1:
        a, b = b, a
    if b.n == 1:
        r = b.c[0]
        return _Cyc(a.n, tuple(r * x for x in a.c))
    a, b, n = _cyc_pair(a, b)
    dense = [_ZERO] * (2 * len(a.c) - 1)
    for i, x in enumerate(a.c):
        if x:
            for j, y in enumerate(b.c):
                if y:
                    dense[i + j] += x * y
    return _Cyc(n, _cyc_reduce(n, enumerate(dense)))


def _cyc_inv(a: _Cyc) -> _Cyc:
    # 1/a = conj / (a * conj), conj the product of the conjugates sigma_k(a),
    # k a unit other than 1 mod n, so that a * conj is the rational norm
    if a.is_zero():
        raise DomainError("division by zero in the coefficient field")
    a = _cyc_contract(a)
    n = a.n
    conj = _CYC_ONE
    for k in range(2, n):
        if gcd(k, n) == 1:
            sigma = _Cyc(n, _cyc_reduce(n, ((j * k, v) for j, v in enumerate(a.c))))
            conj = _cyc_mul(conj, sigma)
    norm = _cyc_mul(a, conj).c[0]
    return _Cyc(conj.n, tuple(x / norm for x in conj.c))


def _cyc_contract(a: _Cyc) -> _Cyc:
    # minimal d | n with a in Q(zeta_d); unique coordinates there.  The fields
    # holding a are the Q(zeta_d) with d0 | d, so dropping each prime of n
    # for as long as the coordinates allow it reaches d0 in one pass.
    if a.is_zero():
        return _CYC_ZERO
    n, c = a.n, a.c
    for ell in _factorize(n):
        while n % ell == 0:
            down = _cyc_drop_prime(n, ell, c)
            if down is None:
                break
            n, c = n // ell, down
    return _Cyc(n, c)


def _cyc_drop_prime(n: int, ell: int, c: tuple[Fraction, ...]) -> Optional[tuple[Fraction, ...]]:
    # coordinates in Q(zeta_m), m = n / ell, of the value c of Q(zeta_n), or None
    m = n // ell
    if m % ell == 0:
        # Phi_n(x) = Phi_m(x^ell): Q(zeta_m) is spanned by the powers of zeta_n^ell
        if any(v for j, v in enumerate(c) if j % ell):
            return None
        return c[::ell]
    # zeta_n^j = zeta_m^b zeta_ell^r with j = ell b + m r (mod n), so the value
    # is sum_r A_r zeta_ell^r with parts A_r in Q(zeta_m).  Over Q(zeta_m) the
    # zeta_ell^r, r < ell - 1, are a basis and zeta_ell^(ell-1) is minus their
    # sum: the value lies in Q(zeta_m) iff A_1 = ... = A_(ell-1), as A_0 - A_(ell-1)
    inv_ell, inv_m = pow(ell, -1, m), pow(m, -1, ell)
    groups = [[] for _ in range(ell)]
    for j, v in enumerate(c):
        groups[j * inv_m % ell].append((j * inv_ell, v))
    parts = [_cyc_reduce(m, g) for g in groups]
    if any(part != parts[-1] for part in parts[1:-1]):
        return None
    return tuple(x - y for x, y in zip(parts[0], parts[-1]))


# --------------------------------------------------------------------------
# radical generators

class _OpaqueGen:
    """A generator x with x^m = gamma, compared by the sort key of gamma."""

    __slots__ = ("gamma", "level", "key", "_hash")

    def __init__(self, gamma: "FieldElement", level: int):
        self.gamma = gamma
        self.level = level
        self.key = gamma.sort_key()
        self._hash = hash(self.key)

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"root({self.gamma!r})"


# a monomial maps generator keys to exponents in (0, 1); generator key:
# ('p', prime) for the prime radical p^e, ('x', _OpaqueGen) for an opaque one
_Monomial = frozenset

_TRIVIAL_MONO: _Monomial = frozenset()


def _gen_level(key) -> int:
    return 1 if key[0] == "p" else key[1].level


class FieldElement:
    """An exact scalar: cyclotomic combination of radical monomials."""

    __slots__ = ("_terms", "_key_cache", "_q")

    def __init__(self, terms: dict[_Monomial, _Cyc]):
        self._terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self._key_cache = None
        # _q: the value as a Fraction if it is rational, else None; rational
        # means no radical term and coordinates (r, 0, ...) in the basis 1, zeta, ...
        c = self._terms.get(_TRIVIAL_MONO, _CYC_ZERO)
        alone = len(self._terms) == (0 if c is _CYC_ZERO else 1)
        self._q = c.c[0] if alone and not any(c.c[1:]) else None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_any(x: Union["FieldElement", int, Fraction]) -> "FieldElement":
        if isinstance(x, FieldElement):
            return x
        if isinstance(x, (int, Fraction)):
            return _of_fraction(Fraction(x))
        raise DomainError(f"cannot coerce {type(x).__name__} into the scalar field")

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._q == 1

    def is_rational(self) -> bool:
        return self._q is not None

    def as_rational(self) -> Optional[Fraction]:
        return self._q

    def has_radicals(self) -> bool:
        return any(self._terms)

    def cyclotomic_order(self) -> int:
        """Minimal N with every cyclotomic coefficient inside Q(zeta_N)."""
        n = 1
        for c in self._terms.values():
            n = lcm(n, _cyc_contract(c).n)
        return n

    def tower_level(self) -> int:
        level = 0
        for m in self._terms:
            for key, _ in m:
                level = max(level, _gen_level(key))
        return level

    def as_zeta_monomial(self) -> Optional[tuple[Fraction, int, int]]:
        """Express as r * zeta_n^k with r a positive rational, n minimal.

        Returns None when the value has radical factors or is not of that
        multiplicative shape.  Zero has no such form.
        """
        if self.is_zero() or self.has_radicals():
            return None
        c = _cyc_contract(self._terms[_TRIVIAL_MONO])
        n = c.n
        for k in range(n):
            cand = _cyc_mul(c, _Cyc.from_powers(n, {(n - k) % n: _ONE}))
            cand = _cyc_contract(cand)
            if cand.n == 1:
                r = cand.c[0]
                if r > 0:
                    return (r,) + _reduce_unit(n, k)
                # fold the sign into the root of unity
                n2 = lcm(n, 2)
                return (-r,) + _reduce_unit(n2, k * (n2 // n) + n2 // 2)
        return None

    def radical_parts(self):
        """List (monomial factors, n, coords) for printing, off sort_key().

        Factors come as (kind, payload, exponent) with kind 'p' (payload a
        prime) or 'x' (payload the defining gamma as a FieldElement).  The
        coefficient of the monomial is sum coords[j] zeta_n^j, n minimal.
        """
        if self._q is not None:
            return [([], 1, (self._q,))] if self._q else []
        return [
            ([(k[0], k[1] if k[0] == "p" else k[1].gamma, e) for k, e in mono], n, c)
            for mono, n, c in self.sort_key()[1]
        ]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = FieldElement.from_any(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = _cyc_add(terms[m], c) if m in terms else c
        return FieldElement(terms)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement({m: _cyc_neg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-FieldElement.from_any(other))

    def __rsub__(self, other):
        return FieldElement.from_any(other) + (-self)

    def __mul__(self, other):
        other = FieldElement.from_any(other)
        if not (self.has_radicals() or other.has_radicals()):
            if not self._terms or not other._terms:
                return ZERO
            c = _cyc_mul(self._terms[_TRIVIAL_MONO], other._terms[_TRIVIAL_MONO])
            return FieldElement({_TRIVIAL_MONO: c})
        terms: dict[_Monomial, _Cyc] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                for m, c in _mul_monomials(m1, c1, m2, c2)._terms.items():
                    terms[m] = _cyc_add(terms[m], c) if m in terms else c
        return FieldElement(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FieldElement.from_any(other)
        if self._q is not None and other._q:
            return _of_fraction(self._q / other._q)
        return self * other._invert()

    def __rtruediv__(self, other):
        return FieldElement.from_any(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise DomainError("only integer powers of scalars are defined")
        if n < 0:
            return self._invert() ** (-n)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return ONE if out is None else out
            base = base * base

    def __eq__(self, other):
        try:
            other = FieldElement.from_any(other)
        except DomainError:
            return NotImplemented
        if self._q is not None and other._q is not None:
            return self._q == other._q
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.sort_key())

    def __repr__(self):
        rat = self.as_rational()
        if rat is not None:
            return f"FieldElement({rat})"
        return f"FieldElement<{self.sort_key()}>"

    def _invert(self) -> "FieldElement":
        if self.is_zero():
            raise DomainError("division by zero scalar")
        if len(self._terms) == 1:
            [(mono, cyc)] = self._terms.items()
            inv_extra = ONE
            new_mono = {}
            for key, e in mono:
                # g^-e = g^(1-e) / g^1; the overflow divides out as gamma
                inv_extra = inv_extra * _gen_carry(key, -1)
                rem = 1 - e
                if rem:
                    new_mono[key] = rem
            base = FieldElement({frozenset(new_mono.items()): _cyc_inv(cyc)})
            return base * inv_extra
        if self.tower_level() >= 2:
            raise FieldError("cannot invert sums involving depth-2 radical generators")
        # 1/a = conj / (a * conj), conj the product of the Kummer conjugates
        # g^e -> zeta_m^(j e m) g^e, 0 < j < m, of one generator g: a * conj
        # is fixed by each of them, so g drops out of it
        key = min(key for mono in self._terms for key, _ in mono)
        exps = [dict(mono).get(key, _ZERO) for mono in self._terms]
        m = lcm(*(e.denominator for e in exps))
        conj = ONE
        for j in range(1, m):
            conj = conj * FieldElement({
                mono: _cyc_mul(c, _Cyc.from_powers(m, {int(j * m * e): _ONE}))
                for (mono, c), e in zip(self._terms.items(), exps)
            })
        norm = self * conj
        if norm.is_zero():
            raise FieldError(
                "radical relations are degenerate (reducible extension); refusing to divide"
            )
        return conj * norm._invert()

    # -- ordering ----------------------------------------------------------

    def sort_key(self) -> tuple:
        """A total, representation-independent ordering key."""
        if self._key_cache is None and self._q is not None:
            # the general key of a rational r: one term, (), order 1, (r,)
            self._key_cache = (1, (((), 1, (self._q,)),)) if self._q else (0, ())
        if self._key_cache is None:
            parts = []
            for mono in sorted(self._terms, key=_mono_key):
                c = _cyc_contract(self._terms[mono])
                parts.append((_mono_key(mono), c.n, tuple(c.c)))
            self._key_cache = (len(parts), tuple(parts))
        return self._key_cache


def _mono_key(mono: _Monomial) -> tuple:
    return tuple(sorted((key, e) for key, e in mono))


def _mono_mul(a: _Monomial, b: _Monomial) -> tuple[_Monomial, list]:
    # exponent vectors added mod 1; also returns the carries (key, integer)
    exps: dict = dict(a)
    carries = []
    for key, e in b:
        total = exps.get(key, _ZERO) + e
        carry = int(total)
        total -= carry
        if carry:
            carries.append((key, carry))
        if total:
            exps[key] = total
        elif key in exps:
            del exps[key]
    return frozenset(exps.items()), carries


def _gen_carry(key, k: int) -> FieldElement:
    # an integer power k of the generator's exponent-1 value: p^k or gamma^k
    if key[0] == "p":
        return rational(Fraction(key[1]) ** k)
    return key[1].gamma ** k


def _mul_monomials(m1: _Monomial, c1: _Cyc, m2: _Monomial, c2: _Cyc) -> FieldElement:
    mono, carries = _mono_mul(m1, m2)
    overflow = None
    for key, k in carries:
        extra = _gen_carry(key, k)
        overflow = extra if overflow is None else overflow * extra
    base = FieldElement({mono: _cyc_mul(c1, c2)})
    return base if overflow is None else base * overflow


def _of_fraction(q: Fraction) -> FieldElement:
    # the rational q, built without the zero filter and the rationality test
    out = object.__new__(FieldElement)
    out._terms = {_TRIVIAL_MONO: _Cyc(1, (q,))} if q else {}
    out._key_cache = None
    out._q = q
    return out


# --------------------------------------------------------------------------
# public constructors

ZERO = FieldElement({})
ONE = FieldElement({_TRIVIAL_MONO: _CYC_ONE})


def rational(x: Union[int, str, Fraction]) -> FieldElement:
    """The rational scalar x (int, Fraction, or a 'p/q' string); else DomainError."""
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a rational number: {x!r}") from None
    return FieldElement.from_any(x)


def zeta(n: int, k: int = 1) -> FieldElement:
    """The root of unity zeta_n^k, zeta_n = exp(2 pi i / n)."""
    if n < 1:
        raise DomainError("zeta order must be a positive integer")
    return FieldElement({_TRIVIAL_MONO: _Cyc.from_powers(n, {k % n: _ONE})})


def exp2pi(r: Fraction) -> FieldElement:
    """exp(2 pi i r) for rational r: the eigenvalue of residue r."""
    r = Fraction(r)
    return zeta(r.denominator, r.numerator % r.denominator)


def adjoin_root(gamma: Union[FieldElement, int, Fraction], m: int) -> FieldElement:
    """The canonical m-th root of gamma, enlarging the field when needed.

    Roots of unity go to zeta_{mN}^k, positive rationals to prime-wise
    radicals (perfect powers collapse, so adjoin_root(4, 2) == 2), and a
    product of the two splits factor by factor.  Anything else gets an
    opaque generator x with x^m = gamma, identified by the value of gamma in
    any process and adjoin order.  Nesting beyond MAX_TOWER_DEPTH is an error.
    """
    gamma = FieldElement.from_any(gamma)
    if m < 1:
        raise DomainError("root order must be a positive integer")
    if m == 1 or gamma.is_zero():
        return gamma
    if len(gamma._terms) == 1:
        [(mono, cyc)] = gamma._terms.items()
        coeff = FieldElement({_TRIVIAL_MONO: cyc})
        zm = coeff.as_zeta_monomial()
        if zm is not None:
            r, n, k = zm
            out = _rational_root(r, m) * zeta(m * n, k)
            for key, e in mono:
                out = out * _gen_power(key, e / m)
            return out
    level = gamma.tower_level() + 1
    if level > MAX_TOWER_DEPTH:
        raise TowerDepthError(
            f"radical nesting depth {level} exceeds the cap {MAX_TOWER_DEPTH}"
        )
    return _gen_power(("x", _OpaqueGen(gamma, level)), Fraction(1, m))


def _gen_power(key, e: Fraction) -> FieldElement:
    carry = int(e)
    e = e - carry
    extra = _gen_carry(key, carry) if carry else ONE
    if not e:
        return extra
    return FieldElement({frozenset({(key, e)}): _CYC_ONE}) * extra


def _rational_root(r: Fraction, m: int) -> FieldElement:
    # canonical positive real m-th root of a positive rational
    if r <= 0:
        raise InternalError("rational root path expects a positive value")
    out = ONE
    for p, e in _factorize(r.numerator).items():
        out = out * _gen_power(("p", p), Fraction(e, m))
    for p, e in _factorize(r.denominator).items():
        out = out * _gen_power(("p", p), Fraction(e, m))._invert()
    return out
