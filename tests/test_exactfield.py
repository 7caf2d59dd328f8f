"""Exact scalar field: frozen values plus field-axiom property tests."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localfourier.dsl import render_scalar
from localfourier.errors import DomainError, FieldError, TowerDepthError
from localfourier.exactfield import (
    _CYC_ZERO,
    _TRIVIAL_MONO,
    ONE,
    ZERO,
    FieldElement,
    _Cyc,
    _cyc_add,
    _cyc_contract,
    _cyc_inv,
    _cyc_lift,
    _cyc_mul,
    _cyc_neg,
    _euler_phi,
    _zeta_powers,
    adjoin_root,
    exp2pi,
    rational,
    zeta,
)


def test_rational_basics():
    assert rational("3/2") + rational("1/2") == 2
    assert rational(7).as_rational() == Fraction(7)
    assert (rational(3) - 3).is_zero()
    assert rational(Fraction(-2, 6)).as_rational() == Fraction(-1, 3)


def test_rational_refuses_what_is_not_a_rational():
    for bad in (0.1, "1/0", "abc"):
        with pytest.raises(DomainError):
            rational(bad)


def test_zeta_low_orders():
    assert zeta(1) == ONE
    assert zeta(2) == rational(-1)
    assert zeta(4) * zeta(4) == rational(-1)
    assert zeta(6) ** 3 == rational(-1)
    assert zeta(6) ** 2 == zeta(3)


def test_primitive_root_sums():
    assert (ONE + zeta(3) + zeta(3) ** 2).is_zero()
    # sum of all primitive 5th roots of unity
    total = sum((zeta(5) ** k for k in range(1, 5)), ZERO)
    assert total == rational(-1)


def test_cross_order_products():
    assert zeta(2) * zeta(3) == zeta(6) ** 5
    assert zeta(4) * zeta(6) == zeta(12) ** 5



def test_cyclotomic_order_is_minimal():
    assert (zeta(6) ** 3).cyclotomic_order() == 1
    assert (ONE + zeta(8)).cyclotomic_order() == 8
    assert zeta(12).cyclotomic_order() == 12
    assert rational("5/7").cyclotomic_order() == 1


def test_cyclotomic_inverse():
    assert zeta(3) ** -1 == zeta(3) ** 2
    assert ONE / (ONE + zeta(4)) == (ONE - zeta(4)) * Fraction(1, 2)
    x = ONE + zeta(5) + zeta(5) ** 3
    assert x * (ONE / x) == ONE


def test_exp2pi():
    assert exp2pi(Fraction(1, 2)) == rational(-1)
    assert exp2pi(Fraction(1, 3)) == zeta(3)
    assert exp2pi(Fraction(-1, 4)) == zeta(4) ** 3
    assert exp2pi(Fraction(2)) == ONE


def test_as_zeta_monomial():
    assert (rational(3) * zeta(8, 5)).as_zeta_monomial() == (Fraction(3), 8, 5)
    assert (-zeta(3)).as_zeta_monomial() == (Fraction(1), 6, 5)
    assert rational(-5).as_zeta_monomial() == (Fraction(5), 2, 1)
    assert rational("2/3").as_zeta_monomial() == (Fraction(2, 3), 1, 0)
    assert (ONE + zeta(4)).as_zeta_monomial() is None
    assert ZERO.as_zeta_monomial() is None
    # the unit part comes back with its true order
    assert (rational(2) * zeta(8, 6)).as_zeta_monomial() == (Fraction(2), 4, 3)


def test_adjoin_root_rational_collapse():
    assert adjoin_root(1, 3) == ONE
    assert adjoin_root(4, 2) == rational(2)
    assert adjoin_root(8, 3) == rational(2)
    assert adjoin_root(Fraction(9, 4), 2) == rational("3/2")
    assert adjoin_root(Fraction(1, 4), 2) == rational("1/2")


def test_adjoin_root_radicals():
    r2 = adjoin_root(2, 2)
    assert r2 * r2 == 2
    assert r2.as_rational() is None
    assert r2.has_radicals()
    assert adjoin_root(2, 2) == r2
    # prime-wise normal form makes these identities automatic
    assert adjoin_root(8, 2) * r2 == 4
    assert adjoin_root(12, 2) == 2 * adjoin_root(3, 2)
    assert adjoin_root(6, 2) == r2 * adjoin_root(3, 2)
    assert adjoin_root(Fraction(1, 2), 2) * r2 == ONE
    assert r2 ** 4 == 4
    assert ONE / r2 == r2 * Fraction(1, 2)


def test_adjoin_root_unit_branches():
    assert adjoin_root(-1, 2) == zeta(4)
    assert adjoin_root(zeta(3), 2) == zeta(6)
    assert adjoin_root(-4, 2) == 2 * zeta(4)
    g = rational(2) * zeta(3)
    s = adjoin_root(g, 2)
    assert s == adjoin_root(2, 2) * zeta(6)
    assert s * s == g


def test_invert_radical_sum():
    r2 = adjoin_root(2, 2)
    assert ONE / (ONE + r2) == r2 - 1
    x = rational(3) - r2
    assert x * (ONE / x) == ONE
    r3 = adjoin_root(3, 2)
    y = r2 + r3
    assert y * (ONE / y) == ONE
    # a cube root: 1/(1 + c) = (1 - c + c^2) / (1 + c^3)
    c = adjoin_root(2, 3)
    assert ONE / (ONE + c) == (ONE - c + c * c) * Fraction(1, 3)
    # an opaque generator w, w^2 = 2 + zeta_3: 1/(1 + w) = (1 - w) / (1 - w^2)
    w = adjoin_root(2 + zeta(3), 2)
    assert ONE / (ONE + w) == (w - 1) / (ONE + zeta(3))
    z = zeta(4) * w + r3 - c
    assert z * (ONE / z) == ONE


def test_sum_with_a_large_monomial_span_inverts():
    # the products of its monomials span 2^5 * 3^2 = 288 monomials
    x = ONE + adjoin_root(13, 3) + adjoin_root(17, 3)
    for p in (2, 3, 5, 7, 11):
        x = x + adjoin_root(p, 2)
    assert x * (ONE / x) == ONE


def test_opaque_generator_round_trip():
    g = ONE + adjoin_root(2, 2)
    s = adjoin_root(g, 2)
    assert s * s == g
    assert adjoin_root(g, 2) == s
    assert s.tower_level() == 2
    assert (ONE / s) * s == ONE


def test_tower_depth_cap():
    g = ONE + adjoin_root(5, 2)
    s = adjoin_root(g, 2)
    with pytest.raises(TowerDepthError):
        adjoin_root(ONE + s, 2)


def test_depth_two_sum_inversion_refused():
    g = ONE + adjoin_root(7, 2)
    s = adjoin_root(g, 2)
    with pytest.raises(FieldError):
        ONE / (ONE + s)


def test_degenerate_radical_relation_detected():
    # zeta_8 + zeta_8^-1 equals the square root of 2, but the radical
    # generator is formally independent; dividing by the difference must
    # fail loudly instead of returning nonsense
    r2 = adjoin_root(2, 2)
    c = zeta(8) + zeta(8, 7)
    assert (c * c) == 2
    with pytest.raises(FieldError):
        ONE / (r2 - c)


def test_division_by_zero():
    with pytest.raises(DomainError):
        ONE / ZERO
    with pytest.raises(DomainError):
        zeta(3) / (ONE + zeta(3) + zeta(3) ** 2)


def test_argument_validation():
    with pytest.raises(DomainError):
        zeta(0)
    with pytest.raises(DomainError):
        adjoin_root(2, 0)
    with pytest.raises(DomainError):
        FieldElement.from_any(1.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        zeta(3) ** "2"  # type: ignore[operator]


def test_hash_consistency():
    assert hash(zeta(6) ** 2) == hash(zeta(3))
    d = {zeta(6) ** 2: "a"}
    assert d[zeta(3)] == "a"
    assert hash(rational(2)) == hash(rational("4/2"))


def test_radical_parts_view():
    r2 = adjoin_root(2, 2)
    parts = list((rational(3) * r2).radical_parts())
    assert len(parts) == 1
    factors, n, coords = parts[0]
    assert factors == [("p", 2, Fraction(1, 2))]
    assert n == 1 and coords == (Fraction(3),)


_ORDERS = [1, 2, 3, 4, 6, 8, 12]

_small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def _cyclotomic(draw):
    n = draw(st.sampled_from(_ORDERS))
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), _small_fraction),
            min_size=1,
            max_size=3,
        )
    )
    out = ZERO
    for k, c in terms:
        out = out + rational(c) * zeta(n, k)
    return out


@settings(max_examples=60, deadline=None)
@given(_cyclotomic(), _cyclotomic(), _cyclotomic())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * ONE == a
    assert a + ZERO == a


@settings(max_examples=40, deadline=None)
@given(_cyclotomic())
def test_multiplicative_inverse(a):
    if a.is_zero():
        return
    assert a * (ONE / a) == ONE


@settings(max_examples=40, deadline=None)
@given(_cyclotomic(), _cyclotomic())
def test_sort_key_respects_equality(a, b):
    assert (a.sort_key() == b.sort_key()) == (a == b)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=23),
    _small_fraction,
)
def test_zeta_monomial_round_trip(n, k, r):
    if r <= 0:
        return
    value = rational(r) * zeta(n, k)
    got = value.as_zeta_monomial()
    assert got is not None
    r2, n2, k2 = got
    assert rational(r2) * zeta(n2, k2) == value


# -- contraction against a reference solver ---------------------------------


def _solve(matrix, rhs):
    # exact Gaussian elimination; one solution of matrix x = rhs, or None
    rows, cols = len(matrix), len(matrix[0])
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots, r = [], 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
    if any(m[i][cols] for i in range(r, rows)):
        return None
    x = [Fraction(0)] * cols
    for pr, pc in pivots:
        x[pc] = m[pr][cols]
    return x


def _reference_contract(a):
    # the first divisor d of n whose basis zeta_d^j, j < phi(d), spans a
    for d in range(1, a.n + 1):
        if a.n % d:
            continue
        basis = [_cyc_lift(_Cyc.from_powers(d, {j: 1}), a.n).c for j in range(_euler_phi(d))]
        sol = _solve([[b[i] for b in basis] for i in range(len(a.c))], list(a.c))
        if sol is not None:
            return d, tuple(sol)
    raise AssertionError("no subfield spans the value")


# square factors (4, 8, 9, 12, ...), 2 || n (6, 10, 30, ...) and primes
_CONTRACT_ORDERS = (1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 20, 24, 25, 27, 30, 36,
                    40, 45, 49, 50, 60, 63, 72, 84, 90, 98, 105, 108, 112, 120)


@st.composite
def _lifted(draw):
    # an element of Q(zeta_d), written in Q(zeta_n) for a multiple n of d
    n = draw(st.sampled_from(_CONTRACT_ORDERS))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    powers = draw(st.dictionaries(st.integers(0, d - 1), _small_fraction, max_size=4))
    return _cyc_lift(_Cyc.from_powers(d, powers), n)


@settings(max_examples=150, deadline=None)
@given(_lifted())
def test_contraction_matches_the_reference_solver(a):
    got = _cyc_contract(a)
    if a.is_zero():
        assert got.is_zero()
        return
    assert (got.n, got.c) == _reference_contract(a)
    assert _cyc_lift(got, a.n).c == a.c


# -- the table of zeta powers against long division and Euclid --------------
# The reference is the polynomial arithmetic the table replaced: dense
# polynomials over Fraction, reduced by long division by Phi_n, and inverted
# by the extended Euclidean algorithm against Phi_n.


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    a, b = list(a), _poly_trim(list(b))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] / b[-1]
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] -= coef * bi
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _reference_phi(n):
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, _reference_phi(d))
    q, r = _poly_divmod([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)], den)
    assert not r
    return q


def _reference_reduce(n, dense):
    _, r = _poly_divmod(dense, _reference_phi(n))
    return tuple(r + [Fraction(0)] * (_euler_phi(n) - len(r)))


def _reference_from_powers(n, powers):
    dense = [Fraction(0)] * n
    for k, v in powers.items():
        dense[k % n] += v
    return _reference_reduce(n, dense)


def _reference_lift(a, n):
    return _reference_from_powers(n, {i * (n // a.n): v for i, v in enumerate(a.c)})


def _reference_mul(a, b):
    n = a.n * b.n // gcd(a.n, b.n)
    prod = _poly_mul(list(_reference_lift(a, n)), list(_reference_lift(b, n)))
    return _Cyc(n, _reference_reduce(n, prod))


def _reference_inv(a):
    r0, r1 = _reference_phi(a.n), _poly_trim(list(a.c))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1)
        width = max(len(s0), len(qs))
        s0, s1 = s1, _poly_trim([
            (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
            for i in range(width)
        ])
    assert len(r0) == 1
    return _Cyc(a.n, _reference_reduce(a.n, [x / r0[0] for x in s0]))


@st.composite
def _powers_in(draw, n):
    return draw(st.dictionaries(st.integers(-2 * n, 2 * n), _small_fraction, max_size=5))


@st.composite
def _mixed_pair(draw):
    # two values whose orders divide a common n, so their lcm stays small
    n = draw(st.sampled_from(_CONTRACT_ORDERS))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orders = [draw(st.sampled_from(divisors)) for _ in range(2)]
    return n, [(d, draw(_powers_in(d))) for d in orders]


_AT_12 = (12, {0: Fraction(1), 1: Fraction(-2), 3: Fraction(5, 3)})


@settings(max_examples=150, deadline=None)
@given(_mixed_pair())
# a rational on either side, and one that cancels coordinate 0
@example((12, [(1, {0: Fraction(-7, 2)}), _AT_12]))
@example((12, [_AT_12, (1, {0: Fraction(-7, 2)})]))
@example((12, [(1, {0: Fraction(-1)}), _AT_12]))
def test_table_reduction_matches_long_division(case):
    n, drawn = case
    for d, powers in drawn:
        assert _Cyc.from_powers(d, powers).c == _reference_from_powers(d, powers)
    a, b = (_Cyc.from_powers(d, powers) for d, powers in drawn)
    assert _cyc_lift(a, n).c == _reference_lift(a, n)
    m = a.n * b.n // gcd(a.n, b.n)
    got = _cyc_add(a, b)
    want = tuple(x + y for x, y in zip(_reference_lift(a, m), _reference_lift(b, m)))
    assert (got.n, got.c) == (m, want)
    got, want = _cyc_mul(a, b), _reference_mul(a, b)
    if a.is_zero() or b.is_zero():
        assert got.is_zero() and want.is_zero()
    else:
        assert (got.n, got.c) == (want.n, want.c)


@settings(max_examples=100, deadline=None)
@given(_lifted())
def test_norm_inverse_matches_euclid(a):
    if a.is_zero():
        with pytest.raises(DomainError):
            _cyc_inv(a)
        return
    got, want = _cyc_contract(_cyc_inv(a)), _cyc_contract(_reference_inv(a))
    assert (got.n, got.c) == (want.n, want.c)
    one = _cyc_contract(_cyc_mul(a, got))
    assert (one.n, one.c) == (1, (Fraction(1),))


def test_table_holds_the_cyclotomic_polynomial():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 151):
        phi = _euler_phi(n)
        # zeta_n^phi = zeta_n^phi - Phi_n(zeta_n), read as row phi mod n
        row = dict(_zeta_powers(n)[phi % n])
        got = [-row.get(i, 0) for i in range(phi)] + [1]
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert got == want, n


# -- radical sums against a Q-linear reference -------------------------------
# The reference solves x y = 1 over Q in the basis of the products g^k, k < m,
# of the generators in x, times zeta_N^j, j < phi(N): a sum has an inverse
# exactly when that system has a solution.

_GENERATORS = {
    "r2": (adjoin_root(2, 2), 2),
    "r3": (adjoin_root(3, 2), 2),
    "c5": (adjoin_root(5, 3), 3),
    # opaque: 2 + zeta_3 is no root of unity times a rational
    "w": (adjoin_root(2 + zeta(3), 2), 2),
}


@st.composite
def _radical_sum(draw):
    # terms (generator or None, power, n, powers): c g^power, c in Q(zeta_n)
    term = st.tuples(
        st.sampled_from([None, *_GENERATORS]),
        st.integers(1, 2),
        st.sampled_from([1, 3, 4, 6]),
        st.dictionaries(st.integers(0, 5), _small_fraction, min_size=1, max_size=2),
    )
    return draw(st.lists(term, min_size=2, max_size=3))


def _reference_inverse(terms, x):
    names = sorted({name for name, _, _, _ in terms if name})
    n = lcm(*(n for _, _, n, _ in terms), 3 if "w" in names else 1)
    monos = [ONE]
    for name in names:
        g, m = _GENERATORS[name]
        monos = [b * g ** k for b in monos for k in range(m)]
    index = {next(iter(b._terms)): i for i, b in enumerate(monos)}
    width = _euler_phi(n)

    def coords(y):
        out = [Fraction(0)] * (len(monos) * width)
        for mono, c in y._terms.items():
            at = index[mono] * width
            out[at:at + width] = _cyc_lift(_cyc_contract(c), n).c
        return out

    basis = [b * zeta(n, j) for b in monos for j in range(width)]
    columns = [coords(x * b) for b in basis]
    sol = _solve([list(row) for row in zip(*columns)], coords(ONE))
    if sol is None:
        return None
    return sum((v * b for v, b in zip(sol, basis)), ZERO)


@settings(max_examples=40, deadline=None)
@given(_radical_sum())
# (1 + 2 zeta_3)^2 = -3 = (zeta_4 sqrt(3))^2: a zero divisor
@example([(None, 1, 3, {0: Fraction(1), 1: Fraction(2)}), ("r3", 1, 4, {1: Fraction(-1)})])
@example([("r2", 1, 1, {0: Fraction(1)}), ("c5", 2, 4, {1: Fraction(2)}), ("w", 1, 6, {1: Fraction(1)})])
def test_sum_inverse_matches_the_linear_reference(terms):
    x = ZERO
    for name, k, n, powers in terms:
        g = _GENERATORS[name][0] ** k if name else ONE
        c = sum((rational(v) * zeta(n, j) for j, v in powers.items()), ZERO)
        x = x + c * g
    if x.is_zero():
        return
    want = _reference_inverse(terms, x)
    if want is None:
        with pytest.raises(FieldError):
            ONE / x
    else:
        assert (ONE / x).sort_key() == want.sort_key()


# -- the rational branch against the coordinate layer -----------------------
# A rational value carries a bare Fraction, and division, equality and keys
# between two of them never reach the coordinates.  The references below
# hold the same values in Q(zeta_n) coordinates: either computed by the
# _cyc_* functions directly, or as elements with the Fraction switched off,
# so that every operation on them takes the general path.

_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    _small_fraction,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)


def _coords(x: Fraction, n: int) -> _Cyc:
    return _cyc_lift(_Cyc(1, (x,)), n)


def _held(c: _Cyc) -> FieldElement:
    # the value c with its Fraction switched off
    out = FieldElement({_TRIVIAL_MONO: c})
    out._q = None
    return out


def _coord_key(c: _Cyc) -> tuple:
    c = _cyc_contract(c)
    return (0, ()) if c.is_zero() else (1, (((), c.n, c.c),))


def _same_value(got: FieldElement, held: FieldElement):
    assert got.sort_key() == held.sort_key()
    assert hash(got) == hash(held)
    assert render_scalar(got) == render_scalar(held)
    assert render_scalar(got, bare_ints=False) == render_scalar(held, bare_ints=False)
    assert got == held and held == got


@settings(max_examples=150, deadline=None)
@given(_rationals, _rationals, st.sampled_from([3, 4, 12]))
def test_rational_branch_matches_the_coordinates(x, y, n):
    a, b = rational(x), rational(y)
    xs, ys = _coords(x, n), _coords(y, n)
    results = [
        (a + b, _cyc_add(xs, ys)),
        (a - b, _cyc_add(xs, _cyc_neg(ys))),
        (y - a, _cyc_add(ys, _cyc_neg(xs))),
        (-a, _cyc_neg(xs)),
        (a * b, _cyc_mul(xs, ys)),
    ]
    if y:
        results += [(a / b, _cyc_mul(xs, _cyc_inv(ys))), (x / b, _cyc_mul(xs, _cyc_inv(ys)))]
    else:
        with pytest.raises(DomainError):
            a / b
    for got, ref in results:
        assert got.sort_key() == _coord_key(ref)
        assert hash(got) == hash(_coord_key(ref))
        contracted = _cyc_contract(ref)
        assert got.as_rational() == (contracted.c[0] if contracted.n == 1 else None)
        assert got.is_one() == (_coord_key(ref) == _coord_key(_coords(Fraction(1), n)))
        _same_value(got, _held(ref))
    assert (a == b) == (_held(xs) == _held(ys)) == (x == y)
    assert (a.sort_key() < b.sort_key()) == (_coord_key(xs) < _coord_key(ys))
    assert (a.sort_key() < b.sort_key()) == (_held(xs).sort_key() < _held(ys).sort_key())


_PARTNERS = [
    lambda n: zeta(n),
    lambda n: zeta(n, n - 1) * rational(Fraction(-5, 3)) + 2,
    lambda n: adjoin_root(2, 2),
    lambda n: adjoin_root(3, 2) * zeta(n) + rational(Fraction(1, 7)),
    lambda n: adjoin_root(2 + zeta(3), 2),
]


@settings(max_examples=100, deadline=None)
@given(_rationals, st.sampled_from([3, 4, 12]), st.sampled_from(range(len(_PARTNERS))))
def test_rational_operand_meets_the_general_path(x, n, which):
    a, held, c = rational(x), _held(_coords(x, n) if x else _CYC_ZERO), _PARTNERS[which](n)
    pairs = [(a + c, held + c), (c + a, c + held), (a - c, held - c), (c - a, c - held),
             (a * c, held * c), (c * a, c * held), (a / c, held / c)]
    if x:
        pairs.append((c / a, c / held))
    for got, want in pairs:
        _same_value(got, want)
    assert (a == c) == (held == c)
