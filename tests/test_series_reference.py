"""The series recurrences against the routes they replaced.

The series layer expands quotients and inverses by one division
recurrence, roots by Miller's recurrence, and reverses series and
normalizes ramification by Lagrange-Buermann.  The reference below is the
earlier code: the binomial series summed over explicit truncated powers
h^k, a quotient as the numerator times that inverse, Newton reversion over
a bounded Horner composition, and normalization as a p-th root of rho,
then its reversion, then composition of phi with it.  Both routes must
agree exactly, in the coefficients and in the stated precision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.connection import (
    ElementaryConnection,
    RegularPart,
    normalize_ramification,
)
from localfourier.errors import PrecisionError
from localfourier.exactfield import ONE, FieldElement, adjoin_root, zeta
from localfourier.series import LaurentSeries, working_window

S = LaurentSeries


# -- the reference route ---------------------------------------------------

def _ref_unit_powers(f, v, c, window):
    # f = c u^v (1 + h): rel and the truncated powers (k, h^k), k >= 1
    h = f.shift(-v).scale(ONE / c) - S.one(f.var)
    if f.prec is not None:
        rel = f.prec - v
    else:
        rel = working_window(0, 0) if window is None else window
        h = h.truncate(rel)
    out, power, k = [], S.one(f.var), 1
    while k * h._val_bound() < rel:
        power = (power * h).truncate(rel)
        out.append((k, power))
        k += 1
    return rel, out


def ref_inverse(f, window=None):
    v = f.valuation()
    c = f.coeffs[v]
    lead_inv = S.monomial(-v, ONE / c, f.var)
    if len(f.coeffs) == 1 and f.prec is None:
        return lead_inv
    rel, powers = _ref_unit_powers(f, v, c, window)
    geom = S.one(f.var)
    for k, power in powers:
        geom = geom + (power if k % 2 == 0 else -power)
    return lead_inv * geom.truncate(rel)


def ref_nth_root(f, m, window=None):
    v = f.valuation()
    c = f.coeffs[v]
    root_lead = S.monomial(v // m, adjoin_root(c, m), f.var)
    if len(f.coeffs) == 1 and f.prec is None:
        return root_lead
    rel, powers = _ref_unit_powers(f, v, c, window)
    out, coef = S.one(f.var), Fraction(1)
    for k, power in powers:
        coef = coef * (Fraction(1, m) - (k - 1)) / k
        out = out + power.scale(coef)
    return root_lead * out.truncate(rel)


def _ref_compose_bounded(f, g, bound):
    # Horner evaluation of the polynomial f (exponents >= 0) at g, mod u^bound
    out = S.zero(g.var)
    for e in range(max(f.coeffs, default=0), -1, -1):
        out = (out * g).truncate(bound)
        c = f.coeffs.get(e)
        if c is not None:
            out = out + S({0: c}, None, g.var)
    return out


def ref_reversion(f, window=None):
    a1 = f.coeffs[1]
    rel = working_window(0, 0) if window is None else window
    target = f.prec if f.prec is not None else 1 + rel
    fpoly = S(f.coeffs, None, f.var)
    dpoly = fpoly.derivative()
    g = S.monomial(1, ONE / a1, f.var)
    if len(f.coeffs) == 1:
        return g if f.prec is None else g.truncate(target)
    cur = 2
    while cur < target:
        cur = min(2 * cur, target)
        err = _ref_compose_bounded(fpoly, g, cur + 1) - S.identity(f.var)
        den = _ref_compose_bounded(dpoly, g, cur)
        step = err * ref_inverse(den, window=cur)
        g = S({k: x for k, x in (g - step).coeffs.items() if k < cur}, None, f.var)
    return S(g.coeffs, target, f.var)


def ref_compose_polar(phi, g, window):
    # phi(g) for a polar phi, negative powers through the reference inverse
    ginv = ref_inverse(g, window=window)
    out = S.zero(g.var)
    for k, c in phi.coeffs.items():
        out = out + (ginv ** (-k)).scale(c)
    return out


def ref_normalize_phi(rho, phi):
    """The polar part of phi after rho is brought to u^p: root, reversion, compose."""
    p, q = rho.valuation(), -phi.valuation()
    w = working_window(p, q)
    bound = p + q + 4
    if rho.prec is not None and rho.prec > bound:
        rho = rho.truncate(bound)
    lead = rho.leading_coefficient()
    root = None if lead.is_one() else adjoin_root(lead, p)
    body = rho if root is None else rho.scale(ONE / lead)
    lam = ref_reversion(ref_nth_root(body, p, window=w), window=w)
    out = ref_compose_polar(phi, lam, w).principal_part()
    if root is not None:
        out = S({e: c * (ONE / root) ** e for e, c in out.coeffs.items()})
    return out


# -- strategies ------------------------------------------------------------

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _scalar(draw, nonzero=False):
    order = draw(st.sampled_from([1, 3, 4]))
    x = FieldElement.from_any(draw(_rationals))
    if order > 1:
        x = x + zeta(order) * draw(_rationals)
    if nonzero and x.is_zero():
        return ONE
    return x


# Q, Q(zeta_3), Q(zeta_4) and Q(root(2,2)), each as a + b * generator
_GENERATORS = (None, zeta(3), zeta(4), adjoin_root(2, 2))


@st.composite
def _in_field(draw, gen, nonzero=False):
    x = FieldElement.from_any(draw(_rationals))
    if gen is not None:
        x = x + gen * draw(_rationals)
    if nonzero and x.is_zero():
        return ONE
    return x


@st.composite
def _series(draw, val, inexact, scalar=_scalar):
    """c u^val (1 + h): nonzero lead, sparse h, optionally cut at a prec."""
    table = {val: draw(scalar(nonzero=True))}
    for j in draw(st.lists(st.integers(1, 6), max_size=3, unique=True)):
        table[val + j] = draw(scalar())
    prec = val + draw(st.integers(1, 9)) if inexact else None
    return S(table, prec)


_windows = st.one_of(st.none(), st.integers(1, 12))


# -- the series operations -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.booleans(), _windows, st.data())
def test_inverse_matches_the_binomial_route(val, inexact, window, data):
    f = data.draw(_series(val, inexact))
    assert f.inverse(window=window) == ref_inverse(f, window=window)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_GENERATORS),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["series", "zero num", "monomial den"]),
    _windows,
    st.data(),
)
def test_divide_matches_the_product_with_the_reference_inverse(
    gen, nval, dval, num_inexact, den_inexact, shape, window, data
):
    scalar = partial(_in_field, gen)
    num = data.draw(_series(nval, num_inexact, scalar))
    den = data.draw(_series(dval, den_inexact, scalar))
    if shape == "zero num":  # exactly zero, or zero to a precision
        num = S({}, num.prec)
    elif shape == "monomial den":
        den = S({dval: den.coeffs[dval]}, den.prec)
    expected = num * ref_inverse(den, window=window)
    out = num.divide(den, window)
    assert out.coeffs == expected.coeffs and out.prec == expected.prec
    assert den.inverse(window=window) == ref_inverse(den, window=window)
    if window is None:
        assert num / den == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(-2, 2), st.booleans(), _windows, st.data())
def test_nth_root_matches_the_binomial_route(m, k, inexact, window, data):
    f = data.draw(_series(m * k, inexact))
    assert f.nth_root(m, window=window) == ref_nth_root(f, m, window=window)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), _windows, st.data())
def test_reversion_matches_newton(inexact, window, data):
    f = data.draw(_series(1, inexact))
    assert f.reversion(window=window) == ref_reversion(f, window=window)


# -- normalization ---------------------------------------------------------

@st.composite
def _ramified(draw):
    """El(rho, phi) with p <= 5, q <= 6; rho exact or cut near relative order q."""
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6))
    phi = {-q: draw(_scalar(nonzero=True))}
    for e in draw(st.lists(st.integers(-q, -1), max_size=2, unique=True)):
        if e > -q:
            phi[e] = draw(_scalar())
    rho = {p: draw(st.sampled_from([ONE, draw(_scalar(nonzero=True))]))}
    for j in draw(st.lists(st.integers(1, q + 2), min_size=1, max_size=3, unique=True)):
        rho[p + j] = draw(_scalar())
    # relative precision 0 would cut the leading term of rho itself
    rel = draw(st.sampled_from([None, max(q - 1, 1), q, q + 1, q + 5]))
    prec = None if rel is None else p + rel
    return ElementaryConnection(S(rho, prec), S(phi), RegularPart.trivial())


@settings(max_examples=40, deadline=None)
@given(_ramified())
def test_normalize_matches_root_reversion_compose(el):
    try:
        expected = ref_normalize_phi(el.rho, el.phi)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            normalize_ramification(el)
        return
    out = normalize_ramification(el)
    assert out.rho == S.monomial(el.p)
    assert out.phi == expected
