"""Laurent series arithmetic and the precision calculus."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.errors import DomainError, PrecisionError
from localfourier.exactfield import ONE, rational, zeta
from localfourier.series import LaurentSeries, working_window

S = LaurentSeries


def test_working_window():
    assert working_window(0, 0) == 16
    assert working_window(4, 6) == 28


def test_operands_must_share_a_variable():
    f = S({-1: 1, 0: 2}, var="u")
    g = S({-1: 3}, var="theta")
    for op in (
        lambda: f + g,
        lambda: f - g,
        lambda: f * g,
        lambda: f / g,
    ):
        with pytest.raises(DomainError):
            op()
    assert (f + 1).var == "u"


def test_monomial_inverse_is_exact():
    f = S.monomial(-1)
    g = S.monomial(-4, -3)
    h = f / g
    assert h.is_exact()
    assert h == S.monomial(3, Fraction(-1, 3))


def test_basic_arithmetic():
    f = S({2: 1, 3: 1})
    assert f.derivative() == S({1: 2, 2: 3})
    assert (f - f).is_exactly_zero()
    assert f * S.one() == f
    assert f.shift(-2) == S({0: 1, 1: 1})
    assert f.scale(Fraction(1, 2)) == S({2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert f.valuation() == 2
    assert f.leading_coefficient() == ONE


def test_geometric_inverse():
    g = S({0: 1, 1: 1}).inverse()
    assert g.prec == 16
    for k in range(16):
        assert g.coefficient(k) == rational((-1) ** k)
    h = S({0: 1, 1: -1}).inverse()
    for k in range(16):
        assert h.coefficient(k) == ONE


def test_inverse_respects_relative_precision():
    f = S({1: 1, 2: 1}, prec=5)
    g = f.inverse()
    # relative precision 4 around valuation -1
    assert g.prec == 3
    assert g.coefficient(-1) == ONE
    assert g.coefficient(0) == rational(-1)
    assert f.inverse().agrees_to_precision(S({1: 1, 2: 1}).inverse())


def test_reversion_catalan():
    f = S({1: 1, 2: 1})
    g = f.reversion()
    expected = [1, -1, 2, -5, 14, -42, 132]
    for k, c in enumerate(expected, start=1):
        assert g.coefficient(k) == rational(c)
    assert f.compose(g).agrees_to_precision(S.identity())
    assert g.compose(f).agrees_to_precision(S.identity())


def test_reversion_rescales_linear_terms():
    f = S.monomial(1, 2)
    assert f.reversion() == S.monomial(1, Fraction(1, 2))
    with pytest.raises(DomainError):
        S({2: 1}).reversion()


def test_nth_root_frozen():
    f = S({2: 1, 3: 1})  # u^2 (1 + u)
    r = f.nth_root(2)
    assert r.coefficient(1) == ONE
    assert r.coefficient(2) == rational("1/2")
    assert r.coefficient(3) == rational("-1/8")
    assert r.coefficient(4) == rational("1/16")
    assert r.coefficient(5) == rational("-5/128")
    assert (r * r).agrees_to_precision(f)


def test_nth_root_monomials_stay_exact():
    assert S.monomial(2, 4).nth_root(2) == S.monomial(1, 2)
    # canonical branch: the cube root of -1 is zeta_6
    assert S.monomial(3, -1).nth_root(3) == S.monomial(1, zeta(6))
    with pytest.raises(DomainError):
        S.monomial(3).nth_root(2)


def test_compose_polynomial():
    f = S({-1: 1})
    g = S({1: 1, 2: 1})
    h = f.compose(g)
    assert h.coefficient(-1) == ONE
    assert h.coefficient(0) == rational(-1)
    assert h.coefficient(1) == ONE
    assert h.coefficient(2) == rational(-1)
    p = S({0: 3, 2: 1}).compose(S({3: 1}))
    assert p == S({0: 3, 6: 1})


def test_compose_precision_scales_with_inner_valuation():
    f = S({0: 1, 1: 1, 2: 1}, prec=3)
    out = f.compose(S({2: 1}))
    assert out.prec == 6
    assert out.coefficient(4) == ONE
    with pytest.raises(DomainError):
        f.compose(S({0: 1, 1: 1}))


def test_precision_propagation():
    a = S({0: 1, 1: 1}, prec=2)
    b = S({0: 1, 1: 1})
    prod = a * b
    assert prod.prec == 2
    assert prod.coefficient(1) == rational(2)
    with pytest.raises(PrecisionError):
        prod.coefficient(2)
    assert (a + b).prec == 2
    assert a.derivative().prec == 1


def test_principal_part_certification():
    phi = S({-3: 2, -1: 1, 0: 5, 2: 1})
    assert phi.principal_part() == S({-3: 2, -1: 1})
    assert phi.regular_part() == S({0: 5, 2: 1})
    ok = S({-2: 1}, prec=0)
    assert ok.principal_part() == S({-2: 1})
    bad = S({-2: 1}, prec=-1)
    with pytest.raises(PrecisionError):
        bad.principal_part()


def test_valuation_unknown_raises():
    with pytest.raises(DomainError):
        S.zero().valuation()
    with pytest.raises(PrecisionError):
        S({}, prec=4).valuation()


def test_zero_predicates():
    assert S.zero().is_exactly_zero()
    assert not S({}, prec=4).is_exactly_zero()
    assert S({}, prec=4).is_zero_to_precision()


_coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def _laurent_poly(draw, min_val=-3, max_val=4):
    exps = draw(
        st.lists(st.integers(min_val, max_val), min_size=1, max_size=4, unique=True)
    )
    table = {}
    for e in exps:
        c = draw(_coeffs)
        table[e] = Fraction(c)
    return S(table)


@settings(max_examples=50, deadline=None)
@given(_laurent_poly(), _laurent_poly(), _laurent_poly())
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(_laurent_poly())
def test_inverse_round_trip(f):
    if f.is_exactly_zero():
        return
    assert (f * f.inverse()).agrees_to_precision(S.one())


@settings(max_examples=30, deadline=None)
@given(_laurent_poly(min_val=1, max_val=4))
def test_reversion_round_trip(f):
    if f.is_exactly_zero() or f.valuation() != 1:
        return
    g = f.reversion()
    assert f.compose(g).agrees_to_precision(S.identity())
    assert g.compose(f).agrees_to_precision(S.identity())


@settings(max_examples=30, deadline=None)
@given(_laurent_poly(min_val=1, max_val=3), st.integers(min_value=1, max_value=3))
def test_nth_root_of_power(f, m):
    if f.is_exactly_zero():
        return
    table = dict(f.coeffs)
    table[f.valuation()] = ONE  # pin the leading coefficient
    f = S(table)
    root = (f ** m).nth_root(m)
    assert root.agrees_to_precision(f)
