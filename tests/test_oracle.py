"""Weyl-operator route: algebra basics, each pipeline stage, full check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.connection import elementary
from localfourier.errors import DomainError, InternalError
from localfourier.exactfield import ONE, FieldElement, rational, zeta
from localfourier.fourier import fourier_0_inf
from localfourier.oracle import (
    LaplaceResult,
    WeylOperator,
    laplace_substitute,
    newton_polygon_slopes,
    oracle_check,
    ramify_operator,
    regular_residue,
    twist_operator,
)
from localfourier.series import LaurentSeries

S = LaurentSeries

T = WeylOperator.monomial(1, 0)
D = WeylOperator.monomial(0, 1)


def scal(c, var="t"):
    return WeylOperator.scalar(c, var)


# -- the algebra itself ----------------------------------------------------

def test_commutation_rule():
    assert D * T == T * D + scal(1)
    assert T * D == WeylOperator.monomial(1, 1)


def test_euler_operator_square():
    e = T * D
    assert e * e == WeylOperator({(2, 2): 1, (1, 1): 1})


def test_localized_product():
    th2d = WeylOperator.monomial(2, 1, 1, "theta")
    thinv = WeylOperator.monomial(-1, 0, 1, "theta")
    assert th2d * thinv == WeylOperator({(1, 1): 1, (0, 0): -1}, "theta")
    # and in the other order there is no correction term
    assert thinv * th2d == WeylOperator({(1, 1): 1}, "theta")


def test_operator_ring_basics():
    a = T * D - scal(3)
    assert a - a == WeylOperator.zero()
    assert a.scale(2) == a + a
    assert (T ** 3) * (D ** 2) == WeylOperator.monomial(3, 2)
    assert a.coefficient(0, 0) == rational(-3)
    assert not a.is_zero()


def test_variable_mismatch_refused():
    with pytest.raises(DomainError):
        T * WeylOperator.monomial(1, 0, 1, "theta")


def test_negative_derivative_power_refused():
    with pytest.raises(DomainError):
        WeylOperator({(0, -1): 1})
    with pytest.raises(DomainError):
        D ** -1


_mono = st.tuples(
    st.integers(min_value=-3, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=4),
)
_ops = st.lists(_mono, min_size=1, max_size=3).map(
    lambda ms: WeylOperator({(m, n): c for m, n, c in ms})
)


@settings(max_examples=60, deadline=None)
@given(_ops, _ops, _ops)
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_ops, _ops, _ops)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


# -- substitution toward infinity ------------------------------------------

def test_substitute_source_variable():
    res = laplace_substitute(T)
    assert res == LaplaceResult(WeylOperator.monomial(2, 1, 1, "theta"), 0)


def test_substitute_derivative_clears_pole():
    res = laplace_substitute(D)
    assert res.theta_power == 1
    assert res.operator == scal(1, "theta")


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_substituted_family_product_form(q):
    lap = laplace_substitute(WeylOperator({(q + 1, 1): 1, (0, 0): 5 * q}))
    th2d = WeylOperator.monomial(2, 1, 1, "theta")
    euler = WeylOperator({(1, 1): 1, (0, 0): -1}, "theta")
    assert lap.theta_power == 0
    assert lap.operator == (th2d ** q) * euler + scal(5 * q, "theta")


def test_substitute_refuses_pole_input():
    with pytest.raises(DomainError):
        laplace_substitute(WeylOperator.monomial(-1, 0))


# -- Newton polygons -------------------------------------------------------

@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_family_slope(q):
    lap = laplace_substitute(WeylOperator({(q + 1, 1): 1, (0, 0): q}))
    assert newton_polygon_slopes(lap.operator, at=0) == [(Fraction(q, q + 1), q + 1)]


def test_regular_slopes():
    assert newton_polygon_slopes(T * D - scal(7), at=0) == [(Fraction(0), 1)]
    assert newton_polygon_slopes(D - scal(1), at=0) == [(Fraction(0), 1)]
    # a rising boundary at the origin is flat at infinity and conversely
    assert newton_polygon_slopes(D - scal(1), at="inf") == [(Fraction(1), 1)]
    assert newton_polygon_slopes(T * D - scal(7), at="inf") == [(Fraction(0), 1)]


def test_slope_clamped_at_zero():
    # boundary falls from (0,1) to (1,-1); falling means regular
    assert newton_polygon_slopes(T + D, at=0) == [(Fraction(0), 1)]


def test_newton_accepts_infinity_marker():
    from localfourier.fourier import INFINITY

    assert newton_polygon_slopes(D - scal(1), at=INFINITY) == [(Fraction(1), 1)]
    with pytest.raises(DomainError):
        newton_polygon_slopes(D, at="elsewhere")
    with pytest.raises(DomainError):
        newton_polygon_slopes(WeylOperator.zero(), at=0)


def test_newton_knows_infinity_by_identity():
    class Impostor:
        def __repr__(self):
            return "infinity"

    with pytest.raises(DomainError):
        newton_polygon_slopes(D - scal(1), at=Impostor())


def test_mixed_boundary_splits_by_slope():
    # vertices (0,0), (1,0), (3,2): flat first, then slope 1
    op = WeylOperator({(0, 0): 1, (1, 1): 1, (5, 3): 1})
    assert newton_polygon_slopes(op, at=0) == [(Fraction(0), 1), (Fraction(1), 2)]


# -- ramified substitution -------------------------------------------------

def test_ramify_euler_operator():
    e = WeylOperator({(1, 1): 1}, "theta")
    out = ramify_operator(e, 5, 3)
    assert out == WeylOperator({(1, 1): Fraction(1, 3)}, "eta")


def test_ramify_plain_power():
    out = ramify_operator(WeylOperator.monomial(2, 0, 1, "theta"), rational(-2), 2)
    assert out == WeylOperator.monomial(4, 0, 4, "eta")


def test_ramify_refusals():
    e = WeylOperator({(1, 1): 1}, "theta")
    with pytest.raises(DomainError):
        ramify_operator(e, 0, 2)
    with pytest.raises(DomainError):
        ramify_operator(e, 1, 0)


def _family_pipeline(a, q):
    """Scaled ramified operator for E^(a/t^q), plus the transform it is
    checked against."""
    a = FieldElement.from_any(a)
    tr = fourier_0_inf(elementary(S.identity(), S({-q: a})), sign="-")
    lap = laplace_substitute(WeylOperator({(q + 1, 1): ONE, (0, 0): a * q}))
    c = tr.rho.leading_coefficient()
    k = tr.p
    big = ramify_operator(lap.operator, c, k).scale(
        rational(k) * ((rational(k) / c) ** q)
    )
    return big, tr


def _product_form(a, q):
    a = FieldElement.from_any(a)
    dd = WeylOperator.monomial(q + 1, 1, 1, "eta")
    out = WeylOperator.scalar(1, "eta")
    for k in range(1, q + 2):
        out = out * (dd - WeylOperator.monomial(q, 0, k, "eta"))
    const = rational((-1) ** q) * (rational(q * (q + 1)) * a) ** (q + 1)
    return out + WeylOperator.scalar(const, "eta")


@pytest.mark.parametrize("a,q", [(1, 1), (2, 3), (Fraction(-3, 2), 2)])
def test_ramified_family_factors(a, q):
    big, _ = _family_pipeline(a, q)
    assert big == _product_form(a, q)


# -- exponential twist -----------------------------------------------------

def test_twist_zero_is_identity():
    big, _ = _family_pipeline(1, 2)
    assert twist_operator(big, S.zero("eta")) == big
    assert twist_operator(big, S({-2: 0}, var="eta")) == big


def test_twist_shifts_product_factors():
    q, lam = 2, rational(5)
    tw = twist_operator(_product_form(1, q), S({-q: lam}, var="eta"))
    dd = WeylOperator.monomial(q + 1, 1, 1, "eta")
    shifted = WeylOperator.scalar(1, "eta")
    for k in range(1, q + 2):
        shifted = shifted * (
            dd - scal(q * 5, "eta") - WeylOperator.monomial(q, 0, k, "eta")
        )
    const = rational((-1) ** q) * rational(q * (q + 1)) ** (q + 1)
    assert tw == shifted + WeylOperator.scalar(const, "eta")


def test_twist_kills_constant_exactly_once():
    big, tr = _family_pipeline(Fraction(1, 2), 3)
    lam = tr.phi.coefficient(-3)
    assert lam == rational(2)  # (q+1) a
    tw = twist_operator(big, S({-3: lam}, var="eta"))
    assert tw.coefficient(0, 0).is_zero()
    off = twist_operator(big, S({-3: lam * rational(2)}, var="eta"))
    assert not off.coefficient(0, 0).is_zero()


def test_twist_refusals():
    big, _ = _family_pipeline(1, 1)
    with pytest.raises(DomainError):
        twist_operator(big, S({-1: 2, -2: 1}, var="eta"))
    with pytest.raises(DomainError):
        twist_operator(big, S({1: 2}, var="eta"))
    with pytest.raises(DomainError):
        twist_operator(WeylOperator.monomial(0, 1, 1, "eta"), S({-1: 2}, var="eta"))


# -- regular part ----------------------------------------------------------

def _twisted_family(a, q):
    big, tr = _family_pipeline(a, q)
    return twist_operator(big, S({-q: tr.phi.coefficient(-q)}, var="eta")), tr


def test_residue_of_kummer_family():
    tw, _ = _twisted_family(1, 1)
    rd = regular_residue(tw)
    assert rd.residue == rational(Fraction(3, 2))
    assert rd.monodromy == rational(-1)


def test_residue_even_order():
    tw, _ = _twisted_family(1, 2)
    rd = regular_residue(tw)
    assert rd.residue == rational(2)
    assert rd.monodromy == ONE


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_residue_general_order(q):
    tw, _ = _twisted_family(Fraction(-3, 2), q)
    assert regular_residue(tw).residue == rational(Fraction(q + 2, 2))


def test_residue_requires_the_right_twist():
    big, _ = _family_pipeline(1, 2)
    with pytest.raises(DomainError) as exc:
        regular_residue(big)  # untwisted: constant term still present
    assert "degree 0" in str(exc.value)
    with pytest.raises(DomainError):
        regular_residue(WeylOperator.zero("eta"))


def test_residue_irrational_has_no_monodromy():
    op = WeylOperator({(1, 1): ONE, (0, 0): -zeta(3)}, "eta")
    rd = regular_residue(op)
    assert rd.residue == zeta(3)
    assert rd.monodromy is None


# -- the assembled check ---------------------------------------------------

@pytest.mark.parametrize(
    "a", [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)], ids=str
)
def test_oracle_grid(a):
    for q in range(1, 6):
        report = oracle_check(a, q)
        assert [s.name for s in report.stages] == [
            "slope",
            "ramification",
            "twist",
            "residue",
            "monodromy",
        ]


def test_oracle_report_lines():
    lines = oracle_check(1, 1).lines()
    assert "q = 1" in lines[0]
    assert len(lines) == 6
    assert all(line.startswith("  [ok]") for line in lines[1:])
    assert "1/2" in lines[1]


def test_oracle_nonrational_coefficient():
    report = oracle_check(zeta(3), 2)
    assert [s.name for s in report.stages] == [
        "slope",
        "ramification",
        "twist",
        "residue",
        "monodromy",
    ]


def test_oracle_refusals():
    with pytest.raises(DomainError):
        oracle_check(0, 3)
    with pytest.raises(DomainError):
        oracle_check(1, 0)
    with pytest.raises(DomainError):
        oracle_check(1, -2)


def test_oracle_mismatch_names_stage(monkeypatch):
    import localfourier.oracle as mod

    real = fourier_0_inf

    def doctored(el, sign):
        # hand the comparison a transform of the wrong pole order
        return real(elementary(S.identity(), S({-3: rational(1)})), sign)

    monkeypatch.setattr(mod, "fourier_0_inf", doctored)
    with pytest.raises(InternalError) as exc:
        oracle_check(1, 2)
    assert "slope" in str(exc.value)
