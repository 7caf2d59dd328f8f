"""Weyl-operator route: algebra basics, each pipeline stage, full check."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.connection import elementary
from localfourier.errors import DomainError, InternalError
from localfourier.cli import _GRID_A, _GRID_Q
from localfourier.exactfield import ONE, FieldElement, adjoin_root, rational, zeta
from localfourier.fourier import fourier_0_inf
from localfourier.oracle import (
    _single_pole,
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


@pytest.mark.parametrize("q", [True, False, 2.0, Fraction(2)])
def test_oracle_refuses_a_pole_order_that_is_no_int(q):
    with pytest.raises(DomainError, match="positive integer"):
        oracle_check(1, q)


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


# -- printed reports, pinned -----------------------------------------------

REPORTS = Path(__file__).with_name("oracle_reports.txt")
# the CLI grid, the corpus_cli benchmark's pairs outside it, and zeta(3)
_REPORT_CASES = [(a, q) for a in _GRID_A for q in _GRID_Q] + [
    (Fraction(-2, 3), 2), (Fraction(5, 7), 3), (3, 4), (Fraction(-1, 2), 5), (zeta(3), 2),
]


def _report_text():
    reports = ("\n".join(oracle_check(a, q).lines()) for a, q in _REPORT_CASES)
    return "\n\n".join(reports) + "\n"


def test_oracle_reports_are_pinned():
    # recorded from the route that built each power by WeylOperator products
    assert _report_text() == REPORTS.read_text(encoding="utf-8")


# -- the integer power tables against the product route --------------------
#
# The reference functions below are the substitutions as they were before
# the power tables: each power of the image is a cached WeylOperator
# product.  The tables must give the same operators term for term, and the
# same refusals.

def _ref_power(pows, base, n):
    while len(pows) <= n:
        pows.append(pows[-1] * base)
    return pows[n]


def _ref_laplace(a, var="theta"):
    x_img = WeylOperator.monomial(2, 1, 1, var)
    out = WeylOperator.zero(var)
    x_pows = [WeylOperator.scalar(1, var)]
    for (m, n), c in a.terms.items():
        if m < 0:
            raise DomainError(
                "the substitution needs polynomial powers of the source variable"
            )
        out = out + (_ref_power(x_pows, x_img, m) * WeylOperator.monomial(-n, 0, c, var))
    shift = max(0, -min((m for m, _ in out.terms), default=0))
    if shift:
        out = WeylOperator.monomial(shift, 0, 1, var) * out
    return LaplaceResult(out, shift)


def _ref_ramify(a, c, k, var="eta"):
    c = FieldElement.from_any(c)
    if c.is_zero():
        raise DomainError("the ramification constant must be nonzero")
    if k < 1:
        raise DomainError("the ramification order must be a positive integer")
    d_img = WeylOperator.monomial(1 - k, 1, 1, var)
    d_pows = [WeylOperator.scalar(1, var)]
    out = WeylOperator.zero(var)
    kk = rational(k)
    for (m, n), coeff in a.terms.items():
        factor = coeff * (c ** (m - n)) / (kk ** n)
        out = out + (WeylOperator.monomial(k * m, 0, factor, var) * _ref_power(d_pows, d_img, n))
    return out


def _ref_twist(a, phi):
    for (m, n), _ in a.terms.items():
        if m < n:
            raise DomainError(
                "expected an operator built from x^(q+1) d and powers of x"
            )
    q, lam = _single_pole(phi)
    if lam.is_zero():
        return a
    d_img = WeylOperator({(0, 1): ONE, (-q - 1, 0): lam * rational(-q)}, a.var)
    d_pows = [WeylOperator.scalar(1, a.var)]
    out = WeylOperator.zero(a.var)
    for (m, n), coeff in a.terms.items():
        out = out + (WeylOperator.monomial(m, 0, coeff, a.var) * _ref_power(d_pows, d_img, n))
    return out


def _ref_residue(a):
    if a.is_zero():
        raise DomainError("the zero operator has no regular part")
    shift = min(m for m, _ in a.terms)
    indicial = [rational(0)]
    for (m, n), c in a.terms.items():
        if m - shift != n:
            continue
        ff = [ONE]
        for i in range(n):
            ff = [rational(0)] + ff
            for j in range(len(ff) - 1):
                ff[j] = ff[j] + ff[j + 1] * rational(-i)
        while len(indicial) < len(ff):
            indicial.append(rational(0))
        for j, v in enumerate(ff):
            indicial[j] = indicial[j] + v * c
    while indicial and indicial[-1].is_zero():
        indicial.pop()
    if len(indicial) != 2:
        raise DomainError(
            "the twisted operator has no rank-one regular part; the pole "
            "division leaves an indicial polynomial of degree "
            + str(max(len(indicial) - 1, 0))
        )
    return -indicial[0] / indicial[1]


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as e:  # compared by type and message
        return "raised", type(e), str(e)


# coefficients a + b g with g generating Q, Q(zeta_3), Q(zeta_4) or Q(root(2,2))
_fields = st.sampled_from([ONE, zeta(3), zeta(4), adjoin_root(2, 2)]).map(
    lambda g: st.builds(lambda a, b: rational(a) + rational(b) * g, *[
        st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 2)
)


@st.composite
def _source(draw, coeff, relative=False):
    # 1-4 terms x^m d^n, n <= 4: m in 0..6, or m = n + (-1..5) when relative
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 4))
        m = n + draw(st.integers(-1, 5)) if relative else draw(st.integers(0, 6))
        terms[m, n] = draw(coeff)
    return terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_laplace_table_matches_the_product_route(data):
    coeff = data.draw(_fields)
    terms = data.draw(_source(coeff))
    if data.draw(st.integers(0, 3)) == 0:
        terms[-1, data.draw(st.integers(0, 4))] = data.draw(coeff)  # refused
    src = WeylOperator(terms)
    assert _outcome(laplace_substitute, src) == _outcome(_ref_laplace, src)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ramify_table_matches_the_product_route(data):
    coeff = data.draw(_fields)
    src = WeylOperator(data.draw(_source(coeff)), "theta")
    c, k = data.draw(coeff), data.draw(st.integers(0, 4))
    assert _outcome(ramify_operator, src, c, k) == _outcome(_ref_ramify, src, c, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twist_table_matches_the_product_route(data):
    coeff = data.draw(_fields)
    src = WeylOperator(data.draw(_source(coeff, relative=True)), "eta")
    q = data.draw(st.integers(1, 6))
    phi = S({-q: data.draw(coeff)}, var="eta")
    if data.draw(st.booleans()):
        # a second term, or a pole of order zero: refused unless it cancels
        phi = phi + S({data.draw(st.integers(-3, 2)): data.draw(coeff)}, var="eta")
    new, ref = _outcome(twist_operator, src, phi), _outcome(_ref_twist, src, phi)
    assert new == ref
    if new[0] == "ok":
        residue = _outcome(lambda op: regular_residue(op).residue, new[1])
        assert residue == _outcome(_ref_residue, ref[1])


@pytest.mark.parametrize("a", [1, Fraction(-2, 3), zeta(3), 1 + 2 * zeta(4)], ids=str)
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_family_pipeline_matches_the_product_route(a, q):
    # the oracle's own chain: substitute, ramify by the transform's rho, twist
    big, tr = _family_pipeline(a, q)
    op = WeylOperator({(q + 1, 1): ONE, (0, 0): FieldElement.from_any(a) * q})
    lap = laplace_substitute(op)
    assert lap == _ref_laplace(op)
    c = tr.rho.leading_coefficient()
    assert ramify_operator(lap.operator, c, tr.p) == _ref_ramify(lap.operator, c, tr.p)
    for lam in (tr.phi.coefficient(-q), tr.phi.coefficient(-q) * rational(2)):
        phi = S({-q: lam}, var="eta")
        assert twist_operator(big, phi) == _ref_twist(big, phi)
