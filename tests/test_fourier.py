"""The four transform kinds, their invariants, and the assembly at infinity."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    canonicalize,
    elementary,
    is_isomorphic,
    normalize_ramification,
)
from localfourier.errors import DomainError
from localfourier.exactfield import ONE, rational, zeta
from localfourier.fourier import (
    INFINITY,
    RationalMap,
    RegularGermData,
    SingularityDatum,
    fourier_0_inf,
    fourier_inf_0,
    fourier_inf_inf,
    fourier_regular,
    fourier_s_inf,
    stationary_phase_at_infinity,
)
from localfourier.series import LaurentSeries, working_window
from localfourier.structure import tensor

S = LaurentSeries


def El(rho, phi, reg=None):
    return elementary(rho, phi, reg)


def one_term(a, q):
    return El(S.identity(), S({-q: a}))


# ------------------------------------------------------- origin-to-infinity


def test_one_term_family_frozen():
    for a in [rational(1), rational(2), rational("-3/2"), zeta(3)]:
        for q in range(1, 6):
            out = fourier_0_inf(one_term(a, q), "-")
            assert out.rho.is_exact()
            assert out.rho == S.monomial(q + 1, -(ONE / (rational(q) * a)))
            assert out.phi == S({-q: rational(q + 1) * a})
            assert out.reg == RegularPart([((-1) ** q, 1)])


def test_0inf_ramified_example_frozen():
    out = fourier_0_inf(El(S.monomial(2), S({-3: 1})), "-")
    assert out.rho == S.monomial(5, rational("-2/3"))
    assert out.phi == S({-3: rational("5/2")})
    assert out.reg == RegularPart([(-1, 1)])
    assert out.p == 5 and out.q == 3


def test_0inf_rejects_regular():
    with pytest.raises(DomainError):
        fourier_0_inf(El(S.identity(), S.zero()), "-")
    with pytest.raises(DomainError):
        fourier_0_inf(regular := El(S.monomial(2), S.zero(), RegularPart([(2, 1)])), "+")


def test_0inf_multi_term_phi():
    # phi' is no longer a monomial, so rho_hat is a genuine expansion
    el = El(S.identity(), S({-2: 1, -1: 1}))
    out = fourier_0_inf(el, "-")
    assert out.p == 3 and out.q == 2
    assert not out.rho.is_exact()
    assert out.rho_source.num.is_exact() and out.rho_source.den.is_exact()
    # leading term of rho'/phi' = 1/(-2 u^-3 - u^-2)
    assert out.rho.coefficient(3) == rational("-1/2")


def test_conservation_0inf_small_grid():
    for p in range(1, 5):
        for q in range(1, 7):
            el = El(S.monomial(p), S({-q: 2, -1: 1}), RegularPart([(3, 2)]))
            out = fourier_0_inf(el, "-")
            assert out.p == p + q and out.q == q
            assert out.irregularity == el.irregularity
            assert out.rank == el.rank + el.irregularity
            assert 1 / out.slope == 1 + 1 / el.slope


# ------------------------------------------------------- infinity-to-origin


def test_inf_0_round_trip_one_term():
    for a, q in [(rational(1), 1), (rational(2), 3), (rational("1/3"), 2)]:
        f = fourier_0_inf(one_term(a, q), "-")
        back = fourier_inf_0(f, "+")
        assert back.rho == S.identity().with_var("t")
        assert back.phi == S({-q: a})
        assert back.reg == RegularPart.trivial(1)


def test_inf_0_preconditions():
    with pytest.raises(DomainError):
        fourier_inf_0(one_term(rational(1), 1), "+")  # slope 1
    with pytest.raises(DomainError):
        fourier_inf_0(El(S.identity(), S({-2: 1})), "+")  # slope 2
    with pytest.raises(DomainError):
        fourier_inf_0(El(S.monomial(3), S.zero(), RegularPart([(2, 1)])), "+")


def test_inf_0_conservation():
    el = El(S.monomial(5), S({-2: 3}), RegularPart([(1, 2)]))
    out = fourier_inf_0(el, "+")
    assert out.p == 3 and out.q == 2
    assert out.irregularity == el.irregularity
    assert out.rank == el.rank - el.irregularity


# ----------------------------------------------------- infinity-to-infinity


def test_inf_inf_frozen():
    # El(u, a u^-q), sign +  ->  El(-u^(q-1)/(qa), (1-q) a u^-q, twist)
    a = rational(2)
    out = fourier_inf_inf(one_term(a, 3), "+")
    assert out.rho == S.monomial(2, rational("-1/6"))
    assert out.phi == S({-3: -4})
    assert out.reg == RegularPart([(-1, 1)])


def test_inf_inf_preconditions():
    with pytest.raises(DomainError):
        fourier_inf_inf(one_term(rational(1), 1), "+")  # slope 1
    with pytest.raises(DomainError):
        fourier_inf_inf(El(S.monomial(3), S({-2: 1})), "+")  # slope < 1


def test_inf_inf_conservation():
    for p, q in [(1, 2), (1, 5), (2, 3), (3, 7)]:
        el = El(S.monomial(p), S({-q: 1}), RegularPart([(2, 1)]))
        out = fourier_inf_inf(el, "+")
        assert out.p == q - p and out.q == q
        assert out.irregularity == el.irregularity
        assert out.rank == el.irregularity - el.rank
        assert 1 / out.slope == 1 - 1 / el.slope


def test_inf_inf_double_application_is_identity():
    cases = [
        one_term(rational(1), 2),
        one_term(rational("-5/2"), 4),
        El(S.identity(), S({-3: 1, -1: 2})),
        El(S.monomial(2), S({-5: 1}), RegularPart([(2, 2)])),
    ]
    for el in cases:
        twice = fourier_inf_inf(fourier_inf_inf(el, "+"), "-")
        assert is_isomorphic(FormalConnection([twice]), FormalConnection([el]))


# ---------------------------------------------------------------- round trip


def test_round_trip_0inf_then_inf0():
    cases = [
        one_term(rational(3), 2),
        El(S.identity(), S({-2: 1, -1: 1})),
        El(S.monomial(2), S({-3: 1}), RegularPart([(zeta(4), 1)])),
        El(S.monomial(3), S({-2: rational("1/2"), -1: 1})),
    ]
    for el in cases:
        back = fourier_inf_0(fourier_0_inf(el, "-"), "+")
        assert is_isomorphic(FormalConnection([back]), FormalConnection([el]))


def test_sign_symmetry():
    cases = [
        one_term(rational(2), 1),
        El(S.monomial(2), S({-3: 1})),
        El(S.identity(), S({-2: 1, -1: 3}), RegularPart([(2, 2)])),
    ]
    for el in cases:
        plus = fourier_0_inf(el, "+")
        flipped = ElementaryConnection(-el.rho, el.phi, el.reg)
        minus = fourier_0_inf(flipped, "-")
        assert is_isomorphic(FormalConnection([plus]), FormalConnection([minus]))


def test_transform_commutes_with_normalization():
    el = El(S({2: 1, 3: 1}), S({-2: 1}))  # rho = u^2 (1 + u)
    direct = fourier_0_inf(el, "-")
    pre = fourier_0_inf(normalize_ramification(el), "-")
    assert is_isomorphic(FormalConnection([direct]), FormalConnection([pre]))


def test_transforms_accept_what_the_library_builds():
    # tensor writes rho in w and canonicalize reparametrizes into u; every
    # summand keeps phi in the variable of its rho, so it transforms again
    a = El(S.identity(), S({-1: 1}))
    b = El(S.monomial(2, var="w"), S({-3: 5}, var="w"))
    for el in tensor(a, b):
        assert el.phi.var == el.rho.var
        out = fourier_0_inf(el, "-")
        assert (out.p, out.q) == (el.p + el.q, el.q)
    (el,) = canonicalize(fourier_inf_inf(El(S.identity(), S({-2: 1})), "+"))
    assert el.p == 1 and el.phi.var == el.rho.var
    out = fourier_0_inf(el, "-")
    assert out == fourier_0_inf(El(S.identity(), S(el.phi.coeffs)), "-")


def test_phi_takes_the_variable_of_rho():
    el = El(S.identity(var="t"), S({-2: 1}, var="theta"))
    assert el.phi.var == "t"
    assert el.phi == S({-2: 1}, var="t")


# ------------------------------------------------------------ regular germs


def test_fourier_regular_shrink_rule():
    g = RegularGermData(RegularPart([(1, 2)]))
    assert g.kappa == 1
    assert fourier_regular(g) == RegularPart([(1, 1)])

    lam = zeta(3)
    g2 = RegularGermData(RegularPart([(lam, 3)]))
    assert g2.kappa == 0
    assert fourier_regular(g2) == RegularPart([(lam, 3)])

    g3 = RegularGermData(RegularPart([(1, 1)]))
    assert g3.kappa == 1
    assert fourier_regular(g3).rank == 0

    mixed = RegularGermData(RegularPart([(1, 1), (1, 3), (2, 2)]))
    assert mixed.kappa == 2
    assert fourier_regular(mixed) == RegularPart([(1, 2), (2, 2)])
    assert fourier_regular(mixed).rank == mixed.psi.rank - mixed.kappa
    # plain-connection mode leaves the space untouched
    assert fourier_regular(mixed, minimal_extension=False) == mixed.psi


def test_s_inf_zero_twist_matches_plain_transform():
    el = one_term(rational(2), 2)
    assert fourier_s_inf(el, 0, "-") == fourier_0_inf(el, "-")


def test_s_inf_regular_germ_frozen():
    lam = rational(5)
    out = fourier_s_inf(RegularGermData(RegularPart([(lam, 1)])), 1, "-")
    assert out.rho == S.identity()
    assert out.phi == S({-1: -1})
    assert out.reg == RegularPart([(lam, 1)])
    assert out.slope == 1


def test_s_inf_irregular_frozen():
    # base transform El(-u^2, 2/u); twist by s = 2 with the minus kernel
    out = fourier_s_inf(one_term(rational(1), 1), 2, "-")
    assert out.phi == S({-2: 2, -1: 2})
    assert out.slope == 1


def test_s_inf_forces_slope_one():
    for el in [one_term(rational(1), 3), El(S.monomial(2), S({-1: 1}))]:
        out = fourier_s_inf(el, rational("7/3"), "-")
        assert out.slope == 1
    out = fourier_s_inf(RegularGermData(RegularPart([(2, 2)])), zeta(4), "+")
    assert out.slope == 1


def test_s_inf_vanishing_germ():
    out = fourier_s_inf(RegularGermData(RegularPart([(1, 1)])), 3, "-")
    assert out.rank == 0


# ---------------------------------------------------------------- assembly


def test_singularity_datum_validation():
    el_slope2 = El(S.identity(), S({-2: 1}))
    el_half = El(S.monomial(2), S({-1: 1}))
    with pytest.raises(DomainError):
        SingularityDatum(INFINITY, summands=[el_slope2])
    with pytest.raises(DomainError):
        SingularityDatum(INFINITY, slope_gt1=[el_half])
    with pytest.raises(DomainError):
        SingularityDatum(INFINITY, slope_lt1=[el_slope2])
    with pytest.raises(DomainError):
        SingularityDatum(INFINITY, slope_eq1=[(0, (), RegularPart([(1, 1)]))])
    with pytest.raises(DomainError):
        SingularityDatum(INFINITY, slope_eq1=[(1, (el_slope2,), None)])
    with pytest.raises(DomainError):
        SingularityDatum(0, slope_gt1=[el_slope2])
    with pytest.raises(DomainError):
        SingularityDatum(0, summands=[El(S.identity(), S.zero(), RegularPart([(2, 1)]))])
    # well-formed data
    SingularityDatum(0, summands=[el_slope2], germ=RegularGermData(RegularPart([(1, 2)])))
    SingularityDatum(
        INFINITY,
        slope_gt1=[el_slope2],
        slope_eq1=[(2, (el_half,), RegularPart([(3, 1)]))],
        slope_lt1=[el_half],
        lt1_regular=RegularPart([(1, 1)]),
    )


def test_assembly_single_regular_point():
    datum = SingularityDatum(0, germ=RegularGermData(RegularPart([(1, 2)])))
    out = stationary_phase_at_infinity([datum], "-")
    assert out.rank == 1
    assert len(out) == 1
    el = out.summands[0]
    assert el.is_regular() and el.reg == RegularPart([(1, 1)])


def test_assembly_single_irregular_point():
    el = one_term(rational(2), 2)
    datum = SingularityDatum(0, summands=[el])
    out = stationary_phase_at_infinity([datum], "-")
    assert out == canonicalize(FormalConnection([fourier_0_inf(el, "-")]))


def test_assembly_nonzero_point_twists():
    datum = SingularityDatum(3, germ=RegularGermData(RegularPart([(2, 1)])))
    out = stationary_phase_at_infinity([datum], "-")
    assert len(out) == 1
    el = out.summands[0]
    assert el.phi == S({-1: -3})
    assert el.reg == RegularPart([(2, 1)])
    plus = stationary_phase_at_infinity([datum], "+")
    assert plus.summands[0].phi == S({-1: 3})


def test_assembly_mixed():
    irr = one_term(rational(1), 1)
    data = [
        SingularityDatum(0, summands=[irr], germ=RegularGermData(RegularPart([(1, 1)]))),
        SingularityDatum(1, germ=RegularGermData(RegularPart([(zeta(3), 1)]))),
        SingularityDatum(INFINITY, slope_gt1=[one_term(rational(1), 2)]),
    ]
    out = stationary_phase_at_infinity(data, "-")
    # germ at 0 vanishes (kappa eats it); the others contribute
    want = canonicalize(
        FormalConnection(
            [
                fourier_0_inf(irr, "-"),
                fourier_s_inf(RegularGermData(RegularPart([(zeta(3), 1)])), 1, "-"),
                fourier_inf_inf(one_term(rational(1), 2), "-"),
            ]
        )
    )
    assert out == want
    assert out.rank == want.rank


def test_assembly_rejects_duplicates():
    d0 = SingularityDatum(0, germ=RegularGermData(RegularPart([(2, 1)])))
    with pytest.raises(DomainError):
        stationary_phase_at_infinity([d0, d0], "-")
    dinf = SingularityDatum(INFINITY)
    with pytest.raises(DomainError):
        stationary_phase_at_infinity([dinf, dinf], "-")


def test_assembly_minimal_extension_flag():
    datum = SingularityDatum(0, germ=RegularGermData(RegularPart([(1, 2)])))
    out = stationary_phase_at_infinity([datum], "-", minimal_extension=False)
    assert out.rank == 2  # psi survives whole in plain-connection mode


def test_full_connection_flattening():
    el_half = El(S.monomial(2), S({-1: 1}))
    datum = SingularityDatum(
        INFINITY,
        slope_gt1=[one_term(rational(1), 2)],
        slope_eq1=[(2, (el_half,), RegularPart([(3, 1)]))],
        lt1_regular=RegularPart([(1, 2)]),
    )
    full = datum.full_connection()
    # 1 + (1 + 1) + 1 summands; the slope-one entry twists phi by 2/rho
    assert len(full) == 4
    slopes = full.slopes()
    assert slopes == (Fraction(0), Fraction(1), Fraction(1), Fraction(2))
    twisted = [s for s in full if s.p == 2][0]
    assert twisted.phi == S({-2: 2, -1: 1})

    finite = SingularityDatum(
        0, summands=[one_term(rational(1), 1)], germ=RegularGermData(RegularPart([(1, 2)]))
    )
    assert finite.full_connection().rank == 3


def test_transformed_connection_equality_with_plain():
    out = fourier_0_inf(one_term(rational(1), 1), "-")
    plain = ElementaryConnection(out.rho, out.phi, out.reg)
    assert out == plain and plain == out


# ------------------------------------------------------ randomized checks


@st.composite
def random_irregular(draw):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([1, 2, -1, Fraction(1, 2)]))
    coeffs = {-q: lead}
    if q > 1 and draw(st.booleans()):
        coeffs[draw(st.integers(-q + 1, -1))] = draw(st.sampled_from([1, -2]))
    blocks = [
        (draw(st.sampled_from([1, 2, -1])), draw(st.integers(1, 2)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return El(S.monomial(p), S(coeffs), RegularPart(blocks))


@given(random_irregular())
@settings(max_examples=40, deadline=None)
def test_conservation_randomized(el):
    out = fourier_0_inf(el, "-")
    assert out.p == el.p + el.q and out.q == el.q
    assert out.irregularity == el.irregularity
    assert out.rank == el.rank + el.irregularity


@given(random_irregular())
@settings(max_examples=20, deadline=None)
def test_round_trip_randomized(el):
    back = fourier_inf_0(fourier_0_inf(el, "-"), "+")
    assert is_isomorphic(FormalConnection([back]), FormalConnection([el]))


# ------------------------------------------- cancelled against uncancelled
# The transforms write every map in n, d and D = n'd - nd' for rho = n/d.
# The reference below builds the same maps from rho and rho' = D/d^2 as
# the formulas read, and keeps every product whole.

# kind: (transform, sign of the step, sign whose rho_hat is negated,
#        sign of the correction, variable of the output, p_hat)
_STEPS = {
    "0inf": (fourier_0_inf, "-", 1, -1, "theta", lambda p, q: p + q),
    "inf0": (fourier_inf_0, "+", -1, 1, "t", lambda p, q: p - q),
    "infinf": (fourier_inf_inf, "+", -1, 1, "theta", lambda p, q: q - p),
}


def _uncancelled(kind, num, den, phi):
    """One transform of El(num/den, phi) by products of rho, rho' and phi'."""
    _, sign, negated_for, corr_sign, var, p_hat = _STEPS[kind]
    dphi = phi.derivative()
    dnum, dden = num.derivative() * den - num * den.derivative(), den * den
    if kind == "0inf":  # rho'/phi'
        hat_num, hat_den = dnum, dden * dphi
    elif kind == "inf0":  # rho^2 phi'/rho'
        hat_num, hat_den = num * num * dphi * dden, den * den * dnum
    else:  # rho'/(phi' rho^2)
        hat_num, hat_den = dnum * den * den, dden * dphi * num * num
    if (1 if sign == "+" else -1) == negated_for:
        hat_num = -hat_num
    p, q = num.valuation() - den.valuation(), -phi.valuation()
    w = working_window(p_hat(p, q), q)
    corr = (num * dden * dphi) * (den * dnum).inverse(window=w)  # (rho/rho') phi'
    phi_hat = (phi + (corr if corr_sign > 0 else -corr)).principal_part()
    hat_num, hat_den = hat_num.with_var(var), hat_den.with_var(var)
    return hat_num, hat_den, hat_num * hat_den.inverse(window=w), phi_hat.with_var(var)


_FIELD_SCALARS = {
    1: [ONE, rational(-2), rational("1/3"), rational("-3/4")],
    3: [zeta(3), 1 + zeta(3), rational(-2) * zeta(3, 2), rational("1/2") - zeta(3)],
    4: [zeta(4), 1 + zeta(4), rational(-3) * zeta(4), rational("1/3") - zeta(4)],
}


@st.composite
def _chain_input(draw, chain):
    p = draw(st.integers(1, 4))
    q = draw(st.integers(p + 1, p + 3) if chain == "infinf" else st.integers(1, 4))
    scalars = st.sampled_from(_FIELD_SCALARS[draw(st.sampled_from(sorted(_FIELD_SCALARS)))])
    lower = draw(st.lists(st.integers(1 - q, -1), max_size=2, unique=True)) if q > 1 else []
    phi = {e: draw(scalars) for e in [-q, *lower]}
    reg = RegularPart([(draw(st.sampled_from([1, -1, 2])), 1)])
    return El(S.monomial(p), S(phi), reg)


@pytest.mark.parametrize("chain", [("0inf", "inf0"), ("infinf", "infinf")], ids="->".join)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cancelled_maps_match_the_uncancelled_formulas(chain, data):
    el = data.draw(_chain_input(chain[0]))
    num, den, phi = el.rho, S.one(), el.phi
    for kind in chain:
        transform, sign = _STEPS[kind][:2]
        el = transform(el, sign)
        num, den, rho, phi = _uncancelled(kind, num, den, phi)
        src = el.rho_source
        assert src.num * den == num * src.den
        assert el.phi == phi
        if el.rho.is_exact() and not rho.is_exact():
            # cancelling d^2 left a Laurent polynomial, which expands exactly
            assert len(src.den.coeffs) == 1 and el.rho.agrees_to_precision(rho)
        else:
            assert el.rho == rho  # coefficients and precision


def test_chained_maps_keep_short_fractions():
    el = El(S.monomial(2), S({-3: 1, -2: zeta(3), -1: 2}))
    back = fourier_inf_0(fourier_0_inf(el, "-"), "+")
    assert len(back.rho_source.den.coeffs) == 3  # 7 with d^2 left in
    el = El(S.identity(), S({-4: 1, -2: zeta(4), -1: 2}))
    twice = fourier_inf_inf(fourier_inf_inf(el, "+"), "-")
    assert len(twice.rho_source.den.coeffs) == 2  # 8 with d^2 left in


# ------------------------------------------------------ window independence
# A transform expands rho_hat at a working window and states the precision
# it reached.  A wider window may only add coefficients beyond that
# precision: phi_hat, R and the canonical form must not move.

_SLOPES = {
    fourier_0_inf: lambda p, q: True,
    fourier_inf_0: lambda p, q: q < p,
    fourier_inf_inf: lambda p, q: q > p,
}


@st.composite
def _windowed_input(draw, transform):
    p, q = draw(
        st.tuples(st.integers(1, 4), st.integers(1, 5)).filter(
            lambda pq: _SLOPES[transform](*pq)
        )
    )
    scalars = st.sampled_from([ONE, rational(-2), rational("1/3"), zeta(3), 1 + zeta(3)])
    rho = {p: ONE}
    if draw(st.booleans()):
        rho[p + draw(st.integers(1, 3))] = draw(scalars)
    phi = {-q: draw(scalars)}
    if q > 1 and draw(st.booleans()):
        phi[draw(st.integers(1 - q, -1))] = draw(scalars)
    reg = RegularPart([(draw(st.sampled_from([1, 2, -1])), draw(st.integers(1, 2)))])
    return El(S(rho), S(phi), reg), draw(st.integers(q, q + 8))


@pytest.mark.parametrize("transform", list(_SLOPES), ids=["0inf", "inf0", "infinf"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_transform_is_window_independent(transform, data):
    el, w = data.draw(_windowed_input(transform))
    narrow = transform(el, window=w)
    wide = transform(el, window=w + 12)
    assert narrow.rho.agrees_to_precision(wide.rho)
    assert narrow.phi == wide.phi
    assert narrow.reg == wide.reg
    assert canonicalize(narrow) == canonicalize(wide)
