"""Elementary connection data model, normal forms, isomorphism."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfourier.connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    canonicalize,
    elementary,
    invariants,
    is_isomorphic,
    is_isomorphic_elementary,
    normalize_ramification,
    pullback_decompose,
    reduce_minimal,
    regular_connection,
    rotate_exponential,
)
from localfourier.dsl import render_connection
from localfourier.errors import DomainError
from localfourier.exactfield import ONE, adjoin_root, rational, zeta
from localfourier.rigidity import dim_centralizer, dim_fixed, pushforward_monodromy
from localfourier.series import LaurentSeries

S = LaurentSeries


def El(rho, phi, reg=None):
    return elementary(rho, phi, reg)


def test_invariants_frozen():
    a = El(S.monomial(3), S({-2: 1}), RegularPart.trivial(2))
    assert invariants(a).slope == Fraction(2, 3)
    assert a.irregularity == 4
    assert a.rank == 6
    b = regular_connection(RegularPart.trivial(5))
    assert b.slope == 0 and b.irregularity == 0 and b.rank == 5
    c = El(S.monomial(2), S({-3: 1}))
    assert c.slope == Fraction(3, 2)
    assert c.irregularity == 3
    assert c.rank == 2


def test_constructor_validation():
    with pytest.raises(DomainError):
        El(S({0: 1, 1: 1}), S.zero())  # constant term in rho
    with pytest.raises(DomainError):
        El(S({-1: 1}), S.zero())
    with pytest.raises(DomainError):
        RegularPart([(0, 1)])
    with pytest.raises(DomainError):
        RegularPart([(1, 0)])
    # positive phi exponents are quotiented away on construction
    el = El(S.monomial(1), S({-1: 2, 0: 7, 3: 1}))
    assert el.phi == S({-1: 2})
    assert el.q == 1


def test_normalize_already_normalized():
    el = El(S.monomial(1), S({-2: 5}))
    assert normalize_ramification(el) is el


def test_normalize_linear_rescale():
    el = El(S.monomial(1, 2), S({-1: 1}), RegularPart([(rational(3), 1)]))
    out = normalize_ramification(el)
    assert out.rho == S.monomial(1)
    assert out.phi == S({-1: 2})
    assert out.reg == el.reg


def test_normalize_nonmonomial():
    el = El(S({2: 1, 3: 1}), S({-1: 1}))
    out = normalize_ramification(el)
    assert out.rho == S.monomial(2)
    # lambda = u - u^2/2 + 5u^3/8 - ...; 1/lambda has polar part exactly u^-1
    assert out.phi == S({-1: 1})


def test_normalize_negative_leading_coefficient():
    el = El(S.monomial(2, -1), S({-1: 2}), RegularPart([(rational(-1), 1)]))
    out = normalize_ramification(el)
    assert out.rho == S.monomial(2)
    # sqrt(-u^2) = i u canonically, lambda = -i u, phi picks up 1/(-i) = i
    assert out.phi == S({-1: 2 * zeta(4)})
    assert out.reg == el.reg


def test_reduce_minimal_frozen():
    a = El(S.monomial(4), S({-2: 1}))
    out = reduce_minimal(a)
    assert out.rho == S.monomial(2)
    assert out.phi == S({-1: 1})
    assert out.reg == RegularPart([(1, 1), (-1, 1)])
    assert out.rank == a.rank and out.irregularity == a.irregularity
    assert out.slope == a.slope

    b = El(S.monomial(2), S({-1: 1}))
    assert reduce_minimal(b) is b

    c = El(S.monomial(6), S({-4: 1, -2: 1}))
    out = reduce_minimal(c)
    assert out.rho == S.monomial(3)
    assert out.phi == S({-2: 1, -1: 1})
    assert out.rank == c.rank and out.irregularity == c.irregularity


def test_reduce_minimal_regular_tower():
    el = El(S.monomial(3), S.zero(), RegularPart([(rational(2), 1)]))
    out = reduce_minimal(el)
    assert out.p == 1 and out.q == 0
    assert out.reg == pushforward_monodromy(el.reg, 3)
    assert out.rank == el.rank


def test_pullback_decompose_full():
    el = El(S.monomial(2), S({-1: 1}))
    out = pullback_decompose(el, 2)
    assert len(out) == 2
    phis = sorted(s.phi.coefficient(-1).sort_key() for s in out)
    expected = sorted(x.sort_key() for x in (ONE, -ONE))
    assert phis == expected
    assert all(s.p == 1 for s in out)
    assert out.rank == el.rank
    assert out.irregularity == 2 * el.irregularity
    assert out.slopes() == (Fraction(1), Fraction(1))


def test_pullback_decompose_identity_and_partial():
    el = El(S.monomial(4), S({-1: 1}))
    assert pullback_decompose(el, 1).summands == (el,)
    out = pullback_decompose(el, 2)
    # rotations use 4th roots of unity: second summand coefficient is -i
    coeffs = {s.phi.coefficient(-1) for s in out}
    assert coeffs == {ONE, -zeta(4)}
    assert out.rank == el.rank
    with pytest.raises(DomainError):
        pullback_decompose(el, 3)


def test_is_isomorphic_elementary_witness():
    r = RegularPart([(rational(2), 1)])
    a = El(S.monomial(2), S({-1: 1}), r)
    b = El(S.monomial(2), S({-1: -1}), r)
    w = is_isomorphic_elementary(a, b)
    assert w == rational(-1)
    assert rotate_exponential(b.phi, 2, 1) == a.phi
    assert is_isomorphic_elementary(a, El(S.monomial(2), S({-1: 2}), r)) is None
    assert is_isomorphic_elementary(a, a) == ONE


def test_is_isomorphic_elementary_checks_preconditions():
    bad = El(S.monomial(2), S({-2: 1}))
    with pytest.raises(DomainError):
        is_isomorphic_elementary(bad, bad)


def test_canonicalize_merges_identical_types():
    e = El(S.monomial(1), S({-1: 1}))
    m = canonicalize(FormalConnection([e, e]))
    assert len(m) == 1
    assert m.summands[0].reg == RegularPart.trivial(2)
    assert m.rank == 2


def test_canonicalize_merges_rotated_types():
    r1 = RegularPart([(rational(2), 1)])
    r2 = RegularPart([(rational(3), 2)])
    a = El(S.monomial(2), S({-1: 1}), r1)
    b = El(S.monomial(2), S({-1: -1}), r2)
    m = canonicalize(FormalConnection([a, b]))
    assert len(m) == 1
    assert m.summands[0].reg == r1.concat(r2)
    assert m.rank == a.rank + b.rank
    single = El(S.monomial(2), S({-1: 1}), r1.concat(r2))
    assert is_isomorphic(m, single)


def test_canonicalize_idempotent_and_order_free():
    a = El(S.monomial(2), S({-1: 1}))
    b = El(S.monomial(1), S({-2: 3}))
    c = regular_connection(RegularPart([(rational(5), 2)]))
    m1 = canonicalize(FormalConnection([a, b, c]))
    m2 = canonicalize(FormalConnection([c, a, b]))
    assert m1 == m2
    assert canonicalize(m1) == m1
    assert m1.rank == a.rank + b.rank + c.rank
    assert m1.irregularity == a.irregularity + b.irregularity


_ADJOIN_THEN_CANONICALIZE = """
import sys
from localfourier import dsl
from localfourier.connection import canonicalize
from localfourier.exactfield import adjoin_root, zeta
for n in sys.argv[1:]:
    adjoin_root(2 + zeta(int(n)), 2)
[conn] = dsl.parse(sys.stdin.read()).connection_list()
print(dsl.render_connection(canonicalize(conn)))
"""


def test_canonical_form_does_not_depend_on_earlier_adjoins():
    doc = (
        "El(rho=u, phi=(root(2 + zeta(3),2))*u^-1, R=[(1:1)]) (+) "
        "El(rho=u, phi=(root(2 + zeta(5),2))*u^-1, R=[(1:1)])"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outs = [
        subprocess.run(
            [sys.executable, "-c", _ADJOIN_THEN_CANONICALIZE, *order],
            input=doc, env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for order in (["3", "5"], ["5", "3"])
    ]
    assert outs[0] == outs[1]
    assert outs[0].count("El(") == 2


def test_canonicalize_normalizes_hidden_ramification():
    raw = El(S.monomial(2, -1), S({-1: 2}), RegularPart([(rational(-1), 1)]))
    cooked = El(S.monomial(2), S({-1: 2 * zeta(4)}), RegularPart([(rational(-1), 1)]))
    assert canonicalize(raw) == canonicalize(cooked)
    assert is_isomorphic(raw, cooked)


def test_is_isomorphic_basic():
    a = El(S.monomial(1), S({-1: 1}))
    b = El(S.monomial(1), S({-2: 1}))
    assert is_isomorphic(a, canonicalize(a))
    assert not is_isomorphic(a, b)
    c = regular_connection(RegularPart.trivial(1))
    m1 = FormalConnection([a, c])
    m2 = FormalConnection([c, a])
    assert is_isomorphic(m1, m2)


def test_dim_centralizer_frozen():
    assert dim_centralizer(RegularPart([(1, 1)])) == 1
    assert dim_centralizer(RegularPart.trivial(2)) == 4
    assert dim_centralizer(RegularPart([(1, 2), (2, 1)])) == 3
    assert dim_centralizer(RegularPart([(1, 2), (1, 1)])) == 5
    assert dim_centralizer(RegularPart([])) == 0


def test_dim_fixed_frozen():
    assert dim_fixed(RegularPart([(1, 3), (2, 1)])) == 1
    assert dim_fixed(RegularPart([(1, 1), (1, 2)])) == 2
    assert dim_fixed(RegularPart([(rational(2), 4)])) == 0


def test_pushforward_monodromy_frozen():
    assert pushforward_monodromy(RegularPart.trivial(1), 2) == RegularPart(
        [(1, 1), (-1, 1)]
    )
    assert pushforward_monodromy(RegularPart([(rational(4), 1)]), 2) == RegularPart(
        [(rational(2), 1), (rational(-2), 1)]
    )
    out = pushforward_monodromy(RegularPart([(rational(-1), 2)]), 2)
    assert out == RegularPart([(zeta(4), 2), (-zeta(4), 2)])
    assert out.rank == 4


_small_scalar = st.sampled_from(
    [rational(1), rational(2), rational(-1), rational("1/2"), zeta(3), zeta(4)]
)


@st.composite
def _minimal_el(draw):
    p = draw(st.sampled_from([1, 2, 3]))
    a = draw(_small_scalar)
    table = {-1: a}
    extra = draw(st.integers(min_value=0, max_value=1))
    if extra:
        table[-draw(st.sampled_from([2, 3]))] = draw(_small_scalar)
    eigs = draw(st.lists(_small_scalar, min_size=1, max_size=2))
    reg = RegularPart([(e, 1) for e in eigs])
    return ElementaryConnection(S.monomial(p), S(table), reg)


@settings(max_examples=40, deadline=None)
@given(_minimal_el(), st.integers(min_value=0, max_value=5))
def test_rotation_yields_isomorphic(el, k):
    rotated = ElementaryConnection(el.rho, rotate_exponential(el.phi, el.p, k), el.reg)
    assert is_isomorphic_elementary(el, rotated) is not None
    assert is_isomorphic(el, rotated)


def ref_rotate(phi, c):
    # the earlier generic substitution: phi(c u), the coefficient of u^e
    # times c ** e (an inverse for every negative e)
    return S({e: x * c ** e for e, x in phi.coeffs.items()})


_rotation_coeff = st.sampled_from(
    [rational("-3/2"), rational(5), zeta(3), 2 - zeta(3), zeta(4) + rational("1/3"),
     adjoin_root(2, 2), 1 + adjoin_root(2, 2)]
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.data(),
    st.dictionaries(st.integers(min_value=-8, max_value=-1), _rotation_coeff, min_size=1, max_size=3),
    st.dictionaries(st.integers(min_value=0, max_value=8), _rotation_coeff, min_size=1, max_size=3),
)
def test_rotation_by_index_matches_generic_substitution(p, data, neg, pos):
    k = data.draw(st.integers(min_value=-p, max_value=2 * p - 1))
    phi = S({**neg, **pos})
    assert rotate_exponential(phi, p, k) == ref_rotate(phi, zeta(p) ** k)


@settings(max_examples=40, deadline=None)
@given(_minimal_el(), _minimal_el())
def test_canonicalize_preserves_invariants(a, b):
    m = FormalConnection([a, b])
    c = canonicalize(m)
    assert c.rank == m.rank
    assert c.irregularity == m.irregularity
    assert canonicalize(c) == c


@st.composite
def _classes_with_rotated_copies(draw):
    """(summands, number of distinct classes at most): each base El is
    followed by rotated copies, isomorphic to it up to the regular part."""
    bases = draw(st.lists(_minimal_el(), min_size=1, max_size=3))
    out = []
    for el in bases:
        out.append(el)
        for k in draw(st.lists(st.integers(min_value=0, max_value=5), max_size=2)):
            reg = draw(st.sampled_from([el.reg, RegularPart([(rational(2), 1), (ONE, 2)])]))
            out.append(ElementaryConnection(el.rho, rotate_exponential(el.phi, el.p, k), reg))
    regular = draw(st.lists(st.sampled_from([ONE, rational(-1)]), max_size=2))
    out.extend(regular_connection(RegularPart([(e, 1)])) for e in regular)
    return out, len(bases) + (1 if regular else 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_does_not_depend_on_summand_order(data):
    summands, at_most = data.draw(_classes_with_rotated_copies())
    want = canonicalize(FormalConnection(summands))
    got = canonicalize(FormalConnection(data.draw(st.permutations(summands))))
    assert got == want
    assert render_connection(got) == render_connection(want)
    assert len(want) <= at_most  # rotated copies merged with their base
    assert want.rank == sum(el.rank for el in summands)
