"""Structural algebra: dual, tensor, Hom, End regular part, determinant.

The tensor product of elementary connections lifts both factors to a
common ramification degree, where the exponential factors combine
additively and the regular parts combine as a Kronecker product of
automorphisms; the lift splits into gcd-many summands indexed by roots
of unity.  Hom is the tensor product with the dual.  The Jordan-data
algebra used here (pull-back, Kronecker product, push-forward) lives next
to RegularPart in the connection module; its closed forms mean no matrix
is ever materialized.
"""

from __future__ import annotations

from math import gcd
from typing import Union

from .connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    canonicalize,
    jordan_tensor,
    normalize_ramification,
    pullback_regular,
    pushforward_monodromy,
    rotate_exponential,
)
from .errors import DomainError
from .exactfield import ONE, rational
from .series import LaurentSeries


def dual(el: ElementaryConnection) -> ElementaryConnection:
    """El(rho, -phi, R*) with inverse-transpose Jordan data."""
    return ElementaryConnection(el.rho, -el.phi, el.reg.dual())


def _stretch(phi: LaurentSeries, m: int) -> LaurentSeries:
    # phi(w^m) for an exact polar part
    return LaurentSeries({e * m: c for e, c in phi.coeffs.items()})


def tensor(el1: ElementaryConnection, el2: ElementaryConnection) -> FormalConnection:
    """The tensor product, returned in canonical form.

    With d = gcd(p1, p2) and p_i' = p_i/d the product lives at
    ramification degree p1 p2/d and splits into d summands; summand k
    twists the second factor by the root of unity zeta_{p1 p2/d}^k.
    """
    el1 = normalize_ramification(el1)
    el2 = normalize_ramification(el2)
    d = gcd(el1.p, el2.p)
    p1r, p2r = el1.p // d, el2.p // d
    big = el1.p * el2.p // d
    reg = jordan_tensor(pullback_regular(el1.reg, p2r), pullback_regular(el2.reg, p1r))
    base1 = _stretch(el1.phi, p2r)
    base2 = _stretch(el2.phi, p1r)
    out = []
    for k in range(d):
        phi_k = base1 + rotate_exponential(base2, big, k)
        out.append(ElementaryConnection(LaurentSeries.monomial(big, var="w"), phi_k, reg))
    return canonicalize(FormalConnection(out))


def hom(el1: ElementaryConnection, el2: ElementaryConnection) -> FormalConnection:
    """Hom(el1, el2) = dual(el1) (x) el2, returned in canonical form."""
    return tensor(dual(el1), el2)


def end_regular_part(m: FormalConnection) -> list[RegularPart]:
    """Per-summand regular part of End, as push-forwards of End(R_i).

    Distinct canonical summands contribute no cross terms, so the result
    is one entry per summand: the degree-p_i push-forward of R_i* (x) R_i.
    """
    out = []
    for el in m:
        if not el.is_normalized() or not el.is_minimal():
            raise DomainError("end_regular_part expects canonical minimal summands")
        out.append(pushforward_monodromy(jordan_tensor(el.reg.dual(), el.reg), el.p))
    return out


def determinant(el: ElementaryConnection) -> ElementaryConnection:
    """The rank-one determinant connection, written over the base variable.

    Only the exponents of phi divisible by p survive in the exponential
    factor (scaled by the rank of R); the monodromy is the product of all
    Jordan eigenvalues with block-size multiplicity, times the parity
    factor (-1)^((p-1) r) of the half-integer twist.
    """
    el = normalize_ramification(el)
    p, r = el.p, el.r
    trace_phi = LaurentSeries(
        {e // p: c for e, c in el.phi.coeffs.items() if e % p == 0}, var="t"
    )
    mono = el.reg.eigenvalue_product()
    if (p - 1) * r % 2:
        mono = -mono
    return ElementaryConnection(
        LaurentSeries.identity(var="t"),
        trace_phi.scale(rational(r)),
        RegularPart([(mono, 1)]),
    )


def determinant_of_sum(m: Union[FormalConnection, ElementaryConnection]) -> ElementaryConnection:
    """Determinant of a direct sum: the product of the summand determinants."""
    if isinstance(m, ElementaryConnection):
        m = FormalConnection([m])
    phi = LaurentSeries.zero(var="t")
    mono = ONE
    for el in m:
        det = determinant(el)
        phi = phi + det.phi
        mono = mono * det.reg.jordan[0][0]
    return ElementaryConnection(LaurentSeries.identity(var="t"), phi, RegularPart([(mono, 1)]))
