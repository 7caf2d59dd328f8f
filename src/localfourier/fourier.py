"""Local Laplace transforms of elementary connections, and their assembly.

Each transform kind rewrites El(rho, phi, R) by explicit substitution
formulas; the new ramification map is a ratio of Laurent polynomials, so
it is kept both as an exact fraction (for downstream recomputation at
higher precision) and as a truncated expansion (for normal forms).

With rho = n/d that fraction and D = n'd - nd' (just n' when d = 1), so
that rho' = D/d^2, the maps are, up to sign,

    0 -> inf     rho_hat = rho'/phi'          = D/(d^2 phi')
    inf -> 0     rho_hat = rho^2 phi'/rho'    = n^2 phi'/D
    inf -> inf   rho_hat = rho'/(phi' rho^2)  = D/(n^2 phi')

and the correction to phi is (rho/rho') phi' = n d phi'/D.  They are
written in n, d and D because Laurent polynomials are never reduced: a
d^2 left in numerator and denominator would double the length of every
fraction a chain of transforms builds on.

Sign convention: the "minus" transform is the one whose kernel pairs t
against -t/theta; on the standard one-term family it sends
El(u, a u^-q, triv) to El(-u^(q+1)/(qa), (q+1) a u^-q, [((-1)^q : 1)]),
and that example pins every sign in this module.  The "plus" transform
is the composite with u -> -u on the input side.

The three elementary kinds share one skeleton (_transform) and differ only
in a row of _KINDS.  A RationalMap is the plain pair (num, den); it is
expanded where it is used, by num.divide(den, window).  The Jordan-data
algebra the assembly relies on lives next to RegularPart in the connection
module.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    canonicalize,
    dim_fixed,
    regular_connection,
)
from .errors import DomainError
from .exactfield import FieldElement, rational
from .series import LaurentSeries, working_window

THETA = "theta"
TVAR = "t"


def _sign(sign) -> int:
    if sign in ("+", "plus", 1):
        return 1
    if sign in ("-", "minus", -1):
        return -1
    raise DomainError(f"sign must be plus or minus, got {sign!r}")


def _is_one_series(f: LaurentSeries) -> bool:
    return f.is_exact() and len(f.coeffs) == 1 and 0 in f.coeffs and f.coeffs[0].is_one()


class RationalMap(NamedTuple):
    """A ratio num/den of Laurent polynomials."""

    num: LaurentSeries
    den: LaurentSeries


def _rho_map(el: ElementaryConnection) -> RationalMap:
    if el.rho_source is not None:
        return el.rho_source
    return RationalMap(el.rho, LaurentSeries.one(el.rho.var))


def _monodromy_twist(reg: RegularPart, q: int) -> RegularPart:
    # tensoring with the rank-one local system of monodromy (-1)^q
    if q % 2 == 0:
        return reg
    return reg.tensor_scalar(rational(-1))


class _Kind(NamedTuple):
    """What one transform kind does not share with the others."""

    requires: tuple  # (predicate on the input, message when it fails)
    rho_hat: Callable  # (n, d, D, phi') -> the new map, rho = n/d, rho' = D/d^2
    p_hat: Callable  # input -> ramification degree of the output
    corr_sign: int  # phi_hat = phi + corr_sign * (rho/rho') phi'
    negated_for: int  # the sign whose rho_hat is negated
    var: str


_KINDS = {
    "0inf": _Kind(
        ((lambda el: el.q != 0,
          "the transform of a regular germ is not elementary; use fourier_regular"),),
        lambda n, d, D, dphi: RationalMap(D, d * d * dphi),
        lambda el: el.p + el.q,
        -1,
        1,
        THETA,
    ),
    "inf0": _Kind(
        ((lambda el: el.q != 0,
          "a regular germ at infinity is invisible to the finite-point transform"),
         (lambda el: el.q < el.p, "this transform kind needs slope < 1")),
        lambda n, d, D, dphi: RationalMap(n * n * dphi, D),
        lambda el: el.p - el.q,
        1,
        -1,
        TVAR,
    ),
    "infinf": _Kind(
        ((lambda el: el.q > el.p, "this transform kind needs slope > 1"),),
        lambda n, d, D, dphi: RationalMap(D, n * n * dphi),
        lambda el: el.q - el.p,
        1,
        -1,
        THETA,
    ),
}


def _transform(
    kind: str, el: ElementaryConnection, sign, window: Optional[int]
) -> ElementaryConnection:
    # the stationary phase skeleton shared by the three elementary kinds
    row = _KINDS[kind]
    sgn = _sign(sign)
    for holds, message in row.requires:
        if not holds(el):
            raise DomainError(message)
    rho = _rho_map(el)
    n, d = rho.num, rho.den
    dphi = el.phi.derivative()
    D = n.derivative()
    if not _is_one_series(d):
        D = D * d - n * d.derivative()
    num_hat, den_hat = row.rho_hat(n, d, D, dphi)
    if sgn == row.negated_for:
        num_hat = -num_hat
    rho_hat = RationalMap(num_hat.with_var(row.var), den_hat.with_var(row.var))
    w = working_window(row.p_hat(el), el.q) if window is None else window
    corr = (n * d * dphi).divide(D, w)
    phi_hat = (el.phi + (corr if row.corr_sign > 0 else -corr)).principal_part()
    return ElementaryConnection(
        rho_hat.num.divide(rho_hat.den, w),
        phi_hat,
        _monodromy_twist(el.reg, el.q),
        rho_source=rho_hat,
    )


def fourier_0_inf(
    el: ElementaryConnection, sign="-", window: Optional[int] = None
) -> ElementaryConnection:
    """Transform of an irregular germ at the origin, viewed at infinity.

    rho_hat = -sign * rho'/phi', phi_hat = phi - (rho/rho') phi', and the
    regular part picks up the monodromy twist (-1)^q.  The pole order is
    preserved while the ramification degree grows to p + q.
    """
    return _transform("0inf", el, sign, window)


def fourier_inf_0(
    el: ElementaryConnection, sign="+", window: Optional[int] = None
) -> ElementaryConnection:
    """Inverse direction: a germ at infinity of slope < 1, brought to a point.

    rho_hat = sign * rho^2 phi'/rho', phi_hat = phi + (rho/rho') phi';
    the ramification degree drops to p - q.
    """
    return _transform("inf0", el, sign, window)


def fourier_inf_inf(
    el: ElementaryConnection, sign="+", window: Optional[int] = None
) -> ElementaryConnection:
    """Transform of a germ at infinity of slope > 1, staying at infinity.

    rho_hat = sign * rho'/(phi' rho^2), phi_hat = phi + (rho/rho') phi';
    the ramification degree becomes q - p.
    """
    return _transform("infinf", el, sign, window)


def _slope_one_twist(
    el: ElementaryConnection, s: FieldElement, window: Optional[int] = None
) -> ElementaryConnection:
    # el tensored with the rank-one exponential of linear coefficient s:
    # phi gains the polar part of s / rho
    w = working_window(el.p, el.p) if window is None else window
    rho = _rho_map(el)
    shift = rho.den.scale(s).divide(rho.num, w).principal_part()
    return ElementaryConnection(el.rho, el.phi + shift, el.reg, rho_source=el.rho_source)


# ---------------------------------------------------------------- germs


class RegularGermData(NamedTuple):
    """A regular germ at a point: nearby-cycle space with automorphism.

    psi holds the full space; phi is the image of T - Id with its induced
    automorphism (eigenvalue-1 blocks shrink by one, size-1 ones vanish),
    and kappa counts the lost dimensions.
    """

    psi: RegularPart

    @property
    def kappa(self) -> int:
        return dim_fixed(self.psi)

    @property
    def phi(self) -> RegularPart:
        out = []
        for eig, size in self.psi.jordan:
            if eig.is_one():
                if size > 1:
                    out.append((eig, size - 1))
            else:
                out.append((eig, size))
        return RegularPart(out)


def fourier_regular(g: RegularGermData, minimal_extension: bool = True) -> RegularPart:
    """Regular part of the transform of a regular germ.

    In minimal-extension mode the unipotent part loses one dimension per
    eigenvalue-1 block; for a plain connection the space is untouched.
    """
    return g.phi if minimal_extension else g.psi


def fourier_s_inf(
    obj: Union[ElementaryConnection, RegularGermData],
    s,
    sign="-",
    window: Optional[int] = None,
    minimal_extension: bool = True,
) -> ElementaryConnection:
    """Transform of a germ at the finite point s, viewed at infinity.

    Twists the origin transform by the rank-one exponential with linear
    coefficient sign * s; any s != 0 forces slope exactly one.  A regular
    germ of trivial transform yields a rank-zero connection.
    """
    sgn = _sign(sign)
    s = FieldElement.from_any(s)
    if isinstance(obj, RegularGermData):
        reg = fourier_regular(obj, minimal_extension=minimal_extension)
        coeff = s if sgn > 0 else -s
        phi = LaurentSeries({-1: coeff}, var=THETA)
        return ElementaryConnection(LaurentSeries.identity(THETA), phi, reg)
    base = fourier_0_inf(obj, sign, window=window)
    if s.is_zero():
        return base
    return _slope_one_twist(base, s if sgn > 0 else -s, window)


# ------------------------------------------------------------- assembly


class _InfinityType:
    """Sentinel for the point at infinity on the source line."""

    __slots__ = ()

    def __repr__(self):
        return "infinity"


INFINITY = _InfinityType()


class SingularityDatum:
    """Formal data of one singular point of a connection on the line.

    A finite point carries irregular elementary summands plus a regular
    germ.  The point at infinity instead carries its summands split by
    slope: above one, exactly one (as pairs of a linear coefficient with
    residual data), and below one with a separate regular part.
    """

    __slots__ = (
        "location",
        "summands",
        "germ",
        "slope_gt1",
        "slope_eq1",
        "slope_lt1",
        "lt1_regular",
    )

    def __init__(
        self,
        location,
        summands: Iterable[ElementaryConnection] = (),
        germ: Optional[RegularGermData] = None,
        slope_gt1: Iterable[ElementaryConnection] = (),
        slope_eq1: Iterable = (),
        slope_lt1: Iterable[ElementaryConnection] = (),
        lt1_regular: Optional[RegularPart] = None,
    ):
        at_inf = location is INFINITY
        self.location = location if at_inf else FieldElement.from_any(location)
        self.summands = tuple(summands)
        self.germ = germ
        self.slope_gt1 = tuple(slope_gt1)
        self.slope_eq1 = tuple(
            (FieldElement.from_any(shat), tuple(els), reg if reg is not None else RegularPart())
            for shat, els, reg in slope_eq1
        )
        self.slope_lt1 = tuple(slope_lt1)
        self.lt1_regular = lt1_regular
        if at_inf:
            if self.summands or self.germ is not None:
                raise DomainError("finite-point fields are not allowed at infinity")
            for el in self.slope_gt1:
                if el.slope <= 1:
                    raise DomainError(
                        f"slope split at infinity is inconsistent: slope {el.slope} in the >1 part"
                    )
            for shat, els, _ in self.slope_eq1:
                if shat.is_zero():
                    raise DomainError("slope-one entries need a nonzero linear coefficient")
                for el in els:
                    if el.slope >= 1:
                        raise DomainError(
                            "residual data of a slope-one entry must have slope < 1"
                        )
            for el in self.slope_lt1:
                if not 0 < el.slope < 1:
                    raise DomainError(
                        f"slope split at infinity is inconsistent: slope {el.slope} in the <1 part"
                    )
        else:
            if self.slope_gt1 or self.slope_eq1 or self.slope_lt1 or self.lt1_regular:
                raise DomainError("slope-split fields apply only at infinity")
            for el in self.summands:
                if el.q == 0:
                    raise DomainError(
                        "regular data at a finite point belongs in the germ field"
                    )

    def is_infinity(self) -> bool:
        return self.location is INFINITY

    def _pieces(self):
        """Pairs (piece, shat) before any slope-one twist: shat is the linear
        coefficient a slope-one piece is still to be twisted by, else None.
        A regular part of positive rank comes as one piece with p = 1.
        """
        if self.is_infinity():
            groups = [(self.slope_gt1, None, None)]
            groups += [(els, reg, shat) for shat, els, reg in self.slope_eq1]
            groups.append((self.slope_lt1, self.lt1_regular, None))
        else:
            germ = self.germ.psi if self.germ is not None else None
            groups = [(self.summands, germ, None)]
        for els, reg, shat in groups:
            for el in els:
                yield el, shat
            if reg is not None and reg.rank:
                yield regular_connection(reg), shat

    def full_connection(self) -> FormalConnection:
        """Everything at this point as one direct sum (germ included)."""
        return FormalConnection(
            [el if shat is None else _slope_one_twist(el, shat) for el, shat in self._pieces()]
        )

    def __repr__(self):
        where = "infinity" if self.is_infinity() else repr(self.location)
        return f"SingularityDatum({where})"


def _split_points(data: Sequence[SingularityDatum]):
    """Separate finite data from the (at most one) datum at infinity."""
    finite = []
    at_inf: Optional[SingularityDatum] = None
    seen = {}
    for pos, datum in enumerate(data, start=1):
        if datum.location in seen:  # name the clash by 1-based input positions
            first = seen[datum.location]
            raise DomainError(f"singularity data {first} and {pos} share one location")
        seen[datum.location] = pos
        if datum.is_infinity():
            at_inf = datum
        else:
            finite.append(datum)
    return finite, at_inf


def stationary_phase_at_infinity(
    data: Sequence[SingularityDatum],
    sign="-",
    minimal_extension: bool = True,
    window: Optional[int] = None,
) -> FormalConnection:
    """Canonical germ at infinity of the transform, assembled point by point.

    Every finite singularity contributes through fourier_s_inf; the part
    of slope > 1 at infinity contributes through fourier_inf_inf; nothing
    else reaches infinity on the transformed side.  The input is assumed
    equal to its minimal extension.
    """
    _split_points(data)
    pieces = []
    for datum in data:
        if datum.is_infinity():
            for el in datum.slope_gt1:
                pieces.append(fourier_inf_inf(el, sign, window=window))
        else:
            for el in datum.summands:
                pieces.append(fourier_s_inf(el, datum.location, sign, window=window))
            if datum.germ is not None:
                tr = fourier_s_inf(
                    datum.germ,
                    datum.location,
                    sign,
                    minimal_extension=minimal_extension,
                )
                if tr.rank:
                    pieces.append(tr)
    return canonicalize(FormalConnection(pieces))
