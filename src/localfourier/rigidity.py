"""Rigidity bookkeeping over collections of singularity data.

The global index computations and the centralizer identity across a
transform pair, built on the Jordan-data algebra (centralizer and
fixed-space dimensions, push-forward along a cyclic cover) that lives next
to RegularPart in the connection module and is re-exported here.  See the
fourier module for the singularity data types.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .connection import (  # dim_fixed and pushforward_monodromy: re-exported
    RegularPart,
    dim_centralizer,
    dim_fixed,
    normalize_ramification,
    pushforward_monodromy,
)
from .errors import DomainError, InternalError
from .fourier import RegularGermData, SingularityDatum, _split_points
from .structure import hom


def zmin_defect(g: RegularGermData) -> int:
    """How much centralizer dimension the minimal extension removes.

    The full nearby space and its shrunken image differ in centralizer
    dimension by exactly the square of the fixed-space dimension; the
    value is returned after that equality is confirmed.
    """
    defect = dim_centralizer(g.psi) - dim_centralizer(g.phi)
    if defect != g.kappa ** 2:
        raise InternalError(
            "centralizer defect %d does not match the squared fixed-space "
            "dimension %d" % (defect, g.kappa ** 2)
        )
    return defect


def _z_sum(datum: SingularityDatum) -> int:
    """Ramification-weighted centralizer count of one point's Jordan data.

    Every elementary piece contributes p times the centralizer dimension
    of its residual automorphism; regular parts count with weight one.
    The pieces are read before the slope-one twist, which needs a rho
    known to more precision and changes neither p nor the Jordan data.
    """
    return sum(el.p * dim_centralizer(el.reg) for el, _ in datum._pieces())


def _minimal_pieces(datum: SingularityDatum) -> list:
    """Positive-rank pieces of the point, each confirmed minimal.

    Pieces not presented with a pure-power rho are reparametrized first;
    a pair that still descends through a subcover is refused, since the
    index bookkeeping reads p off the presentation.
    """
    pieces = []
    for el in datum.full_connection().summands:
        if el.rank == 0:
            continue
        if not el.is_normalized():
            el = normalize_ramification(el)
        if not el.is_minimal():
            raise DomainError(
                "refined decomposition is not minimal: a degree-%d piece "
                "descends through a subcover" % el.p
            )
        pieces.append(el)
    return pieces


def _end_irregularity(pieces) -> int:
    # irregularity of the full Hom square, pair by pair
    total = 0
    for a in pieces:
        for b in pieces:
            total += hom(a, b).irregularity
    return total


def rigidity_breakdown(data: Sequence[SingularityDatum], genus: int = 0) -> dict:
    """Per-point contributions to the rigidity index, plus totals.

    Rows carry each point's rank, End irregularity and weighted
    centralizer term; the totals block holds the Euler part and the
    final index.
    """
    if not data:
        raise DomainError("rigidity index needs at least one singular point")
    if genus < 0:
        raise DomainError(f"genus must be at least 0, got {genus}")
    _split_points(data)
    rows = []
    rank = None
    for datum in data:
        pieces = _minimal_pieces(datum)
        point_rank = sum(el.rank for el in pieces)
        if rank is None:
            rank = point_rank
        elif point_rank != rank:
            raise DomainError(
                "rank mismatch across singular points (%d vs %d)"
                % (rank, point_rank)
            )
        rows.append(
            {
                "location": datum.location,
                "rank": point_rank,
                "end_irregularity": _end_irregularity(pieces),
                "centralizer_term": _z_sum(datum),
            }
        )
    chi_top = 2 - 2 * genus - len(data)
    euler_term = rank * rank * chi_top
    index = euler_term + sum(
        row["end_irregularity"] + row["centralizer_term"] for row in rows
    )
    return {
        "rank": rank,
        "points": len(data),
        "genus": genus,
        "chi_top": chi_top,
        "euler_term": euler_term,
        "rows": rows,
        "index": index,
    }


def rigidity_index(data: Sequence[SingularityDatum], genus: int = 0) -> int:
    """Index of rigidity of the connection described by the data.

    Sum of r^2 times the Euler characteristic of the punctured curve,
    the End irregularities, and the ramification-weighted centralizer
    dimensions at every point.  Equality of the index across a transform
    pair is meaningful for irreducible inputs; it is exercised as a
    consistency check on unramified data, not asserted in general.
    """
    return rigidity_breakdown(data, genus)["index"]


def _jordan_shape(reg: RegularPart) -> tuple:
    return tuple(sorted(size for _, size in reg.jordan))


def _low_slope_els(datum: Optional[SingularityDatum]) -> list:
    if datum is None:
        return []
    els = list(datum.slope_lt1)
    for _, entry_els, _ in datum.slope_eq1:
        els.extend(entry_els)
    return els


def _match_slopes(predicted, found, what: str):
    """Pair pieces with their counterparts on the other side of a transform.

    predicted holds (piece, ramification its counterpart must have); each
    counterpart in found must also share the pole order and residual data
    of the same block shape and centralizer dimension.
    """

    def keys(pairs):
        return sorted(
            (el.q, p, _jordan_shape(el.reg), dim_centralizer(el.reg)) for el, p in pairs
        )

    if keys(predicted) != keys((el, el.p) for el in found):
        raise DomainError("slope bookkeeping mismatch: " + what)


def z_zhat_discrepancy(
    data: Sequence[SingularityDatum],
    data_hat: Sequence[SingularityDatum],
) -> int:
    """Residual of the centralizer-count identity across a transform pair.

    The difference of the two weighted centralizer sums is compared with
    the combination of fixed-space squares, pole-order-weighted
    centralizer dimensions at finite points, and the (2p - q)-weighted
    terms from the steep part at infinity.  Zero on mutually consistent
    inputs; the slope bookkeeping between the two sides is checked first.
    """
    finite, at_inf = _split_points(data)
    finite_hat, at_inf_hat = _split_points(data_hat)

    _match_slopes(
        [(el, el.p + el.q) for datum in finite for el in datum.summands],
        _low_slope_els(at_inf_hat),
        "finite summands do not correspond to the transform's small-slope "
        "part at infinity",
    )
    _match_slopes(
        [(el, el.p + el.q) for datum in finite_hat for el in datum.summands],
        _low_slope_els(at_inf),
        "the transform's finite summands do not correspond to the "
        "small-slope part at infinity",
    )
    gt1 = list(at_inf.slope_gt1) if at_inf is not None else []
    gt1_hat = list(at_inf_hat.slope_gt1) if at_inf_hat is not None else []
    _match_slopes(
        [(el, el.q - el.p) for el in gt1],
        gt1_hat,
        "the steep parts at infinity do not correspond under p + p' = q",
    )

    lhs = sum(_z_sum(d) for d in data) - sum(_z_sum(d) for d in data_hat)

    def bracket(points):
        total = 0
        for datum in points:
            kappa = datum.germ.kappa if datum.germ is not None else 0
            total += kappa * kappa
            for el in datum.summands:
                total -= el.q * dim_centralizer(el.reg)
        return total

    rhs = bracket(finite) - bracket(finite_hat)
    for el in gt1:
        rhs += (2 * el.p - el.q) * dim_centralizer(el.reg)
    return lhs - rhs
