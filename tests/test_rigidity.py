"""Centralizer counts, the minimal-extension defect, and the global index."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localfourier.connection import (
    RegularPart,
    elementary,
    is_isomorphic,
)
from localfourier.errors import DomainError, InternalError
from localfourier.exactfield import zeta
from localfourier.fourier import (
    INFINITY,
    RegularGermData,
    SingularityDatum,
    fourier_0_inf,
    fourier_inf_inf,
    stationary_phase_at_infinity,
)
from localfourier.rigidity import (
    _z_sum,
    dim_centralizer,
    dim_fixed,
    rigidity_breakdown,
    rigidity_index,
    z_zhat_discrepancy,
    zmin_defect,
)
from localfourier.series import LaurentSeries as S

u = S.identity()


def germ(*blocks):
    return RegularGermData(RegularPart(list(blocks)))


# -- centralizer dimensions against an independent matrix computation ------

def _commutant_dim(blocks):
    # nullity of X |-> JX - XJ, computed on the vectorized equation
    import sympy

    cells = [sympy.jordan_cell(sympy.Rational(e), s) for e, s in blocks]
    J = sympy.Matrix(sympy.BlockDiagMatrix(*cells))
    n = J.rows
    op = sympy.kronecker_product(sympy.eye(n), J) - sympy.kronecker_product(
        J.T, sympy.eye(n)
    )
    return n * n - op.rank()


@pytest.mark.parametrize(
    "blocks",
    [
        [(1, 2)],
        [(1, 2), (1, 1)],
        [(1, 1), (2, 1)],
        [(2, 3), (2, 2)],
        [(1, 1), (1, 1), (2, 2)],
        [(3, 2), (3, 2), (3, 1)],
        [(1, 4)],
        [(2, 1), (3, 1), (5, 1)],
    ],
)
def test_dim_centralizer_matches_matrix_commutant(blocks):
    assert dim_centralizer(RegularPart(blocks)) == _commutant_dim(blocks)


def test_dim_fixed_counts_unit_blocks():
    assert dim_fixed(RegularPart([(1, 3)])) == 1
    assert dim_fixed(RegularPart([(2, 2)])) == 0
    assert dim_fixed(RegularPart([(1, 1), (1, 2), (2, 1)])) == 2


BLOCK_TYPES = [(e, s) for e in (1, 2, 3, 4) for s in (1, 2, 3, 4)]


def _all_small_germs():
    for k in range(5):
        for combo in itertools.combinations_with_replacement(BLOCK_TYPES, k):
            yield combo


def test_centralizer_lower_bound_exhaustive():
    # dim Z >= rank, equality exactly when no two blocks share an
    # eigenvalue (a single block's commutant is as big as the block)
    for combo in _all_small_germs():
        j = RegularPart(list(combo))
        dz = dim_centralizer(j)
        assert dz >= j.rank
        eigs = [e for e, _ in combo]
        assert (dz == j.rank) == (len(set(eigs)) == len(eigs))


# -- minimal-extension defect ----------------------------------------------

def test_zmin_defect_frozen():
    assert zmin_defect(germ((1, 2))) == 1
    assert zmin_defect(germ((1, 1), (1, 1))) == 4
    assert zmin_defect(germ((5, 3))) == 0
    assert zmin_defect(germ()) == 0


def test_zmin_defect_exhaustive_small_germs():
    for combo in _all_small_germs():
        g = germ(*combo)
        assert zmin_defect(g) == g.kappa ** 2


def test_zmin_defect_rejects_inconsistent_data():
    class Broken(RegularGermData):
        @property
        def phi(self):
            return self.psi

    with pytest.raises(InternalError):
        zmin_defect(Broken(RegularPart([(1, 2)])))


# -- rigidity index --------------------------------------------------------

def test_rank_one_two_points_gives_two():
    el = elementary(u, S({-1: 1}), RegularPart([(1, 1)]))
    data = [
        SingularityDatum(0, summands=[el], germ=germ()),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(1, 1)])),
    ]
    assert rigidity_index(data) == 2


def test_rank_one_any_point_count_gives_two():
    finite = [
        SingularityDatum(0, germ=germ((2, 1))),
        SingularityDatum(1, summands=[elementary(u, S({-1: 5}), RegularPart([(3, 1)]))]),
        SingularityDatum(-1, germ=germ((Fraction(1, 3), 1))),
    ]
    tails = [
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(7, 1)])),
        SingularityDatum(INFINITY, slope_eq1=[(2, (), RegularPart([(5, 1)]))]),
    ]
    assert rigidity_index(finite[:2] + [tails[0]]) == 2
    assert rigidity_index(finite + [tails[1]]) == 2


def test_regular_rank_two_three_points():
    data = [
        SingularityDatum(0, germ=germ((2, 1), (3, 1))),
        SingularityDatum(1, germ=germ((5, 1), (7, 1))),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(11, 1), (13, 1)])),
    ]
    b = rigidity_breakdown(data)
    assert b["chi_top"] == -1
    assert b["euler_term"] == -4
    assert all(row["end_irregularity"] == 0 for row in b["rows"])
    assert [row["centralizer_term"] for row in b["rows"]] == [2, 2, 2]
    assert b["index"] == 2


def test_rigidity_with_slope_one_residual_piece():
    # slope-one entry carrying a ramified residual summand; the twisted
    # piece keeps p = 2 and picks up End irregularity 3 at infinity
    eq1el = elementary(S.monomial(2), S({-1: 3}), RegularPart([(3, 1)]))
    data = [
        SingularityDatum(0, germ=germ((2, 1), (3, 1), (5, 1))),
        SingularityDatum(INFINITY, slope_eq1=[(1, (eq1el,), RegularPart([(2, 1)]))]),
    ]
    b = rigidity_breakdown(data)
    assert [row["end_irregularity"] for row in b["rows"]] == [0, 3]
    assert [row["centralizer_term"] for row in b["rows"]] == [3, 3]
    assert b["index"] == 9


def test_rigidity_refuses_non_minimal_pieces():
    reducible = elementary(S.monomial(2), S({-2: 1}), RegularPart([(2, 1)]))
    with pytest.raises(DomainError):
        rigidity_index([SingularityDatum(0, summands=[reducible])])


def test_rigidity_refuses_rank_mismatch():
    data = [
        SingularityDatum(0, germ=germ((2, 1))),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(7, 1), (2, 1)])),
    ]
    with pytest.raises(DomainError):
        rigidity_index(data)


def test_rigidity_refuses_degenerate_inputs():
    with pytest.raises(DomainError):
        rigidity_index([])
    dup = SingularityDatum(INFINITY, lt1_regular=RegularPart([(2, 1)]))
    with pytest.raises(DomainError):
        rigidity_index([dup, dup])
    a = SingularityDatum(3, germ=germ((2, 1)))
    with pytest.raises(DomainError):
        rigidity_index([a, SingularityDatum(3, germ=germ((2, 1)))])
    with pytest.raises(DomainError, match="genus"):
        rigidity_index([a], genus=-5)


# -- transform pairs -------------------------------------------------------

def _exponential_pair():
    # rank-one germ with a first-order pole at 0 against its rank-two
    # transform, which is steepened to slope one half at infinity
    el = elementary(u, S({-1: 1}), RegularPart([(1, 1)]))
    data = [
        SingularityDatum(0, summands=[el], germ=germ()),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(1, 1)])),
    ]
    tr = fourier_0_inf(el, sign="-")
    data_hat = [
        SingularityDatum(0, germ=germ((1, 2))),
        SingularityDatum(INFINITY, slope_lt1=[tr], lt1_regular=RegularPart([])),
    ]
    return data, data_hat


def test_discrepancy_vanishes_on_exponential_pair():
    data, data_hat = _exponential_pair()
    assert z_zhat_discrepancy(data, data_hat) == 0


def test_exponential_pair_matches_assembly():
    data, data_hat = _exponential_pair()
    asm = stationary_phase_at_infinity(data, sign="-")
    assert is_isomorphic(data_hat[1].full_connection(), asm)


def test_verbatim_index_on_ramified_pair():
    # the p-weighted centralizer convention values the two sides of this
    # pair differently: a ramified piece is charged p * dim Z even though
    # the fixed space of the pushed-forward automorphism is smaller, so
    # equality across a transform is only meaningful for unramified data
    data, data_hat = _exponential_pair()
    assert rigidity_index(data) == 2
    assert rigidity_index(data_hat) == 5


def test_index_agrees_on_unramified_pair():
    data = [
        SingularityDatum(0, germ=germ((2, 1))),
        SingularityDatum(INFINITY, slope_eq1=[(1, (), RegularPart([(2, 1)]))]),
    ]
    data_hat = [
        SingularityDatum(1, germ=germ((2, 1))),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(2, 1)])),
    ]
    assert z_zhat_discrepancy(data, data_hat) == 0
    assert rigidity_index(data) == rigidity_index(data_hat) == 2


def test_discrepancy_with_steep_part_and_germ():
    el = elementary(u, S({-2: 3}), RegularPart([(1, 1), (1, 1)]))
    steep = elementary(u, S({-3: 1}), RegularPart([(7, 1)]))
    data = [
        SingularityDatum(0, summands=[el], germ=germ((1, 2), (5, 1))),
        SingularityDatum(INFINITY, slope_gt1=[steep]),
    ]
    data_hat = [
        SingularityDatum(
            INFINITY,
            slope_gt1=[fourier_inf_inf(steep, sign="+")],
            slope_lt1=[fourier_0_inf(el, sign="-")],
            lt1_regular=RegularPart([(1, 1), (5, 1)]),
        ),
    ]
    assert z_zhat_discrepancy(data, data_hat) == 0


def test_discrepancy_reduction_for_regular_data():
    # with no irregular summands anywhere the comparison reduces to the
    # difference of squared fixed-space dimensions
    data = [
        SingularityDatum(0, germ=germ((1, 2))),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(2, 1)])),
    ]
    data_hat = [SingularityDatum(5, germ=germ((4, 1)))]
    z, z_hat = 3, 1
    kk, kk_hat = 1, 0
    assert z_zhat_discrepancy(data, data_hat) == (z - z_hat) - (kk - kk_hat)


def test_discrepancy_detects_wrong_vanishing_count():
    data, _ = _exponential_pair()
    tr = fourier_0_inf(data[0].summands[0], sign="-")
    wrong = [
        SingularityDatum(0, germ=germ((1, 1), (1, 1))),
        SingularityDatum(INFINITY, slope_lt1=[tr]),
    ]
    assert z_zhat_discrepancy(data, wrong) == 1


def test_discrepancy_checks_slope_bookkeeping():
    data, data_hat = _exponential_pair()
    off_ramification = [
        data_hat[0],
        SingularityDatum(
            INFINITY,
            slope_lt1=[elementary(S.monomial(3), S({-1: 2}), RegularPart([(-1, 1)]))],
        ),
    ]
    with pytest.raises(DomainError):
        z_zhat_discrepancy(data, off_ramification)
    with pytest.raises(DomainError):
        z_zhat_discrepancy(data, [data_hat[0]])
    steep = elementary(u, S({-3: 1}), RegularPart([(7, 1)]))
    with_steep = [SingularityDatum(INFINITY, slope_gt1=[steep])]
    with pytest.raises(DomainError):
        z_zhat_discrepancy(with_steep, [SingularityDatum(INFINITY)])


def test_discrepancy_steep_parts_only():
    steep = elementary(u, S({-3: 1}), RegularPart([(7, 1)]))
    data = [SingularityDatum(INFINITY, slope_gt1=[steep])]
    data_hat = [SingularityDatum(INFINITY, slope_gt1=[fourier_inf_inf(steep, sign="+")])]
    assert z_zhat_discrepancy(data, data_hat) == 0


# -- randomized coherence --------------------------------------------------

@st.composite
def small_germ(draw):
    blocks = draw(
        st.lists(
            st.tuples(st.sampled_from([1, 2, 3]), st.integers(1, 3)),
            min_size=0,
            max_size=3,
        )
    )
    return germ(*blocks)


@given(small_germ())
@settings(max_examples=60, deadline=None)
def test_zmin_defect_random(g):
    assert zmin_defect(g) == g.kappa ** 2


@given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 4]), st.integers(1, 3)),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_shrink_preserves_non_unit_classes(blocks):
    g = germ(*blocks)
    kept = sorted((e, s) for e, s in blocks if e != 1)
    shrunk = sorted(
        (int(e.as_rational()), s) for e, s in g.phi.jordan if not e.is_one()
    )
    assert kept == shrunk
    assert g.phi.rank == g.psi.rank - sum(1 for e, _ in blocks if e == 1)


# -- the centralizer count against a walk over every field ------------------

def _ref_z_sum(datum):
    # the per-field walk _z_sum replaced, kept as the reference
    total = 0
    if datum.is_infinity():
        for el in datum.slope_gt1:
            total += el.p * dim_centralizer(el.reg)
        for _, els, reg in datum.slope_eq1:
            total += dim_centralizer(reg)
            for el in els:
                total += el.p * dim_centralizer(el.reg)
        for el in datum.slope_lt1:
            total += el.p * dim_centralizer(el.reg)
        if datum.lt1_regular is not None:
            total += dim_centralizer(datum.lt1_regular)
    else:
        for el in datum.summands:
            total += el.p * dim_centralizer(el.reg)
        if datum.germ is not None:
            total += dim_centralizer(datum.germ.psi)
    return total


_eigenvalue = st.sampled_from([1, 1, -1, 2, zeta(3)])


@st.composite
def _jordan(draw, min_size=0):
    return RegularPart(
        draw(st.lists(st.tuples(_eigenvalue, st.integers(1, 3)), min_size=min_size, max_size=3))
    )


@st.composite
def _piece(draw, slope):
    """An El whose slope q/p satisfies slope(q, p); rho may be truncated or not monic."""
    p, q = draw(
        st.tuples(st.integers(1, 3), st.integers(0, 5)).filter(lambda pq: slope(pq[1], pq[0]))
    )
    rho = draw(st.sampled_from([S.monomial(p), S({p: 1}, p + 1), S({p: 2, p + 1: 1})]))
    phi = S({-q: draw(st.sampled_from([1, -2, zeta(3)]))}) if q else S.zero()
    return elementary(rho, phi, draw(_jordan()))


@st.composite
def _datum(draw):
    if draw(st.booleans()):
        return SingularityDatum(
            draw(st.sampled_from([0, 1, -2])),
            summands=draw(st.lists(_piece(lambda q, p: q > 0), max_size=3)),
            germ=draw(st.none() | _jordan().map(RegularGermData)),
        )
    eq1 = st.tuples(
        st.sampled_from([1, -1, zeta(3)]),
        st.lists(_piece(lambda q, p: q < p), max_size=2),
        st.none() | st.just(RegularPart()) | _jordan(min_size=1),
    )
    return SingularityDatum(
        INFINITY,
        slope_gt1=draw(st.lists(_piece(lambda q, p: q > p), max_size=2)),
        slope_eq1=draw(st.lists(eq1, max_size=2)),
        slope_lt1=draw(st.lists(_piece(lambda q, p: 0 < q < p), max_size=2)),
        lt1_regular=draw(st.none() | _jordan()),
    )


@given(_datum())
@settings(max_examples=150, deadline=None)
def test_z_sum_matches_the_walk_over_every_field(datum):
    assert _z_sum(datum) == _ref_z_sum(datum)


def test_discrepancy_reads_a_truncated_slope_one_piece_untwisted():
    # twisting this piece by shat would need rho to more precision than u^2 + O(u^3)
    trunc = elementary(S({2: 1}, 3), S({-1: 1}))
    at_inf = SingularityDatum(INFINITY, slope_eq1=[(1, (trunc,), None)])
    at_zero = SingularityDatum(0, summands=[elementary(u, S({-1: 1}))])
    assert z_zhat_discrepancy([at_inf], [at_zero]) == 0
    assert z_zhat_discrepancy([at_zero], [at_inf]) == 0
