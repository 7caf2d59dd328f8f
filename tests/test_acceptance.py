"""End-to-end guarantees, one test per shipped behavior.

Every test here pins an advertised property of the library or the CLI at
exact tolerance: closed-form transform outputs, the independent operator
route, conservation laws on a large random population, round trips,
determinant compatibility, structural dimension counts, isomorphism
classification, rigidity bookkeeping, and the text format.  All checks
are equality checks over the exact coefficient field; nothing is
approximate.
"""

from __future__ import annotations

import functools
import gc
import io
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import localfourier
from localfourier import cli
from localfourier.connection import (
    ElementaryConnection,
    FormalConnection,
    RegularPart,
    canonicalize,
    elementary,
    is_isomorphic,
    normalize_ramification,
    rotate_exponential,
)
from localfourier.dsl import parse, print_canonical, relabel_variable, render_connection
from localfourier.errors import DomainError
from localfourier.exactfield import ONE, exp2pi, rational, zeta
from localfourier.fourier import (
    INFINITY,
    RegularGermData,
    SingularityDatum,
    fourier_0_inf,
    fourier_inf_0,
    fourier_inf_inf,
)
from localfourier.oracle import oracle_check
from localfourier.rigidity import (
    rigidity_breakdown,
    rigidity_index,
    z_zhat_discrepancy,
    zmin_defect,
)
from localfourier.series import LaurentSeries
from localfourier.structure import determinant, hom, jordan_tensor, tensor

S = LaurentSeries
CORPUS = Path(__file__).parent / "corpus"

GOLDEN_A = [rational(1), rational(2), rational("-3/2"), zeta(3)]
GOLDEN_A_TEXT = ["1", "2", "(-3/2)", "(zeta(3))"]
GOLDEN_Q = range(1, 6)


def golden_expected(a, q: int):
    # El(-u^(q+1)/(qa), (q+1) a u^-q, [((-1)^q : 1)])
    rho = S.monomial(q + 1, -(ONE / (rational(q) * a)))
    phi = S({-q: a * rational(q + 1)})
    sign = rational((-1) ** q)
    return ElementaryConnection(rho, phi, RegularPart([(sign, 1)]))


# -- shared randomized population ------------------------------------------

COEFF_POOL = [
    rational(1),
    rational(-1),
    rational(2),
    rational("1/2"),
    rational("-3/2"),
    zeta(3),
    zeta(4),
    zeta(6),
    zeta(3) * rational(2),
    zeta(4) + rational(1),
]

POPULATION_SIZE = 500


@functools.lru_cache(maxsize=1)
def population() -> tuple:
    """Deterministic sample of elementary connections, p<=4 q<=6 r<=3."""
    rng = random.Random(52016)
    out = []
    for _ in range(POPULATION_SIZE):
        p = rng.randint(1, 4)
        q = rng.randint(1, 6)
        coeffs = {-q: rng.choice(COEFF_POOL)}
        for _ in range(rng.randint(0, 2)):
            e = rng.randint(-q, -1)
            coeffs[e] = coeffs.get(e, rational(0)) + rng.choice(COEFF_POOL)
        if coeffs[-q].is_zero():
            coeffs[-q] = rational(1)
        blocks = [
            (rng.choice(COEFF_POOL), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        ]
        while sum(b for _, b in blocks) > 3:
            blocks = blocks[:-1]
        out.append(
            ElementaryConnection(S.monomial(p), S(coeffs), RegularPart(blocks))
        )
    return tuple(out)


@functools.lru_cache(maxsize=1)
def population_transforms() -> tuple:
    return tuple(fourier_0_inf(el, "-") for el in population())


def run_cli(argv, monkeypatch, capsys, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- 1: closed-form family, exact -------------------------------------------


def test_golden_family_is_exact(monkeypatch, capsys):
    for a, a_text in zip(GOLDEN_A, GOLDEN_A_TEXT):
        for q in GOLDEN_Q:
            el = elementary(S.identity(), S({-q: a}), RegularPart.trivial(1))
            tr = fourier_0_inf(el, "-")
            want = golden_expected(a, q)
            assert tr.rho == want.rho
            assert tr.phi == want.phi
            assert tr.reg == want.reg
            got_c = canonicalize(FormalConnection([tr]))
            want_c = canonicalize(FormalConnection([want]))
            assert got_c == want_c

            text_in = f"El(rho=u, phi={a_text}*u^-{q}, R=[(1:1)])"
            code, out, err = run_cli(
                ["fourier", "--kind", "0inf", "--sign", "minus", "-"],
                monkeypatch,
                capsys,
                stdin=text_in,
            )
            assert code == 0 and err == ""
            want_text = render_connection(
                relabel_variable(FormalConnection([want]), "u")
            )
            assert out.strip() == want_text


# -- 2: independent operator route ------------------------------------------


def test_operator_route_confirms_the_family():
    for a in (rational(1), rational(2), rational("-3/2")):
        for q in GOLDEN_Q:
            report = oracle_check(a, q)
            assert [s.name for s in report.stages] == [
                "slope",
                "ramification",
                "twist",
                "residue",
                "monodromy",
            ]
            # the same quantities straight off the closed form
            tr = fourier_0_inf(
                elementary(S.identity(), S({-q: a}), RegularPart.trivial(1)), "-"
            )
            assert tr.slope == Fraction(q, q + 1)
            assert tr.p == q + 1
            assert tr.phi.coefficient(-q) == a * rational(q + 1)
            assert tr.reg.eigenvalue_product() == rational((-1) ** q)
            assert exp2pi(Fraction(q + 2, 2)) == rational((-1) ** q)


# -- 3: conservation laws on the random population ---------------------------


def test_conservation_laws_on_random_population():
    pop = population()
    assert len(pop) >= 500
    shallow = steep = critical = 0
    for el, out in zip(pop, population_transforms()):
        assert out.p == el.p + el.q and out.q == el.q and out.r == el.r
        assert out.irregularity == el.irregularity
        assert out.rank == el.rank + el.irregularity
        assert out.slope == Fraction(el.q, el.p + el.q)

        if el.q < el.p:
            shallow += 1
            back = fourier_inf_0(el, "+")
            assert back.p == el.p - el.q and back.q == el.q and back.r == el.r
            assert back.irregularity == el.irregularity
            assert back.rank == el.rank - el.irregularity
        else:
            with pytest.raises(DomainError):
                fourier_inf_0(el, "+")

        if el.q > el.p:
            steep += 1
            up = fourier_inf_inf(el, "+")
            assert up.p == el.q - el.p and up.q == el.q and up.r == el.r
            assert up.irregularity == el.irregularity
            assert up.rank == el.irregularity - el.rank
        else:
            with pytest.raises(DomainError):
                fourier_inf_inf(el, "+")
        if el.q == el.p:
            critical += 1
    # the population must actually exercise every branch
    assert shallow > 50 and steep > 50 and critical > 20
    with pytest.raises(DomainError):
        fourier_0_inf(
            elementary(S.identity(), S.zero(), RegularPart([(2, 1)])), "-"
        )


# -- 4: round trips ----------------------------------------------------------


def test_transforms_round_trip():
    checked_down = checked_steep = 0
    for el, tr in zip(population(), population_transforms()):
        back = fourier_inf_0(tr, "+")
        assert is_isomorphic(FormalConnection([back]), FormalConnection([el]))
        checked_down += 1
        if el.q > el.p:
            twice = fourier_inf_inf(fourier_inf_inf(el, "+"), "-")
            assert is_isomorphic(
                FormalConnection([twice]), FormalConnection([el])
            )
            checked_steep += 1
    assert checked_down >= 500 and checked_steep > 50


# -- 5: determinant compatibility -------------------------------------------


def test_determinant_tracks_the_transform():
    below_one = 0
    for el, tr in zip(population(), population_transforms()):
        det_tr = determinant(tr)
        det_in = determinant(el)
        # the transform has slope below one, so its determinant is regular,
        # with the same monodromy as the regular factor of the input's
        assert det_tr.phi.is_exactly_zero()
        assert det_tr.reg.jordan[0][0] == det_in.reg.jordan[0][0]
        if el.q < el.p:
            below_one += 1
            assert det_in.phi.is_exactly_zero()
    assert below_one > 50


# -- 6: tensor and Hom dimension counts -------------------------------------


def test_tensor_and_hom_dimension_counts():
    sympy = pytest.importorskip("sympy")

    small = [el for el in population() if el.p <= 3][:30]
    for a, b in zip(small[::2], small[1::2]):
        prod = tensor(a, b)
        assert sum(s.rank for s in prod) == a.rank * b.rank

    def sympy_block_sizes(mat):
        n = mat.shape[0]
        sizes, cur = [], 1
        for i in range(n - 1):
            if mat[i, i + 1] != 0:
                cur += 1
            else:
                sizes.append(cur)
                cur = 1
        sizes.append(cur)
        return sorted(sizes)

    for a_size in range(1, 5):
        for b_size in range(a_size, 5):
            for lam, mu in [(1, 1), (2, 3), (-1, 2)]:
                left = sympy.jordan_cell(sympy.Integer(lam), a_size)
                right = sympy.jordan_cell(sympy.Integer(mu), b_size)
                kron = sympy.Matrix(sympy.kronecker_product(left, right))
                jf = kron.jordan_form(calc_transform=False)
                got = jordan_tensor(
                    RegularPart([(lam, a_size)]), RegularPart([(mu, b_size)])
                )
                assert all(
                    eig == rational(lam) * rational(mu) for eig, _ in got.jordan
                )
                assert sorted(s for _, s in got.jordan) == sympy_block_sizes(jf)

    minimal = [
        elementary(S.identity(), S({-1: rational(3)}), RegularPart([(2, 1)])),
        elementary(S.monomial(2), S({-1: rational(1)}), RegularPart([(1, 2)])),
        elementary(
            S.monomial(2), S({-3: rational(1)}), RegularPart([(1, 1), (2, 1)])
        ),
        elementary(
            S.monomial(3),
            S({-2: zeta(3)}),
            RegularPart([(2, 1), (5, 1), (7, 1)]),
        ),
    ]
    for el in minimal:
        h = hom(el, el)
        assert h.rank == el.rank**2
        regular_rank = sum(s.rank for s in h if s.is_regular())
        assert regular_rank == el.p * el.r**2


# -- 7: isomorphism classification and canonical form ------------------------


def test_isomorphism_classification_and_canonical_form():
    for p in (2, 3, 4):
        phi = S({-2: rational(1), -1: rational("1/2")})
        el = elementary(S.monomial(p), phi, RegularPart([(2, 1)]))
        for k in range(p):
            rotated = elementary(
                S.monomial(p),
                rotate_exponential(phi, p, k),
                RegularPart([(2, 1)]),
            )
            assert is_isomorphic(
                FormalConnection([el]), FormalConnection([rotated])
            )
        bumped = elementary(
            S.monomial(p), S({-2: rational(2), -1: rational("1/2")}),
            RegularPart([(2, 1)]),
        )
        assert not is_isomorphic(
            FormalConnection([el]), FormalConnection([bumped])
        )

    for tr in population_transforms()[:25]:
        once = canonicalize(FormalConnection([tr]))
        assert canonicalize(once) == once

    for p, q in [(1, 1), (2, 3), (3, 2)]:
        rho = S({p: rational(1), p + 1: rational(1)})  # u^p (1 + u)
        el = elementary(rho, S({-q: rational(2)}), RegularPart([(3, 1)]))
        left = fourier_0_inf(normalize_ramification(el), "-")
        right = normalize_ramification(fourier_0_inf(el, "-"))
        assert is_isomorphic(
            FormalConnection([left]), FormalConnection([right])
        )


# -- 8: rigidity bookkeeping -------------------------------------------------


def germ(*blocks) -> RegularGermData:
    return RegularGermData(RegularPart(list(blocks)))


def test_rigidity_counts_and_transform_consistency():
    u = S.identity()
    finite = [
        SingularityDatum(0, germ=germ((2, 1))),
        SingularityDatum(
            1, summands=[elementary(u, S({-1: 5}), RegularPart([(3, 1)]))]
        ),
        SingularityDatum(-1, germ=germ((Fraction(1, 3), 1))),
    ]
    tail = SingularityDatum(INFINITY, lt1_regular=RegularPart([(7, 1)]))
    for count in (1, 2, 3):
        assert rigidity_index(finite[:count] + [tail]) == 2

    generic = [
        SingularityDatum(0, germ=germ((2, 1), (3, 1))),
        SingularityDatum(1, germ=germ((5, 1), (7, 1))),
        SingularityDatum(INFINITY, lt1_regular=RegularPart([(11, 1), (13, 1)])),
    ]
    assert rigidity_breakdown(generic)["index"] == 2

    block_types = [(e, s) for e in (1, 2, 3, 4) for s in (1, 2, 3, 4)]
    for k in range(5):
        for combo in itertools.combinations_with_replacement(block_types, k):
            g = germ(*combo)
            assert zmin_defect(g) == g.kappa**2

    # pairs built from actual transform outputs must balance exactly
    for a, q in [(rational(1), 1), (rational(2), 2)]:
        el = elementary(u, S({-q: a}), RegularPart([(1, 1)]))
        tr = fourier_0_inf(el, sign="-")
        data = [
            SingularityDatum(0, summands=[el], germ=germ()),
            SingularityDatum(INFINITY, lt1_regular=RegularPart([(1, 1)])),
        ]
        data_hat = [
            SingularityDatum(0, germ=germ((1, 2))),
            SingularityDatum(
                INFINITY, slope_lt1=[tr], lt1_regular=RegularPart([])
            ),
        ]
        assert z_zhat_discrepancy(data, data_hat) == 0

    steep = elementary(u, S({-3: 1}), RegularPart([(7, 1)]))
    steep_pair = (
        [SingularityDatum(INFINITY, slope_gt1=[steep])],
        [
            SingularityDatum(
                INFINITY, slope_gt1=[fourier_inf_inf(steep, sign="+")]
            )
        ],
    )
    assert z_zhat_discrepancy(*steep_pair) == 0

    mixed = elementary(u, S({-2: 3}), RegularPart([(1, 1), (1, 1)]))
    data = [
        SingularityDatum(0, summands=[mixed], germ=germ((1, 2), (5, 1))),
        SingularityDatum(INFINITY, slope_gt1=[steep]),
    ]
    data_hat = [
        SingularityDatum(
            INFINITY,
            slope_gt1=[fourier_inf_inf(steep, sign="+")],
            slope_lt1=[fourier_0_inf(mixed, sign="-")],
            lt1_regular=RegularPart([(1, 1), (5, 1)]),
        ),
    ]
    assert z_zhat_discrepancy(data, data_hat) == 0


# -- 9: text format round trip and error locations ---------------------------


def test_text_format_round_trip_and_error_locations(monkeypatch, capsys):
    valid = sorted((CORPUS / "valid").glob("*.conn"))
    assert len(valid) >= 30
    for path in valid:
        doc = parse(path.read_text())
        printed = print_canonical(doc)
        again = parse(printed)
        assert print_canonical(again) == printed

    malformed = sorted((CORPUS / "malformed").glob("*.conn"))
    assert len(malformed) >= 10
    for path in malformed:
        code, out, err = run_cli(["canon", str(path)], monkeypatch, capsys)
        assert code == 2
        assert re.search(r"\d+:\d+", err), err


# -- 10: bounded memory ------------------------------------------------------


def test_library_holds_no_memory_across_calls():
    # after a warm-up, repeated transform / canonicalize / isomorphism calls
    # on freshly built inputs leave no allocation held by library code.  The
    # inputs reuse the cyclotomic orders of the warm-up: the per-order tables
    # (_zeta_powers, _euler_phi) add one entry for each new order by design
    # (unreachable cycles are collected before each snapshot)
    specs = [
        (1, {-1: rational(2)}, [(3, 1)]),
        (2, {-3: zeta(3), -1: rational("1/2")}, [(zeta(3), 2)]),
        (1, {-2: zeta(4)}, [(-1, 1)]),
        (3, {-2: rational(1), -1: zeta(3)}, [(2, 1)]),
    ]

    def call(i):
        p, phi, reg = specs[i % len(specs)]
        el = elementary(S.monomial(p), S(phi), RegularPart(reg))
        tr = fourier_0_inf(el, "-")
        canonicalize(tr)
        assert is_isomorphic(fourier_inf_0(tr, "+"), el)

    src = [tracemalloc.Filter(True, str(Path(localfourier.__file__).parent / "*"))]
    tracemalloc.start()
    try:
        for i in range(12):
            call(i)
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(src)
        for i in range(48):
            call(i)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(src)
    finally:
        tracemalloc.stop()
    grown = [s for s in after.compare_to(before, "lineno") if s.size_diff > 0]
    assert grown == []
