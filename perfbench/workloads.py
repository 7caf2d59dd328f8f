"""Seeded workloads of the benchmark.

Every workload hands out its operations one cycle at a time.  A cycle
covers a fixed set of strata (shapes, fields, kinds of call) in an order
and with coefficients drawn from the seed, so runs with different seeds
do the same mix of work on different inputs.  No input repeats within a
run, except in ``corpus_cli``, which repeats the test corpus on purpose.

An operation is ``Op(kind, run, check)``: ``run()`` is the timed call into
the library and ``check(result)`` verifies the result exactly, outside the
timed interval, and returns True when it holds.  Checks never depend on
the print order of summands.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd
from pathlib import Path

import localfourier as lf
from localfourier import cli

S = lf.LaurentSeries

WORKLOADS = ("population", "deep_ramification", "structure", "corpus_cli")

# orders of the cyclotomic coefficient fields, with Euler phi of each:
# the powers zeta_n^k, k < phi(n), are linearly independent over Q
_PHI = {1: 1, 3: 2, 4: 2, 6: 2}

_ORACLE_STAGES = ["slope", "ramification", "twist", "residue", "monodromy"]


Op = namedtuple("Op", "kind run check")


class _Seeded:
    """Random draws from the seed, with a record of inputs already used."""

    def __init__(self, seed: int, salt: int):
        self.rng = random.Random(seed * 7919 + salt)
        self.seen = set()

    def fresh(self, draw):
        """Call draw() until it gives a spec not used before in this run."""
        for _ in range(1000):
            spec = draw()
            if spec not in self.seen:
                self.seen.add(spec)
                return spec
        raise RuntimeError("input space exhausted; widen the draw")

    def rat(self, top: int = 9, den: int = 6) -> Fraction:
        return Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, top),
                        self.rng.randint(1, den))

    def scalar_spec(self, n: int, max_terms: int = 2) -> tuple:
        """A nonzero element of Q(zeta_n) as (n, ((k, coeff), ...))."""
        ks = self.rng.sample(range(_PHI[n]), self.rng.randint(1, min(max_terms, _PHI[n])))
        return (n, tuple(sorted((k, self.rat()) for k in ks)))

    def jordan_spec(self, rank: int, n: int, unipotent_share: float = 0.0) -> tuple:
        """Jordan blocks (eigenvalue spec, size) summing to rank."""
        blocks = []
        left = rank
        while left:
            size = self.rng.randint(1, left)
            if self.rng.random() < unipotent_share:
                eig = (1, ((0, Fraction(1)),))
            else:
                eig = self.scalar_spec(n)
            blocks.append((eig, size))
            left -= size
        return tuple(blocks)


def scalar(spec) -> lf.FieldElement:
    n, terms = spec
    out = lf.rational(0)
    for k, c in terms:
        out = out + lf.rational(c) * lf.zeta(n, k)
    return out


def regular_part(blocks) -> lf.RegularPart:
    return lf.RegularPart([(scalar(eig), size) for eig, size in blocks])


def el_from_spec(spec) -> lf.ElementaryConnection:
    """El(u^p, sum c_e u^e, R) from (p, ((e, scalar spec), ...), blocks)."""
    p, phi, blocks = spec
    return lf.ElementaryConnection(
        S.monomial(p), S({e: scalar(c) for e, c in phi}), regular_part(blocks)
    )


def _total(m, attr: str) -> int:
    return sum(getattr(el, attr) for el in m)


def _conserved_0inf(el, tr) -> bool:
    # p^ = p + q, q^ = q, r^ = r, irregularity kept, rank grows by it
    return (
        tr.p == el.p + el.q
        and tr.q == el.q
        and tr.r == el.r
        and tr.irregularity == el.irregularity
        and tr.rank == el.rank + el.irregularity
    )


def _text_round_trip(m) -> bool:
    """parse(render(m)) canonicalizes back to m."""
    m = lf.relabel_variable(m, "u")
    again = lf.parse(lf.render_connection(m)).connection_list()
    return len(again) == 1 and lf.canonicalize(again[0]) == lf.canonicalize(m)


# -- population ----------------------------------------------------------------


class Population:
    """The acceptance-test population: El(u^p, phi, R), p <= 4, q <= 6, r <= 3.

    One operation transforms 0 -> infinity with a drawn sign, canonicalizes,
    transforms back infinity -> 0 and tests isomorphism with the input;
    above slope one it also makes the infinity -> infinity round trip.

    The cost of an operation spans two orders of magnitude, so the median
    of a random sample of a few hundred would swing from run to run.  A
    cycle is therefore one operation per cell of a fixed design: the 24
    (p, q) pairs, each with its own field, number of phi terms and rank r,
    which together cover Q, Q(zeta_3), Q(zeta_4), Q(zeta_6), 1-3 terms and
    r = 1-3.  The seed draws the coefficients, the Jordan blocks and the
    sign.
    """

    CELLS = tuple(
        (p, q, (1, 3, 4, 6)[(p + q) % 4], 1 + (p + 2 * q) % 3, 1 + (2 * p + q) % 3)
        for p in range(1, 5)
        for q in range(1, 7)
    )

    def __init__(self, seed: int):
        self.draw = _Seeded(seed, 1)

    def _coeff(self, n: int):
        d = self.draw
        r = d.rat(top=4, den=3)
        if n == 1:
            return (1, ((0, r),))
        if d.rng.random() < 0.8:
            return (n, ((d.rng.randrange(_PHI[n]), r),))
        return (n, ((0, r), (1, d.rat(top=4, den=3))))

    def _spec(self, p: int, q: int, n: int, terms: int, rank: int):
        d = self.draw
        # the lower terms sit at u^-1, u^-2: where they sit changes the cost
        # of an operation threefold, so it is fixed per cell
        exps = sorted({-q, *range(-1, max(-q, -terms), -1)})
        phi = tuple((e, self._coeff(n)) for e in exps)
        blocks, left = [], rank
        while left:
            size = d.rng.randint(1, min(2, left))
            blocks.append((self._coeff(n), size))
            left -= size
        return (p, phi, tuple(blocks))

    def cycle(self):
        ops = []
        for p, q, n, terms, rank in self.CELLS:
            spec = self.draw.fresh(lambda: self._spec(p, q, n, terms, rank))
            sign = self.draw.rng.choice("+-")
            el = el_from_spec(spec)
            ops.append(Op(f"p{p}q{q}", _population_run(el, sign), _population_check(el)))
        return self.draw.rng.sample(ops, len(ops))


def _population_run(el, sign):
    back_sign = "-" if sign == "+" else "+"

    def run():
        tr = lf.fourier_0_inf(el, sign)
        canon = lf.canonicalize(tr)
        back = lf.fourier_inf_0(tr, back_sign)
        same = lf.is_isomorphic(back, el)
        twice_same = True
        if el.q > el.p:
            twice = lf.fourier_inf_inf(lf.fourier_inf_inf(el, "+"), "-")
            twice_same = lf.is_isomorphic(twice, el)
        return tr, canon, same, twice_same

    return run


def _population_check(el):
    def check(result) -> bool:
        tr, canon, same, twice_same = result
        return (
            _conserved_0inf(el, tr)
            and same
            and twice_same
            and _total(canon, "rank") == tr.rank
            and _total(canon, "irregularity") == tr.irregularity
            and _text_round_trip(canon)
        )

    return check


# -- deep_ramification -----------------------------------------------------------


class DeepRamification:
    """canonicalize(fourier_0_inf(El(u^p, u^-q + c u^(1-q)))) at p + q = 11..13.

    A cycle runs each (p^, p) split below with c from each of Q, Q(zeta_3)
    and Q(zeta_4); c carries a rational multiplier drawn fresh for every
    operation.  Whole cycles keep the median latency on the same cell of
    this grid from run to run.
    """

    SPLITS = ((11, 1), (12, 5), (13, 9))
    BASES = (1, 3, 4)

    # two-digit primes: every multiplier a/b is reduced and of the same size,
    # so the cost of a cell does not swing with the bit length of c
    PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

    def __init__(self, seed: int):
        self.draw = _Seeded(seed, 2)

    def _multiplier(self) -> Fraction:
        a, b = self.draw.rng.sample(self.PRIMES, 2)
        return Fraction(self.draw.rng.choice((-a, a)), b)

    def cycle(self):
        ops = []
        for ph, p in self.SPLITS:
            for n in self.BASES:
                q = ph - p
                mult = self.draw.fresh(self._multiplier)
                c = lf.rational(mult) * lf.zeta(n)
                el = lf.ElementaryConnection(
                    S.monomial(p), S({-q: lf.rational(1), 1 - q: c}), lf.RegularPart.trivial(1)
                )
                ops.append(Op(f"phat{ph}_p{p}_zeta{n}", _deep_run(el), _deep_check(el)))
        return self.draw.rng.sample(ops, len(ops))


def _deep_run(el):
    def run():
        tr = lf.fourier_0_inf(el, "-")
        return tr, lf.canonicalize(tr)

    return run


def _deep_check(el):
    def check(result) -> bool:
        tr, canon = result
        return (
            _conserved_0inf(el, tr)
            and _total(canon, "rank") == tr.rank
            and _total(canon, "irregularity") == tr.irregularity
            and all(s.slope == tr.slope for s in canon)
        )

    return check


# -- structure -------------------------------------------------------------------


class Structure:
    """Tensor/Hom/dual/determinant on pairs, singularity-data bookkeeping and
    the operator-route oracle.

    A cycle holds one tensor pair per (p_a, p_y) in {1, 2, 3} x {1, 2}, three
    singularity-data sets and one oracle check per pole order 1..5.
    """

    def __init__(self, seed: int):
        self.draw = _Seeded(seed, 3)

    def _minimal_spec(self, p: int, n: int, rank: int, max_q: int = 3):
        # canonical and minimal: rho = u^p and gcd(p, q) = 1
        d = self.draw
        q = d.rng.choice([q for q in range(1, max_q + 1) if gcd(p, q) == 1])
        exps = [-q] + d.rng.sample(range(-q + 1, 0), min(q - 1, d.rng.randint(0, 1)))
        phi = tuple((e, d.scalar_spec(n, 1)) for e in sorted(exps))
        return (p, phi, d.jordan_spec(rank, n))

    def _pair(self, pa: int, py: int) -> Op:
        d = self.draw
        n = d.rng.choice((1, 3, 4))
        a = el_from_spec(d.fresh(lambda: self._minimal_spec(pa, n, d.rng.randint(1, 2))))
        y = el_from_spec(d.fresh(lambda: self._minimal_spec(py, n, 1, max_q=2)))
        return Op("tensor_hom", _pair_run(a, y), _pair_check(a, y))

    def _singularities(self) -> Op:
        d = self.draw
        n = d.rng.choice((1, 3, 4))

        def draw():
            ps, rs = d.rng.choice(((1, 2), (2, 1), (2, 2), (1, 3), (3, 1)))
            rank = ps * rs
            qs = d.rng.choice([q for q in (ps + 1, ps + 2) if gcd(ps, q) == 1])
            steep = (ps, ((-qs, d.scalar_spec(n, 1)),), d.jordan_spec(rs, n))
            p0 = d.rng.choice([p for p in (1, 2, 3) if p <= rank])
            r0 = d.rng.randint(1, rank // p0)
            el0 = self._minimal_spec(p0, n, r0, max_q=2)
            g0 = d.jordan_spec(rank - p0 * r0, n, unipotent_share=0.5)
            g1 = d.jordan_spec(rank, n, unipotent_share=0.5)
            return steep, el0, g0, g1

        steep, el0, g0, g1 = d.fresh(draw)
        return Op(
            "singularities",
            *_singularities_ops(el_from_spec(steep), el_from_spec(el0),
                                regular_part(g0), regular_part(g1)),
        )

    def _oracle(self, q: int) -> Op:
        a = self.draw.fresh(lambda: (self.draw.rat(top=29, den=17), q))[0]
        return Op("oracle", lambda: lf.oracle_check(a, q), _oracle_check)

    def cycle(self):
        ops = [self._pair(pa, py) for pa in (1, 2, 3) for py in (1, 2)]
        ops += [self._singularities() for _ in range(3)]
        ops += [self._oracle(q) for q in range(1, 6)]
        return self.draw.rng.sample(ops, len(ops))


def _pair_run(a, y):
    def run():
        b = lf.fourier_0_inf(y, "-")
        return (
            b,
            lf.tensor(a, b),
            lf.hom(a, b),
            lf.tensor(lf.dual(a), b),
            lf.determinant(a),
            lf.determinant(b),
        )

    return run


def _pair_check(a, y):
    def check(result) -> bool:
        b, ab, hom_ab, dual_ab, det_a, det_b = result
        rank = a.rank * b.rank
        det_y = lf.determinant(y)
        return (
            _conserved_0inf(y, b)
            and _total(ab, "rank") == rank
            and _total(hom_ab, "rank") == rank
            and hom_ab == dual_ab
            and det_a.rank == 1
            # the transform has slope below one, so its determinant is
            # regular with the monodromy of the input's determinant
            and det_b.phi.is_exactly_zero()
            and det_b.reg.jordan[0][0] == det_y.reg.jordan[0][0]
        )

    return check


def _singularities_ops(steep, el0, g0, g1):
    """A rank-consistent data set at 0, 1 and infinity, and its transform.

    Source side: el0 plus a regular germ g0 at 0, a regular germ g1 at 1 and
    a steep piece at infinity.  The transform side is assembled from the
    same pieces, so the centralizer identity balances exactly.
    """
    germ0, germ1 = lf.RegularGermData(g0), lf.RegularGermData(g1)
    data = [
        lf.SingularityDatum(0, summands=[el0], germ=germ0),
        lf.SingularityDatum(1, germ=germ1),
        lf.SingularityDatum(lf.INFINITY, slope_gt1=[steep]),
    ]
    hat_rank = (
        el0.rank + el0.irregularity
        + germ0.phi.rank
        + germ1.phi.rank
        + steep.irregularity - steep.rank
    )

    def run():
        data_hat = [
            lf.SingularityDatum(
                lf.INFINITY,
                slope_gt1=[lf.fourier_inf_inf(steep, "+")],
                slope_eq1=[(-1, (), germ1.phi)],
                slope_lt1=[lf.fourier_0_inf(el0, "-")],
                lt1_regular=germ0.phi,
            )
        ]
        return (
            lf.stationary_phase_at_infinity(data, "-"),
            lf.rigidity_breakdown(data),
            lf.z_zhat_discrepancy(data, data_hat),
        )

    def check(result) -> bool:
        assembled, breakdown, discrepancy = result
        return (
            discrepancy == 0
            and breakdown["rank"] == steep.rank
            and all(row["rank"] == steep.rank for row in breakdown["rows"])
            and assembled.rank == hat_rank
        )

    return run, check


def _oracle_check(report) -> bool:
    # oracle_check raises on any disagreement; reaching here means it held
    return [s.name for s in report.stages] == _ORACLE_STAGES


# -- corpus_cli ------------------------------------------------------------------


_FOURIER = (
    (["fourier", "--kind", "0inf", "--sign", "minus"], lambda el: el.q > 0),
    (["fourier", "--kind", "inf0", "--sign", "plus"], lambda el: 0 < el.q < el.p),
    (["fourier", "--kind", "infinf", "--sign", "plus"], lambda el: el.q > el.p),
    (["fourier", "--kind", "sinf", "--sign", "minus", "--s", "1"], lambda el: el.q > 0),
)
# one operator-route check per pole order, at fixed pole coefficients
_ORACLE_CALLS = tuple(
    ["oracle-check", f"--a={a}", "--q", str(q)]
    for a, q in (("1", 1), ("-2/3", 2), ("5/7", 3), ("3", 4), ("-1/2", 5))
)
_LOCATION = re.compile(r"\d+:\d+")


class CorpusCli:
    """In-process ``cli.main`` over the test corpus, repeated pass after pass.

    Every valid document goes through each subcommand that applies to its
    statements, plus a library-level text round trip; every ``Sing``
    document is also assembled at infinity by
    ``stationary_phase_at_infinity``; every malformed one goes through
    ``canon``; ``oracle-check`` runs once per pole order 1..5.  The same
    inputs repeat on purpose, so the value caches stay warm.
    """

    def __init__(self, seed: int, root: Path):
        corpus = root / "tests" / "corpus"
        self.rng = random.Random(seed * 7919 + 4)
        self.valid = sorted((corpus / "valid").glob("*.conn"))
        self.malformed = sorted((corpus / "malformed").glob("*.conn"))
        if not self.valid or not self.malformed:
            raise FileNotFoundError(f"no corpus under {corpus}")
        self.calls = self._plan()

    def _plan(self):
        # which subcommands apply is read off the parsed document: the plan
        # leaves out calls the CLI refuses up front, such as a transform kind
        # outside its slope range; z-zhat may still report a mismatch (exit 1)
        calls = []
        singles = []
        for path in self.valid:
            text = path.read_text(encoding="utf-8")
            name = str(path)
            doc = lf.parse(text)
            els = [el for conn in doc.connection_list() for el in conn.summands]
            if doc.data_list():
                calls += [["rigidity", name], ["z-zhat", name, name], ("assemble", text)]
            if els:
                calls += [[sub, name] for sub in ("canon", "invariants", "dual", "det")]
                for argv, applies in _FOURIER:
                    if all(applies(el) for el in els):
                        calls.append(argv + [name])
            if len(els) == 1 and not doc.data_list():
                singles.append(name)
            calls.append(("roundtrip", text))
        for a, b in zip(singles, singles[1:] + singles[:1]):
            calls += [["tensor", a, b], ["hom", a, b], ["iso", a, a]]
        calls += [list(argv) for argv in _ORACLE_CALLS]
        calls += [["canon", str(path), "malformed"] for path in self.malformed]
        return calls

    def cycle(self):
        return [self._op(c) for c in self.rng.sample(self.calls, len(self.calls))]

    def _op(self, call) -> Op:
        if call[0] == "roundtrip":
            text = call[1]
            return Op("roundtrip", lambda: lf.print_canonical(lf.parse(text)), _roundtrip_check)
        if call[0] == "assemble":
            data = lf.parse(call[1]).data_list()
            return Op("assemble", lambda: lf.stationary_phase_at_infinity(data, "-"),
                      lambda result: result.rank == _assembled_rank(data))
        malformed = call[-1] == "malformed"
        argv = call[:-1] if malformed else call

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result) -> bool:
            code, out, err = result
            if malformed:
                return code == 2 and bool(_LOCATION.search(err))
            if argv[0] == "oracle-check":
                return code == 0 and bool(out)
            return code in (0, 1) and (code == 1 or bool(out))

        return Op(argv[0], run, check)


def _roundtrip_check(printed) -> bool:
    return lf.print_canonical(lf.parse(printed)) == printed


def _assembled_rank(data) -> int:
    """Rank of the germ at infinity of the transform, read off the pieces.

    A finite point gives rank + irregularity of each summand plus the rank
    of its germ's phi; the part of slope > 1 at infinity gives
    irregularity - rank; nothing else reaches infinity.
    """
    rank = 0
    for datum in data:
        if datum.location is lf.INFINITY:
            rank += sum(el.irregularity - el.rank for el in datum.slope_gt1)
        else:
            rank += sum(el.rank + el.irregularity for el in datum.summands)
            if datum.germ is not None:
                rank += datum.germ.phi.rank
    return rank


def make(name: str, seed: int, root: Path):
    if name == "population":
        return Population(seed)
    if name == "deep_ramification":
        return DeepRamification(seed)
    if name == "structure":
        return Structure(seed)
    if name == "corpus_cli":
        return CorpusCli(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
