"""Elementary formal connections and their structure theory.

An elementary connection El(rho, phi, R) is the push-forward along the
ramification rho of the rank-one exponential twist e^phi tensored with a
regular part R (a vector space with automorphism, stored as Jordan data).
Every formal meromorphic connection in one variable splits as a finite
direct sum of these, uniquely up to reordering once each summand is
normalized (rho a pure power) and minimal (phi not expressible in a
coarser power variable).  This module provides that data model, the
algebra of Jordan data (pull-back, Kronecker product, push-forward,
centralizer and fixed-space dimensions), the numerical invariants, the
normal forms, and isomorphism testing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DomainError
from .exactfield import ONE, FieldElement, adjoin_root, zeta
from .series import LaurentSeries

JordanBlock = tuple[FieldElement, int]


class RegularPart:
    """Jordan data of the monodromy automorphism: (eigenvalue, size) blocks."""

    __slots__ = ("jordan",)

    def __init__(self, blocks: Iterable[tuple[Union[FieldElement, int, Fraction], int]] = ()):
        canon: list[JordanBlock] = []
        for eig, size in blocks:
            fe = FieldElement.from_any(eig)
            if fe.is_zero():
                raise DomainError("monodromy eigenvalues must be nonzero")
            if size < 1:
                raise DomainError("Jordan block sizes must be positive")
            canon.append((fe, size))
        canon.sort(key=lambda b: (b[0].sort_key(), b[1]))
        self.jordan = tuple(canon)

    @staticmethod
    def trivial(rank: int = 1) -> "RegularPart":
        return RegularPart([(ONE, 1)] * rank)

    @property
    def rank(self) -> int:
        return sum(size for _, size in self.jordan)

    def is_zero(self) -> bool:
        return not self.jordan

    def tensor_scalar(self, c: FieldElement) -> "RegularPart":
        """Twist by the rank-one automorphism c (scales every eigenvalue)."""
        return RegularPart([(eig * c, size) for eig, size in self.jordan])

    def dual(self) -> "RegularPart":
        return RegularPart([(ONE / eig, size) for eig, size in self.jordan])

    def concat(self, other: "RegularPart") -> "RegularPart":
        return RegularPart(self.jordan + other.jordan)

    def eigenvalue_product(self) -> FieldElement:
        out = ONE
        for eig, size in self.jordan:
            out = out * eig ** size
        return out

    def __eq__(self, other):
        if not isinstance(other, RegularPart):
            return NotImplemented
        return self.jordan == other.jordan

    def __repr__(self):
        return f"RegularPart({list(self.jordan)!r})"


def pullback_regular(j: RegularPart, m: int) -> RegularPart:
    """Regular part after the substitution u -> u^m: automorphism T^m.

    Eigenvalues are raised to the m-th power; block sizes survive because
    the eigenvalues are nonzero.
    """
    if m < 1:
        raise DomainError("pullback degree must be a positive integer")
    return RegularPart([(eig ** m, size) for eig, size in j.jordan])


def jordan_tensor(j1: RegularPart, j2: RegularPart) -> RegularPart:
    """Jordan data of the Kronecker product of two automorphisms.

    The Clebsch-Gordan style rule for a single pair is
    J_a(lam) (x) J_b(mu) = (+)_{k=1..min(a,b)} J_{a+b+1-2k}(lam*mu).
    """
    blocks = []
    for eig1, a in j1.jordan:
        for eig2, b in j2.jordan:
            prod = eig1 * eig2
            for k in range(1, min(a, b) + 1):
                blocks.append((prod, a + b + 1 - 2 * k))
    return RegularPart(blocks)


def dim_centralizer(j: RegularPart) -> int:
    """Dimension of the algebra of matrices commuting with the automorphism.

    Blocks with distinct eigenvalues do not interact; a pair of blocks of
    sizes (a, b) sharing an eigenvalue contributes min(a, b).
    """
    total = 0
    for eig_a, size_a in j.jordan:
        for eig_b, size_b in j.jordan:
            if eig_a == eig_b:
                total += min(size_a, size_b)
    return total


def dim_fixed(j: RegularPart) -> int:
    """Dimension of the fixed space ker(T - 1): one per eigenvalue-1 block."""
    return sum(1 for eig, _ in j.jordan if eig.is_one())


def pushforward_monodromy(j: RegularPart, p: int) -> RegularPart:
    """Jordan data of the push-forward along a degree-p cyclic covering.

    Each block (eig, size) becomes p blocks (root * zeta_p^k, size) where
    root is the canonical p-th root of the eigenvalue.
    """
    if p < 1:
        raise DomainError("covering degree must be a positive integer")
    if p == 1:
        return j
    blocks = []
    for eig, size in j.jordan:
        root = adjoin_root(eig, p)
        for k in range(p):
            blocks.append((root * zeta(p, k), size))
    return RegularPart(blocks)


class Invariants(NamedTuple):
    slope: Fraction
    irregularity: int
    rank: int


class ElementaryConnection:
    """El(rho, phi, R): the basic building block of the classification.

    rho is a series of valuation p >= 1 with no constant term; phi is kept
    as its polar part only (the class depends on nothing else), written in
    the variable of rho, so one connection never mixes two variables; R
    carries the regular data.  p, q, r are cached on construction.  A transform
    output also keeps rho_source, the exact fraction its truncated rho was
    expanded from; it feeds later transforms and never enters comparisons.
    """

    __slots__ = ("rho", "phi", "reg", "p", "q", "r", "rho_source")

    def __init__(
        self, rho: LaurentSeries, phi: LaurentSeries, reg: RegularPart, rho_source=None
    ):
        if rho.is_exactly_zero() or rho.valuation() < 1:
            raise DomainError("ramification maps need valuation at least 1")
        if not rho.coefficient(0).is_zero():
            raise DomainError("ramification maps fix the origin (no constant term)")
        phi = phi.principal_part()
        if phi.var != rho.var:
            phi = phi.with_var(rho.var)
        self.rho = rho
        self.phi = phi
        self.reg = reg
        self.p = rho.valuation()
        self.q = 0 if phi.is_exactly_zero() else -phi.valuation()
        self.r = reg.rank
        self.rho_source = rho_source

    # -- invariants --------------------------------------------------------

    @property
    def slope(self) -> Fraction:
        return Fraction(self.q, self.p)

    @property
    def irregularity(self) -> int:
        return self.q * self.r

    @property
    def rank(self) -> int:
        return self.p * self.r

    def invariants(self) -> Invariants:
        return Invariants(self.slope, self.irregularity, self.rank)

    def is_regular(self) -> bool:
        return self.q == 0

    def is_normalized(self) -> bool:
        """rho is exactly u^p."""
        return (
            self.rho.is_exact()
            and len(self.rho.coeffs) == 1
            and self.rho.leading_coefficient().is_one()
        )

    def is_minimal(self) -> bool:
        """No divisor of p larger than 1 divides every phi exponent."""
        if not self.is_normalized():
            return False
        return _reduction_step(self.p, self.phi) == 1

    def __eq__(self, other):
        if not isinstance(other, ElementaryConnection):
            return NotImplemented
        return self.rho == other.rho and self.phi == other.phi and self.reg == other.reg

    def __repr__(self):
        return f"El(p={self.p}, q={self.q}, r={self.r})"


class FormalConnection:
    """A finite direct sum of elementary connections."""

    __slots__ = ("summands",)

    def __init__(self, summands: Sequence[ElementaryConnection] = ()):
        self.summands = tuple(summands)

    @property
    def rank(self) -> int:
        return sum(el.rank for el in self.summands)

    @property
    def irregularity(self) -> int:
        return sum(el.irregularity for el in self.summands)

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(sorted(el.slope for el in self.summands))

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __eq__(self, other):
        if not isinstance(other, FormalConnection):
            return NotImplemented
        return self.summands == other.summands

    def __repr__(self):
        return f"FormalConnection({len(self.summands)} summands, rank {self.rank})"


def elementary(
    rho: LaurentSeries,
    phi: LaurentSeries,
    reg: Optional[RegularPart] = None,
) -> ElementaryConnection:
    return ElementaryConnection(rho, phi, reg if reg is not None else RegularPart.trivial())


def regular_connection(reg: RegularPart) -> ElementaryConnection:
    return ElementaryConnection(LaurentSeries.identity(), LaurentSeries.zero(), reg)


def invariants(el: ElementaryConnection) -> Invariants:
    return el.invariants()


# --------------------------------------------------------------------------
# normal forms

def normalize_ramification(el: ElementaryConnection) -> ElementaryConnection:
    """Replace rho by the pure power u^p without changing the class.

    Substitutes u = lambda(v) with rho(lambda(v)) = v^p; phi transforms by
    composition and R is untouched.  For rho = c u^p (1 + h) the polar part
    comes from Lagrange-Buermann, [v^n] phi(lambda) = root^-n (1/n) [u^(n-1)]
    phi' (1 + h)^(-n/p) for n = -q..-1 and root the p-th root of c, all in
    LaurentSeries.lagrange; rho must be known to relative order q.
    """
    if el.is_normalized():
        return el
    phi = el.phi.lagrange(el.rho, range(-el.q, 0))
    return ElementaryConnection(LaurentSeries.monomial(el.p), phi, el.reg)


def _reduction_step(p: int, phi: LaurentSeries) -> int:
    # the largest d | p with every stored exponent of phi divisible by d
    if phi.is_exactly_zero():
        return p
    d = p
    for e in phi.coeffs:
        d = gcd(d, abs(e))
    return d


def reduce_minimal(el: ElementaryConnection) -> ElementaryConnection:
    """Shrink a normalized El to its minimal presentation.

    When phi only involves powers of u^d the same class is reachable from
    a degree p/d ramification; the regular part picks up the push-forward
    along the remaining degree-d covering.
    """
    if not el.is_normalized():
        raise DomainError("reduce_minimal expects a normalized connection")
    d = _reduction_step(el.p, el.phi)
    if d == 1:
        return el
    phi = LaurentSeries({e // d: c for e, c in el.phi.coeffs.items()})
    reg = pushforward_monodromy(el.reg, d)
    return ElementaryConnection(LaurentSeries.monomial(el.p // d), phi, reg)


def rotate_exponential(phi: LaurentSeries, p: int, k: int) -> LaurentSeries:
    """phi(zeta_p^k u), coefficient of u^e times zeta_p^(ke)."""
    return LaurentSeries(
        {e: c * zeta(p, k * e) for e, c in phi.coeffs.items()}, phi.prec, phi.var
    )


def pullback_decompose(el: ElementaryConnection, d: int) -> FormalConnection:
    """Pull back along a degree-d cover of the base disk, d | p.

    The result splits into d elementary pieces of ramification degree p/d
    whose exponential factors are the rotations phi(zeta_p^k u), k < d;
    the regular part is carried along unchanged.  Rank is preserved while
    slopes and total irregularity scale by d (they are measured in the
    coordinate of the cover).
    """
    if not el.is_normalized():
        raise DomainError("pullback_decompose expects a normalized connection")
    if d < 1 or el.p % d:
        raise DomainError(f"{d} does not divide the ramification degree {el.p}")
    out = []
    for k in range(d):
        phi_k = rotate_exponential(el.phi, el.p, k)
        out.append(ElementaryConnection(LaurentSeries.monomial(el.p // d), phi_k, el.reg))
    return FormalConnection(out)


# --------------------------------------------------------------------------
# isomorphism testing and canonical forms

def _phi_key(phi: LaurentSeries) -> tuple:
    return tuple((e, c.sort_key()) for e, c in phi.items())


def _orbit_representative(p: int, phi: LaurentSeries) -> tuple[LaurentSeries, tuple]:
    best = phi
    best_key = _phi_key(phi)
    for k in range(1, p):
        cand = rotate_exponential(phi, p, k)
        key = _phi_key(cand)
        if key < best_key:
            best, best_key = cand, key
    return best, best_key


def is_isomorphic_elementary(
    a: ElementaryConnection, b: ElementaryConnection
) -> Optional[FieldElement]:
    """Witness zeta with phi_b(zeta u) = phi_a, or None when not isomorphic.

    Both inputs must already be normalized and minimal; then the classes
    agree exactly when p and the Jordan data match and some p-th root of
    unity rotates one exponential factor onto the other.
    """
    for el in (a, b):
        if not el.is_normalized() or not el.is_minimal():
            raise DomainError("isomorphism testing needs normalized minimal inputs")
    if a.p != b.p or a.reg != b.reg:
        return None
    for k in range(a.p):
        if rotate_exponential(b.phi, a.p, k) == a.phi:
            return zeta(a.p, k)
    return None


def canonicalize(m: Union[FormalConnection, ElementaryConnection]) -> FormalConnection:
    """The unique normal form: normalized minimal summands, isomorphic
    exponential types merged, deterministic order.
    """
    if isinstance(m, ElementaryConnection):
        m = FormalConnection([m])
    groups: dict[tuple, tuple[LaurentSeries, LaurentSeries, RegularPart]] = {}
    for el in m:
        el = reduce_minimal(normalize_ramification(el))
        rep_phi, rep_key = _orbit_representative(el.p, el.phi)
        key = (el.p, el.q, rep_key)
        if key in groups:  # a later summand of the class adds only its regular part
            rho, phi, reg = groups[key]
            groups[key] = (rho, phi, reg.concat(el.reg))
        else:
            groups[key] = (el.rho, rep_phi, el.reg)
    return FormalConnection([ElementaryConnection(*groups[key]) for key in sorted(groups)])


def is_isomorphic(
    m1: Union[FormalConnection, ElementaryConnection],
    m2: Union[FormalConnection, ElementaryConnection],
) -> bool:
    c1 = canonicalize(m1)
    c2 = canonicalize(m2)
    return c1 == c2
