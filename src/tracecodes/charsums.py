"""Quadratic Gauss sums, quadratic exponential sums and order-2
cyclotomic numbers, each with a direct-summation oracle and a closed
form.

All direct evaluations are exact in Z[zeta_p].  The closed forms use a
compact unit/half-power representation (:class:`GaussSumExact`) whose
even-power products are ordinary integers; those are the only
combinations that ever reach the code-level formulas.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .cyclotomic import CyclotomicInteger
from .errors import ZeroLeadingCoefficientError
from .fields import FieldContext, legendre

PRINCIPAL = "principal"
QUARTIC = "quartic"


@dataclass(frozen=True)
class GaussSumExact:
    """The value i**unit * p**(half_power / 2), stored exactly.

    Quadratic Gauss sums and their pairwise products all have this
    shape.  With an even half power and a real unit the value is a
    rational integer; with an odd half power it lives in Z[zeta_p] and
    can be materialized there via :meth:`to_cyclotomic`.
    """

    p: int
    unit: int
    half_power: int

    def __mul__(self, other: "GaussSumExact") -> "GaussSumExact":
        if self.p != other.p:
            raise ValueError("cannot multiply Gauss sums over different primes")
        return GaussSumExact(self.p, (self.unit + other.unit) % 4,
                             self.half_power + other.half_power)

    def as_int(self) -> int:
        if self.half_power % 2 or self.unit % 2:
            raise ValueError(f"{self!r} is not a rational integer")
        return (-1) ** (self.unit // 2) * self.p ** (self.half_power // 2)

    def to_cyclotomic(self) -> CyclotomicInteger:
        """Exact image in Z[zeta_p].

        An odd half power contributes one factor of sqrt(p), realized as
        the quadratic Gauss sum over F_p (whose embedding is sqrt(p) for
        p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4).
        """
        if self.half_power % 2 == 0:
            return CyclotomicInteger.from_int(self.p, self.as_int())
        root_turns = 0 if self.p % 4 == 1 else 1
        k = (self.unit - root_turns) % 4
        if k % 2:
            raise ValueError(f"{self!r} does not lie in Z[zeta_p]")
        sign = -1 if k == 2 else 1
        scale = sign * self.p ** ((self.half_power - 1) // 2)
        return quadratic_gauss_sum_fp(self.p) * scale


@lru_cache(maxsize=None)
def quadratic_gauss_sum_fp(p: int) -> CyclotomicInteger:
    """sum of legendre(t) * zeta^t over t in F_p^*, exactly."""
    counts = [0] * p
    for t in range(1, p):
        counts[t] = legendre(t, p)
    return CyclotomicInteger.from_exponent_counts(p, counts)


def quadratic_gauss_sum(p: int, m: int, convention: str = PRINCIPAL) -> GaussSumExact:
    """Closed form of the quadratic Gauss sum over F_{p^m}.

    The "principal" convention is the one confirmed by direct
    summation: (-1)**(m-1) * eps**m * p**(m/2) with eps = 1 for
    p = 1 mod 4 and eps = i for p = 3 mod 4.  The "quartic" convention
    instead evaluates the sign factor (-1)**((p-1)*m/4) literally,
    reading (-1)**(1/2) as i; it differs from the principal value by
    (-1)**m exactly when p = 5 or 7 mod 8 and m is odd, and agrees
    everywhere else.  Even-power combinations are identical under both.
    """
    if convention == PRINCIPAL:
        eps_turns = 0 if p % 4 == 1 else 1
        unit = (2 * (m - 1) + eps_turns * m) % 4
    elif convention == QUARTIC:
        unit = (2 * (m - 1) + (p - 1) * m // 2) % 4
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return GaussSumExact(p, unit, m)


def gauss_sum_closed_cyclotomic(p: int, m: int) -> CyclotomicInteger:
    """The principal closed form materialized in Z[zeta_p], directly
    comparable with :func:`gauss_sum_direct`."""
    return quadratic_gauss_sum(p, m, PRINCIPAL).to_cyclotomic()


def gauss_sum_direct(ctx: FieldContext) -> CyclotomicInteger:
    """sum of eta(x) * zeta^Tr(x) over x in F_r^*, by direct summation:
    x = alpha^k is a square exactly when k is even."""
    te = ctx.trace_exp
    squares, non_squares = Counter(te[0::2]), Counter(te[1::2])
    counts = [squares[v] - non_squares[v] for v in range(ctx.p)]
    return CyclotomicInteger.from_exponent_counts(ctx.p, counts)


def quadratic_exponential_sum(ctx: FieldContext, a2: int, a1: int, a0: int) -> CyclotomicInteger:
    """sum of zeta^Tr(a2*x^2 + a1*x + a0) over all x, by direct summation.

    Only the additivity of the trace is used: for x = alpha^k the
    exponent is Tr(a2*x^2) + Tr(a1*x) + Tr(a0), that is trace_exp at
    log a2 + 2k plus trace_exp at log a1 + k (both mod N = r - 1) plus
    Tr(a0).  Over k in [0, N) the first term is the rotation of
    trace_exp by log a2 read with stride 2, twice over (N is even), and
    the second the rotation by log a1; x = 0 contributes Tr(a0), which
    is trace_exp at log a0, or 0 when a0 = 0."""
    if a2 == 0:
        raise ZeroLeadingCoefficientError("a2 must be nonzero")
    p, te, log = ctx.p, ctx.trace_exp, ctx.log
    l2 = log[a2]
    quad = (te[l2:] + te[:l2])[::2] * 2
    if a1 == 0:
        sums = Counter(quad)
    else:
        l1 = log[a1]
        sums = Counter(map(add, quad, te[l1:] + te[:l1]))
    c = te[log[a0]] if a0 else 0
    counts = [0] * p
    counts[c] = 1  # x = 0
    for v, freq in sums.items():
        counts[(v + c) % p] += freq
    return CyclotomicInteger.from_exponent_counts(p, counts)


def quadratic_exponential_sum_closed(ctx: FieldContext, a2: int, a1: int, a0: int,
                                     gauss: CyclotomicInteger | None = None) -> CyclotomicInteger:
    """Completed-square form: zeta^Tr(a0 - a1^2/(4*a2)) * eta(a2) * G,
    with G the quadratic Gauss sum of the same field (direct value by
    default, so the identity test stays a genuine cross-check).

    Read in logs: eta(a2) is -1 exactly when log a2 is odd, and
    Tr(a1^2/(4*a2)) is trace_exp at 2*log a1 - log a2 - log 4, mod r - 1,
    with log 4 the log of 4 mod p in F_p^*."""
    if a2 == 0:
        raise ZeroLeadingCoefficientError("a2 must be nonzero")
    if gauss is None:
        gauss = gauss_sum_direct(ctx)
    te, log = ctx.trace_exp, ctx.log
    shift = te[log[a0]] if a0 else 0
    if a1:
        shift -= te[(2 * log[a1] - log[a2] - ctx.prime_log(4)) % (ctx.r - 1)]
    out = gauss * CyclotomicInteger.zeta_power(ctx.p, shift)
    if log[a2] % 2:
        out = -out
    return out


# ----------------------------------------------------------------------
# Order-2 cyclotomic numbers
# ----------------------------------------------------------------------

def cyclotomic_numbers_direct(ctx: FieldContext) -> dict[tuple[int, int], int]:
    """The four order-2 cyclotomic numbers keyed by (i, j): the number of
    x in class i with x + 1 in class j, where class 0 holds the nonzero
    squares and class 1 the non-squares.  One exhaustive scan.

    Adding 1 steps the constant coefficient, the low base-p digit of an
    index: x + 1 is the next index, or p - 1 back when that digit is
    p - 1.  So the indices with low digit d pair off with those with low
    digit d + 1 mod p, and each pair is read from the log parities."""
    p = ctx.p
    cls = list(map((2).__rmod__, ctx.log))
    cls[0] = 2  # zero is in neither class
    pairs = Counter()
    for d in range(p):
        pairs.update(zip(cls[d::p], cls[(d + 1) % p::p]))
    return {(i, j): pairs[i, j] for i in (0, 1) for j in (0, 1)}


def cyclotomic_numbers_order2(r: int) -> dict[tuple[int, int], int]:
    """Closed form of the four order-2 cyclotomic numbers of a field
    with r elements (r odd), keyed by (i, j)."""
    if r % 2 == 0:
        raise ValueError("r must be odd")
    h = (r - 1) // 2
    if h % 2 == 0:
        return {(0, 0): (h - 2) // 2, (0, 1): h // 2, (1, 0): h // 2, (1, 1): h // 2}
    return {(0, 0): (h - 1) // 2, (0, 1): (h + 1) // 2,
            (1, 0): (h - 1) // 2, (1, 1): (h - 1) // 2}
