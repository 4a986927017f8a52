"""Quadratic Gauss sums, quadratic exponential sums and order-2
cyclotomic numbers, each with a direct oracle and a closed form.  The
counted Gauss sum and the direct exponential sum count the values of a
quadratic form after a linear change of variable; the others scan a table.

All direct evaluations are exact in Z[zeta_p].  Every closed Gauss-sum
value comes from one fact: over F_{p^m} the quadratic Gauss sum is
(-1)**(m-1) * g**m, with g the Gauss sum over F_p and
g**2 = eta(-1) * p.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from operator import mul

from .cyclotomic import CyclotomicInteger
from .errors import ZeroLeadingCoefficientError
from .fields import FieldContext, _diagonalize, legendre, power_sums


@lru_cache(maxsize=None)
def quadratic_gauss_sum_fp(p: int) -> CyclotomicInteger:
    """sum of legendre(t) * zeta^t over t in F_p^*, exactly."""
    return CyclotomicInteger.from_exponent_counts(p, [legendre(t, p) for t in range(p)])


def gauss_sum_closed_cyclotomic(p: int, m: int) -> CyclotomicInteger:
    """Closed form of the quadratic Gauss sum over F_{p^m} in Z[zeta_p],
    directly comparable with :func:`gauss_sum_direct`.

    The lift from F_p gives G = (-1)**(m-1) * g**m, with g the Gauss sum
    over F_p and g**2 = eta(-1) * p: an integer times g when m is odd,
    an integer when m is even."""
    value = (-1) ** (m - 1) * (legendre(-1, p) * p) ** (m // 2)
    if m % 2:
        return quadratic_gauss_sum_fp(p) * value
    return CyclotomicInteger.from_int(p, value)


def quartic_reading_sign(p: int, m: int) -> int:
    """The paper's Gauss-sum sign read literally, (-1)**((p-1)*m/4) taken
    as i**((p-1)*m/2), gives this sign times
    :func:`gauss_sum_closed_cyclotomic`.  The summed value carries eps**m
    there (eps = 1 for p = 1 mod 4, i for p = 3 mod 4), and the two
    differ by 2 * m * floor((p-1)/4) quarter turns: the sign is -1
    exactly when m is odd and p = 5 or 7 mod 8."""
    return (-1) ** (m * ((p - 1) // 4))


def gauss_sum_direct(ctx: FieldContext) -> CyclotomicInteger:
    """sum of eta(x) * zeta^Tr(x) over x in F_r^*, by direct summation:
    x = alpha^k is a square exactly when k is even."""
    te = ctx.trace_exp
    squares, non_squares = Counter(te[0::2]), Counter(te[1::2])
    counts = [squares[v] - non_squares[v] for v in range(ctx.p)]
    return CyclotomicInteger.from_exponent_counts(ctx.p, counts)


def gauss_sum_counted(p: int, f: tuple[int, ...]) -> CyclotomicInteger:
    """The quadratic Gauss sum of F_p[x]/(f), f monic irreducible of degree
    m, from no table: #{y : y^2 = x} = 1 + eta(x), so it sums zeta^Tr(y^2)
    over all y, and on the basis x^i the Gram matrix of Tr(y^2) is the
    Hankel matrix Tr(x^(i+j)), whose values :func:`_diagonalize` counts."""
    m = len(f) - 1
    s = power_sums(f, p, 2 * m - 1)
    return CyclotomicInteger.from_exponent_counts(
        p, _diagonalize([s[i:i + m] for i in range(m)], p)[2])


def quadratic_exponential_sum(ctx: FieldContext, l2: int | None, l1: int | None,
                              l0: int | None) -> CyclotomicInteger:
    """sum of zeta^Tr(a2*x^2 + a1*x + a0) over all x, with each coefficient
    given by its log (a = alpha^l) or None for 0, by counting the values
    of the exponent.

    Only linear changes of variable, a translation and integer counts are
    used.  x = alpha^(-h)*y, h = floor(l2/2), is a bijection that turns
    a2 into alpha^e, e = l2 mod 2, and a1's log into l1 - h.  On the basis
    alpha^i, y = sum_t z_t*v_t diagonalises Tr(alpha^e*y^2) to
    sum_t d_t*z_t^2 (``ctx.square_forms[e]``), and Tr(a1*y) = sum_t
    (v_t.L)*z_t with L_i = Tr(alpha^(l1 - h + i)).  Completing each square
    moves the exponent by -(v_t.L)^2/(4*d_t), so the exponent counts are
    those of sum_t d_t*z_t^2, rotated by that shift plus Tr(a0)."""
    if l2 is None:
        raise ZeroLeadingCoefficientError("a2 must be nonzero")
    p, te = ctx.p, ctx.trace_exp
    pivots, scales, counts = ctx.square_forms[l2 % 2]
    shift = 0 if l0 is None else te[l0]
    if l1 is not None:
        n, start = ctx.r - 1, l1 - l2 // 2
        lin = [te[(start + i) % n] for i in range(ctx.m)]
        shift += sum(sum(map(mul, v, lin)) ** 2 * c for v, c in zip(pivots, scales))
    shift %= p
    return CyclotomicInteger.from_exponent_counts(p, counts[p - shift:] + counts[:p - shift])


def quadratic_exponential_sum_closed(ctx: FieldContext, l2: int | None, l1: int | None,
                                     l0: int | None, *,
                                     gauss: CyclotomicInteger) -> CyclotomicInteger:
    """Completed-square form: zeta^Tr(a0 - a1^2/(4*a2)) * eta(a2) * G,
    with G = ``gauss`` the quadratic Gauss sum of the same field (its
    direct value keeps the identity test a genuine cross-check), and the
    coefficients given by their logs as in :func:`quadratic_exponential_sum`.

    Read in logs: eta(a2) is -1 exactly when l2 is odd, and
    Tr(a1^2/(4*a2)) is trace_exp at 2*l1 - l2 - log 4, mod r - 1, with
    log 4 the log of 4 mod p in F_p^*."""
    if l2 is None:
        raise ZeroLeadingCoefficientError("a2 must be nonzero")
    out = gauss * CyclotomicInteger.zeta_power(ctx.p, completed_square_shift(ctx, l2, l1, l0))
    if l2 % 2:
        out = -out
    return out


def completed_square_shift(ctx: FieldContext, l2: int, l1: int | None, l0: int | None) -> int:
    """Tr(a0 - a1^2/(4*a2)) mod p, the power of zeta in
    :func:`quadratic_exponential_sum_closed`, which depends on the
    coefficients only through it and the parity of l2."""
    te = ctx.trace_exp
    shift = 0 if l0 is None else te[l0]
    if l1 is not None:
        shift -= te[(2 * l1 - l2 - ctx.prime_log(4)) % (ctx.r - 1)]
    return shift % ctx.p


# ----------------------------------------------------------------------
# Order-2 cyclotomic numbers
# ----------------------------------------------------------------------

def cyclotomic_numbers_direct(ctx: FieldContext) -> dict[tuple[int, int], int]:
    """The four order-2 cyclotomic numbers keyed by (i, j): the number of
    y in class i with y + 1 in class j, where class 0 holds the nonzero
    squares and class 1 the non-squares.  One exhaustive scan.

    Elements are read in trace coordinates: J(x) = sum over i < m of
    p^i * Tr(alpha^i * x) is an F_p-linear bijection of F_r onto [0, r),
    since the trace form is nondegenerate.  J(alpha^k) sums trace_exp
    rotated by i, weighted by p^i, in 4-byte slots of one big int that
    hold at most r - 1 and so carry into no other slot.  With
    c = alpha^k1 the element where J is 1, J(x + c) steps the low base-p
    digit of J(x), so the J with low digit d pair off with those with
    low digit d + 1 mod p.  Put x = c*y: the pairs (x, x + c) are the
    pairs (y, y + 1), and y = alpha^(k - k1) is a square exactly when
    k - k1 is even, so x gets the class byte of y, and zero is class 2,
    in neither.  Each pair is read from the class bytes: the big-int sum
    of 3 times one slice and the other holds byte 3i + j < 9 at each
    pair (i, j), carrying into no other byte."""
    from array import array
    p, r, te = ctx.p, ctx.r, ctx.trace_exp
    assert r - 1 < 2**32  # a coordinate fits its 4-byte slot
    if p < 256:  # one slice assignment widens each byte to a little-endian slot
        words, order = bytearray(4 * (r - 1)), "little"
        words[0::4] = te
    else:
        words, order = array("I", te).tobytes(), sys.byteorder
    acc = sum(p**i * int.from_bytes(words[4 * i:] + words[:4 * i], order)
              for i in range(ctx.m))
    coords = array("I", acc.to_bytes(4 * (r - 1), sys.byteorder))
    cls = bytearray(r)
    cls[0] = 2
    k1 = coords.index(1)  # c = alpha^k1
    for x in coords[1 - k1 % 2::2]:  # k - k1 odd: y = x/c is a non-square
        cls[x] = 1
    size = r // p
    pairs = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for d in range(p):
        both = (3 * int.from_bytes(cls[d::p], "little")
                + int.from_bytes(cls[(d + 1) % p::p], "little")).to_bytes(size, "little")
        for i, j in pairs:
            pairs[i, j] += both.count(3 * i + j)
    return pairs


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
