"""Quadratic Gauss sums, quadratic exponential sums and order-2
cyclotomic numbers, each with a direct-summation oracle and a closed
form.

All direct evaluations are exact in Z[zeta_p].  Every closed Gauss-sum
value comes from one fact: over F_{p^m} the quadratic Gauss sum is
(-1)**(m-1) * g**m, with g the Gauss sum over F_p and
g**2 = eta(-1) * p.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from operator import add

from .cyclotomic import CyclotomicInteger
from .errors import ZeroLeadingCoefficientError
from .fields import FieldContext, legendre


@lru_cache(maxsize=None)
def quadratic_gauss_sum_fp(p: int) -> CyclotomicInteger:
    """sum of legendre(t) * zeta^t over t in F_p^*, exactly."""
    counts = [0] * p
    for t in range(1, p):
        counts[t] = legendre(t, p)
    return CyclotomicInteger.from_exponent_counts(p, counts)


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


def quadratic_exponential_sum(ctx: FieldContext, l2: int | None, l1: int | None,
                              l0: int | None) -> CyclotomicInteger:
    """sum of zeta^Tr(a2*x^2 + a1*x + a0) over all x, by direct summation,
    with each coefficient given by its log (a = alpha^l) or None for 0.

    Only the additivity of the trace is used: for x = alpha^k the
    exponent is Tr(a2*x^2) + Tr(a1*x) + Tr(a0), that is trace_exp at
    l2 + 2k plus trace_exp at l1 + k (both mod N = r - 1) plus Tr(a0);
    x = 0 contributes Tr(a0), which is trace_exp at l0, or 0 when a0 = 0.
    The counts over k come from the field's trace bitmasks when
    :func:`_masks_win`, else from a ``Counter`` over the trace table."""
    if l2 is None:
        raise ZeroLeadingCoefficientError("a2 must be nonzero")
    p = ctx.p
    kernel = _mask_counts if _masks_win(p, ctx.r) else _counter_counts
    counts = kernel(ctx, l2, l1)
    counts[0] += 1  # x = 0
    c = 0 if l0 is None else ctx.trace_exp[l0]
    return CyclotomicInteger.from_exponent_counts(p, counts[p - c:] + counts[:p - c])


# Per call, the mask kernel does p^2 AND and bit_count passes over
# ceil((r - 1)/64) words (the half mask is cut to r - 1 bits), the Counter
# kernel r list reads.  Measured per call on a 2-core box, Python 3.11.7,
# from (3,2) to (29,4): a pass costs about 140 ns plus 5-8 ns per word,
# so _PASS_WORDS words, and a read 72-126 ns, 12-17 words.  _READ_WORDS
# takes the low end: the kernels come within 10% per call at (29,3), (31,3)
# and (29,4), where the masks' one-off build (15 ms at (29,3)) is unpriced.
_PASS_WORDS = 28
_READ_WORDS = 12


def _masks_win(p: int, r: int) -> bool:
    """Whether :func:`_mask_counts` beats :func:`_counter_counts` in F_r,
    priced in 64-bit words as above.  It never does at m <= 2, and at
    m >= 3 it does through p = 23; p < 256 is what the masks need."""
    return p < 256 and p * p * (_PASS_WORDS + -(-(r - 1) // 64)) < _READ_WORDS * r


def _mask_counts(ctx: FieldContext, l2: int, l1: int | None) -> list[int]:
    """counts[w], w in F_p: the k in [0, N) with Tr(a2*x^2) + Tr(a1*x) = w
    for x = alpha^k, a2 = alpha^l2 and a1 = alpha^l1 or 0.  Bit k of
    quads[u], half mask l2 % 2 shifted right by l2 // 2 and cut to N bits,
    is set iff Tr(a2*x^2) = u; bit k of the linear mask v shifted right by
    l1 iff Tr(a1*x) = v.  The pair (u, v) counts the set bits of their AND."""
    p, cut = ctx.p, (1 << ctx.r - 1) - 1
    quads = [mask >> l2 // 2 & cut for mask in ctx.half_masks[l2 % 2]]
    if l1 is None:
        return [quad.bit_count() for quad in quads]
    lins = [mask >> l1 for mask in ctx.trace_masks]
    counts = [0] * p
    for u, quad in enumerate(quads):
        for w, lin in enumerate(lins, u):  # w = u + v
            counts[w % p] += (quad & lin).bit_count()
    return counts


def _counter_counts(ctx: FieldContext, l2: int, l1: int | None) -> list[int]:
    """The counts of :func:`_mask_counts`, from trace_exp: Tr(a2*x^2)
    over k in [0, N) is the rotation of trace_exp by l2 read with stride 2,
    twice over (N is even), and Tr(a1*x) the rotation by l1."""
    te = ctx.trace_exp
    quad = (te[l2:] + te[:l2])[::2] * 2
    sums = Counter(quad) if l1 is None else Counter(map(add, quad, te[l1:] + te[:l1]))
    counts = [0] * ctx.p
    for w, freq in sums.items():
        counts[w % ctx.p] += freq
    return counts


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
