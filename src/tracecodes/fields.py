"""Exact arithmetic in F_p and its extensions F_{p^m}, p an odd prime.

Elements are plain integers in ``[0, r)`` with ``r = p^m``: the base-p
digits of the index are the coefficients of the polynomial-basis
representative, low degree first.  Index 0 is the additive identity,
index 1 the multiplicative identity, and the indices below p are exactly
the prime subfield.

A :class:`FieldContext` fixes the modulus polynomial and a primitive
element alpha; construction does nothing else.  Each table is built on
first read.  The trace of alpha^k is a linear recurring sequence in k
(Lidl-Niederreiter, *Finite Fields*, ch. 8): 2m polynomial products
seed it, Berlekamp-Massey finds the recurrence, and window doubling
fills it in, in time linear in p^m.  That sequence, ``trace_exp``, is
the one element table, ``bytes`` for p < 256 and a ``list`` above.
Two tables are read off it: ``trace_masks``, its level bitmasks, for
the orbit walk, and ``square_forms``, Tr(alpha^e*x^2) diagonalised over
F_p, for the quadratic sums.  There is no power or log table: sums over
the field run over the exponent k, so Tr(x) is ``trace_exp[k]`` and the
quadratic character of x is the parity of k; ``power`` names one
alpha^k by square-and-multiply.  ``add`` and ``mul`` are table-free,
for walking the field one element at a time.  Construction is
deterministic: the default modulus is the lexicographically first monic
irreducible polynomial (tail coefficients read low-degree-first as a
base-p integer) and the primitive element is the smallest index of full
multiplicative order.
A table, once built, never changes, so a context is safe to share with
worker processes forked after it.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property

from .errors import (
    DegreeTooSmallError,
    EvenCharacteristicError,
    NotPrimeError,
    SizeCapExceededError,
)

DEFAULT_SIZE_CAP = 10**7


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def legendre(a: int, p: int) -> int:
    """Quadratic character of F_p on integers: 0 on multiples of p, else +/-1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ----------------------------------------------------------------------
# Dense polynomial helpers over F_p (coefficient lists, low degree first)
# ----------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """(a * b) mod f for monic f of degree m; result has fixed length m."""
    m = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1 if a and b else 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            off = d - m
            for j in range(m):
                prod[off + j] = (prod[off + j] - c * f[j]) % p
    return (prod + [0] * (m - len(prod)))[:m]


def _poly_powmod(base: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    m = len(f) - 1
    result = [1] + [0] * (m - 1)
    b = _poly_mul_mod(base, [1], f, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, b, f, p)
        e >>= 1
        if e:
            b = _poly_mul_mod(b, b, f, p)
    return result


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a mod b; b need not be monic."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv_lead) % p
        off = len(a) - 1 - db
        for j in range(db + 1):
            a[off + j] = (a[off + j] - c * b[j]) % p
        a = list(_poly_trim(a))
    return tuple(a)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _frobenius_chain(f: Sequence[int], p: int) -> list[list[int]]:
    """[x^(p^k) mod f for k in [0, m]], m = deg f, each term the p-th
    power of the one before."""
    chain = [_poly_mul_mod([0, 1], [1], f, p)]
    for _ in range(len(f) - 1):
        chain.append(_poly_powmod(chain[-1], p, f, p))
    return chain


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Uses the Frobenius criterion: f of degree m is irreducible iff
    x^(p^m) = x mod f and gcd(x^(p^(m/q)) - x, f) = 1 for every prime
    q dividing m.
    """
    f = [c % p for c in coeffs]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if m == 1:
        return True
    frob = _frobenius_chain(f, p)
    x_red = _poly_trim([0, 1])
    if _poly_trim(frob[m]) != x_red:
        return False
    for q in prime_factors(m):
        h = list(frob[m // q])
        h[1] = (h[1] - 1) % p
        h = _poly_trim(h)
        if not h:
            return False
        if len(_poly_gcd(h, f, p)) != 1:
            return False
    return True


def _poly_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    """f(x) mod p by Horner's rule, coefficients low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def irreducible_polynomials(p: int, m: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducible degree-m polynomials over F_p, in lexicographic
    order of the tail coefficients (read low-degree-first as a base-p
    integer).  Coefficient tuples are low degree first, length m+1.
    For m >= 2 a root in F_p splits off a linear factor, so a candidate
    with one is skipped before its Frobenius test: the filter is exact.
    At m <= 3 a reducible polynomial has a factor of degree 1, so a
    candidate that passes the filter is irreducible, and only m > 3 pays
    for the Frobenius test."""
    for tail in range(p**m):
        coeffs = [*(tail // p**i % p for i in range(m)), 1]
        if m >= 2 and any(_poly_eval(coeffs, x, p) == 0 for x in range(p)):
            continue
        if m <= 3 or is_irreducible(coeffs, p):
            yield tuple(coeffs)


def power_sums(f: Sequence[int], p: int, count: int) -> list[int]:
    """Tr(x^j) in F_p[x]/(f) for j in [0, count), f monic irreducible of
    degree m: the power sums s_j of its roots, the conjugates of x.  By
    Newton's identities s_0 = m and s_j = -(j*c_j + sum over 0 < i < j
    of c_i*s_(j-i)), with c_i = f_(m-i) for i <= m and 0 above."""
    m = len(f) - 1
    c, s = [*f[::-1], *[0] * count], [m % p]
    for j in range(1, count):
        s.append(-(j * c[j] + sum(c[i] * s[j - i] for i in range(1, j))) % p)
    return s[:count]


def _linear_norm(c0: int, c1: int, f: Sequence[int], p: int) -> int:
    """The norm to F_p of c0 + c1*x, c1 != 0, in F_p[x]/(f), f monic of
    degree m: the product of c0 + c1*x_i over the roots x_i of f, which
    is (-c1)^m * f(-c0/c1)."""
    return pow(-c1, len(f) - 1, p) * _poly_eval(f, -c0 * pow(c1, -1, p), p) % p


def check_characteristic(p: int) -> None:
    """Raise unless p is an odd prime."""
    if not is_prime(p):
        raise NotPrimeError(f"p={p} is not prime")
    if p == 2:
        raise EvenCharacteristicError("p must be an odd prime")


def check_modulus(p: int, m: int, modulus: Sequence[int]) -> tuple[int, ...]:
    """The modulus with its coefficients reduced mod p; ValueError unless
    it is monic of degree m and irreducible over F_p."""
    f = tuple(c % p for c in modulus)
    if len(f) != m + 1 or f[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {m}")
    if not is_irreducible(f, p):
        raise ValueError(f"modulus {f} is reducible over F_{p}")
    return f


def check_size(p: int, m: int, size_cap: int) -> int:
    """The field size p^m; SizeCapExceededError when it exceeds size_cap."""
    r = p**m
    if r > size_cap:
        raise SizeCapExceededError(f"p^m = {r} exceeds size cap {size_cap}")
    return r


def _berlekamp_massey(s: Sequence[int], p: int) -> list[int]:
    """The connection polynomial C (low degree first, C[0] = 1, length
    L + 1 for the linear complexity L) of the shortest recurrence
    sum_i C[i] * s[k - i] = 0 mod p, k >= L, that generates s
    (Massey 1969)."""
    c, prev = [1], [1]
    size, gap, prev_d = 0, 1, 1
    for n, sn in enumerate(s):
        d = (sn + sum(c[i] * s[n - i] for i in range(1, size + 1))) % p
        if d == 0:
            gap += 1
            continue
        coef = d * pow(prev_d, -1, p) % p
        old = list(c)
        c += [0] * (len(prev) + gap - len(c))
        for i, v in enumerate(prev):
            c[i + gap] = (c[i + gap] - coef * v) % p
        if 2 * size <= n:
            size, prev, prev_d, gap = n + 1 - size, old, d, 1
        else:
            gap += 1
    return (c + [0] * size)[:size + 1]


def _diagonalize(a: Sequence[Sequence[int]], p: int) -> tuple[list, list[int], list[int]]:
    """The nondegenerate quadratic form c^T a c over F_p, a symmetric,
    written as sum_t d_t * z_t^2 with c = sum_t z_t * v_t (Lidl-Niederreiter,
    ch. 6).  Returns the pivot vectors v_t, -1/(4*d_t) for each pivot, and
    counts[w], the number of z with sum_t d_t * z_t^2 = w.

    The working matrix holds v_i^T a v_j, from v_i = e_i.  A pivot k with
    d = a_kk != 0 turns each v_j still left into v_j - (a_kj/d)*v_k, which
    leaves a_jl - a_kj*a_kl/d; where no diagonal entry is left, v_k + v_j
    for some a_kj != 0 has a_kk = 2*a_kj != 0, as p is odd."""
    m = len(a)
    a = [list(row) for row in a]
    vecs = [[int(i == j) for j in range(m)] for i in range(m)]
    left, pivots, diagonal = list(range(m)), [], []
    while left:
        k = next((i for i in left if a[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i in left for j in left if a[i][j]), (None, None))
            assert k is not None, "degenerate form"  # the trace form has rank m
            vecs[k] = [(x + y) % p for x, y in zip(vecs[k], vecs[j])]
            a[k] = [(x + y) % p for x, y in zip(a[k], a[j])]
            a[k][k] = (a[k][k] + a[k][j]) % p
        left.remove(k)
        row, inv = a[k], pow(a[k][k], -1, p)
        for i in left:
            f = row[i] * inv % p
            vecs[i] = [(x - f * y) % p for x, y in zip(vecs[i], vecs[k])]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
        pivots.append(vecs[k])
        diagonal.append(row[k])
    counts = [1] + [0] * (p - 1)  # z in F_p^0
    for d in diagonal:  # counts[w - d*z^2] summed over z in F_p
        counts = [sum(col) for col in zip(*(counts[p - s:] + counts[:p - s]
                                            for s in (d * z * z % p for z in range(p))))]
    return pivots, [-pow(4 * d, -1, p) % p for d in diagonal], counts


def _times_tables(p: int) -> list[bytes]:
    """The "times c mod p" translate tables, c in [0, p): byte v < p of
    table c is c*v mod p, the rest 0.  The residues written out p times
    hold c*v mod p at index c*v, so table c is their slice of stride c."""
    residues = bytes(range(p)) * p
    return [bytes(256)] + [residues[:c * p:c].ljust(256, b"\0") for c in range(1, p)]


def _byte_window_sum(p: int) -> Callable[[list, int], bytes]:
    """sum_i c_i * w_i mod p, slot by slot, over byte windows w_i of k
    values in [0, p), for 2(p - 1) <= 255.  Each window goes through a
    "times c_i mod p" translate and the windows are summed as one big
    int; a mod-p translate runs before a slot could exceed 255, so no
    slot ever carries into the next."""
    per_slot = 255 // (p - 1)  # reduced terms a byte holds without carrying
    mod = (bytes(range(p)) * (256 // p + 1))[:256]
    times = _times_tables(p)

    def window_sum(terms: list[tuple[int, bytes]], k: int) -> bytes:
        acc, held = 0, 0
        for c, w in terms:
            if held == per_slot:
                acc, held = int.from_bytes(acc.to_bytes(k, "little").translate(mod), "little"), 1
            acc += int.from_bytes(w.translate(times[c]), "little")
            held += 1
        return acc.to_bytes(k, "little").translate(mod)
    return window_sum


def _slot_window_sum(p: int, m: int) -> Callable[[list, int], Iterator[int]]:
    """sum_i c_i * w_i mod p, entry by entry, over at most m windows of
    values in [0, p), for primes too wide for byte slots (2(p - 1) > 255):
    byte windows for p < 256, list windows above.  Each window is one big
    int of 4-byte slots, a byte window widened into them by one slice
    assignment and a list window by ``array``; the windows are summed
    with weights c_i, and the sum is read back as an ``array`` and
    reduced: a slot holds at most m(p - 1)^2, so no slot carries into
    the next.  Where that passes 2^32 (m = 1 and p > 65536 under the
    size cap) the slots are 8 bytes wide."""
    from array import array
    code = "I" if m * (p - 1) ** 2 < 2**32 else "Q"
    width, order = array(code).itemsize, sys.byteorder
    assert m * (p - 1) ** 2 < 2 ** (8 * width)
    low = 0 if order == "little" else width - 1  # the byte of a slot that a value < 256 fills

    def widen(w: bytes | list[int]) -> bytes:
        if p >= 256:
            return array(code, w).tobytes()
        words = bytearray(width * len(w))
        words[low::width] = w
        return words

    def window_sum(terms: list[tuple[int, bytes | list[int]]], k: int) -> Iterator[int]:
        acc = sum(c * int.from_bytes(widen(w), order) for c, w in terms)
        return map(p.__rmod__, array(code, acc.to_bytes(width * k, order)))
    return window_sum


def _recurrence_fill(seed: Sequence[int], h: Sequence[int], n: int, p: int) -> Sequence[int]:
    """The first n terms (n >= len(seed) >= 2m) of the sequence with
    characteristic polynomial h (monic of degree m, low degree first)
    that starts with ``seed``, by window doubling: with c = x^t mod h,
    s[j + t] = sum_i c_i * s[j + i], so t known terms give the next
    t - m + 1 from m shifted windows of the sequence.  Then t becomes
    2t - m + 1, so the next c is c^2 * x^(1 - m) mod h."""
    m = len(h) - 1
    s = bytearray(seed) if p < 256 else list(seed)
    window_sum = _byte_window_sum(p) if 2 * (p - 1) <= 255 else _slot_window_sum(p, m)
    # x * (h_1 + h_2 x + ... + h_m x^(m-1)) = -h_0 mod h gives x^-1
    inv_h0 = pow(-h[0], -1, p)
    back = _poly_powmod([v * inv_h0 % p for v in h[1:]], m - 1, h, p)
    c = _poly_powmod([0, 1], len(s), h, p)
    while len(s) < n:
        t = len(s)
        k = min(t - m + 1, n - t)
        s.extend(window_sum([(ci, s[i:i + k]) for i, ci in enumerate(c) if ci], k))
        c = _poly_mul_mod(_poly_mul_mod(c, c, h, p), back, h, p)
    return s


def _level_tables(p: int) -> list[bytes]:
    """For each v in [0, p), the translate table that sends byte v to
    b"1" and every other byte to b"0"."""
    zeros = b"0" * 256
    return [zeros[:v] + b"1" + zeros[v + 1:] for v in range(p)]


def _level_masks(seq: bytes, p: int) -> list[int]:
    """For each v in [0, p), the int with bit k set iff seq[k] = v."""
    # int() reads the most significant digit first, so reverse to put k at bit k
    return [int(seq.translate(table)[::-1], 2) for table in _level_tables(p)]


# ----------------------------------------------------------------------
# Field context
# ----------------------------------------------------------------------

class FieldContext:
    """F_{p^m} on a fixed modulus and primitive element.

    Construction checks the parameters and finds alpha; every table is a
    ``cached_property``, built on first read and then fixed.

    Attributes
    ----------
    p, m, r : int
        Characteristic, degree and field size p^m.
    modulus : tuple[int, ...]
        Monic irreducible modulus, coefficients low degree first.
    alpha : int
        Index of the primitive element.
    trace_exp : bytes | list[int]
        Absolute trace of alpha^k for k in [0, r - 1); bytes for p < 256.
    trace_masks : list[int]
        Per trace value v, bit k set iff Tr(alpha^(k mod (r - 1))) = v,
        for k < 2(r - 1); p < 256.
    square_forms : tuple[tuple, tuple]
        Per parity e, Tr(alpha^e * x^2) diagonalised over F_p: pivot
        vectors, -1/(4*d_t) per pivot and value counts.
    prime_powers : list[int]
        alpha^(j*N) for j in [0, p - 1), N = (r - 1)/(p - 1): F_p^*.
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        check_characteristic(p)
        if m < 1:
            raise DegreeTooSmallError(f"extension degree m={m} must be >= 1")
        r = check_size(p, m, size_cap)
        self.p = p
        self.m = m
        self.r = r

        if modulus is None:
            self.modulus = next(irreducible_polynomials(p, m))
        else:
            self.modulus = check_modulus(p, m, modulus)

        self.alpha = self._find_primitive()

    # -- construction internals ----------------------------------------

    def _find_primitive(self) -> int:
        """The smallest index of multiplicative order r - 1: c^((r - 1)/q)
        != 1 for every prime q | r - 1.  For m > 1 the search starts at
        p: the constants lie in F_p^*, of order dividing p - 1 < r - 1.

        For q | p - 1, c^((r - 1)/q) is N(c)^((p - 1)/q), with N(c) =
        c^((r - 1)/(p - 1)) the norm to F_p, so those q ask only whether
        N(c) generates F_p^*.  A candidate of degree at most 1 has its
        norm from :func:`_linear_norm`, one Horner evaluation, and pays
        square-and-multiply only for the q that do not divide p - 1;
        every other candidate tests every q by square-and-multiply."""
        p, m, f = self.p, self.m, self.modulus
        rm1 = self.r - 1
        primes = prime_factors(rm1)
        cofactors = [rm1 // q for q in primes]
        outer = [rm1 // q for q in primes if (p - 1) % q]
        inner = [(p - 1) // q for q in primes if (p - 1) % q == 0]
        one = [1] + [0] * (m - 1)
        for cand in range(p if m > 1 else 2, self.r):
            c = self.coeffs(cand)
            tested = cofactors
            if cand < p * p:  # c0 at m = 1, else c0 + c1*x with c1 != 0
                norm = c[0] if m == 1 else _linear_norm(c[0], c[1], f, p)
                if any(pow(norm, e, p) == 1 for e in inner):
                    continue
                tested = outer
            if all(_poly_powmod(c, cf, f, p) != one for cf in tested):
                return cand
        raise AssertionError("no primitive element found")  # unreachable

    @cached_property
    def trace_exp(self) -> bytes | list[int]:
        """Tr(alpha^k) for k in [0, r - 1): ``bytes`` for p < 256, a list
        above.  Tr(a*x) for nonzero a, x is trace_exp at log a + log x,
        mod r - 1, so sums and codewords read rotated slices of it.

        The traces of alpha^k for k < 2m seed the fill, and Berlekamp-Massey
        on them finds its characteristic polynomial h, alpha's minimal
        polynomial (Lidl-Niederreiter, ch. 8).  m consecutive traces fix
        alpha^k (the trace form is nondegenerate), so their linear
        complexity is m, and the m terms at k repeat those at 0 exactly
        when alpha^k = 1: at k = r - 1, and at no (r - 1)/q.  The terms at
        k = 1, (r - 1)/2 and r - 2 are checked by square-and-multiply."""
        p, m, rm1, f = self.p, self.m, self.r - 1, self.modulus
        a, power, seed = self.coeffs(self.alpha), [1] + [0] * (m - 1), []
        basis = power_sums(f, p, m)  # Tr(c) = sum_i c_i * Tr(x^i)
        for _ in range(2 * m):
            seed.append(sum(map(operator.mul, power, basis)) % p)
            power = _poly_mul_mod(power, a, f, p)
        conn = _berlekamp_massey(seed, p)
        if len(conn) != m + 1:
            raise AssertionError(f"linear complexity {len(conn) - 1} != m = {m}")
        s = _recurrence_fill(seed, conn[::-1], rm1 + m, p)
        start = s[:m]
        if s[rm1:] != start or any(s[rm1 // q:rm1 // q + m] == start
                                   for q in prime_factors(rm1)):
            raise AssertionError("primitive element order check failed")
        for k in (1, rm1 // 2, rm1 - 1):
            if s[k] != sum(map(operator.mul, _poly_powmod(a, k, f, p), basis)) % p:
                raise AssertionError(f"recurrence fill differs from alpha^{k}")
        del s[rm1:]
        return bytes(s) if p < 256 else s

    @cached_property
    def trace_masks(self) -> list[int]:
        """The p linear masks: bit k of trace_masks[v] is set iff
        Tr(alpha^(k mod (r - 1))) = v, for k < 2(r - 1), so
        ``trace_masks[v] >> l`` reads Tr(alpha^(l + k)) = v at bit k.
        Needs p < 256, one byte per trace value."""
        return _level_masks(self.trace_exp * 2, self.p)

    @cached_property
    def square_forms(self) -> tuple[tuple, tuple]:
        """For each parity e, :func:`_diagonalize` of Tr(alpha^e * x^2)
        on the basis alpha^i, x = sum_i c_i * alpha^i: its Gram matrix is
        the Hankel matrix trace_exp[e + i + j] (e + 2m - 2 < r - 1).
        ``square_forms[e]`` is (pivot vectors, -1/(4*d_t) per pivot,
        value counts); only the quadratic sums read it."""
        te, m = self.trace_exp, self.m
        return tuple(_diagonalize([te[e + i:e + i + m] for i in range(m)], self.p)
                     for e in (0, 1))

    @cached_property
    def prime_powers(self) -> list[int]:
        """alpha^(j*N) for j in [0, p - 1), N = (r - 1)/(p - 1): the powers
        of g = alpha^N, a generator of F_p^*, from one ``_poly_powmod``."""
        p = self.p
        g = _poly_powmod(self.coeffs(self.alpha), (self.r - 1) // (p - 1), self.modulus, p)[0]
        return [pow(g, j, p) for j in range(p - 1)]

    def power(self, k: int) -> int:
        """The index of alpha^k, by square-and-multiply: for naming an
        element in a report, not for walking the field."""
        return self.index(_poly_powmod(self.coeffs(self.alpha), k, self.modulus, self.p))

    def prime_log(self, c: int) -> int:
        """The log to base alpha of c mod p, a nonzero prime-field value:
        N times its log to base g = alpha^N."""
        return (self.r - 1) // (self.p - 1) * self.prime_powers.index(c % self.p)

    # -- element encoding ----------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Base-p digits of the index = polynomial-basis coefficients."""
        out = []
        for _ in range(self.m):
            x, c = divmod(x, self.p)
            out.append(c)
        return tuple(out)

    def index(self, coeffs: Sequence[int]) -> int:
        s = 0
        for c in reversed(coeffs):
            s = s * self.p + (c % self.p)
        return s

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return self.index([u + v for u, v in zip(self.coeffs(x), self.coeffs(y))])

    def mul(self, x: int, y: int) -> int:
        return self.index(_poly_mul_mod(self.coeffs(x), self.coeffs(y), self.modulus, self.p))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={self.modulus})"


def make_field(p: int, m: int, modulus: Sequence[int] | None = None,
               size_cap: int = DEFAULT_SIZE_CAP) -> FieldContext:
    """Construct F_{p^m} deterministically.

    Without an explicit modulus this picks the lexicographically first
    monic irreducible polynomial, so two calls with the same arguments
    produce identical element encodings.
    """
    return FieldContext(p, m, modulus=modulus, size_cap=size_cap)
