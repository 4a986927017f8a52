"""Exact arithmetic in F_p and its extensions F_{p^m}, p an odd prime.

Elements are plain integers in ``[0, r)`` with ``r = p^m``: the base-p
digits of the index are the coefficients of the polynomial-basis
representative, low degree first.  Index 0 is the additive identity,
index 1 the multiplicative identity, and the indices below p are exactly
the prime subfield.

A :class:`FieldContext` fixes the modulus polynomial and a primitive
element and precomputes power, discrete-log and trace tables, so that
multiplication, inversion, the absolute trace and the quadratic
character are all O(1) lookups.  Addition is a lookup as well: reading
the base-p digits of an index in base 2p - 1 (its "spread") makes the
digit-wise sum of two elements a plain integer sum with no carries, and
two half-tables of size at most (2p - 1)^ceil(m/2) map such a sum back
to an index.  The same encoding drives the power walk, since
multiplication by the primitive element is F_p-linear, so the tables
are built in time linear in p^m.  Construction is deterministic: the
default modulus is the lexicographically first monic irreducible
polynomial (tail coefficients read low-degree-first as a base-p
integer) and the primitive element is the smallest index of full
multiplicative order.  Contexts are immutable after construction and
safe to share between threads or worker processes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional, Sequence

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
    if len(prod) < m:
        prod = list(prod) + [0] * (m - len(prod))
    return list(prod[:m])


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
    x = [0, 1]
    frob = {}
    g = list(x)
    for k in range(1, m + 1):
        g = _poly_powmod(g, p, f, p)
        frob[k] = g
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


def irreducible_polynomials(p: int, m: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducible degree-m polynomials over F_p, in lexicographic
    order of the tail coefficients (read low-degree-first as a base-p
    integer).  Coefficient tuples are low degree first, length m+1."""
    for tail in range(p**m):
        coeffs = []
        t = tail
        for _ in range(m):
            t, c = divmod(t, p)
            coeffs.append(c)
        coeffs.append(1)
        if is_irreducible(coeffs, p):
            yield tuple(coeffs)


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


def _digit_table(digits: int, radix: int, base: int, p: int, scale: int = 1) -> list[int]:
    """Entry i: the ``digits`` base-``radix`` digits of i, each taken mod
    p, read in base ``base`` and multiplied by ``scale``."""
    table = [0]
    weight = scale
    for _ in range(digits):
        table = [v + (c % p) * weight for c in range(radix) for v in table]
        weight *= base
    return table


# ----------------------------------------------------------------------
# Field context
# ----------------------------------------------------------------------

class FieldContext:
    """A fully constructed F_{p^m} with dense lookup tables.

    Attributes
    ----------
    p, m, r, m_p : int
        Characteristic, degree, field size p^m and m reduced mod p.
    modulus : tuple[int, ...]
        Monic irreducible modulus, coefficients low degree first.
    alpha : int
        Index of the primitive element.
    exp, log : list[int]
        Power and discrete-log tables for alpha (log[0] is -1).
    trace_table : list[int]
        Absolute trace of every element, as a prime-field value.
    trace_exp : list[int]
        Absolute trace of alpha^k for k in [0, r - 1), built on first use.
    """

    def __init__(self, p: int, m: int, modulus: Optional[Sequence[int]] = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        check_characteristic(p)
        if m < 1:
            raise DegreeTooSmallError(f"extension degree m={m} must be >= 1")
        r = check_size(p, m, size_cap)
        self.p = p
        self.m = m
        self.r = r
        self.m_p = m % p

        if modulus is None:
            self.modulus = next(irreducible_polynomials(p, m))
        else:
            self.modulus = check_modulus(p, m, modulus)

        self.alpha = self._find_primitive()
        self._build_spread_tables()
        self._build_power_tables()
        self._build_trace_table()

    # -- construction internals ----------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free multiply, used only while the tables are being built."""
        p, m, f = self.p, self.m, self.modulus
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = _poly_mul_mod(ca, cb, f, p)
        return self.index(prod)

    def _find_primitive(self) -> int:
        """The smallest index of multiplicative order r - 1.  For m > 1 the
        search starts at p: the constants lie in F_p^*, of order dividing
        p - 1 < r - 1."""
        p, m, f = self.p, self.m, self.modulus
        rm1 = self.r - 1
        cofactors = [rm1 // q for q in prime_factors(rm1)]
        one = [1] + [0] * (m - 1)
        for cand in range(p if m > 1 else 2, self.r):
            c = self.coeffs(cand)
            if all(_poly_powmod(c, cf, f, p) != one for cf in cofactors):
                return cand
        raise AssertionError("no primitive element found")  # unreachable

    def _build_spread_tables(self) -> None:
        p, m = self.p, self.m
        self._h = h = (m + 1) // 2  # digits in the low half of an index
        base = 2 * p - 1
        self._ph = p**h
        self._bh = base**h
        # spread: base-p digits of an index reread in base 2p - 1
        self._sl = _digit_table(h, p, base, p)
        self._sh = _digit_table(m - h, p, base, p, self._bh)
        # reduce: base-(2p - 1) digits taken mod p and read in base p
        self._rl = _digit_table(h, base, p, p)
        self._rh = _digit_table(m - h, base, p, p, self._ph)
        # every digit p - d of _neg_base - spread(x) lies in [1, p]
        self._neg_base = sum(p * base**j for j in range(m))

    def _spread(self, x: int) -> int:
        return self._sl[x % self._ph] + self._sh[x // self._ph]

    def _reduce(self, s: int) -> int:
        return self._rl[s % self._bh] + self._rh[s // self._bh]

    def _build_power_tables(self) -> None:
        # t -> alpha*t is F_p-linear: with t = lo + hi*p^h, tabulate the
        # spread images of alpha*lo and of alpha*hi*x^h from the images
        # of c*x^j, then each step of the walk is two lookups and a reduce
        p, m, r, h = self.p, self.m, self.r, self._h
        rows = [[self._spread(self._mul_raw(self.alpha, c * p**j)) for c in range(p)]
                for j in range(m)]
        low, high = self._linear_table(rows[:h]), self._linear_table(rows[h:])
        ph, bh, rl, rh = self._ph, self._bh, self._rl, self._rh
        rm1 = r - 1
        exp = [0] * rm1
        log = [-1] * r
        cur = 1
        for k in range(rm1):
            exp[k] = cur
            log[cur] = k
            s = low[cur % ph] + high[cur // ph]
            cur = rl[s % bh] + rh[s // bh]
        if cur != 1:
            raise AssertionError("primitive element order check failed")
        self.exp = exp
        self.log = log

    def _linear_table(self, rows: list[list[int]]) -> list[int]:
        """Spread images of every digit vector, by linearity: entry i sums
        rows[j][c_j] over the base-p digits c_j of i."""
        table = [0]
        for row in rows:
            table = [self._spread(self._reduce(v + u)) for u in row for v in table]
        return table

    def _build_trace_table(self) -> None:
        p, m = self.p, self.m
        table = [0]
        for j in range(m):
            # Tr(x^j) = sum over k of the conjugates (x^j)^(p^k)
            bt = x_j = p**j
            for k in range(1, m):
                bt = self.add(bt, self.pow(x_j, p**k))
            if bt >= p:
                raise AssertionError("trace left the prime subfield")
            table = [(v + c * bt) % p for c in range(p) for v in table]
        self.trace_table = table

    @cached_property
    def trace_exp(self) -> list[int]:
        """Tr(alpha^k) for k in [0, r - 1).  With N = r - 1, the trace of
        a*x for nonzero a, x is trace_exp[(log a + log x) % N], so sums
        and codewords over F_r^* read rotated slices of this one list."""
        return list(map(self.trace_table.__getitem__, self.exp))

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

    def element(self, c: int) -> int:
        """Embed a prime-field value as a field element (a constant)."""
        return c % self.p

    # -- arithmetic ------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        ph, sl, sh = self._ph, self._sl, self._sh
        s = sl[x % ph] + sh[x // ph] + sl[y % ph] + sh[y // ph]
        return self._rl[s % self._bh] + self._rh[s // self._bh]

    def neg(self, x: int) -> int:
        return self._reduce(self._neg_base - self._spread(x))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        rm1 = self.r - 1
        t = self.log[x] + self.log[y]
        if t >= rm1:
            t -= rm1
        return self.exp[t]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        rm1 = self.r - 1
        return self.exp[(rm1 - self.log[x]) % rm1]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        rm1 = self.r - 1
        return self.exp[(self.log[x] * e) % rm1]

    # -- trace and quadratic character -----------------------------------

    def trace(self, x: int) -> int:
        """Absolute trace down to F_p, as an integer in [0, p)."""
        return self.trace_table[x]

    def quadratic_character(self, x: int) -> int:
        """0 at zero, +1 on nonzero squares, -1 on non-squares."""
        if x == 0:
            return 0
        return 1 if self.log[x] % 2 == 0 else -1

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={self.modulus})"


def make_field(p: int, m: int, modulus: Optional[Sequence[int]] = None,
               size_cap: int = DEFAULT_SIZE_CAP) -> FieldContext:
    """Construct F_{p^m} deterministically.

    Without an explicit modulus this picks the lexicographically first
    monic irreducible polynomial, so two calls with the same arguments
    produce identical element encodings.
    """
    return FieldContext(p, m, modulus=modulus, size_cap=size_cap)
