"""Exact arithmetic in Z[zeta_p], the ring of p-th cyclotomic integers.

Values are stored on the canonical basis 1, zeta, ..., zeta^{p-2} with
the reduction zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2}), so equality
is coefficient-wise and decidable.  This is the value domain for every
character sum in the package, and every comparison in it is exact.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import MixedRootOrderError


class CyclotomicInteger:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for order {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(map(int, coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicInteger is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInteger":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, n: int) -> "CyclotomicInteger":
        coeffs = [0] * (p - 1)
        coeffs[0] = n
        return cls(p, coeffs)

    @classmethod
    def zeta_power(cls, p: int, k: int) -> "CyclotomicInteger":
        counts = [0] * p
        counts[k % p] = 1
        return cls.from_exponent_counts(p, counts)

    @classmethod
    def from_exponent_counts(cls, p: int, counts: Sequence[int]) -> "CyclotomicInteger":
        """Build sum(counts[k] * zeta^k for k in range(p)) in canonical form."""
        if len(counts) != p:
            raise ValueError(f"need {p} exponent counts for order {p}")
        top = counts[p - 1]
        return cls(p, [counts[i] - top for i in range(p - 1)])

    # -- ring operations --------------------------------------------------

    def _check(self, other: "CyclotomicInteger") -> None:
        if self.p != other.p:
            raise MixedRootOrderError(f"orders {self.p} and {other.p} differ")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.p, other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check(other)
        return CyclotomicInteger(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInteger(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.p, other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.p, [a * other for a in self.coeffs])
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check(other)
        p = self.p
        counts = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        counts[(i + j) % p] += a * b
        return CyclotomicInteger.from_exponent_counts(p, counts)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = CyclotomicInteger.from_int(self.p, 1)
        b = self
        while e:
            if e & 1:
                result = result * b
            e >>= 1
            if e:
                b = b * b
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    # -- queries -----------------------------------------------------------

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation, zeta^k |-> zeta^(-k)."""
        counts = (*self.coeffs, 0)
        return CyclotomicInteger.from_exponent_counts(self.p, [counts[-k] for k in range(self.p)])

    def __repr__(self):
        return f"CyclotomicInteger(p={self.p}, coeffs={self.coeffs})"
