"""Closed-form predictions for the trace-defined codes, as exact integers.

Everything here is a pure function of (p, m) and small prime-field
data.  The quadratic Gauss sum over F_{p^m} is (-1)^(m-1) * g^m, with g
the Gauss sum over F_p and g^2 = eta(-1) * p.  It enters alone only
when m is even (the integer -(eta(-1) * p)^(m/2)) and always paired
with g when m is odd (the integer (eta(-1) * p)^((m+1)/2)), so no
irrational value ever materializes; the signs eps, eps1 and eps2 of
the expanded patterns are powers of eta(-1) too.

The four parameter regimes, numbered 1-4, are set by the parity of m
and by whether p divides m.
"""

from __future__ import annotations

import itertools
from functools import cache

from .codes import CodeSummary, CompleteWeightEnumerator, WeightDistribution
from .errors import DegreeTooSmallError, FrequencyMismatchError
from .fields import legendre


# ----------------------------------------------------------------------
# Regimes and exact Gauss-sum integers
# ----------------------------------------------------------------------

def parameter_regime(p: int, m: int) -> int:
    """Which of the four closed-form regimes (p, m) falls into: 1 or 2
    for even m, 3 or 4 for odd m, the lower one when p divides m."""
    if m <= 2:
        raise DegreeTooSmallError("closed forms need extension degree m > 2")
    return (1 if m % 2 == 0 else 3) + (m % p != 0)


def gauss_int(p: int, m: int) -> int:
    """The quadratic Gauss sum over F_{p^m} as an integer (even m only)."""
    if m % 2:
        raise ValueError(f"the Gauss sum over F_{p}^{m} is irrational: m is odd")
    return -(legendre(-1, p) * p) ** (m // 2)


def gauss_pair_int(p: int, m: int) -> int:
    """Product of the quadratic Gauss sums over F_{p^m} and F_p as an
    integer (odd m only)."""
    if m % 2 == 0:
        raise ValueError(f"the Gauss-sum pair over F_{p}^{m} is irrational: m is even")
    return (legendre(-1, p) * p) ** ((m + 1) // 2)


def _exact_div(a: int, b: int) -> int:
    if a % b:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return a // b


# ----------------------------------------------------------------------
# Counting x by the pair (Tr(x^2), Tr(x))
# ----------------------------------------------------------------------

def trace_pair_count_closed(p: int, m: int, sq_value: int, trace_value: int) -> int:
    """Closed-form count of x in F_{p^m} with Tr(x^2) = sq_value and
    Tr(x) = trace_value."""
    if m < 2:
        raise DegreeTooSmallError("trace-pair counts need m >= 2")
    A = sq_value % p
    B = trace_value % p
    mp = m % p
    base = p ** (m - 2)
    even = (m % 2 == 0)
    if A == 0:
        if even:
            if mp == 0:
                return base + _exact_div((p - 1) * gauss_int(p, m), p) if B == 0 else base
            return base if B == 0 else base + _exact_div(gauss_int(p, m), p)
        if mp == 0:
            return base
        gg = gauss_pair_int(p, m)
        eta = legendre(-mp, p)
        if B == 0:
            return base + _exact_div(eta * (p - 1) * gg, p * p)
        return base - _exact_div(eta * gg, p * p)
    if even:
        if mp == 0:
            return base - _exact_div(gauss_int(p, m), p) if B == 0 else base
        delta = (B * B - mp * A) % p
        if delta == 0:
            return base
        return base + _exact_div(legendre(delta, p) * gauss_int(p, m), p)
    if mp == 0:
        if B == 0:
            return base + _exact_div(legendre(-A, p) * gauss_pair_int(p, m), p)
        return base
    gg = gauss_pair_int(p, m)
    eta = legendre(-mp, p)
    delta = (B * B - mp * A) % p
    if delta == 0:
        return base + _exact_div(eta * (p - 1) * gg, p * p)
    return base - _exact_div(eta * gg, p * p)


def predicted_length(p: int, m: int) -> int:
    """Length of the code on {x : Tr(x) = 1, Tr(x^2) = 0}."""
    if m <= 2:
        raise DegreeTooSmallError("code construction needs extension degree m > 2")
    return trace_pair_count_closed(p, m, 0, 1)


# ----------------------------------------------------------------------
# Symbol-count decomposition for a single codeword
# ----------------------------------------------------------------------
#
# A nonzero codeword index a enters only through its trace profile, the
# tuple (Tr(a^2), Tr(a), prime_value) of values in F_p, with prime_value
# a itself when a lies in F_p and None otherwise: codewords with equal
# profiles have equal symbol counts.  Below, A = Tr(a^2), B = Tr(a) and
# the discriminant is B^2 - m_p*A.
#
# The number of coordinates equal to rho is
#
#     N_rho = n/p + (S_lin + S_sq + S_mix) / p^3,
#
# where S_lin couples only the defining trace constraint, S_sq only the
# trace-square constraint, and S_mix all three (character orthogonality
# kills the fourth term).  Each S sums zeta^(d*(Tr(ax) - rho)) over d in
# F_p^*, and summed over rho that is (p - 1) - (p - 1) = 0 for every x:
# each correction sums to 0 over F_p, so its value at rho = 0 is minus
# the sum of the others, and N_0 = n - sum of N_rho over rho != 0.

def _spike(p: int, rest: int, at: int, *rhos: int) -> list[int]:
    """The p - 1 values over rho = 1, ..., p - 1 that are ``at`` on each
    of ``rhos`` and ``rest`` on every other nonzero symbol."""
    counts = [rest] * (p - 1)
    for rho in rhos:
        counts[rho - 1] = at
    return counts


@cache
def _count_constants(p: int, m: int) -> tuple[int, int, tuple[int, ...]]:
    """n, the Gauss integer (g^m for even m, the pair g^m * g for odd m)
    and the table of legendre(t, p) for t in [0, p), once per (p, m)."""
    g = gauss_int(p, m) if m % 2 == 0 else gauss_pair_int(p, m)
    return predicted_length(p, m), g, tuple(legendre(t, p) for t in range(p))


def _corrections(p: int, m: int, prof: tuple) -> tuple[int, list[int]]:
    """S_sq, constant over rho != 0, and the row of S_mix over rho = 1,
    ..., p - 1.  Each case of S_mix is constant, a spike at the one rho
    where its condition holds, or chi of a polynomial in rho, where
    chi(0) = 0 gives the value at the polynomial's roots."""
    _, g, chi = _count_constants(p, m)
    A, B, _ = prof
    mp, syms = m % p, range(1, p)
    if m % 2 == 0:
        s_sq = -(p - 1) * g if A == 0 else g
        hit, miss = (p * p - p - 1) * g, -(p + 1) * g
        delta = (B * B - mp * A) % p
        if mp == 0:
            if A == 0 and B == 0:
                mix = [(p - 1) * g] * (p - 1)
            elif A == 0 or B == 0:
                mix = [-g] * (p - 1)
            else:  # A == 2*rho*B
                mix = _spike(p, miss, hit, A * pow(2 * B, -1, p) % p)
        elif A == 0:
            mix = [-g] * (p - 1) if B == 0 else _spike(p, miss, hit, 2 * B * pow(mp, -1, p) % p)
        elif delta == 0:  # rho*B == A
            mix = _spike(p, miss, hit, A * pow(B, -1, p) % p)
        elif chi[delta] == 1:  # -m_p*rho^2 + 2*B*rho - A vanishes at two rho
            mix = [(p * p - 2 * p - 1) * g if (2 * B * rho - mp * rho * rho - A) % p == 0
                   else -(2 * p + 1) * g for rho in syms]
        else:
            mix = [-g] * (p - 1)
    else:
        s_sq = 0 if A == 0 else -chi[-A % p] * g
        eta = chi[-mp % p]
        if mp == 0:
            if A == 0 and B == 0:
                mix = [0] * (p - 1)
            elif A == 0:
                mix = [chi[rho * B * pow(2, -1, p) % p] * p * g for rho in syms]
            elif B == 0:
                mix = [chi[-A % p] * g] * (p - 1)
            else:
                mix = [(chi[(2 * rho * B - A) % p] * p + chi[-A % p]) * g for rho in syms]
        elif A == 0:
            mix = [eta * g] * (p - 1) if B == 0 else \
                [(chi[(2 * B * rho - mp * rho * rho) % p] * p + eta) * g for rho in syms]
        elif (B * B - mp * A) % p == 0:  # rho*B == A
            mix = _spike(p, 2 * eta * g, -(p - 2) * eta * g, A * pow(B, -1, p) % p)
        else:
            mix = [(p * chi[(2 * B * rho - mp * rho * rho - A) % p] + chi[-A % p] + eta) * g
                   for rho in syms]
    return s_sq, mix


def correction_rows(p: int, m: int, prof: tuple) -> tuple[list[int], list[int], list[int]]:
    """The three exact integer corrections S_lin, S_sq and S_mix of the
    decomposition above, each as a row over rho = 0, ..., p - 1, for any
    nonzero a with the given trace profile."""
    s_sq, mix = _corrections(p, m, prof)
    r, pv = p**m, prof[2]
    lin = [0] * (p - 1) if pv is None else _spike(p, -r, (p - 1) * r, pv)
    return tuple([-sum(row), *row] for row in (lin, [s_sq] * (p - 1), mix))


def symbol_counts_closed(p: int, m: int, prof: tuple) -> list[int]:
    """Exact closed-form counts of coordinates equal to rho, for rho =
    0, ..., p - 1, in the codeword of any nonzero a with the given trace
    profile, with n, the Gauss integer and the character table computed
    once per (p, m)."""
    n = _count_constants(p, m)[0]
    s_sq, mix = _corrections(p, m, prof)
    r, pv = p**m, prof[2]
    base = n * p * p + s_sq - (r if pv is not None else 0)
    totals = [base + s for s in mix]
    if pv is not None:
        totals[pv - 1] += p * r  # S_lin = (p - 1)*r at rho = pv, -r elsewhere
    # the rows take a handful of values: divide each one once
    quotient = {t: _exact_div(t, p**3) for t in set(totals)}
    counts = list(map(quotient.__getitem__, totals))
    return [n - sum(counts), *counts]


# ----------------------------------------------------------------------
# Counting (A, B) pairs by discriminant and by the character of A
# ----------------------------------------------------------------------

def discriminant_pair_counts(p: int, m_p: int) -> dict[str, int]:
    """Counts over pairs (A, B), A in F_p^* and B in F_p, by their
    discriminant D = B^2 - m_p*A: D a nonzero square, a non-square or
    zero, and, among pairs with D != 0, A a square or a non-square."""
    if m_p % p == 0:
        raise ValueError("the discriminant split requires p not dividing m")
    t_plus = (p - 1) * (p - 2) // 2
    t_minus = (p - 1) * p // 2
    if legendre(m_p, p) == 1:
        a_sq, a_non = t_plus, t_minus
    else:
        a_sq, a_non = t_minus, t_plus
    return {"disc_square": t_plus, "disc_nonsquare": t_minus, "disc_zero": p - 1,
            "a_square": a_sq, "a_nonsquare": a_non}


# ----------------------------------------------------------------------
# Full complete-weight-enumerator prediction
# ----------------------------------------------------------------------

def _base_row(row: list[int]) -> tuple[tuple[int, ...], int, int]:
    """A base row over t in F_p as its patterns read it: written out
    twice, with its sum and its minimum."""
    return tuple(row) * 2, sum(row), min(row)


def _expand_terms(p: int, m: int) -> tuple[int, dict]:
    regime = parameter_regime(p, m)
    n = predicted_length(p, m)
    q3 = p ** (m - 3)
    pairs: list[tuple[tuple[int, ...], int]] = []  # (composition, frequency) in turn

    def add(freq: int, base: tuple, rho0: int) -> None:
        """Count ``freq`` codewords with row[(rho - rho0) % p] coordinates
        equal to rho, for rho = 1, ..., p - 1, and symbol 0 on the rest of
        n, for the base row (doubled, total, low) of :func:`_base_row`.  The
        slice omits only t = -rho0: its sum is total - doubled[p - rho0]."""
        if freq < 0:
            raise FrequencyMismatchError(f"negative pattern frequency {freq}")
        if freq == 0:
            return
        doubled, total, low = base
        counts = doubled[p + 1 - rho0:2 * p - rho0]
        if low < 0 and min(counts) < 0:
            raise FrequencyMismatchError(f"negative symbol count {min(counts)}")
        zero = n - total + doubled[p - rho0]
        if zero < 0:
            raise FrequencyMismatchError("symbol counts exceed the length")
        pairs.append(((zero,) + counts, freq))

    # every pattern is a base row over t in F_p read at t = rho - rho0: a
    # constant, a spike at t = 0 (and at t = rho1 - rho0), or q3 plus a
    # character of t, where chi[0] = 0 gives q3 at the argument's roots
    syms = range(1, p)
    chi = [legendre(t, p) for t in range(p)]
    eps = legendre(-1, p) ** ((m + 1) // 2)  # eps for even m, eps1 for odd m
    add(1, _base_row([0] * p), 0)  # a = 0
    whole = _base_row([n, *_spike(p, 0, n)])
    for rho0 in syms:  # a in F_p^*: every coordinate of the codeword is rho0
        add(1, whole, rho0)

    if regime == 1:
        t = p ** ((m - 4) // 2)
        hit = q3 - (p - 1) * eps * t
        spike = _base_row([hit, *_spike(p, q3 + eps * t, hit)])
        add(p ** (m - 1) - p, _base_row([q3] * p), 0)
        add((p - 1) * p ** (m - 2), _base_row([q3 + eps * t] * p), 0)
        for rho0 in syms:
            add((p - 1) * p ** (m - 2), spike, rho0)

    elif regime == 2:
        u = eps * p ** ((m - 4) // 2)
        big = eps * p ** ((m - 2) // 2)
        hit = q3 - (p - 1) * u
        drop = _base_row([q3 - big, *_spike(p, q3, q3 - big)])
        spike = _base_row([hit, *_spike(p, q3 + u, hit)])
        # the second hit at t = k: read at rho0 for the pair (rho0, rho0 + k)
        two = {k: _base_row([hit, *_spike(p, q3 + u, hit, k)]) for k in syms}
        add(p ** (m - 2) - 1, _base_row([q3] * p), 0)
        add((p - 1) * (p ** (m - 1) + eps * p ** (m // 2)) // 2, _base_row([q3 - u] * p), 0)
        for rho0 in syms:
            add(p ** (m - 2) - 1, drop, rho0)
            add(n, spike, rho0)
        for rho0, rho1 in itertools.combinations(syms, 2):
            add(n, two[rho1 - rho0], rho0)

    elif regime == 3:
        s = eps * p ** ((m - 3) // 2)
        half = (p - 1) * p ** (m - 2) // 2
        plus = _base_row([q3 + chi[t] * s for t in range(p)])
        minus = _base_row([q3 - chi[t] * s for t in range(p)])
        add(p ** (m - 1) - p, _base_row([q3] * p), 0)
        for rho0 in range(p):  # q3 +- chi(rho - rho0) * s
            add(half, plus, rho0)
            add(half, minus, rho0)

    else:
        theta = legendre(-(m % p), p) * eps
        ts = theta * p ** ((m - 3) // 2)
        freq2 = n + theta * p ** ((m - 1) // 2) - 1
        mp2 = (m % p) ** 2
        # q3 + chi(t(t - k)) * ts for each k, and q3 + chi(m_p^2 t^2 -
        # delta) * ts for each non-square delta
        pair = [_base_row([q3 + chi[t * (t - k) % p] * ts for t in range(p)])
                for k in range(p)]
        disc = [_base_row([q3 + chi[(mp2 * t * t - delta) % p] * ts for t in range(p)])
                for delta in syms if chi[delta] == -1]
        drop = _base_row([q3 - ts, *_spike(p, q3, q3 - ts)])
        add(freq2, _base_row([q3] * p), 0)
        for rho0 in syms:  # chi(rho(rho - rho0))
            add(n, pair[rho0], 0)
            add(freq2, drop, rho0)
        for rho0, rho1 in itertools.combinations(syms, 2):  # chi((rho - rho0)(rho - rho1))
            add(n, pair[rho1 - rho0], rho0)
        for row in disc:  # chi(m_p^2 rho^2 - delta)
            add(n, row, 0)
        # chi(m_p^2 (rho - rho0)^2 - delta): at rho = rho0 the argument is
        # -delta, and chi(-delta) = -chi(-1) makes the value
        # q3 - chi(m_p) * eps1 * p^((m - 3)/2)
        for rho0 in syms:
            for row in disc:
                add(n, row, rho0)

    terms = dict(pairs)  # one hash per composition
    if len(terms) < len(pairs):  # a composition repeats: sum its frequencies
        terms = {}
        for key, freq in pairs:
            terms[key] = terms.get(key, 0) + freq
    return n, terms


def predict_cwe(p: int, m: int) -> CompleteWeightEnumerator:
    """Closed-form complete weight enumerator of the code on
    {x : Tr(x) = 1, Tr(x^2) = 0}, expanded into explicit terms.

    Value patterns are indexed by unordered symbol pairs; frequencies
    that do not total p^m raise FrequencyMismatchError.
    """
    n, terms = _expand_terms(p, m)
    total = sum(terms.values())
    if total != p**m:
        raise FrequencyMismatchError(f"enumerator frequencies total {total}, not {p**m}")
    return CompleteWeightEnumerator(p=p, n=n, terms=terms)


def predict_weight_distribution(p: int, m: int) -> WeightDistribution:
    """Closed-form weight distribution (the per-regime frequency tables)."""
    regime = parameter_regime(p, m)
    mp = m % p
    n = predicted_length(p, m)
    q3 = p ** (m - 3)
    rows: list[tuple[int, int]] = [(0, 1)]

    if regime == 1:
        eps = legendre(-1, p) ** (m // 2)
        t = p ** ((m - 4) // 2)
        rows += [
            (p ** (m - 2), p - 1),
            ((p - 1) * q3, p ** (m - 1) - p),
            ((p - 1) * (q3 + eps * t), (p - 1) * p ** (m - 2)),
            ((p - 1) * q3 - eps * t, (p - 1) ** 2 * p ** (m - 2)),
        ]
    elif regime == 2:
        eps = legendre(-1, p) ** (m // 2)
        u = eps * p ** ((m - 4) // 2)
        rows += [
            ((p - 1) * q3, p ** (m - 2) - 1),
            ((p - 1) * (q3 - u), (p - 1) * (p ** (m - 1) + eps * p ** (m // 2)) // 2),
            (n, p - 1),
            (n - q3, (p - 1) * (p ** (m - 2) - 1)),
            ((p - 1) * q3 - u, (p - 1) * n),
            ((p - 1) * q3 - (p + 1) * u, (p - 1) * (p - 2) * n // 2),
        ]
    elif regime == 3:
        step = p ** ((m - 3) // 2)
        rows += [
            (p ** (m - 2), p - 1),
            ((p - 1) * q3, 2 * p ** (m - 1) - p ** (m - 2) - p),
            ((p - 1) * q3 - step, (p - 1) ** 2 * p ** (m - 2) // 2),
            ((p - 1) * q3 + step, (p - 1) ** 2 * p ** (m - 2) // 2),
        ]
    else:
        eps1 = legendre(-1, p) ** ((m + 1) // 2)
        eps2 = legendre(-1, p) ** ((m - 1) // 2)
        theta = legendre(-mp, p) * eps1
        step = p ** ((m - 3) // 2)
        big = theta * p ** ((m - 1) // 2)
        if legendre(mp, p) == 1:
            f4 = (p - 1) * (p - 2) * n // 2
            f5 = (p - 1) * p * n // 2
        else:
            f4 = (p - 1) * p * n // 2
            f5 = (p - 1) * (p - 2) * n // 2
        rows += [
            ((p - 1) * q3, n + big - 1),
            (n, p - 1),
            (n - q3, (p - 1) * (2 * n + big - 1)),
            (n - q3 - eps2 * step, f4),
            (n - q3 + eps2 * step, f5),
        ]

    counts: dict[int, int] = {}
    for w, freq in rows:
        if freq < 0:
            raise FrequencyMismatchError(f"negative table frequency {freq} at weight {w}")
        if freq:
            counts[w] = counts.get(w, 0) + freq
    if sum(counts.values()) != p**m:
        raise FrequencyMismatchError("table frequencies do not sum to p^m")
    return WeightDistribution(n=n, k=m, counts=counts)


# ----------------------------------------------------------------------
# Optimality classification
# ----------------------------------------------------------------------

def classify_optimality(p: int, m: int) -> CodeSummary:
    """Predicted [n, k, d] with Griesmer and MDS classification; the
    minimum distance is the smallest positive-frequency table weight."""
    return predict_weight_distribution(p, m).summary(p)


class CwePrediction:
    """Everything the closed forms say about the code for one (p, m)."""

    __slots__ = ("p", "m", "regime", "n", "k", "cwe", "wd", "summary")

    def __init__(self, p: int, m: int, regime: int, n: int, k: int,
                 cwe: CompleteWeightEnumerator, wd: WeightDistribution, summary: CodeSummary):
        self.p = p
        self.m = m
        self.regime = regime
        self.n = n
        self.k = k
        self.cwe = cwe
        self.wd = wd
        self.summary = summary


def prediction(p: int, m: int) -> CwePrediction:
    """Bundle the closed-form CWE, weight table and classification,
    enforcing their mutual consistency."""
    regime = parameter_regime(p, m)
    cwe = predict_cwe(p, m)
    wd = predict_weight_distribution(p, m)
    derived = cwe.weight_distribution()
    if derived.counts != wd.counts:
        raise FrequencyMismatchError(
            "weight table disagrees with the expanded enumerator")
    return CwePrediction(p=p, m=m, regime=regime, n=cwe.n, k=m, cwe=cwe,
                         wd=wd, summary=wd.summary(p))
