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
from .errors import DegreeTooSmallError, FrequencyMismatchError, RhoZeroError
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

def correction_sums(p: int, m: int, prof: tuple, rho: int) -> tuple[int, int, int]:
    """The three exact integer corrections in the decomposition

        N_rho = n/p + (S_lin + S_sq + S_mix) / p^3        (rho != 0)

    of the number of codeword coordinates equal to rho, where S_lin
    couples only the defining trace constraint, S_sq only the
    trace-square constraint, and S_mix all three (character
    orthogonality kills the fourth term).
    """
    rho %= p
    if rho == 0:
        raise RhoZeroError("use correction_sums_at_zero for the zero symbol")
    r = p**m
    mp = m % p
    even = (m % 2 == 0)
    A, B, prime_value = prof

    if prime_value is not None:
        s_lin = (p - 1) * r if rho == prime_value else -r
    else:
        s_lin = 0

    if even:
        gm = gauss_int(p, m)
        s_sq = -(p - 1) * gm if A == 0 else gm
    else:
        gg = gauss_pair_int(p, m)
        s_sq = 0 if A == 0 else -legendre(-A, p) * gg

    if even and mp == 0:
        if A == 0 and B == 0:
            s_mix = (p - 1) * gm
        elif A == 0 or B == 0:
            s_mix = -gm
        elif A == (2 * rho * B) % p:
            s_mix = (p * p - p - 1) * gm
        else:
            s_mix = -(p + 1) * gm
    elif even:
        if A == 0:
            if B == 0:
                s_mix = -gm
            elif (rho * mp) % p == (2 * B) % p:
                s_mix = (p * p - p - 1) * gm
            else:
                s_mix = -(p + 1) * gm
        else:
            delta = (B * B - mp * A) % p
            if delta == 0:
                if (rho * B) % p == A:
                    s_mix = (p * p - p - 1) * gm
                else:
                    s_mix = -(p + 1) * gm
            elif legendre(delta, p) == 1:
                if (-mp * rho * rho + 2 * B * rho - A) % p == 0:
                    s_mix = (p * p - 2 * p - 1) * gm
                else:
                    s_mix = -(2 * p + 1) * gm
            else:
                s_mix = -gm
    elif mp == 0:
        if A == 0 and B == 0:
            s_mix = 0
        elif A == 0:
            half = (rho * B * pow(2, -1, p)) % p
            s_mix = legendre(half, p) * p * gg
        elif B == 0:
            s_mix = legendre(-A, p) * gg
        elif A == (2 * rho * B) % p:
            s_mix = legendre(-A, p) * gg
        else:
            s_mix = (legendre(2 * rho * B - A, p) * p + legendre(-A, p)) * gg
    else:
        eta_mp = legendre(-mp, p)
        if A == 0:
            if B == 0:
                s_mix = eta_mp * gg
            elif (rho * mp) % p == (2 * B) % p:
                s_mix = eta_mp * gg
            else:
                s_mix = (legendre(2 * B * rho - mp * rho * rho, p) * p + eta_mp) * gg
        else:
            delta = (B * B - mp * A) % p
            if delta == 0:
                if (rho * B) % p == A:
                    s_mix = -(p - 2) * eta_mp * gg
                else:
                    s_mix = 2 * eta_mp * gg
            else:
                f_rho = (-mp * rho * rho + 2 * B * rho - A) % p
                if f_rho == 0:
                    s_mix = (legendre(-A, p) + eta_mp) * gg
                else:
                    s_mix = (p * legendre(f_rho, p) + legendre(-A, p) + eta_mp) * gg

    return s_lin, s_sq, s_mix


def correction_sums_at_zero(p: int, m: int, prof: tuple) -> tuple[int, int, int]:
    """Same decomposition for the zero symbol (the rho = 0 analogue of
    :func:`correction_sums`; only the regime with odd m and p not
    dividing m is needed for the weight tables, but all four are
    evaluated so the identity can be checked everywhere)."""
    r = p**m
    mp = m % p
    even = (m % 2 == 0)
    A, B, prime_value = prof

    s_lin = -r if prime_value is not None else 0

    if even:
        gm = gauss_int(p, m)
        s_sq = (p - 1) * (p - 1) * gm if A == 0 else -(p - 1) * gm
    else:
        gg = gauss_pair_int(p, m)
        s_sq = 0 if A == 0 else (p - 1) * legendre(-A, p) * gg

    if even and mp == 0:
        if A == 0 and B == 0:
            s_mix = -(p - 1) * (p - 1) * gm
        elif A == 0 or B == 0:
            s_mix = (p - 1) * gm
        else:
            s_mix = -gm
    elif even:
        if A == 0:
            s_mix = (p - 1) * gm if B == 0 else -gm
        else:
            delta = (B * B - mp * A) % p
            if delta == 0:
                s_mix = -gm
            else:
                s_mix = -(p * legendre(delta, p) + 1) * gm
    elif mp == 0:
        if A == 0:
            s_mix = 0
        elif B == 0:
            s_mix = -(p - 1) * legendre(-A, p) * gg
        else:
            s_mix = legendre(-A, p) * gg
    else:
        eta_mp = legendre(-mp, p)
        if A == 0:
            s_mix = -(p - 1) * eta_mp * gg if B == 0 else eta_mp * gg
        else:
            delta = (B * B - mp * A) % p
            if delta == 0:
                s_mix = -(p - 2) * eta_mp * gg
            else:
                s_mix = (legendre(-A, p) + eta_mp) * gg

    return s_lin, s_sq, s_mix


def symbol_count_closed(p: int, m: int, prof: tuple, rho: int) -> int:
    """Exact closed-form count of coordinates equal to rho in the
    codeword of any nonzero a with the given trace profile."""
    n = predicted_length(p, m)
    rho %= p
    if rho == 0:
        terms = correction_sums_at_zero(p, m, prof)
    else:
        terms = correction_sums(p, m, prof, rho)
    return _exact_div(n * p * p + sum(terms), p**3)


@cache
def _count_constants(p: int, m: int) -> tuple[int, int, tuple[int, ...]]:
    """n, the Gauss integer (g^m for even m, the pair g^m * g for odd m)
    and the table of legendre(t, p) for t in [0, p), once per (p, m)."""
    g = gauss_int(p, m) if m % 2 == 0 else gauss_pair_int(p, m)
    return predicted_length(p, m), g, tuple(legendre(t, p) for t in range(p))


def symbol_counts_closed(p: int, m: int, prof: tuple) -> list[int]:
    """``[symbol_count_closed(p, m, prof, rho) for rho in range(p)]``,
    with n, the Gauss integer and the character table computed once per
    (p, m).  For rho != 0 each case of :func:`correction_sums` becomes
    one row over rho = 1, ..., p - 1: S_sq is constant, S_lin is -r but
    at the prime value, and S_mix is constant, a spike at the one rho
    where its condition holds, or chi of a polynomial in rho, where
    chi(0) = 0 gives the value at the polynomial's roots."""
    n, g, chi = _count_constants(p, m)
    A, B, pv = prof
    r, mp, syms = p**m, m % p, range(1, p)

    def spike(rho0: int, at: int, rest: int) -> list[int]:
        row = [rest] * (p - 1)
        row[rho0 % p - 1] = at
        return row

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
                mix = spike(A * pow(2 * B, -1, p), hit, miss)
        elif A == 0:
            mix = [-g] * (p - 1) if B == 0 else spike(2 * B * pow(mp, -1, p), hit, miss)
        elif delta == 0:  # rho*B == A
            mix = spike(A * pow(B, -1, p), hit, miss)
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
            mix = spike(A * pow(B, -1, p), -(p - 2) * eta * g, 2 * eta * g)
        else:
            mix = [(p * chi[(2 * B * rho - mp * rho * rho - A) % p] + chi[-A % p] + eta) * g
                   for rho in syms]
    base = n * p * p + s_sq - (r if pv is not None else 0)
    totals = [base + s for s in mix]
    if pv is not None and 0 < pv < p:
        totals[pv - 1] += p * r  # S_lin = (p - 1)*r at rho = pv, -r elsewhere
    totals.insert(0, n * p * p + sum(correction_sums_at_zero(p, m, prof)))
    # the rows take a handful of values: divide each one once
    quotient = {t: _exact_div(t, p**3) for t in set(totals)}
    return list(map(quotient.__getitem__, totals))


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

def _spike(p: int, rest: int, at: int, *rhos: int) -> list[int]:
    """The p - 1 symbol counts that are ``at`` on each of ``rhos`` and
    ``rest`` on every other nonzero symbol."""
    counts = [rest] * (p - 1)
    for rho in rhos:
        counts[rho - 1] = at
    return counts


def _shifted(doubled: tuple[int, ...], p: int, rho0: int) -> tuple[int, ...]:
    """row[(rho - rho0) % p] for rho = 1, ..., p - 1, sliced out of
    ``doubled``, a row over t in F_p written out twice."""
    return doubled[p + 1 - rho0:2 * p - rho0]


def _base_row(row: list[int]) -> tuple[tuple[int, ...], int, int]:
    """A base row over t in F_p as its patterns read it: written out
    twice, with its sum and its minimum."""
    return tuple(row) * 2, sum(row), min(row)


def _expand_terms(p: int, m: int) -> tuple[int, dict]:
    mp = m % p
    regime = parameter_regime(p, m)
    n = predicted_length(p, m)
    q3 = p ** (m - 3)
    pairs: list[tuple[tuple[int, ...], int]] = []  # (composition, frequency) in turn

    def add(freq: int, counts) -> None:
        """Count ``freq`` codewords with counts[rho - 1] coordinates equal
        to rho, for rho = 1, ..., p - 1; symbol 0 fills the rest of n."""
        if freq < 0:
            raise FrequencyMismatchError(f"negative pattern frequency {freq}")
        if freq == 0:
            return
        low = min(counts)
        if low < 0:
            raise FrequencyMismatchError(f"negative symbol count {low}")
        zero = n - sum(counts)
        if zero < 0:
            raise FrequencyMismatchError("symbol counts exceed the length")
        pairs.append(((zero, *counts), freq))

    def add_shifted(freq: int, base: tuple, rho0: int) -> None:
        """``add(freq, _shifted(doubled, p, rho0))`` for the base row
        (doubled, total, low) of :func:`_base_row`.  The pattern is a
        slice of the row, so when the row's minimum is not negative
        neither is any count, and the slice omits only t = -rho0, so
        its sum is the row's sum less doubled[p - rho0].  Other rows,
        and a frequency that is not positive, go through ``add``."""
        doubled, total, low = base
        counts = _shifted(doubled, p, rho0)
        if low < 0 or freq <= 0:
            add(freq, counts)
            return
        zero = n - total + doubled[p - rho0]
        if zero < 0:
            raise FrequencyMismatchError("symbol counts exceed the length")
        pairs.append(((zero,) + counts, freq))

    syms = range(1, p)
    # chi[0] = 0, so a pattern whose character argument vanishes at
    # rho = rho0 (or at rho0 and rho1) takes the value q3 there by itself
    chi = [legendre(t, p) for t in range(p)]
    add(1, [0] * (p - 1))  # a = 0
    for rho0 in syms:  # a in F_p^*: every coordinate of the codeword is rho0
        add(1, _spike(p, 0, n, rho0))

    if regime == 1:
        eps = legendre(-1, p) ** (m // 2)
        t = p ** ((m - 4) // 2)
        add(p ** (m - 1) - p, [q3] * (p - 1))
        add((p - 1) * p ** (m - 2), [q3 + eps * t] * (p - 1))
        for rho0 in syms:
            add((p - 1) * p ** (m - 2),
                _spike(p, q3 + eps * t, q3 - (p - 1) * eps * t, rho0))

    elif regime == 2:
        eps = legendre(-1, p) ** (m // 2)
        u = eps * p ** ((m - 4) // 2)
        big = eps * p ** ((m - 2) // 2)
        add(p ** (m - 2) - 1, [q3] * (p - 1))
        add((p - 1) * (p ** (m - 1) + eps * p ** (m // 2)) // 2, [q3 - u] * (p - 1))
        for rho0 in syms:
            add(p ** (m - 2) - 1, _spike(p, q3, q3 - big, rho0))
            add(n, _spike(p, q3 + u, q3 - (p - 1) * u, rho0))
        for rho0, rho1 in itertools.combinations(syms, 2):
            add(n, _spike(p, q3 + u, q3 - (p - 1) * u, rho0, rho1))

    elif regime == 3:
        eps1 = legendre(-1, p) ** ((m + 1) // 2)
        s = eps1 * p ** ((m - 3) // 2)
        half = (p - 1) * p ** (m - 2) // 2
        plus = _base_row([q3 + chi[t] * s for t in range(p)])
        minus = _base_row([q3 - chi[t] * s for t in range(p)])
        add(p ** (m - 1) - p, [q3] * (p - 1))
        for rho0 in range(p):  # q3 +- chi(rho - rho0) * s
            add_shifted(half, plus, rho0)
            add_shifted(half, minus, rho0)

    else:
        eps1 = legendre(-1, p) ** ((m + 1) // 2)
        theta = legendre(-mp, p) * eps1
        ts = theta * p ** ((m - 3) // 2)
        freq2 = n + theta * p ** ((m - 1) // 2) - 1
        nonsquares = [d for d in syms if chi[d] == -1]
        mp2 = mp * mp
        # base rows over t in F_p: q3 + chi(t(t - k)) * ts for each k, and
        # q3 + chi(m_p^2 t^2 - delta) * ts for each non-square delta; every
        # pattern below is one of them read at t = rho - rho0
        pair = [_base_row([q3 + chi[t * (t - k) % p] * ts for t in range(p)])
                for k in range(p)]
        disc = [_base_row([q3 + chi[(mp2 * t * t - delta) % p] * ts for t in range(p)])
                for delta in nonsquares]
        add(freq2, [q3] * (p - 1))
        for rho0 in syms:  # chi(rho(rho - rho0))
            add_shifted(n, pair[rho0], 0)
            add(freq2, _spike(p, q3, q3 - ts, rho0))
        for rho0, rho1 in itertools.combinations(syms, 2):  # chi((rho - rho0)(rho - rho1))
            add_shifted(n, pair[rho1 - rho0], rho0)
        for row in disc:  # chi(m_p^2 rho^2 - delta)
            add_shifted(n, row, 0)
        # chi(m_p^2 (rho - rho0)^2 - delta): at rho = rho0 the argument is
        # -delta, and chi(-delta) = -chi(-1) makes the value
        # q3 - chi(m_p) * eps1 * p^((m - 3)/2)
        for rho0 in syms:
            for row in disc:
                add_shifted(n, row, rho0)

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
