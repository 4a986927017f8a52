"""Brute-force versus closed-form verification checks.

Each check compares an exhaustive or direct-summation oracle with the
corresponding closed form, exactly (tolerance zero); verdicts carry a
counterexample payload when a comparison fails.
"""

from __future__ import annotations

import random
from operator import itemgetter

from . import charsums, closedform, codes, report
from .errors import NonPowerCodewordCountError
from .fields import FieldContext, irreducible_polynomials, legendre


class Verdict:
    __slots__ = ("name", "passed", "details", "data")

    def __init__(self, name: str, passed: bool, details: str, data: dict | None = None):
        self.name = name
        self.passed = passed
        self.details = details
        self.data = data

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "details": self.details, "data": self.data}


def exit_code_for(verdicts: list[Verdict]) -> int:
    return 0 if all(v.passed for v in verdicts) else 1


# ----------------------------------------------------------------------
# Character sums
# ----------------------------------------------------------------------

def verify_gauss_sums(ctx: FieldContext) -> list[Verdict]:
    """Quadratic Gauss sums against the closed form for every degree up
    to m, plus the sign-convention comparison.  Each is counted from the
    trace form of a modulus, with no field table: ``ctx.modulus`` at
    degree m and the default modulus below it."""
    p, m = ctx.p, ctx.m
    verdicts = []
    for mm in range(1, m + 1):
        f = ctx.modulus if mm == m else next(irreducible_polynomials(p, mm))
        counted = charsums.gauss_sum_counted(p, f)
        closed = charsums.gauss_sum_closed_cyclotomic(p, mm)
        ok = counted == closed
        verdicts.append(Verdict(
            name=f"gauss-sum p={p} m={mm}",
            passed=ok,
            details="trace-form count equals closed form" if ok else "MISMATCH",
            data=None if ok else {"counted": list(counted.coeffs),
                                  "closed": list(closed.coeffs)}))
        norm = counted * counted.conjugate()
        mag_ok = norm == p**mm
        verdicts.append(Verdict(
            name=f"gauss-sum-magnitude p={p} m={mm}",
            passed=mag_ok,
            details=f"G*conj(G) = {p**mm} in Z[zeta_p]" if mag_ok
            else f"G*conj(G) = {list(norm.coeffs)} != {p**mm}"))
        deviates = counted != closed * charsums.quartic_reading_sign(p, mm)
        expected = (p % 8 in (5, 7)) and (mm % 2 == 1)
        note = ("quartic sign convention deviates from the summed value by (-1)^m"
                if deviates else "quartic sign convention agrees with the summed value")
        verdicts.append(Verdict(
            name=f"gauss-sum-sign-convention p={p} m={mm}",
            passed=(deviates == expected),
            details=note,
            data={"deviates": deviates, "expected_deviation": expected}))
    return verdicts


def verify_quadratic_sums(ctx: FieldContext, samples: int = 100, seed: int = 0) -> list[Verdict]:
    """Direct quadratic exponential sums against the completed-square
    form, on random coefficient triples drawn as logs: a2 = alpha^l2,
    and a1, a0 uniform over the field, with log r - 1 standing for 0."""
    rng = random.Random(seed)
    gauss = charsums.gauss_sum_direct(ctx)
    rm1 = ctx.r - 1

    def uniform() -> int | None:
        k = rng.randrange(ctx.r)
        return None if k == rm1 else k

    for _ in range(samples):
        l2, l1, l0 = rng.randrange(rm1), uniform(), uniform()
        direct = charsums.quadratic_exponential_sum(ctx, l2, l1, l0)
        closed = charsums.quadratic_exponential_sum_closed(ctx, l2, l1, l0, gauss=gauss)
        if direct != closed:
            a2, a1, a0 = (0 if k is None else ctx.power(k) for k in (l2, l1, l0))
            return [Verdict(
                name=f"quadratic-sum p={ctx.p} m={ctx.m}",
                passed=False,
                details="completed-square identity failed",
                data={"a2": a2, "a1": a1, "a0": a0})]
    return [Verdict(name=f"quadratic-sum p={ctx.p} m={ctx.m}", passed=True,
                    details=f"identity exact on {samples} random quadratics")]


def verify_cyclotomic_numbers(ctx: FieldContext) -> list[Verdict]:
    closed = charsums.cyclotomic_numbers_order2(ctx.r)
    direct = charsums.cyclotomic_numbers_direct(ctx)
    h = (ctx.r - 1) // 2
    key = min((key for key in closed if direct[key] != closed[key]), default=None)
    if key is not None:
        got, want = direct[key], closed[key]
        return [Verdict(name=f"cyclotomic-numbers r={ctx.r}", passed=False,
                        details=f"class pair {key}: direct {got} != closed {want}",
                        data={"pair": list(key), "direct": got, "closed": want})]
    # the class containing -1 (class 0 iff h is even) loses one element
    # to x + 1 = 0, so its row sum drops to h - 1
    row0 = closed[(0, 0)] + closed[(0, 1)]
    row1 = closed[(1, 0)] + closed[(1, 1)]
    ok = (row0, row1) == ((h - 1, h) if h % 2 == 0 else (h, h - 1))
    return [Verdict(name=f"cyclotomic-numbers r={ctx.r}", passed=ok,
                    details="all four class counts and row sums match")]


# ----------------------------------------------------------------------
# Counting and the symbol-count decomposition
# ----------------------------------------------------------------------

def verify_counts(ctx: FieldContext, dset: codes.DefiningSet, compositions) -> list[Verdict]:
    """Trace-pair counts, discriminant pair counts and the per-codeword
    symbol-count decomposition, all against exhaustive data (``compositions``,
    the orbit walk of ``dset`` for a nonzero b, relabelled per c in F_p^*
    and moved per t in F_p where :func:`codes.translation_shift` applies).
    Every nonzero codeword is compared: the verdict fails unless the
    compared ones number r - 1."""
    if not dset.in_closed_form_scope:
        raise ValueError(f"no closed symbol counts for the set {{{dset.label}}}")
    p, m = ctx.p, ctx.m
    verdicts = []

    table = codes.trace_pair_table(ctx)
    for (a_val, b_val), got in sorted(table.items()):
        want = closedform.trace_pair_count_closed(p, m, a_val, b_val)
        if got != want:
            verdicts.append(Verdict(
                name=f"trace-pair-counts p={p} m={m}", passed=False,
                details=f"(A,B)=({a_val},{b_val}): brute {got} != closed {want}",
                data={"A": a_val, "B": b_val, "brute": got, "closed": want}))
            break
    else:
        verdicts.append(Verdict(name=f"trace-pair-counts p={p} m={m}", passed=True,
                                details=f"all {p * p} (A,B) pairs match"))

    if m % p != 0:
        mp = m % p
        t_plus = t_minus = t_zero = a_sq = a_non = 0
        for a_val in range(1, p):
            for b_val in range(p):
                delta = (b_val * b_val - mp * a_val) % p
                if delta == 0:
                    t_zero += 1
                    continue
                if legendre(delta, p) == 1:
                    t_plus += 1
                else:
                    t_minus += 1
                if legendre(a_val, p) == 1:
                    a_sq += 1
                else:
                    a_non += 1
        got = {"disc_square": t_plus, "disc_nonsquare": t_minus, "disc_zero": t_zero,
               "a_square": a_sq, "a_nonsquare": a_non}
        want = closedform.discriminant_pair_counts(p, mp)
        ok = got == want
        verdicts.append(Verdict(
            name=f"discriminant-pair-counts p={p} m_p={mp}", passed=ok,
            details="exhaustive pair counts match closed forms" if ok
            else f"brute {got} != closed {want}"))

    # a = c*(alpha^la)^(p^i), c = alpha^(j*N), shares the composition of
    # c*alpha^la and the profile of y = b*c*alpha^la (D_b = b*D_1 permutes
    # a's codeword into the D_1 codeword of a*b).  Where the walk took one
    # codeword per coset of F_p, a + t, t in F_p, has every symbol moved
    # by u = t*b, and b*(a + t) = y + u the profile (Tr(y^2) + 2u*Tr(y) +
    # m*u^2, Tr(y) + m*u, y + u if y is in F_p); a = t itself has n symbols
    # u.  Failures report a = alpha^k + t for the smallest failing (t, k),
    # k = -1 standing for a = t.
    rm1 = ctx.r - 1
    step = rm1 // (p - 1)
    b, n = dset.trace_value, len(dset)
    moves = [t * b % p for t in range(1 if codes.translation_shift(dset) is None else p)]
    perms = [itemgetter(*codes.relabelling(p, c)) for c in ctx.prime_powers]
    lb = ctx.prime_log(b)
    tr, prime_powers = ctx.trace_exp, ctx.prime_powers
    rows: dict[tuple, tuple[list, list]] = {}  # per profile of y

    def row_at(square, trace, y):
        """The closed counts of b*(a + t) for each t, from the profile of
        y = b*a, and each of them moved back by -t*b: a's composition
        passes at every t iff it equals all of the latter.  A move by u
        rotates a composition: x moved by u is (x + x)[p - u:2p - u]."""
        row = rows.get((square, trace, y))
        if row is None:
            wants = [tuple(closedform.symbol_counts_closed(p, m, (
                (square + (2 * trace + m * u) * u) % p, (trace + m * u) % p,
                None if y is None else (y + u) % p))) for u in moves]
            backs = [(w * 2)[u:u + p] for u, w in zip(moves, wants)]
            row = rows[square, trace, y] = (wants, backs)
        return row

    failures = []  # (t, k, got, want, codewords)
    compared = 0
    for t, u in enumerate(moves[1:], 1):
        got = tuple(n if v == u else 0 for v in range(p))
        want = tuple(closedform.symbol_counts_closed(p, m, (m * u * u % p, m * u % p, u)))
        if got != want:
            failures.append((t, -1, got, want, 1))
        compared += 1
    for la, s, comp in compositions:
        # b*c*alpha^la = alpha^k lies in F_p iff step = N divides k, and
        # k = la + lb + j*step mod r - 1, a multiple of step
        in_prime = (la + lb) % step == 0
        for j, perm in enumerate(perms):
            k = (la + j * step + lb) % rm1
            wants, backs = row_at(tr[2 * k % rm1], tr[k],
                                  prime_powers[k // step] if in_prime else None)
            scaled = perm(comp)
            if backs.count(scaled) != len(backs):
                kmin = min((la * p**i + j * step) % rm1 for i in range(m))
                doubled = scaled * 2
                failures += [(t, kmin, doubled[p - u:2 * p - u], want, s)
                             for t, (u, want) in enumerate(zip(moves, wants))
                             if doubled[p - u:2 * p - u] != want]
            compared += s * len(moves)
    if failures:
        t, k, got, want, _ = min(failures)
        x = 0 if k < 0 else ctx.power(k)
        a = x - x % p + (x + t) % p
        rho = next(r for r in range(p) if got[r] != want[r])
        verdicts.append(Verdict(
            name=f"symbol-count-decomposition p={p} m={m}", passed=False,
            details=f"a={a} rho={rho}: brute {got[rho]} != closed {want[rho]}",
            data={"a": a, "rho": rho, "brute": got[rho], "closed": want[rho],
                  "failing": sum(f[-1] for f in failures)}))
    else:
        verdicts.append(Verdict(
            name=f"symbol-count-decomposition p={p} m={m}",
            passed=compared == rm1,
            details=f"exact for all {compared} nonzero codeword indices and all symbols"))
    return verdicts


# ----------------------------------------------------------------------
# Code-level checks
# ----------------------------------------------------------------------

def verify_cwe(ctx: FieldContext, cwe: codes.CompleteWeightEnumerator,
               wd: codes.WeightDistribution | None = None) -> list[Verdict]:
    """Closed-form complete weight enumerator and weight table against
    ``cwe``, the exhaustive enumeration of the code for a nonzero b, and
    ``wd``, its weight distribution when the caller already holds it.  A
    differing enumerator reports its smallest differing composition."""
    pred = closedform.prediction(ctx.p, ctx.m)
    brute, closed = cwe.terms, pred.cwe.terms
    # equal dicts settle the common case; the scan, where a term of
    # frequency 0 counts as absent, runs only on a mismatch
    differ = [] if brute == closed else \
        [k for k in brute.keys() | closed.keys() if brute.get(k, 0) != closed.get(k, 0)]
    if not differ:
        verdicts = [Verdict(
            name="cwe", passed=True,
            details=f"{len(brute)} distinct composition patterns matched")]
    else:
        k0 = min(differ)
        verdicts = [Verdict(
            name="cwe", passed=False,
            details="composition frequencies differ",
            data={"composition": list(k0), "brute": brute.get(k0, 0),
                  "closed": closed.get(k0, 0)})]
    try:
        brute_wd = cwe.weight_distribution() if wd is None else wd
    except NonPowerCodewordCountError as exc:  # frequencies no linear code has
        return verdicts + [Verdict(name="weight-distribution", passed=False, details=str(exc))]
    if pred.wd.counts == brute_wd.counts and pred.k == brute_wd.k:
        verdicts.append(Verdict(
            name="weight-distribution", passed=True,
            details=f"dimension {brute_wd.k} and all {len(brute_wd.counts)} weights matched"))
    else:
        verdicts.append(Verdict(
            name="weight-distribution", passed=False,
            details="weight table differs",
            data={"brute": brute_wd.counts, "closed": pred.wd.counts}))
    return verdicts


def verify_griesmer(ctx: FieldContext, cwe: codes.CompleteWeightEnumerator) -> list[Verdict]:
    """Brute [n, k, d] and Griesmer/MDS flags from ``cwe``, the exhaustive
    enumeration of the code for a nonzero b, against the closed forms."""
    name = f"griesmer p={ctx.p} m={ctx.m}"
    try:
        summary = codes.summarize(cwe, ctx.p)
    except NonPowerCodewordCountError as exc:  # frequencies no linear code has
        return [Verdict(name=name, passed=False, details=str(exc))]
    pred = closedform.classify_optimality(ctx.p, ctx.m)
    ok = (summary.n, summary.k, summary.d) == (pred.n, pred.k, pred.d) \
        and summary.griesmer_optimal == pred.griesmer_optimal \
        and summary.mds == pred.mds \
        and summary.griesmer_optimal == (ctx.m == 3)
    details = (f"[{summary.n},{summary.k},{summary.d}] griesmer_sum={summary.griesmer_sum}"
               f" optimal={summary.griesmer_optimal} mds={summary.mds}")
    return [Verdict(name=name, passed=ok, details=details,
                    data=None if ok else {"brute": report.summary_dict(summary),
                                          "closed": report.summary_dict(pred)})]


def verify_equivalence(ctx: FieldContext) -> list[Verdict]:
    """Whether D_b = {Tr(x) = b, Tr(x^2) = 0} is b*D_1 for b = 2, ..., p - 1;
    then the code on D_b is the b = 1 code with its coordinates permuted
    (the codeword of a at b*x is that of a*b at x).  One pass over the logs
    where Tr(x^2) = 0 splits them by trace_exp into every D_b, ascending;
    b*D_1 adds log b to each log of D_1, mod r - 1."""
    rm1, tr = ctx.r - 1, ctx.trace_exp
    d1 = codes.build_defining_set(ctx, 1).logs
    by_trace = [[] for _ in range(ctx.p)]
    for k in codes.build_defining_set_general(ctx, trace_square_value=0).logs:
        by_trace[tr[k]].append(k)
    bad = []
    for b in range(2, ctx.p):
        lb = ctx.prime_log(b)
        if by_trace[b] != sorted((k + lb) % rm1 for k in d1):
            bad.append(b)
    ok = not bad
    return [Verdict(name=f"scaled-set-equivalence p={ctx.p} m={ctx.m}", passed=ok,
                    details="codes agree for every nonzero defining trace value" if ok
                    else f"mismatch at b={bad}")]
