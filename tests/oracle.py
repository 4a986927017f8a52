"""Reference implementations that walk the field one element at a time.

:func:`direct_cwe_terms` folds the codeword of every a in F_r, one field
multiplication per coordinate, with no use of the orbit symmetry that
:func:`tracecodes.exhaustive_cwe` relies on; :func:`codeword` builds one
codeword the same way, for checking :func:`tracecodes.orbit_compositions`.
The character sums and :func:`correction_sums_direct` add and multiply
one element at a time, through :func:`add` and the lookup :func:`mul`,
and read the traces from :func:`trace_table` instead of reading
``ctx.trace_exp`` in bulk.  The per-element tables, :func:`power_tables`
and :func:`trace_table`, live here rather than in the package, which
builds no log table.  O(r * n) and O(r): for tests on small fields only.

Two references work one term at a time instead of one element:
:func:`expand_terms_per_pattern` writes out and checks every closed-form
pattern on its own, and :func:`fold_per_image` relabels every
composition by every c in F_p^* on its own.
"""

import cmath
import itertools
from functools import lru_cache

from tracecodes import closedform, is_irreducible, make_field, prime_factors
from tracecodes.errors import FrequencyMismatchError
from tracecodes.cyclotomic import CyclotomicInteger
from tracecodes.fields import _poly_powmod


def irreducible_from(p, m, tail):
    """The first monic irreducible of degree m at or after the given tail,
    tails read low-degree-first as base-p integers and wrapping around;
    at tail 0, the default modulus by a search with no root pre-filter."""
    for k in range(p**m):
        t = (tail + k) % p**m
        coeffs = [(t // p**j) % p for j in range(m)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial")


def first_primitive(p, m, modulus):
    """The default alpha by the unfiltered search: the smallest index c
    with c^((r - 1)/q) != 1 for every prime q | r - 1, each power by
    ``_poly_powmod``, with no norm pre-filter."""
    r = p**m
    one = [1] + [0] * (m - 1)
    for c in range(1, r):
        coeffs = [(c // p**j) % p for j in range(m)]
        if all(_poly_powmod(coeffs, (r - 1) // q, modulus, p) != one
               for q in prime_factors(r - 1)):
            return c
    raise AssertionError("no primitive element")


def non_primitive_modulus(p, m, tail):
    """The first irreducible at or after the tail on which x is not
    primitive, so that alpha != x."""
    for k in range(p**m):
        f = irreducible_from(p, m, tail + k)
        if make_field(p, m, modulus=f).alpha != p:
            return f
    raise AssertionError("x is primitive on every irreducible")


def elements(ctx, dset):
    """The field indices of ``dset``, in coordinate order: 0 when the set
    holds it, then alpha^k for each of its logs k."""
    exp, _ = power_tables(ctx)
    return (0,) * dset.has_zero + tuple(exp[k] for k in dset.logs)


def direct_cwe_terms(ctx, dset) -> dict:
    p = ctx.p
    rm1 = ctx.r - 1
    tr = trace_table(ctx)
    tr_exp = [tr[e] for e in power_tables(ctx)[0]]
    xs = elements(ctx, dset)
    zero_in = 1 if 0 in xs else 0
    d_logs = [log(ctx, x) for x in xs if x != 0]
    terms = {}
    for la in range(rm1):
        counts = [0] * p
        counts[0] = zero_in
        for dl in d_logs:
            t = la + dl
            if t >= rm1:
                t -= rm1
            counts[tr_exp[t]] += 1
        key = tuple(counts)
        terms[key] = terms.get(key, 0) + 1
    zero_comp = tuple([len(dset)] + [0] * (p - 1))
    terms[zero_comp] = terms.get(zero_comp, 0) + 1  # a = 0
    return terms


def profile(ctx, a):
    """The trace profile (Tr(a^2), Tr(a), a if a lies in F_p else None)
    of a nonzero a, from the oracle's own tables: a lies in F_p exactly
    when its index is below p."""
    tr = trace_table(ctx)
    return tr[mul(ctx, a, a)], tr[a], a if a < ctx.p else None


def codeword(ctx, dset, a):
    tr = trace_table(ctx)
    return tuple(tr[mul(ctx, a, x)] for x in elements(ctx, dset))


# -- character sums, one field operation per element ------------------------

def gauss_sum_direct(ctx):
    tr = trace_table(ctx)
    counts = [0] * ctx.p
    for x in range(1, ctx.r):
        counts[tr[x]] += (-1) ** log(ctx, x)  # the quadratic character
    return CyclotomicInteger.from_exponent_counts(ctx.p, counts)


def quadratic_exponential_sum(ctx, a2, a1, a0):
    tr = trace_table(ctx)
    counts = [0] * ctx.p
    for x in range(ctx.r):
        y = add(ctx.p, mul(ctx, a2, mul(ctx, x, x)), add(ctx.p, mul(ctx, a1, x), a0))
        counts[tr[y]] += 1
    return CyclotomicInteger.from_exponent_counts(ctx.p, counts)


def correction_sums_direct(ctx, a, rho):
    """Direct evaluation of the three correction sums for one (a, rho),
    via the integer collapse of the additive-character sums: a sum of
    zeta^(y*c) over nonzero y equals p-1 when c = 0 and -1 otherwise."""
    p = ctx.p
    tr = trace_table(ctx)
    rho %= p

    def e(c):
        return p - 1 if c % p == 0 else -1

    s_lin = s_sq = s_mix = 0
    for x in range(ctx.r):
        tx = tr[x]
        tx2 = tr[mul(ctx, x, x)]
        tax = tr[mul(ctx, a, x)]
        e_lin = e(tx - 1)
        e_sq = e(tx2)
        e_sym = e(tax - rho)
        s_lin += e_lin * e_sym
        s_sq += e_sq * e_sym
        s_mix += e_lin * e_sq * e_sym
    return s_lin, s_sq, s_mix


def cyclotomic_number_direct(ctx, i, j):
    count = 0
    for x in range(1, ctx.r):
        if log(ctx, x) % 2 != i:
            continue
        y = add(ctx.p, x, 1)
        if y == 0:
            continue
        if log(ctx, y) % 2 == j:
            count += 1
    return count


def embed(x) -> complex:
    """The complex image of a CyclotomicInteger under zeta |-> exp(2*pi*i/p):
    a floating cross-check only."""
    zeta = cmath.exp(2j * cmath.pi / x.p)
    return sum(c * zeta**k for k, c in enumerate(x.coeffs))


# -- table-free field construction ------------------------------------------
#
# The field tables and addition with no lookup tables: one generic
# polynomial multiply per power and one Python loop per base-p digit.

def add(p, x, y):
    s = 0
    mult = 1
    while x or y:
        s += ((x % p + y % p) % p) * mult
        x //= p
        y //= p
        mult *= p
    return s


def _pow_raw(ctx, a, e):
    """a^e by square-and-multiply with the table-free ctx.mul."""
    result = 1
    while e:
        if e & 1:
            result = ctx.mul(result, a)
        e >>= 1
        if e:
            a = ctx.mul(a, a)
    return result


@lru_cache(maxsize=4)
def power_tables(ctx):
    """exp and log of ctx.alpha (log[0] is -1), walking the powers with
    the table-free ctx.mul; the last few fields' tables are kept."""
    rm1 = ctx.r - 1
    exp = [0] * rm1
    log = [-1] * ctx.r
    cur = 1
    for k in range(rm1):
        exp[k] = cur
        log[cur] = k
        cur = ctx.mul(cur, ctx.alpha)
    assert cur == 1
    return exp, log


def log(ctx, x):
    """The log of x to base ctx.alpha, or None for x = 0."""
    return power_tables(ctx)[1][x] if x else None


def mul(ctx, x, y):
    """x * y by adding logs in the power tables."""
    if x == 0 or y == 0:
        return 0
    exp, logs = power_tables(ctx)
    return exp[(logs[x] + logs[y]) % (ctx.r - 1)]


@lru_cache(maxsize=4)
def trace_table(ctx):
    """Absolute traces from the basis traces, one digit at a time; the
    last few fields' tables are kept, for helpers called per element."""
    p, m = ctx.p, ctx.m
    basis_traces = []
    for j in range(m):
        acc = frob = p**j
        for _ in range(m - 1):
            frob = _pow_raw(ctx, frob, p)
            acc = add(p, acc, frob)
        assert acc < p
        basis_traces.append(acc)
    table = [0] * ctx.r
    for idx in range(ctx.r):
        v, s, j = idx, 0, 0
        while v:
            v, c = divmod(v, p)
            s += c * basis_traces[j]
            j += 1
        table[idx] = s % p
    return table


# -- closed-form terms and the relabel fold, one term at a time -------------

def expand_terms_per_pattern(p, m):
    """``closedform._expand_terms`` with every pattern a list of its own,
    checked and counted by one ``add`` call, in the same order.  It reads
    ``legendre`` and ``predicted_length`` off the closedform module when
    called, so a test that patches them there patches both."""
    legendre = closedform.legendre
    mp = m % p
    regime = closedform.parameter_regime(p, m)
    n = closedform.predicted_length(p, m)
    q3 = p ** (m - 3)
    terms = {}

    def add(freq, counts):
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
        key = (zero, *counts)
        terms[key] = terms.get(key, 0) + freq

    def spike(rest, at, *rhos):
        counts = [rest] * (p - 1)
        for rho in rhos:
            counts[rho - 1] = at
        return counts

    def shifted(row, rho0):  # row[(rho - rho0) % p] for rho = 1, ..., p - 1
        return [row[(rho - rho0) % p] for rho in range(1, p)]

    syms = range(1, p)
    chi = [legendre(t, p) for t in range(p)]
    add(1, [0] * (p - 1))
    for rho0 in syms:
        add(1, spike(0, n, rho0))
    if regime == 1:
        eps = legendre(-1, p) ** (m // 2)
        t = p ** ((m - 4) // 2)
        add(p ** (m - 1) - p, [q3] * (p - 1))
        add((p - 1) * p ** (m - 2), [q3 + eps * t] * (p - 1))
        for rho0 in syms:
            add((p - 1) * p ** (m - 2), spike(q3 + eps * t, q3 - (p - 1) * eps * t, rho0))
    elif regime == 2:
        eps = legendre(-1, p) ** (m // 2)
        u = eps * p ** ((m - 4) // 2)
        big = eps * p ** ((m - 2) // 2)
        add(p ** (m - 2) - 1, [q3] * (p - 1))
        add((p - 1) * (p ** (m - 1) + eps * p ** (m // 2)) // 2, [q3 - u] * (p - 1))
        for rho0 in syms:
            add(p ** (m - 2) - 1, spike(q3, q3 - big, rho0))
            add(n, spike(q3 + u, q3 - (p - 1) * u, rho0))
        for rho0, rho1 in itertools.combinations(syms, 2):
            add(n, spike(q3 + u, q3 - (p - 1) * u, rho0, rho1))
    elif regime == 3:
        eps1 = legendre(-1, p) ** ((m + 1) // 2)
        s = eps1 * p ** ((m - 3) // 2)
        half = (p - 1) * p ** (m - 2) // 2
        add(p ** (m - 1) - p, [q3] * (p - 1))
        for rho0 in range(p):
            add(half, shifted([q3 + chi[t] * s for t in range(p)], rho0))
            add(half, shifted([q3 - chi[t] * s for t in range(p)], rho0))
    else:
        eps1 = legendre(-1, p) ** ((m + 1) // 2)
        theta = legendre(-mp, p) * eps1
        ts = theta * p ** ((m - 3) // 2)
        freq2 = n + theta * p ** ((m - 1) // 2) - 1
        nonsquares = [d for d in syms if chi[d] == -1]
        add(freq2, [q3] * (p - 1))
        for rho0 in syms:
            add(n, [q3 + chi[rho * (rho - rho0) % p] * ts for rho in syms])
            add(freq2, spike(q3, q3 - ts, rho0))
        for rho0, rho1 in itertools.combinations(syms, 2):
            add(n, [q3 + chi[(rho - rho0) * (rho - rho1) % p] * ts for rho in syms])
        for delta in nonsquares:
            add(n, [q3 + chi[(mp * mp * rho * rho - delta) % p] * ts for rho in syms])
        for rho0 in syms:
            for delta in nonsquares:
                add(n, [q3 + chi[(mp * mp * (rho - rho0) ** 2 - delta) % p] * ts
                        for rho in syms])
    return n, terms


def fold_per_image(p, n, compositions):
    """The terms of ``codes.cwe_from_compositions``: each (la, s,
    composition) counts s codewords under every relabelling
    comp[w] -> comp[w / c], c in F_p^*, one image at a time, plus the zero
    codeword of a = 0."""
    terms = {(n, *[0] * (p - 1)): 1}
    for _, s, comp in compositions:
        for c in range(1, p):
            image = tuple(comp[w * pow(c, -1, p) % p] for w in range(p))
            terms[image] = terms.get(image, 0) + s
    return terms
