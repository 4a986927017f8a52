"""Direct enumeration oracle for the complete weight enumerator.

Folds the codeword of every a in F_r, one field multiplication per
coordinate, with no use of the orbit symmetry that
:func:`tracecodes.exhaustive_cwe` relies on.  O(r * n): for tests on
small fields only.
"""


def direct_cwe_terms(ctx, dset) -> dict:
    p = ctx.p
    rm1 = ctx.r - 1
    tr = ctx.trace_table
    tr_exp = [tr[e] for e in ctx.exp]
    zero_in = 1 if 0 in dset.elements else 0
    d_logs = [ctx.log[x] for x in dset.elements if x != 0]
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


def neg(p, x):
    s = 0
    mult = 1
    while x:
        x, c = divmod(x, p)
        if c:
            s += (p - c) * mult
        mult *= p
    return s


def power_tables(ctx):
    """exp and log of ctx.alpha, walking the powers with ctx._mul_raw."""
    rm1 = ctx.r - 1
    exp = [0] * rm1
    log = [-1] * ctx.r
    cur = 1
    for k in range(rm1):
        exp[k] = cur
        log[cur] = k
        cur = ctx._mul_raw(cur, ctx.alpha)
    assert cur == 1
    return exp, log


def trace_table(ctx):
    """Absolute traces from the basis traces, one digit at a time."""
    p, m = ctx.p, ctx.m
    basis_traces = []
    for j in range(m):
        acc = frob = p**j
        for _ in range(m - 1):
            frob = ctx._pow_raw(frob, p)
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
