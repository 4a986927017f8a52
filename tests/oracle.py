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
