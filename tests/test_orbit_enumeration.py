"""Orbit-reduced enumeration against the direct oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import (
    build_defining_set,
    build_defining_set_general,
    exhaustive_cwe,
    irreducible_polynomials,
)
from tracecodes import codes
from tracecodes.codes import _frobenius_orbits, _orbit_count, _representatives

from oracle import direct_cwe_terms

ORACLE_LIMIT = 2 * 10**6  # r * n symbol evaluations; keeps one example well under a second

# (p, m, defining set) with r <= 2*10^4 whose direct enumeration fits the
# limit; n is about p^(m-2) for the main set and p^(m-1) for d1 and d2
CASES = [(p, m, kind)
         for p in (3, 5, 7, 11, 13) for m in range(3, 10) if p**m <= 2 * 10**4
         for kind in ("main", "d1", "d2")
         if p**m * p ** (m - (2 if kind == "main" else 1)) <= ORACLE_LIMIT]


def _context(fields, p, m, which):
    """F_{p^m} on the first (which = 0) or second irreducible modulus."""
    moduli = irreducible_polynomials(p, m)
    modulus = next(moduli)
    if which:
        modulus = next(moduli)
    return fields(p, m, modulus)


def _dset(ctx, kind, b):
    if kind == "main":
        return build_defining_set(ctx, b)
    if kind == "d1":
        return build_defining_set_general(ctx, trace_value=b)
    return build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), which=st.sampled_from((0, 1)), data=st.data())
def test_orbit_enumeration_matches_direct_oracle(fields, case, which, data):
    p, m, kind = case
    b = data.draw(st.integers(0, p - 1), label="b")
    ctx = _context(fields, p, m, which)
    dset = _dset(ctx, kind, b)
    want = direct_cwe_terms(ctx, dset)
    assert exhaustive_cwe(ctx, dset, workers=1).terms == want
    assert exhaustive_cwe(ctx, dset, workers=2).terms == want


# m = 3 at larger p, where the walk takes about (p + 1)/3 representatives,
# the orbits of the p + 1 lines of W = ker Tr: the main set and d1 lie in
# Tr(x) = b, and p does not divide 3
LARGE_P_CASES = [(p, 3, kind) for p in (17, 19, 23) for kind in ("main", "d1")]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(LARGE_P_CASES), data=st.data())
def test_coset_walk_matches_direct_oracle_at_larger_p(fields, case, data):
    p, m, kind = case
    b = data.draw(st.sampled_from([0, *range(1, p)]), label="b")
    ctx = fields(p, m)
    dset = _dset(ctx, kind, b)
    assert codes.translation_shift(dset) == b
    want = direct_cwe_terms(ctx, dset)
    assert exhaustive_cwe(ctx, dset, workers=1).terms == want
    assert exhaustive_cwe(ctx, dset, workers=2).terms == want


@pytest.mark.parametrize("p,m", [(17, 3), (3, 4), (5, 4)])
def test_coset_walk_at_b0(fields, p, m):
    """b = 0: a + t has a's codeword, and a = t the zero codeword."""
    ctx = fields(p, m)
    for kind in ("main", "d1"):
        dset = _dset(ctx, kind, 0)
        assert exhaustive_cwe(ctx, dset, workers=2).terms == direct_cwe_terms(ctx, dset)


def test_oracle_cases_cover_every_prime():
    assert {p for p, _, _ in CASES} == {3, 5, 7, 11, 13}
    assert {kind for _, _, kind in CASES} == {"main", "d1", "d2"}


def test_coset_orbit_count_matches_the_walked_representatives(fields):
    """Burnside's count of the orbits in W = ker Tr is the number of
    representatives walked for a set in Tr(x) = b, p not dividing m; for
    p | m, and off the hyperplane, it is every orbit's count."""
    for p, m in [(3, 4), (3, 5), (3, 7), (3, 8), (5, 3), (5, 4), (7, 3), (7, 4), (11, 3),
                 (13, 3), (37, 3), (3, 3), (3, 6), (5, 5)]:
        ctx = fields(p, m)
        for kind in ("main", "d1", "d2"):
            reps = _representatives(ctx, _dset(ctx, kind, 1))
            in_hyperplane = kind != "d2"
            assert _orbit_count(p, m, in_hyperplane) == len(reps), (p, m, kind)
            if m % p == 0 or not in_hyperplane:
                assert _orbit_count(p, m, in_hyperplane) == _orbit_count(p, m), (p, m, kind)
            else:  # the s*(p - 1) elements of each orbit, p-fold, and F_p cover F_r
                assert sum(s for _, s in reps) * (p - 1) * p + p == ctx.r, (p, m, kind)


def test_orbit_count_matches_orbit_walk():
    for p, m in [(3, 1), (3, 2), (5, 2), (3, 6), (3, 8), (5, 4), (7, 3), (13, 3), (3, 12)]:
        size = (p**m - 1) // (p - 1)
        orbits = _frobenius_orbits(p, size)
        assert sum(s for _, s in orbits) == size
        assert all(m % s == 0 for _, s in orbits)
        assert _orbit_count(p, m) == len(orbits)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "p%d-m%d-%s" % c)
def test_every_case_matches_direct_oracle(fields, case):
    p, m, kind = case
    ctx = _context(fields, p, m, 0)
    dset = _dset(ctx, kind, 1)
    assert exhaustive_cwe(ctx, dset).terms == direct_cwe_terms(ctx, dset)
