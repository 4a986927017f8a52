"""Direct character sums and codeword compositions that read
``ctx.trace_exp`` in bulk, against the per-element walks in
``tests/oracle.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import (
    build_defining_set,
    build_defining_set_general,
    cyclotomic_number_direct,
    exhaustive_cwe,
    gauss_sum_direct,
    make_field,
    orbit_compositions,
    quadratic_exponential_sum,
)
from tracecodes.codes import (
    _bit_walk,
    _bits_win,
    _frobenius_orbits,
    _orbit_count,
    _symbol_walk,
)

import oracle

# every (p, m) with r = p^m <= 2*10^4 for the drawn primes
PAIRS = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 10) if p**m <= 2 * 10**4]
# (p, m, defining set) whose orbit walk, about orbits * n symbol reads,
# stays near 0.1 s: all but (3, 9) and d1 and d2 at (5, 6) and (7, 5)
CASES = [(p, m, kind) for p, m in PAIRS for kind in ("main", "d1", "d2")
         if _orbit_count(p, m) * p ** (m - (2 if kind == "main" else 1)) <= 10**6]
# r * n field multiplications; above it the walk checks 20 drawn indices
ORACLE_LIMIT = 2 * 10**5


def _field(data, p, m):
    """F_{p^m} on the default modulus or on a drawn irreducible one."""
    modulus = None
    if data.draw(st.booleans(), label="random modulus"):
        tail = data.draw(st.integers(0, p**m - 1), label="tail")
        modulus = oracle.irreducible_from(p, m, tail)
    return make_field(p, m, modulus=modulus)


def _dset(ctx, kind, b):
    """{Tr(x) = b, Tr(x^2) = 0}, {Tr(x) = b} or {x != 0, Tr(x^2) = 0},
    for any m; 0 is in the first two when b = 0."""
    if kind == "main":
        return build_defining_set_general(ctx, trace_value=b, trace_square_value=0)
    if kind == "d1":
        return build_defining_set_general(ctx, trace_value=b)
    return build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), data=st.data())
def test_bulk_sums_match_walks(pair, data):
    p, m = pair
    ctx = _field(data, p, m)
    top = ctx.r - 1
    assert gauss_sum_direct(ctx) == oracle.gauss_sum_direct(ctx)
    # a2 in the prime field, a1 = 0 and a0 = 0 are drawn as often as a
    # uniform element
    a2s = st.one_of(st.integers(1, p - 1), st.integers(1, top))
    coeffs = st.one_of(st.just(0), st.integers(0, top))
    for _ in range(3):
        a2 = data.draw(a2s, label="a2")
        a1, a0 = data.draw(coeffs, label="a1"), data.draw(coeffs, label="a0")
        assert quadratic_exponential_sum(ctx, a2, a1, a0) == \
            oracle.quadratic_exponential_sum(ctx, a2, a1, a0), (a2, a1, a0)


def _compositions(ctx, walked):
    """The composition of every nonzero a's codeword, rebuilt from the
    orbit_compositions list ``walked``: a = c * (alpha^la)^(p^i) with
    c = alpha^(j*N) carries the representative's composition with symbol
    v moved to c*v."""
    p, rm1 = ctx.p, ctx.r - 1
    step = rm1 // (p - 1)
    comps = {}
    for la, _, comp in walked:
        for j in range(p - 1):
            c = ctx.exp[j * step]
            scaled = [0] * p
            for v in range(p):
                scaled[c * v % p] = comp[v]
            members = {ctx.exp[(la * p**i + j * step) % rm1] for i in range(ctx.m)}
            for a in members:
                assert comps.setdefault(a, scaled) == scaled, a
    assert len(comps) == rm1
    return comps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_orbit_compositions_match_walk(case, data):
    p, m, kind = case
    ctx = _field(data, p, m)
    dset = _dset(ctx, kind, data.draw(st.integers(0, p - 1), label="b"))
    # both kernels, whichever side of _bits_win the case is on
    reps = _frobenius_orbits(p, (ctx.r - 1) // (p - 1))
    walked = orbit_compositions(ctx, dset)
    assert _bit_walk(ctx, dset)(reps) == walked
    assert _symbol_walk(ctx, dset)(reps) == walked
    comps = _compositions(ctx, walked)
    if ctx.r * len(dset) <= ORACLE_LIMIT:
        targets = range(1, ctx.r)
    else:
        targets = [data.draw(st.integers(1, ctx.r - 1), label="a") for _ in range(20)]
    for a in targets:
        word = oracle.codeword(ctx, dset, a)
        assert comps[a] == [word.count(v) for v in range(p)], a


def test_kernel_choice(fields):
    """The main set at b = 1 walks by bits where n is large next to r,
    and symbol by symbol for large p."""
    for p, m, bits in [(3, 8, True), (7, 5, True), (11, 4, False), (37, 3, False)]:
        ctx = fields(p, m)
        assert _bits_win(p, ctx.r, len(build_defining_set(ctx, 1))) is bits, (p, m)


@pytest.mark.parametrize("p,m", PAIRS)
def test_corners_match_walks(fields, p, m):
    """a1 = 0, a0 = 0, a2 in the prime field, a = 0 and 0 in D, on every
    pair at the default modulus; the cyclotomic numbers too."""
    ctx = fields(p, m)
    top = ctx.r - 1
    for a2, a1, a0 in [(1, 0, 0), (p - 1, 0, top), (top, top, 0), (ctx.alpha, 1, 1)]:
        assert quadratic_exponential_sum(ctx, a2, a1, a0) == \
            oracle.quadratic_exponential_sum(ctx, a2, a1, a0), (a2, a1, a0)
    for i in (0, 1):
        for j in (0, 1):
            assert cyclotomic_number_direct(ctx, i, j) == \
                oracle.cyclotomic_number_direct(ctx, i, j), (i, j)


def test_zero_is_in_the_b0_sets():
    ctx = make_field(3, 4)
    assert 0 in _dset(ctx, "main", 0).elements
    assert 0 in _dset(ctx, "d1", 0).elements
    assert 0 not in _dset(ctx, "d2", 0).elements


def test_one_trace_exp_per_context():
    ctx = make_field(5, 3)
    assert "trace_exp" not in vars(ctx)  # built on first use only
    exhaustive_cwe(ctx, build_defining_set(ctx, 1))
    table = vars(ctx)["trace_exp"]
    assert table == [ctx.trace(x) for x in ctx.exp]
    gauss_sum_direct(ctx)
    orbit_compositions(ctx, build_defining_set(ctx, 1))
    assert ctx.trace_exp is table
