"""Field tables and table-free addition against the oracle."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import fields, make_field, prime_factors
from tracecodes.fields import FieldContext

import oracle

# every (p, m) with r = p^m <= 2*10^4 for the drawn primes
PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 37) for m in range(1, 10) if p**m <= 2 * 10**4]


# both sides of the byte-slot edge 2(p - 1) <= 255 of the recurrence fill,
# the widest slot-window prime, whose table is bytes throughout, and
# p > 255, whose traces fill no byte
EDGE_PAIRS = [(127, 2), (131, 2), (251, 2), (257, 2)]


def _assert_tables_match_oracle(ctx):
    """trace_exp, a recurrence fill, is the oracle's trace table read
    along the oracle's power walk.  The power sums from Newton's
    identities on the modulus are the oracle's traces of x^j, each summed
    over Frobenius conjugates, for j up to 2m, past the j > m where the
    identities lose their j*f_(m-j) term.  The table is bytes wherever
    a trace fits a byte, p < 256, and a list above."""
    exp, _ = oracle.power_tables(ctx)
    trace_table = oracle.trace_table(ctx)
    count = 2 * ctx.m + 1
    assert fields.power_sums(ctx.modulus, ctx.p, count) == oracle.power_traces(ctx, count)
    assert type(ctx.trace_exp) is (bytes if ctx.p < 256 else list)
    assert list(ctx.trace_exp) == [trace_table[x] for x in exp]


def _draw_modulus(data, p, m):
    """None for the default modulus, or a drawn irreducible, or one on
    which x is not primitive."""
    kind = data.draw(st.sampled_from(["default", "drawn", "non-primitive"]), label="modulus")
    tail = data.draw(st.integers(0, p**m - 1), label="tail")
    if kind == "drawn":
        return oracle.irreducible_from(p, m, tail)
    if kind == "non-primitive" and m > 1:
        return oracle.non_primitive_modulus(p, m, tail)
    return None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS + EDGE_PAIRS), data=st.data())
def test_tables_match_oracle(pair, data):
    p, m = pair
    _assert_tables_match_oracle(make_field(p, m, modulus=_draw_modulus(data, p, m)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from([(p, m) for p, m in PAIRS if m <= 6]), data=st.data())
def test_fill_recurrence_is_alphas_minimal_polynomial(pair, data):
    """The h that trace_exp solves for from the diagonalised Hankel form
    of its seed is monic of degree m, and sum_i h_i * alpha^i = 0 under
    the oracle's own power table and addition."""
    p, m = pair
    modulus = _draw_modulus(data, p, m)
    seen, original = [], fields._recurrence_fill

    def spy(seed, h, n, prime):
        seen.append(list(h))
        return original(seed, h, n, prime)

    with mock.patch.object(fields, "_recurrence_fill", spy):
        ctx = make_field(p, m, modulus=modulus)
        ctx.trace_exp
    [h] = seen
    assert len(h) == m + 1 and h[m] == 1, h
    exp, _ = oracle.power_tables(ctx)
    total = 0
    for i, hi in enumerate(h):
        total = oracle.add(p, total, oracle.mul(ctx, hi, exp[i]))
    assert total == 0, h


@pytest.mark.parametrize("p,m", EDGE_PAIRS)
def test_tables_across_the_byte_slot_edge(p, m):
    _assert_tables_match_oracle(make_field(p, m, modulus=oracle.non_primitive_modulus(p, m, 0)))


@pytest.mark.parametrize("p,m", [(89, 3), (101, 3), (127, 3), (37, 8)])
def test_byte_fill_reduces_mid_window(monkeypatch, p, m):
    """Where m passes the 255 // (p - 1) terms a byte slot holds, a
    window sum of more terms reduces its slots mid-sum.  On random monic
    h with h_0 != 0, from m random terms extended to 2m, the fill is the
    plain order-m recurrence, and some window sum did reduce."""
    per_slot, most = 255 // (p - 1), [0]
    original = fields._byte_window_sum

    def counting(prime):
        window_sum = original(prime)

        def count(terms, k):
            most[0] = max(most[0], len(terms))
            return window_sum(terms, k)
        return count

    monkeypatch.setattr(fields, "_byte_window_sum", counting)
    rng = random.Random(p * m)
    for _ in range(60):
        h = [rng.randrange(1, p), *[rng.randrange(p) for _ in range(m - 1)], 1]
        s = [rng.randrange(p) for _ in range(m)]
        while len(s) < 600:
            s.append(-sum(hi * v for hi, v in zip(h, s[-m:])) % p)
        assert list(fields._recurrence_fill(s[:2 * m], h, 600, p)) == s, h
    assert most[0] > per_slot


@pytest.mark.parametrize("p", [65521, 100003])
def test_list_window_slots_at_degree_1(p):
    """A list-window slot holds m(p - 1)^2 < 2^32 up to p = 65521 at
    m = 1, and wider primes take 8-byte slots.  At m = 1 the trace is the
    identity, so trace_exp is the powers of alpha mod p."""
    ctx = make_field(p, 1)
    assert list(ctx.trace_exp) == [pow(ctx.alpha, k, p) for k in range(p - 1)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), data=st.data())
def test_add_matches_oracle(fields, pair, data):
    p, m = pair
    ctx = fields(p, m)
    top = ctx.r - 1  # every digit p - 1: each digit of top + top wraps to p - 2
    element = st.one_of(st.integers(0, top), st.just(top))
    for _ in range(20):
        x, y = data.draw(element, label="x"), data.draw(element, label="y")
        assert ctx.add(x, y) == oracle.add(p, x, y)
    assert ctx.add(top, top) == oracle.add(p, top, top)


@pytest.mark.parametrize("p,m", PAIRS)
def test_default_modulus_tables_match_oracle(fields, p, m):
    _assert_tables_match_oracle(fields(p, m))


def test_pairs_cover_the_benchmark_sizes():
    assert {(3, 8), (7, 5), (11, 4)} <= set(PAIRS)


# m = 1, default moduli, and non-default moduli of three fields
PRIMITIVE_CASES = [(5, 1, None), (13, 1, None), (3, 4, None), (37, 2, None),
                   (5, 3, oracle.irreducible_from(5, 3, 60)),
                   (3, 5, oracle.irreducible_from(3, 5, 100)),
                   (7, 3, oracle.irreducible_from(7, 3, 200))]


@pytest.mark.parametrize("p,m,modulus", PRIMITIVE_CASES)
def test_alpha_is_the_smallest_primitive_index(fields, p, m, modulus):
    ctx = fields(p, m, modulus)
    rm1 = ctx.r - 1

    def primitive(x):
        return all(oracle._pow_raw(ctx, x, rm1 // q) != 1 for q in prime_factors(rm1))

    assert oracle._pow_raw(ctx, ctx.alpha, rm1) == 1
    assert ctx.alpha == next(x for x in range(1, ctx.r) if primitive(x))
    if m == 1:
        assert 2 <= ctx.alpha < p


def test_primitive_cases_hold_non_default_moduli():
    non_default = {(p, m) for p, m, f in PRIMITIVE_CASES
                   if f is not None and f != make_field(p, m).modulus}
    assert len(non_default) >= 2


def test_non_primitive_alpha_fails_the_order_check(monkeypatch):
    ctx = make_field(3, 4)
    square = ctx.mul(ctx.alpha, ctx.alpha)  # order 40 of 80, still of degree 4
    monkeypatch.setattr(FieldContext, "_find_primitive", lambda self: square)
    with pytest.raises(AssertionError, match="primitive element order check failed"):
        make_field(3, 4).trace_exp
    # 2 lies in F_3: Tr(2^k) has linear complexity 1, the rank of its Hankel form
    monkeypatch.setattr(FieldContext, "_find_primitive", lambda self: 2)
    with pytest.raises(AssertionError, match="degenerate form of rank 1 < 4"):
        make_field(3, 4).trace_exp


@pytest.mark.parametrize("p,m", [(3, 5), (131, 2)])
@pytest.mark.parametrize("table", ["trace_exp"])
def test_spot_check_sees_one_corrupt_term(monkeypatch, p, m, table):
    """One wrong term of the fill, at k = r - 2 away from the order
    check's terms, fails the comparison with alpha^k by square-and-multiply."""
    ctx = make_field(p, m)
    original = fields._recurrence_fill

    def corrupt(seed, h, n, p):
        s = original(seed, h, n, p)
        s[ctx.r - 2] = (s[ctx.r - 2] + 1) % p
        return s

    monkeypatch.setattr(fields, "_recurrence_fill", corrupt)
    with pytest.raises(AssertionError, match=rf"recurrence fill differs from alpha\^{ctx.r - 2}$"):
        getattr(ctx, table)
