"""Field tables and O(1) addition against the table-free oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import make_field

import oracle

# every (p, m) with r = p^m <= 2*10^4 for the drawn primes
PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 37) for m in range(1, 10) if p**m <= 2 * 10**4]


def _assert_tables_match_oracle(ctx):
    exp, log = oracle.power_tables(ctx)
    assert type(ctx.exp) is list and type(ctx.log) is list
    assert type(ctx.trace_table) is list
    assert ctx.exp == exp
    assert ctx.log == log
    assert ctx.trace_table == oracle.trace_table(ctx)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), data=st.data())
def test_tables_match_oracle(pair, data):
    p, m = pair
    modulus = None
    if data.draw(st.booleans(), label="random modulus"):
        tail = data.draw(st.integers(0, p**m - 1), label="tail")
        modulus = oracle.irreducible_from(p, m, tail)
    _assert_tables_match_oracle(make_field(p, m, modulus=modulus))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), data=st.data())
def test_add_sub_neg_match_oracle(fields, pair, data):
    p, m = pair
    ctx = fields(p, m)
    top = ctx.r - 1  # every digit p - 1: each spread digit of top + top is 2p - 2
    element = st.one_of(st.integers(0, top), st.just(top))
    for _ in range(20):
        x, y = data.draw(element, label="x"), data.draw(element, label="y")
        assert ctx.add(x, y) == oracle.add(p, x, y)
        assert ctx.neg(y) == oracle.neg(p, y)
        assert ctx.sub(x, y) == oracle.add(p, x, oracle.neg(p, y))
    assert ctx.add(top, top) == oracle.add(p, top, top)
    assert ctx.neg(top) == oracle.neg(p, top) == sum(p**j for j in range(m))


@pytest.mark.parametrize("p,m", PAIRS)
def test_default_modulus_tables_match_oracle(fields, p, m):
    _assert_tables_match_oracle(fields(p, m))


def test_pairs_cover_the_benchmark_sizes():
    assert {(3, 8), (7, 5), (11, 4)} <= set(PAIRS)
