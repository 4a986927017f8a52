"""Direct character sums and codeword compositions that read
``ctx.trace_exp`` in bulk, against the per-element walks in
``tests/oracle.py``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import (
    build_defining_set,
    build_defining_set_general,
    charsums,
    cyclotomic_numbers_direct,
    exhaustive_cwe,
    gauss_sum_direct,
    make_field,
    orbit_compositions,
    quadratic_exponential_sum,
)
from tracecodes.cli import main
from tracecodes.codes import (
    _bit_walk,
    _orbit_count,
    _rep_cost,
    _representatives,
    _symbol_walk,
    cwe_from_compositions,
    translation_shift,
)
from tracecodes.fields import FieldContext
from tracecodes.verification import (
    verify_counts,
    verify_cwe,
    verify_equivalence,
    verify_griesmer,
    verify_quadratic_sums,
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
# fields whose tables tests/oracle.py rebuilds one ctx.mul at a time
SMALL_PAIRS = [(p, m) for p, m in PAIRS if p**m <= 3000]


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
        assert quadratic_exponential_sum(ctx, *[oracle.log(ctx, a) for a in (a2, a1, a0)]) == \
            oracle.quadratic_exponential_sum(ctx, a2, a1, a0), (a2, a1, a0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SMALL_PAIRS), kind=st.sampled_from(("main", "d1", "d2")),
       data=st.data())
def test_defining_set_logs_match_elementwise_filter(pair, kind, data):
    """The logs read off trace_exp name exactly the elements that pass the
    per-element filter over the oracle's trace and power tables."""
    p, m = pair
    ctx = _field(data, p, m)
    b = data.draw(st.integers(0, p - 1), label="b")
    dset = _dset(ctx, kind, b)
    tr = oracle.trace_table(ctx)
    exp, log = oracle.power_tables(ctx)

    def tr_square(x):
        return tr[exp[2 * log[x] % (ctx.r - 1)]] if x else 0

    want = {x for x in range(ctx.r)
            if (kind == "d2" or tr[x] == b) and (kind == "d1" or tr_square(x) == 0)
            and (kind != "d2" or x)}
    got = {exp[k] for k in dset.logs} | ({0} if dset.has_zero else set())
    assert got == want
    assert len(dset) == len(want)
    assert list(dset.logs) == sorted(set(dset.logs))
    if kind == "main" and m > 2:
        assert build_defining_set(ctx, b).logs == dset.logs


def _compositions(ctx, dset, walked):
    """The composition of every nonzero a's codeword, rebuilt from the
    orbit_compositions list ``walked``: a = c * (alpha^la)^(p^i) with
    c = alpha^(j*N) carries the representative's composition with symbol
    v moved to c*v.  Where translation_shift gives b, a + t, t in F_p,
    carries that composition with symbol v moved to v + t*b, and a = t in
    F_p^* has every symbol t*b."""
    p, rm1 = ctx.p, ctx.r - 1
    step = rm1 // (p - 1)
    exp = oracle.power_tables(ctx)[0]
    shift = translation_shift(dset)
    ts = range(p) if shift is not None else [0]
    comps = {}
    for t in ts[1:]:
        comps[t] = [len(dset) if v == t * shift % p else 0 for v in range(p)]
    for la, _, comp in walked:
        for j in range(p - 1):
            c = exp[j * step]
            for t in ts:
                moved = [0] * p
                for v in range(p):
                    moved[(c * v + t * (shift or 0)) % p] = comp[v]
                members = {oracle.add(p, exp[(la * p**i + j * step) % rm1], t)
                           for i in range(ctx.m)}
                for a in members:
                    assert comps.setdefault(a, moved) == moved, a
    assert len(comps) == rm1
    return comps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_orbit_compositions_match_walk(case, data):
    p, m, kind = case
    ctx = _field(data, p, m)
    dset = _dset(ctx, kind, data.draw(st.integers(0, p - 1), label="b"))
    # both kernels, whichever side of _rep_cost < n the case is on
    reps = _representatives(ctx, dset)
    walked = orbit_compositions(ctx, dset)
    for kernel in (_bit_walk, _symbol_walk):
        composition = kernel(ctx, dset)
        assert [(la, s, composition(la)) for la, s in reps] == walked, kernel
    comps = _compositions(ctx, dset, walked)
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
        n = len(build_defining_set(ctx, 1))
        assert (_rep_cost(p, ctx.r, n) < n) is bits, (p, m)


@pytest.mark.parametrize("p,m", PAIRS)
def test_corners_match_walks(fields, p, m):
    """a1 = 0, a0 = 0, a2 in the prime field, a = 0 and 0 in D, on every
    pair at the default modulus; the cyclotomic numbers too."""
    ctx = fields(p, m)
    top = ctx.r - 1
    for a2, a1, a0 in [(1, 0, 0), (p - 1, 0, top), (top, top, 0), (ctx.alpha, 1, 1)]:
        assert quadratic_exponential_sum(ctx, *[oracle.log(ctx, a) for a in (a2, a1, a0)]) == \
            oracle.quadratic_exponential_sum(ctx, a2, a1, a0), (a2, a1, a0)
    assert cyclotomic_numbers_direct(ctx) == \
        {(i, j): oracle.cyclotomic_number_direct(ctx, i, j) for i in (0, 1) for j in (0, 1)}


def test_zero_is_in_the_b0_sets():
    ctx = make_field(3, 4)
    assert _dset(ctx, "main", 0).has_zero
    assert _dset(ctx, "d1", 0).has_zero
    assert not _dset(ctx, "d2", 0).has_zero


@pytest.mark.parametrize("p,m", [(5, 4), (11, 3)])
def test_pipeline_after_make_field_does_no_field_arithmetic(p, m):
    """Defining sets, the walk (bits at (5,4), symbols at (11,3)) and the
    code-level checks read logs and trace_exp, never an element-wise
    field operation."""
    ctx = make_field(p, m)

    def forbidden(*args):
        raise AssertionError("element-wise field operation")

    for op in ("mul", "add"):
        setattr(ctx, op, forbidden)
    build_defining_set_general(ctx, trace_value=1)
    build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)
    dset = build_defining_set(ctx, 2)
    comps = orbit_compositions(ctx, dset)
    cwe = cwe_from_compositions(p, len(dset), comps, shift=translation_shift(dset))
    assert exhaustive_cwe(ctx, dset).terms == cwe.terms
    verdicts = (verify_counts(ctx, dset, comps) + verify_cwe(ctx, cwe)
                + verify_griesmer(ctx, cwe) + verify_equivalence(ctx))
    assert all(v.passed for v in verdicts), [v.name for v in verdicts if not v.passed]


def test_one_trace_exp_per_context():
    ctx = make_field(5, 3)
    assert "trace_exp" not in vars(ctx)  # built on first use only
    exhaustive_cwe(ctx, build_defining_set(ctx, 1))
    table = vars(ctx)["trace_exp"]
    assert list(table) == [oracle.trace_table(ctx)[x] for x in oracle.power_tables(ctx)[0]]
    gauss_sum_direct(ctx)
    orbit_compositions(ctx, build_defining_set(ctx, 1))
    assert ctx.trace_exp is table


# every command that enumerates or reads codes, on the main, d1 and d2 sets,
# and the sums scope, alone and in all, on a non-default modulus and at odd m
TABLE_FREE_RUNS = [
    ["build", "--p", "5", "--m", "4", "--b", "2"],
    ["build", "--p", "3", "--m", "5", "--defining-set", "d1"],
    ["build", "--p", "3", "--m", "4", "--defining-set", "d2"],
    ["sweep", "--p-list", "3,5,7", "--m-list", "3", "--b", "2"],
] + [["verify", "--p", "5", "--m", "4", "--b", "3", "--scope", scope]
     for scope in ("cwe", "counts", "griesmer")] + [
    ["verify", "--p", "5", "--m", "4", "--scope", "equivalence"]] + [
    ["verify", *field, "--scope", scope] for scope in ("sums", "all")
    for field in (["--p", "5", "--m", "4", "--modulus", "3,0,0,0,1"], ["--p", "3", "--m", "5"])]


def _forbidden(*args):
    raise AssertionError("element table or element-wise operation")


@pytest.mark.parametrize("argv", TABLE_FREE_RUNS, ids=" ".join)
def test_code_commands_build_no_element_tables(capsys, monkeypatch, argv):
    """Every command reads logs, trace_exp and prime_powers only: naming
    an element by ``power`` and element-wise arithmetic raise, and the
    output is unchanged.  No power or log table exists."""
    for name in ("exp", "log", "trace", "_power_tables", "_spread_tables"):
        assert not hasattr(FieldContext, name), name
    assert main(argv) == 0
    want = capsys.readouterr().out
    for op in ("power", "add", "mul"):
        monkeypatch.setattr(FieldContext, op, _forbidden)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_quadratic_sums_read_power_only_to_report(monkeypatch):
    """The quadratic-sum check draws logs: a passing run names no element,
    and a failing one names its first triple through ``power``."""
    ctx = make_field(5, 4)
    with monkeypatch.context() as patch:
        patch.setattr(FieldContext, "power", _forbidden)
        [verdict] = verify_quadratic_sums(ctx, samples=50, seed=3)
    assert verdict.passed
    original = charsums.quadratic_exponential_sum_closed
    monkeypatch.setattr(charsums, "quadratic_exponential_sum_closed",
                        lambda *args, **kwargs: -original(*args, **kwargs))
    [verdict] = verify_quadratic_sums(ctx, samples=50, seed=3)
    rng = random.Random(3)
    logs = rng.randrange(ctx.r - 1), rng.randrange(ctx.r), rng.randrange(ctx.r)
    exp = oracle.power_tables(ctx)[0]
    want = [0 if k == ctx.r - 1 else exp[k] for k in logs]
    assert not verdict.passed
    assert verdict.data == dict(zip(("a2", "a1", "a0"), want))
