import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import (
    DefiningSet,
    build_defining_set,
    build_defining_set_general,
    enumeration_cost,
    exhaustive_cwe,
    irreducible_polynomials,
    make_field,
    orbit_compositions,
    summarize,
    trace_pair_table,
)
from tracecodes.codes import (
    CompleteWeightEnumerator,
    _rep_cost,
    cwe_from_compositions,
    relabelling,
    translation_shift,
)
from tracecodes.verification import verify_equivalence
from tracecodes.errors import (
    BudgetExceededError,
    DegreeTooSmallError,
    EmptyConstraintError,
    MixedContextError,
    NonPowerCodewordCountError,
    NotFrobeniusStableError,
)

from expected_enumerators import CWE_3_6, CWE_5_3, CWE_5_4
import oracle
from oracle import _pow_raw, elements


def test_defining_set_sizes(fields):
    assert len(build_defining_set(fields(5, 4), 1)) == 20
    assert len(build_defining_set(fields(3, 6), 1)) == 81
    assert len(build_defining_set(fields(5, 3), 1)) == 6


def test_defining_set_membership_and_order(fields):
    ctx = fields(5, 4)
    dset = build_defining_set(ctx, 1)
    assert list(dset.logs) == sorted(set(dset.logs))  # logs ascend
    tr = oracle.trace_table(ctx)
    for x in elements(ctx, dset):
        assert tr[x] == 1
        assert tr[oracle.mul(ctx, x, x)] == 0
    assert not dset.has_zero
    assert dset.in_closed_form_scope


def test_defining_set_b_zero_flagged(fields):
    ctx = fields(3, 4)
    dset = build_defining_set(ctx, 0)
    assert not dset.in_closed_form_scope
    assert dset.has_zero  # Tr(0) = 0 and Tr(0^2) = 0
    assert not build_defining_set(ctx, 3).in_closed_form_scope  # b = 0 in F_3
    # the single-constraint sets lie outside the closed forms at every value
    for b in range(3):
        assert not build_defining_set_general(ctx, trace_value=b).in_closed_form_scope
        assert not build_defining_set_general(ctx, trace_square_value=b).in_closed_form_scope


def test_defining_set_degree_guard(fields):
    with pytest.raises(DegreeTooSmallError):
        build_defining_set(fields(3, 2), 1)


def test_general_defining_sets(fields):
    ctx = fields(3, 6)
    d1 = build_defining_set_general(ctx, trace_value=1)
    assert len(d1) == 3**5
    ctx = fields(5, 4)
    d2 = build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)
    assert len(d2) == 104
    both = build_defining_set_general(ctx, trace_value=0, trace_square_value=0)
    assert both.has_zero
    with pytest.raises(EmptyConstraintError):
        build_defining_set_general(ctx)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 3), (37, 3), (251, 2), (257, 2)])
def test_trace_scan_finds_every_log(fields, p, m):
    """The bytes.find scan for p < 256, and the comprehension above it,
    return the logs with Tr = b in order, alone and with Tr(x^2) = 0, and
    those with Tr(x^2) = b alone; b = p reduces to 0."""
    ctx = fields(p, m)
    tr = ctx.trace_exp
    square = [tr[2 * k % (ctx.r - 1)] for k in range(ctx.r - 1)]
    for b in (0, 1, 2, p - 1, p):
        want = [k for k in range(ctx.r - 1) if tr[k] == b % p]
        assert list(build_defining_set_general(ctx, trace_value=b).logs) == want
        both = build_defining_set_general(ctx, trace_value=b, trace_square_value=0)
        assert list(both.logs) == [k for k in want if square[k] == 0]
        alone = build_defining_set_general(ctx, trace_square_value=b)
        assert list(alone.logs) == [k for k, v in enumerate(square) if v == b % p]


@pytest.mark.parametrize("p,m", [(3, 4), (3, 6), (5, 3), (5, 4), (7, 3), (37, 3)])
def test_fold_equals_the_per_image_fold(fields, p, m):
    ctx = fields(p, m)
    for b in (0, 1, p - 1):
        dset = build_defining_set(ctx, b)
        comps = orbit_compositions(ctx, dset)
        shift = translation_shift(dset)
        assert (shift is None) is (m % p == 0), b
        assert cwe_from_compositions(p, len(dset), comps, shift=shift).terms == \
            oracle.fold_per_image(p, len(dset), comps, shift=shift), b


def test_fold_sums_images_under_a_nontrivial_stabiliser():
    # at p = 5: the zero composition and (2, 1, 1, 1, 1) are fixed by every
    # c, (0, 1, 2, 2, 1) = comp[-w] by c = -1 only, and (3, 1, 2, 0, 0) by
    # none; (3, 0, 1, 0, 2) is (3, 1, 2, 0, 0) relabelled by c = 2
    n = 6
    comps = [(0, 2, (6, 0, 0, 0, 0)), (1, 3, (2, 1, 1, 1, 1)), (2, 5, (0, 1, 2, 2, 1)),
             (3, 7, (3, 1, 2, 0, 0)), (4, 11, (3, 0, 1, 0, 2))]
    terms = cwe_from_compositions(5, n, comps).terms
    assert terms == oracle.fold_per_image(5, n, comps)
    assert terms[6, 0, 0, 0, 0] == 1 + 4 * 2
    assert terms[2, 1, 1, 1, 1] == 4 * 3
    assert terms[0, 1, 2, 2, 1] == terms[0, 2, 1, 1, 2] == 2 * 5
    assert terms[3, 1, 2, 0, 0] == 7 + 11


@st.composite
def fold_inputs(draw):
    """(p, n, compositions) with counts from a small range, so classes
    repeat and some compositions have a nontrivial stabiliser."""
    p = draw(st.sampled_from([3, 5, 7]))
    comp = st.tuples(*[st.integers(0, 2)] * p)
    comps = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 9), comp), max_size=12))
    return p, 2 * p, comps


@settings(max_examples=200, deadline=None)
@given(fold_inputs(), st.data())
def test_fold_equals_the_per_image_fold_on_any_compositions(case, data):
    p, n, comps = case
    shift = data.draw(st.sampled_from([None, *range(p)]), label="shift")
    assert cwe_from_compositions(p, n, comps, shift=shift).terms == \
        oracle.fold_per_image(p, n, comps, shift=shift)


def test_codeword_basics(fields):
    ctx = fields(3, 3)  # p | m: every orbit is walked, a = 1 first
    dset = build_defining_set(ctx, 1)
    reps = orbit_compositions(ctx, dset)
    assert reps[0] == (0, 1, (0, len(dset), 0))  # a = 1: every symbol is 1
    ctx = fields(5, 3)  # p does not divide m: the orbits in W = ker Tr alone
    dset = build_defining_set(ctx, 1)
    reps = orbit_compositions(ctx, dset)
    assert reps and all(ctx.trace_exp[la] == 0 for la, _, _ in reps)
    assert [la for la, _, _ in reps] == sorted(la for la, _, _ in reps)
    other = make_field(5, 3)
    with pytest.raises(MixedContextError):
        orbit_compositions(other, dset)


def test_cwe_matches_published_terms(fields):
    for (p, m), want in [((3, 6), CWE_3_6), ((5, 4), CWE_5_4), ((5, 3), CWE_5_3)]:
        ctx = fields(p, m)
        cwe = exhaustive_cwe(ctx, build_defining_set(ctx, 1))
        assert cwe.terms == want, (p, m)


def test_cwe_invariants(fields):
    for p, m in [(3, 4), (5, 3), (7, 3)]:
        ctx = fields(p, m)
        dset = build_defining_set(ctx, 1)
        cwe = exhaustive_cwe(ctx, dset)
        n = len(dset)
        assert cwe.total() == p**m
        assert all(sum(comp) == n for comp in cwe.terms)
        # every coordinate functional is balanced on nonzero codewords
        weight_sum = sum((n - comp[0]) * freq for comp, freq in cwe.terms.items())
        assert weight_sum == n * (p - 1) * p ** (m - 1)


def test_dimension_from_kernel(fields):
    for p, m in [(3, 3), (3, 4), (5, 3), (5, 4), (3, 6), (7, 3)]:
        ctx = fields(p, m)
        cwe = exhaustive_cwe(ctx, build_defining_set(ctx, 1))
        assert cwe.distinct_codewords() == p**m
        assert cwe.dimension() == m


def test_code_summaries(fields):
    s = summarize(exhaustive_cwe(fields(5, 3), build_defining_set(fields(5, 3), 1)), 5)
    assert (s.n, s.k, s.d) == (6, 3, 4)
    assert s.mds and s.griesmer_optimal
    s = summarize(exhaustive_cwe(fields(3, 3), build_defining_set(fields(3, 3), 1)), 3)
    assert (s.n, s.k, s.d) == (3, 3, 1)
    assert s.mds and s.griesmer_optimal
    s = summarize(exhaustive_cwe(fields(7, 3), build_defining_set(fields(7, 3), 1)), 7)
    assert (s.n, s.k, s.d) == (6, 3, 4)
    assert s.mds and s.griesmer_optimal


def test_distinct_codewords_rejects_a_broken_enumerator():
    """No zero codeword, or a total that the zero composition's
    frequency does not divide, is no linear code's enumerator."""
    for terms in [{(0, 2, 0): 3}, {(2, 0, 0): 0, (0, 2, 0): 3}]:
        with pytest.raises(NonPowerCodewordCountError, match="zero codeword missing"):
            CompleteWeightEnumerator(p=3, n=2, terms=terms).distinct_codewords()
    cwe = CompleteWeightEnumerator(p=3, n=2, terms={(2, 0, 0): 2, (0, 2, 0): 3})
    with pytest.raises(NonPowerCodewordCountError,
                       match="total 5 not divisible by zero-codeword fiber 2"):
        cwe.distinct_codewords()


def test_count_symbol(fields):
    ctx = fields(3, 6)
    dset = build_defining_set(ctx, 1)
    n = len(dset)
    reps = orbit_compositions(ctx, dset, workers=2)
    assert reps == orbit_compositions(ctx, dset)
    # a in the prime subfield: the codeword is constant a
    assert reps[0] == (0, 1, (0, n, 0))
    assert [reps[0][2][w] for w in relabelling(3, 2)] == [0, 0, n]
    assert all(sum(comp) == n for _, _, comp in reps)
    assert sum(s for _, s, _ in reps) * 2 == ctx.r - 1


@pytest.mark.parametrize("p,m", [(3, 6), (11, 4)])
def test_walk_is_the_same_for_every_worker_count(fields, p, m):
    """The bitset walk at (3,6), the per-symbol walk at (11,4): 1, 2 and
    4 workers return one list."""
    ctx = fields(p, m)
    dset = build_defining_set(ctx, 1)
    assert (_rep_cost(p, ctx.r, len(dset)) < len(dset)) is (p == 3)
    serial = orbit_compositions(ctx, dset)
    assert len(serial) >= 8
    for workers in (2, 4):
        assert orbit_compositions(ctx, dset, workers=workers) == serial, workers


@pytest.mark.parametrize("workers,chunks", [(1, 1), (2, 2), (7, 7), (8, 7), (50, 7)])
def test_workers_split_at_two_representatives_each(fields, monkeypatch, workers, chunks):
    """(37,3) walks 14 representatives of W = ker Tr: --workers w splits
    them into min(w, 14 // 2) chunks, so asking for more than 7 processes
    gets 7, not a serial walk; one chunk forks nothing."""
    from tracecodes import codes
    ctx = fields(37, 3)
    dset = build_defining_set(ctx, 1)
    serial = orbit_compositions(ctx, dset)
    assert len(serial) == 14
    split = []

    def in_process(fn, jobs):  # fork_map's contract, without the processes
        split.append(len(jobs))
        return [fn(job) for job in jobs]

    monkeypatch.setattr(codes, "fork_map", in_process)
    assert orbit_compositions(ctx, dset, workers=workers) == serial
    assert split == ([] if chunks == 1 else [chunks])


def test_trace_pair_counts(fields):
    ctx = fields(5, 4)
    assert trace_pair_table(ctx)[(0, 1)] == 20
    table = trace_pair_table(ctx)
    assert sum(table.values()) == 5**4
    assert table[(0, 1)] == 20
    ctx = fields(3, 6)
    assert trace_pair_table(ctx)[(0, 0)] == 99


def test_budget_guard(fields):
    ctx = fields(3, 6)
    dset = build_defining_set(ctx, 1)
    with pytest.raises(BudgetExceededError):
        exhaustive_cwe(ctx, dset, budget=100)


def test_budget_counts_enumeration_cost(fields):
    ctx = fields(3, 6)
    dset = build_defining_set(ctx, 1)
    cost = enumeration_cost(ctx.p, ctx.m, len(dset), True)
    assert cost < ctx.r * len(dset)
    assert exhaustive_cwe(ctx, dset, budget=cost).terms == CWE_3_6
    with pytest.raises(BudgetExceededError):
        exhaustive_cwe(ctx, dset, budget=cost - 1)


def test_enumeration_cost_prices_the_kernel_that_runs():
    """Orbits times the per-representative cost of the kernel _rep_cost
    picks: the bitset walk at p = 3, n symbol reads at (11,4) and (37,3).
    The main set lies in Tr(x) = 1, so where p does not divide m only the
    orbits in W = ker Tr are priced, about a p-th of them."""
    from tracecodes.closedform import trace_pair_count_closed
    from tracecodes.codes import DEFAULT_BUDGET, _orbit_count
    costs = {(3, 9): 68014, (3, 11): 1486936, (3, 12): 36902437, (3, 13): 101852520,
             (11, 4): 4070, (37, 3): 504, (5, 8): 6034182, (7, 7): 151401089}
    for (p, m), cost in costs.items():
        n = trace_pair_count_closed(p, m, 0, 1)
        assert enumeration_cost(p, m, n, True) == cost, (p, m)
        assert (cost < _orbit_count(p, m, True) * n) is (p < 11), (p, m)
        # off the hyperplane, or with p | m, every orbit of Z/N is priced
        full = enumeration_cost(p, m, n, False)
        assert (full == cost) is (m % p == 0), (p, m)
    assert costs[3, 12] <= DEFAULT_BUDGET < costs[3, 13]
    assert costs[5, 8] <= DEFAULT_BUDGET < costs[7, 7]


def test_non_frobenius_stable_set_rejected(fields):
    ctx = fields(3, 3)
    assert _pow_raw(ctx, ctx.alpha, 3) != ctx.alpha
    dset = DefiningSet(ctx=ctx, logs=(1,), has_zero=False, trace_value=None,
                       trace_square_value=None, exclude_zero=True)
    with pytest.raises(NotFrobeniusStableError):
        exhaustive_cwe(ctx, dset)


def test_workers_give_identical_terms(fields):
    ctx = fields(5, 3)
    dset = build_defining_set(ctx, 1)
    assert exhaustive_cwe(ctx, dset, workers=1).terms == \
        exhaustive_cwe(ctx, dset, workers=3).terms


def test_scaled_set_equivalence(fields):
    for p, m in [(3, 4), (5, 3)]:
        assert verify_equivalence(fields(p, m))[0].passed, (p, m)


def test_scaled_sets_have_the_b1_enumerator(fields):
    # what verify_equivalence's set check implies, end to end
    for p, m in [(3, 3), (3, 5), (3, 6), (5, 4), (3, 8), (7, 5)]:
        ctx = fields(p, m)
        assert verify_equivalence(ctx)[0].passed, (p, m)
        base = exhaustive_cwe(ctx, build_defining_set(ctx, 1)).terms
        for b in range(2, p):
            assert exhaustive_cwe(ctx, build_defining_set(ctx, b)).terms == base, (p, m, b)


def test_scaled_set_equivalence_reads_each_set_off_trace_exp():
    # Move one alpha^k from D_2 to D_3 by its trace alone.  k is odd, so
    # every Tr(x^2) = trace_exp[2k mod (r - 1)] entry, an even index, stays;
    # D_1 stays too, so only b = 2 and 3 can mismatch, and only if D_b is
    # read off trace_exp rather than shifted from D_1.
    ctx = make_field(5, 4)
    tr = list(ctx.trace_exp)
    k = next(k for k in range(1, ctx.r - 1, 2) if tr[k] == 2 and tr[2 * k % (ctx.r - 1)] == 0)
    tr[k] = 3
    ctx.__dict__["trace_exp"] = bytes(tr)  # planted in the type the readers take at p = 5
    [verdict] = verify_equivalence(ctx)
    assert not verdict.passed
    assert verdict.details == "mismatch at b=[2, 3]"


def test_scaled_set_equivalence_builds_d1_once(fields, monkeypatch):
    from tracecodes import codes
    calls = []
    original = codes.build_defining_set

    def counted(ctx, b=1):
        calls.append(b)
        return original(ctx, b)
    monkeypatch.setattr(codes, "build_defining_set", counted)
    assert verify_equivalence(fields(5, 4))[0].passed
    assert calls == [1]


def test_representation_independence():
    for p, m in [(5, 3), (3, 4)]:
        gen = irreducible_polynomials(p, m)
        first, second = next(gen), next(gen)
        terms = []
        for modulus in (first, second):
            ctx = make_field(p, m, modulus=modulus)
            cwe = exhaustive_cwe(ctx, build_defining_set(ctx, 1))
            terms.append(cwe.terms)
        assert terms[0] == terms[1], (p, m)


def test_comparison_code_parameters(fields):
    ctx = fields(3, 6)
    d1 = build_defining_set_general(ctx, trace_value=1)
    s = summarize(exhaustive_cwe(ctx, d1), 3)
    assert (s.n, s.k, s.d) == (243, 6, 162)
    ctx = fields(5, 4)
    d2 = build_defining_set_general(ctx, trace_square_value=0, exclude_zero=True)
    s = summarize(exhaustive_cwe(ctx, d2), 5)
    assert (s.n, s.k, s.d) == (104, 4, 80)
