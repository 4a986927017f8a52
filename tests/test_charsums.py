import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import (
    CyclotomicInteger,
    charsums,
    cyclotomic_numbers_direct,
    cyclotomic_numbers_order2,
    gauss_int,
    gauss_pair_int,
    gauss_sum_closed_cyclotomic,
    gauss_sum_counted,
    gauss_sum_direct,
    irreducible_polynomials,
    make_field,
    quadratic_exponential_sum,
    quadratic_exponential_sum_closed,
    quadratic_gauss_sum_fp,
    quartic_reading_sign,
)
from tracecodes.errors import ZeroLeadingCoefficientError

import oracle
from oracle import embed

# fields whose per-element walk stays small, p = 3 and p >= 5
SMALL_PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 37) for m in range(1, 8) if p**m <= 3000]

GAUSS_GRID = [(p, m) for p in (3, 5, 7, 11, 13) for m in (1, 2, 3, 4)
              if p**m <= 30000]

# every odd prime below 60 with the degrees that keep r <= 2 * 10^4
LIFT_PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
              for m in range(1, 10) if p**m <= 2 * 10**4]


def test_gauss_verdicts_at_degree_16_read_no_table():
    """Every degree of the ladder is counted from a modulus's trace form,
    so (3,16), whose degree-15 field exceeds the default size cap of 10^7,
    passes all 48 verdicts without building its own trace_exp."""
    from tracecodes.verification import verify_gauss_sums
    ctx = make_field(3, 16, size_cap=10**8)
    verdicts = verify_gauss_sums(ctx)
    assert len(verdicts) == 48 and all(v.passed for v in verdicts)
    assert "trace_exp" not in vars(ctx)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SMALL_PAIRS), data=st.data())
def test_gauss_sum_counted_equals_oracle(pair, data):
    """The counted Gauss sum of a modulus is the per-element eta-sum over
    the field it defines, on default, drawn and non-primitive moduli."""
    p, m = pair
    kind = data.draw(st.sampled_from(["default", "drawn", "non-primitive"]), label="modulus")
    tail = data.draw(st.integers(0, p**m - 1), label="tail")
    modulus = None
    if kind == "drawn":
        modulus = oracle.irreducible_from(p, m, tail)
    elif kind == "non-primitive" and m > 1:
        modulus = oracle.non_primitive_modulus(p, m, tail)
    ctx = make_field(p, m, modulus=modulus)
    assert gauss_sum_counted(p, ctx.modulus) == oracle.gauss_sum_direct(ctx)


@pytest.mark.parametrize("p,m", [(3, 20), (5, 12), (7, 10), (101, 4)])
def test_gauss_sum_counted_equals_closed_past_any_table(p, m):
    """Fields of 1.0*10^8 to 3.5*10^9 elements, past every table's size cap."""
    modulus = next(irreducible_polynomials(p, m))
    assert gauss_sum_counted(p, modulus) == gauss_sum_closed_cyclotomic(p, m)


def test_gauss_ladder_fails_without_newton_terms_above_m(monkeypatch):
    """With s_j = 0 for j > m, the Hankel entries Tr(x^(i+j)) above m are
    wrong.  Where that flips the square class of the form's discriminant,
    as at degrees 4 and 5 over F_7, the counted sum is -G and both its
    closed-form and its sign verdicts fail; at (3,6) the wrong form is
    degenerate, and counting it raises."""
    from tracecodes import fields
    from tracecodes.verification import verify_gauss_sums
    ctx = make_field(7, 5)
    assert all(v.passed for v in verify_gauss_sums(ctx))
    original = fields.power_sums
    monkeypatch.setattr(charsums, "power_sums",
                        lambda f, p, count: (original(f, p, len(f)) + [0] * count)[:count])
    failed = [v.name for v in verify_gauss_sums(ctx) if not v.passed]
    assert failed == [f"gauss-sum{kind} p=7 m={mm}" for mm in (4, 5)
                      for kind in ("", "-sign-convention")]
    with pytest.raises(AssertionError, match="degenerate form"):
        verify_gauss_sums(make_field(3, 6))


@pytest.mark.parametrize("p,m", [(3, 5), (5, 4), (7, 3), (13, 3), (257, 2)])
@pytest.mark.parametrize("where", ["last window", "a third in"])
def test_quadratic_sums_fail_on_one_corrupt_trace(p, m, where):
    """One wrong trace_exp entry, in the last fill window or a third of
    the way in and away from the fill's spot checks at 1, (r - 1)/2 and
    r - 2, moves the eta-sum G that the closed form reads, so the
    completed-square identity fails."""
    from tracecodes.verification import verify_quadratic_sums
    ctx = make_field(p, m)
    rm1 = ctx.r - 1
    k = rm1 - 2 if where == "last window" else rm1 // 3
    assert k not in (1, rm1 // 2, rm1 - 1)
    tr = list(ctx.trace_exp)
    tr[k] = (tr[k] + 1) % p
    ctx.__dict__["trace_exp"] = bytes(tr) if p < 256 else tr  # the type the readers take
    [verdict] = verify_quadratic_sums(ctx)
    assert not verdict.passed
    assert verdict.details == "completed-square identity failed"


def test_gauss_direct_examples(fields):
    z = lambda k: CyclotomicInteger.zeta_power(5, k)
    assert gauss_sum_direct(fields(5, 1)) == z(1) + z(4) - z(2) - z(3)
    assert gauss_sum_direct(fields(3, 2)).as_int() == 3
    assert gauss_sum_direct(fields(5, 2)).as_int() == -5


def test_gauss_direct_equals_closed(fields):
    for p, m in GAUSS_GRID:
        assert gauss_sum_direct(fields(p, m)) == gauss_sum_closed_cyclotomic(p, m), (p, m)


def test_gauss_magnitude(fields):
    for p, m in GAUSS_GRID:
        direct = gauss_sum_direct(fields(p, m))
        assert direct * direct.conjugate() == p**m
        assert abs(abs(embed(direct)) ** 2 - p**m) <= 1e-9 * p**m


def test_magnitude_verdict_is_exact(monkeypatch):
    from tracecodes import charsums
    from tracecodes.verification import verify_gauss_sums

    def magnitudes(ctx):
        return [v for v in verify_gauss_sums(ctx) if v.name.startswith("gauss-sum-magnitude")]

    ctx = make_field(37, 1)
    [verdict] = magnitudes(ctx)
    assert verdict.passed and verdict.details == "G*conj(G) = 37 in Z[zeta_p]"
    original = charsums.gauss_sum_counted
    monkeypatch.setattr(charsums, "gauss_sum_counted", lambda p, f: original(p, f) + 1)
    [verdict] = magnitudes(ctx)
    assert not verdict.passed and verdict.details.endswith("!= 37")


@pytest.mark.parametrize("p,deviating", [(3, []), (7, [1, 3])])
def test_sign_convention_verdict_reads_the_summed_value(monkeypatch, p, deviating):
    """The quartic reading is compared with the counted value itself, so
    a negated counted sum fails the verdict at every degree."""
    from tracecodes import charsums
    from tracecodes.verification import verify_gauss_sums

    def signs(ctx):
        return [v for v in verify_gauss_sums(ctx) if v.name.startswith("gauss-sum-sign")]

    ctx = make_field(p, 3)
    verdicts = signs(ctx)
    assert all(v.passed for v in verdicts)
    assert [mm for mm, v in enumerate(verdicts, 1) if v.data["deviates"]] == deviating
    original = charsums.gauss_sum_counted
    monkeypatch.setattr(charsums, "gauss_sum_counted", lambda p, f: -original(p, f))
    assert not any(v.passed for v in signs(ctx))


def test_gauss_exact_integers():
    assert gauss_int(3, 2) == 3
    assert gauss_int(5, 2) == -5
    assert gauss_int(5, 4) == -25
    assert gauss_int(3, 6) == 27
    # over F_3 the sum is i * sqrt(3), no integer
    assert abs(embed(gauss_sum_closed_cyclotomic(3, 1)) - 1j * 3**0.5) < 1e-9
    with pytest.raises(ValueError):
        gauss_int(3, 1)


def test_gauss_pair_products():
    # G_m * G for odd m is the integer (-1)^(m-1) * (-1)^((p-1)(m+1)/4) * p^((m+1)/2)
    for p in (3, 5, 7, 11, 13):
        for m in (1, 3):
            sign = (-1) ** (m - 1) * (-1) ** ((p - 1) * (m + 1) // 4)
            assert gauss_pair_int(p, m) == sign * p ** ((m + 1) // 2), (p, m)


def test_sign_convention_deviation():
    for p in (3, 5, 7, 11, 13):
        for m in (1, 2, 3, 4):
            sign = quartic_reading_sign(p, m)
            assert (sign == -1) == ((p % 8 in (5, 7)) and m % 2 == 1), (p, m)
            # the literal reading i^((p-1)m/2) against eps^m, eps = 1 or i
            eps = 1 if p % 4 == 1 else 1j
            assert 1j ** ((p - 1) * m // 2) == sign * eps**m, (p, m)


def test_quartic_convention_value(fields):
    # for p = 5, m = 1 the quartic reading gives -sqrt(5), the summed value +sqrt(5)
    direct = gauss_sum_direct(fields(5, 1))
    assert quartic_reading_sign(5, 1) * gauss_sum_closed_cyclotomic(5, 1) == -direct


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(LIFT_PAIRS), data=st.data())
def test_gauss_closed_values_equal_summed_values(pair, data):
    """The closed Gauss sum and its integer forms, all read off
    g^2 = eta(-1) * p, against direct summation on default and drawn
    moduli."""
    p, m = pair
    modulus = None
    if data.draw(st.booleans(), label="drawn modulus"):
        modulus = oracle.irreducible_from(p, m, data.draw(st.integers(0, p**m - 1), label="tail"))
    direct = gauss_sum_direct(make_field(p, m, modulus=modulus))
    assert gauss_sum_closed_cyclotomic(p, m) == direct
    if m % 2 == 0:
        assert gauss_int(p, m) == direct.as_int()
    else:
        assert gauss_pair_int(p, m) == (direct * gauss_sum_direct(make_field(p, 1))).as_int()


def test_gauss_fp_is_direct_sum(fields):
    for p in (3, 5, 7, 11, 13):
        assert quadratic_gauss_sum_fp(p) == gauss_sum_direct(fields(p, 1))


def test_quadratic_sum_examples(fields):
    ctx = fields(3, 2)
    # a2 = 1 = alpha^0, a1 = a0 = 0
    assert quadratic_exponential_sum(ctx, 0, None, None).as_int() == 3
    # adding a constant multiplies the sum by a root of unity
    base = quadratic_exponential_sum(ctx, 0, None, None)
    tr = oracle.trace_table(ctx)
    for c in range(ctx.r):
        shifted = quadratic_exponential_sum(ctx, 0, None, oracle.log(ctx, c))
        assert shifted == base * CyclotomicInteger.zeta_power(3, tr[c])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SMALL_PAIRS), data=st.data())
def test_quadratic_sum_identity_random(pair, data):
    """Both sides against the per-element walk, on default, drawn and
    non-primitive moduli (alpha != x); log 4 is 0 at p = 3 only."""
    p, m = pair
    kind = data.draw(st.sampled_from(["default", "drawn", "non-primitive"]), label="modulus")
    tail = data.draw(st.integers(0, p**m - 1), label="tail")
    modulus = None
    if kind == "drawn":
        modulus = oracle.irreducible_from(p, m, tail)
    elif kind == "non-primitive" and m > 1:
        modulus = oracle.non_primitive_modulus(p, m, tail)
    ctx = make_field(p, m, modulus=modulus)
    assert (ctx.prime_log(4) == 0) is (p == 3)
    gauss = gauss_sum_direct(ctx)
    top = ctx.r - 1
    # a2 in the prime field, a1 = 0 and a0 = 0 are drawn as often as a
    # uniform element
    a2s = st.one_of(st.integers(1, p - 1), st.integers(1, top))
    coeffs = st.one_of(st.just(0), st.integers(0, top))
    for _ in range(3):
        a2 = data.draw(a2s, label="a2")
        a1, a0 = data.draw(coeffs, label="a1"), data.draw(coeffs, label="a0")
        want = oracle.quadratic_exponential_sum(ctx, a2, a1, a0)
        logs = [oracle.log(ctx, a) for a in (a2, a1, a0)]
        assert quadratic_exponential_sum(ctx, *logs) == want, (a2, a1, a0)
        assert quadratic_exponential_sum_closed(ctx, *logs, gauss=gauss) == want, \
            (a2, a1, a0)


# fields whose per-element walk stays small
SUM_PAIRS = [(p, m) for p in (3, 5, 7, 11, 13, 23, 29, 31, 37) for m in range(1, 8)
             if p**m <= 3000]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(SUM_PAIRS + [(257, 1), (257, 2)] * 5), data=st.data())
def test_quadratic_sum_equals_oracle(pair, data):
    """The counted sum equals the per-element walk on default and drawn
    moduli, with l1 and l0 a log or None; p = 257, where trace_exp is a
    list, is drawn about one time in four."""
    p, m = pair
    modulus = None
    if data.draw(st.booleans(), label="drawn modulus"):
        modulus = oracle.irreducible_from(p, m, data.draw(st.integers(0, p**m - 1), label="tail"))
    ctx = make_field(p, m, modulus=modulus)
    exp, _ = oracle.power_tables(ctx)
    logs = st.integers(0, ctx.r - 2)
    for _ in range(3):
        l2 = data.draw(logs, label="l2")
        l1, l0 = (data.draw(st.none() | logs, label=name) for name in ("l1", "l0"))
        a2, a1, a0 = (0 if k is None else exp[k] for k in (l2, l1, l0))
        assert quadratic_exponential_sum(ctx, l2, l1, l0) == \
            oracle.quadratic_exponential_sum(ctx, a2, a1, a0), (l2, l1, l0)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_diagonalize_the_hyperbolic_plane(p):
    """2*c0*c1 has no diagonal pivot: v_0 = e_0 + e_1 gives d_0 = 2, and
    v_1 = e_1 - v_0/2 then d_1 = -1/2.  The plane takes 0 at 2p - 1
    points and each other value at p - 1."""
    from tracecodes.fields import _diagonalize
    half = pow(2, -1, p)
    pivots, scales, counts = _diagonalize([[0, 1], [1, 0]], p)
    assert pivots == [[1, 1], [-half % p, half]]
    assert scales == [-pow(4 * d, -1, p) % p for d in (2, -half)]
    assert counts == [2 * p - 1] + [p - 1] * (p - 1)


def test_square_forms_diagonalise_the_trace_form(fields):
    """At (3,4) each parity of Tr(alpha^e * x^2) runs out of diagonal
    pivots: some pivot vector is the first to reach two coordinates,
    where each diagonal pivot reaches one.  Either way the vectors make
    the form sum_t d_t * z_t^2 with d_t = -1/(4 * scale_t), and the
    counts are its values over F_3^4."""
    from itertools import product
    ctx = fields(3, 4)
    p, m, te = ctx.p, ctx.m, ctx.trace_exp
    for e, (pivots, scales, counts) in enumerate(ctx.square_forms):
        reached, new = set(), []
        for v in pivots:
            support = {i for i, c in enumerate(v) if c}
            new.append(len(support - reached))
            reached |= support
        assert max(new) == 2, e
        d = [-pow(4 * s, -1, p) % p for s in scales]

        def form(c):
            return sum(c[i] * c[j] * te[e + i + j] for i in range(m) for j in range(m)) % p

        for z in product(range(p), repeat=m):
            c = [sum(zt * v[i] for zt, v in zip(z, pivots)) % p for i in range(m)]
            assert form(c) == sum(dt * zt * zt for dt, zt in zip(d, z)) % p
        values = [form(c) for c in product(range(p), repeat=m)]
        assert counts == [values.count(w) for w in range(p)]


def test_quadratic_sums_fail_without_the_completed_square(monkeypatch):
    """With -(v_t.L)^2/(4*d_t) dropped from the shift, the counted sums
    miss the completed square, and the check fails."""
    from tracecodes.verification import verify_quadratic_sums
    ctx = make_field(5, 3)
    [verdict] = verify_quadratic_sums(ctx)
    assert verdict.passed
    dropped = tuple((pivots, [0] * len(scales), counts)
                    for pivots, scales, counts in ctx.square_forms)
    monkeypatch.setitem(vars(ctx), "square_forms", dropped)
    [verdict] = verify_quadratic_sums(ctx)
    assert not verdict.passed
    assert verdict.details == "completed-square identity failed"


def test_masks_are_built_once_per_context(monkeypatch):
    """The orbit walk reads one set of linear masks; the quadratic sums
    read none, and their square forms wait for the first sum, so a
    build never makes them."""
    from tracecodes import codes, fields
    built = []
    original = fields._level_masks
    monkeypatch.setattr(fields, "_level_masks",
                        lambda seq, p: built.append(len(seq)) or original(seq, p))
    ctx = make_field(3, 6)
    rm1 = ctx.r - 1
    dset = codes.build_defining_set(ctx, 1)
    assert codes._rep_cost(ctx.p, ctx.r, len(dset)) < len(dset)
    for _ in range(2):
        codes.exhaustive_cwe(ctx, dset)
    assert built == [2 * rm1]
    assert "square_forms" not in vars(ctx)
    for l2 in range(4):
        quadratic_exponential_sum(ctx, l2, l2 + 1, None)
        quadratic_exponential_sum(ctx, l2, None, l2)
    assert built == [2 * rm1]
    assert "square_forms" in vars(ctx)


def test_quadratic_sum_rejects_zero_leading(fields):
    ctx = fields(3, 2)
    with pytest.raises(ZeroLeadingCoefficientError):
        quadratic_exponential_sum(ctx, None, 0, None)
    with pytest.raises(ZeroLeadingCoefficientError):
        quadratic_exponential_sum_closed(ctx, None, 0, None, gauss=gauss_sum_direct(ctx))


def test_cyclotomic_numbers_closed_values():
    assert cyclotomic_numbers_order2(9) == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 2}
    assert cyclotomic_numbers_order2(7) == {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 1}
    assert cyclotomic_numbers_order2(25) == {(0, 0): 5, (0, 1): 6, (1, 0): 6, (1, 1): 6}
    assert cyclotomic_numbers_order2(27) == {(0, 0): 6, (0, 1): 7, (1, 0): 6, (1, 1): 6}


def test_cyclotomic_numbers_direct_vs_closed(fields):
    cases = {7: (7, 1), 9: (3, 2), 11: (11, 1), 13: (13, 1),
             25: (5, 2), 27: (3, 3), 49: (7, 2)}
    for r, (p, m) in cases.items():
        ctx = fields(p, m)
        closed = cyclotomic_numbers_order2(r)
        assert cyclotomic_numbers_direct(ctx) == closed, r
        # row i counts the class-i elements x with x + 1 nonzero, so the
        # class containing -1 (class 0 iff h is even) is one short
        h = (r - 1) // 2
        row0 = closed[(0, 0)] + closed[(0, 1)]
        row1 = closed[(1, 0)] + closed[(1, 1)]
        assert (row0, row1) == ((h - 1, h) if h % 2 == 0 else (h, h - 1))


# (p, m, modulus, k1 odd): the scan pairs x with x + c, c = alpha^k1 the
# element whose trace coordinates are (1, 0, ..., 0), and flips both
# classes when k1 is odd.  p divides m at (3,3) and (3,6), so c != 1;
# c = 1 at m = 1; (127,2) and (131,2) sit either side of the byte-slot
# edge 2(p - 1) <= 255, and (131,3) reads a list fill at r = 2.2*10^6;
# (251,2) and (257,2) take the scan's bytes and list widening.
FLIP_CASES = [(3, 3, None, True), (3, 6, None, True), (7, 3, None, True),
              (127, 2, None, True), (131, 2, None, True), (131, 3, None, True),
              (3, 5, None, False), (5, 4, (3, 0, 0, 0, 1), False), (5, 1, None, False),
              (251, 2, None, True), (257, 2, None, False)]


@pytest.mark.parametrize("p,m,modulus,odd", FLIP_CASES)
def test_cyclotomic_scan_on_both_sides_of_the_flip(fields, p, m, modulus, odd):
    ctx = fields(p, m, modulus)
    te, n = ctx.trace_exp, ctx.r - 1
    k1 = next(k for k in range(n)
              if te[k] == 1 and not any(te[(k + i) % n] for i in range(1, m)))
    assert k1 % 2 == odd
    if ctx.r <= 2 * 10**4:
        want = {(i, j): oracle.cyclotomic_number_direct(ctx, i, j)
                for i in (0, 1) for j in (0, 1)}
    else:
        want = cyclotomic_numbers_order2(ctx.r)
    assert cyclotomic_numbers_direct(ctx) == want


def test_cyclotomic_verdict_reports_smallest_differing_pair(monkeypatch, fields):
    from tracecodes import charsums
    from tracecodes.verification import verify_cyclotomic_numbers
    ctx = fields(3, 3)
    [verdict] = verify_cyclotomic_numbers(ctx)
    assert verdict.passed
    original = charsums.cyclotomic_numbers_direct

    def off_by_one(ctx):
        counts = original(ctx)
        counts[1, 1] += 1
        counts[0, 1] -= 1
        return counts

    monkeypatch.setattr(charsums, "cyclotomic_numbers_direct", off_by_one)
    [verdict] = verify_cyclotomic_numbers(ctx)
    assert not verdict.passed
    assert verdict.data == {"pair": [0, 1], "direct": 6, "closed": 7}

