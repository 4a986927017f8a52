import pytest

from tracecodes import (
    CyclotomicInteger,
    build_defining_set,
    classify_optimality,
    correction_sums,
    correction_sums_at_zero,
    discriminant_pair_counts,
    exhaustive_cwe,
    gauss_int,
    gauss_pair_int,
    is_prime,
    legendre,
    parameter_regime,
    predict_cwe,
    predict_weight_distribution,
    predicted_length,
    prediction,
    symbol_count_closed,
    symbol_counts_closed,
    trace_pair_count_closed,
    trace_pair_table,
)
from tracecodes.errors import DegreeTooSmallError, FrequencyMismatchError, RhoZeroError

from expected_enumerators import CWE_3_6, CWE_5_3, CWE_5_4
import oracle
from oracle import codeword, correction_sums_direct


def test_parameter_regimes():
    assert parameter_regime(3, 6) == 1
    assert parameter_regime(5, 4) == 2
    assert parameter_regime(3, 4) == 2
    assert parameter_regime(3, 3) == 3
    assert parameter_regime(5, 5) == 3
    assert parameter_regime(5, 3) == 4
    assert parameter_regime(3, 5) == 4
    with pytest.raises(DegreeTooSmallError):
        parameter_regime(3, 2)


def test_predicted_lengths(fields):
    assert predicted_length(3, 6) == 81
    assert predicted_length(5, 4) == 20
    assert predicted_length(5, 3) == 6
    for p, m in [(3, 3), (3, 4), (3, 5), (5, 5), (7, 3), (7, 4), (11, 3)]:
        ctx = fields(p, m)
        assert predicted_length(p, m) == len(build_defining_set(ctx, 1)), (p, m)


def test_trace_pair_closed_examples():
    assert trace_pair_count_closed(3, 6, 0, 0) == 99
    assert trace_pair_count_closed(5, 4, 0, 1) == 20
    # even m with p not dividing m: nonzero discriminant shifts by the
    # character of the discriminant times G/p = -5
    for a_val in range(1, 5):
        for b_val in range(5):
            delta = (b_val * b_val - 4 * a_val) % 5
            if delta:
                want = 25 + legendre(delta, 5) * (-5)
                assert trace_pair_count_closed(5, 4, a_val, b_val) == want


def test_trace_pair_closed_vs_brute(fields):
    for p, m in [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3)]:
        ctx = fields(p, m)
        table = trace_pair_table(ctx)
        for (a_val, b_val), got in table.items():
            assert trace_pair_count_closed(p, m, a_val, b_val) == got, (p, m, a_val, b_val)


def test_gauss_integers_used_by_formulas():
    assert gauss_int(3, 6) == 27
    assert gauss_int(5, 4) == -25
    assert gauss_pair_int(5, 3) == 25
    assert gauss_pair_int(3, 3) == 9
    assert gauss_pair_int(7, 3) == 49
    # degree 1 gives the squared prime-field sum, eta(-1) * p
    assert gauss_pair_int(7, 1) == -7
    assert gauss_pair_int(5, 1) == 5
    with pytest.raises(ValueError):
        gauss_int(5, 3)  # odd degree alone is irrational


def test_correction_sums_vs_direct(fields):
    # every branch of the decomposition, on one field per regime
    for p, m in [(3, 4), (3, 3), (5, 3)]:
        ctx = fields(p, m)
        for a in range(1, ctx.r):
            prof = oracle.profile(ctx, a)
            for rho in range(1, p):
                assert correction_sums(p, m, prof, rho) == \
                    correction_sums_direct(ctx, a, rho), (p, m, a, rho)
            assert correction_sums_at_zero(p, m, prof) == \
                correction_sums_direct(ctx, a, 0), (p, m, a)


def test_correction_sums_regime1(fields):
    ctx = fields(3, 6)
    for a in range(1, ctx.r):
        prof = oracle.profile(ctx, a)
        for rho in range(3):
            got = correction_sums(3, 6, prof, rho) if rho else \
                correction_sums_at_zero(3, 6, prof)
            assert got == correction_sums_direct(ctx, a, rho), (a, rho)


def test_correction_sums_spot_values(fields):
    p, m = 5, 4
    ctx = fields(p, m)
    gm = gauss_int(p, m)
    r = p**m
    a = 2  # prime-subfield element
    prof = oracle.profile(ctx, a)
    s_lin, s_sq, s_mix = correction_sums(p, m, prof, 2)
    assert s_lin == (p - 1) * r
    s_lin, _, _ = correction_sums(p, m, prof, 3)
    assert s_lin == -r
    # a outside the prime subfield with Tr(a^2) = 0 contributes
    # -(p-1)*G_m through the square-constraint term
    for a in range(p, r):
        prof = oracle.profile(ctx, a)
        if prof[0] == 0:  # Tr(a^2)
            _, s_sq, _ = correction_sums(p, m, prof, 1)
            assert s_sq == -(p - 1) * gm
            break


def test_correction_sums_against_root_of_unity_sums(fields):
    # the integer collapse used by the direct oracle agrees with honest
    # quadruple sums in the cyclotomic ring
    ctx = fields(3, 3)
    p = 3
    for a in (1, 4, 10):
        for rho in (0, 1, 2):
            s_lin = CyclotomicInteger.zero(p)
            s_sq = CyclotomicInteger.zero(p)
            s_mix = CyclotomicInteger.zero(p)
            zeta = CyclotomicInteger.zeta_power
            tr = oracle.trace_table(ctx)
            for x in range(ctx.r):
                tx = tr[x]
                tx2 = tr[oracle.mul(ctx, x, x)]
                tax = tr[oracle.mul(ctx, a, x)]
                for d in range(1, p):
                    sym = zeta(p, d * (tax - rho))
                    for y in range(1, p):
                        s_lin = s_lin + zeta(p, y * (tx - 1)) * sym
                        for z in range(1, p):
                            s_mix = s_mix + zeta(p, y * (tx - 1) + z * tx2) * sym
                    for z in range(1, p):
                        s_sq = s_sq + zeta(p, z * tx2) * sym
            want = correction_sums_direct(ctx, a, rho)
            assert (s_lin.as_int(), s_sq.as_int(), s_mix.as_int()) == want, (a, rho)


def test_symbol_count_closed_vs_brute(fields):
    for p, m in [(3, 4), (5, 3)]:
        ctx = fields(p, m)
        dset = build_defining_set(ctx, 1)
        for a in range(1, ctx.r):
            prof = oracle.profile(ctx, a)
            for rho in range(p):
                assert symbol_count_closed(p, m, prof, rho) == \
                    codeword(ctx, dset, a).count(rho), (p, m, a, rho)


def test_symbol_counts_closed_is_the_per_symbol_form():
    """One field per regime; every profile (A, B, prime value), the
    trace profiles of real codewords among them."""
    for p, m in [(3, 6), (5, 4), (3, 3), (5, 3)]:
        for a_val in range(p):
            for b_val in range(p):
                for value in [None, *range(1, p)]:
                    prof = (a_val, b_val, value)
                    assert symbol_counts_closed(p, m, prof) == \
                        [symbol_count_closed(p, m, prof, rho) for rho in range(p)], (p, m, prof)


def test_verify_counts_sees_one_wrong_profile(fields, monkeypatch):
    from tracecodes import closedform, codes
    from tracecodes.verification import verify_counts
    ctx = fields(3, 4)
    dset = build_defining_set(ctx, 1)
    target = oracle.profile(ctx, ctx.alpha)
    # the report names alpha^k for the smallest failing log k
    first_a = next(a for a in oracle.power_tables(ctx)[0]
                   if oracle.profile(ctx, a) == target)
    original = closedform.symbol_counts_closed
    monkeypatch.setattr(closedform, "symbol_counts_closed",
                        lambda p, m, prof: [c + (prof == target) for c in original(p, m, prof)])
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
              if not v.passed]
    assert [v.name for v in failed] == ["symbol-count-decomposition p=3 m=4"]
    assert (failed[0].data["a"], failed[0].data["rho"]) == (first_a, 0)


def test_verify_counts_sees_one_wrong_relabelling(fields, monkeypatch):
    from tracecodes import codes
    from tracecodes.verification import verify_counts
    p, m, bad = 5, 4, 4
    ctx = fields(p, m)
    dset = build_defining_set(ctx, 1)
    original = codes.relabelling

    def wrong(p, c):
        """Scaling by ``bad`` with two symbols swapped; 1 still maps to bad."""
        perm = original(p, c)
        if c == bad:
            perm[1], perm[2] = perm[2], perm[1]
        return perm

    def comp(a):
        word = codeword(ctx, dset, a)
        return [word.count(rho) for rho in range(p)]

    # a = bad * y, y Frobenius-conjugate to a representative, is read as
    # y's composition under the wrong relabelling; the report names
    # a = alpha^k for the smallest failing log k
    exp, log = oracle.power_tables(ctx)
    cases = []
    for la, _, _ in codes.orbit_compositions(ctx, dset):
        for i in range(m):
            y = exp[la * p**i % (ctx.r - 1)]
            brute = [comp(y)[w] for w in wrong(p, bad)]
            a = oracle.mul(ctx, bad, y)
            closed = comp(a)
            if brute != closed:
                cases.append((log[a], brute, closed))
    k, brute, closed = min(cases)
    # the smallest failing log is not in the first failing class
    assert k not in {case[0] for case in cases[:m]}
    a = exp[k]
    rho = next(r for r in range(p) if brute[r] != closed[r])
    monkeypatch.setattr(codes, "relabelling", wrong)
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
              if not v.passed]
    assert [v.name for v in failed] == ["symbol-count-decomposition p=5 m=4"]
    assert failed[0].data == {"a": a, "rho": rho, "brute": brute[rho], "closed": closed[rho]}


def test_verify_counts_sees_a_missing_orbit(fields):
    from tracecodes import codes
    from tracecodes.verification import verify_counts
    ctx = fields(3, 4)
    dset = build_defining_set(ctx, 1)
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset)[:-1])
              if not v.passed]
    assert [v.name for v in failed] == ["symbol-count-decomposition p=3 m=4"]


@pytest.mark.parametrize("p,m", [(3, 5), (5, 4), (7, 3), (3, 6)])
def test_verify_counts_reads_the_set_of_b(fields, p, m):
    """On D_b the codeword of a is the D_1 codeword of a*b, permuted: the
    walk of D_b passes at the profiles of b*a and fails at those of a."""
    from tracecodes import codes
    from tracecodes.verification import verify_counts
    ctx = fields(p, m)
    one = build_defining_set(ctx, 1)
    for b in range(1, p):
        dset = build_defining_set(ctx, b)
        walked = codes.orbit_compositions(ctx, dset)
        assert all(v.passed for v in verify_counts(ctx, dset, walked)), b
        if b > 1:  # the D_b walk read at the D_1 profiles: b dropped
            failed = [v.name for v in verify_counts(ctx, one, walked) if not v.passed]
            assert failed == [f"symbol-count-decomposition p={p} m={m}"], b
    for dset in (codes.build_defining_set_general(ctx, trace_value=1),
                 build_defining_set(ctx, 0)):
        with pytest.raises(ValueError):
            verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))


def test_verify_cwe_sees_a_one_sided_difference(fields):
    from tracecodes.codes import CompleteWeightEnumerator
    from tracecodes.verification import verify_cwe
    ctx = fields(3, 4)
    brute = exhaustive_cwe(ctx, build_defining_set(ctx, 1))
    closed = predict_cwe(3, 4).terms
    dropped = (3, 3, 0)  # the enumeration lacks a predicted composition
    extra = (0, 1, 5)  # or holds one the closed form never predicts
    assert dropped in closed and extra not in closed
    freq = closed[dropped]
    without = {k: v for k, v in brute.terms.items() if k != dropped}
    for terms, k0, got, want in [
            (without, dropped, 0, freq),
            ({**brute.terms, extra: freq}, extra, freq, 0),
            # both at once: the smallest differing composition is reported
            ({**without, extra: freq}, extra, freq, 0)]:
        cwe = CompleteWeightEnumerator(p=3, n=brute.n, terms=terms)
        verdicts = verify_cwe(ctx, cwe)
        assert [(v.name, v.passed) for v in verdicts] == \
            [("cwe", False), ("weight-distribution", False)]
        assert verdicts[0].data == {"composition": list(k0), "brute": got, "closed": want}


def test_predict_cwe_checks_the_frequency_total(monkeypatch):
    from tracecodes import closedform
    original = closedform._expand_terms

    def drop_one(p, m):
        n, terms = original(p, m)
        terms.pop(max(terms))
        return n, terms

    monkeypatch.setattr(closedform, "_expand_terms", drop_one)
    with pytest.raises(FrequencyMismatchError, match="total"):
        predict_cwe(5, 4)


def test_rho_zero_guard(fields):
    ctx = fields(5, 3)
    prof = oracle.profile(ctx, 7)
    with pytest.raises(RhoZeroError):
        correction_sums(5, 3, prof, 0)


def test_discriminant_pair_counts_closed():
    assert discriminant_pair_counts(5, 3) == {
        "disc_square": 6, "disc_nonsquare": 10, "disc_zero": 4,
        "a_square": 10, "a_nonsquare": 6}  # eta(3) = -1 mod 5
    pc = discriminant_pair_counts(7, 1)
    assert (pc["disc_square"], pc["disc_nonsquare"]) == (15, 21)


def test_discriminant_pair_counts_vs_exhaustive():
    for p in (3, 5, 7, 11, 13):
        residue = 1
        nonresidue = next(d for d in range(2, p) if legendre(d, p) == -1)
        for mp in (residue, nonresidue):
            t_plus = t_minus = t_zero = a_sq = a_non = 0
            for a_val in range(1, p):
                for b_val in range(p):
                    delta = (b_val * b_val - mp * a_val) % p
                    if delta == 0:
                        t_zero += 1
                        continue
                    if legendre(delta, p) == 1:
                        t_plus += 1
                    else:
                        t_minus += 1
                    if legendre(a_val, p) == 1:
                        a_sq += 1
                    else:
                        a_non += 1
            assert discriminant_pair_counts(p, mp) == {
                "disc_square": t_plus, "disc_nonsquare": t_minus, "disc_zero": t_zero,
                "a_square": a_sq, "a_nonsquare": a_non}, (p, mp)


def test_predict_cwe_reference_codes():
    assert predict_cwe(3, 6).terms == CWE_3_6
    assert predict_cwe(5, 4).terms == CWE_5_4
    assert predict_cwe(5, 3).terms == CWE_5_3


def test_predict_cwe_matches_enumeration(fields):
    # regime 4 at (13,3) ... (23,3): m_p = 3 is a square mod 13 and 23 and
    # a non-square mod 17 and 19; (3,9) is regime 3
    for p, m in [(3, 3), (3, 4), (3, 5), (7, 3), (11, 3),
                 (13, 3), (17, 3), (19, 3), (23, 3), (3, 9)]:
        ctx = fields(p, m)
        brute = exhaustive_cwe(ctx, build_defining_set(ctx, 1))
        assert predict_cwe(p, m).terms == brute.terms, (p, m)


def test_expansion_rejects_a_negative_symbol_count(monkeypatch):
    from tracecodes import closedform
    # at (3,3), regime 3, eps1 = eta(-1)^2: an eta(-1) of -5 makes it 25 and
    # turns the pattern q3 + chi(rho) * eps1 into 1 - 25 = -24 coordinates
    # equal to the non-square rho = 2
    legendre = closedform.legendre
    monkeypatch.setattr(closedform, "legendre",
                        lambda a, p: -5 if a == -1 else legendre(a, p))
    with pytest.raises(FrequencyMismatchError, match="negative symbol count"):
        predict_cwe(3, 3)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_row_level_terms_equal_the_per_pattern_expansion(m):
    """Every odd prime p <= 61: m = 3 and 5 give regimes 3 and 4, m = 4
    regime 2, m = 6 regimes 1 (p = 3) and 2.  The terms come in the same
    order, too."""
    from tracecodes.closedform import _expand_terms
    for p in filter(is_prime, range(3, 62, 2)):
        n, terms = _expand_terms(p, m)
        want_n, want = oracle.expand_terms_per_pattern(p, m)
        assert (n, list(terms.items())) == (want_n, list(want.items())), (p, m)


def _scaled_legendre(at, factor):
    from tracecodes import closedform
    legendre = closedform.legendre
    return lambda a, p: factor * legendre(a, p) if a == at else legendre(a, p)


@pytest.mark.parametrize("p,m,patch,message,raised_in", [
    # a length one short: at (3,3) a row-level pattern is the first to overflow
    (3, 3, ("predicted_length", -1), "symbol counts exceed the length", "add_shifted"),
    (5, 4, ("predicted_length", -1), "symbol counts exceed the length", "add"),
    (7, 3, ("predicted_length", -1), "symbol counts exceed the length", "add"),
    # n + theta*p - 1 at (5,3): 5 - 5 - 1 with the length one short, and
    # 10 - 25 - 1 with theta = chi(-3) scaled from -1 to -5, which also
    # takes the length from 6 to 10
    (5, 3, ("predicted_length", -1), "negative pattern frequency -1", "add"),
    (5, 3, ("legendre", -3, 5), "negative pattern frequency -16", "add"),
    # a base row with a negative minimum: its patterns go through add
    (3, 3, ("legendre", -1, 5), "negative symbol count -24", "add"),
])
def test_expansion_errors_match_the_per_pattern_expansion(monkeypatch, p, m, patch,
                                                           message, raised_in):
    from tracecodes import closedform
    if patch[0] == "predicted_length":
        length = closedform.predicted_length
        monkeypatch.setattr(closedform, "predicted_length",
                            lambda p, m: length(p, m) + patch[1])
    else:
        monkeypatch.setattr(closedform, "legendre", _scaled_legendre(*patch[1:]))
    with pytest.raises(FrequencyMismatchError) as row_level:
        closedform._expand_terms(p, m)
    assert str(row_level.value) == message
    assert row_level.traceback[-1].name == raised_in
    with pytest.raises(FrequencyMismatchError) as per_pattern:
        oracle.expand_terms_per_pattern(p, m)
    assert str(per_pattern.value) == message


def test_predicted_weight_tables():
    assert predict_weight_distribution(3, 6).counts == \
        {0: 1, 48: 162, 54: 240, 57: 324, 81: 2}
    assert predict_weight_distribution(5, 4).counts == \
        {0: 1, 14: 120, 15: 96, 16: 300, 19: 80, 20: 28}
    assert predict_weight_distribution(5, 3).counts == \
        {0: 1, 4: 60, 5: 24, 6: 40}


def test_weight_table_split_by_character_of_mp():
    # eta(3) = -1 mod 5: the (p-1)p*n/2 family lands on the lower weight
    wd = predict_weight_distribution(5, 3)
    assert wd.counts[4] == 60   # (p-1)*p*n/2
    assert wd.counts[6] == 40   # (p-1)*(p-2)*n/2 + (p-1)
    # eta(3) = +1 mod 11: the two family sizes swap
    wd = predict_weight_distribution(11, 3)
    assert wd.n == 12
    assert wd.counts[10] == 660  # (p-1)*p*n/2
    assert wd.counts[11] == 120
    assert wd.counts[12] == 550  # (p-1)*(p-2)*n/2 + (p-1)


def test_weight_tables_vs_enumeration(fields):
    for p, m in [(3, 4), (3, 5), (5, 5), (7, 3), (7, 4), (11, 3)]:
        ctx = fields(p, m)
        brute = exhaustive_cwe(ctx, build_defining_set(ctx, 1)).weight_distribution()
        assert predict_weight_distribution(p, m).counts == brute.counts, (p, m)


def test_closed_form_smoke_grid():
    # pure closed forms stay consistent (non-negative, total p^m, table
    # equals the expanded enumerator) well beyond the enumeration range
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in primes:
        for m in range(3, 10):
            pred = prediction(p, m)
            assert pred.cwe.total() == p**m
            assert sum(pred.wd.counts.values()) == p**m
            assert all(f > 0 for f in pred.cwe.terms.values())


def test_prediction_bundle(fields):
    pred = prediction(5, 4)
    assert pred.k == 4
    assert pred.regime == 2
    brute = exhaustive_cwe(fields(5, 4), build_defining_set(fields(5, 4), 1))
    assert pred.cwe.terms == brute.terms
    assert brute.dimension() == pred.k


def test_classify_optimality():
    rep = classify_optimality(3, 3)
    assert (rep.n, rep.k, rep.d) == (3, 3, 1) and rep.mds and rep.griesmer_optimal
    rep = classify_optimality(5, 3)
    assert (rep.n, rep.k, rep.d) == (6, 3, 4) and rep.mds and rep.griesmer_optimal
    rep = classify_optimality(7, 3)
    assert (rep.n, rep.k, rep.d) == (6, 3, 4) and rep.mds and rep.griesmer_optimal
    rep = classify_optimality(11, 3)
    assert (rep.n, rep.k, rep.d) == (12, 3, 10) and rep.mds and rep.griesmer_optimal
    for p, m in [(3, 4), (5, 4), (3, 6)]:
        rep = classify_optimality(p, m)
        assert not rep.griesmer_optimal
        assert rep.griesmer_sum < rep.n
