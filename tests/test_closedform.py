import pytest

from tracecodes import (
    CyclotomicInteger,
    build_defining_set,
    classify_optimality,
    correction_rows,
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
    symbol_counts_closed,
    trace_pair_count_closed,
    trace_pair_table,
)
from tracecodes.errors import DegreeTooSmallError, FrequencyMismatchError

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


def _rows_vs_direct(ctx):
    """Every entry of the three correction rows, rho = 0 included, for
    every nonzero a of ``ctx`` against the direct sums."""
    p, m = ctx.p, ctx.m
    for a in range(1, ctx.r):
        rows = correction_rows(p, m, oracle.profile(ctx, a))
        for rho in range(p):
            assert tuple(row[rho] for row in rows) == \
                correction_sums_direct(ctx, a, rho), (p, m, a, rho)


def test_correction_sums_vs_direct(fields):
    # every branch of the decomposition, on one field per regime
    for p, m in [(3, 4), (3, 3), (5, 3)]:
        _rows_vs_direct(fields(p, m))


def test_correction_sums_regime1(fields):
    _rows_vs_direct(fields(3, 6))


def test_correction_sums_spot_values(fields):
    p, m = 5, 4
    ctx = fields(p, m)
    gm = gauss_int(p, m)
    r = p**m
    a = 2  # prime-subfield element
    s_lin, _, _ = correction_rows(p, m, oracle.profile(ctx, a))
    assert s_lin == [-r, -r, (p - 1) * r, -r, -r]
    # a outside the prime subfield with Tr(a^2) = 0 contributes
    # -(p-1)*G_m through the square-constraint term at every rho != 0
    for a in range(p, r):
        prof = oracle.profile(ctx, a)
        if prof[0] == 0:  # Tr(a^2)
            _, s_sq, _ = correction_rows(p, m, prof)
            assert s_sq == [(p - 1) ** 2 * gm] + [-(p - 1) * gm] * (p - 1)
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
            word = codeword(ctx, dset, a)
            assert symbol_counts_closed(p, m, oracle.profile(ctx, a)) == \
                [word.count(rho) for rho in range(p)], (p, m, a)


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
    # a = alpha^k for the smallest failing log k.  (5,4) walks W = ker Tr
    # only, and each failing a + t, t in F_5, fails with it
    exp, log = oracle.power_tables(ctx)
    cases = []
    failing = 0  # the s codewords a = bad * alpha^(la * p^i), i < s, per failing orbit
    for la, s, _ in codes.orbit_compositions(ctx, dset):
        for i in range(m):
            y = exp[la * p**i % (ctx.r - 1)]
            brute = [comp(y)[w] for w in wrong(p, bad)]
            a = oracle.mul(ctx, bad, y)
            closed = comp(a)
            if brute != closed:
                cases.append((log[a], brute, closed))
                failing += s if i == 0 else 0
    k, brute, closed = min(cases)
    # the smallest failing log is not in the first failing class
    assert k not in {case[0] for case in cases[:m]}
    a = exp[k]
    rho = next(r for r in range(p) if brute[r] != closed[r])
    monkeypatch.setattr(codes, "relabelling", wrong)
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
              if not v.passed]
    assert [v.name for v in failed] == ["symbol-count-decomposition p=5 m=4"]
    assert failed[0].data == {"a": a, "rho": rho, "brute": brute[rho], "closed": closed[rho],
                              "failing": p * failing}


def test_verify_counts_sees_one_wrong_trace_pair(fields, monkeypatch, capsys):
    """One closed trace-pair count off by one, at (A, B) = (1, 0), which
    neither the length, the set size nor the symbol counts read: only the
    trace-pair verdict fails, it names the pair and both counts, and
    ``verify --scope counts`` exits 1."""
    from tracecodes import closedform, codes
    from tracecodes.cli import main
    from tracecodes.verification import verify_counts
    original = closedform.trace_pair_count_closed
    monkeypatch.setattr(closedform, "trace_pair_count_closed",
                        lambda p, m, a, b: original(p, m, a, b) + ((a, b) == (1, 0)))
    ctx = fields(3, 4)
    dset = build_defining_set(ctx, 1)
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
              if not v.passed]
    brute = trace_pair_table(ctx)[1, 0]
    assert [v.name for v in failed] == ["trace-pair-counts p=3 m=4"]
    assert failed[0].data == {"A": 1, "B": 0, "brute": brute, "closed": brute + 1}
    assert failed[0].details == f"(A,B)=(1,0): brute {brute} != closed {brute + 1}"
    assert main(["verify", "--p", "3", "--m", "4", "--scope", "counts"]) == 1
    assert '"passed": false' in capsys.readouterr().out


def test_prediction_rejects_a_weight_table_off_the_enumerator(monkeypatch, capsys):
    """One codeword moved between two weights of the table, the total
    kept: ``prediction`` raises and ``predict`` exits 2."""
    from tracecodes import closedform
    from tracecodes.cli import main
    original = closedform.predict_weight_distribution

    def moved(p, m):
        wd = original(p, m)
        low, high = sorted(w for w, c in wd.counts.items() if w and c)[:2]
        wd.counts[low] -= 1
        wd.counts[high] += 1
        return wd

    monkeypatch.setattr(closedform, "predict_weight_distribution", moved)
    with pytest.raises(FrequencyMismatchError, match="weight table disagrees"):
        prediction(3, 4)
    assert main(["predict", "--p", "3", "--m", "4"]) == 2
    assert "weight table disagrees with the expanded enumerator" in capsys.readouterr().err


def test_verify_counts_sees_a_missing_orbit(fields):
    from tracecodes import codes
    from tracecodes.verification import verify_counts
    ctx = fields(3, 4)
    dset = build_defining_set(ctx, 1)
    walked = codes.orbit_compositions(ctx, dset)
    failed = [v for v in verify_counts(ctx, dset, walked[:-1]) if not v.passed]
    assert [v.name for v in failed] == ["symbol-count-decomposition p=3 m=4"]
    # the orbit's s codewords under each c in F_3^* and t in F_3 go uncompared
    missing = ctx.r - 1 - walked[-1][1] * 2 * 3
    assert failed[0].details == f"exact for all {missing} nonzero codeword indices and all symbols"


@pytest.mark.parametrize("p,m", [(3, 4), (7, 3)])
def test_verify_counts_compares_the_zero_symbol(fields, p, m):
    """The closed zero count is n less the others, so a walk whose zero
    count alone is one too high fails on it, at the representative's own
    element: its translates by t in F_p, which move the excess to symbol
    t, fail too."""
    from tracecodes import codes
    from tracecodes.verification import verify_counts
    ctx = fields(p, m)
    dset = build_defining_set(ctx, 1)
    walked = codes.orbit_compositions(ctx, dset)
    la, size, comp = walked[-1]
    walked[-1] = (la, size, (comp[0] + 1, *comp[1:]))
    failed = [v for v in verify_counts(ctx, dset, walked) if not v.passed]
    assert [v.name for v in failed] == [f"symbol-count-decomposition p={p} m={m}"]
    data = failed[0].data
    zeros = codeword(ctx, dset, data["a"]).count(0)
    assert data == {"a": data["a"], "rho": 0, "brute": zeros + 1, "closed": zeros,
                    "failing": size * (p - 1) * p}


@pytest.mark.parametrize("p,m,b", [(3, 4, 2), (5, 4, 2), (7, 3, 3), (3, 6, 1)])
def test_verify_counts_compares_every_nonzero_codeword(fields, p, m, b):
    """r - 1 codewords are compared whether or not the walk takes one per
    coset of F_p (it does at (3,4), (5,4) and (7,3), not at (3,6)); with
    the closed counts wrong at the profile of b*t alone, the codeword of
    a = t in F_p^* fails by itself."""
    from tracecodes import closedform, codes
    from tracecodes.verification import verify_counts
    ctx = fields(p, m)
    dset = build_defining_set(ctx, b)
    walked = codes.orbit_compositions(ctx, dset)
    verdict = verify_counts(ctx, dset, walked)[-1]
    assert verdict.passed
    assert verdict.details == \
        f"exact for all {ctx.r - 1} nonzero codeword indices and all symbols"
    t = p - 1
    original = closedform.symbol_counts_closed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closedform, "symbol_counts_closed", lambda p, m, prof: [
            c + (prof[2] == b * t % p) for c in original(p, m, prof)])
        verdict = verify_counts(ctx, dset, walked)[-1]
    assert not verdict.passed
    assert verdict.data == {"a": t, "rho": 0, "brute": 0, "closed": 1, "failing": 1}


@pytest.mark.parametrize("p,m,b", [(3, 4, 1), (5, 4, 2), (7, 3, 3), (3, 6, 1), (5, 5, 2)])
def test_verify_counts_matches_every_composition_to_its_row(fields, monkeypatch, p, m, b):
    """On a passing code each relabelled composition equals every row of
    closed counts moved back by -t*b, so none goes on to the per-t
    comparison, which doubles it; the walk takes one codeword per coset
    of F_p at (3,4), (5,4) and (7,3), and every codeword at (3,6) and
    (5,5), where p divides m.  Rows moved the wrong way still pass the
    verdict, through that comparison, but not this count."""
    from tracecodes import codes, verification
    doubled = []

    class Counted(tuple):
        def __mul__(self, k):
            doubled.append(k)
            return tuple(self) * k

    original = verification.itemgetter

    def counted(*items):
        get = original(*items)
        return lambda comp: Counted(get(comp))

    monkeypatch.setattr(verification, "itemgetter", counted)
    ctx = fields(p, m)
    dset = build_defining_set(ctx, b)
    verdicts = verification.verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
    assert all(v.passed for v in verdicts)
    assert (codes.translation_shift(dset) is None) is (m % p == 0)
    assert doubled == []


@pytest.mark.parametrize("p,m,b,t", [(3, 4, 1, 2), (5, 4, 2, 1), (7, 3, 3, 5)])
def test_verify_counts_names_a_translate(fields, monkeypatch, p, m, b, t):
    """With the closed counts wrong at the profiles of b*(w + t), w in
    W = ker Tr, only, every codeword of a = w + t fails, and the report
    names a = alpha^k + t for the smallest log k in W."""
    from tracecodes import closedform, codes
    from tracecodes.verification import verify_counts
    ctx = fields(p, m)
    dset = build_defining_set(ctx, b)
    exp = oracle.power_tables(ctx)[0]
    tr = oracle.trace_table(ctx)
    w = next(x for x in exp if tr[x] == 0)
    a = oracle.add(p, w, t)
    target = m * t * b % p  # Tr(b*(w + t)) = m*t*b
    original = closedform.symbol_counts_closed
    monkeypatch.setattr(closedform, "symbol_counts_closed", lambda p, m, prof: [
        c + (prof[1] == target and prof[2] is None) for c in original(p, m, prof)])
    failed = [v for v in verify_counts(ctx, dset, codes.orbit_compositions(ctx, dset))
              if not v.passed]
    assert [v.name for v in failed] == [f"symbol-count-decomposition p={p} m={m}"]
    zeros = codeword(ctx, dset, a).count(0)
    assert failed[0].data == {"a": a, "rho": 0, "brute": zeros, "closed": zeros + 1,
                              "failing": p ** (m - 1) - 1}


@pytest.mark.parametrize("p,m", [(3, 5), (5, 4), (7, 3), (3, 6)])
def test_verify_counts_reads_the_set_of_b(fields, p, m):
    """On D_b the codeword of a is the D_1 codeword of a*b, permuted: the
    walk of D_b passes at the profiles of b*a and fails at those of a.
    Where p does not divide m, the walk reads W = ker Tr only, and
    D_(-1) = -D_1 gives a the D_1 codeword of -a, whose profile is a's:
    there b = -1 passes at either set's profiles."""
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
            hidden = b == p - 1 and m % p != 0
            assert failed == ([] if hidden else [f"symbol-count-decomposition p={p} m={m}"]), b
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


@pytest.mark.parametrize("p,m,patch,message", [
    # a length one short: at (3,3) a character row is the first to overflow
    (3, 3, ("predicted_length", -1), "symbol counts exceed the length"),
    (5, 4, ("predicted_length", -1), "symbol counts exceed the length"),
    (7, 3, ("predicted_length", -1), "symbol counts exceed the length"),
    # n + theta*p - 1 at (5,3): 5 - 5 - 1 with the length one short, and
    # 10 - 25 - 1 with theta = chi(-3) scaled from -1 to -5, which also
    # takes the length from 6 to 10
    (5, 3, ("predicted_length", -1), "negative pattern frequency -1"),
    (5, 3, ("legendre", -3, 5), "negative pattern frequency -16"),
    # a base row with a negative minimum
    (3, 3, ("legendre", -1, 5), "negative symbol count -24"),
    # regime 1: 56 coordinates fit the constant rows (54, 48) but not the
    # spike row 33 + 24
    (3, 6, ("predicted_length", -25), "symbol counts exceed the length"),
    # regime 2 at eps = -1: 2110 coordinates fit every row (at most 2107)
    # but the two-spike row 2*385 + 4*336 = 2114
    (7, 6, ("predicted_length", -340), "symbol counts exceed the length"),
])
def test_expansion_errors_match_the_per_pattern_expansion(monkeypatch, p, m, patch,
                                                           message):
    """Every pattern is checked by the one ``add`` of ``_expand_terms``,
    which raises the per-pattern expansion's error."""
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
    assert row_level.traceback[-1].name == "add"
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
