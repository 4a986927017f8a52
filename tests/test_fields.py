import random

import pytest

from tracecodes import (
    irreducible_polynomials,
    is_irreducible,
    is_prime,
    legendre,
    make_field,
    prime_factors,
)
from tracecodes.fields import _level_tables, _linear_norm, _poly_powmod, _times_tables
from tracecodes.errors import (
    DegreeTooSmallError,
    EvenCharacteristicError,
    NotPrimeError,
    SizeCapExceededError,
)

import oracle


def _inverse(ctx, x):
    """x^-1 = alpha^(-log x), read off the oracle's power and log tables."""
    exp, log = oracle.power_tables(ctx)
    return exp[-log[x] % (ctx.r - 1)]


def test_prime_field_f3():
    ctx = make_field(3, 1)
    assert ctx.r == 3
    assert ctx.modulus == (0, 1)
    assert ctx.alpha == 2  # smallest generator of F_3^*
    assert oracle.trace_table(ctx)[2] == 2


def test_make_field_is_deterministic():
    a = make_field(3, 3)
    b = make_field(3, 3)
    assert a.modulus == b.modulus == (1, 2, 0, 1)
    assert a.alpha == b.alpha
    assert a.trace_exp == b.trace_exp


def test_construction_errors():
    with pytest.raises(EvenCharacteristicError):
        make_field(2, 4)
    with pytest.raises(NotPrimeError):
        make_field(9, 2)
    with pytest.raises(NotPrimeError):
        make_field(1, 1)
    with pytest.raises(DegreeTooSmallError):
        make_field(3, 0)
    with pytest.raises(SizeCapExceededError):
        make_field(3, 20)
    with pytest.raises(ValueError):
        make_field(3, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        make_field(3, 2, modulus=(1, 1))  # wrong degree


def test_field_axioms_sampled(fields):
    ctx = fields(3, 3)
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (rng.randrange(ctx.r) for _ in range(3))
        assert ctx.add(x, y) == ctx.add(y, x)
        assert ctx.mul(x, y) == ctx.mul(y, x)
        assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.add(x, 0) == x and ctx.mul(x, 1) == x
    for x in range(1, ctx.r):
        assert ctx.mul(x, _inverse(ctx, x)) == 1


def test_primitive_element_order(fields):
    ctx = fields(5, 2)
    assert oracle._pow_raw(ctx, ctx.alpha, 24) == 1
    for q in prime_factors(24):
        assert oracle._pow_raw(ctx, ctx.alpha, 24 // q) != 1


def test_trace_values_and_surjectivity(fields):
    for p, m in [(3, 3), (5, 2), (3, 4), (5, 4)]:
        ctx = fields(p, m)
        assert ctx.trace_exp[0] == m % p  # Tr(1)
        counts = [1] + [0] * (p - 1)  # Tr(0) = 0
        for t in ctx.trace_exp:
            counts[t] += 1
        assert counts == [p ** (m - 1)] * p


def test_trace_frobenius_invariance_and_linearity(fields):
    ctx = fields(3, 4)
    tr = oracle.trace_table(ctx)
    rng = random.Random(2)
    for x in range(ctx.r):
        assert tr[oracle._pow_raw(ctx, x, 3)] == tr[x]
    for _ in range(100):
        x, y = rng.randrange(ctx.r), rng.randrange(ctx.r)
        assert tr[ctx.add(x, y)] == (tr[x] + tr[y]) % 3


def test_trace_against_frobenius_sum(fields):
    # independent oracle: sum of x^(p^i) must land in the prime subfield
    # and agree with the table
    for p, m in [(3, 3), (5, 2)]:
        ctx = fields(p, m)
        tr = oracle.trace_table(ctx)
        for x in range(ctx.r):
            acc = x
            frob = x
            for _ in range(m - 1):
                frob = oracle._pow_raw(ctx, frob, p)
                acc = ctx.add(acc, frob)
            assert acc < p
            assert acc == tr[x]


def test_legendre_values():
    assert [legendre(a, 5) for a in range(5)] == [0, 1, -1, -1, 1]
    assert legendre(-3, 7) == legendre(4, 7) == 1
    assert legendre(-3, 5) == legendre(2, 5) == -1


def test_quadratic_character(fields):
    # the quadratic character read as the parity of the log: alpha is a
    # non-square, parities add under the table-free multiply, and x is a
    # square exactly when x^((r - 1)/2) = 1 (Euler's criterion)
    ctx = fields(5, 4)
    _, log = oracle.power_tables(ctx)
    assert log[ctx.alpha] % 2 == 1
    rng = random.Random(3)
    for _ in range(1000):
        x, y = rng.randrange(1, ctx.r), rng.randrange(1, ctx.r)
        assert log[ctx.mul(x, y)] % 2 == (log[x] + log[y]) % 2
    for x in range(1, ctx.r):
        euler = oracle._pow_raw(ctx, x, (ctx.r - 1) // 2)
        assert euler == (1 if log[x] % 2 == 0 else ctx.p - 1)


def test_quadratic_character_restriction(fields):
    # on the prime subfield the extension character is the m-th power of
    # the prime-field one; prime_log reads the same logs from F_p^* alone
    for p, m in [(3, 3), (5, 4), (7, 3)]:
        ctx = fields(p, m)
        for c in range(1, p):
            assert (-1) ** oracle.log(ctx, c) == legendre(c, p) ** m
            assert ctx.prime_log(c) == ctx.prime_log(c + p) == oracle.log(ctx, c)


def test_irreducible_census():
    # counts of monic irreducible polynomials (necklace formula values)
    assert sum(1 for _ in irreducible_polynomials(3, 2)) == 3
    assert sum(1 for _ in irreducible_polynomials(3, 3)) == 8
    assert sum(1 for _ in irreducible_polynomials(3, 4)) == 18
    assert sum(1 for _ in irreducible_polynomials(5, 2)) == 10


def test_irreducible_against_root_search():
    # for degree <= 3 irreducibility is exactly "no roots"
    for p, m in [(3, 2), (3, 3), (5, 2), (7, 3)]:
        for tail in range(p**m):
            coeffs = []
            t = tail
            for _ in range(m):
                t, c = divmod(t, p)
                coeffs.append(c)
            coeffs.append(1)
            has_root = any(
                sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p == 0
                for x in range(p))
            assert is_irreducible(coeffs, p) == (not has_root)


@pytest.mark.parametrize("m", [2, 3])
def test_root_filter_alone_lists_the_irreducibles(m):
    """At m <= 3 the search yields on the root filter alone, without the
    Frobenius test: it lists exactly the monic polynomials that pass
    is_irreducible, in tail order."""
    for p in filter(is_prime, range(3, 14)):
        monic = [(*(tail // p**i % p for i in range(m)), 1) for tail in range(p**m)]
        assert list(irreducible_polynomials(p, m)) == \
            [f for f in monic if is_irreducible(f, p)], p


def test_times_tables_match_their_definition():
    for p in filter(is_prime, range(3, 128)):
        assert _times_tables(p) == \
            [bytes(c * v % p for v in range(p)).ljust(256, b"\0") for c in range(p)], p


def test_level_tables_match_their_definition():
    for p in filter(is_prime, range(3, 256)):
        assert _level_tables(p) == \
            [bytes(49 if t == v else 48 for t in range(256)) for v in range(p)], p


def test_searches_match_the_unfiltered_oracle():
    """The root filter of the modulus search and the norm filter of the
    primitive search change no default: same modulus and alpha as the
    unfiltered searches, for every odd p <= 131 and p^m <= 2*10^5."""
    for p in filter(is_prime, range(3, 132)):
        m = 1
        while p**m <= 2 * 10**5:
            ctx = make_field(p, m)
            assert ctx.modulus == oracle.irreducible_from(p, m, 0), (p, m)
            assert ctx.alpha == oracle.first_primitive(p, m, ctx.modulus), (p, m)
            m += 1


def test_primitive_search_on_drawn_moduli():
    rng = random.Random(21)
    for _ in range(20):
        p, m = rng.choice([(3, 4), (3, 6), (5, 3), (5, 4), (7, 3), (11, 2), (13, 3), (37, 3)])
        modulus = oracle.irreducible_from(p, m, rng.randrange(1, p**m))
        assert make_field(p, m, modulus=modulus).alpha == \
            oracle.first_primitive(p, m, modulus), (p, m, modulus)


def test_linear_norm_is_the_norm():
    """(-c1)^m * f(-c0/c1) is c^((r - 1)/(p - 1)) for every c = c0 + c1*x."""
    for p, m in [(3, 3), (5, 4), (37, 3), (3, 8)]:
        f = make_field(p, m).modulus
        e = (p**m - 1) // (p - 1)
        for c0 in range(p):
            for c1 in range(1, p):
                norm = _poly_powmod([c0, c1] + [0] * (m - 2), e, f, p)
                assert norm == [_linear_norm(c0, c1, f, p)] + [0] * (m - 1), (p, m, c0, c1)


def test_element_encoding_roundtrip(fields):
    ctx = fields(3, 4)
    for x in range(ctx.r):
        assert ctx.index(ctx.coeffs(x)) == x
    assert ctx.coeffs(1) == (1, 0, 0, 0)


def test_modulus_override(fields):
    gen = irreducible_polynomials(5, 3)
    next(gen)
    alt = next(gen)
    ctx = make_field(5, 3, modulus=alt)
    assert ctx.modulus == alt
    for x in range(1, ctx.r):
        assert ctx.mul(x, _inverse(ctx, x)) == 1
