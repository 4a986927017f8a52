import random

import pytest

from tracecodes import CyclotomicInteger
from tracecodes.errors import MixedRootOrderError

from oracle import embed


def zeta(p, k):
    return CyclotomicInteger.zeta_power(p, k)


def test_all_roots_sum_vanishes():
    for p in (3, 5, 7, 11):
        total = CyclotomicInteger.zero(p)
        for k in range(p):
            total = total + zeta(p, k)
        assert total == CyclotomicInteger.zero(p)
        assert total == 0


def test_zeta_exponent_addition():
    p = 7
    for a in range(p):
        for b in range(p):
            assert zeta(p, a) * zeta(p, b) == zeta(p, (a + b) % p)


def test_gauss_square_is_five():
    # (z + z^4 - z^2 - z^3)^2 collapses to the constant 5 for p = 5
    p = 5
    g = zeta(p, 1) + zeta(p, 4) - zeta(p, 2) - zeta(p, 3)
    assert (g * g).as_int() == 5


def test_canonical_form_is_unique():
    p = 5
    # z^4 rewrites on the canonical basis, so the two spellings agree
    direct = zeta(p, 4)
    rewritten = -(CyclotomicInteger.from_int(p, 1) + zeta(p, 1) + zeta(p, 2) + zeta(p, 3))
    assert direct == rewritten
    assert direct.coeffs == (-1, -1, -1, -1)


def test_ring_axioms_random():
    rng = random.Random(7)
    p = 7

    def rand():
        return CyclotomicInteger(p, [rng.randrange(-5, 6) for _ in range(p - 1)])

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0
        assert a * 1 == a


def test_embedding_is_a_homomorphism():
    rng = random.Random(11)
    p = 5

    def rand():
        return CyclotomicInteger(p, [rng.randrange(-9, 10) for _ in range(p - 1)])

    for _ in range(50):
        a, b = rand(), rand()
        assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-9
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-9
        assert abs(embed(a.conjugate()) - embed(a).conjugate()) < 1e-9


def test_integer_conversion():
    x = CyclotomicInteger.from_int(5, -7)
    assert x.is_rational_integer()
    assert x.as_int() == -7
    with pytest.raises(ValueError):
        zeta(5, 1).as_int()


def test_power_operator():
    p = 5
    g = zeta(p, 1) + zeta(p, 4) - zeta(p, 2) - zeta(p, 3)
    assert g**2 == CyclotomicInteger.from_int(p, 5)
    assert g**4 == CyclotomicInteger.from_int(p, 25)
    assert g**0 == 1


def test_mixed_root_order_rejected():
    with pytest.raises(MixedRootOrderError):
        zeta(5, 1) + zeta(7, 1)
    with pytest.raises(MixedRootOrderError):
        zeta(5, 1) * zeta(7, 1)


def test_immutability():
    x = zeta(5, 1)
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0, 0, 0)
