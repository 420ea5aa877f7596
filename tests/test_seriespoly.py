import random

import pytest

from splitkit.errors import NonUnitConstantTerm, TruncationMismatch
from splitkit.seriespoly import (
    IntPolynomial,
    TruncatedSeries,
    coeffs_as_strings,
    poly_divide,
    series_inverse,
    series_mul,
    substitute_neg,
)

P = IntPolynomial
S = TruncatedSeries


def test_polynomial_trims_trailing_zeros():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]).is_zero()
    assert P().degree == -1


def test_polynomials_and_series_refuse_assignment_so_their_hashes_hold():
    for value, other in ((P([1, 2]), (5,)), (S([1, 2]), (5, 0))):
        held = {value}
        with pytest.raises(AttributeError):
            value.coeffs = other
        assert value in held and value.coeffs == (1, 2)


def test_series_mul_examples():
    assert series_mul(S([1, 1, 0]), S([1, -1, 0])) == S([1, 0, -1])
    a = S([3, -1, 4, 7])
    assert series_mul(a, S.one(3)) == a
    sq = series_mul(S([1, 1, 1]), S([1, 1, 1]))
    assert sq == S([1, 2, 3])


def test_series_mul_truncation_mismatch():
    with pytest.raises(TruncationMismatch):
        series_mul(S([1, 1]), S([1, 1, 1]))


def test_series_inverse_examples():
    assert series_inverse(S.one(4)) == S.one(4)
    assert series_inverse(S([1, -1, 0, 0])) == S([1, 1, 1, 1])
    # denominator of the height-2 closed form
    assert series_inverse(S([1, -4, 4, -1])) == S([1, 4, 12, 33])
    # sparse: only the degree-3 term is read
    assert series_inverse(S([1, 0, 0, -1, 0, 0, 0, 0])) == S([1, 0, 0, 1, 0, 0, 1, 0])


def test_series_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        series_inverse(S([2, 1]))


def test_series_inverse_negative_unit():
    a = S([-1, 5, 7])
    assert series_mul(a, series_inverse(a)) == S.one(2)


def test_poly_divide_examples():
    q, r = poly_divide(P([1, -4, 4, -1]), P([1, -1]))
    assert q == P([1, -3, 1]) and r.is_zero()
    q, r = poly_divide(P([1, -8, 12, -6, 1]), P([1, -1]))
    assert q == P([1, -7, 5, -1]) and r.is_zero()
    p = P([4, 0, 2, 9])
    assert poly_divide(p, P([1])) == (p, P())


def test_poly_divide_needs_unit_leading_coefficient():
    with pytest.raises(ValueError):
        poly_divide(P([1, 1]), P([1, 2]))
    with pytest.raises(ZeroDivisionError):
        poly_divide(P([1, 1]), P())


def test_substitute_neg():
    assert substitute_neg(P([1, 1])) == P([1, -1])
    assert substitute_neg(P([5])) == P([5])
    assert substitute_neg(P([1, 3, 8])) == P([1, -3, 8])


def test_substitute_neg_is_an_involution():
    rng = random.Random(3)
    for _ in range(200):
        p = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        assert substitute_neg(substitute_neg(p)) == p


def test_series_inverse_reconstruction_randomized():
    rng = random.Random(4)
    for _ in range(1000):
        d = rng.randint(0, 8)
        coeffs = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(d)]
        a = S(coeffs)
        assert series_mul(a, series_inverse(a)) == S.one(d)


def test_poly_divide_reconstruction_randomized():
    rng = random.Random(5)
    for _ in range(1000):
        num = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        den = P([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice([1, -1])])
        q, r = poly_divide(num, den)
        assert den * q + r == num
        assert r.degree < den.degree


def test_polynomial_ring_ops():
    a, b = P([1, 2]), P([3, 0, 1])
    assert a + b == P([4, 2, 1])
    assert b - a == P([2, -2, 1])
    assert a * b == P([3, 6, 1, 2])
    assert (-a) + a == P()
    assert P([2, -1]) ** 2 == P([4, -4, 1])
    assert a.shift(2) == P([0, 0, 1, 2])


def test_polynomial_power_refuses_a_negative_exponent():
    assert P([1, 1]) ** 0 == P([1])
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        P([1, 1]) ** -1


def test_poly_to_series_and_strings():
    assert P([1, -3, 1]).to_series(4) == S([1, -3, 1, 0, 0])
    assert coeffs_as_strings(P([1, -3, 1])) == ["1", "-3", "1"]
