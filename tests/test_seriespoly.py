import itertools
import operator
import random
from fractions import Fraction

import pytest

from splitkit.laygraph import boolean_graph
from splitkit.mobius import graded_mobius
from splitkit.seriespoly import IntPolynomial, coeffs_as_strings, poly_divide, series_reciprocal, substitute_neg

P = IntPolynomial


def _times_reciprocal(p: IntPolynomial, d: int) -> list:
    """p * series_reciprocal(p, d), degrees 0..d, by the polynomial product."""
    product = p * P(series_reciprocal(p, d))
    return [product[k] for k in range(d + 1)]


def test_polynomial_trims_trailing_zeros():
    assert P([1, 2, 0, 0]).coeffs == (1, 2)
    assert P([0, 0]).is_zero()
    assert P().degree == -1


def test_polynomials_and_series_refuse_assignment_so_their_hashes_hold():
    value = P([1, 2])
    held = {value}
    with pytest.raises(AttributeError):
        value.coeffs = (5,)
    assert value in held and value.coeffs == (1, 2)
    series = series_reciprocal(value, 2)  # a plain tuple
    with pytest.raises(TypeError):
        series[0] = 5
    assert series in {(1, -2, 4)}


def test_an_int_is_a_constant_and_other_operands_are_refused():
    assert P([1]) + 1 == P([2]) and P([1, 3]) - 1 == P([0, 3])
    assert P([1]) - 1 == P() and P() + 0 == P()
    for other in ("1", 1.0, (1,), Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
                op(P([1]), other)


def test_iterating_a_polynomial_stops_at_its_top_coefficient():
    # islice keeps a regression from hanging the suite
    assert list(itertools.islice(P([1, -3, 1]), 10)) == [1, -3, 1]
    assert list(itertools.islice(P(), 10)) == []
    p = graded_mobius(boolean_graph(2))
    assert list(itertools.islice(p, 10)) == [4, -4, 1]
    assert IntPolynomial(p) == p


def test_a_polynomial_never_equals_an_int():
    # equal values must hash alike, and an int's hash is not its tuple's
    assert P([5]) != 5 and 5 != P([5])
    assert 5 not in {P([5])} and P() != 0


def test_series_inverse_examples():
    # series_reciprocal(p, D) is the inverse series 1/p to degree D
    assert series_reciprocal(P([1]), 4) == (1, 0, 0, 0, 0)  # trailing zeros kept
    assert series_reciprocal(P([1, -1]), 3) == (1, 1, 1, 1)
    # denominator of the height-2 closed form
    assert series_reciprocal(P([1, -4, 4, -1]), 3) == (1, 4, 12, 33)
    # sparse: only the degree-3 term is read
    assert series_reciprocal(P([1, 0, 0, -1]), 7) == (1, 0, 0, 1, 0, 0, 1, 0)
    # terms above the truncation degree are never read
    assert series_reciprocal(P([1, 2, 3, 4, 5]), 1) == (1, -2)
    assert series_reciprocal(P([1, 9]), 0) == (1,)


def test_series_inverse_needs_unit_constant():
    for p in (P([2, 1]), P([0, 1]), P()):
        with pytest.raises(ValueError, match="^constant term -?\\d+ is not a unit$"):
            series_reciprocal(p, 3)
    with pytest.raises(ValueError, match="^truncation degree -1 is negative$"):
        series_reciprocal(P([1]), -1)


def test_series_inverse_negative_unit():
    a = P([-1, 5, 7])
    assert series_reciprocal(a, 2) == (-1, -5, -32)
    assert _times_reciprocal(a, 2) == [1, 0, 0]


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
        a = P([rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))])
        assert _times_reciprocal(a, d) == [1] + [0] * d


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
    assert coeffs_as_strings(P([1, -3, 1])) == ["1", "-3", "1"]
    assert coeffs_as_strings(series_reciprocal(P([1, -3, 1]), 4)) == ["1", "3", "8", "21", "55"]
    assert coeffs_as_strings(series_reciprocal(P([1]), 3)) == ["1", "0", "0", "0"]
