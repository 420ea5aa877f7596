"""Seeded property tests for DenseMatrix, a rational matrix held as an integer matrix over one denominator.

Every operation is compared with a plain oracle written here: lists of
Fractions, with the arithmetic spelled out.  Entries carry denominators,
so sums, products and solves meet matrices whose denominators differ.
The representation itself is checked too: den > 0 and gcd(den, num) = 1,
and equal matrices built by different routes have equal `==` and `hash`.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from minors import det
from splitkit.errors import SingularMatrix
from splitkit.exactlinalg import DenseMatrix

SETTINGS = settings(max_examples=150, deadline=None, database=None)
DENOMINATORS = [1, 2, 3, 4, 6]


# --- the oracle: Fractions in plain lists ------------------------------------


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _matmul(a, b, cols):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), 0) for j in range(cols)] for i in range(len(a))]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _check_canonical(m: DenseMatrix):
    assert m.den > 0
    assert len(m.num) == m.rows and all(len(r) == m.cols for r in m.num)
    assert all(type(v) is int for r in m.num for v in r)
    assert gcd(m.den, *(v for r in m.num for v in r)) == 1


# --- strategies ----------------------------------------------------------------


_VALUE = st.builds(Fraction, st.integers(-5, 5), st.sampled_from(DENOMINATORS))


def _values(draw, rows, cols):
    flat = draw(st.lists(_VALUE, min_size=rows * cols, max_size=rows * cols))
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


@st.composite
def pairs(draw):
    """(a, b, values of a, values of b) with a and b of one shape."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    va, vb = _values(draw, rows, cols), _values(draw, rows, cols)
    return DenseMatrix(va), DenseMatrix(vb), va, vb


@st.composite
def squares(draw):
    n = draw(st.integers(1, 4))
    sparse = draw(st.booleans())  # zeros make singular matrices common
    va = [[v if not sparse or draw(st.booleans()) else Fraction(0) for v in r] for r in _values(draw, n, n)]
    return DenseMatrix(va), va


# --- tests ---------------------------------------------------------------------


@SETTINGS
@seed(20091001)
@given(pairs(), st.data())
def test_sum_difference_scale_transpose_trace_match_the_oracle(pair, data):
    a, b, va, vb = pair
    c = data.draw(_VALUE)
    results = {
        "sum": (a + b, _add(va, vb)),
        "difference": (a - b, _sub(va, vb)),
        "negation": (-a, [[-x for x in r] for r in va]),
        "scale": (a.scale(c), [[c * x for x in r] for r in va]),
        "transpose": (a.transpose(), [list(r) for r in zip(*va)]),
    }
    for name, (got, want) in results.items():
        _check_canonical(got)
        assert got.to_lists() == want, name
    _check_canonical(a)
    assert a.to_lists() == va
    assert (a - a).is_zero() and (a + b == b + a)
    assert a.trace() == sum(va[i][i] for i in range(min(a.rows, a.cols)))
    assert type(a.trace()) is Fraction


@SETTINGS
@seed(20091002)
@given(st.data())
def test_product_and_power_match_the_oracle(data):
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    va, vb = _values(data.draw, rows, inner), _values(data.draw, inner, cols)
    prod = DenseMatrix(va) * DenseMatrix(vb)
    _check_canonical(prod)
    assert prod.to_lists() == _matmul(va, vb, cols)
    vs = _values(data.draw, inner, inner)
    s = DenseMatrix(vs)
    want = _identity(inner)
    for k in range(5):
        power = s**k
        _check_canonical(power)
        assert power.to_lists() == want, k
        want = _matmul(want, vs, inner)


@SETTINGS
@seed(20091003)
@given(squares(), st.data())
def test_solve_and_inverse_match_the_oracle(square, data):
    a, va = square
    n = a.rows
    cols = data.draw(st.integers(1, 3))
    vb = _values(data.draw, n, cols)
    rhs = DenseMatrix(vb)
    if not det(va):
        for attempt in (lambda: a.solve(rhs), a.inverse):
            with pytest.raises(SingularMatrix):
                attempt()
        return
    x, inv = a.solve(rhs), a.inverse()
    for got in (x, inv):
        _check_canonical(got)
    assert _matmul(va, x.to_lists(), cols) == vb
    assert _matmul(va, inv.to_lists(), n) == _identity(n)
    assert _matmul(inv.to_lists(), va, n) == _identity(n)


@SETTINGS
@seed(20091004)
@given(pairs(), st.data())
def test_equal_matrices_from_different_routes_have_equal_hashes(pair, data):
    a, b, va, _ = pair
    c = data.draw(_VALUE.filter(bool))
    routes = [
        DenseMatrix(va),
        DenseMatrix([[f"{v.numerator}/{v.denominator}" for v in r] for r in va]),
        (a + b) - b,
        -(-a),
        a.scale(c).scale(1 / c),
        a.transpose().transpose(),
        a * DenseMatrix.identity(a.cols),
        DenseMatrix.identity(a.rows).scale(Fraction(1)) * a,
        a - DenseMatrix.zeros(a.rows, a.cols),
    ]
    for m in routes:
        _check_canonical(m)
        assert m == a and hash(m) == hash(a)
    zero = a - a
    assert zero == DenseMatrix.zeros(a.rows, a.cols) and zero.den == 1
    assert hash(zero) == hash(DenseMatrix.zeros(a.rows, a.cols))
