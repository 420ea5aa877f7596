"""Seeded property tests for DenseMatrix, an integer matrix over one denominator.

Every operation is compared with a plain oracle written here: lists of
Fractions over Q, lists of residues over GF(p), with the field arithmetic
spelled out.  Entries carry denominators (coprime to p over GF(p)), so
sums, products and solves meet matrices whose denominators differ.  The
representation itself is checked too: den > 0, gcd(den, num) = 1, den = 1
and entries in [0, p) over GF(p), and equal matrices built by different
routes have equal `==` and `hash`.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from splitkit.errors import SingularMatrix
from splitkit.exactlinalg import GF2, GF3, RATIONALS, DenseMatrix

FIELDS = (RATIONALS, GF2, GF3)
SETTINGS = settings(max_examples=150, deadline=None, database=None)
DENOMINATORS = {None: [1, 2, 3, 4, 6], 2: [1, 3, 5], 3: [1, 2, 4, 5]}  # over GF(p), coprime to p


# --- the oracle: field elements in plain lists -------------------------------


def _elem(v: Fraction, p):
    return v if p is None else v.numerator * pow(v.denominator, -1, p) % p


def _norm(v, p):
    return v if p is None else v % p


def _add(a, b, p):
    return [[_norm(x + y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b, p):
    return [[_norm(x - y, p) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _matmul(a, b, p, cols):
    return [[_norm(sum((a[i][t] * b[t][j] for t in range(len(b))), 0), p) for j in range(cols)] for i in range(len(a))]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _det(a, p):
    """Leibniz expansion: the sum over permutations of signed products."""
    acc = 0
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        acc += term
    return _norm(acc, p)


def _check_canonical(m: DenseMatrix):
    assert m.den > 0
    assert len(m.num) == m.rows and all(len(r) == m.cols for r in m.num)
    assert all(type(v) is int for r in m.num for v in r)
    if m.field.p is None:
        assert gcd(m.den, *(v for r in m.num for v in r)) == 1
    else:
        assert m.den == 1
        assert all(0 <= v < m.field.p for r in m.num for v in r)


# --- strategies ----------------------------------------------------------------


def _value(field):
    return st.builds(Fraction, st.integers(-5, 5), st.sampled_from(DENOMINATORS[field.p]))


def _values(draw, field, rows, cols):
    flat = draw(st.lists(_value(field), min_size=rows * cols, max_size=rows * cols))
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


@st.composite
def pairs(draw):
    """(field, a, b, values of a, values of b) with a and b of one shape."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    va, vb = _values(draw, field, rows, cols), _values(draw, field, rows, cols)
    return field, DenseMatrix(va, field), DenseMatrix(vb, field), va, vb


@st.composite
def squares(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    sparse = draw(st.booleans())  # zeros make singular matrices common
    va = [[v if not sparse or draw(st.booleans()) else Fraction(0) for v in r] for r in _values(draw, field, n, n)]
    return field, DenseMatrix(va, field), va


def _oracle(values, field):
    return [[_elem(v, field.p) for v in r] for r in values]


# --- tests ---------------------------------------------------------------------


@SETTINGS
@seed(20091001)
@given(pairs(), st.data())
def test_sum_difference_scale_transpose_trace_match_the_oracle(pair, data):
    field, a, b, va, vb = pair
    p = field.p
    oa, ob = _oracle(va, field), _oracle(vb, field)
    c = data.draw(_value(field))
    results = {
        "sum": (a + b, _add(oa, ob, p)),
        "difference": (a - b, _sub(oa, ob, p)),
        "negation": (-a, [[_norm(-x, p) for x in r] for r in oa]),
        "scale": (a.scale(c), [[_norm(_elem(c, p) * x, p) for x in r] for r in oa]),
        "transpose": (a.transpose(), [list(r) for r in zip(*oa)]),
    }
    for name, (got, want) in results.items():
        _check_canonical(got)
        assert got.to_lists() == want, name
    _check_canonical(a)
    assert a.to_lists() == oa
    assert (a - a).is_zero() and (a + b == b + a)
    assert a.trace() == _norm(sum(oa[i][i] for i in range(min(a.rows, a.cols))), p)
    assert type(a.trace()) is (Fraction if p is None else int)


@SETTINGS
@seed(20091002)
@given(st.sampled_from(FIELDS), st.data())
def test_product_and_power_match_the_oracle(field, data):
    p = field.p
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    va, vb = _values(data.draw, field, rows, inner), _values(data.draw, field, inner, cols)
    a, b = DenseMatrix(va, field), DenseMatrix(vb, field)
    prod = a * b
    _check_canonical(prod)
    assert prod.to_lists() == _matmul(_oracle(va, field), _oracle(vb, field), p, cols)
    vs = _values(data.draw, field, inner, inner)
    s, os_ = DenseMatrix(vs, field), _oracle(vs, field)
    want = _identity(inner)
    for k in range(5):
        power = s**k
        _check_canonical(power)
        assert power.to_lists() == want, k
        want = _matmul(want, os_, p, inner)


@SETTINGS
@seed(20091003)
@given(squares(), st.data())
def test_solve_and_inverse_match_the_oracle(square, data):
    field, a, va = square
    p, n = field.p, a.rows
    oa = _oracle(va, field)
    cols = data.draw(st.integers(1, 3))
    vb = _values(data.draw, field, n, cols)
    rhs = DenseMatrix(vb, field)
    if not _det(oa, p):
        for attempt in (lambda: a.solve(rhs), a.inverse):
            with pytest.raises(SingularMatrix):
                attempt()
        return
    x, inv = a.solve(rhs), a.inverse()
    for got in (x, inv):
        _check_canonical(got)
    assert _matmul(oa, x.to_lists(), p, cols) == _oracle(vb, field)
    assert _matmul(oa, inv.to_lists(), p, n) == _identity(n)
    assert _matmul(inv.to_lists(), oa, p, n) == _identity(n)


@SETTINGS
@seed(20091004)
@given(pairs(), st.data())
def test_equal_matrices_from_different_routes_have_equal_hashes(pair, data):
    field, a, b, va, _ = pair
    c = data.draw(_value(field).filter(lambda v: _elem(v, field.p)))  # a unit of the field
    unit = Fraction(1) if field.p is None else 1
    routes = [
        DenseMatrix(va, field),
        DenseMatrix([[f"{v.numerator}/{v.denominator}" for v in r] for r in va], field),
        (a + b) - b,
        -(-a),
        a.scale(c).scale(1 / c),
        a.transpose().transpose(),
        a * DenseMatrix.identity(a.cols, field),
        DenseMatrix.identity(a.rows, field).scale(unit) * a,
        a - DenseMatrix.zeros(a.rows, a.cols, field),
    ]
    for m in routes:
        _check_canonical(m)
        assert m == a and hash(m) == hash(a)
    zero = a - a
    assert zero == DenseMatrix.zeros(a.rows, a.cols, field) and zero.den == 1
    assert hash(zero) == hash(DenseMatrix.zeros(a.rows, a.cols, field))
