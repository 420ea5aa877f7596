"""Seeded property tests for the one elimination kernel (EchelonBasis).

Every DenseMatrix rank, null space, inverse and solve, and every Betti number,
is read off an EchelonBasis.  The dense oracles here avoid elimination:
matrix products by `DenseMatrix.__mul__`, ranks and singularity from
Leibniz determinants of minors, and Betti numbers from coning and the
Euler characteristic.  The sparse-row tests check `reduced_rows`,
`annihilator_basis` and the quadratic dual against the RREF definition,
dot products computed here, and ranks from `insert` alone.  Over Q the
kernel eliminates on primitive integer rows; rows with non-integer
Fraction entries check that path against the minor oracle, and `betti`,
which skips cleared columns, is checked against ranks of every column.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from splitkit.dualalg import QuadraticPresentation, quadratic_dual
from splitkit.errors import SingularMatrix
from splitkit.exactlinalg import GF2, GF3, RATIONALS, DenseMatrix, EchelonBasis, annihilator_basis
from splitkit.laygraph import SimplicialComplex
from splitkit.topo import betti, boundary_columns, euler_characteristic

FIELDS = (RATIONALS, GF2, GF3)
SETTINGS = settings(max_examples=150, deadline=None, database=None)


def _det(rows, field):
    """Leibniz expansion: the sum over permutations of signed products."""
    acc = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = 1 if inversions % 2 == 0 else -1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        acc += term
    return field.of(acc)


def _minor_rank(m: DenseMatrix) -> int:
    """Largest k with a nonzero k x k minor."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                if _det([[m[i, j] for j in cs] for i in rs], m.field):
                    return k
    return 0


@st.composite
def matrices(draw, square=False):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.sampled_from([0, 0, 1, -1])
    return DenseMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], field)


@SETTINGS
@seed(20090911)
@given(matrices())
def test_nullspace_rank_and_rank_nullity(m):
    basis = m.nullspace_basis()
    for v in basis:
        assert (m * DenseMatrix([[x] for x in v], m.field)).is_zero()
    rank = _minor_rank(m)
    assert m.rank() == rank
    assert rank + len(basis) == m.cols
    if basis:
        assert _minor_rank(DenseMatrix(basis, m.field)) == len(basis)


@SETTINGS
@seed(20090912)
@given(matrices(square=True))
def test_inverse_exactly_when_full_rank(m):
    identity = DenseMatrix.identity(m.rows, m.field)
    if _det(m.entries, m.field):
        inv = m.inverse()
        assert m * inv == identity and inv * m == identity
        assert m.rank() == m.rows
    else:
        with pytest.raises(SingularMatrix):
            m.inverse()
        assert m.rank() < m.rows


@SETTINGS
@seed(20090919)
@given(matrices(square=True), st.data())
def test_solve_exactly_when_full_rank(m, data):
    cols = data.draw(st.integers(1, 3))
    rhs = DenseMatrix([[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(m.rows)], m.field)
    if _det(m.entries, m.field):
        assert m * m.solve(rhs) == rhs
    else:
        with pytest.raises(SingularMatrix):
            m.solve(rhs)


complexes = st.lists(
    st.frozensets(st.integers(0, 5), min_size=1, max_size=4), min_size=1, max_size=6
).map(SimplicialComplex)


@SETTINGS
@seed(20090913)
@given(complexes, st.sampled_from(FIELDS))
def test_cone_is_acyclic_and_euler_characteristic(x, field):
    apex = 6  # at most 7 vertices in the cone
    cone = SimplicialComplex([f + (apex,) for f in x.facets])
    assert sum(betti(cone, field)) == 0
    b = betti(x, field)
    assert euler_characteristic(x) - 1 == sum((-1) ** i * v for i, v in enumerate(b))


@st.composite
def sparse_systems(draw, dims=st.integers(1, 12)):
    """(field, dim, rows): a few sparse rows {coordinate: value} in dimension dim."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(dims)
    row = st.dictionaries(st.integers(0, dim - 1), st.integers(-3, 3), max_size=4)
    rows = [{c: field.of(v) for c, v in r.items()} for r in draw(st.lists(row, max_size=8))]
    return field, dim, rows


def _rank(rows, field) -> int:
    basis = EchelonBasis(field)
    for r in rows:
        basis.insert(r)
    return basis.rank


def _dot(f, row, field):
    return field.of(sum(v * row.get(j, 0) for j, v in f.items()))


@SETTINGS
@seed(20090914)
@given(sparse_systems())
def test_reduced_rows_are_rref_and_span_the_inserted_rows(system):
    field, _, rows = system
    basis = EchelonBasis(field)
    for r in rows:
        basis.insert(r)
    rref = basis.reduced_rows()
    pivots = [min(r) for r in rref]
    assert pivots == sorted(set(pivots))
    for r, pc in zip(rref, pivots):
        assert r[pc] == 1 and all(r.values())
        assert not any(other in r for other in pivots if other != pc)
    fresh = EchelonBasis(field)
    for r in rref:
        fresh.insert(r)
    assert fresh.rank == basis.rank == len(rref)
    for r in rows:
        assert fresh.reduce(r) == {}


@SETTINGS
@seed(20090920)
@given(sparse_systems())
def test_column_classes_are_the_quotient_map(system):
    # class(e_c) - e_c lies in the row space, free columns map to unit
    # vectors, and size - rank columns are free
    field, dim, rows = system
    basis = EchelonBasis(field)
    for r in rows:
        basis.insert(r)
    classes = basis.column_classes(dim)
    free = [c for c in range(dim) if c not in basis.pivots]
    assert len(classes) == dim and len(free) == dim - basis.rank
    for c, cls in enumerate(classes):
        for v in cls.values():
            if field.is_rational:  # an int where the pivot divides, never a float
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
            else:
                assert type(v) is int and 0 < v < field.p
        diff = {free[j]: field.of(v) for j, v in cls.items()}
        diff[c] = field.of(diff.get(c, 0) - 1)
        assert basis.reduce(diff) == {}, c
        if c in free:
            assert cls == {free.index(c): 1}


@SETTINGS
@seed(20090915)
@given(sparse_systems())
def test_annihilator_is_orthogonal_complement(system):
    field, dim, rows = system
    ann = annihilator_basis(rows, dim, field)
    for f in ann:
        assert all(0 <= j < dim for j in f)
        for r in rows:
            assert not _dot(f, r, field)
    assert _rank(ann, field) == len(ann)
    assert len(ann) + _rank(rows, field) == dim


@SETTINGS
@seed(20090916)
@given(sparse_systems(dims=st.sampled_from([1, 4, 9])))  # 1 to 3 generators
def test_double_dual_restores_relations_and_make_checks_range(system):
    field, dim, rows = system
    gens = tuple("xyz"[: math.isqrt(dim)])
    p = QuadraticPresentation.make(gens, rows, field)
    dual = quadratic_dual(p)
    assert len(dual.relations) + len(p.relations) == dim
    assert quadratic_dual(dual).relations == p.relations
    for bad in (-1, dim):
        with pytest.raises(ValueError):
            QuadraticPresentation.make(gens, rows + [{bad: 1}], field)


@SETTINGS
@seed(20090917)
@given(complexes, st.sampled_from(FIELDS))
def test_cleared_betti_equals_ranks_of_every_column(x, field):
    maps = boundary_columns(x)
    ranks = [_rank(cols, field) for cols in maps] + [0]
    expected = tuple(len(maps[i]) - ranks[i] - ranks[i + 1] for i in range(len(maps)))
    assert betti(x, field) == expected


fraction_rows = st.lists(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 5)), min_size=5, max_size=5),
    min_size=1,
    max_size=4,
)


@SETTINGS
@seed(20090918)
@given(fraction_rows, st.integers(1, 5))
def test_fraction_rows_rank_and_rref(rows, cols):
    rows = [r[:cols] for r in rows]
    basis = EchelonBasis(RATIONALS)
    for r in rows:
        basis.insert({j: v for j, v in enumerate(r) if v})
    assert basis.rank == _minor_rank(DenseMatrix(rows, RATIONALS))
    rref = basis.reduced_rows()
    pivots = [min(r) for r in rref]
    assert len(rref) == basis.rank and pivots == sorted(set(pivots))
    for r, pc in zip(rref, pivots):
        assert all(type(v) is Fraction and v for v in r.values())
        assert r[pc] == 1 and not any(other in r for other in pivots if other != pc)
    # the RREF definition: every row is the combination of the RREF rows
    # whose coefficients are its own entries in the pivot columns
    for r in rows:
        combo = [sum((r[pc] * R.get(j, 0) for pc, R in zip(pivots, rref)), Fraction(0)) for j in range(cols)]
        assert combo == r
