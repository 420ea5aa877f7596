"""Seeded property tests for the one elimination kernel (EchelonBasis).

Every rank and null space, dense or sparse, every rational inverse and
solve, and every Betti number, is read off an EchelonBasis.  The oracles
here avoid elimination: ranks and singularity from Leibniz determinants
of minors (`tests/minors.py`), reduced mod p over GF(p), matrix products
by `DenseMatrix.__mul__`, and Betti numbers from coning and the Euler
characteristic.  The sparse-row tests check `reduced_rows`,
`annihilator_basis` and the quadratic dual against the RREF definition,
dot products computed here, and ranks from `insert` alone.  Over Q the
kernel eliminates on primitive integer rows; rows with non-integer
Fraction entries check that path against the minor oracle, and `betti`,
which skips cleared columns, is checked against ranks of every column.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from minors import det, minor_rank
from splitkit.dualalg import QuadraticPresentation, quadratic_dual
from splitkit.errors import SingularMatrix
from splitkit.exactlinalg import GF2, GF3, RATIONALS, DenseMatrix, EchelonBasis, annihilator_basis
from splitkit.laygraph import SimplicialComplex
from splitkit.topo import betti, boundary_columns, euler_characteristic

FIELDS = (RATIONALS, GF2, GF3)
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def int_matrices(draw, square=False):
    """A small integer matrix as a list of rows, often with many zeros."""
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.sampled_from([0, 0, 1, -1])
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def _sparse(rows) -> list:
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


@SETTINGS
@seed(20090911)
@given(int_matrices(), st.sampled_from(FIELDS))
def test_nullspace_rank_and_rank_nullity(rows, field):
    # the kernel on sparse rows over every field; over Q also the dense
    # matrix, whose rank and null space come from the same kernel
    cols = len(rows[0])
    ann = annihilator_basis(_sparse(rows), cols, field)
    for f in ann:
        for r in rows:
            assert not _dot(f, dict(enumerate(r)), field)
    rank = minor_rank(rows, field)
    assert _rank(_sparse(rows), field) == rank
    assert rank + len(ann) == cols
    if ann:
        assert minor_rank([[f.get(j, 0) for j in range(cols)] for f in ann], field) == len(ann)
    if field is RATIONALS:
        m = DenseMatrix(rows)
        basis = m.nullspace_basis()
        for v in basis:
            assert (m * DenseMatrix([[x] for x in v])).is_zero()
        assert m.rank() == rank and len(basis) == len(ann)


@SETTINGS
@seed(20090912)
@given(int_matrices(square=True))
def test_inverse_exactly_when_full_rank(rows):
    m = DenseMatrix(rows)
    identity = DenseMatrix.identity(m.rows)
    if det(rows):
        inv = m.inverse()
        assert m * inv == identity and inv * m == identity
        assert m.rank() == m.rows
    else:
        with pytest.raises(SingularMatrix):
            m.inverse()
        assert m.rank() < m.rows


@SETTINGS
@seed(20090919)
@given(int_matrices(square=True), st.data())
def test_solve_exactly_when_full_rank(rows, data):
    m = DenseMatrix(rows)
    cols = data.draw(st.integers(1, 3))
    rhs = DenseMatrix([[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(m.rows)])
    if det(rows):
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


@st.composite
def kernel_inputs(draw):
    """A field and sparse vectors to insert: Fraction entries over Q, residues
    outside [0, p) over GF(p), and leading entries of either sign."""
    field = draw(st.sampled_from(FIELDS))
    if field.p is None:
        entry = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    else:
        entry = st.integers(-7, 7)
    vecs = st.dictionaries(st.integers(0, 5), entry, max_size=5)
    return field, draw(st.lists(vecs, min_size=1, max_size=8))


@SETTINGS
@seed(20090943)
@given(kernel_inputs())
def test_insert_stores_normalised_rows_and_grows_exactly_when_reduce_is_nonzero(inputs):
    field, vecs = inputs
    basis = EchelonBasis(field)
    for vec in vecs:
        held = dict(vec)
        residue = basis.reduce(vec)
        assert basis.insert(vec) == (residue != {})
        assert vec == held  # the kernel works on its own copy
        for col, row in basis.pivots.items():
            assert min(row) == col and all(type(v) is int for v in row.values())
            if field.p is None:
                assert row[col] > 0 and math.gcd(*row.values()) == 1
            else:
                assert row[col] == 1 and all(0 < v < field.p for v in row.values())


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
            if field.p is None:  # an int where the pivot divides, never a float
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
    assert basis.rank == minor_rank(rows)
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
