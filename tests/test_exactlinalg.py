import random
import re
from fractions import Fraction

import pytest

from minors import minor_rank
from splitkit.errors import SingularMatrix
from splitkit.exactlinalg import (
    GF2,
    GF3,
    RATIONALS,
    DenseMatrix,
    EchelonBasis,
    FieldSpec,
    annihilator_basis,
    char_poly,
    parse_field,
)
from splitkit.ncfactor import RootSystem


def sparse_rank(rows, field) -> int:
    basis = EchelonBasis(field)
    for row in rows:
        basis.insert({j: v for j, v in enumerate(row) if v})
    return basis.rank


def random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_field_spec_rejects_composite_modulus():
    with pytest.raises(ValueError, match="^modulus 6 is not prime$"):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)


def test_field_spec_is_an_immutable_hashable_value():
    assert FieldSpec() == FieldSpec(p=None) == RATIONALS and RATIONALS.p is None
    assert FieldSpec(2) == GF2 and hash(FieldSpec(2)) == hash(GF2)
    assert GF2 != RATIONALS and GF2 != FieldSpec(3) and GF2 != 2
    assert len({FieldSpec(), RATIONALS, FieldSpec(2), GF2, FieldSpec(3)}) == 3
    assert (str(RATIONALS), str(FieldSpec(7))) == ("Q", "GF(7)")
    with pytest.raises(AttributeError):
        GF2.p = 3
    assert GF2.p == 2


def test_parse_field():
    assert parse_field("q") == RATIONALS
    assert parse_field("gf2") == GF2
    assert parse_field("GF5") == FieldSpec(5)
    with pytest.raises(ValueError):
        parse_field("gf4")
    for name in ("gf", "gfx", "gf2.5"):
        with pytest.raises(ValueError, match=re.escape(f"unknown field {name!r} (expected 'q' or 'gf<p>')")):
            parse_field(name)


def test_field_coercion():
    assert GF3.of(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
    assert RATIONALS.of("2/4") == Fraction(1, 2)
    assert GF2.of(-1) == 1


def test_dense_matrix_shape_is_read_off_its_rows():
    m = DenseMatrix([[1, "1/2"], [Fraction(2, 3), 0]])
    assert (m.rows, m.cols, m.den) == (2, 2, 6) and m[0, 1] == Fraction(1, 2)
    with pytest.raises(ValueError, match="^ragged rows$"):
        DenseMatrix([[1, 2], [3]])


def test_rank_identity():
    assert DenseMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3


def test_rank_all_ones_gf2():
    assert sparse_rank([[1, 1], [1, 1]], GF2) == 1


def test_rank_dependent_rows():
    # third row independent, second a multiple of the first
    assert DenseMatrix([[1, 2], [2, 4], [0, 1]]).rank() == 2


def test_inverse_identity_and_swap():
    ident = DenseMatrix.identity(3)
    assert ident.inverse() == ident
    swap = DenseMatrix([[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_inverse_upper_triangular():
    assert DenseMatrix([[1, 1], [0, 1]]).inverse() == DenseMatrix([[1, -1], [0, 1]])


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        DenseMatrix([[1, 2], [2, 4]]).inverse()


def test_nullspace_dims():
    assert len(DenseMatrix.zeros(2, 3).nullspace_basis()) == 3
    assert len(DenseMatrix.identity(3).nullspace_basis()) == 0
    assert len(annihilator_basis([{0: 1, 1: 1}, {0: 1, 1: 1}], 2, GF2)) == 1


def test_annihilator_examples():
    assert len(annihilator_basis([], 2, RATIONALS)) == 2
    full = [{0: 1}, {1: 1}]
    assert annihilator_basis(full, 2, RATIONALS) == []
    one = annihilator_basis([{0: 1, 1: 1}], 2, RATIONALS)
    assert len(one) == 1
    x, y = one[0][0], one[0][1]
    assert x == -y and x != 0
    with pytest.raises(ValueError):
        annihilator_basis([{2: 1}], 2, RATIONALS)


def test_inverse_times_matrix_is_identity_random():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = DenseMatrix(random_int_matrix(rng, n, n))
        try:
            inv = m.inverse()
        except SingularMatrix:
            continue
        assert inv * m == DenseMatrix.identity(n)
        assert m * inv == DenseMatrix.identity(n)


def test_rank_equals_rank_of_transpose_random():
    rng = random.Random(1)
    for _ in range(40):
        m = DenseMatrix(random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
        assert m.rank() == m.transpose().rank()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rational_rank_bounds_modular_rank(p):
    rng = random.Random(p)
    field = FieldSpec(p)
    for _ in range(25):
        rows = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        modular = sparse_rank(rows, field)
        assert modular == minor_rank(rows, field)
        assert DenseMatrix(rows).rank() >= modular


def test_annihilator_size_plus_rank_is_dimension_random():
    rng = random.Random(2)
    for _ in range(25):
        d = rng.randint(1, 6)
        rows = random_int_matrix(rng, rng.randint(0, 6), d)
        ann = annihilator_basis([{j: v for j, v in enumerate(row) if v} for row in rows], d, RATIONALS)
        r = DenseMatrix(rows).rank() if rows else 0
        assert len(ann) + r == d
        for f in ann:
            for row in rows:
                assert sum(v * row[j] for j, v in f.items()) == 0


def test_matrix_power_and_trace():
    m = DenseMatrix([[1, 1], [0, 1]])
    assert m**0 == DenseMatrix.identity(2)
    assert m**3 == DenseMatrix([[1, 3], [0, 1]])
    assert m.trace() == 2


def test_matrix_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        DenseMatrix([[2]]) ** -1


def test_field_coercion_refuses_floats():
    # a float's exact binary value (0.1 is 3602879701896397/2**55) is never
    # the number meant, so no coercion into Q or GF(p) reads one
    for field in (RATIONALS, GF2):
        for value in (0.1, 0.5, 1.0):
            with pytest.raises(TypeError, match=re.escape(repr(value))):
                field.of(value)
        assert field.of(Fraction(1, 3)) == field.of("1/3") and field.of(3) == field.of("3")
    with pytest.raises(TypeError, match="0.1"):
        DenseMatrix([[0.1]])
    with pytest.raises(TypeError, match="0.5"):
        DenseMatrix([[1]]).scale(0.5)
    with pytest.raises(TypeError, match="2.0"):
        annihilator_basis([{0: 2.0}], 1, GF2)
    with pytest.raises(TypeError, match="0.1"):
        RootSystem.from_scalars([0.1, 2])
    with pytest.raises(TypeError, match="0.5"):
        RootSystem.from_entries([[[0.5]], [[1]]])


def test_char_poly_companion():
    # companion matrix of t^2 - 3t + 2 (roots 1 and 2)
    m = DenseMatrix([[0, -2], [1, 3]])
    assert char_poly(m) == [Fraction(1), Fraction(-3), Fraction(2)]


def test_echelon_basis_rank_and_membership():
    basis = EchelonBasis(GF2)
    assert basis.insert({0: 1, 1: 1})
    assert basis.insert({1: 1, 2: 1})
    assert not basis.insert({0: 1, 2: 1})  # sum of the first two
    assert basis.rank == 2
    assert basis.reduce({0: 1, 2: 1}) == {}
    assert basis.reduce({0: 1}) != {}


def test_echelon_reduced_rows_are_rref():
    basis = EchelonBasis(RATIONALS)
    basis.insert({0: Fraction(2), 1: Fraction(2)})
    basis.insert({0: Fraction(1), 1: Fraction(2), 2: Fraction(3)})
    rows = basis.reduced_rows()
    pivots = [min(r) for r in rows]
    assert pivots == sorted(pivots)
    for r in rows:
        assert r[min(r)] == 1
        for other in rows:
            if other is not r:
                assert min(other) not in r


def test_column_classes_small_examples():
    # over Q a class entry is an int when the pivot divides it
    basis = EchelonBasis(RATIONALS)
    basis.insert({0: 1, 1: 2})
    assert basis.column_classes(3) == [{0: -2}, {0: 1}, {1: 1}]
    basis = EchelonBasis(RATIONALS)
    basis.insert({0: 2, 1: 1})
    classes = basis.column_classes(3)
    assert classes == [{0: Fraction(-1, 2)}, {0: 1}, {1: 1}] and type(classes[0][0]) is Fraction
    # over GF(3), e_0 = -e_1 - e_2 = 2 e_1 + 2 e_2 modulo the row e_0 + e_1 + e_2
    basis = EchelonBasis(GF3)
    basis.insert({0: 1, 1: 1, 2: 1})
    assert basis.column_classes(3) == [{0: 2, 1: 2}, {0: 1}, {1: 1}]
