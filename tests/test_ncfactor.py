import itertools
import math
import random
from fractions import Fraction

import pytest

from quasideterminants import quasideterminant, quasideterminant_ordered
from splitkit.errors import GenericityFailure
from splitkit.exactlinalg import DenseMatrix, char_poly
from splitkit.ncfactor import (
    MatrixPolynomial,
    RootSystem,
    block_vandermonde,
    check_all_orderings,
    check_diamond,
    check_diamonds,
    expand_factorization,
    genericity_check,
    random_generic_roots,
    vandermonde_polynomial,
    viete_coefficients,
)


def scalars(*vals):
    return RootSystem.from_scalars([Fraction(v) for v in vals])


def test_block_vandermonde_k0_is_identity():
    rs = scalars(7)
    assert block_vandermonde(rs, [1]) == DenseMatrix.identity(1)


def test_block_vandermonde_scalar_cases():
    rs = scalars(1, 2)
    assert block_vandermonde(rs, [1, 2]).to_lists() == [[1, 2], [1, 1]]
    rs = scalars(1, 2, 3)
    assert block_vandermonde(rs, [1, 2, 3]).to_lists() == [[1, 4, 9], [1, 2, 3], [1, 1, 1]]


def test_block_vandermonde_matrix_blocks():
    rs = RootSystem.from_entries([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
    w = block_vandermonde(rs, [1, 2])
    assert w.rows == w.cols == 4
    assert w.to_lists()[2:] == [[1, 0, 1, 0], [0, 1, 0, 1]]  # bottom block row of identities


def test_quasideterminant_scalar_values():
    rs = scalars(5, 3)
    assert quasideterminant(rs, {1}, 2).to_lists() == [[-2]]  # x2 - x1 per the Schur formula
    rs = scalars(1, 2, 4)
    assert quasideterminant(rs, {1, 2}, 3).to_lists() == [[6]]  # (4-1)(4-2)


def test_quasideterminant_empty_correction_is_identity():
    rs = scalars(5, 3)
    assert quasideterminant(rs, set(), 1) == DenseMatrix.identity(1)


def test_quasideterminant_is_order_independent():
    rng = random.Random(11)
    rs = random_generic_roots(3, 2, rng)
    for subset, i in [((1, 2), 3), ((1, 3), 2), ((2, 3), 1)]:
        ws = {quasideterminant_ordered(rs, perm, i) for perm in itertools.permutations(subset)}
        assert len(ws) == 1


def test_quasideterminant_reports_genericity_failure():
    rs = scalars(1, 1, 2)  # equal roots: W(1,2) singular
    with pytest.raises(GenericityFailure) as info:
        quasideterminant(rs, {1, 2}, 3)
    assert info.value.subset == (1, 2)


def test_pseudo_root_base_cases():
    rs = scalars(4, 9)
    assert rs.table.pseudo_root(set(), 2).to_lists() == [[9]]
    # commuting scalars: conjugation is trivial
    assert rs.table.pseudo_root({1}, 2).to_lists() == [[9]]


def test_pseudo_root_conjugation_2x2():
    rs = RootSystem.from_entries([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
    x = rs.table.pseudo_root({1}, 2)
    assert x.trace() == rs.root(2).trace() == 0
    w = quasideterminant(rs, {1}, 2)
    assert x * w == w * rs.root(2)  # x w = w x_2, i.e. x = w x_2 w^-1
    assert char_poly(x) == char_poly(rs.root(2))


def test_root_system_needs_a_root_and_builds_one_table():
    with pytest.raises(ValueError, match="^need at least one root$"):
        RootSystem(())
    rs = scalars(1, 2, 3)
    assert rs.table is rs.table
    rs.table.pair({1}, 2)
    assert rs.table.entries()  # the one table keeps what it filled


def test_matrix_polynomials_are_hashable_values():
    assert MatrixPolynomial(()) == MatrixPolynomial(()) and len(MatrixPolynomial(()).coefficients) == 0
    rs = scalars(1, 2, 3)
    poly = viete_coefficients(rs, (1, 2, 3))
    same = expand_factorization(rs, (3, 1, 2))
    assert poly is not same and poly == same and hash(poly) == hash(same)
    assert poly != MatrixPolynomial(poly.coefficients[:2]) and poly != poly.coefficients
    assert len({poly, same, MatrixPolynomial(())}) == 2


def test_root_systems_and_their_reports_refuse_assignment():
    rs = scalars(1, 2, 3)
    values = (rs, viete_coefficients(rs, (1, 2, 3)), genericity_check(rs), check_all_orderings(rs), check_diamonds(rs))
    for obj in values:
        names = [n for n in type(obj).__slots__ if not n.startswith("_")]
        if obj is rs:
            names.append("table")
        for name in names:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            assert getattr(obj, name) is before, (type(obj).__name__, name)


def test_genericity_check_flags_equal_roots():
    rep = genericity_check(scalars(1, 1))
    assert not rep.generic
    assert (1, 2) in rep.singular_vandermondes


def test_genericity_check_scalar_distinct():
    assert genericity_check(scalars(1, 2, 3)).generic


def test_genericity_check_randomized_never_crashes():
    rng = random.Random(12)
    generic = 0
    for _ in range(30):
        rs = RootSystem.from_entries(
            [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)] for _ in range(3)]
        )
        generic += genericity_check(rs).generic
    assert generic >= 1  # failures are reported, not raised


def test_viete_commutative_cases():
    poly = viete_coefficients(scalars(1, 2), (1, 2))
    assert [c.to_lists() for c in poly.coefficients] == [[[-3]], [[2]]]
    poly = viete_coefficients(scalars(5), (1,))
    assert [c.to_lists() for c in poly.coefficients] == [[[-5]]]


def test_expand_factorization_matches_viete_small():
    rs = scalars(1, 2)
    for ordering in [(1, 2), (2, 1)]:
        assert expand_factorization(rs, ordering) == viete_coefficients(rs, ordering)
        assert [c.to_lists() for c in expand_factorization(rs, ordering).coefficients] == [[[-3]], [[2]]]


def test_all_orderings_scalar_cases():
    chk = check_all_orderings(scalars(1, 2, 3))
    assert chk.passed
    assert [c.to_lists() for c in chk.polynomial.coefficients] == [[[-6]], [[11]], [[-6]]]


def test_scalar_multiple_of_identity_degenerates_to_commutative_viete():
    ident = [[1, 0], [0, 1]]
    rs = RootSystem.from_entries([[[c * e for e in row] for row in ident] for c in (1, 2, 3)])
    for a, i in [((), 1), ((1,), 2), ((1, 2), 3), ((3,), 2)]:
        assert rs.table.pseudo_root(a, i) == rs.root(i)
    chk = check_all_orderings(rs)
    assert chk.passed
    e1, e2, e3 = 6, 11, 6
    assert chk.polynomial.coefficient(1) == DenseMatrix.identity(2).scale(-e1)
    assert chk.polynomial.coefficient(2) == DenseMatrix.identity(2).scale(e2)
    assert chk.polynomial.coefficient(3) == DenseMatrix.identity(2).scale(-e3)


def test_check_diamond_scalars_and_base_case():
    rs = scalars(2, 7)
    assert check_diamond(rs, set(), 1, 2)
    rs3 = scalars(2, 7, 11)
    assert check_diamond(rs3, {3}, 1, 2)
    with pytest.raises(ValueError):
        check_diamond(rs3, {1}, 1, 2)


def test_random_generic_matrix_systems():
    rng = random.Random(13)
    for _ in range(5):
        rs = random_generic_roots(3, 2, rng)
        chk = check_all_orderings(rs)
        assert chk.passed
        for ordering in itertools.permutations((1, 2, 3)):
            assert expand_factorization(rs, ordering) == viete_coefficients(rs, ordering)
        for a in ([], [1], [2], [3]):
            rest = [i for i in (1, 2, 3) if i not in a]
            for i, j in itertools.combinations(rest, 2):
                assert check_diamond(rs, a, i, j)


def test_pseudo_roots_preserve_characteristic_polynomial():
    rng = random.Random(14)
    rs = random_generic_roots(3, 2, rng)
    for size in range(3):
        for a in itertools.combinations((1, 2, 3), size):
            for i in (1, 2, 3):
                if i in a:
                    continue
                assert char_poly(rs.table.pseudo_root(a, i)) == char_poly(rs.root(i))


def test_table_entries_satisfy_conjugation_invariant():
    rng = random.Random(15)
    rs = random_generic_roots(2, 2, rng)
    rs.table.pseudo_root((1,), 2)
    rs.table.pseudo_root((2,), 1)
    for (a, i), (w, x) in rs.table.entries().items():
        assert x * w == w * rs.root(i)


def test_genericity_failure_is_loud_in_viete():
    rs = scalars(1, 1)
    with pytest.raises(GenericityFailure):
        viete_coefficients(rs, (1, 2))


def _right_eval(poly, x):
    n = len(poly.coefficients)
    acc = x**n
    for k in range(1, n + 1):
        acc = acc + poly.coefficient(k) * x ** (n - k)
    return acc


def _left_eval(poly, x):
    n = len(poly.coefficients)
    acc = x**n
    for k in range(1, n + 1):
        acc = acc + x ** (n - k) * poly.coefficient(k)
    return acc


def test_four_roots_all_twenty_four_orderings():
    # deeper recursion: |A| = 3 entries take three steps of the diamond recurrence
    rng = random.Random(77)
    rs = random_generic_roots(4, 2, rng, bound=3)
    chk = check_all_orderings(rs)
    assert chk.passed and len(chk.orderings) == 24
    for ordering in itertools.permutations((1, 2, 3, 4)):
        assert expand_factorization(rs, ordering) == viete_coefficients(rs, ordering)
    for (a, i), (_, x) in rs.table.entries().items():
        assert char_poly(x) == char_poly(rs.root(i))


def test_factorization_endpoints_are_actual_roots():
    # P(t) = (t - y_n)...(t - y_1): the ordering's first root divides on
    # the right and the last conjugate divides on the left, so the
    # corresponding one-sided evaluations vanish identically
    rng = random.Random(31)
    rs = random_generic_roots(3, 2, rng)
    for ordering in itertools.permutations((1, 2, 3)):
        poly = viete_coefficients(rs, ordering)
        assert _right_eval(poly, rs.root(ordering[0])).is_zero()
        assert _left_eval(poly, rs.table.pseudo_root(ordering[:-1], ordering[-1])).is_zero()


def test_vandermonde_polynomial_scalar_cases():
    assert [c.to_lists() for c in vandermonde_polynomial(scalars(5)).coefficients] == [[[-5]]]
    assert [c.to_lists() for c in vandermonde_polynomial(scalars(1, 2, 3)).coefficients] == [[[-6]], [[11]], [[-6]]]
    with pytest.raises(GenericityFailure) as info:
        vandermonde_polynomial(scalars(1, 1, 2))
    assert info.value.subset == (1, 2, 3)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_diamond_verdict_equals_every_ordering(n, d):
    # the oracles expand the n! orderings; the Vandermonde side knows no ordering
    rs = random_generic_roots(n, d, random.Random(f"diamonds:{n}:{d}"), bound=3)
    chk = check_diamonds(rs)
    oracle = check_all_orderings(rs)
    assert chk.passed == oracle.passed is True
    assert chk.polynomial == oracle.polynomial
    assert chk.diamonds == math.comb(n, 2) * 2 ** max(n - 2, 0)
    assert chk.failed == chk.mismatched == oracle.mismatched == ()
    assert chk.vandermonde_agrees
    identity = tuple(range(1, n + 1))
    for ordering in (identity, identity[::-1]):
        assert vandermonde_polynomial(rs) == expand_factorization(rs, ordering)


def test_corrupted_table_entry_fails_both_routes():
    rs = random_generic_roots(4, 2, random.Random(41))
    assert genericity_check(rs).generic
    w, x = rs.table.pair({1, 3}, 2)
    rs.table._cache[(frozenset({1, 3}), 2)] = (w, x + DenseMatrix.identity(2))
    chk = check_diamonds(rs)
    oracle = check_all_orderings(rs)
    assert not chk.passed and not oracle.passed
    assert chk.polynomial is None
    assert chk.failed and all({1, 2, 3} <= set(a) | {i, j} for a, i, j in chk.failed)
    assert chk.mismatched == oracle.mismatched != ()
    # the identity ordering never reads the entry, so it still matches the table-free side
    assert chk.vandermonde_agrees
