#!/usr/bin/env python3
"""All n! factorizations of a polynomial with matrix roots.

A monic polynomial over a noncommutative ring has many factorizations
into linear factors.  Starting from n generic rational matrices, every
ordering of them produces one factorization whose linear factors are
conjugates of the roots by Schur-complement quasideterminants of block
Vandermonde matrices, and all orderings yield the same coefficients.
The pseudo-root table reaches the same conjugates by the diamond
recurrence, one small inverse per step; the quasideterminants and block
Vandermondes shown here are the definition it is tested against.
"""

import itertools
import random

from splitkit import (
    RootSystem,
    block_vandermonde,
    char_poly,
    check_all_orderings,
    check_diamond,
    expand_factorization,
    genericity_check,
    random_generic_roots,
    viete_coefficients,
)


def show(matrix):
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in matrix.entries) + "]"


print("== Commutative warm-up: scalar roots 1, 2, 3")
rs = RootSystem.from_scalars([1, 2, 3])
chk = check_all_orderings(rs)
coeffs = [c.entries[0][0] for c in chk.polynomial.coefficients]
print(f"all {len(chk.orderings)} orderings agree: {chk.passed}")
print(f"P(t) = t^3 + ({coeffs[0]})t^2 + ({coeffs[1]})t + ({coeffs[2]})   <- classical Viete\n")

print("== Matrix roots: x1 = [[0,1],[1,0]], x2 = [[1,0],[0,-1]]")
rs = RootSystem.from_entries([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
print("genericity:", "generic" if genericity_check(rs).generic else "degenerate")
w, x12 = rs.table.pair({1}, 2)
print("w({1},2) =", show(w), " (the quasideterminant: here x2 - x1)")
print("conjugate root x_{1},2 =", show(x12))
print("same characteristic polynomial as x2:", char_poly(x12) == char_poly(rs.root(2)))
for ordering in [(1, 2), (2, 1)]:
    poly = viete_coefficients(rs, ordering)
    print(f"ordering {ordering}: a1 = {show(poly.coefficient(1))}, a2 = {show(poly.coefficient(2))}")
print()

print("== Block Vandermonde behind the scenes (scalars 1, 2, 3)")
print(show(block_vandermonde(RootSystem.from_scalars([1, 2, 3]), [1, 2, 3])))
print()

print("== Random generic 2x2 systems, n = 3: the full consistency battery")
rng = random.Random(42)
rs = random_generic_roots(3, 2, rng)
print("roots:")
for i in (1, 2, 3):
    print("  ", show(rs.root(i)))
chk = check_all_orderings(rs)
print(f"n! = {len(chk.orderings)} factorizations coefficient-identical: {chk.passed}")
same = all(
    expand_factorization(rs, o) == viete_coefficients(rs, o)
    for o in itertools.permutations((1, 2, 3))
)
print("expanding the product reproduces the symmetric-function sums:", same)
diamonds = all(
    check_diamond(rs, a, i, j)
    for a in ((), (1,), (2,), (3,))
    for i, j in itertools.combinations([x for x in (1, 2, 3) if x not in a], 2)
)
print("every local exchange identity (diamond) holds exactly:", diamonds)
print("common polynomial coefficients:")
for k in (1, 2, 3):
    print(f"  a{k} =", show(chk.polynomial.coefficient(k)))
