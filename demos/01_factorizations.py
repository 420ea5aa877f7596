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

The agreement of all n! orderings is decided by the diamonds: one
exchange identity per adjacent swap of two factors, C(n,2) . 2^(n-2) of
them, next to one block Vandermonde solve for the polynomial.  The
expansion of every ordering stays as the oracle.
"""

import itertools
import math
import random

from splitkit import (
    RootSystem,
    block_vandermonde,
    char_poly,
    check_all_orderings,
    check_diamonds,
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
oracle = check_all_orderings(rs)
print(f"oracle: all n! = {len(oracle.orderings)} factorizations coefficient-identical: {oracle.passed}")
same = all(
    expand_factorization(rs, o) == viete_coefficients(rs, o)
    for o in itertools.permutations((1, 2, 3))
)
print("expanding the product reproduces the symmetric-function sums:", same)
chk = check_diamonds(rs)
print(f"diamonds: {chk.diamonds} local exchange identities, failed: {list(chk.failed)}; verdict: {chk.passed}")
print("one block Vandermonde solve (no pseudo-roots) gives the same polynomial:", chk.vandermonde_agrees)
same = (chk.passed, chk.polynomial) == (oracle.passed, oracle.polynomial)
print("diamond verdict and polynomial equal the oracle's:", same)
print("common polynomial coefficients:")
for k in (1, 2, 3):
    print(f"  a{k} =", show(chk.polynomial.coefficient(k)))
print()

print("== Why diamonds: adjacent swaps generate all orderings")
for n in (3, 4, 5, 6):
    chk = check_diamonds(random_generic_roots(n, 1, rng))
    print(f"n = {n}: {math.factorial(n):>3} orderings, {chk.diamonds:>3} diamonds, verdict {chk.passed}")
