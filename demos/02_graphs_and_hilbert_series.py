#!/usr/bin/env python3
"""Layered graphs, graded Möbius polynomials, and Hilbert series.

Each layered graph with a unique minimum carries an edge algebra whose
Hilbert series is controlled by the graded Möbius polynomial of the
graph's poset:  H(τ) = (1 − τ) / (1 − τ·M(Γ,τ)).  Its inverse
(1 − τ·M) / (1 − τ) is an exact polynomial with constant term 1, so
`hilbert_series` returns the series as that polynomial's power-series
reciprocal, a tuple of D + 1 ints, together with the polynomial.  For the
subset lattice the series has the closed form (1 − τ) / (1 − τ(2 − τ)^n),
which doubles as an independent oracle.
"""

from splitkit import (
    boolean_graph,
    graded_mobius,
    hilbert_series,
    is_uniform,
    mobius_value,
    subset_lattice_series,
    subspace_graph,
    validate,
)
from splitkit.fixtures import nonuniform_graph

print("== Subset lattices")
for n in range(1, 5):
    g = boolean_graph(n)
    m = graded_mobius(g)
    series, inverse = hilbert_series(g, 6)
    oracle = subset_lattice_series(n, 6)
    print(f"n={n}: M = {list(m)} = (2-τ)^{n}")
    print(f"     H to degree 6: {list(series)}  closed form agrees: {series == oracle}")
    print(f"     H^-1 = {list(inverse)} (degree = height = {g.height})")
print()

print("== Möbius values on the diamond (n = 2)")
g = boolean_graph(2)
for w in ("{1,2}", "{1}", "∅"):
    print(f"  mu({{1,2}}, {w}) = {mobius_value(g, '{1,2}', w)}")
print()

print("== Subspace lattice of GF(2)^3 (the q-analogue)")
g = subspace_graph(3, 2)
print("level sizes:", [len(g.level_vertices(i)) for i in range(4)], "(Gaussian binomials 1,7,7,1)")
print("valid:", validate(g).ok, " uniform:", is_uniform(g))
series, inverse = hilbert_series(g, 6)
print("M =", list(graded_mobius(g)))
print("H to degree 6:", list(series))
print("H^-1 =", list(inverse))
print()

print("== Uniformity: when the edge algebra is quadratic")
print("subset lattices and face posets are uniform; here is a non-uniform graph:")
bad = nonuniform_graph()
print("vertices:", [v for v, _ in bad.vertices])
print("is_uniform:", is_uniform(bad), "(the top's two children share no lower cover)")
