#!/usr/bin/env python3
"""The finite-dimensional vertex algebra and the numerical Koszulity test.

Every layered graph also carries a finite-dimensional quadratic algebra
on its positive-level vertices: products along non-edges vanish and
each vertex annihilates the sum of its lower covers.  When the edge
algebra is Koszul, the Hilbert polynomial of the vertex algebra equals
the inverse Hilbert polynomial of the edge algebra at −τ; comparing the
two is a cheap, exact, field-sensitive Koszulity probe.
"""

from splitkit import (
    GF2,
    RATIONALS,
    vertex_algebra_presentation,
    boolean_graph,
    complex_graph,
    graded_dims,
    hat,
    vertex_hilbert,
    numerical_koszul_check,
    quadratic_dual,
)
from splitkit.fixtures import boundary_delta3, delta2, rp2_six, single_edge_graph

print("== The smallest example: one generator x with x^2 = 0")
g = single_edge_graph()
pres = vertex_algebra_presentation(g, RATIONALS)
print("generators:", pres.generators, " relations:", len(pres.relations))
print("graded dims:", list(vertex_hilbert(g, RATIONALS).coeffs))
dual = quadratic_dual(pres)
print("its quadratic dual is free on one generator:", graded_dims(dual, 4))
print()

print("== Subset lattices: dims match the sign-flipped inverse series")
for n in (2, 3):
    g = boolean_graph(n)
    verdict = numerical_koszul_check(g, RATIONALS)
    print(f"n={n}: H_B = {list(verdict.algebra_side.coeffs)}  series side = {list(verdict.series_side.coeffs)}"
          f"  -> numerically Koszul: {verdict.passes}")
print()

print("== Per-vertex transfer vs full tensor quotient (independent routes)")
g = boolean_graph(2)
dims = list(vertex_hilbert(g, GF2).coeffs)  # nothing survives past the height
print("transfer dims:     ", dims + [0] * (5 - len(dims)))
print("tensor-space dims: ", graded_dims(vertex_algebra_presentation(g, GF2), 4))
print()

print("== Face-poset algebras are Koszul over every field")
for name, x in (("triangle", delta2()), ("sphere", boundary_delta3()), ("projective plane", rp2_six())):
    g = complex_graph(x)
    q = numerical_koszul_check(g, RATIONALS).passes
    f2 = numerical_koszul_check(g, GF2).passes
    print(f"{name:18s} over Q: {q}   over GF(2): {f2}")
print()

print("== Adding a top vertex makes Koszulity field-sensitive")
g = hat(complex_graph(rp2_six()))
for field, name in ((RATIONALS, "Q"), (GF2, "GF(2)")):
    verdict = numerical_koszul_check(g, field)
    msg = "numerically Koszul" if verdict.passes else f"diverges at degree {verdict.first_divergence_degree}"
    print(f"hatted projective plane over {name}: {msg}")
    print(f"   algebra side {list(verdict.algebra_side.coeffs)} vs series side {list(verdict.series_side.coeffs)}")
