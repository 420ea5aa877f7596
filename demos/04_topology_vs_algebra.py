#!/usr/bin/env python3
"""Topology decides Koszulity, and the discrepancy is a sum of Betti numbers.

For a pure complex connected through codimension-one faces, Koszulity of
the hatted face-poset algebras over F is equivalent to two homological
conditions on the complex itself: reduced homology vanishes below the
top dimension, and local homology vanishes below the top dimension at
every point.  When the check fails, the degreewise gap between the two
Hilbert polynomials is itself topological: a signed sum of reduced Betti
numbers of truncated down-set order complexes.  docs/discrepancy_calibration.md
derives that rule, and tests/discrepancy_rules.py calibrates it against
the three rules it replaced.
"""

from splitkit import (
    GF2,
    RATIONALS,
    betti,
    complex_graph,
    discrepancy_lhs_table,
    discrepancy_rhs_table,
    hat,
    link,
    local_homology_vanishes,
    predict_koszulity,
)
from splitkit.exactlinalg import FieldSpec
from splitkit.fixtures import boundary_delta3, rp2_six, wedge_triangles

print("== Betti numbers over different fields")
rp2 = rp2_six()
print("projective plane, reduced: over GF(2):", betti(rp2, GF2), "  over Q:", betti(rp2, RATIONALS))
sphere = boundary_delta3()
print("2-sphere, reduced:         over GF(2):", betti(sphere, GF2), " over Q:", betti(sphere, RATIONALS))
print()

print("== Local homology via links")
print("link of a vertex of the sphere:", link(sphere, (1,)).facets, "(a circle)")
print("local homology vanishes on the sphere:", local_homology_vanishes(sphere, RATIONALS))
wedge = wedge_triangles()
print("two triangles sharing a vertex:", local_homology_vanishes(wedge, RATIONALS), "(fails at the wedge point)")
print()

print("== The homological Koszulity prediction")
for field in (RATIONALS, GF2, FieldSpec(3)):
    verdict = predict_koszulity(rp2, field)
    print(f"projective plane over {field}: predicted Koszul = {verdict.passes}"
          f" (low homology {verdict.low_homology_vanishes}, local {verdict.local_homology_ok})")
print()

print("== The discrepancy table: algebra side vs topology side")
g = hat(complex_graph(rp2))
for field, name in ((RATIONALS, "Q"), (GF2, "GF(2)")):
    lhs = discrepancy_lhs_table(g, field)
    rhs = discrepancy_rhs_table(g, field)
    print(f"hatted projective plane over {name}: algebra {lhs}  topology {rhs}  agree: {lhs == rhs}")
print("the +1 at degree 4 over GF(2) is b~_1 of the barycentric RP^2 under the top vertex")
