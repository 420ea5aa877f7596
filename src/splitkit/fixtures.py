"""The named complexes and graphs the demos and tests start from, built in memory."""

from .laygraph import LayeredGraph, SimplicialComplex


def delta2() -> SimplicialComplex:
    """The full triangle (a 2-simplex)."""
    return SimplicialComplex([[1, 2, 3]])


def boundary_delta3() -> SimplicialComplex:
    """Boundary of the tetrahedron: the minimal 2-sphere."""
    return SimplicialComplex([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


def rp2_six() -> SimplicialComplex:
    """The 6-vertex projective plane (antipodal quotient of the icosahedron).

    Every edge lies in exactly two triangles and every vertex link is a
    5-cycle; homology has 2-torsion, so its field Betti numbers differ
    between characteristic 2 and characteristic 0.
    """
    return SimplicialComplex(
        [
            [1, 2, 3],
            [1, 3, 4],
            [1, 4, 5],
            [1, 5, 6],
            [1, 2, 6],
            [2, 3, 5],
            [2, 4, 5],
            [2, 4, 6],
            [3, 4, 6],
            [3, 5, 6],
        ]
    )


def wedge_triangles() -> SimplicialComplex:
    """Two triangles glued at a single vertex: pure but not connected
    through codimension-one faces."""
    return SimplicialComplex([[1, 2, 3], [3, 4, 5]])


def single_edge_graph() -> LayeredGraph:
    """Height-1 graph with one generator: one vertex over the minimum."""
    return LayeredGraph([("∅", 0), ("a", 1)], [("a", "∅")])


def nonuniform_graph() -> LayeredGraph:
    """Hand-built counterexample to uniformity.

    The two children of the top vertex have disjoint lower covers and
    there is no third level-2 vertex to bridge them.
    """
    return LayeredGraph(
        [("∅", 0), ("p", 1), ("q", 1), ("c", 2), ("d", 2), ("T", 3)],
        [("T", "c"), ("T", "d"), ("c", "p"), ("d", "q"), ("p", "∅"), ("q", "∅")],
    )
