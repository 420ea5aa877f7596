"""The test corpus: the fixture complexes, the graphs built from them,
and a strategy that draws random valid layered graphs.

The tests run their identities over these lists; no CLI path or demo
reads them, so they live with the tests.
"""

from hypothesis import strategies as st

from splitkit.fixtures import boundary_delta3, delta2, rp2_six
from splitkit.laygraph import LayeredGraph, SimplicialComplex, boolean_graph, complex_graph, hat


def triangle_plus_edge() -> SimplicialComplex:
    """A triangle with a dangling edge: not pure."""
    return SimplicialComplex([[1, 2, 3], [3, 4]])


def complexes() -> list:
    return [
        ("delta2", delta2()),
        ("boundary_delta3", boundary_delta3()),
        ("rp2_six", rp2_six()),
    ]


def koszul_corpus() -> list:
    """(name, graph) pairs whose algebras are numerically Koszul over any field."""
    corpus = [(f"boolean_{n}", boolean_graph(n)) for n in range(1, 5)]
    corpus += [(f"faces_{name}", complex_graph(x)) for name, x in complexes()]
    corpus += [
        ("hat_delta2", hat(complex_graph(delta2()))),
        ("hat_boundary_delta3", hat(complex_graph(boundary_delta3()))),
    ]
    return corpus


def full_graph_corpus() -> list:
    """Koszul corpus plus the hatted projective plane (non-Koszul in char 2)."""
    return koszul_corpus() + [("hat_rp2_six", hat(complex_graph(rp2_six())))]


@st.composite
def layered_graphs(draw, heights=(2, 5), widths=(1, 4)):
    """Valid layered graphs: height 2-5, 1-4 vertices per level, non-empty child sets."""
    height = draw(st.integers(*heights))
    levels = [["m"]] + [[f"v{i}_{j}" for j in range(draw(st.integers(*widths)))] for i in range(1, height + 1)]
    vertices = [(v, i) for i, level in enumerate(levels) for v in level]
    edges = []
    for i in range(1, height + 1):
        for v in levels[i]:
            children = draw(st.sets(st.sampled_from(levels[i - 1]), min_size=1))
            edges += [(v, w) for w in sorted(children)]
    return LayeredGraph(vertices, edges)
