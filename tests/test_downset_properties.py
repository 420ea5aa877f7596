"""Seeded property tests for the down-set complexes on random layered graphs.

The discrepancy's topological side builds each Delta(v, k) from the
graph's edges as downward paths.  The oracles here take the other
routes: `order_complex` recovers covers from the descendant sets and
takes maximal chains, the algebra side of the discrepancy comes from
ranks on path words and the Möbius polynomial, and the chain-counting
Möbius value runs opposite to the recursion.  The facet tests check
the maximality filter of `SimplicialComplex` against the plain
quadratic rule.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from splitkit.dualalg import discrepancy_lhs_table
from splitkit.exactlinalg import GF2, GF3, RATIONALS
from splitkit.laygraph import LayeredGraph, SimplicialComplex
from splitkit.mobius import mobius_value, mobius_value_chain
from splitkit.topo import _down_paths, discrepancy_rhs_table, order_complex

FIELDS = (RATIONALS, GF2, GF3)
SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def layered_graphs(draw):
    """Valid layered graphs: height 2-5, 1-4 vertices per level, non-empty child sets."""
    height = draw(st.integers(2, 5))
    levels = [["m"]] + [[f"v{i}_{j}" for j in range(draw(st.integers(1, 4)))] for i in range(1, height + 1)]
    vertices = [(v, i) for i, level in enumerate(levels) for v in level]
    edges = []
    for i in range(1, height + 1):
        for v in levels[i]:
            children = draw(st.sets(st.sampled_from(levels[i - 1]), min_size=1))
            edges += [(v, w) for w in sorted(children)]
    return LayeredGraph(vertices, edges)


@SETTINGS
@seed(20090931)
@given(layered_graphs())
def test_down_paths_are_the_order_complex_of_the_truncated_down_set(g):
    rank = {v: i for i, v in enumerate(g.ids())}
    desc = g.descendants()
    for v, lv in g.vertices:
        for k in range(2, lv + 1):
            kept = {w for w in desc[v] if g.level(w) > lv - k}  # T(v, k)
            exclude = {w for w in g.ids() if w not in kept}
            elems = [w for w in g.ids() if w not in exclude]  # order_complex's labels
            oracle = order_complex(g, exclude=exclude)
            relabelled = SimplicialComplex([[rank[elems[i]] for i in f] for f in oracle.facets])
            assert SimplicialComplex(_down_paths(g, rank, v, k)).facets == relabelled.facets, (v, k)


@SETTINGS
@seed(20090932)
@given(layered_graphs())
def test_discrepancy_sides_agree_and_cone_conventions_are_closed_forms(g):
    for field in FIELDS:
        assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field, "calibrated"), field
    # a cone is acyclic: its reduced Betti numbers vanish and only b_0 = 1 survives
    at_least = [sum(1 for _, lv in g.vertices if lv >= k) for k in range(g.height + 1)]
    assert discrepancy_rhs_table(g, GF2, "reduced-min") == [0] * (g.height + 1)
    assert discrepancy_rhs_table(g, GF2, "unreduced-min") == at_least


@SETTINGS
@seed(20090933)
@given(layered_graphs())
def test_mobius_recursion_equals_chain_count(g):
    desc = g.descendants()
    for v, _ in g.vertices:
        for w in desc[v]:
            assert mobius_value(g, v, w) == mobius_value_chain(g, v, w), (v, w)


@settings(max_examples=150, deadline=None, database=None)
@seed(20090934)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5), max_size=10))
def test_facets_equal_the_quadratic_maximality_rule(facets):
    # mixed sizes, nested facets and duplicates: keep what no other facet strictly contains
    sets = [frozenset(f) for f in facets]
    expected = {tuple(sorted(f)) for f in sets if not any(f < g for g in sets)}
    assert SimplicialComplex(facets).facets == tuple(sorted(expected))
