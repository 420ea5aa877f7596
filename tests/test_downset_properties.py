"""Seeded property tests for the down-set complexes and the vertex
algebra's graded dimensions, on random layered graphs and on the face
posets of random complexes.

The discrepancy's topological side builds one complex per vertex v,
Delta(v, level v), from the graph's edges as downward paths, and reads
every Delta(v, k) as a stage of its filtration by depth.  The oracles
here take the other routes: `order_complex` recovers covers from the
descendant sets and takes maximal chains, `per_pair_table` builds and
ranks each Delta(v, k) alone, the algebra side of the discrepancy comes
from per-vertex quotients and the Möbius polynomial, and the
chain-counting Möbius value runs opposite to the recursion, and the
cone rules of `discrepancy_rules`, eliminated as the cones they stand
for, reduce to closed forms.  The per-vertex quotients, built from the
children's and listing no path, are checked against the ranks on path
words of the test-only `path_words` module, and against the full tensor
quotient of the presentation.  The facet tests check the maximality
filter of `SimplicialComplex` against the plain quadratic rule.  A
seeded search over sets of tetrahedra on seven vertices reaches uniform
graphs whose discrepancy has a negative entry.
"""

import itertools
import json
import random
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chains import mobius_value_chain, order_complex
from corpus import layered_graphs
from discrepancy_rules import RULES, per_pair_table, plain_sum_table
from path_words import path_word_hilbert
from splitkit.dualalg import (
    discrepancy_lhs_table,
    graded_dims,
    vertex_algebra_presentation,
    vertex_hilbert,
    vertex_relation_count,
)
from splitkit.exactlinalg import GF2, GF3, RATIONALS, FieldSpec
from splitkit.laygraph import (
    LayeredGraph,
    SimplicialComplex,
    boolean_graph,
    complex_graph,
    hat,
    is_codim1_connected,
    is_pure,
    is_uniform,
    subspace_graph,
)
from splitkit.mobius import graded_mobius, mobius_value
from splitkit.seriespoly import IntPolynomial
from splitkit.topo import (
    _down_paths,
    betti,
    discrepancy_rhs_table,
    euler_characteristic,
)

FIELDS = (RATIONALS, GF2, GF3)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GF5 = FieldSpec(5)
SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def codim1_connected_complexes(draw):
    """Pure complexes of dimension 1-3 on 5-8 vertices: random facets, cut
    down to those joined to the first one through codimension-one faces.
    Dimension 3 draws two to five facets."""
    n = draw(st.integers(5, 8))
    dim = draw(st.sampled_from((1, 2, 3)))
    simplices = list(itertools.combinations(range(n), dim + 1))
    sizes = (4, 7) if dim < 3 else (2, 5)
    drawn = draw(st.lists(st.sampled_from(simplices), min_size=sizes[0], max_size=sizes[1], unique=True))
    facets = drawn[:1]
    for facet in facets:  # grows while it is walked
        facets += [f for f in drawn if f not in facets and len(set(f) & set(facet)) == dim]
    return SimplicialComplex(facets)


@SETTINGS
@seed(20090931)
@given(layered_graphs())
def test_down_paths_are_the_order_complex_of_the_truncated_down_set(g):
    rank = {v: i for i, (v, _) in enumerate(g.vertices)}
    desc = g.descendants()
    for v, lv in g.vertices:
        for k in range(2, lv + 1):
            kept = {w for w in desc[v] if g.level(w) > lv - k}  # T(v, k)
            exclude = {w for w, _ in g.vertices if w not in kept}
            elems = [w for w, _ in g.vertices if w not in exclude]  # order_complex's labels
            oracle = order_complex(g, exclude=exclude)
            relabelled = SimplicialComplex([[rank[elems[i]] for i in f] for f in oracle.facets])
            assert SimplicialComplex(_down_paths(g, rank, v, k)).facets == relabelled.facets, (v, k)


@SETTINGS
@seed(20090932)
@given(layered_graphs())
def test_discrepancy_sides_agree_and_cone_conventions_are_closed_forms(g):
    for field in FIELDS:
        assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field), field
    # a cone is acyclic: its reduced Betti numbers vanish and only b_0 = 1 survives
    at_least = [sum(1 for _, lv in g.vertices if lv >= k) for k in range(g.height + 1)]
    for field in (RATIONALS, GF2):
        assert plain_sum_table(g, field, cone=True) == [0] * (g.height + 1), field
        assert plain_sum_table(g, field, cone=True, reduced=False) == at_least, field


@settings(max_examples=100, deadline=None, database=None)
@seed(20090939)
@given(layered_graphs(heights=(3, 6)))
def test_filtered_table_equals_the_per_pair_oracle(g):
    # the oracle builds and ranks each Delta(v, k) alone; the shipped table
    # reads every k of one v off the prefix ranks of Delta(v, level v)
    for field in FIELDS:
        assert discrepancy_rhs_table(g, field) == per_pair_table(g, field), field


def test_filtered_table_equals_the_per_pair_oracle_on_fixtures_lattices_and_tetrahedra():
    rng = random.Random(20090940)
    tetrahedra = list(itertools.combinations(range(7), 4))
    graphs = [boolean_graph(6), subspace_graph(4, 2)]
    graphs += [hat(complex_graph(SimplicialComplex(rng.sample(tetrahedra, rng.randint(3, 6))))) for _ in range(30)]
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "facets" in data:
            g = complex_graph(SimplicialComplex.from_json_dict(data))
        elif "vertices" in data:
            g = LayeredGraph.from_json_dict(data)
        else:
            continue  # matrix roots
        graphs += [g, hat(g)]
    nonzero = 0
    for g in graphs:
        for field in FIELDS:
            table = discrepancy_rhs_table(g, field)
            assert table == per_pair_table(g, field), field
            nonzero += any(table)
    assert nonzero >= 10  # the comparison reaches tables that are not all zero


@SETTINGS
@seed(20090933)
@given(layered_graphs())
def test_mobius_recursion_equals_chain_count(g):
    desc = g.descendants()
    coeffs = [0] * (g.height + 1)
    for v, lv in g.vertices:
        coeffs[0] += 1
        for w in desc[v]:
            mu = mobius_value_chain(g, v, w)
            assert mobius_value(g, v, w) == mu, (v, w)
            coeffs[lv - g.level(w)] += mu
    assert graded_mobius(g) == IntPolynomial(coeffs)


@settings(max_examples=150, deadline=None, database=None)
@seed(20090934)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5), max_size=10))
def test_facets_equal_the_quadratic_maximality_rule(facets):
    # mixed sizes, nested facets and duplicates: keep what no other facet strictly contains
    sets = [frozenset(f) for f in facets]
    expected = {tuple(sorted(f)) for f in sets if not any(f < g for g in sets)}
    assert SimplicialComplex(facets).facets == tuple(sorted(expected))


@settings(max_examples=20, deadline=None, database=None)
@seed(20090935)
@given(layered_graphs(heights=(2, 3), widths=(1, 3)).filter(lambda g: len(g.vertices) <= 6))
def test_path_words_equal_the_full_tensor_quotient(g):
    # the full tensor quotient knows nothing of paths, and also confirms
    # that nothing survives one degree past the height; at most five
    # generators keep its m^(height+1) columns small
    for field in FIELDS:
        dims = list(vertex_hilbert(g, field).coeffs)
        dims += [0] * (g.height + 2 - len(dims))
        pres = vertex_algebra_presentation(g, field)
        assert dims == graded_dims(pres, g.height + 1), field
        assert len(pres.relations) == vertex_relation_count(g), field


@settings(max_examples=150, deadline=None, database=None)
@seed(20090938)
@given(layered_graphs(heights=(1, 6), widths=(1, 5)))
def test_transfer_equals_the_path_words(g):
    # the path words rank every degree from scratch and know nothing of
    # per-vertex quotients or their column classes
    for field in FIELDS + (GF5,):
        assert vertex_hilbert(g, field) == path_word_hilbert(g, field), field


@settings(max_examples=100, deadline=None, database=None)
@seed(20090936)
@given(codim1_connected_complexes(), st.booleans())
def test_discrepancy_sides_agree_on_face_posets_and_plain_sums_miss(x, hatted):
    assert is_pure(x) and is_codim1_connected(x)
    g = hat(complex_graph(x)) if hatted else complex_graph(x)
    for field in FIELDS:
        table = discrepancy_lhs_table(g, field)
        assert table == discrepancy_rhs_table(g, field), field
        b = betti(x, field)
        assert euler_characteristic(x) - 1 == sum((-1) ** i * v for i, v in enumerate(b)), field
        if any(table):
            for rule in RULES.keys() - {"calibrated"}:
                assert RULES[rule](g, field) != table, (field, rule)


def test_random_tetrahedra_reach_uniform_graphs_with_negative_tables():
    # a seeded search, not a fixture, reaches hatted face posets that are
    # uniform and still have a negative algebra-side entry
    rng = random.Random(20090937)
    tetrahedra = list(itertools.combinations(range(7), 4))
    hits = []
    for _ in range(2000):
        g = hat(complex_graph(SimplicialComplex(rng.sample(tetrahedra, rng.randint(4, 6)))))
        if is_uniform(g) and min(discrepancy_lhs_table(g, RATIONALS)) < 0:
            hits.append(g)
            if len(hits) == 2:
                break
    assert len(hits) == 2
    for g in hits:
        for field in FIELDS:
            assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field), field
