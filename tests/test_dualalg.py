import itertools
import json
from pathlib import Path

import pytest

from corpus import full_graph_corpus, koszul_corpus
from discrepancy_rules import calibrate, calibration_cases
from path_words import path_word_hilbert
from splitkit.dualalg import (
    QuadraticPresentation,
    _vertex_dims,
    vertex_algebra_presentation,
    discrepancy_lhs_table,
    graded_dims,
    vertex_hilbert,
    vertex_relation_count,
    numerical_koszul_check,
    quadratic_dual,
)
from splitkit.errors import SizeLimit
from splitkit.exactlinalg import GF2, GF3, RATIONALS
from splitkit.fixtures import rp2_six, single_edge_graph
from splitkit.laygraph import (
    LayeredGraph,
    SimplicialComplex,
    boolean_graph,
    complex_graph,
    hat,
    is_uniform,
    subspace_graph,
)
from splitkit.seriespoly import IntPolynomial
from splitkit.topo import discrepancy_rhs_table


def test_presentation_counts_match_path_basis():
    pres = vertex_algebra_presentation(boolean_graph(2), RATIONALS)
    assert pres.generators == ("{1}", "{2}", "{1,2}")
    # 7 non-edge pairs + 1 cover-sum relation, all independent
    assert len(pres.relations) == 8
    # the relation space is what degree 2 of the path basis quotients out
    cases = [(name, g, field) for name, g in koszul_corpus() for field in (RATIONALS, GF2)]
    cases.append(("subspace_4_2", subspace_graph(4, 2), GF2))
    for name, g, field in cases:
        pres = vertex_algebra_presentation(g, field)
        m = pres.num_generators
        assert len(pres.relations) == m * m - vertex_hilbert(g, field)[2], (name, field)
        assert len(pres.relations) == vertex_relation_count(g), (name, field)


def test_presentation_counts_boolean3():
    pres = vertex_algebra_presentation(boolean_graph(3), RATIONALS)
    assert pres.num_generators == 7
    vec_count = sum(1 for v, lv in boolean_graph(3).vertices if lv >= 2)
    assert vec_count == 4  # one sum relation per vertex of level >= 2


def test_single_edge_algebra_is_dual_numbers():
    g = single_edge_graph()
    pres = vertex_algebra_presentation(g, RATIONALS)
    assert pres.generators == ("a",)
    assert pres.relations == (((0, 1),),)  # x (x) x = 0, nothing else
    assert list(vertex_hilbert(g, RATIONALS).coeffs) == [1, 1]


def test_graded_dims_of_vertex_algebras():
    assert list(vertex_hilbert(boolean_graph(2), RATIONALS).coeffs) == [1, 3, 1]
    assert list(vertex_hilbert(boolean_graph(3), RATIONALS).coeffs) == [1, 7, 5, 1]
    assert list(vertex_hilbert(boolean_graph(3), GF2).coeffs) == [1, 7, 5, 1]


def test_height_one_graph_with_m_tops():
    from splitkit.laygraph import LayeredGraph

    g = LayeredGraph(
        [("∅", 0), ("a", 1), ("b", 1), ("c", 1)],
        [("a", "∅"), ("b", "∅"), ("c", "∅")],
    )
    assert list(vertex_hilbert(g, RATIONALS).coeffs) == [1, 3]


def test_path_basis_route_matches_generic_tensor_route():
    # same dimensions through the full tensor quotient, which sees only
    # the presentation and vanishes past the height on its own
    for g, field, maxdeg in [
        (boolean_graph(2), RATIONALS, 4),
        (boolean_graph(2), GF2, 4),
        (single_edge_graph(), RATIONALS, 4),
        (boolean_graph(3), GF2, 3),
    ]:
        generic = graded_dims(vertex_algebra_presentation(g, field), maxdeg)
        path = list(vertex_hilbert(g, field).coeffs)
        assert generic == path + [0] * (maxdeg + 1 - len(path)), (field, maxdeg)


def test_graded_dims_free_and_truncated_closed_forms():
    free = QuadraticPresentation.make(("x", "y"), [], RATIONALS)
    assert graded_dims(free, 4) == [1, 2, 4, 8, 16]
    full = QuadraticPresentation.make(("x", "y"), [{j: 1} for j in range(4)], RATIONALS)
    assert graded_dims(full, 4) == [1, 2, 0, 0, 0]


def test_graded_dims_cap(monkeypatch):
    # free on two generators: degree k builds a 2^k-column ambient with no relation rows
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "10")
    free = QuadraticPresentation.make(("x", "y"), [], RATIONALS)
    assert graded_dims(free, 3) == [1, 2, 4, 8]
    with pytest.raises(SizeLimit):
        graded_dims(free, 4)


def test_path_cap_is_checked_on_both_sides(monkeypatch):
    # boolean_3 has 22 downward paths of positive-level vertices
    g = boolean_graph(3)
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "22")
    assert vertex_hilbert(g, GF2).coeffs == (1, 7, 5, 1)
    assert discrepancy_rhs_table(g, GF2) == [0, 0, 0, 0]
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "21")
    for side in (vertex_hilbert, discrepancy_rhs_table):
        with pytest.raises(SizeLimit, match="22 downward paths exceeds cap 21"):
            side(g, GF2)


def test_quadratic_dual_extremes():
    free = QuadraticPresentation.make(("x", "y"), [], RATIONALS)
    dual = quadratic_dual(free)
    assert len(dual.relations) == 4  # full relation space
    assert graded_dims(dual, 3) == [1, 2, 0, 0]
    redual = quadratic_dual(dual)
    assert redual.relations == free.relations


def test_quadratic_dual_of_square_zero_is_polynomial_ring():
    p = QuadraticPresentation.make(("x",), [{0: 1}], RATIONALS)
    dual = quadratic_dual(p)
    assert dual.relations == ()
    assert graded_dims(dual, 4) == [1, 1, 1, 1, 1]


def test_presentations_are_hashable_values_and_verdicts_refuse_assignment():
    g = boolean_graph(2)
    pres = vertex_algebra_presentation(g, GF2)
    same = QuadraticPresentation(pres.generators, pres.relations, GF2)
    assert pres is not same and pres == same and hash(pres) == hash(same)
    assert pres != vertex_algebra_presentation(g, RATIONALS) and pres != quadratic_dual(pres)
    assert len({pres, same, quadratic_dual(pres)}) == 2
    for obj in (pres, numerical_koszul_check(g, GF2)):
        for name in type(obj).__slots__:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            assert getattr(obj, name) is before, (type(obj).__name__, name)


def test_double_dual_restores_relation_space():
    pres = vertex_algebra_presentation(boolean_graph(2), GF2)
    assert quadratic_dual(quadratic_dual(pres)).relations == pres.relations


def test_dims_degree_one_counts_generators():
    for name, g in koszul_corpus():
        poly = vertex_hilbert(g, GF2)
        positives = sum(1 for _, lv in g.vertices if lv > 0)
        assert poly[1] == positives, name


def test_koszul_check_passes_on_corpus_both_fields():
    for name, g in koszul_corpus():
        for field in (RATIONALS, GF2):
            verdict = numerical_koszul_check(g, field)
            assert verdict.passes, (name, field)


def test_koszul_check_fails_for_hatted_projective_plane_char2_only():
    g = hat(complex_graph(rp2_six()))
    bad = numerical_koszul_check(g, GF2)
    assert not bad.passes
    assert bad.first_divergence_degree == 4  # frozen regression value
    assert list(bad.algebra_side.coeffs) == [1, 32, 44, 16, 1]
    assert list(bad.series_side.coeffs) == [1, 32, 44, 16]
    for field in (RATIONALS, GF3):
        assert numerical_koszul_check(g, field).passes


def test_discrepancy_lhs_zero_whenever_koszul():
    for name, g in koszul_corpus():
        assert discrepancy_lhs_table(g, GF2) == [0] * (g.height + 1), name


def test_discrepancy_lhs_degree_values():
    g = hat(complex_graph(rp2_six()))
    assert discrepancy_lhs_table(g, GF2) == [0, 0, 0, 0, 1]
    assert discrepancy_lhs_table(g, RATIONALS) == [0, 0, 0, 0, 0]


def test_discrepancy_cross_module_oracle():
    g = hat(complex_graph(rp2_six()))
    for field in (GF2, RATIONALS):
        assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field)


def test_calibration_uniquely_selects_shipped_convention():
    selected, tables = calibrate(calibration_cases())
    assert len(tables) == 26
    assert selected == ("calibrated",)
    # the tables docs/discrepancy_calibration.md prints: lhs, calibrated, reduced-proper, reduced-min, unreduced-min
    assert list(tables["boolean_3/Q"].values()) == [[0, 0, 0, 0]] * 2 + [[0, 0, 5, 1], [0, 0, 0, 0], [8, 7, 4, 1]]
    rp2 = [[0, 0, 0, 0, 1]] * 2 + [[0, 0, 44, 16, 2], [0, 0, 0, 0, 0], [33, 32, 26, 11, 1]]
    assert list(tables["hat_rp2_six/GF2"].values()) == rp2
    assert tables["subspace_3_2/GF2"]["reduced-proper"] == [0, 0, 20, 8]


def test_discrepancy_identity_holds_off_corpus():
    # the two sides agree on any valid layered graph, Koszul or not,
    # uniform or not; these two have genuinely nonzero tables
    from splitkit.fixtures import nonuniform_graph
    from splitkit.laygraph import LayeredGraph

    bad = nonuniform_graph()
    hat_two_edges = LayeredGraph(
        [("∅", 0), ("1", 1), ("2", 1), ("3", 1), ("4", 1), ("a", 2), ("b", 2), ("M", 3)],
        [("1", "∅"), ("2", "∅"), ("3", "∅"), ("4", "∅"),
         ("a", "1"), ("a", "2"), ("b", "3"), ("b", "4"), ("M", "a"), ("M", "b")],
    )
    for g in (bad, hat_two_edges):
        for field in (RATIONALS, GF2):
            lhs = discrepancy_lhs_table(g, field)
            assert lhs == discrepancy_rhs_table(g, field)
            assert lhs == [0, 0, 0, 1]  # field-independent here
    # independent route agrees on the non-uniform graph too
    assert graded_dims(vertex_algebra_presentation(bad, RATIONALS), 3) == [1, 5, 1, 0]
    assert vertex_hilbert(bad, RATIONALS) == IntPolynomial([1, 5, 1])


def test_negative_discrepancy_sides_agree_on_uniform_and_non_uniform_graphs():
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    g = LayeredGraph.from_json_dict(json.loads((fixtures / "negative_discrepancy.json").read_text(encoding="utf-8")))
    assert not is_uniform(g)
    for field in (RATIONALS, GF2, GF3):
        assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field) == [0, 0, 0, 2, -2]
    # a pure 3-complex with bt = (0, 1, 0, 0): the hat vertex's term bt_0 - bt_1 + bt_2 is -1
    x = SimplicialComplex.from_json_dict(
        json.loads((fixtures / "uniform_negative_discrepancy.json").read_text(encoding="utf-8"))
    )
    h = hat(complex_graph(x))
    assert is_uniform(h)
    for field in (RATIONALS, GF2, GF3):
        assert discrepancy_lhs_table(h, field) == discrepancy_rhs_table(h, field) == [0, 0, 0, 0, 0, -1]


def test_vertex_algebra_field_must_be_explicit():
    with pytest.raises(TypeError):
        vertex_hilbert(boolean_graph(2))  # no default field


def test_vertex_dims_equal_top_down_set_homology():
    # third, fully independent route, vertex by vertex: h_v(k), the
    # degree-k dimension of the block of paths from v, is the top reduced
    # Betti number b~_(k-2) of the order complex of the k-1 levels
    # strictly below v; vertex_hilbert sums these blocks
    from chains import order_complex
    from splitkit.topo import betti

    for name, g in full_graph_corpus():
        desc = g.descendants()
        for field in (RATIONALS, GF2):
            blocks = _vertex_dims(g, field)
            dims = [1] + [0] * g.height
            for h in blocks.values():
                dims = [a + b for a, b in itertools.zip_longest(dims, h, fillvalue=0)]
            assert IntPolynomial(dims) == vertex_hilbert(g, field), (name, field)
            for v, lv in g.vertices:
                if lv == 0:
                    continue
                assert blocks[v][:2] == [0, 1] and len(blocks[v]) == lv + 1, (name, v)
                for k in range(2, lv + 1):
                    kept = {w for w in desc[v] if g.level(w) > lv - k}
                    oc = order_complex(g, exclude={w for w, _ in g.vertices if w not in kept})
                    assert blocks[v][k] == betti(oc, field)[k - 2], (name, field, v, k)


def test_transfer_equals_path_words_on_large_lattices():
    # the path-word oracle ranks every path of every degree at once
    for g, fields in ((boolean_graph(6), (RATIONALS, GF2)), (subspace_graph(4, 3), (RATIONALS, GF3))):
        for field in fields:
            assert vertex_hilbert(g, field) == path_word_hilbert(g, field), (g, field)
    # the top of subspace(4, 3) quotients 1080 columns, its 40 children's
    # degree-3 blocks, by 390 rows, 3 for each of the 130 planes; the
    # rank is 351 over Q and over GF(3) alike
    g = subspace_graph(4, 3)
    top = g.level_vertices(4)[0]
    for field in (RATIONALS, GF3):
        blocks = _vertex_dims(g, field)
        assert sum(blocks[w][3] for w in g.children(top)) == 1080
        assert sum(blocks[u][2] for u in g.level_vertices(2)) == 390
        assert blocks[top][4] == 1080 - 351


def test_subspace_lattices_are_numerically_koszul():
    from splitkit.laygraph import subspace_graph

    for n, q in [(2, 2), (3, 2), (2, 3)]:
        g = subspace_graph(n, q)
        for field in (RATIONALS, GF2, GF3):
            assert numerical_koszul_check(g, field).passes, (n, q, field)
            assert discrepancy_lhs_table(g, field) == discrepancy_rhs_table(g, field)


def test_zero_dimensional_complex_algebra():
    from splitkit.laygraph import SimplicialComplex, complex_graph

    g = complex_graph(SimplicialComplex([[1], [2], [3]]))
    assert list(vertex_hilbert(g, GF2).coeffs) == [1, 3]
    assert numerical_koszul_check(g, RATIONALS).passes
