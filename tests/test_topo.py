import itertools
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chains import order_complex
from corpus import triangle_plus_edge
from splitkit.cli import main
from splitkit.errors import FaceNotInComplex, HypothesisViolation
from splitkit.exactlinalg import GF2, GF3, RATIONALS, DenseMatrix
from splitkit.fixtures import boundary_delta3, delta2, rp2_six, wedge_triangles
from splitkit.laygraph import LayeredGraph, SimplicialComplex, boolean_graph, complex_graph, hat
from splitkit.topo import (
    betti,
    boundary_columns,
    discrepancy_rhs_table,
    euler_characteristic,
    link,
    local_homology_vanishes,
    predict_koszulity,
)


def test_betti_of_cone_is_trivial():
    assert betti(delta2(), RATIONALS) == (0, 0, 0)
    assert betti(delta2(), GF2) == (0, 0, 0)


def test_betti_of_sphere():
    assert betti(boundary_delta3(), RATIONALS) == (0, 0, 1)
    assert betti(boundary_delta3(), GF2) == (0, 0, 1)


def test_betti_of_projective_plane_depends_on_characteristic():
    assert betti(rp2_six(), GF2) == (0, 1, 1)
    assert betti(rp2_six(), RATIONALS) == (0, 0, 0)
    assert betti(rp2_six(), GF3) == (0, 0, 0)


def test_unreduced_betti_counts_components(capsys, tmp_path):
    two_points = tmp_path / "two_points.json"
    two_points.write_text(json.dumps({"facets": [[1], [2]]}), encoding="utf-8")
    main(["topology", "--complex", str(two_points), "--field", "q"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["betti_unreduced"] == [2]
    assert rep["betti_reduced"] == [1]


def test_boundary_composite_vanishes():
    # densified here and multiplied densely, independent of the sparse check in boundary_columns:
    # exactly over the integers, where a zero product is zero over every field, then as rational matrices
    for x in (delta2(), boundary_delta3(), rp2_six(), wedge_triangles()):
        maps = boundary_columns(x)
        heights = [1] + [len(cols) for cols in maps]
        ints = [[[col.get(r, 0) for col in cols] for r in range(heights[k])] for k, cols in enumerate(maps)]
        for k in range(1, len(ints)):
            product = [[sum(a * b for a, b in zip(row, column)) for column in zip(*ints[k])] for row in ints[k - 1]]
            assert not any(any(row) for row in product), k
        mats = [DenseMatrix(rows) for rows in ints]
        assert [m.cols for m in mats] == x.f_vector()
        for k in range(1, len(mats)):
            assert (mats[k - 1] * mats[k]).is_zero()


def test_euler_characteristic_identity_on_corpus():
    for x in (delta2(), boundary_delta3(), rp2_six(), wedge_triangles(), triangle_plus_edge()):
        for field in (RATIONALS, GF2):
            b = betti(x, field)
            assert euler_characteristic(x) - 1 == sum((-1) ** i * v for i, v in enumerate(b))


def test_betti_invariant_under_relabeling():
    x = rp2_six()
    relabeled = SimplicialComplex([[v * 10 for v in f] for f in reversed(x.facets)])
    assert betti(x, GF2) == betti(relabeled, GF2)


def test_rational_betti_bounds_prime_field_betti():
    # universal-coefficients direction: passing to GF(p) can only add ranks
    for x in (delta2(), boundary_delta3(), rp2_six(), wedge_triangles(), triangle_plus_edge()):
        over_q = betti(x, RATIONALS)
        for field in (GF2, GF3):
            over_p = betti(x, field)
            assert all(over_q[i] <= over_p[i] for i in range(x.dim + 1))


def test_order_complex_shapes():
    chain = LayeredGraph([("a", 0), ("b", 1)], [("b", "a")])
    assert order_complex(chain).facets == ((0, 1),)
    antichain = LayeredGraph([("m", 0), ("a", 1), ("b", 1), ("c", 1)], [("a", "m"), ("b", "m"), ("c", "m")])
    oc = order_complex(antichain, exclude={"m"})
    assert oc.facets == ((0,), (1,), (2,))
    assert betti(oc, RATIONALS) == (2,)


def test_order_complex_of_diamond_is_contractible():
    oc = order_complex(boolean_graph(2))
    assert len(oc.facets) == 2 and all(len(f) == 3 for f in oc.facets)
    assert sum(betti(oc, RATIONALS)) == 0


def test_order_complex_with_minimum_is_always_contractible():
    # coning: any poset with a global minimum has trivial reduced homology;
    # here the k-1 levels strictly under v, T(v, k), plus the graph's own minimum
    for g in (boolean_graph(3), complex_graph(rp2_six())):
        (bottom,) = g.level_vertices(0)
        for v, lv in g.vertices:
            for k in range(2, lv + 1):
                kept = {w for w in g.descendants()[v] if g.level(w) > lv - k} | {bottom}
                oc = order_complex(g, exclude={w for w, _ in g.vertices if w not in kept})
                assert len({u for f in oc.facets for u in f}) == len(kept)
                assert sum(betti(oc, GF2)) == 0


def test_order_complex_of_face_poset_is_barycentric_subdivision():
    g = complex_graph(rp2_six())
    oc = order_complex(g, exclude={"∅"})
    assert betti(oc, GF2) == (0, 1, 1)
    assert betti(oc, RATIONALS) == (0, 0, 0)


def test_link_examples():
    x = boundary_delta3()
    lk = link(x, (1,))
    assert lk.facets == ((2, 3), (2, 4), (3, 4))  # a 3-cycle
    assert betti(lk, RATIONALS) == (0, 1)
    assert link(x, (1, 2)).facets == ((3,), (4,))  # two points
    facet_link = link(x, (1, 2, 3))
    assert facet_link.is_empty() and facet_link.dim == -1 and facet_link.faces == ()
    assert link(x, ()) == x
    with pytest.raises(FaceNotInComplex):
        link(x, (1, 5))
    with pytest.raises(FaceNotInComplex):
        link(rp2_six(), (1, 2, 4))  # its three edges are faces
    for simplex in ((), (0,)):
        with pytest.raises(FaceNotInComplex):
            link(SimplicialComplex([]), simplex)


def test_local_homology_examples():
    for field in (RATIONALS, GF2):
        assert local_homology_vanishes(boundary_delta3(), field)
        assert not local_homology_vanishes(wedge_triangles(), field)
        # closed surface: links are circles regardless of the field
        assert local_homology_vanishes(rp2_six(), field)
    assert not local_homology_vanishes(triangle_plus_edge(), RATIONALS)


@st.composite
def complexes_with_cones(draw):
    """Random complexes on seven vertices, cones over them with apex 7, lone
    simplices of 1-9 vertices, and simplex boundaries, whose links are spheres."""
    kind = draw(st.sampled_from(("plain", "cone", "simplex", "sphere")))
    if kind == "simplex":
        return SimplicialComplex([range(draw(st.integers(1, 9)))])
    if kind == "sphere":
        m = draw(st.integers(3, 7))
        return SimplicialComplex(itertools.combinations(range(m), m - 1))
    facets = draw(st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=5), min_size=1, max_size=6))
    return SimplicialComplex([f | {7} for f in facets] if kind == "cone" else facets)


@settings(max_examples=150, deadline=None, database=None)
@seed(20090938)
@given(complexes_with_cones())
def test_local_homology_verdict_equals_ranking_every_link(x):
    # the oracle builds each link from the facets and ranks its homology, cone or not
    for field in (RATIONALS, GF2):
        expected = True
        for face in map(frozenset, itertools.chain.from_iterable(x.faces)):
            top_j = x.dim - len(face) - 1
            lk = [set(f) - face for f in x.facets if face <= set(f)]
            if top_j >= -1 and not any(lk):
                expected = False
            elif top_j >= 0:
                bv = betti(SimplicialComplex([f for f in lk if f]), field)
                expected &= not any(bv[: top_j + 1])
        assert local_homology_vanishes(x, field) == expected, field


def test_koszulity_prediction_verdicts():
    for field in (RATIONALS, GF2):
        assert predict_koszulity(boundary_delta3(), field).passes
        assert predict_koszulity(delta2(), field).passes
    over2 = predict_koszulity(rp2_six(), GF2)
    assert not over2.passes and not over2.low_homology_vanishes and over2.local_homology_ok
    for name in type(over2).__slots__:
        before = getattr(over2, name)
        with pytest.raises(AttributeError):
            setattr(over2, name, None)
        assert getattr(over2, name) is before, name
    assert predict_koszulity(rp2_six(), RATIONALS).passes
    assert predict_koszulity(rp2_six(), GF3).passes


def test_koszulity_prediction_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        predict_koszulity(wedge_triangles(), RATIONALS)
    with pytest.raises(HypothesisViolation):
        predict_koszulity(triangle_plus_edge(), RATIONALS)


def test_koszulity_prediction_rejects_empty_complex():
    with pytest.raises(ValueError, match="at least one facet"):
        predict_koszulity(SimplicialComplex([]), RATIONALS)


def test_discrepancy_rhs_zero_on_koszul_cases():
    assert discrepancy_rhs_table(boolean_graph(3), RATIONALS) == [0, 0, 0, 0]


def test_discrepancy_rhs_positive_for_hatted_projective_plane_char2():
    g = hat(complex_graph(rp2_six()))
    assert discrepancy_rhs_table(g, GF2) == [0, 0, 0, 0, 1]
    assert discrepancy_rhs_table(g, RATIONALS) == [0, 0, 0, 0, 0]

