import itertools

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from corpus import full_graph_corpus, triangle_plus_edge
from splitkit.errors import SizeLimit, ValidationError
from splitkit.fixtures import boundary_delta3, delta2, nonuniform_graph, rp2_six, wedge_triangles
from splitkit.laygraph import (
    LayeredGraph,
    SimplicialComplex,
    _codim1_reached,
    boolean_graph,
    complex_graph,
    count_down_paths,
    hat,
    is_codim1_connected,
    is_pure,
    is_uniform,
    subspace_graph,
    validate,
)


def test_boolean_graph_counts():
    assert len(boolean_graph(1).vertices) == 2 and len(boolean_graph(1).edges) == 1
    g2 = boolean_graph(2)
    assert len(g2.vertices) == 4 and len(g2.edges) == 4
    g3 = boolean_graph(3)
    assert len(g3.vertices) == 8 and len(g3.edges) == 12
    for n in range(1, 5):
        g = boolean_graph(n)
        from math import comb

        assert [len(g.level_vertices(i)) for i in range(n + 1)] == [comb(n, i) for i in range(n + 1)]
        assert len(g.edges) == n * 2 ** (n - 1)


def test_every_constructor_output_validates():
    graphs = [boolean_graph(n) for n in range(1, 5)]
    graphs += [complex_graph(x) for x in (delta2(), boundary_delta3(), rp2_six(), wedge_triangles())]
    graphs += [hat(g) for g in graphs[:2]]
    graphs += [subspace_graph(2, 2), subspace_graph(3, 2)]
    for g in graphs:
        assert validate(g).ok


def test_validate_reports_level_gap():
    g = LayeredGraph([("a", 2), ("b", 0)], [("a", "b")])
    rep = validate(g)
    assert not rep.ok and any("level gap" in v for v in rep.violations)
    with pytest.raises(AttributeError):
        rep.violations = ()
    assert not rep.ok


def test_validate_reports_non_unique_minimum():
    g = LayeredGraph([("a", 0), ("b", 0), ("c", 1)], [("c", "a")])
    rep = validate(g)
    assert any("non-unique minimum" in v for v in rep.violations)


def test_validate_reports_stranded_vertex():
    g = LayeredGraph([("a", 0), ("b", 1), ("c", 1)], [("b", "a")])
    rep = validate(g)
    assert any("no downward edge" in v for v in rep.violations)


def test_constructor_rejects_broken_input():
    with pytest.raises(ValidationError):
        LayeredGraph([("a", 0), ("a", 1)], [])
    with pytest.raises(ValidationError):
        LayeredGraph([("a", 0)], [("a", "zz")])
    with pytest.raises(ValidationError):
        LayeredGraph([], [])


def test_subspace_graph_small_cases():
    g = subspace_graph(1, 5)
    assert len(g.vertices) == 2 and len(g.edges) == 1
    g = subspace_graph(2, 2)
    assert [len(g.level_vertices(i)) for i in range(3)] == [1, 3, 1]
    assert len(g.edges) == 6
    g = subspace_graph(3, 2)
    assert [len(g.level_vertices(i)) for i in range(4)] == [1, 7, 7, 1]
    assert len(g.edges) == 35  # 7 lines over 0 + 21 line-in-plane + 7 planes under F


def test_subspace_graph_cap(monkeypatch):
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "5")
    assert len(subspace_graph(2, 2).vertices) == 5
    with pytest.raises(SizeLimit):
        subspace_graph(2, 3)


def _q_integer(m: int, q: int) -> int:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return sum(q**i for i in range(m))


def _gaussian(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n, q", [(n, q) for q, top in ((2, 5), (3, 4), (5, 3), (7, 2)) for n in range(1, top + 1)])
def test_subspace_graph_equals_span_oracle(n, q):
    # each k-space is the set of its q^k vectors; a (k-1)-space lies under
    # it iff all its basis rows are in that set
    g = subspace_graph(n, q)
    rows, span = {}, {}
    for v, k in g.vertices:
        basis = [tuple(int(c) for c in r) for r in v[1:-1].split(",")] if k else []
        assert len(basis) == k and all(len(r) == n for r in basis)
        rows[v] = basis
        span[v] = {
            tuple(sum(c * x for c, x in zip(coeffs, col)) % q for col in zip(*basis)) if k else (0,) * n
            for coeffs in itertools.product(range(q), repeat=k)
        }
        assert len(span[v]) == q**k  # the id's rows are independent
    for k in range(n + 1):
        level = g.level_vertices(k)
        assert len(level) == _gaussian(n, k, q)
        assert len({frozenset(span[v]) for v in level}) == len(level)  # so every k-space occurs once
        for v in level:
            assert len(g.children(v)) == _q_integer(k, q)
            assert len(g.parents(v)) == _q_integer(n - k, q)
    covers = {
        (big, small)
        for k in range(1, n + 1)
        for big in g.level_vertices(k)
        for small in g.level_vertices(k - 1)
        if all(r in span[big] for r in rows[small])
    }
    assert set(g.edges) == covers


@pytest.mark.parametrize("q", [0, 1, 4, 9])
def test_subspace_graph_refuses_composite_q(q):
    with pytest.raises(ValueError, match=f"^modulus {q} is not prime$"):
        subspace_graph(2, q)


def test_subspace_graph_refuses_two_digit_q():
    with pytest.raises(ValueError, match="single-digit entries; q must be < 10"):
        subspace_graph(2, 10)


def test_boolean_graph_cap(monkeypatch):
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "8")
    assert len(boolean_graph(3).vertices) == 8
    with pytest.raises(SizeLimit):
        boolean_graph(4)


def test_complex_graph_of_full_simplex_is_boolean():
    gx = complex_graph(delta2())
    gb = boolean_graph(3)
    # same layered structure up to vertex naming
    assert [len(gx.level_vertices(i)) for i in range(4)] == [len(gb.level_vertices(i)) for i in range(4)]
    assert len(gx.edges) == len(gb.edges)
    # identical under the canonical face ids
    assert gx == gb


def test_complex_graph_boundary_tetrahedron_levels():
    g = complex_graph(boundary_delta3())
    assert [len(g.level_vertices(i)) for i in range(4)] == [1, 4, 6, 4]


def test_complex_graph_single_vertex():
    g = complex_graph(SimplicialComplex([[1]]))
    assert len(g.vertices) == 2 and len(g.edges) == 1


def test_hat_adds_one_top_vertex():
    g = complex_graph(boundary_delta3())
    h = hat(g)
    assert h.height == g.height + 1
    assert len(h.level_vertices(h.height)) == 1
    top = h.level_vertices(h.height)[0]
    assert set(h.children(top)) == set(g.level_vertices(g.height))
    assert validate(h).ok


def test_hat_over_rp2_has_ten_covers():
    h = hat(complex_graph(rp2_six()))
    top = h.level_vertices(4)[0]
    assert len(h.children(top)) == 10


def test_hat_of_truncated_diamond():
    g = LayeredGraph([("∅", 0), ("{1}", 1), ("{2}", 1)], [("{1}", "∅"), ("{2}", "∅")])
    h = hat(g)
    assert len(h.vertices) == 4 and len(h.edges) == 4  # the diamond shape


def test_uniformity():
    for n in range(1, 5):
        assert is_uniform(boolean_graph(n))
    for x in (delta2(), boundary_delta3(), rp2_six()):
        assert is_uniform(complex_graph(x))
        assert is_uniform(hat(complex_graph(x)))
    assert not is_uniform(nonuniform_graph())


def test_single_path_graph_is_uniform():
    g = LayeredGraph([("a", 0), ("b", 1), ("c", 2)], [("c", "b"), ("b", "a")])
    assert is_uniform(g)


def test_purity_and_codim1_connectivity():
    assert is_pure(boundary_delta3())
    assert is_codim1_connected(boundary_delta3())
    assert is_pure(wedge_triangles())
    assert not is_codim1_connected(wedge_triangles())
    assert not is_pure(triangle_plus_edge())
    assert is_pure(delta2()) and is_codim1_connected(delta2())


def test_simplicial_complex_canonicalization():
    x = SimplicialComplex([[3, 2, 1], [1, 2], [2, 3, 1]])
    assert x.facets == ((1, 2, 3),)
    assert x.dim == 2
    assert x.f_vector() == [3, 3, 1]
    assert (2, 3) in x.faces[1] and (4,) not in x.faces[0]
    empty = SimplicialComplex([])
    assert empty.dim == -1 and empty.faces == () and empty.f_vector() == []
    with pytest.raises(ValueError):
        SimplicialComplex([[]])


@st.composite
def facet_lists(draw):
    """Facet lists on at most 8 vertices: pure ones, lone points, and mixed
    sizes, each with some input facets that lie inside others."""
    kind = draw(st.sampled_from(("pure", "points", "mixed")))
    if kind == "pure":
        d = draw(st.integers(0, 4))
        facets = draw(st.lists(st.sampled_from(list(itertools.combinations(range(8), d + 1))), min_size=1, max_size=12))
    elif kind == "points":
        facets = [(v,) for v in draw(st.sets(st.integers(0, 7), min_size=1))]
    else:
        facets = draw(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=10))
    inside = [list(f)[: draw(st.integers(1, len(f)))] for f in draw(st.lists(st.sampled_from(facets), max_size=3))]
    return [list(f) for f in draw(st.permutations(list(facets) + inside))]


def _subset_faces(facets) -> tuple:
    """Face table by brute force: every nonempty subset of every input facet, by bitmask."""
    faces = set()
    for f in facets:
        f = sorted(set(f))
        for mask in range(1, 2 ** len(f)):
            faces.add(tuple(v for i, v in enumerate(f) if mask >> i & 1))
    top = max(map(len, faces), default=0)
    return tuple(tuple(sorted(s for s in faces if len(s) == k + 1)) for k in range(top))


def _pairwise_codim1_reached(x) -> set:
    """Indices of the facets joined to facet 0, found by intersecting every pair of facets."""
    d = x.dim
    facets = [set(f) for f in x.facets]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(facets)):
            if j not in seen and len(facets[i] & facets[j]) == d:
                seen.add(j)
                stack.append(j)
    return seen


@settings(max_examples=300, deadline=None, database=None)
@seed(20090941)
@given(facet_lists())
def test_face_table_equals_subsets_of_every_facet(facets):
    x = SimplicialComplex(facets)
    expected = _subset_faces(facets)
    assert x.faces == expected
    assert x.dim == len(expected) - 1 == max(len(set(f)) for f in facets) - 1
    assert x.f_vector() == [len(row) for row in expected]
    # non-maximal input facets are dropped, and their faces stay in the table
    assert all(not set(f) < set(g) for f in x.facets for g in x.facets)
    assert x.faces == _subset_faces(x.facets)


@settings(max_examples=300, deadline=None, database=None)
@seed(20090942)
@given(facet_lists())
def test_codim1_reach_equals_pairwise_intersections(facets):
    x = SimplicialComplex(facets)
    reached = _pairwise_codim1_reached(x)
    assert _codim1_reached(x) == reached
    assert is_codim1_connected(x) == (len(reached) == len(x.facets))


def test_graph_json_round_trip():
    for g in (boolean_graph(3), hat(complex_graph(rp2_six())), nonuniform_graph()):
        assert LayeredGraph.from_json_dict(g.to_json_dict()) == g


def test_complex_json_round_trip():
    for x in (delta2(), rp2_six(), wedge_triangles()):
        assert SimplicialComplex.from_json_dict(x.to_json_dict()) == x


def test_graph_is_immutable():
    g = boolean_graph(2)
    with pytest.raises(AttributeError):
        g.height = 7


def _enumerated_down_paths(g):
    """Every downward path of positive-level vertices, walked one by one."""
    paths = []

    def walk(path):
        paths.append(path)
        for w in g.children(path[-1]):
            if g.level(w) > 0:
                walk(path + (w,))

    for v, lv in g.vertices:
        if lv > 0:
            walk((v,))
    return paths


def test_down_path_count_equals_enumeration():
    for name, g in full_graph_corpus() + [("nonuniform", nonuniform_graph()), ("subspace_3_2", subspace_graph(3, 2))]:
        assert count_down_paths(g) == len(_enumerated_down_paths(g)), name
    # the default cap of 100,000 lies between these two
    assert count_down_paths(boolean_graph(7)) == 23_500
    assert count_down_paths(boolean_graph(8)) == 188_255
