import pytest
from hypothesis import given, seed, settings

from chains import mobius_value_chain
from corpus import full_graph_corpus, layered_graphs
from splitkit.errors import SizeLimit
from splitkit.fixtures import boundary_delta3, delta2, rp2_six, single_edge_graph
from splitkit.laygraph import boolean_graph, complex_graph, hat
from splitkit.mobius import (
    graded_mobius,
    hilbert_series,
    hilbert_series_inverse,
    mobius_value,
    subset_lattice_series,
)
from splitkit.seriespoly import IntPolynomial, poly_divide, series_reciprocal


def test_mobius_table_pair_cap(monkeypatch):
    # boolean_3 has 3^3 - 2^3 = 19 comparable pairs w < v
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "19")
    assert graded_mobius(boolean_graph(3)) == IntPolynomial([8, -12, 6, -1])
    monkeypatch.setenv("SPLITKIT_SIZE_CAP", "18")
    with pytest.raises(SizeLimit, match="^19 comparable pairs exceeds cap 18$"):
        graded_mobius(boolean_graph(3))


def test_mobius_point_values():
    g = boolean_graph(2)
    assert mobius_value(g, "{1,2}", "{1,2}") == 1
    assert mobius_value(g, "{1,2}", "{1}") == -1  # lower cover
    assert mobius_value(g, "{1,2}", "∅") == 1
    assert mobius_value(g, "{1}", "{2}") == 0  # incomparable


def test_boolean_mobius_is_alternating():
    g = boolean_graph(4)
    assert mobius_value(g, "{1,2,3,4}", "∅") == 1
    assert mobius_value(g, "{1,2,3}", "∅") == -1
    assert mobius_value(g, "{1,2,3,4}", "{4}") == -1


def test_chain_sum_agrees_with_recursion_on_corpus():
    # and the chain counts, summed by level gap, give the graded Möbius rows' total
    for _, g in full_graph_corpus():
        desc = g.descendants()
        coeffs = [0] * (g.height + 1)
        for v, lv in g.vertices:
            coeffs[0] += 1
            for w in desc[v]:
                mu = mobius_value_chain(g, v, w)
                assert mobius_value(g, v, w) == mu, (v, w)
                coeffs[lv - g.level(w)] += mu
        assert graded_mobius(g) == IntPolynomial(coeffs)


def test_philip_hall_identity_on_corpus():
    # for every strict pair w < v the Möbius values over [w, v] sum to zero
    for _, g in full_graph_corpus():
        desc = g.descendants()
        for v, _ in g.vertices:
            for w in desc[v]:
                interval = [u for u in desc[v] if u == w or w in desc[u]] + [v]
                assert sum(mobius_value(g, u, w) for u in interval) == 0


def test_graded_mobius_of_boolean_graphs():
    for n in range(1, 6):
        expected = IntPolynomial([2, -1]) ** n
        assert graded_mobius(boolean_graph(n)) == expected
    assert graded_mobius(boolean_graph(1)) == IntPolynomial([2, -1])
    assert graded_mobius(boolean_graph(2)) == IntPolynomial([4, -4, 1])


def test_graded_mobius_constant_term_is_vertex_count():
    for _, g in full_graph_corpus():
        assert graded_mobius(g)[0] == len(g.vertices)


def test_hilbert_examples():
    assert hilbert_series(boolean_graph(2), 3) == ((1, 3, 8, 21), IntPolynomial([1, -3, 1]))
    assert hilbert_series(boolean_graph(1), 3)[0] == (1, 1, 1, 1)
    assert hilbert_series(single_edge_graph(), 5)[0] == (1,) * 6
    assert hilbert_series(boolean_graph(3)) == hilbert_series(boolean_graph(3), 6)  # twice the height


def test_hilbert_matches_closed_form_oracle():
    for n in range(1, 5):
        assert hilbert_series(boolean_graph(n), 8)[0] == subset_lattice_series(n, 8)


def test_qn_degree_one_coefficient_counts_nonempty_subsets():
    for n in range(1, 6):
        assert subset_lattice_series(n, 2)[1] == 2**n - 1


def test_hilbert_inverse_examples():
    assert hilbert_series_inverse(boolean_graph(1)) == IntPolynomial([1, -1])
    assert hilbert_series_inverse(boolean_graph(2)) == IntPolynomial([1, -3, 1])
    assert hilbert_series_inverse(boolean_graph(3)) == IntPolynomial([1, -7, 5, -1])


def _check_series_definition(g, d):
    # H * (1 - tau*M) = 1 - tau to degree d, with M read straight from
    # graded_mobius rather than through the inverse polynomial
    series, inverse = hilbert_series(g, d)
    assert inverse == hilbert_series_inverse(g)
    product = (IntPolynomial([1]) - graded_mobius(g).shift(1)) * IntPolynomial(series)
    assert [product[k] for k in range(d + 1)] == [1, -1][: d + 1] + [0] * (d - 1)


def test_hilbert_inverse_times_series_is_one():
    for _, g in full_graph_corpus():
        for d in (0, 1, 2 * g.height):
            _check_series_definition(g, d)


@settings(max_examples=150, deadline=None, database=None)
@seed(20090940)
@given(layered_graphs(heights=(1, 6), widths=(1, 5)))
def test_hilbert_series_meets_its_definition_on_random_graphs(g):
    _check_series_definition(g, 2 * g.height)


def test_hilbert_coefficients_nonnegative_on_corpus():
    for _, g in full_graph_corpus():
        assert all(c >= 0 for c in hilbert_series(g)[0])


def test_inverse_degree_equals_height_except_hatted_euler_trivial():
    # the top coefficient is the Möbius value from top to bottom, which is
    # the reduced Euler characteristic of the order complex strictly
    # between them; it vanishes for the hatted face posets of the full
    # triangle (contractible) and the projective plane (chi = 1)
    for n in range(1, 5):
        assert hilbert_series_inverse(boolean_graph(n)).degree == n
    for x in (delta2(), boundary_delta3(), rp2_six()):
        g = complex_graph(x)
        assert hilbert_series_inverse(g).degree == g.height
    assert hilbert_series_inverse(hat(complex_graph(boundary_delta3()))).degree == 4
    for x in (delta2(), rp2_six()):
        g = hat(complex_graph(x))
        assert hilbert_series_inverse(g).degree == g.height - 1


def test_strict_mobius_breaks_the_oracle():
    # dropping the diagonal contradicts the closed form already at n = 1
    g = boolean_graph(1)
    strict = graded_mobius(g) - IntPolynomial([len(g.vertices)])
    assert strict == IntPolynomial([0, -1])
    denom = IntPolynomial([1]) - strict.shift(1)
    series = IntPolynomial([1, -1]) * IntPolynomial(series_reciprocal(denom, 3))
    assert list(series)[:4] == [1, -1, -1, 1]  # a negative graded dimension
    assert subset_lattice_series(1, 3) == hilbert_series(g, 3)[0] == (1, 1, 1, 1)
    _, remainder = poly_divide(denom, IntPolynomial([1, -1]))
    assert not remainder.is_zero()  # no inverse Hilbert polynomial either


def test_hat_of_boundary_tetrahedron_matches_boolean_4():
    # the face poset of the tetrahedron boundary plus a top vertex is the
    # rank-4 subset lattice, so the series data must coincide
    g = hat(complex_graph(boundary_delta3()))
    assert hilbert_series_inverse(g) == hilbert_series_inverse(boolean_graph(4))
    assert hilbert_series(g, 6) == hilbert_series(boolean_graph(4), 6)
