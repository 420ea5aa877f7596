"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 2b is a documented finding: the inverse Hilbert
polynomial provably drops below the graph height on two corpus graphs,
so the equality claim fails there and the test records it honestly.
"""

import itertools
import pathlib
import random

from chains import mobius_value_chain
from corpus import complexes, koszul_corpus
from discrepancy_rules import calibrate, calibration_cases
from splitkit.dualalg import discrepancy_lhs_table, vertex_hilbert, numerical_koszul_check
from splitkit.exactlinalg import GF2, RATIONALS, DenseMatrix, char_poly
from splitkit.fixtures import boundary_delta3, nonuniform_graph, rp2_six
from splitkit.laygraph import boolean_graph, complex_graph, hat, is_uniform
from splitkit.mobius import (
    graded_mobius,
    hilbert_series,
    hilbert_series_inverse,
    mobius_value,
    subset_lattice_series,
)
from splitkit.ncfactor import (
    RootSystem,
    check_all_orderings,
    check_diamond,
    expand_factorization,
    random_generic_roots,
    viete_coefficients,
)
from splitkit.seriespoly import IntPolynomial, TruncatedSeries, poly_divide, series_inverse, series_mul
from splitkit.topo import betti, boundary_columns, discrepancy_rhs_table, euler_characteristic, predict_koszulity


def _line(tag: str, ok: bool, detail: str = ""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    return ok


def _inverse_corpus():
    graphs = [(f"boolean_{n}", boolean_graph(n)) for n in range(1, 5)]
    for name, x in complexes():
        graphs.append((f"faces_{name}", complex_graph(x)))
    for name, x in complexes():
        graphs.append((f"hat_{name}", hat(complex_graph(x))))
    return graphs


def test_criterion_1_closed_form_oracle():
    ok = all(hilbert_series(boolean_graph(n), 8) == subset_lattice_series(n, 8) for n in range(1, 5))
    ok &= list(hilbert_series(boolean_graph(2), 3).coeffs) == [1, 3, 8, 21]
    ok &= all(hilbert_series(boolean_graph(n), 8)[1] == 2**n - 1 for n in range(1, 5))
    assert _line("criterion 1", ok, "series equals the closed form for n = 1..4 at degree 8")


def test_criterion_2a_inverse_is_a_polynomial():
    # zero remainder: the inverse series really is a polynomial, exactly
    details = []
    for name, g in _inverse_corpus():
        poly = hilbert_series_inverse(g)  # NonzeroRemainder would raise
        details.append((name, poly.degree))
    assert _line("criterion 2a", True, f"zero remainder on all {len(details)} corpus graphs")


def test_criterion_2b_inverse_degree_equals_height():
    # Documented finding: the degree-0 coefficient of the top level of the
    # graded Möbius polynomial is the Möbius value from the maximum to the
    # minimum, i.e. the reduced Euler characteristic of the order complex
    # strictly between them.  For the hatted face posets of the full
    # triangle (contractible) and of the six-vertex projective plane
    # (Euler characteristic 1) that value is 0, so the inverse polynomial
    # has degree height-1 there.  The claim is provably unattainable on
    # those two graphs; everything else satisfies it.
    failures = []
    for name, g in _inverse_corpus():
        if hilbert_series_inverse(g).degree != g.height:
            failures.append(name)
    _line("criterion 2b", not failures, f"degree = height everywhere (exceptions: {failures or 'none'})")
    assert not failures, (
        "inverse polynomial degree drops below the height on "
        f"{failures}: the top-to-bottom Möbius value vanishes because the "
        "reduced Euler characteristic of the intervening order complex is zero"
    )


def test_criterion_3_koszulity_of_face_poset_algebras():
    ok = True
    for name, x in complexes():
        g = complex_graph(x)
        for field in (RATIONALS, GF2):
            ok &= numerical_koszul_check(g, field).passes
    ok &= list(vertex_hilbert(boolean_graph(2), RATIONALS).coeffs) == [1, 3, 1]
    ok &= list(vertex_hilbert(boolean_graph(3), RATIONALS).coeffs) == [1, 7, 5, 1]
    assert _line("criterion 3", ok, "face-poset algebras numerically Koszul over Q and GF(2)")


def test_criterion_4_characteristic_dependence():
    rp2 = rp2_six()
    ok = not predict_koszulity(rp2, GF2).passes
    ok &= predict_koszulity(rp2, RATIONALS).passes
    g = hat(complex_graph(rp2))
    bad = numerical_koszul_check(g, GF2)
    ok &= not bad.passes and bad.first_divergence_degree == 4  # frozen: degree 4
    ok &= list(bad.algebra_side.coeffs) == [1, 32, 44, 16, 1]  # frozen: excess is +1 at degree 4
    ok &= numerical_koszul_check(g, RATIONALS).passes
    sphere = boundary_delta3()
    for field in (RATIONALS, GF2):
        ok &= predict_koszulity(sphere, field).passes
        ok &= numerical_koszul_check(hat(complex_graph(sphere)), field).passes
    assert _line("criterion 4", ok, "projective plane flips with the characteristic; sphere does not")


def test_criterion_5_discrepancy_cross_validation():
    ok = True
    for name, g in koszul_corpus():
        for field in (RATIONALS, GF2):
            lhs = discrepancy_lhs_table(g, field)
            ok &= lhs == discrepancy_rhs_table(g, field) == [0] * (g.height + 1)
    g = hat(complex_graph(rp2_six()))
    lhs = discrepancy_lhs_table(g, GF2)
    rhs = discrepancy_rhs_table(g, GF2)
    ok &= lhs == rhs and any(v > 0 for v in lhs)
    selected, _ = calibrate(calibration_cases())
    ok &= selected == ("calibrated",)
    writeup = pathlib.Path(__file__).resolve().parents[1] / "docs" / "discrepancy_calibration.md"
    ok &= writeup.is_file() and "calibrated" in writeup.read_text(encoding="utf-8")
    assert _line("criterion 5", ok, "two sides agree on every corpus graph; convention uniquely calibrated")


def test_criterion_6_factorization_engine():
    rng = random.Random(20260810)
    ok = True
    for _ in range(100):
        rs = random_generic_roots(3, 2, rng)
        chk = check_all_orderings(rs)
        ok &= chk.passed
        for ordering in itertools.permutations((1, 2, 3)):
            ok &= expand_factorization(rs, ordering) == viete_coefficients(rs, ordering)
        for a in ((), (1,), (2,), (3,)):
            for i, j in itertools.combinations([x for x in (1, 2, 3) if x not in a], 2):
                ok &= check_diamond(rs, a, i, j)
        for (a, i), (_, x) in rs.table.entries().items():
            ok &= char_poly(x) == char_poly(rs.root(i))
        if not ok:
            break
    two = check_all_orderings(RootSystem.from_scalars([1, 2]))
    ok &= two.passed and [c.to_lists() for c in two.polynomial.coefficients] == [[[-3]], [[2]]]
    three = check_all_orderings(RootSystem.from_scalars([1, 2, 3]))
    ok &= three.passed and [c.to_lists() for c in three.polynomial.coefficients] == [[[-6]], [[11]], [[-6]]]
    assert _line("criterion 6", ok, "100/100 random generic systems factor consistently; exact")


def test_criterion_7_uniformity():
    ok = all(is_uniform(boolean_graph(n)) for n in range(1, 5))
    ok &= all(is_uniform(complex_graph(x)) for _, x in complexes())
    ok &= not is_uniform(nonuniform_graph())
    assert _line("criterion 7", ok, "uniform on the corpus, false on the counterexample")


def test_criterion_8_property_suites():
    ok = True
    # Möbius interval identity and agreement of the two implementations
    for name, g in koszul_corpus() + [("hat_rp2_six", hat(complex_graph(rp2_six())))]:
        desc = g.descendants()
        for v, _ in g.vertices:
            for w in desc[v]:
                interval = [u for u in desc[v] if u == w or w in desc[u]] + [v]
                ok &= sum(mobius_value(g, u, w) for u in interval) == 0
                ok &= mobius_value(g, v, w) == mobius_value_chain(g, v, w)
    # boundary composite over Q, and Euler characteristic over Q and GF(2)
    for _, x in complexes():
        maps = boundary_columns(x)
        heights = [1] + [len(cols) for cols in maps]
        mats = [
            DenseMatrix([[col.get(r, 0) for col in cols] for r in range(heights[k])]) for k, cols in enumerate(maps)
        ]
        ok &= all((mats[k - 1] * mats[k]).is_zero() for k in range(1, len(mats)))
        for field in (RATIONALS, GF2):
            b = betti(x, field)
            ok &= euler_characteristic(x) - 1 == sum((-1) ** i * v for i, v in enumerate(b))
    # randomized reconstruction identities, 1000 cases each
    rng = random.Random(99)
    for _ in range(1000):
        d = rng.randint(0, 8)
        a = TruncatedSeries([rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(d)])
        ok &= series_mul(a, series_inverse(a)) == TruncatedSeries.one(d)
    for _ in range(1000):
        num = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        den = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.choice([1, -1])])
        q, r = poly_divide(num, den)
        ok &= den * q + r == num and r.degree < den.degree
    # graded Möbius of subset lattices in closed form
    for n in range(1, 6):
        ok &= graded_mobius(boolean_graph(n)) == IntPolynomial([2, -1]) ** n
    assert _line("criterion 8", ok, "interval identities, boundary composites, reconstructions: exact")
