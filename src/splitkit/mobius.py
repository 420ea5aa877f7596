"""Möbius functions of layered-graph posets and the Hilbert series they control.

The partial order is path-reachability.  The graded Möbius polynomial
includes the diagonal pairs (constant term = number of vertices): the
sum without them contradicts the closed-form oracle already at height 1.
"""

from .caps import PAIR_CAP, TRUNCATION_CAP, size_cap
from .errors import NegativeDimension, NonzeroRemainder, SizeLimit
from .laygraph import LayeredGraph, require_valid
from .seriespoly import IntPolynomial, poly_divide, series_reciprocal


def mobius_value(g: LayeredGraph, v: str, w: str) -> int:
    """mu(v, w): Möbius value from w up to v; 0 unless w <= v.

    Recursion on the lower argument over [w, v], from v downward:
    mu(v, v) = 1 and mu(v, u) = -sum of mu(v, z) over u < z <= v.
    """
    if v == w:
        return 1
    if not g.less_than(w, v):
        return 0
    desc = g.descendants()
    interval = [u for u in desc[v] if u == w or w in desc[u]]  # [w, v)
    values = {v: 1}
    for u in sorted(interval, key=lambda x: -g.level(x)):
        values[u] = -sum(s for z, s in values.items() if u in desc[z])
    return values[w]


def graded_mobius(g: LayeredGraph) -> IntPolynomial:
    """Graded Möbius polynomial: sum of mu(v,w) * tau^(|v|-|w|) over pairs w <= v.

    The diagonal is included, so the constant term is |V|; without it
    the Hilbert series of the subset lattice on one element already
    disagrees with its closed form.

    Summed over rows m_v(tau) = sum of mu(v,w) * tau^(|v|-|w|) over w <= v.
    As mu(v,w) = -sum of mu(u,w) over w <= u < v for w < v, regrouping by
    u gives m_v = 1 - sum over u < v of tau^(|v|-|u|) * m_u; level order
    builds every row below v first.  More comparable pairs w < v than the
    pair cap are refused up front: the cost is pairs times height.
    """
    require_valid(g)
    desc = g.descendants()
    cap = size_cap(PAIR_CAP)
    pairs = sum(len(below) for below in desc.values())
    if pairs > cap:
        raise SizeLimit(f"{pairs} comparable pairs exceeds cap {cap}")
    rows = {}
    coeffs = [0] * (g.height + 1)
    for v, lv in g.vertices:
        row = [1] + [0] * lv
        for u in desc[v]:
            shift = lv - g.level(u)
            for k, c in enumerate(rows[u]):
                row[shift + k] -= c
        rows[v] = row
        for k, c in enumerate(row):
            coeffs[k] += c
    return IntPolynomial(coeffs)


def hilbert_series_inverse(g: LayeredGraph) -> IntPolynomial:
    """The inverse Hilbert series (1 - tau*M) / (1 - tau), as an exact polynomial.

    Raises NonzeroRemainder if the division is inexact.  The degree is at
    most the graph height and can drop below it on real graphs: the top
    coefficient is, up to sign, the top-to-bottom Möbius value, which
    vanishes e.g. for the one-vertex completion of the face poset of a
    complex whose order complex has zero reduced Euler characteristic.
    """
    num = IntPolynomial([1]) - graded_mobius(g).shift(1)  # graded_mobius validates g
    quotient, remainder = poly_divide(num, IntPolynomial([1, -1]))
    if not remainder.is_zero():
        raise NonzeroRemainder(f"remainder {remainder!r} dividing {num!r} by (1 - tau)")
    return quotient


def hilbert_series(g: LayeredGraph, truncation: int | None = None) -> tuple:
    """(series, inverse): the Hilbert series of the graph's edge algebra and its inverse.

    The series is (1 - tau) / (1 - tau * M(tau)) to the truncation degree,
    as truncation + 1 ints; the inverse is hilbert_series_inverse(g).  The
    truncation defaults to twice the height; one above the truncation cap
    raises SizeLimit, a negative one ValueError, before M is built.  The
    inverse has constant term 1, so the series is its exact power-series
    reciprocal.  Coefficients are graded dimensions, so any negative value
    is a convention bug and raises.
    """
    require_valid(g)
    d = 2 * g.height if truncation is None else truncation
    cap = size_cap(TRUNCATION_CAP)
    if d > cap:
        raise SizeLimit(f"truncation degree {d} exceeds cap {cap}")
    if d < 0:
        raise ValueError(f"truncation degree {d} is negative")
    inverse = hilbert_series_inverse(g)
    series = series_reciprocal(inverse, d)
    for k, c in enumerate(series):
        if c < 0:
            raise NegativeDimension(f"coefficient {c} at degree {k}")
    return series, inverse


def subset_lattice_series(n: int, truncation: int) -> tuple:
    """Closed-form series (1 - tau) / (1 - tau (2 - tau)^n), truncated.

    Independent oracle for hilbert_series on the subset-lattice graph.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = series_reciprocal(IntPolynomial([1]) - (IntPolynomial([2, -1]) ** n).shift(1), truncation)
    return r[:1] + tuple(b - a for a, b in zip(r, r[1:]))
