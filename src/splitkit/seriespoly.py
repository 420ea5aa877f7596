"""Integer polynomials and truncated power series.

Coefficients are arbitrary-precision ints, stored ascending by degree.
Polynomials trim trailing zeros; a series truncated at degree D is a
tuple of D + 1 ints, trailing zeros kept.
"""

import sys

from .errors import SizeLimit
from .value import Value


class IntPolynomial(Value):
    """Polynomial with integer coefficients; coeffs[k] multiplies tau^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other; an int is a constant polynomial."""
        if isinstance(other, int):
            other = IntPolynomial([other])
        elif not isinstance(other, IntPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([self[k] + sign * other[k] for k in range(n)])

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        acc = IntPolynomial([1])
        for _ in range(k):
            acc = acc * self
        return acc

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by tau^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "IntPolynomial(0)"
        terms = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return "IntPolynomial(" + " + ".join(terms) + ")"


def series_reciprocal(p: IntPolynomial, truncation: int) -> tuple:
    """The power series 1/p to degree `truncation`, as truncation + 1 ints.

    Needs constant term +-1 so the recursion stays in the integers.
    """
    if truncation < 0:
        raise ValueError(f"truncation degree {truncation} is negative")
    u = p[0]
    if u not in (1, -1):
        raise ValueError(f"constant term {u} is not a unit")
    terms = [(j, c) for j, c in enumerate(p.coeffs) if j and c]
    out = [u] + [0] * truncation
    for k in range(1, truncation + 1):
        out[k] = -u * sum(c * out[k - j] for j, c in terms if j <= k)
    return tuple(out)


def poly_divide(num: IntPolynomial, den: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division num = den*quotient + remainder, deg(rem) < deg(den).

    The divisor must have a unit (+-1) leading coefficient so every step
    is exact over the integers; (1-tau) and (1+tau) both qualify.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if den.coeffs[-1] not in (1, -1):
        raise ValueError("divisor needs a unit leading coefficient")
    rem = list(num.coeffs)
    dd = den.degree
    lead = den.coeffs[-1]
    if num.degree < dd:
        return IntPolynomial(), num
    q = [0] * (num.degree - dd + 1)
    for k in range(num.degree - dd, -1, -1):
        c = rem[k + dd] * lead  # lead is +-1, so this is exact division
        if c:
            q[k] = c
            for j, b in enumerate(den.coeffs):
                rem[k + j] -= c * b
    return IntPolynomial(q), IntPolynomial(rem)


def substitute_neg(a: IntPolynomial) -> IntPolynomial:
    """Substitute tau -> -tau, i.e. negate every odd coefficient."""
    return IntPolynomial([c if k % 2 == 0 else -c for k, c in enumerate(a.coeffs)])


def coeffs_as_strings(a) -> list[str]:
    """JSON rendering of a polynomial or a series tuple: decimal strings, degree 0 first.

    A coefficient past the interpreter's digit limit for integer-to-string
    conversion raises SizeLimit.
    """
    out = []
    for k, c in enumerate(a):
        try:
            out.append(str(c))
        except ValueError as exc:
            raise SizeLimit(f"coefficient at degree {k} exceeds {sys.get_int_max_str_digits()} digits") from exc
    return out
