"""Factorizations of monic polynomials with exact rational matrix roots.

Given n square rational matrices in generic position, every ordering of
the roots yields a factorization of the same monic degree-n polynomial
into linear factors t - x, where the x are conjugates of the roots by
quasideterminants of block Vandermonde matrices.  This module builds
those conjugates, the n! factorizations, and the consistency checks
between them.

`PseudoRootTable` computes the conjugates by the diamond recurrence,
which solves the two exchange identities of `check_diamond` for one
corner: each entry costs a d x d inverse and never forms a block
Vandermonde.  `genericity_check` falls back on the ranks of
`block_vandermonde` to name the singular configurations of a degenerate
system; the quasideterminants built from it, the independent definition
of the table, live with the tests.

`check_diamonds` decides whether the n! factorizations agree from the
C(n,2) . 2^(n-2) diamonds, each an adjacent swap of two factors, and
compares the polynomial with `vandermonde_polynomial`, one block
Vandermonde solve that never reads the table.  `check_all_orderings`
expands every ordering; it runs only when a diamond fails, to name the
mismatched orderings, and stays as the oracle with `expand_factorization`.
"""

import itertools
from math import lcm

from .errors import GenericityFailure, SingularMatrix
from .exactlinalg import DenseMatrix
from .value import Value

GENERIC_TRIES = 200  # random draws random_generic_roots makes before giving up


class RootSystem(Value):
    """n square rational matrices of a common size d, playing the roots.

    `table` fills `_table` on first use.
    """

    __slots__ = ("roots", "_table")

    def __init__(self, roots: tuple):
        roots = tuple(roots)
        if not roots:
            raise ValueError("need at least one root")
        d = roots[0].rows
        for m in roots:
            if not isinstance(m, DenseMatrix) or m.rows != m.cols or m.rows != d:
                raise ValueError("roots must be square matrices of a common size")
        self.roots = roots

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def d(self) -> int:
        return self.roots[0].rows

    def root(self, i: int) -> DenseMatrix:
        """Root x_i, 1-indexed."""
        return self.roots[i - 1]

    @property
    def table(self) -> "PseudoRootTable":
        """The one pseudo-root table of this system, filled on demand."""
        try:
            return self._table
        except AttributeError:
            pass
        self._table = table = PseudoRootTable(self)
        return table

    @classmethod
    def from_scalars(cls, values) -> "RootSystem":
        return cls(tuple(DenseMatrix([[v]]) for v in values))

    @classmethod
    def from_entries(cls, matrices) -> "RootSystem":
        return cls(tuple(DenseMatrix(m) for m in matrices))


def _assemble(grid) -> DenseMatrix:
    """The rational matrix with block (r, c) = grid[r][c], over the lcm of the block denominators."""
    den = lcm(*(b.den for brow in grid for b in brow))
    num = tuple(
        tuple(v * (den // b.den) for b in brow for v in b.num[dr]) for brow in grid for dr in range(brow[0].rows)
    )
    return DenseMatrix._make(num, den, (len(num), len(num[0])))


def block_vandermonde(rs: RootSystem, indices) -> DenseMatrix:
    """Block Vandermonde on an ordered index list: block (r, c) = x_{i_c}^(k-r).

    For k+1 indices this is the (k+1)d x (k+1)d matrix whose block rows
    hold the powers k down to 0; the bottom row is a row of identities.
    """
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("indices must be distinct")
    k = len(indices) - 1
    return _assemble([[rs.root(i) ** (k - r) for i in indices] for r in range(k + 1)])


class PseudoRootTable:
    """Cache of (A, i) -> (w, x) with x = w . x_i . w^{-1}, by the diamond recurrence.

    Each RootSystem holds one, `rs.table`; this module reads pseudo-roots only from it.
    For A nonempty, with e = max(A), B = A - {e} and D = x(B, i) - x(B, e):
    w(A, i) = D . w(B, i) and x(A, i) = D . x(B, i) . D^{-1}.  Each entry
    costs one d x d inverse, three d x d products and one difference, all
    on integer matrices over a common denominator, so no Fraction is formed.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._cache: dict = {}

    def pair(self, a, i: int) -> tuple:
        a = frozenset(a)
        key = (a, i)
        if key not in self._cache:
            if not a:
                self._cache[key] = (DenseMatrix.identity(self.rs.d), self.rs.root(i))
            else:
                b = a - {max(a)}
                w_b, x_b = self.pair(b, i)
                diff = x_b - self.pseudo_root(b, max(a))
                try:
                    diff_inv = diff.inverse()
                except SingularMatrix as exc:
                    raise GenericityFailure(
                        sorted(a) + [i], f"quasideterminant w(A={sorted(a)}, i={i}) is singular"
                    ) from exc
                self._cache[key] = (diff * w_b, diff * x_b * diff_inv)
        return self._cache[key]

    def pseudo_root(self, a, i: int) -> DenseMatrix:
        return self.pair(a, i)[1]

    def entries(self) -> dict:
        return dict(self._cache)


class GenericityReport(Value):
    """Singular configurations found while probing a root system.

    `singular_vandermondes` holds the index subsets with singular W, and
    `singular_transforms` the (A, i) pairs with singular w.
    """

    __slots__ = ("singular_vandermondes", "singular_transforms")

    @property
    def generic(self) -> bool:
        return not self.singular_vandermondes and not self.singular_transforms


def genericity_check(rs: RootSystem) -> GenericityReport:
    """Probe every index subset for singular Vandermondes and singular w's.

    Failures are returned as data, not raised; an empty report means the
    system is generic and every factorization path is available.

    Filling the pseudo-root table for every (A, i) proves genericity: by
    the Schur complement det W(A+i) = det W(A) . det w(A, i), and by the
    recurrence det w(A, i) = det D . det w(A - max(A), i), so every W(S)
    is invertible exactly when every D met is.  Only when some D is
    singular are block Vandermondes formed, to name the culprits; the
    same Schur identity names the singular w's from their ranks.
    """
    indices = range(1, rs.n + 1)
    try:
        for size in range(rs.n):
            for a in itertools.combinations(indices, size):
                for i in indices:
                    if i not in a:
                        rs.table.pair(a, i)
        return GenericityReport((), ())
    except GenericityFailure:
        pass
    bad_w = [
        subset
        for size in range(2, rs.n + 1)
        for subset in itertools.combinations(indices, size)
        if block_vandermonde(rs, subset).rank() < rs.d * size
    ]
    singular = set(bad_w)
    # by the Schur identity, w(A, i) with W(A) invertible is singular iff W(A + i) is
    bad_t = [
        (a, i)
        for subset in bad_w
        for i in subset
        if (a := tuple(x for x in subset if x != i)) not in singular
    ]
    return GenericityReport(tuple(bad_w), tuple(bad_t))


class MatrixPolynomial(Value):
    """Monic matrix polynomial t^n + a_1 t^(n-1) + ... + a_n (a_k stored 1-indexed)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple = ()):
        self.coefficients = coefficients

    def __eq__(self, other):
        return isinstance(other, MatrixPolynomial) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def coefficient(self, k: int) -> DenseMatrix:
        """a_k, the coefficient of t^(n-k), 1-indexed."""
        return self.coefficients[k - 1]


def _ordering_pseudo_roots(rs: RootSystem, ordering):
    ordering = list(ordering)
    if sorted(ordering) != list(range(1, rs.n + 1)):
        raise ValueError(f"ordering must be a permutation of 1..{rs.n}")
    return [rs.table.pseudo_root(ordering[:k], i) for k, i in enumerate(ordering)]


def viete_coefficients(rs: RootSystem, ordering) -> MatrixPolynomial:
    """Coefficients from the symmetric-function sums over one ordering.

    a_m = (-1)^m * sum over k_1 > ... > k_m of y_{k_1} ... y_{k_m}, where
    y_k is the k-th pseudo-root along the ordering and factors keep the
    descending order.
    """
    ys = _ordering_pseudo_roots(rs, ordering)
    d = rs.d
    ident = DenseMatrix.identity(d)
    zero = DenseMatrix.zeros(d, d)
    sums = [ident] + [zero] * rs.n
    for k, y in enumerate(ys, start=1):  # y becomes the leftmost factor
        for m in range(k, 0, -1):  # sums[m] is still zero for m > k
            sums[m] = sums[m] + y * sums[m - 1]
    coeffs = [sums[m] if m % 2 == 0 else -sums[m] for m in range(1, rs.n + 1)]
    return MatrixPolynomial(tuple(coeffs))


def expand_factorization(rs: RootSystem, ordering) -> MatrixPolynomial:
    """Expand the product (t - y_n)(t - y_{n-1}) ... (t - y_1) along an ordering.

    Independent of viete_coefficients (which never forms the product);
    the two must agree entrywise on generic input.
    """
    ys = _ordering_pseudo_roots(rs, ordering)
    coeffs = [DenseMatrix.identity(rs.d)]
    for y in ys:  # multiply by (t - y) on the left
        nxt = [coeffs[0]]
        for j in range(1, len(coeffs) + 1):
            prev = coeffs[j] if j < len(coeffs) else None
            term = y * coeffs[j - 1]
            nxt.append(prev - term if prev is not None else -term)
        coeffs = nxt
    return MatrixPolynomial(tuple(coeffs[1:]))


class OrderingCheck(Value):
    """Outcome of comparing the factorizations over all n! orderings.

    `polynomial` is the common MatrixPolynomial when `passed`, else None;
    `mismatched` holds the orderings whose coefficients differ from the
    first one's.
    """

    __slots__ = ("passed", "polynomial", "orderings", "mismatched")


def check_all_orderings(rs: RootSystem) -> OrderingCheck:
    orderings = tuple(itertools.permutations(range(1, rs.n + 1)))
    polys = [viete_coefficients(rs, o) for o in orderings]
    mismatched = tuple(o for o, p in zip(orderings, polys) if p != polys[0])
    return OrderingCheck(not mismatched, polys[0] if not mismatched else None, orderings, mismatched)


def check_diamond(rs: RootSystem, a, i: int, j: int) -> bool:
    """Exact check of the two local exchange identities on a diamond.

    Linear:    x_{A+i, j} + x_{A, i} = x_{A+j, i} + x_{A, j}
    Quadratic: x_{A+i, j} . x_{A, i} = x_{A+j, i} . x_{A, j}
    """
    a = frozenset(a)
    if i == j or i in a or j in a:
        raise ValueError("need distinct i, j outside A")
    table = rs.table
    xi = table.pseudo_root(a, i)
    xj = table.pseudo_root(a, j)
    xij = table.pseudo_root(a | {i}, j)
    xji = table.pseudo_root(a | {j}, i)
    return (xij + xi == xji + xj) and (xij * xi == xji * xj)


def vandermonde_polynomial(rs: RootSystem) -> MatrixPolynomial:
    """The monic polynomial with right roots x_1..x_n, by one block Vandermonde solve.

    Right evaluation at x_c is sum over m of a_m . x_c^(n-m) with a_0 = 1,
    and block row r of W(1..n) holds the powers n-1-r, so the roots are
    right roots exactly when [a_1 ... a_n] . W(1..n) = -[x_1^n ... x_n^n].
    W(1..n) is invertible on generic input, and then this polynomial is
    unique.  It never reads the pseudo-root table.
    """
    n, d = rs.n, rs.d
    rhs = _assemble([[-(rs.root(i) ** n) for i in range(1, n + 1)]])
    try:  # transposed, W(1..n)^T . [a_1 ... a_n]^T = rhs^T is one square solve
        row = block_vandermonde(rs, range(1, n + 1)).transpose().solve(rhs.transpose()).transpose()
    except SingularMatrix as exc:
        raise GenericityFailure(range(1, n + 1), "block Vandermonde W(1..n) is singular") from exc
    blocks = (tuple(r[m * d : (m + 1) * d] for r in row.num) for m in range(n))
    return MatrixPolynomial(tuple(DenseMatrix._make(b, row.den, (d, d)) for b in blocks))


class DiamondCheck(Value):
    """Outcome of the exchange identities on every diamond, against the Vandermonde side.

    `polynomial` is the polynomial along the identity ordering when
    `passed`, else None; `diamonds` counts the diamonds checked, and
    `failed` lists the (A, i, j) that fail, A sorted, in enumeration
    order.  `mismatched` is as in OrderingCheck, enumerated only when a
    diamond fails.
    """

    __slots__ = ("passed", "polynomial", "diamonds", "failed", "vandermonde_agrees", "mismatched")


def check_diamonds(rs: RootSystem) -> DiamondCheck:
    """Decide whether all n! factorizations agree from C(n,2) . 2^(n-2) diamonds.

    Swapping i and j right after the prefix set A changes only the two
    middle factors of a factorization, from (t - x(A+i, j))(t - x(A, i))
    to (t - x(A+j, i))(t - x(A, j)); the factors on either side are the
    same, and monic polynomials are not zero divisors, so the two
    products agree exactly when the diamond (A, i, j) holds.  Adjacent
    transpositions generate S_n and every diamond is such a swap in some
    ordering, so every diamond holds exactly when every ordering gives
    the same polynomial: the verdict of `check_all_orderings`, which runs
    only when a diamond fails, to name the mismatched orderings.

    The diamonds with i, j > max(A) hold by construction of the table's
    recurrence, so the identity ordering's polynomial must also equal
    `vandermonde_polynomial`, which never reads the table.
    """
    indices = range(1, rs.n + 1)
    diamonds = [
        (a, i, j)
        for size in range(rs.n - 1)
        for a in itertools.combinations(indices, size)
        for i, j in itertools.combinations([x for x in indices if x not in a], 2)
    ]
    failed = tuple(dm for dm in diamonds if not check_diamond(rs, *dm))
    poly = viete_coefficients(rs, indices)
    agrees = poly == vandermonde_polynomial(rs)
    mismatched = check_all_orderings(rs).mismatched if failed else ()
    passed = not failed and agrees
    return DiamondCheck(passed, poly if passed else None, len(diamonds), failed, agrees, mismatched)


def random_generic_roots(n: int, d: int, rng, bound: int = 4) -> RootSystem:
    """Random small-integer root matrices, retried until fully generic."""
    for _ in range(GENERIC_TRIES):
        rs = RootSystem.from_entries(
            [[[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)] for _ in range(n)]
        )
        if genericity_check(rs).generic:
            return rs
    raise GenericityFailure(range(1, n + 1), f"no generic system found in {GENERIC_TRIES} tries")
