"""Quasideterminants of block Vandermonde matrices, as test oracles.

`ncfactor.PseudoRootTable` fills w(A, i) by the diamond recurrence and
never forms a block Vandermonde; `quasideterminant` is the Schur
complement that defines w(A, i), the independent route the tests check
the table against.  No CLI path or demo runs it, so it lives with the tests.
"""

from splitkit.errors import GenericityFailure, SingularMatrix
from splitkit.exactlinalg import DenseMatrix
from splitkit.ncfactor import RootSystem, block_vandermonde


def _blocks(grid) -> DenseMatrix:
    """The matrix with block (r, c) = grid[r][c], assembled from the blocks' entries."""
    return DenseMatrix([[v for b in brow for v in b.entries[dr]] for brow in grid for dr in range(brow[0].rows)])


def quasideterminant_ordered(rs: RootSystem, ordered_a, i: int) -> DenseMatrix:
    """Schur-complement quasideterminant w for an explicit ordering of A.

    w = x_i^k - r . W(A)^{-1} . c with k = |A|, r the top block row over A
    and c the powers column of x_i.  The result is independent of the
    ordering of A; `quasideterminant` exposes the canonical sorted form.
    """
    ordered_a = list(ordered_a)
    k = len(ordered_a)
    if i in ordered_a:
        raise ValueError(f"index {i} must not lie in A")
    xi = rs.root(i)
    if k == 0:
        return DenseMatrix.identity(rs.d)
    try:
        inner_inv = block_vandermonde(rs, ordered_a).inverse()
    except SingularMatrix as exc:
        raise GenericityFailure(ordered_a, "inner block Vandermonde is singular") from exc
    r_mat = _blocks([[rs.root(a) ** k for a in ordered_a]])
    c_mat = _blocks([[xi**p] for p in range(k - 1, -1, -1)])
    return xi**k - r_mat * inner_inv * c_mat


def quasideterminant(rs: RootSystem, a, i: int) -> DenseMatrix:
    return quasideterminant_ordered(rs, sorted(a), i)
