"""Determinants by the Leibniz expansion and ranks by minors, as elimination-free oracles."""

import itertools

from splitkit.exactlinalg import RATIONALS


def det(rows):
    """The sum over permutations of signed products, in the entries' own ring."""
    acc = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        acc += term
    return acc


def minor_rank(rows, field=RATIONALS) -> int:
    """Largest k with a k x k minor that is nonzero in the field (mod p over GF(p))."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rs in itertools.combinations(range(n_rows), k):
            for cs in itertools.combinations(range(n_cols), k):
                if field.of(det([[rows[i][j] for j in cs] for i in rs])):
                    return k
    return 0
