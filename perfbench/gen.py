"""Seeded benchmark inputs: random 2-complexes and generic matrix-root systems.

Everything here is derived from a `random.Random` seeded by the caller, so
one seed always gives the same files.  Genericity of a root draw is decided
by this module's own exact determinant, not by splitkit.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from checks import matmul


def random_complex(rng: random.Random, num_vertices: int, num_facets: int) -> list:
    """Facets of a pure 2-complex on exactly `num_vertices` vertices that is
    connected through edges: each new triangle shares an edge with an old one."""
    while True:
        first = tuple(sorted(rng.sample(range(1, num_vertices + 1), 3)))
        facets = [first]
        chosen = {first}
        while len(facets) < num_facets:
            edges = sorted({e for f in facets for e in itertools.combinations(f, 2)})
            candidates = sorted(
                {
                    tuple(sorted(e + (v,)))
                    for e in edges
                    for v in range(1, num_vertices + 1)
                    if v not in e
                }
                - chosen
            )
            t = rng.choice(candidates)
            facets.append(t)
            chosen.add(t)
        if len({v for f in facets for v in f}) == num_vertices:
            return sorted(facets)


def _matpow(m: list, k: int) -> list:
    d = len(m)
    acc = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(k):
        acc = matmul(acc, m)
    return acc


def _det(rows: list) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def block_vandermonde_det(roots: list, indices) -> Fraction:
    """det of the block Vandermonde whose block (r, c) is x_{i_c}^(k-r)."""
    k = len(indices) - 1
    d = len(roots[0])
    powers = [[_matpow(roots[i - 1], k - r) for r in range(k + 1)] for i in indices]
    rows = [[v for c in range(k + 1) for v in powers[c][r][dr]] for r in range(k + 1) for dr in range(d)]
    return _det(rows)


def is_generic(roots: list) -> bool:
    n = len(roots)
    return all(
        block_vandermonde_det(roots, subset)
        for size in range(2, n + 1)
        for subset in itertools.combinations(range(1, n + 1), size)
    )


def random_roots(rng: random.Random, n: int, d: int, bound: int = 4) -> list:
    """n integer d x d matrices with entries in [-bound, bound], redrawn until
    every block Vandermonde is nonsingular."""
    while True:
        roots = [[[Fraction(rng.randint(-bound, bound)) for _ in range(d)] for _ in range(d)] for _ in range(n)]
        if is_generic(roots):
            return roots


def write_complex(path: Path, facets: list):
    path.write_text(json.dumps({"facets": [list(f) for f in facets]}))


def write_roots(path: Path, roots: list):
    d = len(roots[0])
    path.write_text(json.dumps({"d": d, "roots": [[[str(v) for v in row] for row in m] for m in roots]}))


def read_roots(path: Path) -> list:
    data = json.loads(path.read_text())
    return [[[Fraction(v) for v in row] for row in m] for m in data["roots"]]
