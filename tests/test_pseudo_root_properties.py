"""Seeded property tests: the pseudo-root recurrence against its definition.

`PseudoRootTable` fills (A, i) -> (w, x) by the diamond recurrence.  The
oracles here never use it: w comes from `quasideterminant` (the Schur
complement of a block Vandermonde), x from conjugating x_i by that w,
and genericity from the ranks of every block Vandermonde.  To check the
diamonds on those oracle values, a system's table is filled with them
before the recurrence can run.
"""

import itertools

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from quasideterminants import quasideterminant
from splitkit.ncfactor import (
    RootSystem,
    block_vandermonde,
    check_diamond,
    genericity_check,
)

SETTINGS = settings(max_examples=30, deadline=None, database=None)


@st.composite
def root_systems(draw, bound=3, min_n=1, max_d=3):
    n = draw(st.integers(min_n, 4))
    d = draw(st.integers(1, max_d))
    entry = st.integers(-bound, bound)
    return RootSystem.from_entries([[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(n)])


def _singular_vandermondes(rs: RootSystem) -> set:
    return {
        subset
        for size in range(2, rs.n + 1)
        for subset in itertools.combinations(range(1, rs.n + 1), size)
        if block_vandermonde(rs, subset).rank() < rs.d * size
    }


def _pairs(n: int):
    """Every (A, i) with A a subset of 1..n and i outside A."""
    for size in range(n):
        for a in itertools.combinations(range(1, n + 1), size):
            for i in range(1, n + 1):
                if i not in a:
                    yield a, i


def _fill_from_quasideterminants(rs: RootSystem):
    """Put (w, w . x_i . w^{-1}) with w the quasideterminant in every entry of rs.table."""
    for a, i in _pairs(rs.n):
        w = quasideterminant(rs, a, i)
        rs.table._cache[(frozenset(a), i)] = (w, w * rs.root(i) * w.inverse())


@SETTINGS
@seed(20090921)
@given(root_systems())
def test_table_equals_quasideterminant_path(rs):
    if _singular_vandermondes(rs):
        return  # the pseudo-roots are defined on generic systems only
    for a, i in _pairs(rs.n):
        w, x = rs.table.pair(a, i)
        oracle = quasideterminant(rs, a, i)
        assert w == oracle
        assert x == oracle * rs.root(i) * oracle.inverse()


@SETTINGS
@seed(20090922)
@given(root_systems(bound=1, min_n=2))
def test_genericity_verdict_equals_block_vandermonde_ranks(rs):
    singular = _singular_vandermondes(rs)
    report = genericity_check(rs)
    assert report.generic == (not singular)
    assert set(report.singular_vandermondes) == singular
    # the rank of each quasideterminant w(A, i) defined (W(A) invertible) is the oracle
    transforms = []
    for a, i in _pairs(rs.n):
        if a and a not in singular and quasideterminant(rs, a, i).rank() < rs.d:
            transforms.append((a, i))
    assert sorted(report.singular_transforms) == sorted(transforms)


@SETTINGS
@seed(20090923)
@given(root_systems(max_d=2))
def test_diamonds_hold_on_quasideterminant_pseudo_roots(rs):
    if _singular_vandermondes(rs):
        return
    _fill_from_quasideterminants(rs)
    for a, i in _pairs(rs.n):
        for j in range(i + 1, rs.n + 1):
            if j not in a:
                assert check_diamond(rs, a, i, j)
