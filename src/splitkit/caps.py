"""Ambient-size caps, overridable through SPLITKIT_SIZE_CAP."""

import os

TENSOR_ENTRY_CAP = 10**7
VERTEX_CAP = 4096  # vertices of a generated lattice (boolean, subspace); faces + 1 of an input complex
ORDERING_CAP = 5040  # root orderings checked by `factor` (n! for n <= 7)
PATH_CAP = 100_000  # downward paths of a graph: down-set facets, and the bound on vertex-algebra inputs
PAIR_CAP = 100_000  # comparable pairs w < v of a graph: the graded Möbius rows cost pairs x height
TRUNCATION_CAP = 4096  # truncation degree D of a Hilbert series: its inversion costs O(D x height)


def size_cap(default: int) -> int:
    raw = os.environ.get("SPLITKIT_SIZE_CAP")
    return int(raw) if raw else default
