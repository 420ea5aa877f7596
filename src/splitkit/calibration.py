"""Selecting the discrepancy convention empirically.

The per-vertex summation rule behind the topological side of the
discrepancy is under-determined by its usual statements (which complex,
reduced or not, which degrees).  Rather than guessing, the suite below
computes the algebra-side discrepancy table for every corpus graph and
keeps exactly the conventions whose topological table matches it on all
of them, including the characteristic-2 projective-plane case where the
discrepancy is nonzero.
"""

from dataclasses import dataclass

from .dualalg import discrepancy_lhs_table
from .exactlinalg import GF2, RATIONALS
from .fixtures import full_graph_corpus
from .laygraph import subspace_graph
from .topo import DISCREPANCY_CONVENTIONS, discrepancy_rhs_table


def default_cases() -> list:
    """(name, graph, field) triples: the corpus and the subspace lattices
    of GF(2)^3, GF(3)^3 and GF(2)^4, each over Q and GF(2)."""
    graphs = full_graph_corpus() + [(f"subspace_{n}_{q}", subspace_graph(n, q)) for n, q in ((3, 2), (3, 3), (4, 2))]
    return [(f"{name}/{fname}", g, field) for name, g in graphs for fname, field in (("Q", RATIONALS), ("GF2", GF2))]


@dataclass(frozen=True)
class CalibrationResult:
    selected: tuple  # conventions matching the algebra side on every case
    tables: dict  # case name -> {"lhs": [...], convention: [...], ...}

    @property
    def unique(self) -> bool:
        return len(self.selected) == 1


def calibrate_convention(cases=None) -> CalibrationResult:
    """Try every convention on every case; keep the ones that always match."""
    cases = default_cases() if cases is None else cases
    tables = {}
    alive = set(DISCREPANCY_CONVENTIONS)
    for name, g, field in cases:
        entry = {"lhs": discrepancy_lhs_table(g, field)}
        for conv in DISCREPANCY_CONVENTIONS:
            entry[conv] = discrepancy_rhs_table(g, field, conv)
            if entry[conv] != entry["lhs"]:
                alive.discard(conv)
        tables[name] = entry
    selected = tuple(c for c in DISCREPANCY_CONVENTIONS if c in alive)
    return CalibrationResult(selected, tables)
