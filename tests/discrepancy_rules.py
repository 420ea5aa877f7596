"""The three per-vertex discrepancy rules the calibration rejects, and the shipped
rule ranked one (v, k) at a time, as test references.

`topo.discrepancy_rhs_table` ships the one rule docs/discrepancy_calibration.md
derives; `calibrate` runs it and the three plain sums below on the 26 cases
and keeps those matching the algebra side on every one.  The cone rules are
eliminated on the cone, not taken as closed forms.  `per_pair_table` builds
and ranks every Delta(v, k) from its own facets, the downward paths of
`down_paths`, where the shipped table lists every chain of the graph once and
reads each vertex's Delta(v, k) off one filtered reduction of its chains.
"""

from corpus import full_graph_corpus
from splitkit.dualalg import discrepancy_lhs_table
from splitkit.exactlinalg import GF2, RATIONALS
from splitkit.laygraph import SimplicialComplex, subspace_graph
from splitkit.topo import betti, discrepancy_rhs_table


def down_paths(g, rank: dict, v: str, k: int) -> list:
    """Facets of Delta(v, k): the downward paths of k-1 vertices from a child of v.

    Every edge of a layered graph is a cover, so these are the maximal
    chains of the k-1 levels strictly below v.  Each vertex is labelled
    by `rank`, its position in g.vertices ((level, id) order).  For
    k = 1 the only path is the empty one.
    """
    paths = [((), v)]
    for _ in range(k - 1):
        paths = [(path + (rank[w],), w) for path, u in paths for w in g.children(u)]
    return [path for path, _ in paths]


def calibration_cases() -> list:
    """(name, graph, field): the corpus and subspace lattices of GF(2)^3, GF(3)^3, GF(2)^4, over Q and GF(2)."""
    graphs = full_graph_corpus() + [(f"subspace_{n}_{q}", subspace_graph(n, q)) for n, q in ((3, 2), (3, 3), (4, 2))]
    return [(f"{name}/{fname}", g, field) for name, g in graphs for fname, field in (("Q", RATIONALS), ("GF2", GF2))]


def plain_sum_table(g, field, cone, reduced=True) -> list:
    """Sum over v of level >= k of b_0 + ... + b_(level-1) of Delta(v, k), or of its
    cone by one apex, -1, below every vertex; for k <= 1 Delta(v, k) is empty."""
    rank = {v: i for i, (v, _) in enumerate(g.vertices)}
    table = [0] * (g.height + 1)
    for k in range(g.height + 1):
        for v, lv in g.vertices:
            if lv >= k:
                facets = [(-1,) * cone + p for p in down_paths(g, rank, v, k)]
                b = betti(SimplicialComplex([f for f in facets if f]), field)
                if b and not reduced:
                    table[k] += 1  # unreduced b_0 = reduced b_0 + 1 on a nonempty complex
                table[k] += sum(b[: max(lv, 1)])  # the minimum's cone at k = 0 still has b_0
    return table


def per_pair_table(g, field) -> list:
    """The shipped rule with each Delta(v, k), k >= 2, built from its downward paths and ranked alone."""
    rank = {v: i for i, (v, _) in enumerate(g.vertices)}
    table = [0] * (g.height + 1)
    for k in range(2, g.height + 1):
        for v, lv in g.vertices:
            if lv >= k:
                bv = betti(SimplicialComplex(down_paths(g, rank, v, k)), field)
                table[k] += sum((1 if (k - 1 + i) % 2 == 0 else -1) * b for i, b in enumerate(bv[: k - 2]))
    return table


RULES = {
    "calibrated": discrepancy_rhs_table,
    "reduced-proper": lambda g, field: plain_sum_table(g, field, cone=False),
    "reduced-min": lambda g, field: plain_sum_table(g, field, cone=True),
    "unreduced-min": lambda g, field: plain_sum_table(g, field, cone=True, reduced=False),
}


def calibrate(cases):
    """(rules matching the algebra side on every case, {case: {"lhs": table, rule: table}})."""
    tables = {}
    for name, g, f in cases:
        tables[name] = {"lhs": discrepancy_lhs_table(g, f)} | {r: rule(g, f) for r, rule in RULES.items()}
    return tuple(r for r in RULES if all(t[r] == t["lhs"] for t in tables.values())), tables
