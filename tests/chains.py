"""Chain-based routes through a layered graph's poset, as test oracles.

`order_complex` takes the maximal chains of the poset as facets, with
covers recovered from the descendant sets; the discrepancy's topology
side instead reads Delta(v, k) off the graph's edges as downward paths.
`mobius_value_chain` counts signed chains upward from the lower
element; `mobius.mobius_value` recurses downward from the upper one.
No CLI path runs either, so they live with the tests.
"""

from splitkit.laygraph import LayeredGraph, SimplicialComplex


def order_complex(g: LayeredGraph, exclude=frozenset()) -> SimplicialComplex:
    """Order complex of the poset of a layered graph: simplices are chains.

    Vertices of the complex are integer indices of the poset elements in
    (level, id) order; facets are the maximal chains.  `exclude` drops
    poset elements (e.g. an added minimum) before taking chains.
    """
    exclude = set(exclude)
    elems = [v for v, _ in g.vertices if v not in exclude]
    index = {v: i for i, v in enumerate(elems)}
    if not elems:
        return SimplicialComplex([])
    desc = g.descendants()
    below = {v: {w for w in desc[v] if w not in exclude} for v in elems}
    covers = {}
    for v in elems:
        direct = set(below[v])
        for w in below[v]:
            direct -= below[w]
        covers[v] = sorted(direct)
    maximal = [v for v in elems if not any(v in below[u] for u in elems)]
    chains = []

    def walk(v, chain):
        chain.append(v)
        if covers[v]:
            for w in covers[v]:
                walk(w, chain)
        else:
            chains.append([index[u] for u in chain])
        chain.pop()

    for v in maximal:
        walk(v, [])
    return SimplicialComplex(chains)


def mobius_value_chain(g: LayeredGraph, v: str, w: str) -> int:
    """mu(v, w) by signed chain counting.

    Accumulates sum over chains w = v0 < v1 < ... < vl = v of (-1)^l by
    dynamic programming upward from w: the signed count f(u) of chains
    from w to u satisfies f(w) = 1 and f(u) = -sum of f(z) over w <= z < u.
    Runs in the opposite direction to the recursion behind mobius_value,
    so the two act as cross-checks.
    """
    if v == w:
        return 1
    if not g.less_than(w, v):
        return 0
    desc = g.descendants()
    interval = {u for u in desc[v] if u == w or w in desc[u]}  # [w, v)
    signed = {w: 1}
    for u in sorted(interval - {w}, key=lambda x: g.level(x)) + [v]:
        below = desc[u]
        signed[u] = -sum(s for z, s in signed.items() if z == w or z in below)
    return signed[v]
