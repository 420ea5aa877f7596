"""Simplicial homology over a field, order complexes, local homology, and
the topological side of the discrepancy.

Boundary maps are lists of sparse signed integer columns, built and
checked over the integers; the field enters only when the exact
EchelonBasis kernel ranks them (primitive integer rows over Q).  The
maps and the local-homology walk both read the complex's face table.
Betti numbers are reduced, come from rank-nullity, and are plain
tuples.  Ranks are taken from the top dimension down with clearing: a
column of D_k whose index is a pivot of D_{k+1} is skipped, which
leaves the rank unchanged.  Over a field, cohomology dimensions equal
homology dimensions degreewise, so the homological ranks serve for
both.  The down-set complexes Delta(v, k) of the discrepancy are read
from the graph's own edges as downward paths; `order_complex` is the
general construction.  The discrepancy's topological side is one rule,
a signed sum of reduced Betti numbers of the Delta(v, k);
docs/discrepancy_calibration.md derives it.
"""

from dataclasses import dataclass

from .errors import FaceNotInComplex, HypothesisViolation
from .exactlinalg import EchelonBasis, FieldSpec
from .laygraph import LayeredGraph, SimplicialComplex, _codim1_reached, is_pure, require_path_cap, require_valid


def boundary_columns(x: SimplicialComplex) -> list:
    """[D_0, ..., D_dim] with D_k the boundary map C_k -> C_{k-1}.

    Each D_k is a list of sparse integer columns {row: +-1}, one per
    k-simplex of the face table row x.faces[k], in its order; D_0 is the
    augmentation row.  The sign of dropping position j of a simplex's
    sorted vertex tuple is (-1)^j.  The composite of consecutive maps is
    checked to vanish over the integers, which implies it vanishes over
    every field.
    """
    bases = x.faces
    maps = [[{0: 1} for _ in bases[0]]]
    for k in range(1, x.dim + 1):
        index = {s: i for i, s in enumerate(bases[k - 1])}
        cols = []
        for simplex in bases[k]:
            col = {}
            sign = 1
            for j in range(len(simplex)):
                col[index[simplex[:j] + simplex[j + 1 :]]] = sign
                sign = -sign
            cols.append(col)
        maps.append(cols)
    for k in range(1, len(maps)):
        for col in maps[k]:
            image = {}
            for r, s in col.items():
                for q, t in maps[k - 1][r].items():
                    image[q] = image.get(q, 0) + s * t
            if any(image.values()):
                raise AssertionError(f"boundary composite at dimension {k} is nonzero")
    return maps


def betti(x: SimplicialComplex, field: FieldSpec) -> tuple:
    """Reduced Betti numbers (b_0, ..., b_dim), b_i = nullity(D_i) - rank(D_{i+1}).

    A plain tuple of length dim + 1, so () for the empty complex; slice
    it to read degrees that may lie past the top.

    Ranks are taken from the top down with clearing: column i of D_k is
    skipped when i is a pivot of D_{k+1}'s echelon basis.  That pivot is
    the smallest index of a boundary z = c e_i + sum_{l>i} c_l e_l with
    c != 0, and D_k z = 0, so D_k e_i lies in the span of the columns
    l > i; by descending induction over the skipped i, each lies in the
    span of the kept columns, so skipping leaves the rank unchanged.
    """
    if x.is_empty():
        return ()
    maps = boundary_columns(x)
    ranks = [0] * (len(maps) + 1)
    cleared = set()
    for k in reversed(range(len(maps))):
        basis = EchelonBasis(field)
        for i, col in enumerate(maps[k]):
            if i not in cleared:
                basis.insert(col)
        ranks[k] = basis.rank
        cleared = basis.pivots.keys()
    return tuple(len(maps[i]) - ranks[i] - ranks[i + 1] for i in range(len(maps)))


def euler_characteristic(x: SimplicialComplex) -> int:
    return sum((-1) ** k * f for k, f in enumerate(x.f_vector()))


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


def link(x: SimplicialComplex, simplex) -> SimplicialComplex:
    """Link of a face: all faces disjoint from it whose union with it is a face."""
    s = frozenset(simplex)
    facets = [set(f) - s for f in x.facets if s.issubset(f)]
    if not facets:
        raise FaceNotInComplex(f"{sorted(s)} is not a face")
    return SimplicialComplex([f for f in facets if f])


def local_homology_vanishes(x: SimplicialComplex, field: FieldSpec) -> bool:
    """Local homology vanishing below degree n = dim X at every point.

    At a point in the open cell of a k-face, local homology in degree i
    is the reduced link homology in degree i-k-1; local homology is
    constant on open cells, so one check per face covers every point.
    Faces of dimension n and above have nothing to check, so the walk
    reads the rows 0..n-1 of the face table in order.
    """
    n = x.dim
    for k, row in enumerate(x.faces[:n]):
        top_j = n - k - 2  # highest reduced link degree that must vanish
        for face in row:
            lk = link(x, face)
            if lk.is_empty():
                return False  # reduced degree -1 of the empty link is nonzero
            if top_j < 0:
                continue
            # a link whose facets share a vertex is a cone, and a cone is acyclic
            if not frozenset.intersection(*map(frozenset, lk.facets)) and any(betti(lk, field)[: top_j + 1]):
                return False
    return True


@dataclass(frozen=True)
class KoszulityPrediction:
    """Outcome of the homological Koszulity criteria for a pure complex."""

    passes: bool
    low_homology_vanishes: bool  # reduced H_i(X) = 0 for i < n
    local_homology_ok: bool
    n: int
    field: FieldSpec


def predict_koszulity(x: SimplicialComplex, field: FieldSpec) -> KoszulityPrediction:
    """Predict Koszulity of the hatted-graph algebras from X's topology.

    Requires X pure and connected through codimension-one faces; the
    verdict is the conjunction of reduced-homology vanishing below the
    top dimension and local-homology vanishing.
    """
    if x.is_empty():
        raise ValueError("complex must have at least one facet")
    n = x.dim
    if not is_pure(x):
        short = next(f for f in x.facets if len(f) != n + 1)
        raise HypothesisViolation(f"complex is not pure: facet {list(short)} has dimension {len(short) - 1} < {n}")
    reached = _codim1_reached(x)
    if len(reached) < len(x.facets):
        stranded = next(i for i in range(len(x.facets)) if i not in reached)
        raise HypothesisViolation(
            "complex is not connected through codimension-one faces: no such path "
            f"between facets {list(x.facets[0])} and {list(x.facets[stranded])}"
        )
    low = not any(betti(x, field)[:n])
    local = local_homology_vanishes(x, field)
    return KoszulityPrediction(low and local, low, local, n, field)


def _down_paths(g: LayeredGraph, rank: dict, v: str, k: int) -> list:
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


def _vertex_contribution(g, rank, v, k, field) -> int:
    if k < 2:
        return 0
    # for k >= 2 the down-set holds v's children, so reduced degree -1 is 0;
    # the top degree k-2 never enters
    bv = betti(SimplicialComplex(_down_paths(g, rank, v, k)), field)
    return sum((1 if (k - 1 + i) % 2 == 0 else -1) * b for i, b in enumerate(bv[: k - 2]))


def discrepancy_rhs_table(g: LayeredGraph, field: FieldSpec) -> list:
    """Topological side of the series/algebra discrepancy, degrees 0..height.

    Entry k sums, over vertices v of level >= k, the signed sum of reduced
    Betti numbers of the down-set complex Delta(v, k) below its top degree,

        sum over i in [-1, k-3] of (-1)^(k-1+i) * bt_i(Delta(v, k)).

    Delta(v, k) is the order complex of the k-1 levels strictly below v,
    whose facets are the downward paths of k-1 vertices starting at a
    child of v.  docs/discrepancy_calibration.md derives the rule from
    both sides.  The number of downward paths, which bounds the facets of
    every Delta(v, k), is capped before any is built.
    """
    require_valid(g)
    require_path_cap(g)
    rank = {v: i for i, (v, _) in enumerate(g.vertices)}
    return [
        sum(_vertex_contribution(g, rank, v, k, field) for v, lv in g.vertices if lv >= k)
        for k in range(g.height + 1)
    ]
