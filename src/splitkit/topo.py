"""Simplicial homology over a field, local homology, and the topological
side of the discrepancy.

Boundary maps are lists of sparse signed integer columns, built and
checked over the integers; the field enters only when the exact
EchelonBasis kernel ranks them (primitive integer rows over Q).  The
maps and the local-homology walk both read the complex's face table.
Betti numbers are reduced, come from rank-nullity, and are plain
tuples.  Ranks are taken from the top dimension down with clearing: a
column of D_k whose index is a pivot of D_{k+1} is skipped, which
leaves the rank unchanged.  One reduction also ranks a filtration by
least vertex: each stage's faces are a suffix of every face-table row,
so columns go in from the end of the row and each stage's rank is read
at its cut.  Over a field, cohomology dimensions equal homology
dimensions degreewise, so the homological ranks serve for both.  The
discrepancy's topological side is one rule, a signed sum of reduced
Betti numbers of the down-set complexes Delta(v, k);
docs/discrepancy_calibration.md derives it.  Each vertex v builds one
complex, Delta(v, level v), from the graph's own edges as downward
paths, and its Delta(v, k) are the stages of its filtration by depth.
"""

from .errors import FaceNotInComplex, HypothesisViolation
from .exactlinalg import EchelonBasis, FieldSpec
from .laygraph import LayeredGraph, SimplicialComplex, _codim1_reached, is_pure, require_path_cap, require_valid
from .value import Value


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


def _filtered_betti(x: SimplicialComplex, field: FieldSpec, starts) -> list:
    """Reduced Betti numbers of the full subcomplexes X_t of x on the vertices >= t, for t in `starts`.

    `starts` descends, so the X_t grow: a filtration of x.  A face lies in
    X_t when its least vertex is >= t, and the face table rows are sorted,
    so X_t's faces are a suffix of every row.  One reduction per boundary
    map takes the columns from the end of the row and reads the rank at
    each cut; X_t is a subcomplex, so that rank is the rank of its own
    D_k.  Entry j is the tuple (b_0, ..., b_dim) of X_(starts[j]), with
    b_i = (i-faces) - rank D_i - rank D_(i+1).  This is persistent
    homology in the filtration order (Zomorodian & Carlsson, DCG 2005).

    Ranks are taken from the top down with clearing (Chen & Kerber,
    EuroCG 2011): column i of D_k is skipped when i is a pivot of
    D_(k+1)'s echelon basis.  That pivot is the smallest index of a
    boundary z = c e_i + sum_{l>i} c_l e_l with c != 0, and D_k z = 0, so
    D_k e_i lies in the span of the columns l > i, which lie in every X_t
    that holds face i; by descending induction over the skipped i, each
    lies in the span of the kept columns of X_t, so skipping leaves every
    rank unchanged.
    """
    maps = boundary_columns(x)
    sizes = [[0] * len(starts) for _ in maps]
    ranks = [[0] * len(starts) for _ in range(len(maps) + 1)]
    cleared = set()
    for k in reversed(range(len(maps))):
        row, cols = x.faces[k], maps[k]
        basis = EchelonBasis(field)
        i = len(row)
        for j, t in enumerate(starts):
            while i and row[i - 1][0] >= t:
                i -= 1
                if i not in cleared:
                    basis.insert(cols[i])
            sizes[k][j] = len(row) - i
            ranks[k][j] = basis.rank
        cleared = basis.pivots.keys()
    return [tuple(sizes[k][j] - ranks[k][j] - ranks[k + 1][j] for k in range(len(maps))) for j in range(len(starts))]


def betti(x: SimplicialComplex, field: FieldSpec) -> tuple:
    """Reduced Betti numbers (b_0, ..., b_dim), b_i = nullity(D_i) - rank(D_{i+1}).

    A plain tuple of length dim + 1, so () for the empty complex; slice
    it to read degrees that may lie past the top.  The ranks are those of
    `_filtered_betti` with one stage, the whole complex.
    """
    if x.is_empty():
        return ()
    return _filtered_betti(x, field, (x.faces[0][0][0],))[0]


def euler_characteristic(x: SimplicialComplex) -> int:
    return sum((-1) ** k * f for k, f in enumerate(x.f_vector()))


def link(x: SimplicialComplex, simplex) -> SimplicialComplex:
    """Link of a face: all faces disjoint from it whose union with it is a face.

    Only the facets that hold the face's vertex of fewest facets are scanned.
    """
    s = frozenset(simplex)
    holders = min((x.star.get(v, ()) for v in s), key=len) if s else x.facets
    facets = [set(f) - s for f in holders if s.issubset(f)]
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


class KoszulityPrediction(Value):
    """Outcome of the homological Koszulity criteria for a pure complex.

    `low_homology_vanishes` says reduced H_i(X) = 0 for i < n, the
    dimension of X.
    """

    __slots__ = ("passes", "low_homology_vanishes", "local_homology_ok", "n")


def predict_koszulity(x: SimplicialComplex, field: FieldSpec) -> KoszulityPrediction:
    """Predict Koszulity of the hatted-graph algebras from X's topology.

    Requires X pure and connected through codimension-one faces; the
    verdict is the conjunction of reduced-homology vanishing below the
    top dimension and local-homology vanishing.
    """
    return _koszulity(x, field, betti(x, field), is_pure(x), _codim1_reached(x))


def _koszulity(
    x: SimplicialComplex, field: FieldSpec, reduced: tuple, pure: bool, reached: set
) -> KoszulityPrediction:
    """predict_koszulity given betti(x, field), is_pure(x) and _codim1_reached(x), which `topology` also reports."""
    if x.is_empty():
        raise ValueError("complex must have at least one facet")
    n = x.dim
    if not pure:
        short = next(f for f in x.facets if len(f) != n + 1)
        raise HypothesisViolation(f"complex is not pure: facet {list(short)} has dimension {len(short) - 1} < {n}")
    if len(reached) < len(x.facets):
        stranded = next(i for i in range(len(x.facets)) if i not in reached)
        raise HypothesisViolation(
            "complex is not connected through codimension-one faces: no such path "
            f"between facets {list(x.facets[0])} and {list(x.facets[stranded])}"
        )
    low = not any(reduced[:n])
    local = local_homology_vanishes(x, field)
    return KoszulityPrediction(low and local, low, local, n)


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


def _vertex_entries(g: LayeredGraph, rank: dict, first: dict, v: str, lv: int, field: FieldSpec) -> list:
    """v's signed sums for k = 3..lv, from one filtered complex X = Delta(v, lv).

    Delta(v, k) is the full subcomplex of X on the vertices of level
    >= lv - k + 1, whose labels are the ranks >= first[lv - k + 1], so the
    Delta(v, k) are the stages of one filtration of X.  Each holds v's
    children, so reduced degree -1 is 0, and the top degree k-2 never
    enters.
    """
    x = SimplicialComplex(_down_paths(g, rank, v, lv))
    stages = _filtered_betti(x, field, [first[lv - k + 1] for k in range(3, lv + 1)])
    return [
        sum((1 if (k - 1 + i) % 2 == 0 else -1) * b for i, b in enumerate(bv[: k - 2]))
        for k, bv in enumerate(stages, 3)
    ]


def discrepancy_rhs_table(g: LayeredGraph, field: FieldSpec) -> list:
    """Topological side of the series/algebra discrepancy, degrees 0..height.

    Entry k sums, over vertices v of level >= k, the signed sum of reduced
    Betti numbers of the down-set complex Delta(v, k) below its top degree,

        sum over i in [-1, k-3] of (-1)^(k-1+i) * bt_i(Delta(v, k)).

    Delta(v, k) is the order complex of the k-1 levels strictly below v,
    whose facets are the downward paths of k-1 vertices starting at a
    child of v.  docs/discrepancy_calibration.md derives the rule from
    both sides.  The sum is empty for k <= 2, so only vertices of level
    >= 3 contribute, and each builds one complex, Delta(v, level v): the
    Delta(v, k) of one v are the stages of its filtration by depth, and
    one reduction of its boundary maps gives every stage's Betti numbers.
    The number of downward paths, which bounds the facets of every
    complex, is capped before any is built.
    """
    require_valid(g)
    require_path_cap(g)
    rank, first = {}, {}
    for i, (v, lv) in enumerate(g.vertices):
        rank[v] = i
        first.setdefault(lv, i)
    table = [0] * (g.height + 1)
    for v, lv in g.vertices:
        if lv >= 3:
            for k, entry in enumerate(_vertex_entries(g, rank, first, v, lv, field), 3):
                table[k] += entry
    return table
