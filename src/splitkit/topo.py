"""Simplicial homology over a field, local homology, and the topological
side of the discrepancy.

Boundary maps are lists of sparse signed integer columns, built from a
face table and checked over the integers by one builder; the field
enters only when the exact EchelonBasis kernel ranks them (primitive
integer rows over Q).  The maps and the local-homology walk both read
the complex's face table.  Betti numbers are reduced, come from
rank-nullity, and are plain tuples.  Ranks are taken from the top
dimension down with clearing: a column of D_k whose index is a pivot of
D_{k+1} is skipped, which leaves the rank unchanged.  One reduction also
ranks a filtration by least vertex: in sorted order each stage's faces
of every dimension are a suffix, so columns go in from the end and each
stage's rank is read at its cut.  Over a field, cohomology
dimensions equal homology dimensions degreewise, so the homological
ranks serve for both.  The discrepancy's topological side is one rule, a
signed sum of reduced Betti numbers of the down-set complexes
Delta(v, k); docs/discrepancy_calibration.md derives it.  A graph lists
each of its chains once, in one table with one set of boundary maps;
each vertex v's complex Delta(v, level v) is the chains below v, and its
Delta(v, k) are the stages of that complex's filtration by depth.
"""

from itertools import chain

from .errors import FaceNotInComplex, HypothesisViolation
from .exactlinalg import EchelonBasis, FieldSpec
from .laygraph import LayeredGraph, SimplicialComplex, _codim1_reached, is_pure, require_path_cap, require_valid
from .value import Value


def boundary_columns(x: SimplicialComplex) -> list:
    """[D_0, ..., D_dim] with D_k the boundary map C_k -> C_{k-1}, from x's face table; see `_boundary`."""
    return _boundary(x.faces)


def _boundary(rows) -> list:
    """[D_0, ..., D_dim] for the face table `rows`, checked to compose to zero.

    rows[k] holds the k-faces as sorted vertex tuples, each row sorted.
    Each D_k is a list of sparse integer columns {row: +-1}, one per
    k-face of rows[k], in its order; D_0 is the augmentation row.  The
    sign of dropping position j of a face is (-1)^j.  The composite of
    consecutive maps is checked on every column to vanish over the
    integers, which implies it vanishes over every field.
    """
    maps = [[{0: 1} for _ in rows[0]]]
    for k in range(1, len(rows)):
        maps.append(_columns(rows[k], rows[k - 1]))
    for k in range(1, len(maps)):
        lower = maps[k - 1]
        for col in maps[k]:
            image = {}
            for r, s in col.items():
                for q, t in lower[r].items():
                    image[q] = image.get(q, 0) + s * t
            if any(image.values()):
                raise AssertionError(f"boundary composite at dimension {k} is nonzero")
    return maps


def _columns(faces, facets) -> list:
    """The boundary columns of `faces` in the row `facets` of the faces one vertex smaller."""
    index = {s: i for i, s in enumerate(facets)}
    cols = []
    for simplex in faces:
        col = {}
        sign = 1
        for j in range(len(simplex)):
            col[index[simplex[:j] + simplex[j + 1 :]]] = sign
            sign = -sign
        cols.append(col)
    return cols


def _filtered_betti(lows: list, maps: list, cols: list, field: FieldSpec, starts) -> list:
    """Reduced Betti numbers of the stages X_t, t in `starts`, of a subcomplex X of a face table.

    lows[k][c] is the least vertex of face c of dimension k, maps are the
    table's boundary columns, and cols[k] lists X's k-faces by ascending
    index, for k = 0..dim X; X is closed under taking faces.  X_t is the
    full subcomplex of X on the vertices >= t.  `starts` descends, so the
    X_t grow: a filtration of X.  The table's rows are sorted, so by least
    vertex first, and X_t's faces are a suffix of every cols[k].  One
    reduction per boundary map takes the columns from the end of the list
    and reads the rank at each cut; X_t is a subcomplex, so that rank is
    the rank of its own D_k.  Entry j is the tuple (b_0, ..., b_dim X) of
    X_(starts[j]), with b_i = (i-faces) - rank D_i - rank D_(i+1).  This is
    persistent homology in the filtration order (Zomorodian & Carlsson,
    DCG 2005).

    Ranks are taken from the top down with clearing (Chen & Kerber,
    EuroCG 2011): column i of D_k is skipped when i is a pivot of
    D_(k+1)'s echelon basis.  That pivot is the smallest index of a
    boundary z = c e_i + sum_{l>i} c_l e_l of X with c != 0, and
    D_k z = 0, so D_k e_i lies in the span of the columns of the faces
    l > i of X.  A face l > i comes after i in its sorted row, so its
    least vertex is no smaller than i's, and it lies in every X_t that
    holds face i; by descending induction over the skipped i, each lies in
    the span of the kept columns of X_t, so skipping leaves every rank
    unchanged.
    """
    sizes = [[0] * len(starts) for _ in cols]
    ranks = [[0] * len(starts) for _ in range(len(cols) + 1)]
    cleared = set()
    for k in reversed(range(len(cols))):
        low, columns, idx = lows[k], maps[k], cols[k]
        basis = EchelonBasis(field)
        i = len(idx)
        for j, t in enumerate(starts):
            while i and low[idx[i - 1]] >= t:
                i -= 1
                if idx[i] not in cleared:
                    basis.insert(columns[idx[i]])
            sizes[k][j] = len(idx) - i
            ranks[k][j] = basis.rank
        cleared = basis.pivots.keys()
    return [tuple(sizes[k][j] - ranks[k][j] - ranks[k + 1][j] for k in range(len(cols))) for j in range(len(starts))]


def betti(x: SimplicialComplex, field: FieldSpec) -> tuple:
    """Reduced Betti numbers (b_0, ..., b_dim), b_i = nullity(D_i) - rank(D_{i+1}).

    A plain tuple of length dim + 1, so () for the empty complex; slice
    it to read degrees that may lie past the top.  The ranks are those of
    `_filtered_betti` on every column, with one stage, the whole complex.
    """
    if x.is_empty():
        return ()
    rows = x.faces
    lows = [[f[0] for f in row] for row in rows]
    return _filtered_betti(lows, boundary_columns(x), [range(len(row)) for row in rows], field, (rows[0][0][0],))[0]


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


def _chain_table(g: LayeredGraph, rank: dict) -> tuple:
    """(rows, by_top): each chain of positive-level vertices below some vertex of level >= 3, once.

    A chain is the ascending tuple of its vertices' `rank`s, their
    positions in g.vertices ((level, id) order), so its top is its last
    entry.  rows[k] holds the chains of k + 1 vertices, sorted, and
    by_top[k] maps a top to the ascending indices in rows[k] of the chains
    it tops.  The chains topped by t are (t,) and t appended to each chain
    topped by a positive-level w < t, so each chain is made once, from the
    one below its top.  Every edge is a cover, so the chains below v are
    the faces of Delta(v, level v); with a unique top, rows is the face
    table of Delta(top, height).
    """
    desc = g.descendants()
    tops = {w for v, lv in g.vertices if lv >= 3 for w in desc[v] if g.level(w) > 0}
    topped = {}
    for t, _ in g.vertices:  # by level, so every w < t comes first
        if t in tops:
            r = (rank[t],)
            topped[t] = [r] + [c + r for w in desc[t] if w in topped for c in topped[w]]
    rows = [[] for _ in range(max(g.level(t) for t in tops))]
    for chains in topped.values():
        for c in chains:
            rows[len(c) - 1].append(c)
    by_top = []
    for row in rows:
        row.sort()
        groups = {}
        for i, c in enumerate(row):
            groups.setdefault(c[-1], []).append(i)
        by_top.append(groups)
    return rows, by_top


def discrepancy_rhs_table(g: LayeredGraph, field: FieldSpec) -> list:
    """Topological side of the series/algebra discrepancy, degrees 0..height.

    Entry k sums, over vertices v of level >= k, the signed sum of reduced
    Betti numbers of the down-set complex Delta(v, k) below its top degree,

        sum over i in [-1, k-3] of (-1)^(k-1+i) * bt_i(Delta(v, k)).

    Delta(v, k) is the order complex of the k-1 levels strictly below v.
    docs/discrepancy_calibration.md derives the rule from both sides.  The
    sum is empty for k <= 2, so only vertices of level >= 3 contribute.
    The graph's chains form one table with one set of boundary columns,
    built and checked once.  A vertex v's complex Delta(v, level v) is the
    chains whose top lies below v, and its Delta(v, k) are the full
    subcomplexes on the vertices of level >= level v - k + 1, whose ranks
    are >= first[level v - k + 1]: the stages of its filtration by depth,
    read off one filtered reduction of its columns.  Each holds v's
    children, so reduced degree -1 is 0, and the top degree k-2 never
    enters.  The number of downward paths, which bounds the facets of
    every complex, is capped before any chain is built.
    """
    require_valid(g)
    require_path_cap(g)
    table = [0] * (g.height + 1)
    if g.height < 3:
        return table
    rank, first = {}, {}
    for i, (v, lv) in enumerate(g.vertices):
        rank[v] = i
        first.setdefault(lv, i)
    rows, by_top = _chain_table(g, rank)
    maps = _boundary(rows)
    lows = [[c[0] for c in row] for row in rows]
    del rows  # only the least vertices are read from here on
    desc = g.descendants()
    for v, lv in g.vertices:
        if lv >= 3:
            below = [rank[w] for w in desc[v] if g.level(w) > 0]
            cols = [sorted(chain.from_iterable(by_top[k].get(t, ()) for t in below)) for k in range(lv - 1)]
            stages = _filtered_betti(lows, maps, cols, field, [first[lv - k + 1] for k in range(3, lv + 1)])
            for k, bv in enumerate(stages, 3):
                table[k] += sum((1 if (k - 1 + i) % 2 == 0 else -1) * b for i, b in enumerate(bv[: k - 2]))
    return table
