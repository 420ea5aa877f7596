"""Layered graphs and abstract simplicial complexes.

A layered graph is a finite DAG whose vertices carry levels and whose
edges drop exactly one level.  Constructors cover the subset lattice,
the subspace lattice of GF(q)^n, face posets of simplicial complexes,
and the one-vertex-on-top completion of a graph.  The subspace lattice
needs no elimination: the hyperplanes of the row space of an RREF basis
B are the row spaces of M·B mod q for the RREF matrices M with one row
fewer than B, and each M·B is again in RREF.
"""

import itertools
import json
from operator import index

from .caps import PATH_CAP, VERTEX_CAP, size_cap
from .errors import SizeLimit, ValidationError
from .exactlinalg import FieldSpec
from .value import Value

MIN_ID = "∅"
TOP_ID = "M"


def _json_int(value, what: str) -> int:
    """A JSON integer read from an input file; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _json_str(value, what: str) -> str:
    """A JSON string read from an input file; nothing else is converted to one."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {json.dumps(value)}")
    return value


def _json_edge(value) -> tuple:
    """A JSON edge [tail, head] read from an input file."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"edge must be a two-element list, got {json.dumps(value)}")
    return tuple(_json_str(v, "edge endpoint") for v in value)


def set_id(vertices) -> str:
    """Canonical id of a finite set of ints: "∅", "{1}", "{1,3}"."""
    vs = sorted(vertices)
    if not vs:
        return MIN_ID
    return "{" + ",".join(str(v) for v in vs) + "}"


class LayeredGraph(Value):
    """Immutable layered graph: vertices with levels, one-step-down edges.

    `descendants` fills `_desc` on first use, and `validation` `_report`.
    """

    __slots__ = ("vertices", "edges", "_level", "_out", "_in", "height", "_desc", "_report")

    def __init__(self, vertices, edges):
        vs = [(str(v), index(lv)) for v, lv in vertices]
        ids = [v for v, _ in vs]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate vertex ids")
        if not vs:
            raise ValidationError("graph needs at least one vertex")
        level = dict(vs)
        if any(lv < 0 for lv in level.values()):
            raise ValidationError("negative level")
        es = []
        for t, h in edges:
            t, h = str(t), str(h)
            if t not in level or h not in level:
                raise ValidationError(f"edge ({t},{h}) references unknown vertex")
            es.append((t, h))
        if len(set(es)) != len(es):
            raise ValidationError("duplicate edges")
        self._level = level
        self.vertices = tuple(sorted(vs, key=lambda p: (p[1], p[0])))
        self.edges = tuple(sorted(es))
        self.height = max(level.values())
        out = {v: [] for v in level}
        inc = {v: [] for v in level}
        for t, h in self.edges:
            out[t].append(h)
            inc[h].append(t)
        self._out = {v: tuple(sorted(ws)) for v, ws in out.items()}
        self._in = {v: tuple(sorted(ws)) for v, ws in inc.items()}

    def level(self, v: str) -> int:
        return self._level[v]

    def level_vertices(self, i: int) -> tuple:
        return tuple(v for v, lv in self.vertices if lv == i)

    def children(self, v: str) -> tuple:
        """Heads of edges out of v (the set S(v))."""
        return self._out[v]

    def parents(self, v: str) -> tuple:
        return self._in[v]

    def __contains__(self, v) -> bool:
        return v in self._level

    def descendants(self) -> dict:
        """Map v -> frozenset of vertices strictly below v (path order)."""
        try:
            return self._desc
        except AttributeError:
            pass
        desc = {}
        for v, _ in self.vertices:  # sorted by level, so children first
            acc = set()
            for w in self._out[v]:
                acc.add(w)
                acc |= desc[w]
            desc[v] = frozenset(acc)
        self._desc = desc
        return desc

    def validation(self) -> "ValidationReport":
        """`validate(self)`, computed once per graph."""
        try:
            return self._report
        except AttributeError:
            pass
        self._report = rep = validate(self)
        return rep

    def less_than(self, w: str, v: str) -> bool:
        """w < v in the partial order (a directed path from v to w)."""
        return w in self.descendants()[v]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "level": lv} for v, lv in self.vertices],
            "edges": [[t, h] for t, h in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LayeredGraph":
        try:
            vertices = [
                (_json_str(v["id"], "vertex id"), _json_int(v["level"], "vertex level")) for v in data["vertices"]
            ]
            edges = [_json_edge(e) for e in data["edges"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad layered-graph JSON: {exc}") from exc
        return cls(vertices, edges)

    def __repr__(self):
        return f"LayeredGraph({len(self.vertices)} vertices, {len(self.edges)} edges, height {self.height})"


class ValidationReport(Value):
    """The layered-graph axioms and the unique minimum that a graph breaks, as messages.

    `violations` is a tuple of messages, empty when the graph is valid.
    """

    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(g: LayeredGraph) -> ValidationReport:
    """Check the layered-graph axioms plus the unique-minimum hypothesis."""
    bad = []
    for t, h in g.edges:
        if g.level(t) != g.level(h) + 1:
            bad.append(f"edge level gap: {t}({g.level(t)}) -> {h}({g.level(h)})")
    bottom = g.level_vertices(0)
    if len(bottom) == 0:
        bad.append("no minimum: level 0 is empty")
    elif len(bottom) > 1:
        bad.append(f"non-unique minimum: {list(bottom)}")
    for v, lv in g.vertices:
        if lv > 0 and not g.children(v):
            bad.append(f"no downward edge from {v} (level {lv})")
    return ValidationReport(tuple(bad))


def require_valid(g: LayeredGraph):
    """Raise ValidationError unless g is valid, reading the report g keeps."""
    rep = g.validation()
    if not rep.ok:
        raise ValidationError("; ".join(rep.violations))


def count_down_paths(g: LayeredGraph) -> int:
    """Number of downward paths of one or more positive-level vertices.

    These are the path words of the vertex algebra, every degree at once,
    and every facet of a down-set complex Delta(v, k) is one of them with
    v dropped.  One pass up the levels: the paths starting at v are v
    alone plus v followed by a path starting at a positive-level child.
    """
    paths = {}
    for v, lv in g.vertices:  # sorted by level, so children first
        if lv > 0:
            paths[v] = 1 + sum(paths.get(w, 0) for w in g.children(v))
    return sum(paths.values())


def require_path_cap(g: LayeredGraph):
    """Refuse a graph with more downward paths than the path cap, before any is built."""
    cap = size_cap(PATH_CAP)
    total = count_down_paths(g)
    if total > cap:
        raise SizeLimit(f"{total} downward paths exceeds cap {cap}")


def boolean_graph(n: int) -> LayeredGraph:
    """Subset lattice of {1..n}: level = cardinality, edges drop one element."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = size_cap(VERTEX_CAP)
    if 1 << n > cap:
        raise SizeLimit(f"{1 << n} subsets exceeds cap {cap}")
    vertices = []
    edges = []
    for mask in range(1 << n):
        s = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        vertices.append((set_id(s), len(s)))
        for x in s:
            edges.append((set_id(s), set_id(s - {x})))
    return LayeredGraph(vertices, edges)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _rref_bases(k: int, n: int, q: int):
    """Every k x n matrix over GF(q) in reduced row echelon form, as row tuples."""
    for pivots in itertools.combinations(range(n), k):
        free_cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in itertools.product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(free_cells, values):
                rows[i][j] = val
            yield tuple(tuple(r) for r in rows)


def subspace_graph(n: int, q: int) -> LayeredGraph:
    """Lattice of subspaces of GF(q)^n: level = dimension, edges = codim-1.

    Subspace ids are the rows of the reduced row echelon basis, e.g.
    "⟨110,011⟩"; single-digit entries, so q < 10.

    The covers of a k-space with RREF basis B are its hyperplanes, the
    row spaces of M·B mod q for the RREF (k-1) x k matrices M, one M per
    hyperplane.  The pivot columns p_1 < ... < p_k of B form the identity,
    so row i of M·B has its leading 1 in column p_{m_i}, m_i the i-th
    pivot of M, and column p_{m_i} of M·B is column m_i of M: M·B is in
    RREF already, and its id is looked up without elimination.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q >= 10:
        raise ValueError("subspace ids use single-digit entries; q must be < 10")
    FieldSpec(q)  # refuses a q that is not prime
    cap = size_cap(VERTEX_CAP)
    total = sum(_gaussian_binomial(n, k, q) for k in range(n + 1))
    if total > cap:
        raise SizeLimit(f"{total} subspaces exceeds cap {cap}")

    by_dim = [list(_rref_bases(k, n, q)) for k in range(n + 1)]
    ids = {rows: "⟨" + ",".join("".join(map(str, r)) for r in rows) + "⟩" for bases in by_dim for rows in bases}
    vertices = [(ids[rows], k) for k in range(n + 1) for rows in by_dim[k]]
    edges = []
    for k in range(1, n + 1):
        hyperplanes = list(_rref_bases(k - 1, k, q))
        rows = {r for m in hyperplanes for r in m}  # the rows of every M, each multiplied once per B
        for big in by_dim[k]:
            cols = tuple(zip(*big))
            image = {r: tuple(sum(a * b for a, b in zip(r, col)) % q for col in cols) for r in rows}
            edges += [(ids[big], ids[tuple(image[r] for r in m)]) for m in hyperplanes]
    return LayeredGraph(vertices, edges)


class SimplicialComplex(Value):
    """Finite abstract simplicial complex given by its facets.

    Vertices are ints.  An empty facet list denotes the empty complex
    (only the empty face, dim -1), which arises as the link of a facet.
    `faces[k]` holds the k-dimensional faces as sorted vertex tuples, in
    sorted order; the table is built on first use, as is `star`.
    """

    __slots__ = ("dim", "facets", "_faces", "_star")

    def __init__(self, facets):
        by_size = {}
        for f in facets:
            fs = frozenset(index(v) for v in f)
            if not fs:
                raise ValueError("facets must be nonempty")
            by_size.setdefault(len(fs), set()).add(fs)
        # a facet can only lie inside a strictly larger one, so a pure list needs no test
        maximal = []
        for n, fs in by_size.items():
            larger = [g for m, gs in by_size.items() if m > n for g in gs]
            maximal += [f for f in fs if not any(f < g for g in larger)]
        self.dim = max(by_size, default=0) - 1
        self.facets = tuple(sorted(tuple(sorted(f)) for f in maximal))

    def is_empty(self) -> bool:
        return not self.facets

    @property
    def faces(self) -> tuple:
        try:
            return self._faces
        except AttributeError:
            pass
        rows = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            for k in range(len(f)):
                rows[k].update(itertools.combinations(f, k + 1))
        self._faces = faces = tuple(tuple(sorted(row)) for row in rows)
        return faces

    @property
    def star(self) -> dict:
        """Vertex -> the facets that hold it, in facet order."""
        try:
            return self._star
        except AttributeError:
            pass
        star = {}
        for f in self.facets:
            for v in f:
                star.setdefault(v, []).append(f)
        self._star = star
        return star

    def f_vector(self) -> list:
        return [len(row) for row in self.faces]

    def to_json_dict(self) -> dict:
        return {"facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        try:
            facets = [[_json_int(v, "facet vertex") for v in f] for f in data["facets"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad simplicial-complex JSON: {exc}") from exc
        _require_face_cap(facets)
        return cls(facets)

    def __repr__(self):
        return f"SimplicialComplex({len(self.facets)} facets, dim {self.dim})"


def _require_face_cap(facets):
    """Refuse facets whose face poset, the empty face included, has more elements than the vertex cap.

    The face poset of an m-vertex facet is `boolean_graph(m)`, so a lone
    facet passes exactly when `--boolean m` does.  Counting stops as soon
    as the cap is passed, so a large facet costs at most cap faces.
    """
    cap = size_cap(VERTEX_CAP)
    faces = set()
    for f in facets:
        f = sorted(set(f))
        for k in range(1, len(f) + 1):
            for face in itertools.combinations(f, k):
                faces.add(face)
                if len(faces) >= cap:
                    raise SizeLimit(f"more than {cap} faces, the empty face included, exceeds cap {cap}")


def complex_graph(x: SimplicialComplex) -> LayeredGraph:
    """Face poset of a simplicial complex as a layered graph.

    Each face of the table, a sorted vertex tuple, is the vertex
    `set_id(face)` at level len(face); the empty face is the level-0
    minimum; edges join a face to its codimension-1 faces.
    """
    if x.is_empty():
        raise ValueError("complex must have at least one facet")
    vertices = [(MIN_ID, 0)]
    edges = []
    for row in x.faces:
        for face in row:
            fid = set_id(face)
            vertices.append((fid, len(face)))
            edges += [(fid, set_id(sub)) for sub in itertools.combinations(face, len(face) - 1)]
    return LayeredGraph(vertices, edges)


def hat(g: LayeredGraph) -> LayeredGraph:
    """Add one maximal vertex over everything at the current top level."""
    require_valid(g)
    top_id = TOP_ID
    while top_id in g:
        top_id += "'"
    vertices = list(g.vertices) + [(top_id, g.height + 1)]
    edges = list(g.edges) + [(top_id, v) for v in g.level_vertices(g.height)]
    return LayeredGraph(vertices, edges)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def is_uniform(g: LayeredGraph) -> bool:
    """Down-up connectivity of the children of every vertex.

    Two same-level vertices are linked when they share a lower cover;
    the graph is uniform when, for each vertex, all its children land
    in a single class of the equivalence this generates on their level.
    """
    require_valid(g)
    for i in range(1, g.height + 1):
        uf = _UnionFind(g.level_vertices(i))
        for w in g.level_vertices(i - 1):
            ps = g.parents(w)
            for a, b in zip(ps, ps[1:]):
                uf.union(a, b)
        for t in g.level_vertices(i + 1):
            ws = g.children(t)
            if any(uf.find(a) != uf.find(ws[0]) for a in ws[1:]):
                return False
    return True


def is_pure(x: SimplicialComplex) -> bool:
    """True when every facet has the dimension of the complex."""
    return not x.is_empty() and all(len(f) == x.dim + 1 for f in x.facets)


def _codim1_reached(x: SimplicialComplex) -> set:
    """Indices of the facets joined to facet 0 by a path of shared codim-1 faces.

    Two distinct facets meet in exactly dim vertices when they share a
    dim-vertex subset: they are maximal, so they meet in more only when
    both are the same top-dimensional facet.  The search walks an index
    from each such subset to the facets that hold it.  The empty complex
    reaches no facet.
    """
    d = x.dim
    holders = {}
    for i, f in enumerate(x.facets):
        for ridge in itertools.combinations(f, d):
            holders.setdefault(ridge, []).append(i)
    seen = {0} if x.facets else set()
    stack = list(seen)
    while stack:
        for ridge in itertools.combinations(x.facets[stack.pop()], d):
            for j in holders.pop(ridge, ()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return seen


def is_codim1_connected(x: SimplicialComplex) -> bool:
    """Facet dual graph (adjacency = shared codim-1 face) is connected."""
    return not x.is_empty() and len(_codim1_reached(x)) == len(x.facets)
