"""Quadratic presentations, graded dimensions, duals, and the Koszul numerics.

The vertex algebra of a layered graph is generated by the positive-level
vertices with two families of degree-2 relations: products along
non-edges vanish, and each vertex kills the sum of its lower covers.
Those relations have pairwise disjoint supports, so their number is read
off the graph (`vertex_relation_count`) with no elimination.  Its graded
dimensions (`vertex_hilbert`) split into one block per first letter, and
each vertex's block is an exact quotient of its children's blocks, so no
path is ever listed; they are compared against the sign-alternated
inverse Hilbert series of the edge algebra.  Any quadratic presentation,
that of the vertex algebra included, also has the generic route
`graded_dims`, which quotients the full tensor power and serves as the
independent oracle for the blocks; the eliminated presentation is
likewise the oracle for the relation count.
"""

import itertools

from .caps import TENSOR_ENTRY_CAP, size_cap
from .errors import SizeLimit
from .exactlinalg import EchelonBasis, FieldSpec, annihilator_basis
from .laygraph import LayeredGraph, require_path_cap, require_valid
from .mobius import hilbert_series_inverse
from .seriespoly import IntPolynomial, substitute_neg
from .value import Value


class QuadraticPresentation(Value):
    """Generators plus a canonical (RREF) basis of the degree-2 relation space.

    Relation vectors live in the m^2-dimensional tensor square of the
    generator space; coordinate i*m + j is generators[i] (x) generators[j].
    They are sparse: `make` takes mappings {coordinate: value}, and each
    stored relation is a tuple of (coordinate, value) pairs sorted by
    coordinate, so presentations stay hashable and comparable.
    """

    __slots__ = ("generators", "relations", "field")

    @classmethod
    def make(cls, generators, relation_vectors, field: FieldSpec) -> "QuadraticPresentation":
        generators = tuple(generators)
        dim = len(generators) ** 2
        basis = EchelonBasis(field)
        for vec in relation_vectors:
            row = {i: field.of(v) for i, v in vec.items()}
            if any(not 0 <= i < dim for i in row):
                raise ValueError(f"relation coordinate outside the tensor square of dimension {dim}")
            basis.insert(row)
        rows = tuple(tuple(sorted(row.items())) for row in basis.reduced_rows())
        return cls(generators, rows, field)

    @property
    def num_generators(self) -> int:
        return len(self.generators)


def vertex_algebra_presentation(g: LayeredGraph, field: FieldSpec) -> QuadraticPresentation:
    """Vertex-algebra presentation: generators are the positive-level vertices.

    Relations: u (x) v for every ordered pair without an edge u -> v, and
    v (x) (sum of lower covers of v) for every v of level >= 2.  Level-1
    vertices cover only the minimum, which is not a generator, so they
    contribute no sum relation.
    """
    require_valid(g)
    gens = [v for v, lv in g.vertices if lv > 0]
    index = {v: i for i, v in enumerate(gens)}
    m = len(gens)
    vectors = []
    edge_set = set(g.edges)
    for u, v in itertools.product(gens, repeat=2):
        if (u, v) not in edge_set:
            vectors.append({index[u] * m + index[v]: 1})
    for v in gens:
        if g.level(v) >= 2:
            vectors.append({index[v] * m + index[w]: 1 for w in g.children(v)})
    return QuadraticPresentation.make(gens, vectors, field)


def vertex_relation_count(g: LayeredGraph) -> int:
    """Dimension of the degree-2 relation space of the vertex algebra, read off the graph.

    The relations of `vertex_algebra_presentation` have pairwise disjoint
    supports in the tensor square: each monomial u (x) v sits on its own
    non-edge pair, and v (x) (sum of lower covers of v) sits on v's own
    edges, which are neither non-edges nor edges of another vertex.  A
    valid graph gives every positive-level vertex a lower cover, so no
    relation is zero, and nonzero vectors with disjoint supports are
    independent over every field.  The count is therefore m^2 minus the
    edges between generators (those whose head has level >= 1) plus the
    vertices of level >= 2, with m the number of generators.
    """
    require_valid(g)
    m = sum(1 for _, lv in g.vertices if lv > 0)
    edges = sum(1 for _, h in g.edges if g.level(h) > 0)
    return m * m - edges + sum(1 for _, lv in g.vertices if lv >= 2)


def graded_dims(p: QuadraticPresentation, maxdeg: int) -> list:
    """dims[k] = dim of degree k of the quadratic algebra, k = 0..maxdeg.

    The generic route: degree k is the full tensor power modulo every
    embedding V^(x)a (x) R (x) V^(x)b of the relations.  It knows nothing
    of graphs, so on a vertex-algebra presentation it is the independent
    oracle for `vertex_hilbert`.  The ambient size (rows x columns) is
    capped.
    """
    cap = size_cap(TENSOR_ENTRY_CAP)
    m = p.num_generators
    field = p.field
    dims = [1]
    for k in range(1, maxdeg + 1):
        if k == 1:
            dims.append(m)
            continue
        ambient = m**k
        n_rows = (k - 1) * len(p.relations) * m ** (k - 2)
        if ambient * max(n_rows, 1) > cap:
            raise SizeLimit(f"degree {k}: {n_rows} x {ambient} exceeds cap {cap}")
        basis = EchelonBasis(field)
        for a in range(k - 1):
            b = k - 2 - a
            for rel in p.relations:
                for left in itertools.product(range(m), repeat=a):
                    for right in itertools.product(range(m), repeat=b):
                        row = {}
                        for pair, v in rel:
                            word = left + divmod(pair, m) + right
                            idx = 0
                            for w in word:
                                idx = idx * m + w
                            row[idx] = row.get(idx, 0) + v
                        basis.insert({i: v for i, v in row.items() if v})
        dims.append(ambient - basis.rank)
    return dims


def _vertex_dims(g: LayeredGraph, field: FieldSpec) -> dict:
    """v -> h_v = [0, 1, dim A_v,2, ..., dim A_v,level(v)] for every positive-level v.

    A_v,d is the span of the d-letter downward paths from v modulo the
    relations.  Words with a non-edge adjacency are relations, and every
    sum relation keeps the first letter, so degree d splits into these
    blocks.  The sum relations past the first position are v times a
    child's, so A_v,d is the direct sum of the children's A_w,d-1,
    modulo the first position's rows: at d = 2 the sum of the children,
    and at d > 2 one row per grandchild u and basis element b of A_u,d-2,
    namely the sum over the children w above u of the class of w b in
    A_w,d-1.  Each quotient is an echelon basis whose free columns are
    the basis of A_v,d; a vertex's column classes are kept for its
    parents, and a vertex with no parent needs only its rank.  Rows go
    in shortest first, which keeps the fill-in low.
    """
    dims = {}
    classes = {}  # (w, d) -> (first column of each child's block, class of each column in A_w,d)
    for v, lv in g.vertices:
        if lv == 0:
            continue
        kids = g.children(v)
        h = [0, 1]
        for d in range(2, lv + 1):
            offset = {}
            size = 0
            for w in kids:
                offset[w] = size
                size += dims[w][d - 1]
            if d == 2:
                rows = [{offset[w]: 1 for w in kids}]
            else:
                rows = []
                for u in sorted({u for w in kids for u in g.children(w)}):
                    above = [(offset[w], *classes[w, d - 1]) for w in g.parents(u) if w in offset]
                    for b in range(dims[u][d - 2]):
                        row = {}
                        for o, child_offset, cls in above:
                            for j, val in cls[child_offset[u] + b].items():
                                row[o + j] = val
                        rows.append(row)
            basis = EchelonBasis(field)
            for row in sorted(rows, key=len):
                basis.insert(row)
            h.append(size - basis.rank)
            if g.parents(v):
                classes[v, d] = (offset, basis.column_classes(size))
        dims[v] = h
    return dims


def vertex_hilbert(g: LayeredGraph, field: FieldSpec) -> IntPolynomial:
    """Hilbert polynomial of the vertex algebra: 1 + the sum of the per-vertex h_v.

    The blocks come from `_vertex_dims`, a transfer from each vertex's
    children that never lists a path.  The path cap still guards the
    input, before any work: the topology side lists the same paths as
    down-set facets, and `dual` and `koszul-check` keep the bound they
    have always had.
    """
    require_valid(g)
    require_path_cap(g)
    dims = [1] + [0] * max(g.height, 1)
    for h in _vertex_dims(g, field).values():
        for d, n in enumerate(h):
            dims[d] += n
    return IntPolynomial(dims)


def quadratic_dual(p: QuadraticPresentation) -> QuadraticPresentation:
    """Dual presentation: dual generators, relations = annihilator of R.

    The pairing identifies coordinates, <a (x) b, f (x) g> = f(a) g(b),
    so the annihilator is the kernel of the relation matrix.
    """
    m = p.num_generators
    ann = annihilator_basis([dict(r) for r in p.relations], m * m, p.field)
    return QuadraticPresentation.make(tuple(f"{g}*" for g in p.generators), ann, p.field)


class KoszulVerdict(Value):
    """Comparison of the two Hilbert polynomials that agree iff numerically Koszul.

    `series_side` is the inverse Hilbert polynomial at -tau and
    `algebra_side` the Hilbert polynomial of the vertex algebra.
    """

    __slots__ = ("passes", "first_divergence_degree", "series_side", "algebra_side")


def numerical_koszul_check(g: LayeredGraph, field: FieldSpec) -> KoszulVerdict:
    """Exact polynomial comparison; no truncation is involved.

    The series side is the inverse Hilbert polynomial with tau -> -tau;
    the algebra side is the vertex-algebra Hilbert polynomial over the
    requested field.  The field must be passed explicitly because the
    algebra side is characteristic-sensitive.
    """
    algebra_side = vertex_hilbert(g, field)  # first: its path cap fails fast, before the Möbius rows
    series_side = substitute_neg(hilbert_series_inverse(g))
    first = None
    for k in range(max(series_side.degree, algebra_side.degree) + 1):
        if series_side[k] != algebra_side[k]:
            first = k
            break
    return KoszulVerdict(first is None, first, series_side, algebra_side)


def discrepancy_lhs_table(g: LayeredGraph, field: FieldSpec) -> list:
    """Series/algebra discrepancy, degrees 0..height, from the algebra side:

        [tau^k] ( H_vertex_algebra(tau) - H_inverse(-tau) ).

    The table is signed, on uniform graphs too, and the topological side
    reproduces its negative entries.
    """
    verdict = numerical_koszul_check(g, field)
    diff = verdict.algebra_side - verdict.series_side
    return [diff[k] for k in range(g.height + 1)]
