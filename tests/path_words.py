"""The path-word route to the vertex algebra's graded dimensions, as a test oracle.

`dualalg.vertex_hilbert` builds each vertex's quotient from its
children's and never lists a path; this module ranks the path words of
each degree from scratch, so it shares no step with that transfer but
the elimination kernel.
"""

from splitkit.exactlinalg import EchelonBasis
from splitkit.laygraph import require_valid
from splitkit.seriespoly import IntPolynomial


def path_word_hilbert(g, field) -> IntPolynomial:
    """Hilbert polynomial of the vertex algebra, by exact rank on path words.

    Words with a non-edge adjacency are already relations, so degree k is
    spanned by the downward paths of k positive-level vertices, and no
    path has more letters than the height.  The sum relation of u,
    embedded with its free letter at position j >= 1, is the sum of the
    path words that have u at j-1 and agree everywhere but at j.  So each
    group of words with equal (p[:j], p[j+1:]) is one row; the rows go in
    position by position.
    """
    require_valid(g)
    words = [(v,) for v, lv in g.vertices if lv > 0]
    dims = [1, len(words)]
    for k in range(2, g.height + 1):
        words = [p + (w,) for p in words if g.level(p[-1]) >= 2 for w in g.children(p[-1])]
        basis = EchelonBasis(field)
        for j in range(1, k):
            rows = {}
            for i, p in enumerate(words):
                rows.setdefault((p[:j], p[j + 1 :]), {})[i] = 1
            for row in rows.values():
                basis.insert(row)
        dims.append(len(words) - basis.rank)
    return IntPolynomial(dims)
