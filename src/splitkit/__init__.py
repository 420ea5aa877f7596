"""splitkit: exact-arithmetic toolkit around factorizations of matrix
polynomials, layered graphs, Hilbert series, and combinatorial topology."""

from .dualalg import (
    KoszulVerdict,
    QuadraticPresentation,
    vertex_algebra_presentation,
    discrepancy_lhs_table,
    graded_dims,
    vertex_hilbert,
    vertex_relation_count,
    numerical_koszul_check,
    quadratic_dual,
)
from .errors import (
    FaceNotInComplex,
    GenericityFailure,
    HypothesisViolation,
    NegativeDimension,
    NonUnitConstantTerm,
    NonzeroRemainder,
    ParseError,
    SingularMatrix,
    SizeLimit,
    SplitkitError,
    TruncationMismatch,
    ValidationError,
)
from .exactlinalg import (
    GF2,
    GF3,
    RATIONALS,
    DenseMatrix,
    FieldSpec,
    annihilator_basis,
    char_poly,
    parse_field,
)
from .laygraph import (
    LayeredGraph,
    SimplicialComplex,
    boolean_graph,
    complex_graph,
    hat,
    is_codim1_connected,
    is_pure,
    is_uniform,
    subspace_graph,
    validate,
)
from .mobius import (
    graded_mobius,
    hilbert_series,
    hilbert_series_inverse,
    mobius_value,
    subset_lattice_series,
)
from .ncfactor import (
    DiamondCheck,
    GenericityReport,
    MatrixPolynomial,
    OrderingCheck,
    PseudoRootTable,
    RootSystem,
    block_vandermonde,
    check_all_orderings,
    check_diamond,
    check_diamonds,
    expand_factorization,
    genericity_check,
    random_generic_roots,
    vandermonde_polynomial,
    viete_coefficients,
)
from .seriespoly import (
    IntPolynomial,
    TruncatedSeries,
    poly_divide,
    series_inverse,
    series_mul,
    substitute_neg,
)
from .topo import (
    KoszulityPrediction,
    betti,
    discrepancy_rhs_table,
    euler_characteristic,
    link,
    local_homology_vanishes,
    predict_koszulity,
)

__version__ = "0.1.0"
