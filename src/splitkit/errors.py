"""Exception types shared across the toolkit."""


class SplitkitError(Exception):
    """Base class for all library errors."""


class SingularMatrix(SplitkitError):
    """A square matrix required to be invertible has rank < dimension."""


class TruncationMismatch(SplitkitError):
    """Two truncated series with different truncation degrees were combined."""


class NonUnitConstantTerm(SplitkitError):
    """Series inversion needs constant term +1 or -1."""


class GenericityFailure(SplitkitError):
    """A block Vandermonde matrix or quasideterminant is singular.

    `subset` names the offending index set so callers can report which
    configuration of roots broke genericity.
    """

    def __init__(self, subset, detail=""):
        self.subset = tuple(sorted(subset))
        msg = f"genericity failure on index subset {self.subset}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SizeLimit(SplitkitError):
    """A computation would exceed the configured ambient-size cap."""


class NegativeDimension(SplitkitError):
    """A Hilbert-series coefficient came out negative; convention bug."""


class NonzeroRemainder(SplitkitError):
    """The inverse Hilbert series failed to divide into a polynomial."""


class FaceNotInComplex(SplitkitError):
    """A simplex passed to link() is not a face of the complex."""


class HypothesisViolation(SplitkitError):
    """Input complex fails purity / codimension-one connectivity."""


class ValidationError(SplitkitError):
    """Structured input (graph / complex JSON) violates its schema."""


class ParseError(ValidationError):
    """Input file is not even JSON; message carries line/column."""
