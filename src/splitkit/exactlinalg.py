"""Exact scalar fields (rationals, GF(p)) and dense matrix algebra.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
elements are ints reduced into [0, p).  No floating point anywhere.
`EchelonBasis` is the one elimination kernel: dense ranks and inverses
are read off an echelon basis of the matrix rows, and every null space,
dense or sparse, comes from `annihilator_basis`.  Over Q the kernel
eliminates fraction-free: it keeps each row a primitive integer vector
and turns back to Fractions only in `reduced_rows`, so every result it
hands out over Q is still a Fraction.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrix

_WORD_LIMIT = 2**31  # single-word modular arithmetic only


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Field of scalars: rationals when `p` is None, else GF(p).

    Elements are plain values (Fraction / int), not wrapped objects; the
    FieldSpec supplies the arithmetic.  Keeps matrices light and hashable.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not _is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")
            if self.p >= _WORD_LIMIT:
                raise ValueError(f"modulus {self.p} exceeds 2^31 word limit")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def of(self, value):
        """Coerce int, Fraction, or a "p/q" string into a field element."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.p is None:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


RATIONALS = FieldSpec()
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def parse_field(name: str) -> FieldSpec:
    """Parse "q" / "gf<p>" field names used in CLI flags and JSON."""
    name = name.strip().lower()
    if name in ("q", "qq", "rationals"):
        return RATIONALS
    if name.startswith("gf") and name[2:].isdecimal():
        return FieldSpec(int(name[2:]))
    raise ValueError(f"unknown field {name!r} (expected 'q' or 'gf<p>')")


class EchelonBasis:
    """Incremental row-echelon basis of sparse vectors over a field.

    Rows are dicts {column: value}; a row's pivot is its smallest column.
    Over GF(p) each stored row has its pivot normalized to 1.  Over Q each
    stored row is a primitive integer vector (content 1) with a positive
    pivot: inputs have their denominators cleared, and a row is reduced
    against a pivot row by a*row - b*pivot, with (a, b) the two leading
    entries divided by their gcd, then divided by its content, so no
    Fraction is created during elimination.  Used for every rank in the
    package (dense matrices, boundary maps, sparse relation systems) and
    for canonical (RREF) storage of row spaces.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivots: dict[int, dict] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict, piv: dict, col: int) -> dict:
        """Cancel row[col] against the pivot row whose pivot is col, in place.

        Over GF(p) this is row - row[col]*piv (the pivot entry is 1); over
        Q it is a*row - b*piv divided by its content, a nonzero multiple
        of the same difference.
        """
        p = self.field.p
        b = row[col]
        if p is not None:
            for c, v in piv.items():
                nv = (row.get(c, 0) - b * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            return row
        a = piv[col]
        g = gcd(a, b)
        if g != a:
            a //= g
            for c in row:
                row[c] *= a
        b //= g
        for c, v in piv.items():
            nv = row.get(c, 0) - b * v
            if nv:
                row[c] = nv
            else:
                del row[c]
        if row:
            g = gcd(*row.values())
            if g != 1:
                for c in row:
                    row[c] //= g
        return row

    def reduce(self, vec: dict) -> dict:
        """Return vec with its leading column reduced past every pivot.

        Result is empty iff vec lies in the current row space.  Over Q the
        result is a primitive integer vector, a nonzero multiple of the
        reduced vector.
        """
        p = self.field.p
        if p is not None:
            row = {c: v % p for c, v in vec.items() if v % p}
        else:
            row = {c: v for c, v in vec.items() if v}
            if any(type(v) is not int for v in row.values()):
                den = lcm(*(v.denominator for v in row.values()))
                row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
            if row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
        pivots = self.pivots
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                break
            row = self._eliminate(row, piv, col)
        return row

    def insert(self, vec: dict) -> bool:
        """Add a vector; True if it increased the rank."""
        row = self.reduce(vec)
        if not row:
            return False
        col = min(row)
        f = self.field
        if f.p is not None:
            inv = f.inv(row[col])
            row = {c: f.mul(inv, v) for c, v in row.items()}
        elif row[col] < 0:
            row = {c: -v for c, v in row.items()}
        self.pivots[col] = row
        return True

    def reduced_rows(self) -> list[dict]:
        """Fully back-reduced (RREF) rows, sorted by pivot column.

        Over Q the integer rows are divided by their pivot entries, so
        the result holds Fractions with every pivot equal to 1.
        """
        cols = sorted(self.pivots)
        final = {}  # rows with a larger pivot, already fully reduced
        for col in reversed(cols):
            row = dict(self.pivots[col])
            # a final row holds no pivot column but its own, so clearing
            # one pivot column never brings another into the row
            for pc in row.keys() & final.keys():
                row = self._eliminate(row, final[pc], pc)
            final[col] = row
        if self.field.p is not None:
            return [final[c] for c in cols]
        return [{c: Fraction(v, final[col][col]) for c, v in final[col].items()} for col in cols]


class DenseMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries, field: FieldSpec, shape=None):
        entries = [list(r) for r in entries]
        if shape is not None:
            rows, cols = shape
        else:
            rows = len(entries)
            cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged rows")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(field.of(v) for v in r) for r in entries)
        self.field = field

    def __setattr__(self, name, value):
        if hasattr(self, "field"):
            raise AttributeError("DenseMatrix is immutable")
        super().__setattr__(name, value)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "DenseMatrix":
        one, zero = field.one(), field.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldSpec) -> "DenseMatrix":
        if rows == 0:
            return cls([], field, shape=(0, cols))
        zero = field.zero()
        return cls([[zero] * cols for _ in range(rows)], field)

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries, self.rows, self.cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other):
        self._check_same_shape(other)
        f = self.field
        return DenseMatrix(
            [[f.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            f,
            shape=(self.rows, self.cols),
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        f = self.field
        return DenseMatrix(
            [[f.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            f,
            shape=(self.rows, self.cols),
        )

    def __neg__(self):
        f = self.field
        return DenseMatrix([[f.neg(a) for a in r] for r in self.entries], f, shape=(self.rows, self.cols))

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            if self.cols != other.rows or self.field != other.field:
                raise ValueError("incompatible shapes/fields for product")
            f = self.field
            bt = list(zip(*other.entries)) if other.entries else [()] * other.cols
            out = []
            for ra in self.entries:
                row = []
                for cb in bt:
                    acc = f.zero()
                    for a, b in zip(ra, cb):
                        if a and b:
                            acc = f.add(acc, f.mul(a, b))
                    row.append(acc)
                out.append(row)
            return DenseMatrix(out, f, shape=(self.rows, other.cols))
        return self.scale(other)

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return DenseMatrix([[f.mul(c, a) for a in r] for r in self.entries], f, shape=(self.rows, self.cols))

    def __pow__(self, k: int):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        acc = DenseMatrix.identity(self.rows, self.field)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(list(zip(*self.entries)) if self.entries else [], self.field, shape=(self.cols, self.rows))

    def trace(self):
        f = self.field
        acc = f.zero()
        for i in range(min(self.rows, self.cols)):
            acc = f.add(acc, self.entries[i][i])
        return acc

    def is_zero(self) -> bool:
        return all(not v for r in self.entries for v in r)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols or self.field != other.field:
            raise ValueError("shape/field mismatch")

    def rank(self) -> int:
        basis = EchelonBasis(self.field)
        for row in self.entries:
            basis.insert({j: v for j, v in enumerate(row) if v})
        return basis.rank

    def nullspace_basis(self) -> list[list]:
        """Basis of {x : self @ x = 0}, one vector per free column."""
        zero = self.field.zero()
        rows = [{j: v for j, v in enumerate(row) if v} for row in self.entries]
        ann = annihilator_basis(rows, self.cols, self.field)
        return [[vec.get(j, zero) for j in range(self.cols)] for vec in ann]

    def solve(self, rhs: "DenseMatrix") -> "DenseMatrix":
        """The X with self . X = rhs: right half of the reduced row echelon form of [self | rhs]."""
        if self.rows != self.cols:
            raise ValueError("solve with a non-square matrix")
        if rhs.rows != self.rows or rhs.field != self.field:
            raise ValueError("incompatible shapes/fields for solve")
        f = self.field
        n = self.rows
        basis = EchelonBasis(f)
        for row, rhs_row in zip(self.entries, rhs.entries):
            vec = {j: v for j, v in enumerate(row) if v}
            vec.update((n + j, v) for j, v in enumerate(rhs_row) if v)
            basis.insert(vec)
        if basis.rank < n or any(c >= n for c in basis.pivots):  # some pivot is not in self's columns
            raise SingularMatrix(f"matrix of size {n} has rank < {n}")
        return DenseMatrix(
            [[row.get(n + j, f.zero()) for j in range(rhs.cols)] for row in basis.reduced_rows()],
            f,
            shape=(n, rhs.cols),
        )

    def inverse(self) -> "DenseMatrix":
        return self.solve(DenseMatrix.identity(self.rows, self.field))

    def to_lists(self):
        return [list(r) for r in self.entries]

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.entries)
        return f"DenseMatrix({self.rows}x{self.cols} over {self.field}: [{body}])"


def annihilator_basis(rows: list[dict], dim: int, field: FieldSpec) -> list[dict]:
    """Basis of {f : sum_j f[j]*r[j] = 0 for every r in rows}, one per free column.

    Rows and basis vectors are sparse mappings {coordinate: value} in a
    coordinate space of dimension `dim`; the pairing is the coordinate dot
    product, which matches <a@b, f@g> = f(a)g(b) when both sides are
    written in the same product basis.
    """
    basis = EchelonBasis(field)
    for r in rows:
        row = {j: field.of(v) for j, v in r.items()}
        if any(not 0 <= j < dim for j in row):
            raise ValueError(f"coordinate outside the ambient dimension {dim}")
        basis.insert(row)
    rref = basis.reduced_rows()
    pivots = {min(row) for row in rref}
    ann = {c: {c: field.one()} for c in range(dim) if c not in pivots}
    for row in rref:
        pc = min(row)
        for c, v in row.items():
            if c != pc:  # an RREF row is its pivot plus free columns
                ann[c][pc] = field.neg(v)
    return list(ann.values())


def char_poly(m: DenseMatrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c1, ..., cn], descending.

    Faddeev-LeVerrier recursion; divides by 1..n, so rationals only.
    """
    if not m.field.is_rational:
        raise ValueError("char_poly requires the rational field")
    if m.rows != m.cols:
        raise ValueError("char_poly of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    mk = DenseMatrix.identity(n, m.field)
    for k in range(1, n + 1):
        if k > 1:
            mk = m * mk + DenseMatrix.identity(n, m.field).scale(coeffs[-1])
        prod = m * mk
        c = -Fraction(prod.trace(), k)
        coeffs.append(c)
    return coeffs
