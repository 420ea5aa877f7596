"""Exact scalar fields (rationals, GF(p)), the one elimination kernel, and rational matrices.

Everything here is exact, and no floating point appears anywhere.  A
rational scalar is a `fractions.Fraction` and a prime-field element an int
in [0, p).  `EchelonBasis` is the one elimination kernel, over Q or GF(p),
on sparse rows: every rank, dense or sparse, is read off one, and
every null space comes from `annihilator_basis`.  Over Q the kernel
eliminates fraction-free: it keeps each row a primitive integer vector and
divides by pivots only on the way out.  `reduced_rows` hands out
Fractions; `column_classes`, whose values feed further elimination and
every null space, hands out an int wherever the pivot divides the
entry.  A `DenseMatrix` is a rational matrix, one integer matrix over a
common positive denominator in lowest terms, so its arithmetic makes no
Fraction; its ranks, solves and inverses run the kernel over Q.  GF(p)
reaches the package only through the kernel's sparse rows.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import index, mul

from .errors import SingularMatrix
from .value import Value

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


class FieldSpec(Value):
    """Field of scalars: rationals when `p` is None, else GF(p).

    Elements are plain values (Fraction / int), not wrapped objects; the
    FieldSpec supplies only the coercion into the field, and the
    elimination kernel does its own arithmetic (reduction mod p over GF(p)).
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            p = index(p)
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
            if p >= _WORD_LIMIT:
                raise ValueError(f"modulus {p} exceeds 2^31 word limit")
        self.p = p

    def of(self, value):
        """Coerce int, Fraction, or a "p/q" string into a field element; a float is a TypeError."""
        if isinstance(value, str):
            value = Fraction(value)
        elif isinstance(value, float):  # its exact binary value is never the number meant
            raise TypeError(f"a float is not an exact field element: {value!r}")
        if self.p is None:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        return value % self.p

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

    def _reduce(self, vec: dict) -> tuple:
        """(row, col): a fresh copy of vec reduced past every pivot, and its leading column.

        Elimination works in place on that copy.  Over GF(p) its entries
        are reduced mod p as it is taken; over Q it is divided by its
        content in place, after a second copy only when a Fraction entry
        has a denominator to clear.  col is None when the row is empty.
        """
        p = self.field.p
        if p is not None:
            row = {c: r for c, v in vec.items() if (r := v % p)}
        else:
            row = {c: v for c, v in vec.items() if v}
            if any(type(v) is not int for v in row.values()):
                den = lcm(*(v.denominator for v in row.values()))
                row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
            if row:
                g = gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
        pivots = self.pivots
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                return row, col
            row = self._eliminate(row, piv, col)
        return row, None

    def reduce(self, vec: dict) -> dict:
        """Return vec with its leading column reduced past every pivot.

        Result is empty iff vec lies in the current row space.  Over Q the
        result is a primitive integer vector, a nonzero multiple of the
        reduced vector.
        """
        return self._reduce(vec)[0]

    def insert(self, vec: dict) -> bool:
        """Add a vector; True if it increased the rank.

        The reduced copy is stored as it is, normalised in place only when
        its leading entry is not already 1 over GF(p) or positive over Q.
        """
        row, col = self._reduce(vec)
        if col is None:
            return False
        lead = row[col]
        p = self.field.p
        if p is not None:
            if lead != 1:
                inv = pow(lead, p - 2, p)
                for c in row:
                    row[c] = inv * row[c] % p
        elif lead < 0:
            for c in row:
                row[c] = -row[c]
        self.pivots[col] = row
        return True

    def _back_reduced(self) -> dict:
        """Pivot column -> fully back-reduced row.

        Over GF(p) each row has pivot 1; over Q each is a primitive integer
        row with a positive pivot, not yet divided by it.
        """
        final = {}  # rows with a larger pivot, already fully reduced
        for col in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[col])
            # a final row holds no pivot column but its own, so clearing
            # one pivot column never brings another into the row
            for pc in row.keys() & final.keys():
                row = self._eliminate(row, final[pc], pc)
            final[col] = row
        return final

    def column_classes(self, size: int) -> list[dict]:
        """Class of each unit vector e_c, c < size, modulo the row space.

        A class is given in free-column coordinates: {j: value} on the
        j-th column, in increasing order, that holds no pivot.  So a free
        column's class is a unit vector, and a pivot column's is minus its
        back-reduced row, divided by the pivot, on the free columns.  Over
        Q a value is an int where the pivot divides the entry and a
        Fraction otherwise.
        """
        final = self._back_reduced()
        ordinal = {}
        for c in range(size):
            if c not in final:
                ordinal[c] = len(ordinal)
        p = self.field.p
        classes = []
        for c in range(size):
            row = final.get(c)
            if row is None:
                classes.append({ordinal[c]: 1})
            elif p is not None:
                classes.append({ordinal[f]: -v % p for f, v in row.items() if f != c})
            else:
                piv = row[c]
                classes.append(
                    {ordinal[f]: -v // piv if v % piv == 0 else Fraction(-v, piv) for f, v in row.items() if f != c}
                )
        return classes

    def reduced_rows(self) -> list[dict]:
        """Fully back-reduced (RREF) rows, sorted by pivot column.

        Over Q the integer rows are divided by their pivot entries, so
        the result holds Fractions with every pivot equal to 1.
        """
        final = self._back_reduced()
        cols = sorted(final)
        if self.field.p is not None:
            return [final[c] for c in cols]
        return [{c: Fraction(v, final[col][col]) for c, v in final[col].items()} for col in cols]


class DenseMatrix(Value):
    """Immutable dense rational matrix, held as one integer matrix.

    The matrix is `num` / `den`: `num` is a tuple of int tuples and `den`
    a positive int, kept in lowest terms, gcd(den, every entry) = 1, so
    equal matrices have equal (den, num); built from values, `den` is the
    lcm of their reduced denominators.  Arithmetic works on the integers:
    a product takes integer dot products over den . den', a sum brings
    both sides to the lcm of their denominators, and one gcd brings each
    result back to lowest terms.  Fractions appear only in `entries`,
    `__getitem__` and `trace`.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries):
        entries = [list(r) for r in entries]
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged rows")
        values = [[RATIONALS.of(v) for v in r] for r in entries]
        # the lcm of reduced denominators leaves the pair in lowest terms
        den = lcm(*(v.denominator for r in values for v in r))
        num = tuple(tuple(v.numerator * (den // v.denominator) for v in r) for r in values)
        super().__init__(rows, cols, num, den)

    @classmethod
    def _make(cls, num, den: int, shape) -> "DenseMatrix":
        """The matrix num / den (den > 0), in lowest terms."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(v // g for v in r) for r in num)
                den //= g
        m = object.__new__(cls)
        # a new object has no slot set, and factorization makes thousands: skip Value's per-slot check
        fill, (rows, cols) = object.__setattr__, shape
        fill(m, "rows", rows)
        fill(m, "cols", cols)
        fill(m, "num", num)
        fill(m, "den", den)
        return m

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls._make(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, (n, n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls._make(((0,) * cols,) * rows, 1, (rows, cols))

    @property
    def entries(self) -> tuple:
        """The entries as Fractions."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in r) for r in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "DenseMatrix":
        """self + sign . other, both brought to the lcm of their denominators."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        num = tuple(tuple(a * fa + b * fb for a, b in zip(ra, rb)) for ra, rb in zip(self.num, other.num))
        return DenseMatrix._make(num, den, (self.rows, self.cols))

    def __neg__(self):
        num = tuple(tuple(-v for v in r) for r in self.num)
        return DenseMatrix._make(num, self.den, (self.rows, self.cols))

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            if self.cols != other.rows:
                raise ValueError("incompatible shapes for product")
            bt = tuple(zip(*other.num)) if other.num else ((),) * other.cols
            num = tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in self.num)
            return DenseMatrix._make(num, self.den * other.den, (self.rows, other.cols))
        return self.scale(other)

    def scale(self, c):
        if not isinstance(c, int):  # an int is its own numerator over 1
            c = RATIONALS.of(c)
        num = tuple(tuple(c.numerator * v for v in r) for r in self.num)
        return DenseMatrix._make(num, self.den * c.denominator, (self.rows, self.cols))

    def __pow__(self, k: int):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        acc = DenseMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def transpose(self) -> "DenseMatrix":
        num = tuple(zip(*self.num)) if self.num else ((),) * self.cols
        return DenseMatrix._make(num, self.den, (self.cols, self.rows))

    def trace(self) -> Fraction:
        return Fraction(sum(self.num[i][i] for i in range(min(self.rows, self.cols))), self.den)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.num)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rank(self) -> int:
        basis = EchelonBasis(RATIONALS)
        for row in self.num:
            basis.insert({j: v for j, v in enumerate(row) if v})
        return basis.rank

    def nullspace_basis(self) -> list[list]:
        """Basis of {x : self @ x = 0}, one vector per free column."""
        rows = [{j: v for j, v in enumerate(row) if v} for row in self.num]
        ann = annihilator_basis(rows, self.cols, RATIONALS)
        return [[Fraction(vec.get(j, 0)) for j in range(self.cols)] for vec in ann]

    def solve(self, rhs: "DenseMatrix") -> "DenseMatrix":
        """The X with self . X = rhs, read off the reduced row echelon form of [self | rhs].

        With self = A/a and rhs = B/b, the integer rows [b.A | a.B] have
        the same solution.  After integer back-reduction row i is
        [p_i e_i | r_i], so X = r_i / p_i, over the lcm of the pivots p_i.
        """
        if self.rows != self.cols:
            raise ValueError("solve with a non-square matrix")
        if rhs.rows != self.rows:
            raise ValueError("incompatible shapes for solve")
        n = self.rows
        basis = EchelonBasis(RATIONALS)
        sa, sb = rhs.den, self.den
        for row, rhs_row in zip(self.num, rhs.num):
            vec = {j: sa * v for j, v in enumerate(row) if v}
            vec.update((n + j, sb * v) for j, v in enumerate(rhs_row) if v)
            basis.insert(vec)
        if basis.rank < n or any(c >= n for c in basis.pivots):  # some pivot is not in self's columns
            raise SingularMatrix(f"matrix of size {n} has rank < {n}")
        final = basis._back_reduced()
        den = lcm(*(final[i][i] for i in range(n)))
        num = tuple(
            tuple(final[i].get(n + j, 0) * (den // final[i][i]) for j in range(rhs.cols)) for i in range(n)
        )
        return DenseMatrix._make(num, den, (n, rhs.cols))

    def inverse(self) -> "DenseMatrix":
        return self.solve(DenseMatrix.identity(self.rows))

    def to_lists(self):
        return [list(r) for r in self.entries]

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.entries)
        return f"DenseMatrix({self.rows}x{self.cols}: [{body}])"


def annihilator_basis(rows: list[dict], dim: int, field: FieldSpec) -> list[dict]:
    """Basis of {f : sum_j f[j]*r[j] = 0 for every r in rows}, one per free column.

    Rows and basis vectors are sparse mappings {coordinate: value} in a
    coordinate space of dimension `dim`; the pairing is the coordinate dot
    product, which matches <a@b, f@g> = f(a)g(b) when both sides are
    written in the same product basis.  Over Q a value is an int wherever
    it is integral, as in `column_classes`.
    """
    basis = EchelonBasis(field)
    for r in rows:
        row = {j: field.of(v) for j, v in r.items()}
        if any(not 0 <= j < dim for j in row):
            raise ValueError(f"coordinate outside the ambient dimension {dim}")
        basis.insert(row)
    # column j of the class matrix is the null vector of the j-th free column
    ann = [{} for _ in range(dim - basis.rank)]
    for c, image in enumerate(basis.column_classes(dim)):
        for j, v in image.items():
            ann[j][c] = v
    return ann


def char_poly(m: DenseMatrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c1, ..., cn], descending.

    Faddeev-LeVerrier recursion; divides by 1..n.
    """
    if m.rows != m.cols:
        raise ValueError("char_poly of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    mk = DenseMatrix.identity(n)
    for k in range(1, n + 1):
        if k > 1:
            mk = m * mk + DenseMatrix.identity(n).scale(coeffs[-1])
        prod = m * mk
        c = -Fraction(prod.trace(), k)
        coeffs.append(c)
    return coeffs
