"""Dense matrices over a finite field, plus the structured generators.

A Mat is immutable: (field, nrows, ncols, flat row-major tuple of canonical
int elements).  Rank, inverse and solving go through the kernel layer
(``kernels``).  The structured constructors build the
code-generator matrices: Vandermonde, systematic-plus-Cauchy (every square
submatrix of which is invertible), and Moore matrices of Frobenius powers.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernels
from .errors import (
    DependentPoints,
    DimensionMismatch,
    DuplicatePoint,
    FieldKindUnsupported,
    FieldTooSmall,
    Singular,
)
from .field import ExtensionField


class Mat:
    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, nrows: int, ncols: int, data):
        data = tuple(data)
        if len(data) != nrows * ncols:
            raise DimensionMismatch(
                f"need {nrows * ncols} entries for a {nrows}x{ncols} matrix, got {len(data)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # --- constructors ---
    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, (0,) * (nrows * ncols))

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def from_rows(cls, field, rows):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise DimensionMismatch("from_rows needs at least one row")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), w, tuple(v for r in rows for v in r))

    # --- access ---
    def at(self, i, j):
        return self.data[i * self.ncols + j]

    def row(self, i):
        return self.data[i * self.ncols : (i + 1) * self.ncols]

    def col(self, j):
        return tuple(self.data[i * self.ncols + j] for i in range(self.nrows))

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    # --- shape operations ---
    def transpose(self):
        return Mat(
            self.field,
            self.ncols,
            self.nrows,
            tuple(self.at(i, j) for j in range(self.ncols) for i in range(self.nrows)),
        )

    def submatrix(self, row_idx, col_idx):
        return Mat(
            self.field,
            len(row_idx),
            len(col_idx),
            tuple(self.at(i, j) for i in row_idx for j in col_idx),
        )

    def vstack(self, other):
        self._check_field(other)
        if self.ncols != other.ncols:
            raise DimensionMismatch("vstack column counts differ")
        return Mat(self.field, self.nrows + other.nrows, self.ncols, self.data + other.data)

    # --- arithmetic ---
    def mul(self, other):
        self._check_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        add, mul = f.add, f.mul
        out = [0] * (self.nrows * other.ncols)
        for i in range(self.nrows):
            for k in range(self.ncols):
                a = self.at(i, k)
                if not a:
                    continue
                base = i * other.ncols
                orow = k * other.ncols
                for j in range(other.ncols):
                    b = other.data[orow + j]
                    if b:
                        out[base + j] = add(out[base + j], mul(a, b))
        return Mat(f, self.nrows, other.ncols, out)

    __matmul__ = mul

    def mul_vec(self, vec):
        """Matrix times column vector (tuple) -> tuple."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length != column count")
        f = self.field
        out = []
        for i in range(self.nrows):
            acc = 0
            for j, v in enumerate(vec):
                if v:
                    acc = f.add(acc, f.mul(self.at(i, j), v))
            out.append(acc)
        return tuple(out)

    # --- elimination-backed operations ---
    def rank(self) -> int:
        return kernels.rank(self.data, self.nrows, self.ncols, self.field)

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        sol = kernels.solve(self.data, n, Mat.identity(self.field, n).data, n, self.field)
        if sol is None:
            raise Singular(f"{n}x{n} matrix has rank < {n}")
        return Mat(self.field, n, n, sol)

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises Singular when no unique solution."""
        self._check_field(rhs)
        if self.nrows != self.ncols:
            raise DimensionMismatch("solve needs a square matrix")
        if rhs.nrows != self.nrows:
            raise DimensionMismatch("right-hand side row count mismatch")
        sol = kernels.solve(self.data, self.nrows, rhs.data, rhs.ncols, self.field)
        if sol is None:
            raise Singular("coefficient matrix is singular")
        return Mat(self.field, self.nrows, rhs.ncols, sol)

    def _check_field(self, other):
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.nrows))
        return f"Mat({self.nrows}x{self.ncols} over {self.field!r}: {body})"


def dot(field, u, v):
    """Inner product sum_i u_i * v_i over the field."""
    # add/mul looked up per nonzero pair: faster on brute_force_entropy's sparse rows
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def lincomb(field, coeffs, streams):
    """Elementwise sum_i coeffs[i] * streams[i] over equal-length symbol streams.

    The batched data path's one kernel: a whole stream of generations per
    call.  Streams are int lists, or bytes / bytearrays when the field has
    at most 256 elements; the result has the type of its input.  Bytes
    streams over GF(2^m), m <= 8, and GF(p), p < 128, run through product
    tables (see lincomb_branch); every other case runs the int-list
    comprehension, which stays the reference.
    """
    terms = [(c, s) for c, s in zip(coeffs, streams) if c]
    length = len(streams[0]) if streams else 0
    if streams and isinstance(streams[0], (bytes, bytearray)) and field.order <= 256:
        if lincomb_branch(field) == "bytes-table":
            return _lincomb_table(field, terms, length)
        return bytes(_lincomb_list(field, terms, length))
    return _lincomb_list(field, terms, length)


def lincomb_branch(field) -> str:
    """Which lincomb branch the data path's streams over this field take.

    "bytes-table" for GF(2^m), m <= 8, and GF(p), p < 128, whose streams
    are bytes; "int-list" for every other field.
    """
    if (field.kind == "binary" and field.order <= 256) or (field.kind == "prime" and field.order < 128):
        return "bytes-table"
    return "int-list"


def _lincomb_list(field, terms, length):
    if not terms:
        return [0] * length
    if field.kind == "prime":
        p = field.order
        (c, s), rest = terms[0], terms[1:]
        if not rest:
            return [c * x % p for x in s]
        acc = [c * x for x in s]
        for c, s in rest[:-1]:
            acc = [a + c * x for a, x in zip(acc, s)]
        c, s = rest[-1]
        return [(a + c * x) % p for a, x in zip(acc, s)]
    add, mul = field.add, field.mul
    acc = [0] * length
    for c, s in terms:
        acc = [add(a, mul(c, x)) for a, x in zip(acc, s)]
    return acc


def _lincomb_table(field, terms, length):
    """Bytes lincomb: one translate per term, one big-int sum over all of them.

    Each term c * stream is stream.translate(product table of c), the
    region-multiply-by-constant table of Plank, Greenan and Miller (FAST
    2013).  The products are added as the ints int.from_bytes gives: by XOR
    in GF(2^m); in GF(p) by integer addition, which cannot carry from one
    byte to the next while the bytes' bound stays at most 255, with one
    translate through the mod-p table whenever the next term would pass it.
    """
    if not terms:
        return bytes(length)
    if len(terms) == 1:
        c, s = terms[0]
        return s.translate(_product_table(field, c))
    if field.kind == "binary":
        acc = 0
        for c, s in terms:
            acc ^= int.from_bytes(s.translate(_product_table(field, c)), "little")
        return acc.to_bytes(length, "little")
    top = field.order - 1
    mod = _mod_table(field.order)
    acc = bound = 0
    for c, s in terms:
        if bound + top > 255:
            acc = int.from_bytes(acc.to_bytes(length, "little").translate(mod), "little")
            bound = top
        acc += int.from_bytes(s.translate(_product_table(field, c)), "little")
        bound += top
    return acc.to_bytes(length, "little").translate(mod)


@lru_cache(maxsize=None)
def _product_table(field, c):
    """x -> c * x for every byte x; bytes outside the field map to 0."""
    mul = field.mul
    return bytes(mul(c, x) if x < field.order else 0 for x in range(256))


@lru_cache(maxsize=None)
def _mod_table(p):
    return bytes(x % p for x in range(256))


def vandermonde(field, points, k: int) -> Mat:
    """k x n matrix with entry (i, j) = points[j]^i (i = 0..k-1).

    Every k x k column submatrix is invertible because the points are
    pairwise distinct.
    """
    pts = [field.element(p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("evaluation points must be pairwise distinct")
    rows = []
    cur = [1] * len(pts)
    for _ in range(k):
        rows.append(tuple(cur))
        cur = [field.mul(c, p) for c, p in zip(cur, pts)]
    return Mat.from_rows(field, rows)


def systematic_superregular(field, t: int, n: int) -> Mat:
    """t x n matrix [I_t | C] whose every t x t column submatrix is invertible.

    C is a Cauchy block on 2 distinct point sets: C[i][j] = 1/(x_i - y_j).
    Every square submatrix of a Cauchy matrix is invertible, which carries
    over to the square submatrices of [I | C].
    """
    if n < t:
        raise DimensionMismatch("need n >= t")
    if field.order < n:
        raise FieldTooSmall(f"need field order >= {n} distinct points, have {field.order}")
    xs = [field.element(i) for i in range(t)]
    ys = [field.element(i) for i in range(t, n)]
    rows = []
    for i in range(t):
        ident = [1 if j == i else 0 for j in range(t)]
        cauchy = [field.inv(field.sub(xs[i], y)) for y in ys]
        rows.append(tuple(ident + cauchy))
    return Mat.from_rows(field, rows)


def moore_matrix(field, points, rows: int, frobenius_base: int) -> Mat:
    """Matrix with entry (i, j) = points[j]^(frobenius_base^i), i = 0..rows-1.

    The generator of a rank-metric (Gabidulin) code when the points are
    linearly independent over the subfield of the given order.
    """
    pts = [field.element(p) for p in points]
    if rows > len(pts):
        raise DimensionMismatch("more rows than points")
    _check_independent_over_base(field, pts, frobenius_base)
    out = []
    cur = list(pts)
    for _ in range(rows):
        out.append(tuple(cur))
        cur = [field.pow(c, frobenius_base) for c in cur]
    return Mat.from_rows(field, out)


def _check_independent_over_base(field, pts, frobenius_base):
    """Linear independence of pts over the base subfield, via coordinates."""
    if isinstance(field, ExtensionField) and frobenius_base == field.base.order:
        coord_field = field.base
        coord_rows = [field.coords(p) for p in pts]
    elif field.kind == "binary" and frobenius_base == 2:
        coord_field = None  # GF(2) coordinates are the bits themselves
        coord_rows = [tuple((p >> b) & 1 for b in range(field.m)) for p in pts]
    elif field.kind == "prime" and frobenius_base == field.order:
        if len(pts) > 1:
            raise DependentPoints("a prime field is 1-dimensional over itself")
        if pts and pts[0] == 0:
            raise DependentPoints("zero point")
        return
    else:
        raise FieldKindUnsupported(
            "independence check supports GF(2^m) over GF(2) and towers over their base"
        )
    if coord_field is None:
        from .field import prime_field

        coord_field = prime_field(2)
    cm = Mat.from_rows(coord_field, coord_rows)
    if cm.rank() != len(pts):
        raise DependentPoints("points are linearly dependent over the base subfield")
