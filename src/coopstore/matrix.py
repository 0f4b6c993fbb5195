"""Dense matrices over a finite field, plus the structured generators.

A Mat is immutable: (field, nrows, ncols, flat row-major tuple of canonical
int elements).  Rank, inverse and solving go through the kernel layer
(``kernels``), whose one row reduction is ``kernels.echelon``; the
products mul and mul_vec are ``dot`` over rows and columns.  lincombs is
the data path's one kernel: several linear combinations of the same symbol
streams per call, on integer byte lanes when the streams are bytes over
GF(2^m), m <= 8, or GF(p), p < 128; lincomb is its one-row case.  The
structured constructors build the code-generator matrices: Vandermonde,
systematic-plus-Cauchy (every square submatrix of which is invertible),
and Moore matrices of Frobenius powers.
"""

from __future__ import annotations

from . import kernels
from .errors import (
    DependentPoints,
    DimensionMismatch,
    DuplicatePoint,
    FieldKindUnsupported,
    FieldTooSmall,
    Singular,
)
from .field import ExtensionField, prime_field


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

    # --- arithmetic ---
    def mul(self, other):
        self._check_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        f = self.field
        cols = [other.col(j) for j in range(other.ncols)]
        return Mat(f, self.nrows, other.ncols, (dot(f, r, c) for r in self.rows() for c in cols))

    __matmul__ = mul

    def mul_vec(self, vec):
        """Matrix times column vector (tuple) -> tuple."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length != column count")
        return tuple(dot(self.field, r, vec) for r in self.rows())

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
    # zero pairs skip the field calls: the per-generation reference's columns and
    # the odometer entropy reference's (tests/helpers.py) rows are often sparse
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def lincomb(field, coeffs, streams):
    """Elementwise sum_i coeffs[i] * streams[i]: lincombs of one row."""
    return next(lincombs(field, [coeffs], streams))


def lincombs(field, rows, streams):
    """Each row's elementwise sum_i row[i] * streams[i], yielded in row order.

    The batched data path's one kernel: every output over the same equal-
    length source streams, a whole stream of generations each, from one
    call, which yields each output as it is made so that the caller can
    place it before the next is built.  Streams are int lists, or bytes /
    bytearrays of field elements when the field has at most 256 elements;
    an output is a list for int lists and bytes for bytes or bytearrays.
    Bytes streams over GF(2^m), m <= 8, and GF(p), p < 128,
    run on integer byte lanes (_lincombs_table, lincomb_branch); every
    other case runs the int-list comprehension, which stays the
    reference.  Streams of unequal length, or a row whose length is not
    the stream count, raise DimensionMismatch before anything is yielded.
    """
    rows = [tuple(row) for row in rows]
    lengths = {len(s) for s in streams}
    if len(lengths) > 1:
        raise DimensionMismatch(f"stream lengths {sorted(lengths)} differ")
    for row in rows:
        if len(row) != len(streams):
            raise DimensionMismatch(f"a row of {len(row)} coefficients for {len(streams)} streams")
    length = lengths.pop() if lengths else 0
    if streams and isinstance(streams[0], (bytes, bytearray)) and field.order <= 256:
        if lincomb_branch(field) == "bytes-table":
            return _lincombs_table(field, rows, streams, length)
        return (bytes(_lincomb_list(field, _terms(row, streams), length)) for row in rows)
    return (_lincomb_list(field, _terms(row, streams), length) for row in rows)


def lincomb_branch(field) -> str:
    """Which lincomb branch the data path's streams over this field take.

    "bytes-table" for GF(2^m), m <= 8, and GF(p), p < 128, whose streams
    are bytes; "int-list" for every other field.
    """
    if (field.kind == "binary" and field.order <= 256) or (field.kind == "prime" and field.order < 128):
        return "bytes-table"
    return "int-list"


def _terms(row, streams):
    return [(c, s) for c, s in zip(row, streams) if c]


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


def _lincombs_table(field, rows, streams, length):
    """Bytes lincombs on integer byte lanes, each source read as an int at most once.

    A source stream is read as one int (int.from_bytes, little-endian,
    one lane per symbol) the first time a term needs it as it stands, and
    that int serves every later row.  A term is then:
    - GF(2^m): that int when c = 1; otherwise the stream translated
      through the product table of c, the region-multiply-by-constant
      table of Plank, Greenan and Miller (FAST 2013).  Terms are summed by
      XOR.
    - GF(p): c times that int when (c + 1)(p - 1) <= 255; otherwise the
      stream translated through the product table of c.  Terms are summed
      by integer addition, which cannot carry from one lane into the next
      while the running lane bound stays at most 255.  A term adds
      c(p - 1), or p - 1 for a table term, to that bound; before a term
      would take it past 255, the sum is translated through the mod-p
      table, which leaves each lane at most p - 1, and the condition above
      keeps that reduced lane plus the term at most 255.  Each output then
      takes one final translate through the mod-p table.
    A row with one nonzero coefficient is its stream (c = 1) or one
    translate, and a zero row is zero bytes.  Lanes must hold field
    elements: shard payloads are checked for that on load.
    """
    times = kernels.product_table
    from_bytes = int.from_bytes
    ints = {}

    def as_int(i):
        x = ints.get(i)
        if x is None:
            x = ints[i] = from_bytes(streams[i], "little")
        return x

    binary = field.kind == "binary"
    if not binary:
        top = field.order - 1
        fits = 255 // top - 1  # the largest c with (c + 1) * top <= 255
        mod = kernels.mod_table(field.order)
    for row in rows:
        terms = [(c, i) for i, c in enumerate(row) if c]
        if len(terms) <= 1:
            if not terms:
                yield bytes(length)
            else:
                c, i = terms[0]
                yield bytes(streams[i] if c == 1 else streams[i].translate(times(field, c)))
            continue
        if binary:
            acc = 0
            for c, i in terms:
                if c == 1:
                    acc ^= as_int(i)
                else:
                    acc ^= from_bytes(streams[i].translate(times(field, c)), "little")
            yield acc.to_bytes(length, "little")
            continue
        acc = bound = 0
        for c, i in terms:
            step = c * top if c <= fits else top
            if bound + step > 255:
                acc = from_bytes(acc.to_bytes(length, "little").translate(mod), "little")
                bound = top
            bound += step
            # each sum is made as it is added, so a row holds at most three
            # stream-sized ints at once
            if c == 1:
                acc += as_int(i)
            elif c <= fits:
                acc += c * as_int(i)
            else:
                acc += from_bytes(streams[i].translate(times(field, c)), "little")
        yield acc.to_bytes(length, "little").translate(mod)


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
    # the check admits frobenius_base only as the base field's order, so
    # x -> x^frobenius_base is field.frobenius
    frobenius = field.frobenius
    out = []
    cur = list(pts)
    for _ in range(rows):
        out.append(tuple(cur))
        cur = [frobenius(c) for c in cur]
    return Mat.from_rows(field, out)


def _check_independent_over_base(field, pts, frobenius_base):
    """Linear independence of pts over the base subfield, via coordinates."""
    if isinstance(field, ExtensionField) and frobenius_base == field.base.order:
        cm = Mat.from_rows(field.base, [field.coords(p) for p in pts])
    elif field.kind == "binary" and frobenius_base == 2:
        # GF(2) coordinates are the bits themselves
        cm = Mat.from_rows(prime_field(2), [tuple((p >> b) & 1 for b in range(field.m)) for p in pts])
    else:
        raise FieldKindUnsupported(
            "independence check supports GF(2^m) over GF(2) and towers over their base"
        )
    if cm.rank() != len(pts):
        raise DependentPoints("points are linearly dependent over the base subfield")
