"""Elimination kernels: rank, echelon bases and square-system solving.

Exact Gaussian elimination in pure Python over any field object exposing
add/sub/mul/inv on canonical int elements (0 is the additive, 1 the
multiplicative identity): prime fields, GF(2^m) and towers alike.

echelon(basis, rows, ncols, field) reduces rows into an echelon basis and
returns the grown basis, so a caller can keep a basis and extend it later
instead of eliminating the rows it holds again; rank is the length of a
basis grown from nothing, or from a kept basis.  On a lane field (GF(p)
with p <= 16, GF(2^m) with m <= 8) a row is one int with one byte lane
per column, column 0 most significant (pack), and a row operation is
whole-row integer arithmetic plus one bytes.translate, the per-constant
tables of Plank, Greenan and Miller (FAST 2013) that matrix.lincomb uses:

- GF(p): row + (p - v) * b, then the mod-p table.  A lane holds at most
  (p - 1) + (p - 1)^2 <= 255 before the translate, so nothing carries
  into the next lane.
- GF(2^m): row XOR (b translated through the product table of v).

The leading column and its value come from bit_length().  On every other
field (GF(p) with p > 16, larger GF(2^m), towers) echelon and rank reduce
tuples of elements through the field's own sub/mul/inv.  _rank_generic,
a flat row-major loop, is the reference for every field.
"""

from __future__ import annotations

from functools import lru_cache


def backend_name(field) -> str:
    """The kernel that runs for a field; there is one, for every field."""
    return "pure-python"


def lanes(field) -> bool:
    """Whether echelon and rank run this field on byte-lane rows."""
    return (field.kind == "prime" and field.order <= 16) or (
        field.kind == "binary" and field.order <= 256
    )


def pack(field, row):
    """A row as echelon takes it: an int of byte lanes on a lane field, else a tuple."""
    return int.from_bytes(bytes(row), "big") if lanes(field) else tuple(row)


def echelon(basis, rows, ncols, field):
    """The echelon basis of basis plus rows, as a tuple of packed rows.

    basis is a tuple that echelon returned (() to start from nothing): rows
    with leading entry 1, in strictly increasing leading column, so one
    pass over it reduces a new row.  Each row of rows (see pack) that is
    independent of the basis so far joins it.  Rows stop being read once
    the basis has ncols rows.  Neither argument is mutated.
    """
    if len(basis) >= ncols:
        return basis
    if lanes(field):
        return _echelon_lanes(basis, rows, ncols, field)
    return _echelon_generic(basis, rows, ncols, field)


def rank(data, nrows, ncols, field, basis=()):
    """Rank of a flat row-major matrix of field elements stacked on an echelon basis."""
    rows = [pack(field, data[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
    return len(echelon(basis, rows, ncols, field))


def _echelon_lanes(basis, rows, ncols, field):
    """echelon on byte-lane ints: GF(p), p <= 16, and GF(2^m), m <= 8."""
    binary = field.kind == "binary"
    p = field.order
    mod = None if binary else mod_table(p)
    times = product_tables(field)
    from_bytes = int.from_bytes
    pivots = [(b.bit_length() - 1, b) for b in basis]  # (leading lane's shift, row)
    for row in rows:
        for s, b in pivots:
            v = (row >> s) & 255
            if v:
                if binary:
                    row ^= from_bytes(b.to_bytes(ncols, "big").translate(times[v]), "big")
                else:
                    row = from_bytes((row + (p - v) * b).to_bytes(ncols, "big").translate(mod), "big")
                if not row:
                    break
        else:
            if not row:
                continue
            s = (row.bit_length() - 1) & ~7
            v = row >> s
            if v != 1:
                row = from_bytes(row.to_bytes(ncols, "big").translate(times[field.inv(v)]), "big")
            pivots.append((s, row))
            pivots.sort(reverse=True)
            if len(pivots) == ncols:
                break
    return tuple(b for _, b in pivots)


def _echelon_generic(basis, rows, ncols, field):
    """echelon on tuples of field elements: every field without byte lanes."""
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots = [(_lead(b), b) for b in basis]
    for row in rows:
        for c, b in pivots:
            f = row[c]
            if f:
                row = [sub(x, mul(f, y)) if y else x for x, y in zip(row, b)]
        c = _lead(row)
        if c == ncols:
            continue
        f = inv(row[c])
        row = tuple(mul(f, x) for x in row)
        pivots.append((c, row))
        pivots.sort()
        if len(pivots) == ncols:
            break
    return tuple(b for _, b in pivots)


def _lead(row):
    """The first nonzero column of a row, or its length when it is zero."""
    for c, v in enumerate(row):
        if v:
            return c
    return len(row)


def _rank_generic(data, nrows, ncols, field):
    """Rank by a flat row-major loop through the field's own sub/mul/inv: the reference."""
    m = list(data)
    sub, mul, inv = field.sub, field.mul, field.inv
    r = 0
    for col in range(ncols):
        piv = -1
        for row in range(r, nrows):
            if m[row * ncols + col]:
                piv = row
                break
        if piv < 0:
            continue
        if piv != r:
            for c in range(col, ncols):
                m[r * ncols + c], m[piv * ncols + c] = m[piv * ncols + c], m[r * ncols + c]
        pinv = inv(m[r * ncols + col])
        for row in range(r + 1, nrows):
            f = m[row * ncols + col]
            if f:
                f = mul(f, pinv)
                m[row * ncols + col] = 0
                for c in range(col + 1, ncols):
                    v = m[r * ncols + c]
                    if v:
                        m[row * ncols + c] = sub(m[row * ncols + c], mul(f, v))
        r += 1
        if r == nrows:
            break
    return r


def solve(a_data, n, b_data, bcols, field):
    """Solve A X = B for square A (n x n), B given row-major (n x bcols).

    Returns the flat row-major solution, or None when A is singular.
    """
    w = n + bcols
    m = [0] * (n * w)
    for i in range(n):
        m[i * w : i * w + n] = a_data[i * n : (i + 1) * n]
        m[i * w + n : (i + 1) * w] = b_data[i * bcols : (i + 1) * bcols]
    sub, mul, inv = field.sub, field.mul, field.inv

    for col in range(n):
        piv = -1
        for row in range(col, n):
            if m[row * w + col]:
                piv = row
                break
        if piv < 0:
            return None
        if piv != col:
            for c in range(col, w):
                m[col * w + c], m[piv * w + c] = m[piv * w + c], m[col * w + c]
        pinv = inv(m[col * w + col])
        for c in range(col, w):
            v = m[col * w + c]
            if v:
                m[col * w + c] = mul(v, pinv)
        for row in range(n):
            if row == col:
                continue
            f = m[row * w + col]
            if f:
                m[row * w + col] = 0
                for c in range(col + 1, w):
                    v = m[col * w + c]
                    if v:
                        m[row * w + c] = sub(m[row * w + c], mul(f, v))

    out = [0] * (n * bcols)
    for i in range(n):
        out[i * bcols : (i + 1) * bcols] = m[i * w + n : (i + 1) * w]
    return out


@lru_cache(maxsize=None)
def product_table(field, c):
    """x -> c * x for every byte x; bytes outside the field map to 0."""
    mul = field.mul
    return bytes(mul(c, x) if x < field.order else 0 for x in range(256))


@lru_cache(maxsize=None)
def product_tables(field):
    """product_table(field, c) for every element c, indexed by c."""
    return tuple(product_table(field, c) for c in range(field.order))


@lru_cache(maxsize=None)
def mod_table(p):
    """x -> x mod p for every byte x."""
    return bytes(x % p for x in range(256))
