"""Elimination kernels: rank, echelon bases and square-system solving.

Exact Gaussian elimination in pure Python over any field object exposing
add/sub/mul/inv on canonical int elements (0 is the additive, 1 the
multiplicative identity): prime fields, GF(2^m) and towers alike.

echelon(basis, rows, ncols, field) reduces rows into an echelon basis and
returns the grown basis, so a caller can keep a basis and extend it later
instead of eliminating the rows it holds again; rank is the length of a
basis grown from nothing, or from a kept basis.  On a lane field a row is
one int of w-byte lanes, one lane per column, column 0 most significant
(pack), and a row operation is whole-row integer arithmetic plus
bytes.translate, the per-constant tables of Plank, Greenan and Miller
(FAST 2013) that matrix.lincombs uses.  Which field takes which branch:

- GF(p), p <= 16 (w = 1), _echelon_lanes: row + (p - v) * b, with the
  mod-p table's translate deferred while no lane can pass 255, the lazy
  reduction matrix._lincombs_table makes too.  A reduced lane plus j row
  operations holds at most (p - 1) + j(p - 1)^2, so a row is reduced
  every 63 row operations at GF(3), 15 at GF(5), 6 at GF(7), 2 at GF(11)
  and 1 at GF(13) (lane_tables), and once more before it joins the
  basis; nothing carries into the next lane, and pivot coefficients are
  read mod p.  The basis is bit for bit the one a translate after every
  row operation gives (tests/helpers.echelon_lanes_oracle).
- GF(2^m), m <= 8 (w = 1), _echelon_lanes: row XOR (b translated
  through the product table of v).
- Towers (w = the field's nbytes), _echelon_tower: row XOR v * b, where
  v * b is the XOR over the nonzero base digits v_i of v of (y^i * b)
  translated through the product table of v_i.  The pivot's ladder
  y^i * b comes from ExtensionField.ladder, and ExtensionField.times_ladder
  forms v * b from it.  GF(2^m) would fit this loop as the one-digit
  case, but its echelon calls then take about 1.5 times as long with a
  call per row operation, 1.9 times with the digit loop inline
  (benchmarks/tower_lanes_ab.md), so it keeps its one translate.
- GF(p), p > 16, and GF(2^m), m > 8, _echelon_generic: tuples of
  elements through the field's own sub/mul/inv.

_echelon_lanes reads its tables from one lane_tables lookup per call, an
lru_cache keyed by the field; a field computes its hash once and keeps it.

The leading column and its value come from bit_length(); leading_in
counts a basis's rows that lead in its first c columns, the rank of the
basis cut to them.  _rank_generic,
a flat row-major loop through the field's own methods, is the reference
for every field.

solve(A, B) runs on echelon as well, the one row reduction here: it
eliminates the rows of [A | B], then reduces that basis, last row first,
to [I | X].
"""

from __future__ import annotations

from functools import lru_cache


def backend_name(field) -> str:
    """The kernel that runs for a field; there is one, for every field."""
    return "pure-python"


def lanes(field) -> bool:
    """Whether echelon and rank run this field on byte-lane rows."""
    return (
        (field.kind == "prime" and field.order <= 16)
        or (field.kind == "binary" and field.order <= 256)
        or field.kind == "tower"
    )


def pack(field, row):
    """A row as echelon takes it: an int of byte lanes on a lane field, else a tuple.

    A tower element takes its nbytes bytes, most significant first; every
    other lane field's element takes one byte.
    """
    if field.kind == "tower":
        w = field.nbytes
        return int.from_bytes(b"".join(x.to_bytes(w, "big") for x in row), "big")
    return int.from_bytes(bytes(row), "big") if lanes(field) else tuple(row)


def unpack(field, row, ncols):
    """A packed row (see pack) as a tuple of ncols elements."""
    if field.kind == "tower":
        w = field.nbytes
        raw = row.to_bytes(ncols * w, "big")
        return tuple(int.from_bytes(raw[i : i + w], "big") for i in range(0, len(raw), w))
    return tuple(row.to_bytes(ncols, "big")) if lanes(field) else row


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
    if field.kind == "tower":
        return _echelon_tower(basis, rows, ncols, field)
    if lanes(field):
        return _echelon_lanes(basis, rows, ncols, field)
    return _echelon_generic(basis, rows, ncols, field)


def rank(data, nrows, ncols, field, basis=()):
    """Rank of a flat row-major matrix of field elements stacked on an echelon basis."""
    rows = [pack(field, data[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
    return len(echelon(basis, rows, ncols, field))


def leading_in(basis, ncols, c, field):
    """How many rows of an echelon basis lead in its first c columns.

    That count is the rank of the basis's span cut to those columns: the
    rows leading there keep distinct leading columns when cut, so they stay
    independent, and every other row cuts to zero.  On a lane field a row
    leads in the first c columns exactly when its bit_length() passes the
    ncols - c lanes after them.
    """
    if lanes(field):
        floor = (ncols - c) * 8 * (field.nbytes if field.kind == "tower" else 1)
        return sum(b.bit_length() > floor for b in basis)
    return sum(_lead(b) < c for b in basis)


def _echelon_lanes(basis, rows, ncols, field):
    """echelon on byte-lane ints: GF(p), p <= 16, and GF(2^m), m <= 8.

    Over GF(p) a row's lanes are reduced mod p only every budget row
    operations (see lane_tables) and once more before the row joins the
    basis, so pivot coefficients are read mod p.  A GF(2^m) lane is always
    below the field's order, so the same read leaves it as it is.
    """
    times, inverse, mod, budget = lane_tables(field)
    p = field.order
    from_bytes = int.from_bytes
    pivots = [(b.bit_length() - 1, b) for b in basis]  # (leading lane's shift, row)
    for row in rows:
        left = budget  # row operations before row's lanes must be reduced
        for s, b in pivots:
            v = ((row >> s) & 255) % p
            if v:
                if mod is None:
                    row ^= from_bytes(b.to_bytes(ncols, "big").translate(times[v]), "big")
                else:
                    row += (p - v) * b
                    left -= 1
                    if left:
                        continue
                    row = from_bytes(row.to_bytes(ncols, "big").translate(mod), "big")
                    left = budget
                if not row:
                    break
        else:
            if left != budget:
                row = from_bytes(row.to_bytes(ncols, "big").translate(mod), "big")
            if not row:
                continue
            s = (row.bit_length() - 1) & ~7
            v = row >> s
            if v != 1:
                row = from_bytes(row.to_bytes(ncols, "big").translate(inverse[v]), "big")
            pivots.append((s, row))
            pivots.sort(reverse=True)
            if len(pivots) == ncols:
                break
    if len(pivots) == len(basis):
        return basis
    return tuple([b for _, b in pivots])


def _echelon_tower(basis, rows, ncols, field):
    """echelon on packed tower rows: row XOR v * b, v * b from b's ladder.

    A pivot is (leading lane's shift, row, ladder).  An element fills the
    low bits of its lane, so field.order - 1 masks it out of the lane.
    """
    lane, mask = 8 * field.nbytes, field.order - 1
    ladder, times = field.ladder, field.times_ladder
    # a basis row leads with 1, the lowest bit of its leading lane
    pivots = [(b.bit_length() - 1, b, ladder(b, ncols)) for b in basis]
    for row in rows:
        for s, b, rungs in pivots:
            v = (row >> s) & mask
            if v:
                row ^= times(v, rungs)
                if not row:
                    break
        else:
            if not row:
                continue
            s = (row.bit_length() - 1) // lane * lane
            v = row >> s
            if v != 1:
                row = times(field.inv(v), ladder(row, ncols))
            pivots.append((s, row, ladder(row, ncols)))
            pivots.sort(reverse=True)
            if len(pivots) == ncols:
                break
    return tuple(b for _, b, _ in pivots)


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

    Returns the flat row-major solution, or None when A is singular.  The
    rows of [A | B] go through echelon: A is singular exactly when their
    basis has fewer than n rows or its last row leads outside A.
    Otherwise each basis row, last first, is reduced against the rows
    after it, one echelon call each, which leaves [I | X].
    """
    w = n + bcols
    rows = [
        pack(field, tuple(a_data[i * n : (i + 1) * n]) + tuple(b_data[i * bcols : (i + 1) * bcols]))
        for i in range(n)
    ]
    basis = echelon((), rows, w, field)
    if len(basis) < n or (n and not any(unpack(field, basis[-1], w)[:n])):
        return None
    reduced = ()
    for row in reversed(basis):
        reduced = echelon(reduced, [row], w, field)
    return [v for row in reduced for v in unpack(field, row, w)[n:]]


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
def lane_tables(field):
    """What _echelon_lanes reads for a field: (times, inverse, mod, budget).

    times[c] and inverse[c] are the product tables of c and of 1/c
    (inverse[0] is None).  mod is mod_table(p) over GF(p) and None over
    GF(2^m), where lanes need no reduction.  Over GF(p) a row operation
    adds at most (p - 1)^2 to a lane, so a lane reduced mod p holds at
    most (p - 1) + budget * (p - 1)^2 <= 255 after budget more of them:
    2 at GF(11), 6 at GF(7), 15 at GF(5), 63 at GF(3), 1 at GF(13).
    """
    times = product_tables(field)
    inverse = (None,) + tuple(times[field.inv(c)] for c in range(1, field.order))
    if field.kind == "binary":
        return times, inverse, None, 0
    p = field.order
    return times, inverse, mod_table(p), (256 - p) // (p - 1) ** 2


@lru_cache(maxsize=None)
def mod_table(p):
    """x -> x mod p for every byte x."""
    return bytes(x % p for x in range(256))
