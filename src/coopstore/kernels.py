"""Elimination kernels: rank and square-system solving.

Exact Gaussian elimination with first-nonzero pivoting on flat row-major
matrices, in pure Python.  Works over any field object exposing
add/sub/mul/inv on canonical int elements (0 is the additive, 1 the
multiplicative identity): prime fields, GF(2^m) and towers alike.
"""

from __future__ import annotations


def backend_name(field) -> str:
    """The kernel that runs for a field; there is one, for every field."""
    return "pure-python"


def rank(data, nrows, ncols, field):
    """Rank of a row-major matrix given as a flat list of field elements."""
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
