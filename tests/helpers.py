"""Shared test oracles, independent of the library's elimination path."""

import itertools


def det_oracle(field, mat):
    """Determinant by permutation expansion."""
    n = mat.nrows
    assert mat.ncols == n
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1
        for i in range(n):
            term = field.mul(term, mat.at(i, perm[i]))
        if inversions % 2:
            term = field.neg(term)
        total = field.add(total, term)
    return total


def bytes_to_symbols_oracle(data, q):
    """s-bit chunks of data through one big integer (quadratic; reference only)."""
    s = q.bit_length() - 1
    acc = int.from_bytes(data, "little")
    mask = (1 << s) - 1
    return [(acc >> shift) & mask for shift in range(0, len(data) * 8, s)]


def symbols_to_bytes_oracle(symbols, q, nbytes):
    """Inverse of bytes_to_symbols_oracle through one big integer."""
    s = q.bit_length() - 1
    acc = 0
    for i, v in enumerate(symbols):
        acc |= v << (i * s)
    acc &= (1 << (nbytes * 8)) - 1
    return acc.to_bytes(nbytes, "little")
