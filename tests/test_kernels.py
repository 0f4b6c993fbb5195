"""The rank and echelon kernels against the generic field-method loop."""

import random

import pytest

from coopstore import kernels
from coopstore.field import binary_field, prime_field


def _random_rows(rng, field, nrows, ncols):
    """Random rows, some zero, some repeated, some combinations of earlier ones."""
    q = field.order
    add, mul = field.add, field.mul
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append((0,) * ncols)
        elif kind < 0.3 and rows:
            rows.append(rng.choice(rows))
        elif kind < 0.5 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            ca, cb = rng.randrange(q), rng.randrange(q)
            rows.append(tuple(add(mul(ca, x), mul(cb, y)) for x, y in zip(a, b)))
        else:
            rows.append(tuple(rng.randrange(q) for _ in range(ncols)))
    return rows


def _flat(rows):
    return [v for row in rows for v in row]


@pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
def test_prime_rank_matches_generic(p):
    field = prime_field(p)
    rng = random.Random(p)
    deficient = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        data = _flat(_random_rows(rng, field, nrows, ncols))
        before = list(data)
        got = kernels.rank(data, nrows, ncols, field)
        assert got == kernels._rank_generic(data, nrows, ncols, field)
        assert data == before
        deficient += got < min(nrows, ncols)
    assert deficient > 50


@pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
def test_prime_rank_edge_cases(p):
    field = prime_field(p)
    cases = [
        ([0] * 12, 3, 4, 0),
        ([1, 2 % p, 0, 1, 2 % p, 0], 2, 3, 1),
        ([0, 0, 1, 0, 1, 0, 1, 0, 0], 3, 3, 3),
        ([p - 1, 1, 1, p - 1], 2, 2, 1),
        ([1, 0, 0, 0, 1, 0], 6, 1, 1),
        ([1, 0, 1, 0, 1, 0], 1, 6, 1),
        ([], 2, 0, 0),  # rows of no columns
        ([], 0, 3, 0),
    ]
    for data, nrows, ncols, expect in cases:
        assert kernels.rank(data, nrows, ncols, field) == expect
        assert kernels._rank_generic(data, nrows, ncols, field) == expect


ECHELON_FIELDS = {
    "GF(2)": lambda: prime_field(2),
    "GF(3)": lambda: prime_field(3),
    "GF(11)": lambda: prime_field(11),
    "GF(13)": lambda: prime_field(13),
    "GF(2^4)": lambda: binary_field(4),
    "GF(2^8)": lambda: binary_field(8),
    "GF(17)": lambda: prime_field(17),
}


def _generic_rank(field, rows, ncols):
    return kernels._rank_generic(_flat(rows), len(rows), ncols, field)


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
def test_echelon_matches_generic_rank(name):
    field = ECHELON_FIELDS[name]()
    rng = random.Random(name)
    deficient = 0
    for _ in range(300):
        nrows, ncols = rng.randint(0, 14), rng.randint(1, 12)
        rows = _random_rows(rng, field, nrows, ncols)
        packed = [kernels.pack(field, r) for r in rows]
        before = list(packed)
        basis = kernels.echelon((), packed, ncols, field)
        expect = _generic_rank(field, rows, ncols)
        assert len(basis) == expect
        assert kernels.rank(_flat(rows), nrows, ncols, field) == expect
        assert packed == before
        deficient += expect < min(nrows, ncols)
        # every basis row has leading entry 1, in strictly increasing columns
        unpacked = [_unpack(field, b, ncols) for b in basis]
        leads = [next(c for c, v in enumerate(u) if v) for u in unpacked]
        assert all(u[c] == 1 for u, c in zip(unpacked, leads))
        assert leads == sorted(set(leads))
        # and the basis spans exactly the rows
        assert _generic_rank(field, rows + unpacked, ncols) == expect
    assert deficient > 50


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
def test_echelon_extension_equals_rank_from_scratch(name):
    field = ECHELON_FIELDS[name]()
    rng = random.Random("extend " + name)
    for _ in range(200):
        ncols = rng.randint(1, 12)
        given = _random_rows(rng, field, rng.randint(0, 10), ncols)
        rows = _random_rows(rng, field, rng.randint(0, 10), ncols)
        if given and rng.random() < 0.5:  # rows that share given's span
            rows += rng.sample(given, min(len(given), 3))
        base = kernels.echelon((), [kernels.pack(field, r) for r in given], ncols, field)
        snapshot = tuple(base)
        grown = kernels.echelon(base, [kernels.pack(field, r) for r in rows], ncols, field)
        assert base == snapshot
        assert len(base) == _generic_rank(field, given, ncols)
        assert len(grown) == _generic_rank(field, given + rows, ncols)
        assert kernels.rank(_flat(rows), len(rows), ncols, field, basis=base) == len(grown)


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
def test_echelon_empty_rows(name):
    field = ECHELON_FIELDS[name]()
    assert kernels.echelon((), [], 5, field) == ()
    zero = kernels.pack(field, (0,) * 5)
    assert kernels.echelon((), [zero, zero], 5, field) == ()
    basis = kernels.echelon((), [kernels.pack(field, (0, 1, 2 % field.order, 0, 1))], 5, field)
    assert len(basis) == 1
    assert kernels.echelon(basis, [], 5, field) == basis
    assert kernels.echelon(basis, [zero], 5, field) == basis


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
def test_echelon_stops_reading_at_full_rank(name):
    field = ECHELON_FIELDS[name]()
    ncols = 4
    identity = [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]

    def rows(head):
        yield from (kernels.pack(field, r) for r in head)
        raise AssertionError("a row was read after the basis reached full rank")

    basis = kernels.echelon((), rows(identity), ncols, field)
    assert len(basis) == ncols
    assert kernels.echelon(basis, rows([]), ncols, field) == basis
    # an extension that completes the basis stops reading too
    half = kernels.echelon((), [kernels.pack(field, r) for r in identity[:2]], ncols, field)
    assert len(kernels.echelon(half, rows(identity[2:]), ncols, field)) == ncols


def _unpack(field, row, ncols):
    if kernels.lanes(field):
        return tuple(row.to_bytes(ncols, "big"))
    return tuple(row)
