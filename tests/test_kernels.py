"""The rank and echelon kernels against the generic field-method loop,
and solve against the permutation-expansion determinant."""

import functools
import itertools
import random

import pytest

from coopstore import kernels
from coopstore.errors import ReduciblePolynomial
from coopstore.field import PUBLISHED_TOWERS, ExtensionField, binary_field, prime_field
from coopstore.matrix import Mat

from helpers import det_oracle, echelon_lanes_oracle


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


@functools.cache
def _first_tower(m, degree):
    """The tower of degree `degree` over GF(2^m) whose reduction polynomial
    is the first that ExtensionField accepts.

    Candidates are the coefficients below the leading one, constant term
    first as ExtensionField takes them, in itertools.product order; the
    constant term starts at 1, since with 0 the polynomial has the factor y.
    """
    base = binary_field(m)
    for low in itertools.product(range(1, base.order), *[range(base.order)] * (degree - 1)):
        try:
            return ExtensionField(base, degree, low + (1,))
        except ReduciblePolynomial:
            continue
    raise AssertionError(f"no irreducible tower of degree {degree} over GF(2^{m})")


ECHELON_FIELDS = {
    "GF(2)": lambda: prime_field(2),
    "GF(3)": lambda: prime_field(3),
    "GF(11)": lambda: prime_field(11),
    "GF(13)": lambda: prime_field(13),
    "GF(2^4)": lambda: binary_field(4),
    "GF(2^8)": lambda: binary_field(8),
    "GF(17)": lambda: prime_field(17),
    # towers, on the XOR lanes: one byte per element, two, and the published three
    "GF(4^3)": lambda: _first_tower(2, 3),
    "GF(256^2)": lambda: _first_tower(8, 2),
    "GF(16^6)": lambda: ExtensionField(binary_field(4), 6, PUBLISHED_TOWERS[(16, 6)]),
}
TOWERS = ["GF(4^3)", "GF(256^2)", "GF(16^6)"]


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
        unpacked = [kernels.unpack(field, b, ncols) for b in basis]
        leads = [next(c for c, v in enumerate(u) if v) for u in unpacked]
        assert all(u[c] == 1 for u, c in zip(unpacked, leads))
        assert leads == sorted(set(leads))
        # and the basis spans exactly the rows
        assert _generic_rank(field, rows + unpacked, ncols) == expect
    assert deficient > 50


@pytest.mark.parametrize("name", TOWERS)
def test_tower_lanes_equal_generic_basis(name):
    # the XOR-lane basis, unpacked, is the tuple-row kernel's basis exactly
    field = ECHELON_FIELDS[name]()
    assert kernels.lanes(field)
    rng = random.Random("tower basis " + name)
    for _ in range(200):
        ncols = rng.randint(1, 10)
        given = _random_rows(rng, field, rng.randint(0, 6), ncols)
        rows = _random_rows(rng, field, rng.randint(0, 10), ncols) + given[:2]
        base = kernels.echelon((), [kernels.pack(field, r) for r in given], ncols, field)
        grown = kernels.echelon(base, [kernels.pack(field, r) for r in rows], ncols, field)
        generic = kernels._echelon_generic((), given, ncols, field)
        assert tuple(kernels.unpack(field, b, ncols) for b in base) == generic
        generic = kernels._echelon_generic(generic, rows, ncols, field)
        assert tuple(kernels.unpack(field, b, ncols) for b in grown) == generic


LANE_FIELDS = {
    "GF(2)": lambda: prime_field(2),
    "GF(3)": lambda: prime_field(3),
    "GF(5)": lambda: prime_field(5),
    "GF(7)": lambda: prime_field(7),
    "GF(11)": lambda: prime_field(11),
    "GF(13)": lambda: prime_field(13),
    "GF(16)": lambda: binary_field(4),
    "GF(256)": lambda: binary_field(8),
}


def _combination(rng, field, rows, coefs=None):
    """sum_i c_i * rows[i], with coefs or random nonzero c_i."""
    add, mul = field.add, field.mul
    out = (0,) * len(rows[0])
    for i, row in enumerate(rows):
        c = coefs[i] if coefs else rng.randrange(1, field.order)
        out = tuple(add(x, mul(c, y)) for x, y in zip(out, row))
    return out


@pytest.mark.parametrize("name", list(LANE_FIELDS))
def test_lanes_equal_one_reduction_per_operation(name):
    # Over GF(p) the lane loop reduces a row mod p only every budget row
    # operations, the most a byte lane holds: (p - 1) + budget * (p - 1)^2
    # <= 255.  Its basis must be the reference's, which reduces after every
    # operation, bit for bit.  The starting basis leads with a unit in each
    # of its first budget + 3 columns, so a row with those lanes nonzero
    # takes budget + 3 row operations and crosses the budget.
    field = LANE_FIELDS[name]()
    q = field.order
    budget = (256 - q) // (q - 1) ** 2 if field.kind == "prime" else 4
    units, tail = budget + 3, 5
    ncols = units + tail
    rng = random.Random("lanes " + name)
    ops = []
    for tails in ("full", "random"):
        # "full" tails hold q - 1 in every basis row, so with the row below
        # (coefficient q - 1 at every pivot) each operation adds the most
        # a lane can take
        start_rows = [
            tuple(int(c == i) for c in range(units))
            + tuple(q - 1 if tails == "full" else rng.randrange(q) for _ in range(tail))
            for i in range(units)
        ]
        start = echelon_lanes_oracle((), [kernels.pack(field, r) for r in start_rows], ncols, field)
        assert len(start) == units
        rows = [(1,) * units + (q - 1,) * tail]
        # rows that zero out at the budget-th and the twice-budget-th
        # operation, where the lane loop reduces them
        rows.append(_combination(rng, field, start_rows[:budget]))
        rows.append(_combination(rng, field, start_rows[: 2 * budget], [1] * (2 * budget)))
        rows += _random_rows(rng, field, 12, ncols)
        # dependent on the starting basis and on the rows before
        for _ in range(6):
            rows.append(_combination(rng, field, rng.sample(start_rows + rows, 3)))
        rows += [tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(8)]
        packed = [kernels.pack(field, r) for r in rows]
        expect = echelon_lanes_oracle(start, packed, ncols, field, ops)
        assert kernels.echelon(start, packed, ncols, field) == expect
        expect = echelon_lanes_oracle((), packed, ncols, field, ops)
        assert kernels.echelon((), packed, ncols, field) == expect
        assert len(expect) < len(packed)
    assert max(ops) > budget


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


@pytest.mark.parametrize("name", list(ECHELON_FIELDS))
def test_leading_in_is_the_rank_of_the_cut(name):
    # the rows of an echelon basis that lead in its first c columns count
    # the rank of the rows cut to those columns, at every cut
    field = ECHELON_FIELDS[name]()
    rng = random.Random("lead " + name)
    deficient = 0
    for _ in range(100):
        nrows, ncols = rng.randint(0, 10), rng.randint(1, 8)
        rows = _random_rows(rng, field, nrows, ncols)
        basis = kernels.echelon((), [kernels.pack(field, r) for r in rows], ncols, field)
        deficient += len(basis) < min(nrows, ncols)
        for c in range(ncols + 1):
            cut = [r[:c] for r in rows]
            assert kernels.leading_in(basis, ncols, c, field) == _generic_rank(field, cut, c)
    assert deficient > 10


SOLVE_FIELDS = {
    "GF(2)": lambda: prime_field(2),
    "GF(11)": lambda: prime_field(11),
    "GF(16)": lambda: binary_field(4),
    "GF(2^8)": lambda: binary_field(8),
    "GF(17)": lambda: prime_field(17),
    "GF(2^9)": lambda: binary_field(9),
    "tower": lambda: ExtensionField(binary_field(4), 6, PUBLISHED_TOWERS[(16, 6)]),
}


@pytest.mark.parametrize("name", list(SOLVE_FIELDS))
def test_solve_matches_det_oracle(name):
    # None exactly when det A = 0, else A X = B in the field's own arithmetic
    field = SOLVE_FIELDS[name]()
    assert kernels.lanes(field) == (name in ("GF(2)", "GF(11)", "GF(16)", "GF(2^8)", "tower"))
    rng = random.Random("solve " + name)
    add, mul = field.add, field.mul
    singular = solved = consistent_singular = 0
    for trial in range(150):
        n, bcols = rng.randint(1, 5), rng.randint(0, 4)
        a = _random_rows(rng, field, n, n)
        b = [tuple(rng.randrange(field.order) for _ in range(bcols)) for _ in range(n)]
        if trial % 10 == 0 and bcols:  # a zero row of A against a nonzero entry of B
            i = rng.randrange(n)
            a[i] = (0,) * n
            b[i] = (1,) + b[i][1:]
        a_data, b_data = _flat(a), _flat(b)
        got = kernels.solve(a_data, n, b_data, bcols, field)
        if det_oracle(field, Mat(field, n, n, a_data)) == 0:
            assert got is None
            singular += 1
            ab = [ra + rb for ra, rb in zip(a, b)]
            consistent_singular += _generic_rank(field, ab, n + bcols) == n
            continue
        assert got is not None and len(got) == n * bcols
        for i in range(n):
            for j in range(bcols):
                acc = 0
                for c in range(n):
                    acc = add(acc, mul(a[i][c], got[c * bcols + j]))
                assert acc == b[i][j]
        solved += 1
    assert singular >= 20 and solved >= 20 and consistent_singular >= 10

