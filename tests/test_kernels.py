"""The prime-field rank branch against the generic field-method loop."""

import random

import pytest

from coopstore import kernels
from coopstore.field import prime_field


def _random_matrix(rng, q, nrows, ncols):
    """Random rows, some zero, some repeated, some combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.5 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            ca, cb = rng.randrange(q), rng.randrange(q)
            rows.append([(ca * x + cb * y) % q for x, y in zip(a, b)])
        else:
            rows.append([rng.randrange(q) for _ in range(ncols)])
    return [v for row in rows for v in row]


@pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
def test_prime_rank_matches_generic(p):
    field = prime_field(p)
    rng = random.Random(p)
    deficient = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 10)
        data = _random_matrix(rng, p, nrows, ncols)
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
    ]
    for data, nrows, ncols, expect in cases:
        assert kernels.rank(data, nrows, ncols, field) == expect
        assert kernels._rank_generic(data, nrows, ncols, field) == expect
