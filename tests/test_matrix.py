import itertools
import random

import pytest

from coopstore.errors import (
    DependentPoints,
    DimensionMismatch,
    DuplicatePoint,
    FieldTooSmall,
    Singular,
)
from coopstore.field import ExtensionField, binary_field, prime_field
from coopstore.matrix import (
    Mat,
    moore_matrix,
    systematic_superregular,
    vandermonde,
)

from helpers import det_oracle


class TestRank:
    def test_identity(self, gf7):
        assert Mat.identity(gf7, 3).rank() == 3

    def test_zero(self, gf7):
        assert Mat.zeros(gf7, 3, 3).rank() == 0

    def test_vandermonde_rank_with_det_oracle(self, gf7):
        v = vandermonde(gf7, [1, 2, 3], 3)
        assert det_oracle(gf7, v) != 0
        assert v.rank() == 3

    def test_rank_equals_transpose_rank(self, gf11, rng):
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = Mat(gf11, r, c, [rng.randrange(11) for _ in range(r * c)])
            assert m.rank() == m.transpose().rank()

    def test_stack_rank_bounds(self, gf11, rng):
        for _ in range(30):
            c = rng.randint(1, 5)
            ra, rb = rng.randint(1, 4), rng.randint(1, 4)
            a = Mat(gf11, ra, c, [rng.randrange(11) for _ in range(ra * c)])
            b = Mat(gf11, rb, c, [rng.randrange(11) for _ in range(rb * c)])
            stacked = Mat(gf11, ra + rb, c, a.data + b.data)
            assert max(a.rank(), b.rank()) <= stacked.rank() <= a.rank() + b.rank()


class TestInverse:
    def test_identity(self, gf7):
        eye = Mat.identity(gf7, 4)
        assert eye.inverse() == eye

    def test_diagonal(self, gf7):
        m = Mat.from_rows(gf7, [(2, 0), (0, 3)])
        assert m.inverse() == Mat.from_rows(gf7, [(4, 0), (0, 5)])

    def test_singular(self, gf7):
        with pytest.raises(Singular):
            Mat.from_rows(gf7, [(1, 1), (1, 1)]).inverse()

    def test_inverse_round_trip_random(self, gf11, rng):
        done = 0
        while done < 20:
            m = Mat(gf11, 4, 4, [rng.randrange(11) for _ in range(16)])
            try:
                inv = m.inverse()
            except Singular:
                continue
            assert m.mul(inv) == Mat.identity(gf11, 4)
            done += 1

    def test_solve_matches_mul(self, gf11, rng):
        a = Mat.from_rows(gf11, [(1, 2, 3), (0, 1, 4), (5, 6, 0)])
        x = Mat(gf11, 3, 2, [rng.randrange(11) for _ in range(6)])
        b = a.mul(x)
        assert a.solve(b) == x


class TestVandermonde:
    def test_gf7_points_123(self, gf7):
        v = vandermonde(gf7, [1, 2, 3], 3)
        assert v.rows() == [(1, 1, 1), (1, 2, 3), (1, 4, 2)]

    def test_single_zero_point(self, gf7):
        assert vandermonde(gf7, [0], 1).rows() == [(1,)]

    def test_all_k_subsets_invertible_gf11(self, gf11):
        v = vandermonde(gf11, [1, 2, 3, 4, 5, 6], 3)
        count = 0
        for cols in itertools.combinations(range(6), 3):
            sub = v.submatrix(range(3), cols)
            assert det_oracle(gf11, sub) != 0
            sub.inverse()  # must not raise
            count += 1
        assert count == 20

    def test_duplicate_point_rejected(self, gf7):
        with pytest.raises(DuplicatePoint):
            vandermonde(gf7, [1, 2, 1], 2)

    def test_exhaustive_submatrix_invertibility_small(self, gf11):
        # every k x k submatrix for n <= 8, all k
        pts = list(range(1, 9))
        field = prime_field(11)
        for k in range(1, 5):
            v = vandermonde(field, pts, k)
            for cols in itertools.combinations(range(8), k):
                assert v.submatrix(range(k), cols).rank() == k


class TestSystematicSuperregular:
    def test_t_equals_n_is_identity(self, gf11):
        assert systematic_superregular(gf11, 2, 2) == Mat.identity(gf11, 2)

    def test_all_2x2_submatrices_invertible(self, gf11):
        g = systematic_superregular(gf11, 2, 6)
        assert g.submatrix(range(2), range(2)) == Mat.identity(gf11, 2)
        count = 0
        for cols in itertools.combinations(range(6), 2):
            assert det_oracle(gf11, g.submatrix(range(2), cols)) != 0
            count += 1
        assert count == 15

    def test_t1_row_nonzero(self, gf7):
        g = systematic_superregular(gf7, 1, 4)
        assert all(v != 0 for v in g.row(0))

    def test_field_too_small(self):
        with pytest.raises(FieldTooSmall):
            systematic_superregular(prime_field(7), 2, 8)

    @pytest.mark.parametrize("t,n", [(2, 6), (2, 8), (3, 7), (3, 8)])
    def test_parity_block_superregular_exhaustive(self, t, n):
        # every s x s submatrix of the Cauchy block, s <= t, is invertible
        field = prime_field(11)
        g = systematic_superregular(field, t, n)
        parity_cols = range(t, n)
        for s in range(1, t + 1):
            for rows_ in itertools.combinations(range(t), s):
                for cols in itertools.combinations(parity_cols, s):
                    assert g.submatrix(rows_, cols).rank() == s

    def test_every_txt_submatrix_invertible_binary(self):
        field = binary_field(4)
        g = systematic_superregular(field, 2, 6)
        for cols in itertools.combinations(range(6), 2):
            assert g.submatrix(range(2), cols).rank() == 2


class TestMooreMatrix:
    def test_single_row_is_points(self, gf16):
        m = moore_matrix(gf16, [1, 2, 4], 1, 2)
        assert m.rows() == [(1, 2, 4)]

    def test_frobenius_squares_in_gf16(self, gf16):
        m = moore_matrix(gf16, [1, 2], 2, 2)
        assert m.rows() == [(1, 2), (1, 4)]  # x^2 has mask 4

    def test_dependent_points_rejected(self, gf16):
        with pytest.raises(DependentPoints):
            moore_matrix(gf16, [1, 2, 3], 3, 2)  # 3 = 1 xor 2

    @pytest.mark.parametrize(
        "make, base_order, points",
        [
            # F_{(2^4)^6}, y^6 + y^3 + (x^3 + 1), as secure mode uses it; points y^i
            (lambda: ExtensionField(binary_field(4), 6, (9, 0, 0, 1, 0, 0, 1)), 16,
             [1 << (4 * i) for i in range(6)]),
            # GF(4^3) by y^3 + y + 1, irreducible over GF(2) and so over GF(4)
            (lambda: ExtensionField(binary_field(2), 3, (1, 1, 0, 1)), 4,
             [1 << (2 * i) for i in range(3)]),
            (lambda: binary_field(4), 2, [1, 2, 4, 8]),
        ],
        ids=["GF(16^6)", "GF(4^3)", "GF(16)/GF(2)"],
    )
    def test_frobenius_rows_equal_powers(self, make, base_order, points):
        # rows stepped by field.frobenius equal the entries points[j]^(q^i)
        field = make()
        m = moore_matrix(field, points, len(points), base_order)
        expect = [tuple(field.pow(x, base_order**i) for x in points) for i in range(len(points))]
        assert m.rows() == expect


def test_matmul_shapes(gf7):
    a = Mat.from_rows(gf7, [(1, 2), (3, 4), (5, 6)])
    b = Mat.from_rows(gf7, [(1, 0, 1), (0, 1, 1)])
    ab = a.mul(b)
    assert (ab.nrows, ab.ncols) == (3, 3)
    assert ab.row(0) == (1, 2, 3)
    with pytest.raises(DimensionMismatch):
        b.mul(b)


def test_mat_immutable(gf7):
    m = Mat.identity(gf7, 2)
    with pytest.raises(AttributeError):
        m.nrows = 5
