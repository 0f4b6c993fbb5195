import random

import pytest
from helpers import TowerOracle
from hypothesis import given, settings
from hypothesis import strategies as st

from coopstore.errors import (
    FieldKindUnsupported,
    NonPrimeModulus,
    ReduciblePolynomial,
)
from coopstore.field import (
    DEFAULT_POLY,
    PUBLISHED_TOWERS,
    ExtensionField,
    FieldSpec,
    binary_field,
    field_create,
    is_irreducible_gf2,
    prime_field,
)


def exhaustive_orders(field):
    out = {}
    for a in range(1, field.order):
        x, o = a, 1
        while x != 1:
            x = field.mul(x, a)
            o += 1
        out[a] = o
    return out


def test_gf2_primitive_element_is_one():
    f = prime_field(2)
    assert f.generator == 1


def test_gf11_generators_by_exhaustive_order_check():
    f = prime_field(11)
    orders = exhaustive_orders(f)
    generators = {a for a, o in orders.items() if o == 10}
    assert 2 in generators
    assert orders[2] == 10
    assert f.generator in generators


def test_gf16_x_has_order_15():
    f = binary_field(4, poly=0b10011)
    assert f.order == 16
    x, seen = 2, []
    elem = x
    for _ in range(15):
        seen.append(elem)
        elem = f.mul(elem, x)
    assert elem == seen[0] == 2  # cycled after 15 steps
    assert len(set(seen)) == 15
    assert f.element_order(2) == 15


def test_nonprime_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        prime_field(10)
    with pytest.raises(NonPrimeModulus):
        field_create(FieldSpec.prime(1))


def test_reducible_polynomial_rejected():
    # x^4 + 1 = (x+1)^4 over GF(2)
    with pytest.raises(ReduciblePolynomial):
        binary_field(4, poly=0b10001)


def test_irreducible_non_primitive_polynomial_works():
    # x^4+x^3+x^2+x+1 is irreducible but x has order 5; the field must still
    # find a true generator.
    f = binary_field(4, poly=0b11111)
    assert f.element_order(2) == 5
    assert f.element_order(f.generator) == 15


@pytest.mark.parametrize("m", sorted(DEFAULT_POLY))
def test_default_polynomials_are_irreducible(m):
    assert is_irreducible_gf2(DEFAULT_POLY[m])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_field_axioms_exhaustive_small_primes(p):
    f = prime_field(p)
    for a in range(p):
        for b in range(p):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in range(p):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms_sampled_gf256(a, b, c):
    f = binary_field(8)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_large_binary_field_no_tables():
    f = binary_field(20)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(a, b) == f.mul(b, a)


class TestTowerField:
    REDUCTION = (9, 0, 0, 1, 0, 0, 1)  # y^6 + y^3 + (x^3+1) over GF(16)

    def make(self):
        return ExtensionField(binary_field(4), 6, self.REDUCTION)

    def test_order_and_embedding(self):
        tower = self.make()
        assert tower.order == 16**6
        for v in range(16):
            assert tower.coords(v)[0] == v

    def test_coords_round_trip(self):
        tower = self.make()
        rng = random.Random(3)
        for _ in range(20):
            a = rng.randrange(tower.order)
            assert tower.from_coords(tower.coords(a)) == a

    def test_inverses_and_commutativity(self):
        tower = self.make()
        rng = random.Random(5)
        for _ in range(20):
            a = rng.randrange(1, tower.order)
            b = rng.randrange(tower.order)
            assert tower.mul(a, tower.inv(a)) == 1
            assert tower.mul(a, b) == tower.mul(b, a)

    def test_frobenius_fixes_base(self):
        tower = self.make()
        for v in range(16):
            assert tower.frobenius(v) == v

    def test_embedding_is_homomorphic(self):
        tower = self.make()
        base = binary_field(4)
        for a in range(16):
            for b in range(16):
                assert tower.mul(a, b) == base.mul(a, b)
                assert tower.add(a, b) == base.add(a, b)

    def test_reducible_tower_polynomial_rejected(self):
        # y^6 + 1 = (y^3 + 1)^2 in characteristic 2
        with pytest.raises(ReduciblePolynomial):
            ExtensionField(binary_field(4), 6, (1, 0, 0, 0, 0, 0, 1))

    def test_prime_base_rejected(self):
        with pytest.raises(FieldKindUnsupported):
            ExtensionField(prime_field(11), 2, (1, 1, 1))

    def test_published_tower_built_once_per_spec(self):
        spec = FieldSpec.tower(FieldSpec.binary(4), 6)
        assert spec.reduction == self.REDUCTION == PUBLISHED_TOWERS[(16, 6)]
        tower = field_create(spec)
        assert field_create(FieldSpec.tower(FieldSpec.binary(4), 6)) is tower
        # a tower built directly is the same field, with the same spec
        assert tower == self.make() and tower.spec == self.make().spec == spec
        assert tower.base is field_create(FieldSpec.binary(4))

    def test_unpublished_tower_rejected(self):
        with pytest.raises(FieldKindUnsupported, match=r"^no published tower for q=16, degree=12$"):
            FieldSpec.tower(FieldSpec.binary(4), 12)
        with pytest.raises(FieldKindUnsupported):
            FieldSpec.tower(FieldSpec.prime(11), 2)

    def test_base_without_whole_digits_per_byte_rejected(self):
        # GF(2^9) digits are wider than a byte; GF(2^3) digits straddle bytes
        with pytest.raises(FieldKindUnsupported):
            ExtensionField(binary_field(9), 2, (1, 1, 1))
        with pytest.raises(FieldKindUnsupported):
            ExtensionField(binary_field(3), 2, (1, 1, 1))


class TestTowerAgainstOracle:
    """The table arithmetic of ExtensionField against the digit-by-digit oracle."""

    @pytest.fixture(scope="class")
    def tower(self):
        return ExtensionField(binary_field(4), 6, TestTowerField.REDUCTION)

    @pytest.fixture(scope="class")
    def oracle(self, tower):
        return TowerOracle(tower)

    def test_random_pairs(self, tower, oracle):
        rng = random.Random(0x70E4)
        for _ in range(20_000):
            a, b = rng.randrange(tower.order), rng.randrange(tower.order)
            assert tower.mul(a, b) == oracle.mul(a, b), (a, b)
            assert tower.add(a, b) == oracle.add(a, b), (a, b)

    def test_structured_products(self, tower, oracle):
        # every single-digit element c * y^i, and elements whose digits are all equal
        q, r = tower.base.order, tower.degree
        monomials = [oracle.from_coords([c if j == i else 0 for j in range(r)])
                     for i in range(r) for c in range(q)]
        dense = [oracle.from_coords([c] * r) for c in range(q)] + [tower.order - 1]
        elems = monomials + dense
        for a in elems:
            for b in elems:
                assert tower.mul(a, b) == oracle.mul(a, b), (a, b)

    def test_every_base_constant_scales(self, tower, oracle):
        rng = random.Random(0x5CA1E)
        sample = [0, 1, tower.order - 1] + [rng.randrange(tower.order) for _ in range(200)]
        for c in range(tower.base.order):
            for a in sample:
                assert tower.scale(c, a) == oracle.scale(c, a), (c, a)
                assert tower.mul(c, a) == tower.mul(a, c) == oracle.mul(c, a), (c, a)

    def test_inverses(self, tower, oracle):
        rng = random.Random(0x1A7)
        for a in [1, tower.order - 1] + [rng.randrange(1, tower.order) for _ in range(500)]:
            inv = tower.inv(a)
            assert inv == oracle.inv(a), a
            assert tower.mul(a, inv) == 1

    def test_frobenius(self, tower, oracle):
        rng = random.Random(0xF20B)
        for a in [0, 1, tower.order - 1] + [rng.randrange(tower.order) for _ in range(500)]:
            assert tower.frobenius(a) == oracle.frobenius(a), a
            img = a
            for _ in range(tower.degree):
                img = tower.frobenius(img)
            assert img == a

    def test_inverse_of_zero(self, tower):
        with pytest.raises(ZeroDivisionError):
            tower.inv(0)


def _gf256_trace_one():
    f = binary_field(8)
    for c in range(1, 256):
        t, x = 0, c
        for _ in range(8):
            t ^= x
            x = f.mul(x, x)
        if t == 1:
            return c
    raise AssertionError("GF(256) has elements of trace 1")


@pytest.mark.parametrize(
    "m,reduction",
    [
        (1, (1, 1, 0, 1)),  # y^3 + y + 1 over GF(2)
        (2, (2, 1, 1)),  # y^2 + y + x over GF(4): Tr(x) = 1
        (8, (_gf256_trace_one(), 1, 1)),  # y^2 + y + c, Tr(c) = 1, over GF(256)
    ],
    ids=["gf2^3", "gf4^2", "gf256^2"],
)
def test_other_byte_tiling_towers_match_oracle(m, reduction):
    tower = ExtensionField(binary_field(m), len(reduction) - 1, reduction)
    oracle = TowerOracle(tower)
    rng = random.Random(m)
    for _ in range(300):
        a, b = rng.randrange(tower.order), rng.randrange(tower.order)
        c = rng.randrange(tower.base.order)
        assert tower.mul(a, b) == oracle.mul(a, b)
        assert tower.scale(c, a) == oracle.scale(c, a)
        assert tower.frobenius(a) == oracle.frobenius(a)
        if a:
            assert tower.inv(a) == oracle.inv(a)
