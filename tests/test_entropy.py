import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopstore.entropy import (
    ObservationSet,
    RowSpace,
    brute_force_entropy,
    conditional_entropy,
    empty_observations,
    entropy_symbols,
    mutual_information,
    observations,
    rank_rows,
)
from coopstore.errors import DimensionMismatch, InstanceTooLarge
from coopstore.field import binary_field, prime_field
from helpers import brute_force_entropy_oracle

GF2 = prime_field(2)
GF3 = prime_field(3)


def rand_obs(field, b, nrows, rng):
    return observations(
        field,
        b,
        [(f"r{i}", tuple(rng.randrange(field.order) for _ in range(b))) for i in range(nrows)],
    )


class TestEntropySymbols:
    def test_empty(self):
        assert entropy_symbols(empty_observations(GF2, 4)) == 0

    def test_identity_rows_full_message(self):
        b = 5
        rows = [(f"e{i}", tuple(1 if j == i else 0 for j in range(b))) for i in range(b)]
        assert entropy_symbols(observations(GF2, b, rows)) == b

    def test_duplicate_row_changes_nothing(self, rng):
        obs = rand_obs(GF3, 4, 3, rng)
        dup = obs.concat(observations(GF3, 4, [("dup", obs.rows[0])]))
        assert entropy_symbols(dup) == entropy_symbols(obs)


class TestConditionalEntropy:
    def test_self_conditioning(self, rng):
        x = rand_obs(GF3, 5, 4, rng)
        assert conditional_entropy(x, x) == 0

    def test_empty_condition(self, rng):
        x = rand_obs(GF3, 5, 4, rng)
        assert conditional_entropy(x, empty_observations(GF3, 5)) == entropy_symbols(x)

    def test_two_coordinates_gf2_brute_force(self):
        x = observations(GF2, 2, [("x", (1, 0))])
        y = observations(GF2, 2, [("y", (0, 1))])
        assert conditional_entropy(x, y) == 1
        # brute-force oracle over all 4 messages
        hx_given_y = brute_force_entropy(x.concat(y)) - brute_force_entropy(y)
        assert hx_given_y == Fraction(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            conditional_entropy(empty_observations(GF2, 2), empty_observations(GF2, 3))


class TestMutualInformation:
    def test_empty(self, rng):
        x = rand_obs(GF2, 4, 3, rng)
        assert mutual_information(x, empty_observations(GF2, 4)) == 0

    def test_self_information(self, rng):
        x = rand_obs(GF2, 4, 3, rng)
        assert mutual_information(x, x) == entropy_symbols(x)

    def test_disjoint_coordinates_gf3_brute_force(self):
        x = observations(GF3, 2, [("x", (1, 0))])
        y = observations(GF3, 2, [("y", (0, 2))])
        assert mutual_information(x, y) == 0
        joint = brute_force_entropy(x.concat(y))
        assert joint == brute_force_entropy(x) + brute_force_entropy(y)


class TestBruteForceOracle:
    def test_identity_gf2_b3(self):
        rows = [(f"e{i}", tuple(1 if j == i else 0 for j in range(3))) for i in range(3)]
        assert brute_force_entropy(observations(GF2, 3, rows)) == Fraction(3)

    def test_zero_row(self):
        assert brute_force_entropy(observations(GF2, 3, [("z", (0, 0, 0))])) == 0

    def test_random_matches_rank(self, rng):
        for _ in range(10):
            obs = rand_obs(GF2, 4, 3, rng)
            assert brute_force_entropy(obs) == Fraction(entropy_symbols(obs))

    def test_oracle_agreement_gf2_gf3_many_seeds(self):
        # rank formula certified on 120 seeded random instances
        cases = 0
        for seed in range(60):
            rng = random.Random(seed)
            for field, bmax in ((GF2, 10), (GF3, 6)):
                b = rng.randint(1, bmax)
                obs = rand_obs(field, b, rng.randint(0, b + 2), rng)
                assert brute_force_entropy(obs) == Fraction(entropy_symbols(obs))
                cases += 1
        assert cases >= 100

    def test_instance_too_large(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_entropy(empty_observations(GF2, 21))

    @pytest.mark.parametrize(
        "field, bmax",
        [(GF2, 8), (GF3, 5), (prime_field(5), 4), (binary_field(2), 4)],
        ids=["gf2", "gf3", "gf5", "gf4"],
    )
    def test_matches_odometer_reference(self, field, bmax):
        # the coordinate-at-a-time histogram against one evaluation per message
        q = field.order
        rng = random.Random(q)
        cases = []
        for b in (0, 1, bmax):
            cases.append((b, []))  # no rows
            cases.append((b, [(0,) * b] * 2))  # all-zero rows
        for _ in range(30):
            b = rng.randint(0, bmax)
            rows = [tuple(rng.randrange(q) for _ in range(b)) for _ in range(rng.randint(0, b + 2))]
            if rows and rng.random() < 0.5:
                rows += rng.sample(rows, rng.randint(1, len(rows)))  # repeated rows
            cases.append((b, rows))
        for b, rows in cases:
            obs = observations(field, b, [(f"r{i}", r) for i, r in enumerate(rows)])
            expect = brute_force_entropy_oracle(obs)
            assert brute_force_entropy(obs) == expect == Fraction(entropy_symbols(obs)), (b, rows)


class TestRankIdentities:
    def test_chain_rule(self, rng):
        for _ in range(25):
            x = rand_obs(GF3, 5, rng.randint(0, 4), rng)
            y = rand_obs(GF3, 5, rng.randint(0, 4), rng)
            joint = entropy_symbols(x.concat(y))
            assert joint == entropy_symbols(y) + conditional_entropy(x, y)

    def test_monotone_in_rows(self, rng):
        for _ in range(25):
            x = rand_obs(GF2, 6, rng.randint(0, 4), rng)
            extra = rand_obs(GF2, 6, 1, rng)
            assert entropy_symbols(x.concat(extra)) >= entropy_symbols(x)

    def test_data_processing_bound(self, rng):
        for _ in range(25):
            x = rand_obs(GF3, 4, rng.randint(0, 4), rng)
            y = rand_obs(GF3, 4, rng.randint(0, 4), rng)
            assert mutual_information(x, y) <= min(entropy_symbols(x), entropy_symbols(y))
            assert mutual_information(x, y) >= 0


class TestRowSpace:
    @pytest.mark.parametrize("field", [GF3, prime_field(17), binary_field(4)], ids=str)
    def test_ranks_equal_rank_rows(self, field, rng):
        space = RowSpace(field, 5)
        pool = [tuple(rng.randrange(field.order) for _ in range(5)) for _ in range(6)]
        pool += [pool[0], (0,) * 5]  # a repeat and a zero row
        for _ in range(60):
            rows = rng.sample(pool, rng.randint(0, 4))
            given = rng.sample(pool, rng.randint(0, 4))
            r, g = [space.intern(x) for x in rows], [space.intern(x) for x in given]
            joint = rank_rows(field, 5, rows + given)
            assert space.rank(r) == rank_rows(field, 5, rows)
            assert space.rank_given(r, g) == joint - rank_rows(field, 5, given)
            assert space.joint_rank(r, g) == joint

    def test_joint_rank_keeps_only_given_basis(self):
        space = RowSpace(GF3, 3)
        e, f = space.intern((1, 0, 0)), space.intern((0, 1, 0))
        assert space.joint_rank([e], [f]) == 2
        assert space.joint_rank([e], [f]) == 2
        # f's basis was eliminated once and then found; e | f never kept
        assert (space.lookups, space.eliminations) == (2, 1)
        assert space.rank([e, f]) == 2
        assert (space.lookups, space.eliminations) == (3, 2)


def obs_strategy(field, b):
    row = st.tuples(*[st.integers(0, field.order - 1)] * b)
    return st.lists(row, min_size=0, max_size=2 * b).map(
        lambda rows: observations(field, b, [(f"r{i}", r) for i, r in enumerate(rows)])
    )


class TestHypothesisProperties:
    @settings(max_examples=150, deadline=None)
    @given(obs_strategy(GF3, 4), obs_strategy(GF3, 4))
    def test_chain_rule_holds(self, x, y):
        assert entropy_symbols(x.concat(y)) == entropy_symbols(y) + conditional_entropy(x, y)

    @settings(max_examples=150, deadline=None)
    @given(obs_strategy(GF2, 5), obs_strategy(GF2, 5))
    def test_mutual_information_symmetric_and_bounded(self, x, y):
        mi = mutual_information(x, y)
        assert mi == mutual_information(y, x)
        assert 0 <= mi <= min(entropy_symbols(x), entropy_symbols(y))

    @settings(max_examples=100, deadline=None)
    @given(obs_strategy(GF3, 3))
    def test_brute_force_certifies_rank(self, x):
        assert brute_force_entropy(x) == Fraction(entropy_symbols(x))


def test_label_row_pairing_enforced():
    with pytest.raises(DimensionMismatch):
        ObservationSet(GF2, 2, ((1, 0),), ())
