import itertools
import random

import pytest

from coopstore.entropy import entropy_symbols, observations
from coopstore.errors import (
    DimensionMismatch,
    InvalidContext,
    MissingShard,
    NonIntegralParams,
    SelfRepair,
    TooFewShards,
)
from coopstore.field import prime_field
from coopstore.instances import b1, s1, s1_binary
from coopstore.matrix import Mat
from coopstore.stable import (
    CodeParams,
    RepairContext,
    StableCode,
    repair_context,
    stability_certificate,
)


def random_data(code, rng):
    p = code.params
    return Mat(code.field, p.t, p.k, [rng.randrange(code.field.order) for _ in range(p.B)])


class TestCodeParams:
    def test_s1_point(self):
        p = CodeParams.mscr(n=6, k=3, d=3, t=2, q=11)
        assert (p.alpha, p.beta, p.beta_prime, p.B) == (2, 1, 1, 6)

    def test_n_below_d_plus_t_rejected(self):
        with pytest.raises(NonIntegralParams):
            CodeParams.mscr(n=4, k=3, d=3, t=2, q=11)

    def test_d_below_k_rejected(self):
        with pytest.raises(NonIntegralParams):
            CodeParams.mscr(n=7, k=4, d=3, t=2, q=11)

    def test_non_integral_alpha_rejected(self):
        with pytest.raises(NonIntegralParams):
            CodeParams(n=6, k=3, d=3, t=2, alpha=2, beta=1, beta_prime=1, B=7, q=11)


class TestEncode:
    def test_zero_data_gives_zero_shards(self):
        code = s1()
        shards = code.encode(Mat.zeros(code.field, 2, 3))
        assert sorted(shards) == list(range(1, 7))
        assert all(set(s) == {0} for s in shards.values())

    def test_definition_unrolled(self, rng):
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        # shard j holds (m_1^T g_j, m_2^T g_j)
        for j in range(code.params.n):
            g = code.G.col(j)
            for i in range(code.params.t):
                expect = 0
                for c in range(code.params.k):
                    expect = code.field.add(expect, code.field.mul(data.at(i, c), g[c]))
                assert shards[j + 1][i] == expect

    def test_dimension_mismatch(self):
        code = s1()
        with pytest.raises(DimensionMismatch):
            code.encode(Mat.zeros(code.field, 3, 3))


class TestReconstruct:
    def test_from_specific_subset(self, rng):
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        picked = {i: shards[i] for i in (2, 4, 5)}
        assert code.reconstruct(picked) == data

    def test_uses_the_k_lowest_ids(self, rng):
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        shards[6] = (0, 0)  # beyond the k lowest ids, so never read
        assert code.reconstruct(shards) == data

    def test_all_20_subsets_agree(self, rng):
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        count = 0
        for ids in itertools.combinations(range(1, 7), 3):
            assert code.reconstruct({i: shards[i] for i in ids}) == data
            count += 1
        assert count == 20

    def test_too_few(self, rng):
        code = s1()
        shards = code.encode(random_data(code, rng))
        with pytest.raises(TooFewShards):
            code.reconstruct({1: shards[1], 2: shards[2]})


class TestRepairSymbol:
    def test_systematic_part(self, rng):
        # for f <= t, g'_f is a unit column: the symbol is m_f^T g_lambda
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        for f in (1, 2):
            for lam in range(1, 7):
                if lam == f:
                    continue
                got = code.repair_symbol(lam, shards[lam], f)
                g = code.G.col(lam - 1)
                expect = 0
                for c in range(code.params.k):
                    expect = code.field.add(expect, code.field.mul(data.at(f - 1, c), g[c]))
                assert got == expect

    def test_zero_shard(self):
        code = s1()
        assert code.repair_symbol(3, (0, 0), 1) == 0

    def test_self_repair_rejected(self, rng):
        code = s1()
        shards = code.encode(random_data(code, rng))
        with pytest.raises(SelfRepair):
            code.repair_symbol(1, shards[1], 1)

    def test_context_independence_via_transcripts(self, rng):
        # same helper->failed transfer under two different groups
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        f = 3
        t1, t2 = [], []
        ctx1 = repair_context(code, (f, 1), (2, 4, 5))
        ctx2 = repair_context(code, (f, 6), (2, 4, 5))
        code.cooperative_repair(ctx1, shards, transcript=t1)
        code.cooperative_repair(ctx2, shards, transcript=t2)
        sy1 = {(s, r): v for ph, s, r, v in t1 if ph == 1 and r == f}
        sy2 = {(s, r): v for ph, s, r, v in t2 if ph == 1 and r == f}
        assert sy1 == sy2


class TestRepairFunctional:
    def test_consistency_with_symbol(self, rng):
        code = s1()
        for _ in range(10):
            data = random_data(code, rng)
            shards = code.encode(data)
            vec = [data.at(i, c) for i in range(2) for c in range(3)]
            for lam, f in [(1, 2), (4, 3), (6, 1)]:
                row = code.repair_functional(lam, f)
                acc = 0
                for coef, v in zip(row, vec):
                    acc = code.field.add(acc, code.field.mul(coef, v))
                assert acc == code.repair_symbol(lam, shards[lam], f)

    def test_row_never_zero(self):
        code = s1()
        for f in range(1, 7):
            for lam in range(1, 7):
                if lam != f:
                    assert any(code.repair_functional(lam, f))

    def test_rows_for_fixed_f_span_k_dims(self):
        code = s1()
        for f in range(1, 7):
            rows = [(f"S_{lam}^{f}", code.repair_functional(lam, f)) for lam in range(1, 7) if lam != f]
            obs = observations(code.field, code.params.B, rows)
            assert entropy_symbols(obs) == code.params.k


class TestCooperativeRepair:
    def test_all_groups_all_helper_sets_exact(self, rng):
        code = s1()
        data = random_data(code, rng)
        shards = code.encode(data)
        originals = code.encode(data)
        checked = 0
        for group in itertools.combinations(range(1, 7), 2):
            pool = [i for i in range(1, 7) if i not in group]
            for helpers in itertools.combinations(pool, 3):
                regen = code.cooperative_repair(
                    RepairContext(group, helpers), shards
                )
                assert regen == {j: originals[j] for j in group}
                checked += 1
        assert checked == 15 * 4

    def test_transfer_counts(self, rng):
        code = s1()
        p = code.params
        shards = code.encode(random_data(code, rng))
        transcript = []
        code.cooperative_repair(repair_context(code, (1, 2)), shards, transcript=transcript)
        phase1 = [x for x in transcript if x[0] == 1]
        phase2 = [x for x in transcript if x[0] == 2]
        assert len(phase1) == p.t * p.d * p.beta == 6
        assert len(phase2) == p.t * (p.t - 1) * p.beta_prime == 2
        # total matches the cooperative bandwidth t(d+t-1)beta = 8
        assert len(phase1) + len(phase2) == p.t * (p.d + p.t - 1) * p.beta == 8

    def test_zero_data(self):
        code = s1()
        shards = code.encode(Mat.zeros(code.field, 2, 3))
        regen = code.cooperative_repair(repair_context(code, (5, 6)), shards)
        assert regen == {5: (0, 0), 6: (0, 0)}

    def test_single_failure_degenerate_group(self, rng):
        # t=1 reduces to plain MDS repair with d = k downloads
        params = CodeParams.mscr(n=5, k=3, d=3, t=1, q=11)
        code = StableCode.create(params, prime_field(11))
        data = Mat(code.field, 1, 3, [rng.randrange(11) for _ in range(3)])
        shards = code.encode(data)
        transcript = []
        regen = code.cooperative_repair(
            repair_context(code, (2,), (1, 3, 4)), shards, transcript=transcript
        )
        assert regen == {2: shards[2]}
        assert len([x for x in transcript if x[0] == 2]) == 0

    def test_missing_shard(self, rng):
        code = s1()
        shards = code.encode(random_data(code, rng))
        del shards[4]
        with pytest.raises(MissingShard):
            code.cooperative_repair(repair_context(code, (1, 2), (3, 4, 5)), shards)

    def test_overlapping_context_rejected(self):
        code = s1()
        with pytest.raises(InvalidContext):
            repair_context(code, (1, 2), (2, 3, 4))


class TestFunctionalSpans:
    def test_exchange_in_span_of_phase1(self):
        # the phase-2 symbol is a function of the sender's phase-1 downloads
        code = s1()
        for group in itertools.combinations(range(1, 7), 2):
            pool = [i for i in range(1, 7) if i not in group]
            helpers = tuple(pool[:3])
            for fj in group:
                phase1 = [("s", code.repair_functional(lam, fj, group)) for lam in helpers]
                obs1 = observations(code.field, 6, phase1)
                for fi in group:
                    if fi == fj:
                        continue
                    xrow = code.exchange_functional(fj, fi)
                    joined = obs1.concat(observations(code.field, 6, [("x", xrow)]))
                    assert entropy_symbols(joined) == entropy_symbols(obs1)

    def test_storage_in_span_of_downloads(self):
        # W_f lies in the span of phase-1 plus received phase-2 rows
        code = s1()
        group, helpers = (2, 5), (1, 3, 4)
        for fj in group:
            rows = [("s", code.repair_functional(lam, fj, group)) for lam in helpers]
            rows += [
                ("z", code.exchange_functional(fi, fj)) for fi in group if fi != fj
            ]
            obs = observations(code.field, 6, rows)
            full = obs.concat(observations(code.field, 6, code.storage_rows(fj)))
            assert entropy_symbols(full) == entropy_symbols(obs)

    def test_any_k_nodes_have_full_rank_storage(self):
        code = s1()
        for ids in itertools.combinations(range(1, 7), 3):
            rows = []
            for i in ids:
                rows.extend(code.storage_rows(i))
            obs = observations(code.field, 6, rows)
            assert entropy_symbols(obs) == code.params.B


class TestStability:
    def test_s1_passes(self):
        assert stability_certificate(s1()) is None

    def test_s1_binary_passes(self):
        assert stability_certificate(s1_binary()) is None

    def test_code_b_witness(self):
        witness = stability_certificate(b1())
        assert witness is not None
        assert witness.first_row != witness.second_row
        c1 = witness.first_context[0]
        c2 = witness.second_context[0]
        assert c1 != c2
        assert witness.failed in set(c1) & set(c2)

    def test_minimal_n_still_checks_group_dependence(self):
        # n = d + t leaves a single helper choice per group
        params = CodeParams.mscr(n=5, k=3, d=3, t=2, q=11)
        code = StableCode.create(params, prime_field(11))
        assert stability_certificate(code) is None
        contexts = list(code.contexts(1))
        groups = {c[0] for c in contexts}
        assert len(contexts) == len(groups)  # exactly one D per C


@pytest.fixture
def rng():
    return random.Random(20240817)
