"""The batched data path against the per-generation reference it replaced.

Encode, every k-subset decode and every (group, helpers) repair at S1 run
both ways on random files and must agree symbol for symbol; the striping
conversion must agree with the one-big-integer reference; and the shard
files of a fixed input keep the digests the per-generation CLI produced.
"""

import hashlib
import itertools
import random

import pytest
from helpers import bytes_to_symbols_oracle, symbols_to_bytes_oracle

from coopstore.cli import main
from coopstore.errors import DimensionMismatch, MissingShard, TooFewShards
from coopstore.field import ExtensionField, binary_field, prime_field
from coopstore.matrix import Mat, dot, lincomb
from coopstore.secure import PUBLISHED_TOWERS
from coopstore.stable import (
    CodeParams,
    RepairContext,
    RepairPlan,
    ShardVector,
    StableCode,
)
from coopstore.striping import (
    bytes_to_symbols,
    pack_payload,
    stripe_symbols,
    symbols_to_bytes,
)


def s1_code(q):
    field = prime_field(q) if q == 11 else binary_field(4)
    return StableCode.create(CodeParams.mscr(n=6, k=3, d=3, t=2, q=q), field)


def random_symbols(code, nbytes, seed):
    data = random.Random(seed).randbytes(nbytes)
    return pack_payload(data, code.params.q, code.params.B)


def generation_shards(code, payloads, g, nodes):
    a = code.params.alpha
    return {j: ShardVector(j, payloads[j][g * a : (g + 1) * a]) for j in nodes}


def reference_encode(code, symbols):
    p = code.params
    per_node = {j: [] for j in range(1, p.n + 1)}
    for gen in stripe_symbols(symbols, p.B):
        for shard in code.encode(Mat(code.field, p.t, p.k, gen)):
            per_node[shard.node_id].extend(shard.symbols)
    return per_node


class TestLincomb:
    @pytest.mark.parametrize(
        "field",
        [
            prime_field(11),
            prime_field(2**31 - 1),
            binary_field(4),
            binary_field(12),
            ExtensionField(binary_field(4), 6, PUBLISHED_TOWERS[(16, 6)]),
        ],
        ids=["gf11", "gf2^31-1", "gf16", "gf4096", "tower"],
    )
    def test_matches_dot(self, field, rng):
        for length in (0, 1, 5, 40):
            for width in (1, 2, 4):
                coeffs = [field.element(rng.randrange(field.order)) for _ in range(width)]
                if length == 5:
                    coeffs[0] = 0  # a zero term is skipped
                streams = [
                    [field.element(rng.randrange(field.order)) for _ in range(length)]
                    for _ in range(width)
                ]
                want = [dot(field, coeffs, col) for col in zip(*streams)]
                assert lincomb(field, coeffs, streams) == want

    def test_all_zero_coefficients(self, gf11):
        assert lincomb(gf11, [0, 0], [[1, 2, 3], [4, 5, 6]]) == [0, 0, 0]


class TestStriping:
    @pytest.mark.parametrize("q", [2, 11, 16, 257, 2**31 - 1])
    def test_matches_big_integer_reference(self, q):
        rng = random.Random(q)
        for size in range(0, 301):
            data = rng.randbytes(size)
            symbols = bytes_to_symbols(data, q)
            assert symbols == bytes_to_symbols_oracle(data, q)
            assert symbols_to_bytes(symbols, q, size) == data
            # arbitrary field elements spill above s bits just as in one int
            noise = [rng.randrange(q) for _ in symbols]
            for nbytes in (size, size + 5, size // 2):
                assert symbols_to_bytes(noise, q, nbytes) == symbols_to_bytes_oracle(
                    noise, q, nbytes
                )


@pytest.mark.parametrize("q", [11, 16])
class TestAgainstPerGeneration:
    def test_encode(self, q):
        code = s1_code(q)
        for nbytes, seed in ((1, 1), (97, 2), (400, 3)):
            symbols = random_symbols(code, nbytes, seed)
            assert code.encode_batch(symbols) == reference_encode(code, symbols)

    def test_every_k_subset_decode(self, q):
        code = s1_code(q)
        p = code.params
        symbols = random_symbols(code, 150, q)
        payloads = code.encode_batch(symbols)
        gens = len(symbols) // p.B
        for nodes in itertools.combinations(range(1, p.n + 1), p.k):
            got = code.reconstruct_batch({j: payloads[j] for j in nodes})
            want = []
            for g in range(gens):
                shards = generation_shards(code, payloads, g, nodes)
                want.extend(code.reconstruct(list(shards.values())).data)
            assert got == want == symbols, nodes

    def test_every_repair_context(self, q):
        code = s1_code(q)
        p = code.params
        symbols = random_symbols(code, 100, q + 1)
        payloads = code.encode_batch(symbols)
        gens = len(symbols) // p.B
        contexts = 0
        for group in itertools.combinations(range(1, p.n + 1), p.t):
            pool = [j for j in range(1, p.n + 1) if j not in group]
            for helpers in itertools.combinations(pool, p.d):
                ctx = RepairContext(group, helpers)
                got, transfers = RepairPlan(code, ctx).run(
                    {h: payloads[h] for h in helpers}
                )
                want = {j: [] for j in group}
                transcript = []
                for g in range(gens):
                    shards = generation_shards(code, payloads, g, helpers)
                    for s in code.cooperative_repair(ctx, shards, transcript=transcript):
                        want[s.node_id].extend(s.symbols)
                assert got == want == {j: payloads[j] for j in group}
                phases = [x[0] for x in transcript]
                assert transfers == (phases.count(1), phases.count(2))
                assert transfers == (p.t * p.d * gens, p.t * (p.t - 1) * gens)
                contexts += 1
        assert contexts == 60


class TestBatchErrors:
    def test_partial_generation_rejected(self):
        with pytest.raises(DimensionMismatch):
            s1_code(11).encode_batch([1] * 7)

    def test_too_few_shards(self):
        code = s1_code(11)
        payloads = code.encode_batch([1] * 6)
        with pytest.raises(TooFewShards):
            code.reconstruct_batch({1: payloads[1], 2: payloads[2]})

    def test_ragged_payloads(self):
        code = s1_code(11)
        payloads = code.encode_batch([1] * 12)
        payloads[3] = payloads[3][:2]
        with pytest.raises(DimensionMismatch):
            code.reconstruct_batch({j: payloads[j] for j in (1, 2, 3)})

    def test_missing_helper(self):
        code = s1_code(11)
        payloads = code.encode_batch([1] * 6)
        plan = RepairPlan(code, RepairContext((2, 5), (1, 3, 4)))
        with pytest.raises(MissingShard):
            plan.run({1: payloads[1], 3: payloads[3]})


# sha256 of node_001..node_006.shard for the 500-byte input below, written by
# the per-generation encode path before the batched one replaced it
PINNED = {
    "p=11": (
        "97b196f697081d44daf5cd13fee56c9481f632f074e7e08d46c8e6e0f1cc135e",
        "1725e7dfda2ae80e9d9fa2c556a963de61578b0ba684ade9c4ab0b543c21ed99",
        "3d8a34cb3e85d47507b75bc93d5b836e294356acf108ca8a6262f6c7e3fa4268",
        "f141da0c9d7562942e22ec71b52e7c864e603ef83fa18092884e7037771f4e84",
        "6705e3a3c3c1b31966cfa5c7f7cc640823158b18c71364c77b5f14807eb89574",
        "aa4c1bd229b78480cb81b2181ee3537dd67cff51aa9d6e75ef025458153d18b2",
    ),
    "m=4": (
        "5a61495b48b55926d1fc28792e060bb212ed221fcdb0f7afb18ba5749febfe75",
        "6a47493a782e267f0d9993cd59e7f54e1baf57a4ad514816a074b5ca437d3431",
        "68701496ef850d4cb5ea7efe9f89ab6e6788e4c2c7e8ce016825ae034718045e",
        "1c6f582053930e2ae2ca5153aa2c7a37ea0a1e622e2a9ea766a0b117db355a60",
        "a62fffd4ab3ac6e2ace2bd2487c57d522886d13060cfdb7465ecbef634827946",
        "4b5da5a06e194f8e642f1cad5c64232ef69d55437197de9c1201dc4db854d6b6",
    ),
}


@pytest.mark.parametrize("field", sorted(PINNED))
def test_pinned_shard_digests(tmp_path, field):
    data = bytes(random.Random(99).randrange(256) for _ in range(500))
    (tmp_path / "input.bin").write_bytes(data)
    out = tmp_path / "shards"
    argv = ["encode", "--input", str(tmp_path / "input.bin"), "--out-dir", str(out)]
    assert main(argv + ["--field", field]) == 0
    got = tuple(
        hashlib.sha256((out / f"node_{j:03d}.shard").read_bytes()).hexdigest()
        for j in range(1, 7)
    )
    assert got == PINNED[field]
