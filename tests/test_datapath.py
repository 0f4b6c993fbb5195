"""The batched data path against the per-generation reference it replaced.

Encode, every k-subset decode and every (group, helpers) repair at S1 run
both ways on random files and must agree symbol for symbol; bytes-stream
lincombs must agree with the int-list branch, and lane striping with the
one-big-integer reference; and the shard files of a fixed input keep the
digests the earlier CLI produced.
"""

import hashlib
import itertools
import random

import pytest
from helpers import bytes_to_symbols_oracle, symbols_to_bytes_oracle

from coopstore.cli import main
from coopstore.errors import (
    CorruptShard,
    DimensionMismatch,
    InvalidConfig,
    MissingShard,
    TooFewShards,
)
from coopstore.field import PUBLISHED_TOWERS, ExtensionField, binary_field, prime_field
from coopstore import stable
from coopstore.matrix import Mat, _lincomb_list, dot, lincomb, lincomb_branch, lincombs
from coopstore.stable import (
    CodeParams,
    RepairContext,
    RepairPlan,
    StableCode,
)
from coopstore.striping import (
    LENGTH_PREFIX_BYTES,
    bytes_to_symbols,
    pack_payload,
    stripe_symbols,
    symbols_to_bytes,
    unpack_payload,
)


def s1_code(q):
    field = binary_field(q.bit_length() - 1) if q in (16, 256) else prime_field(q)
    return StableCode.create(CodeParams.mscr(n=6, k=3, d=3, t=2, q=q), field)


def random_symbols(code, nbytes, seed):
    """A random file of nbytes, packed; above 256 elements, which packing
    refuses, random field elements in an int list of the same length."""
    q, block = code.params.q, code.params.B
    rng = random.Random(seed)
    if q > 256:  # 8-bit symbols, as at GF(256)
        count = -(-(nbytes + LENGTH_PREFIX_BYTES) // block) * block
        return [rng.randrange(q) for _ in range(count)]
    return pack_payload(rng.randbytes(nbytes), q, block)


def generation_shards(code, payloads, g, nodes):
    a = code.params.alpha
    return {j: tuple(payloads[j][g * a : (g + 1) * a]) for j in nodes}


def reference_encode(code, symbols):
    p = code.params
    per_node = {j: [] for j in range(1, p.n + 1)}
    for gen in stripe_symbols(symbols, p.B):
        for node, column in code.encode(Mat(code.field, p.t, p.k, gen)).items():
            per_node[node].extend(column)
    return per_node


def as_lists(payloads):
    """node -> list of ints, whatever the stream type."""
    return {j: list(v) for j, v in payloads.items()}


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
        assert lincomb(gf11, [0, 0], [b"\1\2\3", b"\4\5\6"]) == bytes(3)


BYTES_FIELDS = {
    "gf2": prime_field(2),
    "gf3": prime_field(3),
    "gf5": prime_field(5),
    "gf7": prime_field(7),
    "gf11": prime_field(11),
    "gf13": prime_field(13),
    "gf17": prime_field(17),
    "gf31": prime_field(31),
    "gf127": prime_field(127),
    "gf131": prime_field(131),
    "gf2^4": binary_field(4),
    "gf2^8": binary_field(8),
}


@pytest.mark.parametrize("name", sorted(BYTES_FIELDS))
class TestBytesLincomb:
    """Bytes streams against the int-list branch, which is the reference."""

    def test_branch(self, name):
        field = BYTES_FIELDS[name]
        assert lincomb_branch(field) == ("int-list" if name == "gf131" else "bytes-table")

    def test_every_coefficient(self, name):
        field = BYTES_FIELDS[name]
        rng = random.Random(name)
        stream = [rng.randrange(field.order) for _ in range(300)]
        other = [rng.randrange(field.order) for _ in range(300)]
        for c in range(field.order):
            for coeffs, streams in (([c], [stream]), ([c, 1], [stream, other])):
                want = lincomb(field, coeffs, streams)
                got = lincomb(field, coeffs, [bytes(x) for x in streams])
                assert type(got) is bytes and list(got) == want, c

    def test_random_streams(self, name):
        field = BYTES_FIELDS[name]
        rng = random.Random(name + "random")
        for length in list(range(0, 20)) + [257, 1000]:
            for width in (1, 2, 3, 5, 8):
                coeffs = [rng.randrange(field.order) for _ in range(width)]
                streams = [
                    [rng.randrange(field.order) for _ in range(length)] for _ in range(width)
                ]
                want = lincomb(field, coeffs, streams)
                got = lincomb(field, coeffs, [bytearray(x) for x in streams])
                assert isinstance(got, (bytes, bytearray)) and list(got) == want


def test_gf11_sum_past_the_reduction_point():
    """30 terms at their largest: each adds 100 to the lane bound, so the row
    is reduced mod 11 before every second term from the third on."""
    field = prime_field(11)
    rng = random.Random(30)
    top = [10] * 64
    for coeffs, streams in (
        ([10] * 30, [top] * 30),
        (
            [rng.randrange(11) for _ in range(30)],
            [[rng.randrange(11) for _ in range(64)] for _ in range(30)],
        ),
    ):
        want = lincomb(field, coeffs, streams)
        assert list(lincomb(field, coeffs, [bytes(x) for x in streams])) == want


LANE_FIELDS = {name: f for name, f in BYTES_FIELDS.items() if lincomb_branch(f) == "bytes-table"}


def lincomb_reference(field, row, streams):
    """One output of lincombs by the int-list branch."""
    terms = [(c, list(s)) for c, s in zip(row, streams) if c]
    return _lincomb_list(field, terms, len(streams[0]) if streams else 0)


@pytest.mark.parametrize("name", sorted(LANE_FIELDS))
class TestLincombs:
    """Several rows per call on integer byte lanes, against the int-list branch."""

    def test_every_coefficient_in_every_position(self, name):
        field = LANE_FIELDS[name]
        rng = random.Random(name)
        q = field.order
        for width in (2, 3, 5):
            streams = [[rng.randrange(q) for _ in range(97)] for _ in range(width)]
            # the top lane of every stream, where a lane bound that is too
            # loose carries into the next symbol
            for s in streams:
                s[5] = q - 1
            for pos in range(width):
                rows = []
                for c in range(q):
                    row = [rng.randrange(q) for _ in range(width)]
                    row[pos] = c
                    rows.append(row)
                # unit rows, zero rows and rows of one coefficient ride along
                rows += [[0] * width, [1 if j == pos else 0 for j in range(width)]]
                rows += [[q - 1 if j == pos else 0 for j in range(width)], [q - 1] * width]
                for kind in (bytes, bytearray):
                    given = [kind(s) for s in streams]
                    got = list(lincombs(field, rows, given))
                    assert given == [kind(s) for s in streams]  # inputs unchanged
                    assert len(got) == len(rows)
                    for row, out in zip(rows, got):
                        assert type(out) is bytes, (row, kind)
                        assert list(out) == lincomb_reference(field, row, streams), row

    def test_random_rows_and_lengths(self, name):
        field = LANE_FIELDS[name]
        rng = random.Random(name + "rows")
        q = field.order
        for length in (0, 1, 2, 31, 300):
            for width in (1, 2, 4, 9):
                streams = [[rng.randrange(q) for _ in range(length)] for _ in range(width)]
                rows = [[rng.randrange(q) for _ in range(width)] for _ in range(6)]
                got = list(lincombs(field, rows, [bytes(s) for s in streams]))
                assert [list(out) for out in got] == [
                    lincomb_reference(field, row, streams) for row in rows
                ]
                assert lincomb(field, rows[0], [bytearray(s) for s in streams]) == got[0]

    def test_unit_row_is_its_stream(self, name):
        field = LANE_FIELDS[name]
        source = bytes(range(field.order))
        buffer = bytearray(source)
        out = list(lincombs(field, [(1, 0), (0, 1)], [source, buffer]))
        assert out[0] is source
        assert out[1] == source and type(out[1]) is bytes
        buffer[0] = 1
        assert out[1] == source  # a bytearray's unit row is a copy


def test_gf17_lane_bound_counts_the_reduced_lane():
    """(c + 1)(p - 1) <= 255 decides an int term, not c(p - 1) <= 255.

    15 * 0 + 4 * 4 + 15 * 16 = 256 = 1 mod 17.  After 4 * 4 the lane is
    reduced to 16, and 15 * 16 more would make 256: it carries into the
    next symbol, which then reads 1 where this one reads 0.
    """
    field = prime_field(17)
    streams = [b"\0\0\0", b"\4\0\0", b"\x10\0\0"]
    assert lincomb(field, [15, 4, 15], streams) == b"\1\0\0"
    assert lincomb(field, [15, 4, 15], [b"\0", b"\4", b"\x10"]) == b"\1"
    rows = [[15, 4, 15], [4, 15, 15], [16, 16, 16]]
    assert list(lincombs(field, rows, streams)) == [b"\1\0\0", b"\x0b\0\0", b"\x0e\0\0"]


class TestUnequalStreams:
    """Streams of unequal length are refused by every branch."""

    @pytest.mark.parametrize(
        "field, kind",
        [
            (prime_field(11), list),  # int-list
            (prime_field(11), bytes),  # bytes-table, integer lanes
            (binary_field(8), bytes),  # bytes-table, XOR
            (prime_field(131), bytes),  # int-list over bytes streams
            (prime_field(17), bytearray),
        ],
        ids=["gf11-list", "gf11-bytes", "gf2^8-bytes", "gf131-bytes", "gf17-bytearray"],
    )
    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 0), (0, 1)])
    def test_refused(self, field, kind, lengths):
        streams = [kind([1] * n) for n in lengths]
        coeffs = [2] * len(lengths)
        with pytest.raises(DimensionMismatch, match="stream lengths"):
            lincomb(field, coeffs, streams)
        with pytest.raises(DimensionMismatch, match="stream lengths"):
            lincombs(field, [coeffs, [1] + [0] * (len(lengths) - 1)], streams)

    def test_row_of_the_wrong_width(self, gf11):
        with pytest.raises(DimensionMismatch, match="a row of 1 coefficients for 2 streams"):
            lincombs(gf11, [[1, 2], [3]], [b"\1", b"\2"])


class TestChunks:
    """Batches that span several chunks equal the same batch in one chunk."""

    @pytest.mark.parametrize("q", [11, 256])
    def test_encode_and_decode_across_chunks(self, q, monkeypatch):
        code = s1_code(q)
        symbols = random_symbols(code, 700, q)  # 118 generations at GF(11)
        whole = code.encode_batch(symbols)
        decoded = code.reconstruct_batch({j: whole[j] for j in (2, 4, 6)})
        for chunk in (1, 7, 64):
            monkeypatch.setattr(stable, "CHUNK_GENERATIONS", chunk)
            assert code.encode_batch(symbols) == whole, chunk
            assert code.reconstruct_batch({j: whole[j] for j in (2, 4, 6)}) == decoded == symbols


class TestStriping:
    @pytest.mark.parametrize("q", [2, 3, 11, 16, 127, 131, 256])
    def test_matches_big_integer_reference(self, q):
        rng = random.Random(q)
        for size in range(0, 301):
            data = rng.randbytes(size)
            symbols = bytes_to_symbols(data, q)
            assert type(symbols) is bytes
            assert list(symbols) == bytes_to_symbols_oracle(data, q)
            assert symbols_to_bytes(symbols, q, size) == data
            # any s-bit values, cut or zero-filled to any length, are the
            # oracle's bytes; a wider value (a field element from 2^s up, or
            # any larger int) cannot come from bytes_to_symbols: it is refused
            s = q.bit_length() - 1
            narrow = [rng.randrange(1 << s) for _ in symbols]
            noise = [rng.randrange(q) for _ in symbols]
            wide = [rng.randrange(256) for _ in symbols]
            for values in (narrow, noise, wide):
                stream = bytes(values)
                for nbytes in (size, size + 5, size // 2):
                    if max(values, default=0) >> s:
                        with pytest.raises(CorruptShard, match="wider than"):
                            symbols_to_bytes(stream, q, nbytes)
                    else:
                        assert symbols_to_bytes(stream, q, nbytes) == symbols_to_bytes_oracle(
                            values, q, nbytes
                        )

    @pytest.mark.parametrize("q", [11])
    def test_bad_length_prefix_is_corrupt(self, q):
        symbols = pack_payload(bytes(40), q, 6)
        assert unpack_payload(symbols, q) == bytes(40)
        longer = bytes_to_symbols((1000).to_bytes(8, "little"), q)
        stream = longer + symbols[len(longer):]
        with pytest.raises(CorruptShard, match="length prefix exceeds"):
            unpack_payload(stream, q)
        with pytest.raises(CorruptShard, match="shorter than the length prefix"):
            unpack_payload(symbols[:6], q)

    @pytest.mark.parametrize("q", [257, 512, 65536, 2**31 - 1])
    def test_packing_refuses_fields_above_256(self, q):
        with pytest.raises(InvalidConfig, match=rf"at most 256 elements, not GF\({q}\)"):
            pack_payload(b"x", q, 6)

    @pytest.mark.parametrize("q", [257, 512])
    def test_converters_refuse_fields_above_256(self, q):
        # 257 would fit 8-bit symbols, 512 a 9-bit one; neither is a byte field
        with pytest.raises(InvalidConfig, match=rf"at most 256 elements, not GF\({q}\)"):
            bytes_to_symbols(b"abc", q)
        with pytest.raises(InvalidConfig, match=rf"at most 256 elements, not GF\({q}\)"):
            symbols_to_bytes(bytes(8), q, 3)


@pytest.mark.parametrize("q", [11, 16, 17, 131, 256, 257])
class TestAgainstPerGeneration:
    def test_encode(self, q):
        code = s1_code(q)
        for nbytes, seed in ((1, 1), (97, 2), (400, 3)):
            symbols = random_symbols(code, nbytes, seed)
            payloads = code.encode_batch(symbols)
            assert {type(v) for v in payloads.values()} == {bytearray if q <= 256 else list}
            assert as_lists(payloads) == reference_encode(code, symbols)

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
                want.extend(code.reconstruct(shards).data)
            assert list(got) == want == list(symbols), nodes
            assert type(got) is type(payloads[1])

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
                    regen = code.cooperative_repair(ctx, shards, transcript=transcript)
                    for node, column in regen.items():
                        want[node].extend(column)
                assert as_lists(got) == want == as_lists({j: payloads[j] for j in group})
                assert {type(v) for v in got.values()} == {type(payloads[1])}
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


# sha256 of node_001..node_006.shard for the 500-byte input below: p=11 and
# m=4 written by the per-generation encode path before the batched one
# replaced it; m=8 and p=131 by the list-stream batched path before bytes
# streams replaced it; p=17, where integer-lane and product-table terms
# meet in one row, by one translate per term before integer lanes
# replaced it
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
    "m=8": (
        "7521ca7db609b6412113caf8aabd7d36764a7e169800bdc82135d67e129b95cc",
        "daa0858fed875ffbd1d6992557e939fa80e11fa605f8fbfd767dcef318ed1e0a",
        "ff188d97755fc4918b4bec5d22c818b308e7d51e149adbbdbbbdbdd9ad6d0113",
        "a0748f27edd51c67378e7acb1de1373c161684c7fecf9a0ad9184b7688135ba7",
        "ab39134e23c9d062e9fc1f5760c78058699cf3fcfcc78a616f1ea9b81d0f29a1",
        "3c938f5b9c2599e6fb1763c9323e0d889e2e08e135fc6a22c4b59cf5a7a1b966",
    ),
    "p=17": (
        "1500ef76940a6c0b0edcc6e556966dfca2496dfea3a2c35c6e140163d980189a",
        "32f56abc3105d0327936a432a849cd143c0de0ec359ea853a6fd6109246fb2ca",
        "0231d99338af8a7a8f97c4c58f894502758de4ec0f74e6b24775ab1a323984ae",
        "bd479c6105e6dea36660d7c45aa6d0df02c030e1bb91a9415b459ab5c91679b0",
        "3226cd8491f34f2484a53c0b3325aecc08c86a1ba0087ec5083c29942339214e",
        "7ba06e5d7bc8570e57c3d66e8eedfd380a69a1fe314fdf6d9a88e02ebf1af487",
    ),
    "p=131": (
        "8004aa0c1765a4022fdc252a4f903995d048e860ea93a610fa788f50b0e414fe",
        "f510e5ebf66e87a5659a8e076ef8462f9ee76ebfe222caba8f5bd632767561d0",
        "6e8f7a4272661da490d2057fea387c0abf6134c562e2b125aabd027cfa454062",
        "114d03afbb044f413be552912346f4afccf12d9f96c29ab48ad460cc3702038b",
        "e1a293b227a7b705538a91df18a0a0b471421294ff57e273c76bfc5000166f5e",
        "792789b3ac822b4a0a93ef4f476212da764ed224e4106b4eed292e9e172b54c2",
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
