import hashlib
import json
import random

import pytest

from coopstore.errors import CorruptShard, InvalidConfig
from coopstore.field import FieldSpec
from coopstore.shardfile import (
    HEADER_SIZE,
    ShardMeta,
    manifest_digests,
    read_manifest,
    read_shard,
    read_shard_meta,
    shard_filename,
    write_manifest,
    write_shard,
)
from coopstore.stable import CodeParams
from coopstore.striping import (
    bytes_to_symbols,
    pack_payload,
    stripe_symbols,
    symbols_to_bytes,
    unpack_payload,
)

S1_PARAMS = CodeParams.mscr(n=6, k=3, d=3, t=2, q=11)


class TestStriping:
    @pytest.mark.parametrize("q", [11, 16, 2])
    def test_byte_symbol_round_trip(self, q):
        rng = random.Random(q)
        for size in (1, 7, 64, 255):
            data = bytes(rng.randrange(256) for _ in range(size))
            symbols = bytes_to_symbols(data, q)
            assert all(0 <= v < q for v in symbols)
            assert symbols_to_bytes(symbols, q, size) == data

    @pytest.mark.parametrize("q", [11, 16])
    def test_payload_round_trip(self, q):
        rng = random.Random(q + 100)
        for size in (1, 5, 100):
            data = bytes(rng.randrange(256) for _ in range(size))
            symbols = pack_payload(data, q, 6)
            assert len(symbols) % 6 == 0
            assert unpack_payload(symbols, q) == data

    def test_twelve_symbols_make_two_generations(self):
        gens = stripe_symbols([1] * 12, 6)
        assert len(gens) == 2
        assert all(len(g) == 6 for g in gens)
        # shard payload per node would be generations * alpha = 2 * 2
        assert len(gens) * S1_PARAMS.alpha == 4

    def test_tail_zero_fill(self):
        gens = stripe_symbols([5] * 8, 6)
        assert gens[1] == [5, 5, 0, 0, 0, 0]

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidConfig):
            pack_payload(b"", 11, 6)


class TestShardFile:
    def meta(self, node=3, generations=2):
        return ShardMeta(
            variant="stable",
            field_spec=FieldSpec.prime(11),
            params=S1_PARAMS,
            node_id=node,
            generations=generations,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / shard_filename(3)
        write_shard(path, self.meta(), [1, 2, 3, 4])
        meta, symbols = read_shard(path)
        assert symbols == bytes([1, 2, 3, 4])  # width 1: the payload bytes themselves
        assert meta == self.meta()

    def test_bytes_payload_writes_the_same_file(self, tmp_path):
        want = write_shard(tmp_path / "list.shard", self.meta(), [1, 2, 3, 4])
        for payload in (bytes([1, 2, 3, 4]), bytearray([1, 2, 3, 4])):
            assert write_shard(tmp_path / "b.shard", self.meta(), payload) == want
            assert (tmp_path / "b.shard").read_bytes() == (tmp_path / "list.shard").read_bytes()

    def test_binary_field_round_trip(self, tmp_path):
        params = CodeParams.mscr(n=6, k=3, d=3, t=2, q=16)
        meta = ShardMeta(
            variant="stable",
            field_spec=FieldSpec.binary(4),
            params=params,
            node_id=1,
            generations=1,
        )
        path = tmp_path / "x.shard"
        write_shard(path, meta, [15, 8])
        got, symbols = read_shard(path)
        assert got.field_spec == FieldSpec.binary(4)
        assert symbols == bytes([15, 8])

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.shard", tmp_path / "b.shard"
        write_shard(p1, self.meta(), [1, 2, 3, 4])
        write_shard(p2, self.meta(), [1, 2, 3, 4])
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_size_is_52(self, tmp_path):
        assert HEADER_SIZE == 52
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        assert len(path.read_bytes()) == 52 + 4  # 1-byte symbols

    def test_crc_detects_header_corruption(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # k field
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptShard):
            read_shard(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        blob = bytearray(path.read_bytes())
        blob[0] = 0x58
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptShard):
            read_shard(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptShard):
            read_shard(path)

    def test_out_of_field_symbol(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        blob = bytearray(path.read_bytes())
        blob[-1] = 12  # >= q = 11
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptShard):
            read_shard(path)

    def test_out_of_field_error_names_the_value(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        blob = bytearray(path.read_bytes())
        blob[-2] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptShard, match="symbol value 200 outside the field"):
            read_shard(path)

    def test_header_naming_more_than_256_elements_is_corrupt(self, tmp_path):
        params = CodeParams.mscr(n=6, k=3, d=3, t=2, q=257)
        meta = ShardMeta(
            variant="stable",
            field_spec=FieldSpec.prime(257),
            params=params,
            node_id=2,
            generations=2,
        )
        path = tmp_path / "x.shard"
        write_shard(path, meta, [255, 0, 1, 255])
        assert len(path.read_bytes()) == HEADER_SIZE + 4  # one byte per symbol, always
        for read in (read_shard, read_shard_meta):
            with pytest.raises(CorruptShard, match=r"x.shard: GF\(257\) is above the 256-element"):
                read(path)

    def test_digest_returned_and_checked(self, tmp_path):
        path = tmp_path / "x.shard"
        digest = write_shard(path, self.meta(), [1, 2, 3, 4])
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert read_shard(path, sha256=digest)[1] == bytes([1, 2, 3, 4])
        with pytest.raises(CorruptShard, match="x.shard"):
            read_shard(path, sha256="0" * 64)
        other = tmp_path / "y.shard"
        with pytest.raises(CorruptShard, match="y.shard"):
            write_shard(other, self.meta(), [4, 3, 2, 1], sha256=digest)
        assert not other.exists()

    def test_header_only_read(self, tmp_path):
        path = tmp_path / "x.shard"
        write_shard(path, self.meta(), [1, 2, 3, 4])
        path.write_bytes(path.read_bytes()[:HEADER_SIZE])  # payload gone
        assert read_shard_meta(path) == self.meta()


def test_manifest_round_trip(tmp_path):
    write_manifest(tmp_path, {"variant": "stable"}, [1, 2, 3], {1: "aa", 2: "bb", 3: "cc"})
    doc = read_manifest(tmp_path)
    assert doc["config"]["variant"] == "stable"
    assert doc["shards"]["2"] == shard_filename(2)


def test_manifest_digests(tmp_path):
    assert manifest_digests(tmp_path) is None  # no manifest: nothing to check
    write_manifest(tmp_path, {"variant": "stable"}, [1, 2], {1: "aa", 2: "bb"})
    assert read_manifest(tmp_path)["version"] == 2
    assert manifest_digests(tmp_path) == {1: "aa", 2: "bb"}
    doc = read_manifest(tmp_path)
    doc["version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert manifest_digests(tmp_path) is None  # version 1 predates the digests


@pytest.mark.parametrize(
    "doc",
    [
        ["not", "an", "object"],
        {"version": "2", "sha256": {"1": "aa"}},
        {"version": 2, "sha256": {"x": "ab"}},
        {"version": 2, "sha256": [1]},
        {"version": 2, "sha256": {"1": 5}},
    ],
    ids=["list", "string-version", "non-node-key", "list-digests", "non-string-digest"],
)
def test_malformed_manifest_is_corrupt(tmp_path, doc):
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(CorruptShard, match="manifest.json"):
        manifest_digests(tmp_path)
