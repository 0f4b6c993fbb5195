"""On-disk shard format: fixed 52-byte header + fixed-width symbol payload.

Layout (all little-endian):

    offset  size  field
    0       4     magic "CRCS"
    4       2     format version (1)
    6       1     variant tag (0 stable, 1 code-a, 2 code-b)
    7       1     field kind (0 prime, 1 binary)
    8       8     field parameter (prime p, or reduction polynomial bits)
    16      2     extension degree m (0 for prime fields)
    18      2     n        20  2  k         22  2  d        24  2  t
    26      2     alpha    28  2  beta      30  2  beta'
    32      4     B (symbols per generation)
    36      2     node id
    38      2     symbol width in bytes
    40      8     generation count
    48      4     CRC32 of bytes [0, 48)
    52      ...   payload: generations * alpha symbols, row-major by
                  generation, each symbol `width` bytes little-endian

Files are bit-exact deterministic for a given (input, config).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import CorruptShard, InvalidConfig, IoError
from .field import FieldSpec, field_create
from .stable import CodeParams

MAGIC = b"CRCS"
VERSION = 1
_HEADER = struct.Struct("<4sHBBQHHHHHHHHIHHQ")
HEADER_SIZE = _HEADER.size + 4  # + crc32

VARIANT_TAGS = {"stable": 0, "code-a": 1, "code-b": 2}
TAG_VARIANTS = {v: k for k, v in VARIANT_TAGS.items()}


@dataclass(frozen=True)
class ShardMeta:
    variant: str
    field_spec: FieldSpec
    params: CodeParams
    node_id: int
    generations: int

    @property
    def symbol_width(self) -> int:
        return max(1, (self.params.q - 1).bit_length() + 7 >> 3)


def _header_bytes(meta: ShardMeta) -> bytes:
    spec = meta.field_spec
    p = meta.params
    kind = 0 if spec.kind == "prime" else 1
    param = spec.p if spec.kind == "prime" else spec.poly
    m = 0 if spec.kind == "prime" else spec.m
    head = _HEADER.pack(
        MAGIC,
        VERSION,
        VARIANT_TAGS[meta.variant],
        kind,
        param,
        m,
        p.n,
        p.k,
        p.d,
        p.t,
        p.alpha,
        p.beta,
        p.beta_prime,
        p.B,
        meta.node_id,
        meta.symbol_width,
        meta.generations,
    )
    return head + struct.pack("<I", zlib.crc32(head))


def write_shard(path, meta: ShardMeta, symbols) -> None:
    """symbols: flat iterable, generations * alpha entries, generation-major."""
    symbols = list(symbols)
    expect = meta.generations * meta.params.alpha
    if len(symbols) != expect:
        raise InvalidConfig(f"payload needs {expect} symbols, got {len(symbols)}")
    w = meta.symbol_width
    payload = b"".join(v.to_bytes(w, "little") for v in symbols)
    try:
        _write_atomic(path, _header_bytes(meta) + payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _write_atomic(path, blob: bytes) -> None:
    """Write to a temporary file beside path, then rename it over path.

    An interrupted write leaves the previous file intact and no temporary
    file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_shard(path):
    """-> (ShardMeta, flat symbol list); validates magic, CRC and length."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(blob) < HEADER_SIZE:
        raise CorruptShard(f"{path}: truncated header")
    head, crc_bytes = blob[: _HEADER.size], blob[_HEADER.size : HEADER_SIZE]
    (
        magic,
        version,
        variant_tag,
        kind,
        param,
        m,
        n,
        k,
        d,
        t,
        alpha,
        beta,
        beta_prime,
        big_b,
        node_id,
        width,
        generations,
    ) = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CorruptShard(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptShard(f"{path}: unsupported version {version}")
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(head):
        raise CorruptShard(f"{path}: header checksum mismatch")
    if kind == 0:
        spec = FieldSpec.prime(param)
    else:
        spec = FieldSpec.binary(m, param)
    q = param if kind == 0 else 1 << m
    params = CodeParams(
        n=n, k=k, d=d, t=t, alpha=alpha, beta=beta, beta_prime=beta_prime, B=big_b, q=q
    )
    meta = ShardMeta(
        variant=TAG_VARIANTS[variant_tag],
        field_spec=spec,
        params=params,
        node_id=node_id,
        generations=generations,
    )
    if width != meta.symbol_width:
        raise CorruptShard(f"{path}: symbol width {width} != expected {meta.symbol_width}")
    payload = blob[HEADER_SIZE:]
    expect = generations * alpha * width
    if len(payload) != expect:
        raise CorruptShard(f"{path}: payload length {len(payload)} != {expect}")
    field = field_create(spec)
    symbols = []
    for off in range(0, expect, width):
        v = int.from_bytes(payload[off : off + width], "little")
        if v >= field.order:
            raise CorruptShard(f"{path}: symbol value {v} outside the field")
        symbols.append(v)
    return meta, symbols


def shard_filename(node_id: int) -> str:
    return f"node_{node_id:03d}.shard"


def write_manifest(directory, config: dict, nodes) -> None:
    doc = {
        "format": "coopstore-manifest",
        "version": 1,
        "config": config,
        "shards": {str(n): shard_filename(n) for n in nodes},
    }
    _write_atomic(Path(directory, "manifest.json"), json.dumps(doc, indent=2, sort_keys=True).encode())


def read_manifest(directory) -> dict:
    path = Path(directory, "manifest.json")
    if not path.exists():
        raise IoError(f"no manifest.json in {directory}")
    return json.loads(path.read_text())
