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

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, CorruptShard, InvalidConfig, IoError
from .field import FieldSpec, field_create
from .stable import CodeParams

MAGIC = b"CRCS"
VERSION = 1
MANIFEST_VERSION = 2
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


def write_shard(path, meta: ShardMeta, symbols, sha256=None) -> str:
    """Write a shard atomically; returns the sha256 hex digest of the file.

    symbols: flat sequence, generations * alpha entries, generation-major.
    At width 1, bytes or a bytearray is written as it is, without a copy.
    With sha256 given, a file whose digest differs is refused unwritten.
    """
    expect = meta.generations * meta.params.alpha
    if len(symbols) != expect:
        raise InvalidConfig(f"payload needs {expect} symbols, got {len(symbols)}")
    w = meta.symbol_width
    if w > 1:
        payload = b"".join([v.to_bytes(w, "little") for v in symbols])
    elif isinstance(symbols, (bytes, bytearray)):
        payload = symbols
    else:
        payload = bytes(symbols)
    head = _header_bytes(meta)
    hasher = hashlib.sha256(head)
    hasher.update(payload)
    digest = hasher.hexdigest()
    if sha256 is not None and digest != sha256:
        raise CorruptShard(f"{path}: regenerated shard does not match its manifest.json sha256")
    try:
        _write_atomic(path, head, payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return digest


def _write_atomic(path, *chunks) -> None:
    """Write the chunks to a temporary file beside path, then rename it over path.

    An interrupted write leaves the previous file intact and no temporary
    file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_shard(path, sha256=None):
    """-> (ShardMeta, flat symbols); validates magic, CRC, length and values.

    The symbols are the payload bytes themselves at width 1, else a list of
    ints.  With sha256 given, the whole file must have that digest.
    """
    try:
        with Path(path).open("rb") as fh:
            head = fh.read(HEADER_SIZE)
            payload = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if sha256 is not None:
        hasher = hashlib.sha256(head)
        hasher.update(payload)
        if hasher.hexdigest() != sha256:
            raise CorruptShard(f"{path}: sha256 differs from manifest.json")
    meta = _parse_header(path, head)
    w = meta.symbol_width
    expect = meta.generations * meta.params.alpha * w
    if len(payload) != expect:
        raise CorruptShard(f"{path}: payload length {len(payload)} != {expect}")
    q = meta.params.q
    if w == 1:
        symbols = payload
        outside = payload.translate(None, bytes(range(q)))
    else:
        symbols = [int.from_bytes(payload[off : off + w], "little") for off in range(0, expect, w)]
        outside = [v for v in symbols if v >= q]
    if outside:
        raise CorruptShard(f"{path}: symbol value {outside[0]} outside the field")
    return meta, symbols


def read_shard_meta(path) -> ShardMeta:
    """The validated header of a shard file, without reading its payload."""
    try:
        with Path(path).open("rb") as fh:
            head = fh.read(HEADER_SIZE)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return _parse_header(path, head)


def _parse_header(path, blob) -> ShardMeta:
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
    if variant_tag not in TAG_VARIANTS:
        raise CorruptShard(f"{path}: unknown variant tag {variant_tag}")
    if kind not in (0, 1):
        raise CorruptShard(f"{path}: unknown field kind {kind}")
    if kind == 0:
        spec = FieldSpec.prime(param)
    else:
        spec = FieldSpec.binary(m, param)
    try:
        field = field_create(spec)
        params = CodeParams(
            n=n, k=k, d=d, t=t, alpha=alpha, beta=beta, beta_prime=beta_prime, B=big_b,
            q=field.order,
        )
    except ConfigError as exc:
        raise CorruptShard(f"{path}: invalid header: {exc}") from exc
    meta = ShardMeta(
        variant=TAG_VARIANTS[variant_tag],
        field_spec=spec,
        params=params,
        node_id=node_id,
        generations=generations,
    )
    if width != meta.symbol_width:
        raise CorruptShard(f"{path}: symbol width {width} != expected {meta.symbol_width}")
    return meta


def shard_filename(node_id: int) -> str:
    return f"node_{node_id:03d}.shard"


def write_manifest(directory, config: dict, nodes, digests=None) -> None:
    """manifest.json: the config echo and the shard file names.

    With digests (node -> sha256 hex digest of its shard file) it is version 2
    and records them; without, it is version 1 and its shards read unchecked.
    """
    doc = {
        "format": "coopstore-manifest",
        "version": 1,
        "config": config,
        "shards": {str(n): shard_filename(n) for n in nodes},
    }
    if digests is not None:
        doc["version"] = MANIFEST_VERSION
        doc["sha256"] = {str(n): digests[n] for n in nodes}
    _write_atomic(Path(directory, "manifest.json"), json.dumps(doc, indent=2, sort_keys=True).encode())


def read_manifest(directory) -> dict:
    path = Path(directory, "manifest.json")
    if not path.exists():
        raise IoError(f"no manifest.json in {directory}")
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CorruptShard(f"{path}: unreadable manifest: {exc}") from exc


def manifest_digests(directory):
    """node -> expected shard sha256, or None when there is nothing to check.

    A version-1 manifest predates the digests, and a directory without a
    manifest has none; their shards are read unchecked.
    """
    if not Path(directory, "manifest.json").exists():
        return None
    doc = read_manifest(directory)
    if doc.get("version", 1) < 2:
        return None
    return {int(node): digest for node, digest in doc.get("sha256", {}).items()}
