"""On-disk shard format: fixed 52-byte header + one-byte symbol payload.

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
    38      2     symbol width in bytes, always 1
    40      8     generation count
    48      4     CRC32 of bytes [0, 48)
    52      ...   payload: generations * alpha symbols, row-major by
                  generation, one byte each

Shards hold fields of at most 256 elements (striping.MAX_FIELD_ORDER):
encode refuses a larger field, and a header naming one is corrupt.

Files are bit-exact deterministic for a given (input, config).

ShardDir is the one reader of a shard directory: decode and repair load
and check their shards, and repair writes regenerated ones, through it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError, CorruptShard, InvalidConfig, IoError
from .field import FieldSpec, field_create
from .stable import CodeParams
from .striping import MAX_FIELD_ORDER

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

    symbol_width = 1  # bytes per symbol; perfbench/layers.py reads it


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
    bytes or a bytearray is written as it is, without a copy.
    With sha256 given, a file whose digest differs is refused unwritten.
    """
    expect = meta.generations * meta.params.alpha
    if len(symbols) != expect:
        raise InvalidConfig(f"payload needs {expect} symbols, got {len(symbols)}")
    payload = symbols if isinstance(symbols, (bytes, bytearray)) else bytes(symbols)
    head = _header_bytes(meta)
    hasher = hashlib.sha256(head)
    hasher.update(payload)
    digest = hasher.hexdigest()
    if sha256 is not None and digest != sha256:
        raise CorruptShard(f"{path}: regenerated shard does not match its manifest.json sha256")
    try:
        write_atomic(path, head, payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return digest


def write_atomic(path, *chunks) -> None:
    """Write the chunks to a temporary file beside path, then rename it over path.

    An interrupted write leaves the previous file intact and no temporary
    file behind.  Every file the package writes goes through here.  An
    OSError names path, not the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def read_shard(path, sha256=None):
    """-> (ShardMeta, payload bytes); validates magic, CRC, length and values.

    With sha256 given, the whole file must have that digest.
    """
    head, payload = _read(path, whole=True)
    if sha256 is not None:
        hasher = hashlib.sha256(head)
        hasher.update(payload)
        if hasher.hexdigest() != sha256:
            raise CorruptShard(f"{path}: sha256 differs from manifest.json")
    meta = _parse_header(path, head)
    expect = meta.generations * meta.params.alpha
    if len(payload) != expect:
        raise CorruptShard(f"{path}: payload length {len(payload)} != {expect}")
    outside = payload.translate(None, bytes(range(meta.params.q)))
    if outside:
        raise CorruptShard(f"{path}: symbol value {outside[0]} outside the field")
    return meta, payload


def read_shard_meta(path) -> ShardMeta:
    """The validated header of a shard file, without reading its payload."""
    return _parse_header(path, _read(path, whole=False)[0])


def _read(path, whole):
    """(header bytes, payload bytes, or b"" unless whole) of a shard file."""
    try:
        with Path(path).open("rb") as fh:
            return fh.read(HEADER_SIZE), fh.read() if whole else b""
    except OSError as exc:
        raise IoError(str(exc)) from exc


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
    q = param if kind == 0 else 1 << m
    if q > MAX_FIELD_ORDER:
        raise CorruptShard(
            f"{path}: GF({q}) is above the {MAX_FIELD_ORDER}-element bound of a shard"
        )
    if width != ShardMeta.symbol_width:
        raise CorruptShard(f"{path}: symbol width {width} != expected {ShardMeta.symbol_width}")
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
    return ShardMeta(
        variant=TAG_VARIANTS[variant_tag],
        field_spec=spec,
        params=params,
        node_id=node_id,
        generations=generations,
    )


def shard_filename(node_id: int) -> str:
    return f"node_{node_id:03d}.shard"


def write_manifest(directory, config: dict, nodes, digests) -> None:
    """manifest.json: the config echo, the shard file names and their digests.

    digests maps node -> sha256 hex digest of its shard file.  The manifest
    written is version 2; manifest_digests still reads version 1, which
    predates the digests.
    """
    doc = {
        "format": "coopstore-manifest",
        "version": MANIFEST_VERSION,
        "config": config,
        "shards": {str(n): shard_filename(n) for n in nodes},
        "sha256": {str(n): digests[n] for n in nodes},
    }
    write_atomic(Path(directory, "manifest.json"), json.dumps(doc, indent=2, sort_keys=True).encode())


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
    manifest has none; their shards are read unchecked.  A manifest that is
    not an object with an integer version, or whose sha256 is not a map
    from node ids to strings, is corrupt.
    """
    path = Path(directory, "manifest.json")
    if not path.exists():
        return None
    doc = read_manifest(directory)
    version = doc.get("version", 1) if isinstance(doc, dict) else None
    if type(version) is not int:
        raise CorruptShard(f"{path}: manifest is not an object with an integer version")
    if version < 2:
        return None
    digests = doc.get("sha256", {})
    if not isinstance(digests, dict) or not all(
        node.isdecimal() and isinstance(digest, str) for node, digest in digests.items()
    ):
        raise CorruptShard(f"{path}: manifest sha256 is not a map of node ids to digests")
    return {int(node): digest for node, digest in digests.items()}


class ShardDir:
    """A directory of shard files and its manifest.json: which shards to trust.

    The manifest's digests are read once.  Every shard read is checked
    against its digest (when the manifest has them), against the node id
    in its file name, and against the shape of the first shard read;
    listed ids whose file is missing are skipped.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.digests = manifest_digests(self.path)

    def present(self) -> list[int]:
        """The node ids of the shard files here, from their names alone.

        Only names that shard_filename produces count: a stray
        node_old.shard or node_2.shard is ignored.
        """
        ids = [shard.stem[len("node_"):] for shard in self.path.glob("node_*.shard")]
        return sorted(
            int(i) for i in ids if i.isdecimal() and shard_filename(int(i)) == f"node_{i}.shard"
        )

    def load(self, nodes=None, group=None):
        """-> (first header read, {node: payload}): the shards to decode or repair from.

        nodes: the ids to read, in order; None means every present id
        outside group.  Ids outside 1..n of the first header read are
        skipped: stale shards of a larger encoding (a listed one is the
        caller's to reject).  Without group (decode) the first k existing
        shards are read in full and the others only have their headers
        checked, so their payloads cannot block decode.  With group (repair)
        only the first d existing shards, the helpers, are opened.
        """
        if nodes is None:
            nodes = [j for j in self.present() if j not in (group or ())]
        first, full, payloads = None, None, {}
        for node in nodes:
            path = self.path / shard_filename(node)
            if not path.exists() or first and not 1 <= node <= first.params.n:
                continue
            if len(payloads) == full:
                if group is not None:
                    break
                self._check(path, node, read_shard_meta(path), first)
                continue
            meta, payloads[node] = read_shard(path, sha256=self._digest(path, node))
            if first is None:
                first = meta
                full = meta.params.k if group is None else meta.params.d
            self._check(path, node, meta, first)
        if first is None:
            raise InvalidConfig(f"no shard files found in {self.path}")
        return first, payloads

    def write(self, node, first, payload) -> None:
        """Write node's regenerated shard under first's header.

        A shard whose sha256 misses its manifest.json digest is refused unwritten.
        """
        path = self.path / shard_filename(node)
        write_shard(path, replace(first, node_id=node), payload, sha256=self._digest(path, node))

    def _digest(self, path, node):
        """The manifest's sha256 for a shard, None when the manifest has none."""
        if self.digests is None:
            return None
        if node not in self.digests:
            raise CorruptShard(f"{path}: node {node} is not listed in manifest.json")
        return self.digests[node]

    @staticmethod
    def _check(path, node, meta, first):
        """A shard's header must name its file's node and have the first shard's shape."""
        if meta.node_id != node:
            raise CorruptShard(f"{path}: header is for node {meta.node_id}, not {node}")
        if replace(meta, node_id=first.node_id) != first:
            raise CorruptShard(
                f"{path}: variant, field, params or generation count differ "
                f"from {shard_filename(first.node_id)}"
            )
