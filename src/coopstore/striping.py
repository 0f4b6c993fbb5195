"""Byte stream <-> field symbols <-> fixed-size generations.

Bytes map to symbols through s-bit chunks, s = floor(log2 q), LSB-first,
so every field can carry arbitrary data exactly.  The data path takes
fields of at most 256 elements, so a symbol stream is bytes, one symbol
per byte as in a shard payload.  The conversion runs a block of
lcm(s, 8) bits at a time (3 bytes <-> 8 symbols at GF(11)), lane by lane
through bytes.translate, so it is linear in the input size.  The stream
is prefixed with its 8-byte little-endian byte length and zero-filled at
the tail up to a whole number of B-symbol generations; decoding reads
the prefix and cuts the fill.  Each generation is one t x k data matrix,
row-major.

Every packed symbol is below 2^s, so a decoded stream holding a wider
symbol, or a length prefix past its end, is corrupt (CorruptShard).  That
catches some corruption of a shard read without a manifest digest, not
all: the digest stays the complete check.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import CorruptShard, InvalidConfig

LENGTH_PREFIX_BYTES = 8
# one symbol per byte: n <= 255 always fits, since the codes need q >= n + 1
MAX_FIELD_ORDER = 256


def symbol_bits(q: int) -> int:
    return q.bit_length() - 1


def _block(q: int):
    """(bytes, symbols, symbol bits) of one block of lcm(s, 8) bits."""
    s = symbol_bits(q)
    bits = math.lcm(s, 8)
    return bits // 8, bits // s, s


def bytes_to_symbols(data: bytes, q: int) -> bytes:
    """The s-bit chunks of data, LSB-first, a block of lcm(s, 8) bits at a time."""
    nbytes, nsyms, s = _block(q)
    count = -(-len(data) * 8 // s)
    data = bytes(data) + bytes(-len(data) % nbytes)
    return _lanes_to_symbols(data, nbytes, nsyms, s)[:count]


def _lanes_to_symbols(data: bytes, nbytes: int, nsyms: int, s: int) -> bytes:
    """bytes_to_symbols for s <= 8 on whole blocks, one lane at a time.

    Byte lane b is data[b::nbytes], byte b of every block.  Symbol lane j
    is the OR of the one or two byte lanes its s bits lie in, each
    translated through a shift-and-mask table and ORed in as ints.
    """
    blocks = len(data) // nbytes
    lanes = [data[b::nbytes] for b in range(nbytes)]
    out = bytearray(blocks * nsyms)
    for j in range(nsyms):
        lo = j * s
        lane = 0
        for b in range(lo // 8, (lo + s - 1) // 8 + 1):
            lane |= int.from_bytes(lanes[b].translate(_shift_table(8 * b - lo, s)), "little")
        out[j::nsyms] = lane.to_bytes(blocks, "little")
    return bytes(out)


def symbols_to_bytes(symbols: bytes, q: int, nbytes: int) -> bytes:
    """The first nbytes bytes of the bit string that has symbol i at bit i*s.

    A symbol of 2^s or more cannot come from bytes_to_symbols: CorruptShard.
    """
    block_bytes, nsyms, s = _block(q)
    wide = symbols.translate(None, bytes(range(1 << s)))
    if wide:
        raise CorruptShard(f"corrupt stream: decoded symbol {wide[0]} is wider than {s} bits")
    stream = _lanes_to_bytes(bytes(symbols) + bytes(-len(symbols) % nsyms), block_bytes, nsyms, s)
    return stream[:nbytes] + bytes(max(0, nbytes - len(stream)))


def _lanes_to_bytes(symbols: bytes, block_bytes: int, nsyms: int, s: int) -> bytes:
    """symbols_to_bytes of a bytes stream on whole blocks, one lane at a time.

    Symbol lane j, symbols[j::nsyms], sits at bits j*s .. j*s + s - 1 of
    every block; each byte lane those bits reach gets it translated
    through a shift table, ORed in as ints.
    """
    blocks = len(symbols) // nsyms
    acc = [0] * block_bytes
    for j in range(nsyms):
        lane = symbols[j::nsyms]
        lo = j * s
        for b in range(lo // 8, (lo + s - 1) // 8 + 1):
            acc[b] |= int.from_bytes(lane.translate(_shift_table(lo - 8 * b, 8)), "little")
    out = bytearray(block_bytes * blocks)
    for b, lane in enumerate(acc):
        out[b::block_bytes] = lane.to_bytes(blocks, "little")
    return bytes(out)


@lru_cache(maxsize=None)
def _shift_table(shift: int, bits: int) -> bytes:
    """x -> (x shifted left by shift, right when negative) & (2^bits - 1)."""
    mask = (1 << bits) - 1
    return bytes((x << shift if shift >= 0 else x >> -shift) & mask for x in range(256))


def pack_payload(data: bytes, q: int, block: int) -> bytes:
    """Length-prefixed symbol stream, zero-filled to a multiple of block.

    The one check of which fields the data path takes on the write side
    (shardfile._parse_header is the read side's): at most 256 elements.
    """
    if q > MAX_FIELD_ORDER:
        raise InvalidConfig(
            f"encode takes fields of at most {MAX_FIELD_ORDER} elements, not GF({q})"
        )
    if not data:
        raise InvalidConfig("refusing to encode an empty input")
    framed = len(data).to_bytes(LENGTH_PREFIX_BYTES, "little") + data
    symbols = bytes_to_symbols(framed, q)
    return symbols + bytes(-len(symbols) % block)


def unpack_payload(symbols: bytes, q: int) -> bytes:
    s = symbol_bits(q)
    total_bytes = len(symbols) * s // 8
    if total_bytes < LENGTH_PREFIX_BYTES:
        raise CorruptShard("symbol stream shorter than the length prefix")
    stream = symbols_to_bytes(symbols, q, total_bytes)
    length = int.from_bytes(stream[:LENGTH_PREFIX_BYTES], "little")
    if length > total_bytes - LENGTH_PREFIX_BYTES:
        raise CorruptShard("corrupt stream: length prefix exceeds available data")
    return stream[LENGTH_PREFIX_BYTES : LENGTH_PREFIX_BYTES + length]


def stripe_symbols(symbols, block: int) -> list[list[int]]:
    """Split into generations of exactly block symbols (zero-fill the tail).

    Reference only: the differential tests' oracle, traced by the benchmark.
    """
    out = []
    for start in range(0, len(symbols), block):
        gen = list(symbols[start : start + block])
        if len(gen) < block:
            gen += [0] * (block - len(gen))
        out.append(gen)
    return out
