"""Byte stream <-> field symbols <-> fixed-size generations.

Bytes map to symbols through s-bit chunks, s = floor(log2 q), LSB-first,
so every field can carry arbitrary data exactly.  The conversion runs a
block of lcm(s, 8) bits at a time (3 bytes <-> 8 symbols at GF(11)), so
it is linear in the input size.  When q <= 256 a symbol stream is bytes,
one symbol per byte as in a width-1 shard, converted lane by lane through
bytes.translate; larger fields use int lists.  The stream is prefixed with its 8-byte
little-endian byte length and zero-filled at the tail up to a whole
number of B-symbol generations; decoding reads the prefix and cuts the
fill.  Each generation is one t x k data matrix, row-major.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidConfig

LENGTH_PREFIX_BYTES = 8


def symbol_bits(q: int) -> int:
    return q.bit_length() - 1


def _block(q: int):
    """(bytes, symbols, symbol bits) of one block of lcm(s, 8) bits."""
    s = symbol_bits(q)
    bits = math.lcm(s, 8)
    return bits // 8, bits // s, s


def _merge(fields, count: int, width: int) -> list[int]:
    """OR each run of count fields into one int, field j shifted by j*width."""
    out = list(fields[0::count])
    for j in range(1, count):
        shift = j * width
        out = [v | x << shift for v, x in zip(out, fields[j::count])]
    return out


def _split(values, count: int, width: int) -> list[int]:
    """Inverse of _merge for fields below 2^width: count fields per value."""
    mask = (1 << width) - 1
    out = [0] * (len(values) * count)
    for j in range(count):
        shift = j * width
        out[j::count] = [v >> shift & mask for v in values]
    return out


def bytes_to_symbols(data: bytes, q: int):
    """The s-bit chunks of data, LSB-first, a block of lcm(s, 8) bits at a time.

    bytes when q <= 256 (see _lanes_to_symbols), else a list of ints.
    """
    nbytes, nsyms, s = _block(q)
    count = -(-len(data) * 8 // s)
    data = bytes(data) + bytes(-len(data) % nbytes)
    if q <= 256:
        return _lanes_to_symbols(data, nbytes, nsyms, s)[:count]
    return _split(_merge(data, nbytes, 8), nsyms, s)[:count]


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


def symbols_to_bytes(symbols, q: int, nbytes: int) -> bytes:
    """The first nbytes bytes of the bit string that ORs symbol i in at bit i*s.

    Values above 2^s - 1 spill into the following symbols' bits, as they
    would in one big integer.
    """
    block_bytes, nsyms, s = _block(q)
    if isinstance(symbols, (bytes, bytearray)):
        symbols = bytes(symbols) + bytes(-len(symbols) % nsyms)
        stream = _lanes_to_bytes(symbols, block_bytes, nsyms, s)
    else:
        symbols = list(symbols) + [0] * (-len(symbols) % nsyms)
        stream = bytes(_split(_spill(_merge(symbols, nsyms, s), block_bytes * 8), block_bytes, 8))
    return stream[:nbytes] + bytes(max(0, nbytes - len(stream)))


def _lanes_to_bytes(symbols: bytes, block_bytes: int, nsyms: int, s: int) -> bytes:
    """symbols_to_bytes of a bytes stream on whole blocks, one lane at a time.

    Symbol lane j, symbols[j::nsyms], sits at bit j*s of every block; each
    byte lane its values reach gets it translated through a shift table,
    ORed in as ints.  A value of up to 8 bits spills at most into byte 0 of
    the next block: one element on in that lane, so one block more than
    the input is returned.
    """
    blocks = len(symbols) // nsyms
    width = s  # the bit length of the largest value, at least s
    while width < 8 and symbols.translate(None, bytes(range(1 << width))):
        width += 1
    acc = [0] * block_bytes
    for j in range(nsyms):
        lane = symbols[j::nsyms]
        lo = j * s
        for b in range(lo // 8, (lo + width - 1) // 8 + 1):
            part = int.from_bytes(lane.translate(_shift_table(lo - 8 * b, 8)), "little")
            acc[b % block_bytes] |= part << 8 * (b // block_bytes)
    out = bytearray(block_bytes * (blocks + 1))
    for b, lane in enumerate(acc):
        out[b::block_bytes] = lane.to_bytes(blocks + 1, "little")
    return bytes(out)


@lru_cache(maxsize=None)
def _shift_table(shift: int, bits: int) -> bytes:
    """x -> (x shifted left by shift, right when negative) & (2^bits - 1)."""
    mask = (1 << bits) - 1
    return bytes((x << shift if shift >= 0 else x >> -shift) & mask for x in range(256))


def _spill(blocks, bits: int) -> list[int]:
    """Blocks of at most bits bits: each one's excess ORed into the following ones."""
    full = (1 << bits) - 1
    reach = -(-max(blocks, default=0).bit_length() // bits) - 1
    out = [v & full for v in blocks] + [0] * max(0, reach)
    for dist in range(1, reach + 1):
        shift = dist * bits
        out[dist : dist + len(blocks)] = [o | v >> shift & full for o, v in zip(out[dist:], blocks)]
    return out


def pack_payload(data: bytes, q: int, block: int):
    """Length-prefixed symbol stream, zero-filled to a multiple of block.

    bytes when q <= 256, else a list of ints (as bytes_to_symbols).
    """
    if not data:
        raise InvalidConfig("refusing to encode an empty input")
    framed = len(data).to_bytes(LENGTH_PREFIX_BYTES, "little") + data
    symbols = bytes_to_symbols(framed, q)
    fill = (-len(symbols)) % block
    if isinstance(symbols, bytes):
        return symbols + bytes(fill)
    return symbols + [0] * fill


def unpack_payload(symbols, q: int) -> bytes:
    s = symbol_bits(q)
    total_bytes = len(symbols) * s // 8
    if total_bytes < LENGTH_PREFIX_BYTES:
        raise InvalidConfig("symbol stream shorter than the length prefix")
    stream = symbols_to_bytes(symbols, q, total_bytes)
    length = int.from_bytes(stream[:LENGTH_PREFIX_BYTES], "little")
    if length > total_bytes - LENGTH_PREFIX_BYTES:
        raise InvalidConfig("corrupt stream: length prefix exceeds available data")
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
