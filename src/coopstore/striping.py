"""Byte stream <-> field symbols <-> fixed-size generations.

Bytes map to symbols through s-bit chunks, s = floor(log2 q), LSB-first,
so every field can carry arbitrary data exactly.  The conversion runs a
block of lcm(s, 8) bits at a time (3 bytes <-> 8 symbols at GF(11)), so
it is linear in the input size.  The stream is prefixed with its 8-byte
little-endian byte length and zero-filled at the tail up to a whole
number of B-symbol generations; decoding reads the prefix and cuts the
fill.  Each generation is one t x k data matrix, row-major.
"""

from __future__ import annotations

import math

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


def bytes_to_symbols(data: bytes, q: int) -> list[int]:
    """The s-bit chunks of data, LSB-first, a block of lcm(s, 8) bits at a time."""
    nbytes, nsyms, s = _block(q)
    count = -(-len(data) * 8 // s)
    data = bytes(data) + bytes(-len(data) % nbytes)
    return _split(_merge(data, nbytes, 8), nsyms, s)[:count]


def symbols_to_bytes(symbols, q: int, nbytes: int) -> bytes:
    """The first nbytes bytes of the bit string that ORs symbol i in at bit i*s.

    Field elements above 2^s - 1 spill into the next symbol's bits, as they
    would in one big integer.
    """
    block_bytes, nsyms, s = _block(q)
    symbols = list(symbols)
    symbols += [0] * (-len(symbols) % nsyms)
    blocks = _merge(symbols, nsyms, s)
    bits = block_bytes * 8
    full = (1 << bits) - 1
    while max(blocks, default=0) > full:
        if blocks[-1] > full:
            blocks.append(0)
        blocks = [v & full | h >> bits for v, h in zip(blocks, [0] + blocks)]
    stream = bytes(_split(blocks, block_bytes, 8))
    return stream[:nbytes] + bytes(max(0, nbytes - len(stream)))


def pack_payload(data: bytes, q: int, block: int) -> list[int]:
    """Length-prefixed symbol stream, zero-filled to a multiple of block."""
    if not data:
        raise InvalidConfig("refusing to encode an empty input")
    framed = len(data).to_bytes(LENGTH_PREFIX_BYTES, "little") + data
    symbols = bytes_to_symbols(framed, q)
    fill = (-len(symbols)) % block
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
    """Split into generations of exactly block symbols (zero-fill the tail)."""
    out = []
    for start in range(0, len(symbols), block):
        gen = list(symbols[start : start + block])
        if len(gen) < block:
            gen += [0] * (block - len(gen))
        out.append(gen)
    return out
