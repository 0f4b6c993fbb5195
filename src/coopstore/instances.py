"""Canonical desk-scale instances used by the tests and the package docstring's example.

S1        stable code, q=11, n=6, k=d=3, t=2  (alpha=2, beta=1, B=6)
S1-binary same shape over GF(16); the variant secure precoding runs on
A1        Code A with d=3 over GF(11), omega=2 (admissible)
B1        Code B, q=11, n=6, k=3, t=2
"""

from __future__ import annotations

from .field import binary_field, prime_field
from .legacy import CodeB, code_a_init
from .stable import CodeParams, StableCode


def s1() -> StableCode:
    params = CodeParams.mscr(n=6, k=3, d=3, t=2, q=11)
    return StableCode.create(params, prime_field(11))


def s1_binary() -> StableCode:
    params = CodeParams.mscr(n=6, k=3, d=3, t=2, q=16)
    return StableCode.create(params, binary_field(4))


def a1():
    return code_a_init(3, prime_field(11), 2)


def b1() -> CodeB:
    params = CodeParams.mscr(n=6, k=3, d=3, t=2, q=11)
    return CodeB.create(params, prime_field(11))
