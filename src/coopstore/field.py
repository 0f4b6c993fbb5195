"""Exact finite-field arithmetic: GF(p), GF(2^m), and extensions of GF(2^m).

Elements are canonical ints: residues for prime fields, polynomial bit
masks for GF(2^m), and base-order positional digit packs for extension
towers.  A tower's base is GF(2^m), so its digit pack is the concatenation
of m-bit digits: towers add by XOR and multiply, scale, invert and apply
the Frobenius through small tables built when the field is constructed
(see ExtensionField).  Field objects carry the arithmetic; 0 and 1 are the
identities in every representation.  All values are immutable and field
objects are safe to share between threads (a tower's ladder cache at worst
builds a ladder twice).

Published reduction polynomials for GF(2^m), m = 1..24 (bit mask includes
the leading term; e.g. x^4 + x + 1 -> 0b10011):

    m= 1: x+1                     m=13: x^13+x^4+x^3+x+1
    m= 2: x^2+x+1                 m=14: x^14+x^10+x^6+x+1
    m= 3: x^3+x+1                 m=15: x^15+x+1
    m= 4: x^4+x+1                 m=16: x^16+x^12+x^3+x+1
    m= 5: x^5+x^2+1               m=17: x^17+x^3+1
    m= 6: x^6+x+1                 m=18: x^18+x^7+1
    m= 7: x^7+x^3+1               m=19: x^19+x^5+x^2+x+1
    m= 8: x^8+x^4+x^3+x^2+1       m=20: x^20+x^3+1
    m= 9: x^9+x^4+1               m=21: x^21+x^2+1
    m=10: x^10+x^3+1              m=22: x^22+x+1
    m=11: x^11+x^2+1              m=23: x^23+x^5+1
    m=12: x^12+x^6+x^4+x+1        m=24: x^24+x^7+x^2+x+1

These fixed defaults keep shard files bit-exact across installations.

Published tower reductions over GF(2^m) bases (PUBLISHED_TOWERS, keyed by
base order and extension degree, coefficients low degree first):

    GF(16)^6: y^6 + y^3 + (x^3 + 1), with GF(16) = GF(2)[x]/(x^4 + x + 1)

field_create builds every field, towers included, once per FieldSpec and
keeps it for the life of the process.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (
    FieldKindUnsupported,
    NonPrimeModulus,
    ReduciblePolynomial,
)

MAX_PRIME = 1 << 31
MAX_BINARY_DEGREE = 24
# packed-row ladders an ExtensionField keeps (see ExtensionField.ladder)
LADDER_LIMIT = 4096


def _poly_bits(*exponents: int) -> int:
    mask = 0
    for e in exponents:
        mask |= 1 << e
    return mask


DEFAULT_POLY = {
    1: _poly_bits(1, 0),
    2: _poly_bits(2, 1, 0),
    3: _poly_bits(3, 1, 0),
    4: _poly_bits(4, 1, 0),
    5: _poly_bits(5, 2, 0),
    6: _poly_bits(6, 1, 0),
    7: _poly_bits(7, 3, 0),
    8: _poly_bits(8, 4, 3, 2, 0),
    9: _poly_bits(9, 4, 0),
    10: _poly_bits(10, 3, 0),
    11: _poly_bits(11, 2, 0),
    12: _poly_bits(12, 6, 4, 1, 0),
    13: _poly_bits(13, 4, 3, 1, 0),
    14: _poly_bits(14, 10, 6, 1, 0),
    15: _poly_bits(15, 1, 0),
    16: _poly_bits(16, 12, 3, 1, 0),
    17: _poly_bits(17, 3, 0),
    18: _poly_bits(18, 7, 0),
    19: _poly_bits(19, 5, 2, 1, 0),
    20: _poly_bits(20, 3, 0),
    21: _poly_bits(21, 2, 0),
    22: _poly_bits(22, 1, 0),
    23: _poly_bits(23, 5, 0),
    24: _poly_bits(24, 7, 2, 1, 0),
}

# (base order, extension degree) -> tower reduction polynomial, low degree first
PUBLISHED_TOWERS = {
    (16, 6): (9, 0, 0, 1, 0, 0, 1),  # y^6 + y^3 + (x^3+1)
}


def is_prime(n: int) -> bool:
    """Trial division; fine at desk scale (n < 2^31)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod_gf2(a: int, mod: int) -> int:
    dm = poly_degree(mod)
    while poly_degree(a) >= dm and a:
        a ^= mod << (poly_degree(a) - dm)
    return a


def is_irreducible_gf2(poly: int) -> bool:
    """Exhaustive trial division by all lower-degree GF(2) polynomials."""
    d = poly_degree(poly)
    if d < 1:
        return False
    if d == 1:
        return True
    if not poly & 1:  # x divides
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if poly_degree(g) > d // 2:
            break
        if _poly_mod_gf2(poly, g) == 0:
            return False
    return True


class FieldSpec(
    namedtuple(
        "FieldSpec",
        "kind p m poly base degree reduction",
        defaults=(0, 0, 0, None, 0, ()),
    )
):
    """Declarative description of a field: prime GF(p), binary GF(2^m) or a tower.

    kind is "prime", "binary" or "tower".  A tower spec names its base's
    spec, its degree and its reduction polynomial (low degree first);
    FieldSpec.tower resolves that polynomial from PUBLISHED_TOWERS, so equal
    towers have equal specs and field_create builds each once.
    """

    __slots__ = ()

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(kind="prime", p=p)

    @staticmethod
    def binary(m: int, poly: int | None = None) -> "FieldSpec":
        """GF(2^m) reduced by poly; None or 0 selects DEFAULT_POLY[m]."""
        return FieldSpec(kind="binary", m=m, poly=poly or DEFAULT_POLY.get(m, 0))

    @staticmethod
    def tower(base: "FieldSpec", degree: int) -> "FieldSpec":
        """The degree-`degree` tower over a binary base, reduced by its PUBLISHED_TOWERS entry."""
        if base.kind != "binary":
            raise FieldKindUnsupported("extension towers are built over GF(2^m) bases only")
        key = (1 << base.m, degree)
        if key not in PUBLISHED_TOWERS:
            raise FieldKindUnsupported(f"no published tower for q={key[0]}, degree={degree}")
        return FieldSpec(kind="tower", base=base, degree=degree, reduction=PUBLISHED_TOWERS[key])


class Field:
    """Common interface: the powers, orders and generators shared by every field.

    A subclass provides kind, order and spec, add, sub, mul and inv on
    canonical ints (inv raising ZeroDivisionError on 0), and element(v),
    the canonical representative of an int (reducing prime residues).
    """

    kind: str
    order: int

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def element_order(self, a: int) -> int:
        """Multiplicative order, via the factorization of order-1."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n = self.order - 1
        o = n
        for q in factorize(n):
            while o % q == 0 and self.pow(a, o // q) == 1:
                o //= q
        return o

    def is_generator(self, a: int) -> bool:
        return a != 0 and self.element_order(a) == self.order - 1

    def find_generator(self) -> int:
        if self.order == 2:
            return 1
        for cand in range(2, self.order):
            if self.is_generator(cand):
                return cand
        raise AssertionError("no generator found; field construction is broken")

    def __eq__(self, other):
        return type(self) is type(other) and self.spec == other.spec

    def __hash__(self):
        # kept: the kernels' table caches hash the field on every call
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.spec)
            return self._hash


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise FieldKindUnsupported(f"prime modulus {p} above supported bound 2^31")
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.order = p
        self.spec = FieldSpec.prime(p)
        self.generator = self.find_generator()

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def mul(self, a, b):
        return a * b % self.order

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.order - 2, self.order)

    def element(self, v):
        return v % self.order

    def __repr__(self):
        return f"GF({self.order})"


class BinaryField(Field):
    """GF(2^m) in polynomial basis; elements are m-bit masks."""

    kind = "binary"

    def __init__(self, m: int, poly: int):
        if not 1 <= m <= MAX_BINARY_DEGREE:
            raise FieldKindUnsupported(f"extension degree {m} outside 1..{MAX_BINARY_DEGREE}")
        if poly_degree(poly) != m:
            raise ReduciblePolynomial(f"reduction polynomial degree {poly_degree(poly)} != m={m}")
        if not is_irreducible_gf2(poly):
            raise ReduciblePolynomial(f"polynomial {poly:#x} is reducible over GF(2)")
        self.m = m
        self.poly = poly
        self.order = 1 << m
        self.spec = FieldSpec(kind="binary", m=m, poly=poly)
        # log/exp tables are worthwhile up to m=16 (512 KiB); beyond that
        # multiply directly.  The tables are powers of the generator, which
        # find_generator finds with the direct multiply.
        self._exp = self._log = None
        self.generator = self.find_generator()
        if m <= 16:
            self._build_tables(self.generator)

    def _mul_raw(self, a: int, b: int) -> int:
        r = 0
        top = 1 << self.m
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & top:
                a ^= self.poly
            b >>= 1
        return r

    def _build_tables(self, base: int):
        n = self.order - 1
        exp = [1] * (2 * n)
        log = [0] * self.order
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, base)
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        self._exp, self._log, self._n = exp, log, n

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self._n - self._log[a]]
        return self.pow(a, self.order - 2)

    def element(self, v):
        if not 0 <= v < self.order:
            raise ValueError(f"{v} is not an element mask of GF(2^{self.m})")
        return v

    def frobenius(self, a: int) -> int:
        """a^2: the automorphism fixing GF(2)."""
        return self.mul(a, a)

    def __repr__(self):
        return f"GF(2^{self.m})"


class ExtensionField(Field):
    """Degree-r extension of a binary base field GF(2^m), elements as digit packs.

    An element sum(c_i * y^i) is stored as the int sum(c_i * 2^(m*i)): the
    concatenation of its r m-bit base digits, so base-field ints keep their
    values as the constant digit.  On that view the arithmetic is tables:

    - add is XOR of the ints;
    - scaling by a base constant c runs the int's bytes through c's product
      table with bytes.translate, one table per constant (the region
      multiply of Plank, Greenan and Miller, FAST 2013).  This needs whole
      digits in every byte, so the base must be GF(2), GF(4), GF(16) or
      GF(256);
    - multiply is Horner over the digits of b: shift the accumulator up one
      digit, fold the digit that leaves the top back in through a 2^m-entry
      table of t * y^r mod f, and XOR in b_j * a from the product tables;
    - the Frobenius a -> a^(2^m) is GF(2)-linear, so it is one table per
      byte of the int, built from the images of the bit basis;
    - inverse goes through the norm (Itoh and Tsujii, Inf. Comput. 1988):
      with P = a^q * a^(q^2) * ... * a^(q^(r-1)), the product a * P is the
      norm N(a), a base element, and a^-1 = N(a)^-1 * P;
    - a whole packed row of elements (kernels.pack, nbytes bytes per
      element) times y is one shift-and-fold of its int.  ladder gives a
      row times y^0 .. y^(r-1), and times_ladder turns that into the row
      times any element with one translate per nonzero digit, which is
      how kernels.echelon runs tower rows.

    Used for the rank-metric precoder's field tower.  Build it through
    field_create(FieldSpec.tower(base, degree)): the process then keeps one
    tower per spec, and its tables and its ladder memo outlive a command.
    """

    kind = "tower"

    def __init__(self, base: Field, degree: int, reduction: tuple[int, ...]):
        if base.kind != "binary":
            raise FieldKindUnsupported("extension towers are built over GF(2^m) bases only")
        if 8 % base.m:
            raise FieldKindUnsupported(
                f"tower digits must tile a byte: base GF(2^{base.m}) needs m in 1, 2, 4, 8"
            )
        if degree < 2:
            raise FieldKindUnsupported("tower degree must be at least 2")
        if len(reduction) != degree + 1 or reduction[degree] != 1:
            raise ReduciblePolynomial("reduction polynomial must be monic of the tower degree")
        self.base = base
        self.degree = degree
        self.reduction = tuple(reduction)
        self.order = base.order**degree
        self.spec = FieldSpec(kind="tower", base=base.spec, degree=degree, reduction=self.reduction)
        m = base.m
        self._m = m
        self._digit = base.order - 1
        self._top = degree * m
        self._mask = self.order - 1
        self.nbytes = (self._top + 7) // 8  # bytes of an element's digit pack
        self._shifts = tuple(range(self._top - m, -1, -m))
        self._scale = self._scale_tables()
        # t * y^r = t * (reduction without its leading term), characteristic 2
        low = self.from_coords(self.reduction[:degree])
        self._fold = [self.scale(t, low) for t in range(base.order)]
        if not self._reduction_irreducible():
            raise ReduciblePolynomial("tower reduction polynomial is reducible over the base")
        self._frob = self._frobenius_tables()
        # (coefficient, digit shift) of y^r mod f, for ladder's fold
        self._fold_terms = tuple((c, i * m) for i, c in enumerate(self.reduction[:degree]) if c)
        self._ladders = {}  # (basis row, ncols) -> ladder(row, ncols)

    def _scale_tables(self) -> list[bytes]:
        """Per base constant c, the 256-byte table of c times each byte's digits."""
        base, m = self.base, self._m
        tables = []
        for c in range(base.order):
            prods = [base.mul(c, d) for d in range(base.order)]
            row = [0]
            for k in range(8 // m):
                row = [v | (p << (k * m)) for p in prods for v in row]
            tables.append(bytes(row))
        return tables

    def _frobenius_tables(self) -> list[list[int]]:
        """One 256-entry table per byte: the XOR of the images of its set bits.

        x^i * y^j maps to x^i * Y^j with Y = y^q, since the Frobenius fixes
        the base and is multiplicative.
        """
        r, m = self.degree, self._m
        y_q = self.pow(1 << m, self.base.order)
        images, y_j = [], 1
        for _ in range(r):
            images.extend(self.scale(1 << i, y_j) for i in range(m))
            y_j = self.mul(y_j, y_q)
        images.extend([0] * (8 * self.nbytes - len(images)))
        tables = []
        for k in range(self.nbytes):
            table = [0]
            for img in images[8 * k : 8 * k + 8]:
                table += [v ^ img for v in table]
            tables.append(table)
        return tables

    # --- digit packing ---
    def coords(self, a: int) -> tuple[int, ...]:
        m, digit = self._m, self._digit
        return tuple((a >> (i * m)) & digit for i in range(self.degree))

    def from_coords(self, cs) -> int:
        q = self.base.order
        a = 0
        for c in reversed(list(cs)):
            a = a * q + c
        return a

    def scale(self, base_elem: int, a: int) -> int:
        """Multiply by an embedded base element: one table lookup per byte."""
        table = self._scale[base_elem]
        return int.from_bytes(a.to_bytes(self.nbytes, "little").translate(table), "little")

    # --- packed rows (kernels.pack) ---
    def ladder(self, row: int, ncols: int) -> tuple[bytes, ...]:
        """(row, y*row, ..., y^(r-1)*row) for a packed row of ncols elements, as bytes.

        A packed row is one int with nbytes bytes per element, column 0
        most significant.  Each rung is one shift-and-fold of the one before
        on the whole int: every element's top digit t leaves, the other
        digits move up one, and t comes back as t * (y^r mod f), one
        translate per coefficient of f below y^r other than 0 and 1.

        A row whose leading element is 1, as every echelon basis row is,
        keeps its ladder (at most LADDER_LIMIT at a time): a basis that a
        caller passes back to kernels.echelon needs the same ladders again.
        The memo lives as long as the field, which field_create keeps for
        the process, so later commands reuse the ladders of earlier ones.
        """
        key = (row, ncols)
        rungs = self._ladders.get(key)
        if rungs is not None:
            return rungs
        m, top_digit, lane = self._m, self._top - self._m, 8 * self.nbytes
        size = self.nbytes * ncols
        every = ((1 << (lane * ncols)) - 1) // ((1 << lane) - 1)  # bit 0 of each element
        keep, low = every * ((1 << top_digit) - 1), every * self._digit
        scale, from_bytes = self._scale, int.from_bytes
        basis_row = row >> (max(row.bit_length() - 1, 0) // lane * lane) == 1
        rungs = [row.to_bytes(size, "big")]
        for _ in range(self.degree - 1):
            top = (row >> top_digit) & low  # each element's top digit, moved to its lowest
            row = (row & keep) << m
            if top:
                top_bytes = top.to_bytes(size, "big")
                for c, shift in self._fold_terms:
                    folded = top if c == 1 else from_bytes(top_bytes.translate(scale[c]), "big")
                    row ^= folded << shift
            rungs.append(row.to_bytes(size, "big"))
        rungs = tuple(rungs)
        if basis_row:
            if len(self._ladders) >= LADDER_LIMIT:
                self._ladders.clear()
            self._ladders[key] = rungs
        return rungs

    def times_ladder(self, v: int, rungs: tuple[bytes, ...]) -> int:
        """v * row, packed, for the row whose ladder is rungs.

        The XOR over the nonzero base digits v_i of v of rung i translated
        through v_i's product table: one translate per nonzero digit.
        """
        m, digit, scale, from_bytes = self._m, self._digit, self._scale, int.from_bytes
        out = 0
        for rung in rungs:
            d = v & digit
            if d:
                out ^= from_bytes(rung.translate(scale[d]), "big")
            v >>= m
        return out

    def combine(self, coefs, rows) -> int:
        """sum_j coefs[j] * rows[j], packed, for base-field coefs and packed rows as bytes.

        The XOR over the nonzero coefs[j] of rows[j] translated through its
        product table: one translate per nonzero coefficient, as
        times_ladder does per digit.
        """
        scale, from_bytes = self._scale, int.from_bytes
        out = 0
        for c, row in zip(coefs, rows):
            if c:
                out ^= from_bytes(row.translate(scale[c]), "big")
        return out

    # --- arithmetic ---
    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        times_a = a.to_bytes(self.nbytes, "little").translate
        from_bytes = int.from_bytes
        m, top, mask, digit = self._m, self._top, self._mask, self._digit
        fold, tables = self._fold, self._scale
        acc = 0
        for s in self._shifts:
            acc <<= m
            acc = (acc & mask) ^ fold[acc >> top]
            c = (b >> s) & digit
            if c:
                acc ^= from_bytes(times_a(tables[c]), "little")
        return acc

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        frobenius, mul = self.frobenius, self.mul
        conj = prod = frobenius(a)
        for _ in range(self.degree - 2):
            conj = frobenius(conj)
            prod = mul(prod, conj)
        # a * prod is the norm of a, which lies in the base field
        return self.scale(self.base.inv(mul(a, prod)), prod)

    def element(self, v):
        if not 0 <= v < self.order:
            raise ValueError("value outside tower field range")
        return v

    def frobenius(self, a: int) -> int:
        """a^(base order): the base-field-fixing automorphism."""
        out = 0
        for table, byte in zip(self._frob, a.to_bytes(self.nbytes, "little")):
            out ^= table[byte]
        return out

    def _reduction_irreducible(self) -> bool:
        # Distinct-degree test: y^(q^degree) == y mod f and
        # gcd(y^(q^d) - y, f) trivial for proper divisors d.
        r = self.degree
        y = self.from_coords([0, 1] + [0] * (r - 2))
        # Polynomial arithmetic mod the reduction happens inside this very
        # field's mul, so iterate the Frobenius through self.pow.
        cur = y
        for d in range(1, r + 1):
            cur = self.pow(cur, self.base.order)
            if d < r and r % d == 0:
                if self._gcd_nontrivial(self.sub(cur, y)):
                    return False
        return cur == y

    def _gcd_nontrivial(self, elem: int) -> bool:
        # gcd(poly_of(elem-as-poly-in-y), reduction) in the base poly ring.
        a = list(self.reduction)
        b = list(self.coords(elem)) + [0]
        bm, binv = self.base.mul, self.base.inv

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while deg(b) >= 0:
            if deg(a) < deg(b):
                a, b = b, a
                continue
            da, db = deg(a), deg(b)
            lead = bm(a[da], binv(b[db]))
            for i in range(db + 1):
                if b[i]:
                    a[i + da - db] ^= bm(lead, b[i])
        return deg(a) != 0

    def __repr__(self):
        return f"GF(({self.base.order})^{self.degree})"


@lru_cache(maxsize=None)
def field_create(spec: FieldSpec) -> Field:
    """Validated field handle from a spec, built once per spec and kept for the process.

    Handles are immutable apart from a tower's ladder memo (see
    ExtensionField.ladder), which therefore outlives a command: every
    command of a process that asks for the same tower shares its tables
    and its kept ladders.  The tower's irreducibility test runs once, at
    the first request.
    """
    if spec.kind == "prime":
        return PrimeField(spec.p)
    if spec.kind == "binary":
        return BinaryField(spec.m, spec.poly)
    if spec.kind == "tower":
        return ExtensionField(field_create(spec.base), spec.degree, spec.reduction)
    raise FieldKindUnsupported(f"unknown field kind {spec.kind!r}")


def prime_field(p: int) -> PrimeField:
    return field_create(FieldSpec.prime(p))


def binary_field(m: int, poly: int | None = None) -> BinaryField:
    return field_create(FieldSpec.binary(m, poly))
