"""Exact entropy calculus for linear observations of a uniform message.

Every observed symbol is a linear functional of a uniform message vector
over GF(q), so joint entropies are matrix ranks: H(rows) = rank(rows) in
units of log q ("symbols").  RowSpace is what the analysis layer ranks
through (lemma suite, capacity sweep, secrecy checks): a rank never
depends on what the rows are called, so it holds plain rows as handles,
takes a row set as one int (the OR of its rows' handles) and memoises the
echelon bases it reuses.  rank_rows ranks plain rows from
scratch, and ObservationSet adds labels for reports; entropy_symbols,
conditional_entropy and mutual_information are its rank identities on
stacked row sets.  Those are the from-scratch reference the memoised
ranks are tested against.  A brute-force enumerator over all q^B messages
certifies the rank formula on tiny instances.

Entropies are reported in symbols because every identity being verified
is integer-valued in that unit; multiply by log2(q) for bits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_

from . import kernels
from .errors import DimensionMismatch, InstanceTooLarge
from .record import Record

BRUTE_FORCE_LIMIT = 1 << 20


class ObservationSet(Record):
    """Labeled linear functionals of one uniform message vector; frozen.

    rows are flat tuples of length message_len over the field; labels track
    provenance (which node/transfer produced each observed symbol).  Not a
    tuple: its len() is its row count.
    """

    __slots__ = ("field", "message_len", "rows", "labels")

    def __init__(self, field, message_len: int, rows: tuple = (), labels: tuple = ()):
        if len(rows) != len(labels):
            raise DimensionMismatch("one label per row required")
        for r in rows:
            if len(r) != message_len:
                raise DimensionMismatch("row length != message length")
        for name, value in zip(self.__slots__, (field, message_len, rows, labels)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._astuple())

    def __len__(self):
        return len(self.rows)

    def concat(self, other: "ObservationSet") -> "ObservationSet":
        self._check_compatible(other)
        return ObservationSet(
            self.field, self.message_len, self.rows + other.rows, self.labels + other.labels
        )

    def _check_compatible(self, other):
        if self.field != other.field or self.message_len != other.message_len:
            raise DimensionMismatch("observation sets over different message spaces")

    def unique_rows(self):
        return list(dict.fromkeys(self.rows))


def observations(field, message_len, labeled_rows) -> ObservationSet:
    labeled_rows = list(labeled_rows)
    return ObservationSet(
        field,
        message_len,
        tuple(tuple(r) for _, r in labeled_rows),
        tuple(lbl for lbl, _ in labeled_rows),
    )


def empty_observations(field, message_len) -> ObservationSet:
    return ObservationSet(field, message_len)


def rank_rows(field, ncols, rows) -> int:
    """Rank of hashable rows of length ncols; repeats are dropped, first kept."""
    rows = list(dict.fromkeys(rows))
    return kernels.rank([v for r in rows for v in r], len(rows), ncols, field)


class RowSpace:
    """Rows of length ncols over field, as handles and masks, with memoised echelon bases.

    A row's handle is the bit 1 << (its index among the distinct rows);
    the row is hashed, and packed for kernels.echelon, once.  A row set is
    its mask, the OR of its rows' handles, so callers join row sets with |.
    rank, rank_union and rank_given memoise each row set's echelon basis on
    its mask: a hit is one dict lookup, and a miss is one kernels.echelon
    call.  A union's miss starts from a part's memoised basis and reduces
    the other part's memoised basis rows, or, when that is not memoised,
    only the union's rows outside the part it starts from.  joint_rank,
    for row sets asked once (one placement's whole view), extends given's
    basis in one kernels.rank call and keeps nothing; joint_basis extends
    it the same way in one kernels.echelon call and hands out the basis,
    for a caller that reads more than its length.  lookups counts the
    memo's lookups, eliminations its misses.  A space lives as long as the
    call that made it.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._bits = {}  # distinct row -> handle
        self._packed = {}  # handle -> packed row
        self._plain = {}  # handle -> row
        self._bases = {0: ()}  # the empty row set: rank 0, no elimination
        self._distinct = {}  # each distinct basis, kept once
        self.lookups = 0
        self.eliminations = 0

    def intern(self, row):
        """The handle of a row: the bit of its index among the distinct rows."""
        bit = self._bits.get(row)
        if bit is None:
            bit = self._bits[row] = 1 << len(self._bits)
            self._packed[bit] = kernels.pack(self.field, row)
            self._plain[bit] = row
        return bit

    def mask(self, rows):
        """The mask of a row set given as plain rows."""
        return reduce(or_, map(self.intern, rows), 0)

    def rows(self, mask):
        """The plain rows of a mask, in handle order."""
        return [self._plain[bit] for bit in _handles(mask)]

    def _basis(self, mask):
        """The memoised basis of a row set, eliminated from nothing on a miss."""
        self.lookups += 1
        basis = self._bases.get(mask)
        if basis is None:
            basis = self._memoise(mask, (), self._raw(mask))
        return basis

    def _raw(self, mask):
        """The packed rows of a mask, in handle order."""
        packed = self._packed
        return [packed[bit] for bit in _handles(mask)]

    def _memoise(self, mask, start, extra):
        """Memoise mask's basis: the basis start extended by the packed rows extra."""
        self.eliminations += 1
        basis = kernels.echelon(start, extra, self.ncols, self.field)
        # at n=8, the lemma suite's 5,254 row sets have 1,990 distinct bases
        basis = self._bases[mask] = self._distinct.setdefault(basis, basis)
        return basis

    def _join(self, first, second):
        """The memoised basis of first | second, both masks: one lookup.

        On a miss, when both sets' bases are memoised, the longer (first's
        on a tie) is extended by the shorter's basis rows.  When only one
        is, it is extended by the joint set's rows outside its own set,
        and when neither is, the joint set is eliminated from nothing.
        """
        joint = first | second
        self.lookups += 1
        bases = self._bases
        basis = bases.get(joint)
        if basis is None:
            one, two = bases.get(first), bases.get(second)
            if one is not None and two is not None:
                if len(two) > len(one):
                    one, two = two, one
                basis = self._memoise(joint, one, two)
            elif one is not None:
                basis = self._memoise(joint, one, self._raw(second & ~first))
            elif two is not None:
                basis = self._memoise(joint, two, self._raw(first & ~second))
            else:
                basis = self._memoise(joint, (), self._raw(joint))
        return basis

    def rank(self, rows):
        """H(rows) in symbols, rows as a mask."""
        return len(self._basis(rows))

    def rank_union(self, first, second):
        """H(first, second) = rank(first | second), both masks, memoised like
        rank; a miss joins the two sets' memoised bases (see _join)."""
        return len(self._join(first, second))

    def rank_given(self, rows, given):
        """H(rows | given) = rank(rows stacked on given) - rank(given), both masks.

        given's basis is memoised first, so a miss on the joint set extends
        it, or rows' memoised basis when that is longer (see _join).
        """
        base = self._basis(given)
        return len(self._join(given, rows)) - len(base)

    def joint_rank(self, rows, given):
        """H(rows, given), both masks: given's memoised basis extended by rows, not kept."""
        base = self._basis(given)
        plain = self.rows(rows)
        if not plain:
            return len(base)
        data = [v for row in plain for v in row]
        return kernels.rank(data, len(plain), self.ncols, self.field, basis=base)

    def joint_basis(self, rows, given):
        """The echelon basis of rows stacked on given, both masks: given's
        memoised basis extended by rows' packed rows outside it, not kept."""
        base = self._basis(given)
        extra = rows & ~given
        if not extra:
            return base
        return kernels.echelon(base, self._raw(extra), self.ncols, self.field)


def _handles(mask):
    """The handles (set bits) of a mask, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def entropy_symbols(obs: ObservationSet) -> int:
    """H(obs) in log-q units: the rank of the observation rows."""
    return rank_rows(obs.field, obs.message_len, obs.unique_rows())


def conditional_entropy(x: ObservationSet, y: ObservationSet) -> int:
    """H(X | Y) = rank(X stacked on Y) - rank(Y)."""
    x._check_compatible(y)
    joint = x.unique_rows() + y.unique_rows()
    return rank_rows(x.field, x.message_len, joint) - entropy_symbols(y)


def mutual_information(x: ObservationSet, y: ObservationSet) -> int:
    """I(X; Y) = rank(X) + rank(Y) - rank(X stacked on Y); always >= 0."""
    x._check_compatible(y)
    joint = x.unique_rows() + y.unique_rows()
    return entropy_symbols(x) + entropy_symbols(y) - rank_rows(x.field, x.message_len, joint)


def brute_force_entropy(obs: ObservationSet) -> Fraction:
    """Shannon entropy of the observed output over all q^B messages.

    Returns an exact Fraction in log-q units, computed from the output
    histogram alone (independent of any rank computation).  The histogram
    is built one message coordinate at a time: it starts as {0-vector: 1},
    the output of the one message of length 0, and coordinate pos turns
    every entry (out, count) into the q entries out + v * r[pos] (over
    the rows r), v ranging over the field, each with the same count.
    After the last coordinate it holds the output of every one of the q^B
    messages, counted, through the field's add and mul alone, and never
    more entries than there are distinct outputs.  For a linear map every
    output count is a power of q; a non-power count would mean the rows
    were not linear functionals and raises.
    """
    q = obs.field.order
    b = obs.message_len
    total = q**b
    if total > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"q^B = {q}^{b} exceeds {BRUTE_FORCE_LIMIT}")
    add, mul = obs.field.add, obs.field.mul
    counts = {(0,) * len(obs.rows): 1}
    for pos in range(b):
        column = [r[pos] for r in obs.rows]
        # v * column for every element v; v = 0 leaves an output where it is
        shifts = [tuple(mul(v, c) for c in column) for v in range(1, q)]
        grown = dict(counts)
        for out, c in counts.items():
            for shift in shifts:
                key = tuple(map(add, out, shift))
                grown[key] = grown.get(key, 0) + c
        counts = grown
    assert sum(counts.values()) == total
    # sum over outputs of (c / q^B) * log_q(q^B / c), with c = q^e exactly
    return Fraction(sum(c * (b - _exact_log(c, q)) for c in counts.values()), total)


def _exact_log(c: int, q: int) -> int:
    e = 0
    while c > 1:
        # impossible for genuine linear functionals; guards the exactness claim
        if c % q:
            raise AssertionError("output count is not a power of the field order")
        c //= q
        e += 1
    return e
