"""Exact entropy calculus for linear observations of a uniform message.

Every observed symbol is a linear functional of a uniform message vector
over GF(q), so joint entropies are matrix ranks: H(rows) = rank(rows) in
units of log q ("symbols").  rank_rows is the one row-level entry: the
analysis layer ranks plain rows through it, because a rank never depends
on what the rows are called.  ObservationSet adds labels for reports and
the labelled reference views; entropy_symbols, conditional_entropy and
mutual_information are its rank identities on stacked row sets.  A
brute-force enumerator over all q^B messages certifies the rank formula on
tiny instances.

Entropies are reported in symbols because every identity being verified
is integer-valued in that unit; multiply by log2(q) for bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DimensionMismatch, InstanceTooLarge
from .matrix import dot

BRUTE_FORCE_LIMIT = 1 << 20


@dataclass(frozen=True)
class ObservationSet:
    """Labeled linear functionals of one uniform message vector.

    rows are flat tuples of length message_len over the field; labels track
    provenance (which node/transfer produced each observed symbol).
    """

    field: object
    message_len: int
    rows: tuple = ()
    labels: tuple = ()

    def __post_init__(self):
        if len(self.rows) != len(self.labels):
            raise DimensionMismatch("one label per row required")
        for r in self.rows:
            if len(r) != self.message_len:
                raise DimensionMismatch("row length != message length")

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
    if not rows:
        return 0
    return kernels.rank([v for r in rows for v in r], len(rows), ncols, field)


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
    """Shannon entropy of the observed output, by enumerating all messages.

    Returns an exact Fraction in log-q units, computed from the output
    histogram alone (independent of any rank computation).  For a linear
    map every output count is a power of q; a non-power count would mean
    the rows were not linear functionals and raises.
    """
    q = obs.field.order
    b = obs.message_len
    if q**b > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"q^B = {q}^{b} exceeds {BRUTE_FORCE_LIMIT}")
    f = obs.field
    rows = list(obs.rows)
    counts: dict[tuple, int] = {}
    msg = [0] * b
    total = q**b
    for idx in range(total):
        # next message in odometer order
        if idx:
            pos = 0
            while True:
                msg[pos] += 1
                if msg[pos] < q:
                    break
                msg[pos] = 0
                pos += 1
        out = tuple(dot(f, r, msg) for r in rows)
        counts[out] = counts.get(out, 0) + 1
    h = Fraction(0)
    for c in counts.values():
        e = _exact_log(c, q)
        h += Fraction(c, total) * (b - e)
    return h


def _exact_log(c: int, q: int) -> int:
    e = 0
    while c > 1:
        # impossible for genuine linear functionals; guards the exactness claim
        if c % q:
            raise AssertionError("output count is not a power of the field order")
        c //= q
        e += 1
    return e
