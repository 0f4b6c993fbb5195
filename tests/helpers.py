"""Shared test oracles, independent of the library's elimination path."""

import itertools
from fractions import Fraction


def det_oracle(field, mat):
    """Determinant by permutation expansion."""
    n = mat.nrows
    assert mat.ncols == n
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = 1
        for i in range(n):
            term = field.mul(term, mat.at(i, perm[i]))
        if inversions % 2:
            term = field.sub(0, term)
        total = field.add(total, term)
    return total


def brute_force_entropy_oracle(obs):
    """Shannon entropy of obs's output, one message at a time: the reference.

    Walks all q^B messages in odometer order, evaluates every row on each
    with matrix.dot, and takes the entropy of the output histogram, in
    log-q units.  entropy.brute_force_entropy must return the same Fraction.
    """
    from coopstore.matrix import dot

    f = obs.field
    q = f.order
    b = obs.message_len
    total = q**b
    counts = {}
    msg = [0] * b
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
        out = tuple(dot(f, r, msg) for r in obs.rows)
        counts[out] = counts.get(out, 0) + 1
    h = Fraction(0)
    for c in counts.values():
        e = 0
        while c % q == 0:
            c //= q
            e += 1
        assert c == 1, "output count is not a power of the field order"
        h += Fraction(q**e, total) * (b - e)
    return h


def bytes_to_symbols_oracle(data, q):
    """s-bit chunks of data through one big integer (quadratic; reference only)."""
    s = q.bit_length() - 1
    acc = int.from_bytes(data, "little")
    mask = (1 << s) - 1
    return [(acc >> shift) & mask for shift in range(0, len(data) * 8, s)]


def symbols_to_bytes_oracle(symbols, q, nbytes):
    """Inverse of bytes_to_symbols_oracle through one big integer."""
    s = q.bit_length() - 1
    acc = 0
    for i, v in enumerate(symbols):
        acc |= v << (i * s)
    acc &= (1 << (nbytes * 8)) - 1
    return acc.to_bytes(nbytes, "little")


def product_tables_oracle(field):
    """The product table of every element, all built at once through field.mul.

    The reference for kernels.lane_tables, which builds each on first use.
    """
    mul = field.mul
    return tuple(
        bytes(mul(c, x) if x < field.order else 0 for x in range(256)) for c in range(field.order)
    )


def echelon_lanes_oracle(basis, rows, ncols, field, ops=None):
    """kernels._echelon_lanes with one mod-p translate per row operation: the reference.

    Over GF(p) every row operation row + (p - v) * b is reduced at once, so
    a lane never holds more than (p - 1) + (p - 1)^2; over GF(2^m) a row
    operation XORs in b translated through v's product table.  When ops
    is a list, the number of row operations each row took is appended.
    """
    from coopstore.kernels import mod_table

    binary = field.kind == "binary"
    p = field.order
    mod = None if binary else mod_table(p)
    times = product_tables_oracle(field)
    from_bytes = int.from_bytes
    pivots = [(b.bit_length() - 1, b) for b in basis]
    for row in rows:
        done = 0
        for s, b in pivots:
            v = (row >> s) & 255
            if v:
                done += 1
                if binary:
                    row ^= from_bytes(b.to_bytes(ncols, "big").translate(times[v]), "big")
                else:
                    row = from_bytes((row + (p - v) * b).to_bytes(ncols, "big").translate(mod), "big")
                if not row:
                    break
        if ops is not None:
            ops.append(done)
        if not row:
            continue
        s = (row.bit_length() - 1) & ~7
        v = row >> s
        if v != 1:
            row = from_bytes(row.to_bytes(ncols, "big").translate(times[field.inv(v)]), "big")
        pivots.append((s, row))
        pivots.sort(reverse=True)
        if len(pivots) == ncols:
            break
    return tuple(b for _, b in pivots)


class TowerOracle:
    """Digit-by-digit tower arithmetic: the reference for field.ExtensionField.

    It reads only the tower's parameters.  Elements are split into base
    digits with divmod; add XORs digit by digit, mul is the schoolbook
    product with the reduction folded in from the top digit down, scale
    multiplies every digit, and inv and frobenius are square-and-multiply
    powers.
    """

    def __init__(self, ext):
        self.base = ext.base
        self.degree = ext.degree
        self.reduction = ext.reduction
        self.order = ext.order

    def coords(self, a):
        q = self.base.order
        out = []
        for _ in range(self.degree):
            a, c = divmod(a, q)
            out.append(c)
        return tuple(out)

    def from_coords(self, cs):
        q = self.base.order
        a = 0
        for c in reversed(list(cs)):
            a = a * q + c
        return a

    def add(self, a, b):
        return self.from_coords(x ^ y for x, y in zip(self.coords(a), self.coords(b)))

    def scale(self, base_elem, a):
        mul = self.base.mul
        return self.from_coords(mul(base_elem, c) for c in self.coords(a))

    def mul(self, a, b):
        ca, cb = self.coords(a), self.coords(b)
        r = self.degree
        bm = self.base.mul
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(ca):
            for j, bj in enumerate(cb):
                prod[i + j] ^= bm(ai, bj)
        for i in range(len(prod) - 1, r - 1, -1):
            c, prod[i] = prod[i], 0
            for j in range(r):
                prod[i - r + j] ^= bm(c, self.reduction[j])
        return self.from_coords(prod[:r])

    def pow(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        return self.pow(a, self.base.order)


def expand_oracle(scheme, lam):
    """w(lam) one ExtensionField.scale call per generator entry: the reference for secure._expand.

    w_i = sum_j lam_j * Gab[i][j], read entry by entry off scheme.gabidulin,
    with the randomness positions first: w[secret_len:] + w[:secret_len].
    """
    ext = scheme.ext
    gab = scheme.gabidulin
    w = []
    for i in range(scheme.B):
        acc = 0
        for j, coef in enumerate(lam):
            if coef:
                acc = ext.add(acc, ext.scale(coef, gab.at(i, j)))
        w.append(acc)
    return tuple(w[scheme.secret_len :] + w[: scheme.secret_len])


def _coordinate_rows_oracle(scheme, cell_rows):
    """Expand cell-functionals (over F_q) to rows over the u-coordinates.

    A cell row lam observes sum_j lam_j c_j with c = u @ Gab, which equals
    u . (Gab @ lam^T).  Splitting each extension symbol u_i into B base
    coordinates turns one observed symbol into B base-field rows of length
    B * B.  The Moore generator and every product are recomputed with
    TowerOracle, so nothing here runs the tower arithmetic under test.
    """
    ext = TowerOracle(scheme.ext)
    b = scheme.B
    basis = [ext.from_coords([1 if s == i else 0 for s in range(b)]) for i in range(b)]
    gab = [basis]
    for _ in range(b - 1):
        gab.append([ext.frobenius(v) for v in gab[-1]])
    out = []
    for lam in cell_rows:
        w = [0] * b
        for i in range(b):
            acc = 0
            for j, coef in enumerate(lam):
                if coef:
                    acc = ext.add(acc, ext.scale(coef, gab[i][j]))
            w[i] = acc
        # sigma = sum_i u_i w_i; coordinate t of sigma is linear in u_{i,s}
        cols = {}
        for i in range(b):
            if not w[i]:
                continue
            for s in range(b):
                prod = ext.mul(basis[s], w[i])
                for t_out, coef in enumerate(ext.coords(prod)):
                    if coef:
                        cols.setdefault(t_out, {})[(i, s)] = coef
        for t_out in range(b):
            row = [0] * (b * b)
            for (i, s), coef in cols.get(t_out, {}).items():
                row[i * b + s] = coef
            out.append(tuple(row))
    return out


def _selector_rows_oracle(scheme, start, stop):
    b = scheme.B
    rows = []
    for i in range(start, stop):
        for s in range(b):
            row = [0] * (b * b)
            row[i * b + s] = 1
            rows.append((f"u_{i}[{s}]", tuple(row)))
    return rows


def secrecy_oracle(scheme, eve):
    """The five SecrecyCheck fields by stacked base-field eliminations.

    Every observed extension symbol becomes B base-field rows over the B * B
    coordinates of (secret || randomness); secret and randomness enter as
    unit selector rows, and each field is a rank identity on the stack.
    """
    from coopstore.entropy import (
        conditional_entropy,
        entropy_symbols,
        mutual_information,
        observations,
    )
    from coopstore.eve import leakage_observations

    base = scheme.code.field
    b = scheme.B
    cell_obs = leakage_observations(scheme.code, eve)
    coord_rows = _coordinate_rows_oracle(scheme, cell_obs.unique_rows())
    e_obs = observations(base, b * b, [(f"e[{i}]", r) for i, r in enumerate(coord_rows)])
    s_obs = observations(base, b * b, _selector_rows_oracle(scheme, 0, scheme.secret_len))
    r_obs = observations(base, b * b, _selector_rows_oracle(scheme, scheme.secret_len, b))
    h_e = entropy_symbols(e_obs)
    h_r = entropy_symbols(r_obs)
    return {
        "observed_rank": h_e,
        "randomness_entropy": h_r,
        "coverable": h_e <= h_r,
        "randomness_determined": conditional_entropy(r_obs, s_obs.concat(e_obs)) == 0,
        "mutual_information": mutual_information(s_obs, e_obs),
    }


class FromScratchAnalysis:
    """eve's per-call analysis context without its memos: the reference.

    A row set is a frozenset of plain rows, joined with |.  Every row comes
    straight from the code and every row set is ranked from scratch
    through rank_rows, as the lemma suite and the placement verifications
    did before rows and ranks were memoised per call.  Swapped in for
    eve._AnalysisContext, it must leave every summary unchanged.
    """

    def __init__(self, code):
        self.code = code

    def blocks(self, kind, senders, targets=(), group=None):
        from coopstore.eve import repair_download_rows

        code = self.code
        if kind == "W":
            return frozenset(row for i in senders for _, row in code.storage_rows(i))
        if kind == "D":  # the full traversal, not its span
            return frozenset(row for i in senders for _, row in repair_download_rows(code, i))
        fetch = {
            "S": lambda i, j: code.repair_functional(i, j, group),
            "Z": lambda i, j: code.exchange_functional(i, j, group),
            "S0": code.nominal_repair_row,
            "Z0": code.nominal_exchange_row,
        }[kind]
        return frozenset(fetch(i, j) for j in targets for i in senders if i != j)

    def rank(self, rows):
        from coopstore.entropy import rank_rows

        return rank_rows(self.code.field, self.code.params.B, rows)

    def rank_given(self, rows, given):
        return self.rank(rows | given) - self.rank(given)

    def finish(self, res):
        return res

    def rank_union(self, first, second):
        return self.rank(first | second)
