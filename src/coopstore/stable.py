"""The stable cooperative-repair code (d = k family) and its certificate.

Data is a t x k matrix M over GF(q); node j stores column j of M*G where G
is a k x n Vandermonde generator.  Repair of a group of t nodes runs in two
phases driven by a second t x n generator G' (systematic, every t x t
column submatrix invertible):

  phase 1  each helper l sends its stored column dotted with g'_f -- one
           symbol per failed node f, independent of who else failed or is
           helping (the stability property);
  phase 2  each replacement f forwards its solved combination against g_i
           to every other replacement i;
  phase 3  each replacement inverts the t x t submatrix of G' on the group
           and recovers its original column exactly.

The data path runs on whole files through the batch operations
(StableDeployment.encode_batch and reconstruct_batch, which Code B and the
secure store use too, and RepairPlan): one matrix.lincombs call per set of
packet streams that several outputs read, over every generation at once,
with each inverse computed once.
StableCode's per-generation methods are reference only (see StableCode).
Both take and return shards in one shape: a map from node id to that
node's symbols, a whole payload in the batch operations and one
generation's column in the reference.

Every transferred symbol is also exposed as a linear functional of vec(M)
(row-major, length B = k*t) so leakage can be measured as rank.  Code
objects are immutable after construction and all operations are pure given
their shard inputs, so instances are safe to share across threads (a
StableCode's lazily filled row memo only ever stores the one row a key
defines).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    InvalidContext,
    MissingShard,
    NonIntegralParams,
    SelfRepair,
    TooFewShards,
)
from .matrix import Mat, dot, lincombs, systematic_superregular, vandermonde


class CodeParams(namedtuple("CodeParams", "n k d t alpha beta beta_prime B q")):
    """Validated parameter tuple at the minimum-storage cooperative point."""

    __slots__ = ()

    def __new__(cls, n, k, d, t, alpha, beta, beta_prime, B, q):
        if min(n, k, d, t, q) < 1:
            raise NonIntegralParams("all parameters must be positive")
        if n < d + t:
            raise NonIntegralParams(f"need n >= d + t, got n={n}, d+t={d + t}")
        if d < k:
            raise NonIntegralParams("no such codes exist with d < k")
        if B % k or alpha != B // k:
            raise NonIntegralParams("storage per node must equal B/k")
        denom = k * (d - k + t)
        if B % denom:
            raise NonIntegralParams("B must be divisible by k(d-k+t)")
        if beta != B // denom or beta_prime != beta:
            raise NonIntegralParams("repair and exchange bandwidth must equal B/(k(d-k+t))")
        return super().__new__(cls, n, k, d, t, alpha, beta, beta_prime, B, q)

    @classmethod
    def _make(cls, iterable):
        """As namedtuple's _make, but through __new__: _replace checks its values too."""
        return cls(*iterable)

    @staticmethod
    def mscr(n: int, k: int, d: int, t: int, q: int, beta: int = 1) -> "CodeParams":
        """Parameters from the free choices; B inferred from beta."""
        b = k * (d - k + t) * beta
        return CodeParams(
            n=n, k=k, d=d, t=t, alpha=b // k, beta=beta, beta_prime=beta, B=b, q=q
        )


class RepairContext(namedtuple("RepairContext", "group helpers")):
    """A repair group (the replaced nodes) plus the chosen helper set, each sorted."""

    __slots__ = ()

    def __new__(cls, group, helpers):
        return super().__new__(cls, tuple(sorted(group)), tuple(sorted(helpers)))

    @classmethod
    def _make(cls, iterable):
        """As namedtuple's _make, but through __new__: _replace sorts too."""
        return cls(*iterable)


def repair_context(code, group, helpers=None) -> RepairContext:
    group = tuple(sorted(group))
    p = code.params
    if len(set(group)) != len(group) or len(group) != p.t:
        raise InvalidContext(f"repair group must be {p.t} distinct nodes")
    if not all(1 <= g <= p.n for g in group):
        raise InvalidContext("group node id out of range")
    if helpers is None:
        helpers = [i for i in range(1, p.n + 1) if i not in group][: p.d]
    helpers = tuple(sorted(helpers))
    if len(set(helpers)) != len(helpers) or len(helpers) != p.d:
        raise InvalidContext(f"helper set must be {p.d} distinct nodes")
    if not all(1 <= h <= p.n for h in helpers):
        raise InvalidContext("helper node id out of range")
    if set(group) & set(helpers):
        raise InvalidContext("repair group and helper set must be disjoint")
    return RepairContext(group, helpers)


def check_deployment(params: CodeParams, field) -> None:
    """Raise unless StableDeployment.create can build params over field.

    The construction is scalar (beta = 1) with d = k, over the field
    GF(q) that params name, which needs q >= n + 1 for n distinct nonzero
    evaluation points.  A shard header naming other params is foreign.
    """
    n = params.n
    if field.order < n + 1:
        raise FieldTooSmall(f"need field order >= {n + 1} for n={n} nonzero evaluation points")
    if params.d != params.k:
        raise NonIntegralParams("this construction requires d = k")
    if params.beta != 1:
        raise NonIntegralParams("scalar construction: beta must be 1")
    if field.order != params.q:
        raise DimensionMismatch("field order does not match params.q")


class StableDeployment:
    """The deployment shared by the d = k codes, plus their functional protocol.

    Node j stores column j of M*G with a k x n Vandermonde G.  The
    eavesdropper machinery sees each code only through the rows built here.
    A subclass supplies the two transfer primitives,
    repair_functional(helper, failed, group) and
    exchange_functional(sender, receiver, group); whether they depend on the
    group is the whole difference between a stable and an unstable code.
    download_rows gives a context's downloads once, keyed by (kind, sender)
    tuples, and context_label the context's tag; eve.download_label builds a
    printed name from the two only where one is printed.  download_groups
    names the (group, senders) pairs whose download_rows hold every download
    to a node: one per repair group, not one per context.
    The batch operations need only G, so every code here shares them.
    """

    def __init__(self, params: CodeParams, field, G: Mat):
        self.params = params
        self.field = field
        self.G = G
        self._g_cols = [G.col(j) for j in range(params.n)]

    @classmethod
    def create(cls, params: CodeParams, field):
        check_deployment(params, field)
        return cls(params, field, vandermonde(field, range(1, params.n + 1), params.k))

    @property
    def supported_failed_nodes(self):
        """Nodes whose full repair-download traversal can be enumerated."""
        return tuple(range(1, self.params.n + 1))

    def storage_rows(self, node: int):
        return [(f"W_{node}[{i}]", self._packet_row(i, node)) for i in range(self.params.t)]

    def download_groups(self, node: int):
        """Every repair group holding the node, each with the nodes outside it as senders.

        One download_rows call per pair yields every download to the node
        (eve.download_span): download_rows reads each helper on its own, so
        a helper sends the same row under every helper set of a group, and
        since n - t >= d every node outside a group helps in some context.
        """
        p = self.params
        others = [i for i in range(1, p.n + 1) if i != node]
        for rest in itertools.combinations(others, p.t - 1):
            group = tuple(sorted((node,) + rest))
            yield group, tuple(i for i in range(1, p.n + 1) if i not in group)

    def contexts(self, node: int):
        """All (group, helper set) pairs in which the node is repaired."""
        for group, outside in self.download_groups(node):
            for helpers in itertools.combinations(outside, self.params.d):
                yield group, helpers

    def context_label(self, group, helpers) -> str:
        """The "C=...;D=..." tag of every row delivered under one context."""
        return f"C={','.join(map(str, group))};D={','.join(map(str, helpers))}"

    def download_rows(self, node: int, group, helpers):
        """The rows delivered to `node` when repaired under (group, helpers).

        One repair row per helper, keyed ("S", helper), then one exchange
        row per other group member, keyed ("Z", sender).
        """
        rows = [(("S", lam), self.repair_functional(lam, node, group)) for lam in helpers]
        rows += [(("Z", j), self.exchange_functional(j, node, group)) for j in group if j != node]
        return rows

    def nominal_repair_row(self, helper: int, failed: int):
        """The transfer under the least repair group holding the failed node."""
        return self.repair_functional(helper, failed, self._least_group(failed))

    def nominal_exchange_row(self, sender: int, receiver: int):
        """The exchange under the least repair group holding both ends."""
        return self.exchange_functional(sender, receiver, self._least_group(sender, receiver))

    def granted_rows(self, node: int):
        """Extra functionals handed to the eavesdropper for free (none)."""
        return []

    def _packet_row(self, packet_idx: int, column_node: int):
        """Row over vec(M) of m_packet^T g_column: one stored symbol."""
        p = self.params
        g = self._g_cols[column_node - 1]
        row = [0] * p.B
        for c in range(p.k):
            row[packet_idx * p.k + c] = g[c]
        return tuple(row)

    # ---- batched data path -----------------------------------------------------
    # A node payload holds gens * t symbols, generation-major, so payload[i::t]
    # is its packet-i stream (one symbol per generation).  In the message
    # symbol stream, entry (i, c) of every generation's data matrix is the
    # stream symbols[i*k + c :: B].  The file data path's streams are bytes
    # (it takes fields of at most 256 elements); the secure store's tower
    # field and the reference tests pass int lists.  Every payload and
    # stream built here has its input's type (see matrix.lincombs), and an
    # int tuple gives lists.  Each packet index takes one lincombs call over
    # its k source streams, so a source is sliced and read once for all the
    # outputs that use it, and each output is placed as soon as it is made.
    # Both batch operations run over CHUNK_GENERATIONS generations at a time,
    # which bounds the stream-sized temporaries: at 16 MiB over GF(11),
    # encode's peak RSS is 170 MB in chunks of 2^18 generations, and was
    # 252 MB over whole streams (ru_maxrss of a fresh process).

    def encode_batch(self, symbols):
        """node -> payload for a message stream of whole generations."""
        p = self.params
        if len(symbols) % p.B:
            raise DimensionMismatch(f"symbol count {len(symbols)} is not a multiple of B={p.B}")
        gens = len(symbols) // p.B
        payloads = {j: _blank(symbols, gens * p.t) for j in range(1, p.n + 1)}
        for lo, hi in _chunks(gens):
            for i in range(p.t):
                streams = [symbols[lo * p.B + i * p.k + c : hi * p.B : p.B] for c in range(p.k)]
                for j, stream in enumerate(lincombs(self.field, self._g_cols, streams), 1):
                    payloads[j][lo * p.t + i : hi * p.t : p.t] = stream
        return payloads

    def reconstruct_batch(self, payloads):
        """The message stream from the payloads (node -> payload) of k nodes.

        Like reconstruct, it uses the k lowest node ids it is given.
        """
        p = self.params
        if len(payloads) < p.k:
            raise TooFewShards(f"need {p.k} shards, got {len(payloads)}")
        nodes = sorted(payloads)[: p.k]
        size = _stream_size(payloads, nodes, p.t)
        # stored packet i of the k nodes = M_i @ gsub, so M_i = stored @ gsub^-1
        inv = self.G.submatrix(range(p.k), [j - 1 for j in nodes]).inverse()
        cols = [inv.col(c) for c in range(p.k)]
        out = _blank(payloads[nodes[0]], size * p.B)
        for lo, hi in _chunks(size):
            for i in range(p.t):
                packets = [payloads[j][lo * p.t + i : hi * p.t : p.t] for j in nodes]
                for c, stream in enumerate(lincombs(self.field, cols, packets)):
                    out[lo * p.B + i * p.k + c : hi * p.B : p.B] = stream
        return out

    def _least_group(self, *members):
        """Lexicographically least repair group containing the members."""
        p = self.params
        pool = [i for i in range(1, p.n + 1) if i not in members]
        return tuple(sorted(members + tuple(pool[: p.t - len(members)])))


class StableCode(StableDeployment):
    """Instantiated code: the shared deployment plus the repair generator G'.

    Its per-generation encode, reconstruct, repair_symbol and
    cooperative_repair are reference only: the differential tests compare
    the batched path with them, and the benchmark traces them by name.
    Like the batch operations they pass shards as node -> symbols maps,
    here one generation's column per node.
    """

    variant = "stable"

    def __init__(self, params: CodeParams, field, G: Mat):
        super().__init__(params, field, G)
        self.Gp = systematic_superregular(field, params.t, params.n)
        self._gp_cols = [self.Gp.col(j) for j in range(params.n)]
        self._pair_rows = {}  # (g' node, g node) -> _tensor_row, filled by _pair_row

    # ---- encode / reconstruct -------------------------------------------

    def encode(self, data: Mat):
        """node -> column j of data @ G, for every node j.  Reference only."""
        p = self.params
        if (data.nrows, data.ncols) != (p.t, p.k):
            raise DimensionMismatch(f"data matrix must be {p.t}x{p.k}")
        if data.field != self.field:
            raise DimensionMismatch("data matrix over the wrong field")
        coded = data.mul(self.G)
        return {j + 1: coded.col(j) for j in range(p.n)}

    def reconstruct(self, shards) -> Mat:
        """The t x k data matrix from the shards (node -> column) of k nodes.

        Like reconstruct_batch, it uses the k lowest node ids it is given.
        Reference only.
        """
        p = self.params
        if len(shards) < p.k:
            raise TooFewShards(f"need {p.k} shards, got {len(shards)}")
        nodes = sorted(shards)[: p.k]
        gsub = self.G.submatrix(range(p.k), [j - 1 for j in nodes])
        # the row of node j is (M @ g_j)^T, so stored = gsub^T @ M^T
        stored = Mat.from_rows(self.field, [shards[j] for j in nodes])
        return gsub.transpose().solve(stored).transpose()

    # ---- repair ------------------------------------------------------------

    def repair_symbol(self, helper: int, symbols, failed: int):
        """The one symbol a helper, storing symbols, sends toward a failed node.

        Uses only the helper's stored symbols and the public column g'_f,
        so it cannot depend on the repair group or helper set.
        """
        if helper == failed:
            raise SelfRepair("a node cannot help repair itself")
        return dot(self.field, symbols, self._gp_cols[failed - 1])

    def repair_functional(self, helper: int, failed: int, group=None):
        """The repair symbol as a length-B row over vec(M); the group is ignored."""
        if helper == failed:
            raise SelfRepair("a node cannot help repair itself")
        return self._pair_row(failed, helper)

    def exchange_functional(self, sender: int, receiver: int, group=None):
        """Phase-2 symbol (sender's solved combination against g_receiver)."""
        if sender == receiver:
            raise SelfRepair("no self exchange")
        return self._pair_row(sender, receiver)

    def cooperative_repair(self, ctx: RepairContext, shards, transcript=None):
        """node -> regenerated column for every node of ctx.group.

        shards maps node_id -> stored column and must cover ctx.helpers.
        transcript, when given, collects (phase, sender, receiver, symbol)
        for every transferred symbol.
        """
        p = self.params
        ctx = repair_context(self, ctx.group, ctx.helpers)
        for h in ctx.helpers:
            if h not in shards:
                raise MissingShard(f"helper shard {h} unavailable")

        f = self.field
        gsub = self.G.submatrix(range(p.k), [h - 1 for h in ctx.helpers])
        gsub_t_inv = gsub.transpose().inverse()

        # phase 1: d symbols toward each replacement; solve for the combination
        solved = {}
        for fj in ctx.group:
            received = []
            for lam in ctx.helpers:
                sym = self.repair_symbol(lam, shards[lam], fj)
                if transcript is not None:
                    transcript.append((1, lam, fj, sym))
                received.append(sym)
            # received = m'_fj^T @ gsub  ->  m'_fj = gsub^T^{-1} @ received
            solved[fj] = gsub_t_inv.mul_vec(tuple(received))

        # phase 2: every replacement sends its combination against g_i
        inbox = {fj: {} for fj in ctx.group}
        for fj in ctx.group:
            for fi in ctx.group:
                if fi == fj:
                    continue
                sym = dot(f, solved[fj], self._g_cols[fi - 1])
                if transcript is not None:
                    transcript.append((2, fj, fi, sym))
                inbox[fi][fj] = sym

        # phase 3: invert the group's t x t submatrix of G'
        gp_sub = self.Gp.submatrix(range(p.t), [g - 1 for g in ctx.group])
        gp_sub_t_inv = gp_sub.transpose().inverse()
        out = {}
        for fj in ctx.group:
            w = []
            for fi in ctx.group:
                if fi == fj:
                    w.append(dot(f, solved[fj], self._g_cols[fj - 1]))
                else:
                    w.append(inbox[fj][fi])
            out[fj] = gp_sub_t_inv.mul_vec(tuple(w))
        return out

    # ---- internals -------------------------------------------------------------

    def _pair_row(self, left, right):
        """_tensor_row(g'_left, g_right), built on first use and kept.

        Repair row (helper h, failed f) is pair (f, h) and exchange row
        (sender s, receiver r) is pair (s, r), so the two share one row.
        This memoises a pure function of two public columns; it assumes
        nothing about stability, which stability_certificate still checks
        context by context.
        """
        row = self._pair_rows.get((left, right))
        if row is None:
            row = self._tensor_row(self._gp_cols[left - 1], self._g_cols[right - 1])
            self._pair_rows[left, right] = row
        return row

    def _tensor_row(self, left, right):
        """Row over vec(M) of the bilinear form left^T M right."""
        p = self.params
        f = self.field
        row = [0] * p.B
        for i in range(p.t):
            li = left[i]
            if not li:
                continue
            for c in range(p.k):
                if right[c]:
                    row[i * p.k + c] = f.mul(li, right[c])
        return tuple(row)


class RepairPlan:
    """Cooperative repair of one (group, helpers) context over whole payloads.

    The inverses of the helpers' G-submatrix and of the group's
    G'-submatrix are computed once here; run() then applies phases 1-3 of
    cooperative_repair to every generation at once, one stream per
    transfer.  ctx must come from repair_context, which validates it.
    """

    def __init__(self, code: StableCode, ctx: RepairContext):
        p = code.params
        self.code = code
        self.ctx = ctx
        gsub = code.G.submatrix(range(p.k), [h - 1 for h in ctx.helpers])
        self.helpers_inv = gsub.transpose().inverse()
        gp_sub = code.Gp.submatrix(range(p.t), [g - 1 for g in ctx.group])
        self.group_inv = gp_sub.transpose().inverse()

    def run(self, payloads):
        """-> (node -> regenerated payload, (phase-1, phase-2) symbols sent).

        payloads maps node_id -> payload and must cover the helpers.  The
        transfer counts are the lengths of the streams sent.
        """
        code, ctx = self.code, self.ctx
        p, f = code.params, code.field
        for h in ctx.helpers:
            if h not in payloads:
                raise MissingShard(f"helper shard {h} unavailable")
        _stream_size(payloads, ctx.helpers, p.t)
        # one lincombs call per set of input streams that several outputs share
        group = ctx.group
        sent1 = sent2 = 0

        # phase 1: each helper sends one stream toward each replacement;
        # each replacement solves the d it receives for its combination
        received = {fj: [] for fj in group}
        gp_rows = [code._gp_cols[fj - 1] for fj in group]
        for lam in ctx.helpers:
            packets = [payloads[lam][i :: p.t] for i in range(p.t)]
            for fj, stream in zip(group, lincombs(f, gp_rows, packets)):
                received[fj].append(stream)
                sent1 += len(stream)
        inv_rows = [self.helpers_inv.row(r) for r in range(p.k)]
        solved = {fj: list(lincombs(f, inv_rows, received.pop(fj))) for fj in group}

        # phase 2: every replacement sends its combination against g_i, and
        # keeps the one against its own g_fj for phase 3
        g_rows = [code._g_cols[fi - 1] for fi in group]
        w = {fi: {} for fi in group}
        for fj in group:
            for fi, stream in zip(group, lincombs(f, g_rows, solved.pop(fj))):
                w[fi][fj] = stream
                if fi != fj:
                    sent2 += len(stream)

        # phase 3: invert the group's t x t submatrix of G'
        group_rows = [self.group_inv.row(i) for i in range(p.t)]
        out = {}
        for fj in group:
            inbox = w.pop(fj)
            out[fj] = _interleave(list(lincombs(f, group_rows, [inbox[fi] for fi in group])))
        return out, (sent1, sent2)


def _stream_size(payloads, nodes, t):
    """Generations in the nodes' payloads, which must all hold the same count."""
    sizes = {len(payloads[j]) for j in nodes}
    if len(sizes) != 1 or next(iter(sizes)) % t:
        raise DimensionMismatch(f"payload lengths {sorted(sizes)} are not one multiple of t={t}")
    return next(iter(sizes)) // t


CHUNK_GENERATIONS = 1 << 18


def _chunks(gens):
    """(lo, hi) generation ranges of at most CHUNK_GENERATIONS that cover 0..gens."""
    return [(lo, min(gens, lo + CHUNK_GENERATIONS)) for lo in range(0, gens, CHUNK_GENERATIONS)]


def _interleave(streams):
    """One payload from its packet streams: out[i::t] = streams[i]."""
    t = len(streams)
    out = _blank(streams[0], t * len(streams[0]))
    for i, stream in enumerate(streams):
        out[i::t] = stream
    return out


def _blank(like, size):
    """size zero symbols, in a bytearray when the stream like is bytes, else a list."""
    return bytearray(size) if isinstance(like, (bytes, bytearray)) else [0] * size


class StabilityWitness(
    namedtuple(
        "StabilityWitness",
        "helper failed first_context first_row second_context second_row",
    )
):
    """Two contexts in which the same helper->failed transfer differs."""

    __slots__ = ()

    def describe(self) -> str:
        c1, d1 = self.first_context
        c2, d2 = self.second_context
        return (
            f"transfer {self.helper}->{self.failed} differs between "
            f"C={c1},D={d1} and C={c2},D={d2}"
        )


def stability_certificate(code):
    """Exhaustive check that repair transfers depend only on (helper, failed).

    Returns None on pass, otherwise a StabilityWitness exhibiting two
    contexts with different transferred functionals.
    """
    for failed in code.supported_failed_nodes:
        seen = {}
        for group, helpers in code.contexts(failed):
            for lam in helpers:
                row = code.repair_functional(lam, failed, group)
                if lam not in seen:
                    seen[lam] = ((group, helpers), row)
                elif seen[lam][1] != row:
                    return StabilityWitness(
                        helper=lam,
                        failed=failed,
                        first_context=seen[lam][0],
                        first_row=seen[lam][1],
                        second_context=(group, helpers),
                        second_row=row,
                    )
    return None
