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
secure store use too, and RepairPlan): one matrix.lincomb per packet
stream, over every generation at once, with each inverse computed once.
StableCode's per-generation methods are reference only (see StableCode).

Every transferred symbol is also exposed as a linear functional of vec(M)
(row-major, length B = k*t) so leakage can be measured as rank.  Code
objects are immutable after construction and all operations are pure given
their shard inputs, so instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    DuplicateNode,
    FieldTooSmall,
    InvalidContext,
    MissingShard,
    NonIntegralParams,
    SelfRepair,
    TooFewShards,
)
from .matrix import Mat, dot, lincomb, systematic_superregular, vandermonde


@dataclass(frozen=True)
class CodeParams:
    """Validated parameter tuple at the minimum-storage cooperative point."""

    n: int
    k: int
    d: int
    t: int
    alpha: int
    beta: int
    beta_prime: int
    B: int
    q: int

    def __post_init__(self):
        if min(self.n, self.k, self.d, self.t, self.q) < 1:
            raise NonIntegralParams("all parameters must be positive")
        if self.n < self.d + self.t:
            raise NonIntegralParams(f"need n >= d + t, got n={self.n}, d+t={self.d + self.t}")
        if self.d < self.k:
            raise NonIntegralParams("no such codes exist with d < k")
        if self.B % self.k or self.alpha != self.B // self.k:
            raise NonIntegralParams("storage per node must equal B/k")
        denom = self.k * (self.d - self.k + self.t)
        if self.B % denom:
            raise NonIntegralParams("B must be divisible by k(d-k+t)")
        if self.beta != self.B // denom or self.beta_prime != self.beta:
            raise NonIntegralParams("repair and exchange bandwidth must equal B/(k(d-k+t))")

    @staticmethod
    def mscr(n: int, k: int, d: int, t: int, q: int, beta: int = 1) -> "CodeParams":
        """Parameters from the free choices; B inferred from beta."""
        b = k * (d - k + t) * beta
        return CodeParams(
            n=n, k=k, d=d, t=t, alpha=b // k, beta=beta, beta_prime=beta, B=b, q=q
        )


@dataclass(frozen=True)
class ShardVector:
    """One node's stored symbols for one generation: the reference methods' shard."""

    node_id: int
    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))


@dataclass(frozen=True)
class RepairContext:
    """A repair group (the replaced nodes) plus the chosen helper set."""

    group: tuple
    helpers: tuple

    def __post_init__(self):
        object.__setattr__(self, "group", tuple(sorted(self.group)))
        object.__setattr__(self, "helpers", tuple(sorted(self.helpers)))


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


def context_label(group, helpers) -> str:
    """The "C=...;D=..." tag every row delivered under one context carries."""
    return f"C={','.join(map(str, group))};D={','.join(map(str, helpers))}"


class StableDeployment:
    """The deployment shared by the d = k codes, plus their functional protocol.

    Node j stores column j of M*G with a k x n Vandermonde G.  The
    eavesdropper machinery sees each code only through the rows built here.
    A subclass supplies the two transfer primitives,
    repair_functional(helper, failed, group) and
    exchange_functional(sender, receiver, group); whether they depend on the
    group is the whole difference between a stable and an unstable code.
    The batch operations need only G, so every code here shares them.
    """

    def __init__(self, params: CodeParams, field, G: Mat):
        if params.d != params.k:
            raise NonIntegralParams("this construction requires d = k")
        if params.beta != 1:
            raise NonIntegralParams("scalar construction: beta must be 1")
        if field.order != params.q:
            raise DimensionMismatch("field order does not match params.q")
        self.params = params
        self.field = field
        self.G = G
        self._g_cols = [G.col(j) for j in range(params.n)]

    @classmethod
    def create(cls, params: CodeParams, field):
        n = params.n
        if field.order < n + 1:
            raise FieldTooSmall(
                f"need field order >= {n + 1} for n={n} nonzero evaluation points"
            )
        return cls(params, field, vandermonde(field, range(1, n + 1), params.k))

    @property
    def supported_failed_nodes(self):
        """Nodes whose full repair-download traversal can be enumerated."""
        return tuple(range(1, self.params.n + 1))

    def storage_rows(self, node: int):
        return [(f"W_{node}[{i}]", self._packet_row(i, node)) for i in range(self.params.t)]

    def contexts(self, node: int):
        """All (group, helper set) pairs in which the node is repaired."""
        p = self.params
        others = [i for i in range(1, p.n + 1) if i != node]
        for rest in itertools.combinations(others, p.t - 1):
            group = tuple(sorted((node,) + rest))
            pool = [i for i in range(1, p.n + 1) if i not in group]
            for helpers in itertools.combinations(pool, p.d):
                yield group, helpers

    def repair_row_ctx(self, helper: int, failed: int, group, helpers):
        label = f"S_{helper}^{failed}|{context_label(group, helpers)}"
        return label, self.repair_functional(helper, failed, group)

    def exchange_row_ctx(self, sender: int, receiver: int, group, helpers):
        label = f"Z_{sender}^{receiver}|{context_label(group, helpers)}"
        return label, self.exchange_functional(sender, receiver, group)

    def downloads_for_context(self, node: int, group, helpers):
        """All rows delivered to `node` when repaired under (group, helpers)."""
        ctx = context_label(group, helpers)
        rows = [
            (f"S_{lam}^{node}|{ctx}", self.repair_functional(lam, node, group))
            for lam in helpers
        ]
        rows += [
            (f"Z_{j}^{node}|{ctx}", self.exchange_functional(j, node, group))
            for j in group
            if j != node
        ]
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
    # stream symbols[i*k + c :: B].  Streams are bytes when q <= 256 and int
    # lists otherwise; every payload and stream built here has its input's
    # type (see matrix.lincomb), and an int tuple gives lists.

    def encode_batch(self, symbols):
        """node -> payload for a message stream of whole generations."""
        p = self.params
        if len(symbols) % p.B:
            raise DimensionMismatch(f"symbol count {len(symbols)} is not a multiple of B={p.B}")
        rows = [[symbols[i * p.k + c :: p.B] for c in range(p.k)] for i in range(p.t)]
        return {
            j + 1: _interleave([lincomb(self.field, g, row) for row in rows])
            for j, g in enumerate(self._g_cols)
        }

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
        out = _blank(payloads[nodes[0]], size * p.B)
        for i in range(p.t):
            packets = [payloads[j][i :: p.t] for j in nodes]
            for c in range(p.k):
                out[i * p.k + c :: p.B] = lincomb(self.field, inv.col(c), packets)
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
    """

    variant = "stable"

    def __init__(self, params: CodeParams, field, G: Mat):
        super().__init__(params, field, G)
        self.Gp = systematic_superregular(field, params.t, params.n)
        self._gp_cols = [self.Gp.col(j) for j in range(params.n)]

    # ---- encode / reconstruct -------------------------------------------

    def encode(self, data: Mat):
        """n shards; shard j holds column j of data @ G.  Reference only."""
        p = self.params
        if (data.nrows, data.ncols) != (p.t, p.k):
            raise DimensionMismatch(f"data matrix must be {p.t}x{p.k}")
        if data.field != self.field:
            raise DimensionMismatch("data matrix over the wrong field")
        coded = data.mul(self.G)
        return [ShardVector(j + 1, coded.col(j)) for j in range(p.n)]

    def reconstruct(self, shards) -> Mat:
        """Recover the t x k data matrix from any k shards.  Reference only."""
        p = self.params
        shards = sorted(shards, key=lambda s: s.node_id)
        ids = [s.node_id for s in shards]
        if len(set(ids)) != len(ids):
            raise DuplicateNode(f"duplicate node ids in {ids}")
        if len(shards) < p.k:
            raise TooFewShards(f"need {p.k} shards, got {len(shards)}")
        take = shards[: p.k]
        gsub = self.G.submatrix(range(p.k), [s.node_id - 1 for s in take])
        stored = Mat.from_rows(self.field, [s.symbols for s in take]).transpose()
        # stored = M @ gsub, columns in node order
        return gsub.transpose().solve(stored.transpose()).transpose()

    # ---- repair ------------------------------------------------------------

    def repair_symbol(self, helper_shard: ShardVector, failed: int):
        """The one symbol a helper sends toward a failed node.

        Uses only the helper's stored symbols and the public column g'_f,
        so it cannot depend on the repair group or helper set.
        """
        if helper_shard.node_id == failed:
            raise SelfRepair("a node cannot help repair itself")
        return dot(self.field, helper_shard.symbols, self._gp_cols[failed - 1])

    def repair_functional(self, helper: int, failed: int, group=None):
        """The repair symbol as a length-B row over vec(M); the group is ignored."""
        if helper == failed:
            raise SelfRepair("a node cannot help repair itself")
        return self._tensor_row(self._gp_cols[failed - 1], self._g_cols[helper - 1])

    def exchange_functional(self, sender: int, receiver: int, group=None):
        """Phase-2 symbol (sender's solved combination against g_receiver)."""
        if sender == receiver:
            raise SelfRepair("no self exchange")
        return self._tensor_row(self._gp_cols[sender - 1], self._g_cols[receiver - 1])

    def cooperative_repair(self, ctx: RepairContext, shards, transcript=None):
        """Regenerate all nodes of ctx.group from the helper shards.

        shards maps node_id -> ShardVector and must cover ctx.helpers.
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
                sym = self.repair_symbol(shards[lam], fj)
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
        out = []
        for fj in ctx.group:
            w = []
            for fi in ctx.group:
                if fi == fj:
                    w.append(dot(f, solved[fj], self._g_cols[fj - 1]))
                else:
                    w.append(inbox[fj][fi])
            out.append(ShardVector(fj, gp_sub_t_inv.mul_vec(tuple(w))))
        return out

    # ---- internals -------------------------------------------------------------

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
        packets = {lam: [payloads[lam][i :: p.t] for i in range(p.t)] for lam in ctx.helpers}

        # phase 1: d streams toward each replacement; solve for its combination
        sent1 = sent2 = 0
        solved = {}
        for fj in ctx.group:
            gp = code._gp_cols[fj - 1]
            received = [lincomb(f, gp, packets[lam]) for lam in ctx.helpers]
            sent1 += sum(map(len, received))
            solved[fj] = [lincomb(f, self.helpers_inv.row(r), received) for r in range(p.k)]

        # phase 2: every replacement sends its combination against g_i
        inbox = {fj: {} for fj in ctx.group}
        for fj in ctx.group:
            for fi in ctx.group:
                if fi != fj:
                    stream = lincomb(f, code._g_cols[fi - 1], solved[fj])
                    sent2 += len(stream)
                    inbox[fi][fj] = stream

        # phase 3: invert the group's t x t submatrix of G'
        out = {}
        for fj in ctx.group:
            w = [
                lincomb(f, code._g_cols[fj - 1], solved[fj]) if fi == fj else inbox[fj][fi]
                for fi in ctx.group
            ]
            out[fj] = _interleave([lincomb(f, self.group_inv.row(i), w) for i in range(p.t)])
        return out, (sent1, sent2)


def _stream_size(payloads, nodes, t):
    """Generations in the nodes' payloads, which must all hold the same count."""
    sizes = {len(payloads[j]) for j in nodes}
    if len(sizes) != 1 or next(iter(sizes)) % t:
        raise DimensionMismatch(f"payload lengths {sorted(sizes)} are not one multiple of t={t}")
    return next(iter(sizes)) // t


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


@dataclass(frozen=True)
class StabilityWitness:
    """Two contexts in which the same helper->failed transfer differs."""

    helper: int
    failed: int
    first_context: tuple
    first_row: tuple
    second_context: tuple
    second_row: tuple

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
    for failed in eavesdroppable_nodes(code):
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


def eavesdroppable_nodes(code):
    """Nodes whose full repair-download traversal the code can enumerate."""
    return list(code.supported_failed_nodes)
