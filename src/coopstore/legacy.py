"""The two earlier cooperative-repair codes and their eavesdropping attacks.

Code A (k = t = 2, alpha = d = n - 2): node 1 stores a, node 2 stores b,
parity node i+2 stores a + D_i b for diagonal D_i built from powers of a
field generator.  Its repair transfers change with the repair group; an
eavesdropper on node 1's downloads collects, from a single parity node
across all groups, a full invertible system in (a, b) and recovers
everything.

Code B (d = k, alpha = t): same deployment as the stable code (M*G with a
Vandermonde G) but repair assigns helper packets to replacements by serial
order, so the packet a helper sends to a given node depends on which other
nodes failed.  Sliding the repair window leaks every row of M to one
observed node.

Both codes are modeled at the repair-functional level; Code A's
cooperative-exchange payload is undefined in its source and is not
simulated -- the attack instead receives node 1's content directly,
flagged as granted rows in reports.
"""

from __future__ import annotations

from collections import namedtuple

from .entropy import ObservationSet, entropy_symbols, observations
from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    InadmissibleOmega,
    InvalidContext,
    InvalidGroup,
    NotGenerator,
    ParameterTooSmall,
    Singular,
    SingularLeakageMatrix,
)
from .eve import EveModel, download_label, leakage_observations, repair_download_rows
from .matrix import Mat, dot, lincombs
from .stable import CodeParams, StableDeployment, repair_context
from .stable import _interleave, _stream_size


# --------------------------------------------------------------------------
# Code A
# --------------------------------------------------------------------------


def admissibility_value(field, omega: int, alpha: int) -> int:
    """(1 + w + ... + w^(alpha-1))^2 * w^-(alpha-1); must avoid {0, alpha^2}."""
    s = 0
    for e in range(alpha):
        s = field.add(s, field.pow(omega, e))
    val = field.mul(s, s)
    return field.mul(val, field.inv(field.pow(omega, alpha - 1)))


class CodeAParams(namedtuple("CodeAParams", "field d omega")):
    """Code A over a field: d helpers and the diagonal generator omega."""

    __slots__ = ()

    @property
    def n(self):
        return self.d + 2

    @property
    def alpha(self):
        return self.d

    @property
    def B(self):
        return 2 * self.d

    def diag(self, i: int):
        """Diagonal of D_i: entry r is omega^((i-1+r) mod alpha), r from 0."""
        f = self.field
        return tuple(f.pow(self.omega, (i - 1 + r) % self.alpha) for r in range(self.alpha))


def code_a_init(d: int, field, omega: int) -> CodeAParams:
    """Validate (d, q, omega) for Code A; builds the diagonal family."""
    if d < 2:
        raise ParameterTooSmall("Code A needs d >= 2")
    n = d + 2
    if field.order <= n - 1:
        raise FieldTooSmall(f"need q > n - 1 = {n - 1}, got q = {field.order}")
    omega = field.element(omega)
    if omega == 0 or not field.is_generator(omega):
        raise NotGenerator(f"omega={omega} does not generate the multiplicative group")
    val = admissibility_value(field, omega, d)
    alpha_elem = _sum_ones(field, d)  # alpha = d in the field's characteristic
    alpha_sq = field.mul(alpha_elem, alpha_elem)
    if val == 0 or val == alpha_sq:
        raise InadmissibleOmega(
            f"admissibility value {val} lies in {{0, alpha^2={alpha_sq}}}", condition_value=val
        )
    return CodeAParams(field=field, d=d, omega=omega)


def _sum_ones(field, count: int) -> int:
    acc = 0
    for _ in range(count):
        acc = field.add(acc, 1)
    return acc


def code_a_encode(params: CodeAParams, a, b):
    """node -> symbols: node 1 holds a, node 2 holds b, node i+2 holds a + D_i b."""
    alpha = params.alpha
    a, b = tuple(a), tuple(b)
    if len(a) != alpha or len(b) != alpha:
        raise DimensionMismatch(f"vectors must have length {alpha}")
    f = params.field
    shards = {1: a, 2: b}
    for i in range(1, params.d + 1):
        shards[i + 2] = tuple(f.add(x, f.mul(w, y)) for x, w, y in zip(a, params.diag(i), b))
    return shards


def code_a_repair_functionals(params: CodeAParams, group) -> ObservationSet:
    """The labelled repair data sent to node 1 under one group (1, l).

    The rows are node 1's traversal (CodeAAdapter.download_rows) under that
    group; only the labels are built here.
    """
    group = tuple(sorted(group))
    if len(group) != 2 or group[0] != 1 or not 2 <= group[1] <= params.n:
        raise InvalidGroup(f"only groups (1, l) are modeled, got {group}")
    code = CodeAAdapter(params)
    rows = [
        (download_label(code, 1, key), row)
        for key, row in repair_download_rows(code, 1)
        if key[2] == group
    ]
    return observations(params.field, params.B, rows)


def code_a_leakage_matrix(params: CodeAParams, j: int) -> Mat:
    """Columns [z, D_1 z, ..., D_{j-1} z, D_{j+1} z, ..., D_d z]."""
    alpha = params.alpha
    cols = [(1,) * alpha]
    for i in range(1, params.d + 1):
        if i != j:
            cols.append(params.diag(i))
    return Mat.from_rows(params.field, cols).transpose()


def code_a_inverse_leakage_matrix(params: CodeAParams, j: int) -> Mat:
    """Columns [z, D_1^{-1} z, ...(skip j)..., D_d^{-1} z].

    The paper's construction; kept here for the reason CodeB gives.
    """
    f = params.field
    alpha = params.alpha
    cols = [(1,) * alpha]
    for i in range(1, params.d + 1):
        if i != j:
            cols.append(tuple(f.inv(v) for v in params.diag(i)))
    return Mat.from_rows(params.field, cols).transpose()


class CodeAAttackResult(
    namedtuple(
        "CodeAAttackResult", "recovered_a recovered_b leaked_entropy observations parity_index"
    )
):
    """What code_a_attack recovered, and the ObservationSet it used."""

    __slots__ = ()


def code_a_attack(params: CodeAParams, a, b, j: int = 1) -> CodeAAttackResult:
    """Recover (a, b) from node 1's repair downloads across all groups.

    The eavesdropper keeps the d symbols parity node j+2 sends to node 1
    (one per repair group), solves the leakage system for D_j^{-1} a + b,
    and combines it with node 1's content a (granted: the downloads
    determine it, but the exchange payload is not modeled).
    """
    f = params.field
    alpha = params.alpha
    a, b = tuple(a), tuple(b)
    r_j = code_a_encode(params, a, b)[j + 2]

    dj_inv = [f.inv(v) for v in params.diag(j)]
    z_dj_inv_r = dot(f, dj_inv, r_j)  # group (1,2) symbol from parity j
    symbols = [z_dj_inv_r]
    for i in range(1, params.d + 1):
        if i == j:
            continue
        di = params.diag(i)
        symbols.append(dot(f, [f.mul(x, y) for x, y in zip(di, dj_inv)], r_j))

    m17 = code_a_leakage_matrix(params, j)
    try:
        # symbols = v^T @ m17 with v = D_j^{-1} a + b
        v = m17.transpose().solve(Mat(params.field, alpha, 1, symbols)).col(0)
    except Singular as exc:
        raise SingularLeakageMatrix(
            f"leakage matrix for parity {j} is singular; omega inadmissible"
        ) from exc

    rec_b = tuple(f.sub(vi, f.mul(dji, ai)) for vi, dji, ai in zip(v, dj_inv, a))
    rec_a = a  # granted

    obs = leakage_observations(CodeAAdapter(params), EveModel(F=(1,)))
    return CodeAAttackResult(
        recovered_a=rec_a,
        recovered_b=rec_b,
        leaked_entropy=entropy_symbols(obs),
        observations=obs,
        parity_index=j,
    )


class CodeAAdapter:
    """Functional protocol over the (a, b) message space, node-1 traversal only."""

    variant = "code-a"
    supported_failed_nodes = (1,)

    def __init__(self, params: CodeAParams):
        self.code_params = params
        self.field = params.field
        d = params.d
        self.params = CodeParams.mscr(n=params.n, k=2, d=d, t=2, q=params.field.order)

    def storage_rows(self, node: int):
        p = self.code_params
        alpha = p.alpha
        rows = []
        if node == 1:
            for r in range(alpha):
                row = [0] * p.B
                row[r] = 1
                rows.append((f"W_1[{r}]", tuple(row)))
        elif node == 2:
            for r in range(alpha):
                row = [0] * p.B
                row[alpha + r] = 1
                rows.append((f"W_2[{r}]", tuple(row)))
        else:
            di = p.diag(node - 2)
            for r in range(alpha):
                row = [0] * p.B
                row[r] = 1
                row[alpha + r] = di[r]
                rows.append((f"W_{node}[{r}]", tuple(row)))
        return rows

    def contexts(self, node: int):
        if node != 1:
            raise InvalidGroup("only node 1's repair traversal is modeled")
        p = self.code_params
        for ell in range(2, p.n + 1):
            group = (1, ell)
            helpers = tuple(i for i in range(2, p.n + 1) if i != ell)
            yield group, helpers

    # one helper set per group, so download_span walks the contexts themselves
    download_groups = contexts

    def context_label(self, group, helpers) -> str:
        """The "C=1,l" tag: Code A's downloads depend on the group alone."""
        return f"C={','.join(map(str, group))}"

    def download_rows(self, node: int, group, helpers):
        """The repair data sent to node 1 under group (1, l), keyed ("S", sender).

        For (1, 2) each parity j sends z^T D_j^{-1} r_j.  For (1, i+2)
        parity j != i sends z^T D_i D_j^{-1} r_j (the aligned combination)
        and node 2 sends z^T D_i b.  The exchange payload is undefined in
        the source construction, so no row is keyed "Z".
        """
        p = self.code_params
        f = p.field
        inv = {j: tuple(f.inv(v) for v in p.diag(j)) for j in range(1, p.d + 1)}
        if group[1] == 2:
            # helpers: all d parity nodes
            return [(("S", j + 2), inv[j] + (1,) * p.alpha) for j in inv]
        i = group[1] - 2
        di = p.diag(i)
        rows = [(("S", j + 2), tuple(map(f.mul, di, inv[j])) + di) for j in inv if j != i]
        return rows + [(("S", 2), (0,) * p.alpha + di)]

    def granted_rows(self, node: int):
        if node != 1:
            return []
        return [(f"granted {label}", row) for label, row in self.storage_rows(1)]


# --------------------------------------------------------------------------
# Code B
# --------------------------------------------------------------------------


class CodeB(StableDeployment):
    """Serial-order repair over the stable code's deployment (no G').

    repair and code_b_repair_data are the paper's constructions: only tests
    call them, but moved there they would leave tests checking test code.
    """

    variant = "code-b"

    def packet_index(self, node: int, group) -> int:
        """Which stored packet helpers send to `node` under `group` (0-based)."""
        group = tuple(sorted(group))
        if node not in group:
            raise InvalidContext(f"{node} not in repair group {group}")
        return group.index(node)

    def repair(self, group, helpers, payloads):
        """Original two-phase repair, on packet streams.

        payloads maps node_id -> payload for the helpers; returns the same
        for the regenerated group.
        """
        p, f = self.params, self.field
        ctx = repair_context(self, group, helpers)
        _stream_size(payloads, ctx.helpers, p.t)
        gsub = self.G.submatrix(range(p.k), [h - 1 for h in ctx.helpers])
        inv = gsub.transpose().inverse()
        inv_rows = [inv.row(r) for r in range(p.k)]
        g_rows = [self._g_cols[fj - 1] for fj in ctx.group]
        packets = {fj: [] for fj in ctx.group}  # fj -> its regenerated packet streams
        for fj in ctx.group:
            # group member fj solves for the k streams of row idx of M ...
            idx = self.packet_index(fj, ctx.group)
            received = [payloads[lam][idx :: p.t] for lam in ctx.helpers]
            row = list(lincombs(f, inv_rows, received))
            # ... which give packet idx of every node in the group
            for fi, stream in zip(ctx.group, lincombs(f, g_rows, row)):
                packets[fi].append(stream)
        return {fj: _interleave(streams) for fj, streams in packets.items()}

    # --- transfer primitives: the packet sent follows the group's serial order ---

    def repair_functional(self, helper: int, failed: int, group):
        return self._packet_row(self.packet_index(failed, group), helper)

    def exchange_functional(self, sender: int, receiver: int, group):
        return self._packet_row(self.packet_index(sender, group), receiver)


def code_b_repair_data(code: CodeB, data: Mat, group, helpers):
    """Per-(helper, failed) transferred symbols under one serial-order context.

    Returns (symbols, functionals): symbols maps (helper, failed) to the
    transmitted field element; functionals is the labeled observation set of
    the same transfers over vec(M).
    """
    ctx = repair_context(code, group, helpers)
    group, helpers = ctx.group, ctx.helpers
    payloads = code.encode_batch(data.data)
    symbols = {}
    rows = []
    for fj in group:
        idx = code.packet_index(fj, group)
        for lam in helpers:
            symbols[(lam, fj)] = payloads[lam][idx]
            label = download_label(code, fj, ("S", lam, group, helpers))
            rows.append((label, code.repair_functional(lam, fj, group)))
    return symbols, observations(code.field, code.params.B, rows)


class CodeBAttackResult(
    namedtuple("CodeBAttackResult", "recovered leaked_entropy observations groups helpers")
):
    """What code_b_attack recovered (a Mat), and the ObservationSet it used."""

    __slots__ = ()


def code_b_attack(code: CodeB, data: Mat) -> CodeBAttackResult:
    """Sliding-group traversal recovering all of M from one node's downloads.

    Groups [i, t-1+i] for i = 1..t are repaired in turn with helper set
    [2t, 2t+k-1]; node t's position inside the group slides, so it receives
    every packet row of M against an invertible k-column section of G.
    """
    p = code.params
    if p.n < 2 * p.t + p.k - 1:
        raise ParameterTooSmall(f"need n >= 2t + k - 1 = {2 * p.t + p.k - 1}, got {p.n}")
    helpers = tuple(range(2 * p.t, 2 * p.t + p.k))
    payloads = code.encode_batch(data.data)
    target = p.t
    rows = []
    symbols = {}
    groups = []
    for i in range(1, p.t + 1):
        group = tuple(range(i, p.t + i))
        groups.append(group)
        idx = code.packet_index(target, group)
        for lam in helpers:
            label = download_label(code, target, ("S", lam, group, helpers))
            rows.append((label, code.repair_functional(lam, target, group)))
            symbols[(idx, lam)] = payloads[lam][idx]
    obs = observations(code.field, p.B, rows)

    # packets x helpers table = M @ G[:, helpers]; invert the k x k section
    gsub = code.G.submatrix(range(p.k), [h - 1 for h in helpers])
    table = Mat.from_rows(
        code.field,
        [[symbols[(idx, lam)] for lam in helpers] for idx in range(p.t)],
    )
    recovered = gsub.transpose().solve(table.transpose()).transpose()
    return CodeBAttackResult(
        recovered=recovered,
        leaked_entropy=entropy_symbols(obs),
        observations=obs,
        groups=tuple(groups),
        helpers=helpers,
    )
