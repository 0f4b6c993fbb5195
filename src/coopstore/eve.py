"""Passive-eavesdropper analysis: leakage, secrecy capacity, rank identities.

The adversary reads the stored content of the nodes in E and the complete
repair downloads of the nodes in F, across every repair group and helper
set that could ever involve them.  Everything it sees is a linear
functional of the message, so the leaked amount is a matrix rank and the
surviving secrecy capacity is B minus that rank.

The lemma suite re-proves the code's information-theoretic properties on a
concrete instance by exhaustive subset enumeration: joint repair-data
entropies, the reduction of full downloads to storage-plus-repair spans,
and the per-helper entropy counts that produce the closed-form capacity.

A rank depends only on the rows, never on their names, so every analysis
(lemma suite, capacity sweep, measured capacity, secrecy checks) ranks
plain rows in one entropy.RowSpace per call; labels are formatted only
for the labelled reference view, leakage_observations.  The lemma suite
ranks in an _AnalysisContext, a RowSpace that also fetches each
functional row once per (kind, helper, failed, group), never per (helper,
failed) alone: the suite must not assume the stability it checks.  The
capacity and secrecy sweeps rank through PlacementRows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

# entropy_symbols is unused here, but perfbench's tracer rebinds it in eve by name
from .entropy import ObservationSet, RowSpace, entropy_symbols, observations  # noqa: F401
from .errors import InvalidEveModel, InvalidL, LemmaViolation, NonIntegralParams
from .stable import eavesdroppable_nodes


class NotCovered:
    """Closed-form capacity is not claimed for these parameters."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "not-covered"


NOT_COVERED = NotCovered()


@dataclass(frozen=True)
class EveModel:
    """E: nodes with contents read; F: nodes with repair downloads read."""

    E: tuple = ()
    F: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(sorted(self.E)))
        object.__setattr__(self, "F", tuple(sorted(self.F)))
        if set(self.E) & set(self.F):
            raise InvalidEveModel("E and F must be disjoint")

    @property
    def l1(self):
        return len(self.E)

    @property
    def l2(self):
        return len(self.F)


def validate_eve(code, eve: EveModel):
    """Raise InvalidEveModel unless the code can model this placement."""
    p = code.params
    nodes = set(range(1, p.n + 1))
    if not set(eve.E) <= nodes or not set(eve.F) <= nodes:
        raise InvalidEveModel("eavesdropped node ids out of range")
    if eve.l1 + eve.l2 > p.k - 1:
        raise InvalidEveModel(f"need l1 + l2 <= k - 1 = {p.k - 1}")
    allowed = set(eavesdroppable_nodes(code))
    if not set(eve.F) <= allowed:
        raise InvalidEveModel(f"code cannot enumerate repair downloads for {eve.F}")


def repair_download_rows(code, node: int):
    """Everything delivered to `node` across all (group, helper-set) contexts, labelled."""
    rows = []
    for group, helpers in code.contexts(node):
        rows.extend(code.downloads_for_context(node, group, helpers))
    return rows


def download_span(code, node: int):
    """The distinct rows of repair_download_rows(code, node), first occurrence first.

    They span exactly what the full traversal spans, so a rank taken over
    them is the measured leakage, not an assumed one.  The traversal yields
    hundreds of rows but only a handful of distinct ones, so it is walked
    through the code's label-free download_rows (downloads_for_context
    labels exactly those rows); callers build the span once per node per
    call and reuse it across placements.
    """
    return list(
        dict.fromkeys(
            row
            for group, helpers in code.contexts(node)
            for row in code.download_rows(node, group, helpers)
        )
    )


def leakage_observations(code, eve: EveModel) -> ObservationSet:
    """The adversary's full view: W_E plus every download of every F node."""
    validate_eve(code, eve)
    rows = []
    for e in eve.E:
        rows.extend(code.storage_rows(e))
    for f in eve.F:
        rows.extend(repair_download_rows(code, f))
        rows.extend(code.granted_rows(f))
    return observations(code.field, code.params.B, rows)


class PlacementRows:
    """The rows of leakage_observations(code, eve), ranked in RowSpaces.

    A node of F shows its download_span and granted rows, a node of E its
    storage rows; each node's rows are built once.  expand maps a row to
    one row per space (by default the row itself); each distinct row is
    expanded and interned once.  ranks(eve) gives, per space, the
    joint_rank of W_E over F's view, whose basis is memoised.
    """

    def __init__(self, code, spaces, expand=lambda row: (row,)):
        self.code = code
        self.spaces = spaces
        self._intern = lru_cache(None)(  # row -> its handle in each space
            lambda row: tuple(s.intern(r) for s, r in zip(spaces, expand(row)))
        )
        self._nodes = {}  # (node, in F) -> its rows' handles

    def _node(self, node, downloads):
        key = (node, downloads)
        if key not in self._nodes:
            code = self.code
            if downloads:
                built = download_span(code, node) + [row for _, row in code.granted_rows(node)]
            else:
                built = [row for _, row in code.storage_rows(node)]
            self._nodes[key] = [self._intern(row) for row in built]
        return self._nodes[key]

    def observed(self, eve: EveModel):
        """(handles of F's rows, handles of E's rows), once eve is validated."""
        validate_eve(self.code, eve)
        f_rows = [h for f in eve.F for h in self._node(f, True)]
        return f_rows, [h for e in eve.E for h in self._node(e, False)]

    def ranks(self, eve: EveModel):
        f_rows, e_rows = self.observed(eve)
        return [
            space.joint_rank([h[i] for h in e_rows], [h[i] for h in f_rows])
            for i, space in enumerate(self.spaces)
        ]


def measured_secrecy_capacity(code, eve: EveModel) -> int:
    """B minus the rank of everything the adversary observed."""
    return capacity_cell(code, eve).measured


def predicted_secrecy_capacity(params, l1: int, l2: int):
    """Closed-form capacity for stable codes, or NOT_COVERED.

    (k - l1 - l2)(alpha - l2*beta) when l2 <= t <= k, or when t > k and
    d = k; additionally 0 when d = k and l2 >= t.  Other regimes are open.
    """
    if l1 < 0 or l2 < 0 or l1 + l2 > params.k - 1:
        raise InvalidL(f"need l1, l2 >= 0 and l1 + l2 <= k - 1 = {params.k - 1}")
    k, t, d, alpha, beta = params.k, params.t, params.d, params.alpha, params.beta
    if l2 == 0:
        return (k - l1) * alpha
    if l2 <= t <= k or (t > k and d == k):
        return (k - l1 - l2) * (alpha - l2 * beta)
    if d == k and l2 >= t:
        return 0
    return NOT_COVERED


def bandwidth_comparison(n, k, d, t, B):
    """(single-failure-repair total, cooperative total) as exact fractions.

    Both totals cover repairing t failures of a {n, k, d} system storing B;
    the cooperative total is strictly smaller whenever t > 1.
    """
    if d < k or t < 1:
        raise NonIntegralParams("need d >= k and t >= 1")
    if B % k or B % (k * (d - k + t)):
        raise NonIntegralParams(
            "B must sit at the minimum-storage cooperative point "
            "(divisible by k and k(d-k+t))"
        )
    msr_total = Fraction(t * d * B, k * (d - k + 1))
    mscr_total = Fraction(t * (d + t - 1) * B, k * (d - k + t))
    if t > 1:
        assert mscr_total < msr_total
    else:
        assert mscr_total == msr_total
    return msr_total, mscr_total


# ---------------------------------------------------------------------------
# Rank-identity suite
# ---------------------------------------------------------------------------


@dataclass
class LemmaCheck:
    name: str
    checked: int = 0
    passed: bool = True
    witness: object = None

    def fail(self, witness):
        if self.passed:
            self.passed = False
            self.witness = witness


@dataclass
class LemmaResults:
    checks: dict = dc_field(default_factory=dict)
    rank_lookups: int = 0  # row sets whose rank the call asked for
    rank_eliminations: int = 0  # of those, the ones eliminated
    rows_built: int = 0  # row keys the call fetched from the code
    rows_unique: int = 0  # distinct rows among everything it ranked

    def get(self, name) -> LemmaCheck:
        return self.checks.setdefault(name, LemmaCheck(name))

    def counters(self):
        """The call's rank and row counts, as verify --report names them."""
        return {
            "lookups": self.rank_lookups,
            "eliminations": self.rank_eliminations,
            "rows_built": self.rows_built,
            "rows_unique": self.rows_unique,
        }

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())

    def raise_if_failed(self):
        for c in self.checks.values():
            if not c.passed:
                raise LemmaViolation(f"{c.name} violated", witness=c.witness)

    def summary(self):
        return {
            name: {
                "passed": c.passed,
                "checked": c.checked,
                "witness": None if c.witness is None else str(c.witness),
            }
            for name, c in self.checks.items()
        }


class _AnalysisContext(RowSpace):
    """The RowSpace of one lemma_suite or specific_verifications call.

    It answers the functional protocol the rank identities use, with row
    handles, so _ctx_repair_rows and the other row builders take it in
    place of the code.  Each row is fetched once, keyed on everything it
    may depend on: (kind, helper, failed, group); CodeB's rows depend on
    the group.  Nominal rows carry group None; storage rows are kept per
    node as (label, handle) pairs.  finish reports the RowSpace counters,
    the keys fetched (rows_built) and the distinct rows (rows_unique).
    """

    def __init__(self, code):
        super().__init__(code.field, code.params.B)
        self.code = code
        self._rows = {}  # key -> handle, or (label, handle) pairs for storage

    def _row(self, key, build, *args):
        handle = self._rows.get(key)
        if handle is None:
            handle = self._rows[key] = self.intern(build(*args))
        return handle

    def repair_functional(self, helper, failed, group):
        # the hot path of every lemma, so the lookup is written out
        key = ("S", helper, failed, group)
        handle = self._rows.get(key)
        if handle is None:
            row = self.code.repair_functional(helper, failed, group)
            handle = self._rows[key] = self.intern(row)
        return handle

    def exchange_functional(self, sender, receiver, group):
        key = ("Z", sender, receiver, group)
        return self._row(key, self.code.exchange_functional, sender, receiver, group)

    def nominal_repair_row(self, helper, failed):
        return self._row(("S0", helper, failed, None), self.code.nominal_repair_row, helper, failed)

    def nominal_exchange_row(self, sender, receiver):
        key = ("Z0", sender, receiver, None)
        return self._row(key, self.code.nominal_exchange_row, sender, receiver)

    def storage_rows(self, node):
        key = ("W", node, None, None)
        rows = self._rows.get(key)
        if rows is None:
            rows = [(label, self.intern(row)) for label, row in self.code.storage_rows(node)]
            self._rows[key] = rows
        return rows

    def finish(self, res):
        """Copy the counters into the call's results and return them."""
        res.rank_lookups = self.lookups
        res.rank_eliminations = self.eliminations
        res.rows_built = len(self._rows)
        res.rows_unique = len(self._bits)
        return res


def _ctx_repair_rows(code, senders, targets, group):
    """S_senders^targets rows when `group` is being repaired."""
    return [code.repair_functional(i, j, group) for j in targets for i in senders if i != j]


def _ctx_exchange_rows(code, senders, target, group):
    """Z_senders^target rows when `group` is being repaired."""
    return [code.exchange_functional(j, target, group) for j in senders if j != target]


def _nominal_repair_rows(code, senders, targets):
    """Context-free S rows; for unstable codes these are the rows under the
    least repair group holding the failed node (the 'declared' repair data)."""
    return [code.nominal_repair_row(i, j) for j in targets for i in senders if i != j]


def _storage(code, nodes):
    """W_nodes: every stored symbol of the nodes, node by node."""
    return [row for i in nodes for _, row in code.storage_rows(i)]


def _subset_chains(nodes, sizes, rng=None, samples=200):
    """Yield tuples of pairwise disjoint subsets with the given sizes.

    Exhaustive by default; seeded random draws when a generator is given
    (used beyond desk scale, where full enumeration is impractical).
    """
    if rng is None:

        def rec(pool, remaining):
            if not remaining:
                yield ()
                return
            size, tail = remaining[0], remaining[1:]
            for chosen in itertools.combinations(pool, size):
                rest = [x for x in pool if x not in chosen]
                for more in rec(rest, tail):
                    yield (chosen,) + more

        yield from rec(list(nodes), list(sizes))
        return
    for _ in range(samples):
        pool = list(nodes)
        out = []
        for size in sizes:
            chosen = tuple(sorted(rng.sample(pool, size)))
            out.append(chosen)
            pool = [x for x in pool if x not in chosen]
        yield tuple(out)


EXHAUSTIVE_NODE_LIMIT = 10
SAMPLE_DRAWS = 200


def lemma_suite(code, seed=0) -> LemmaResults:
    """Rank-identity verification on one code instance.

    group_volume: joint entropy of repair data toward any group is
        d*t*beta, and the remaining helpers add nothing given the group's
        storage and any k - t helpers' data.
    member_volume: one node's downloads inside a group total (d+t-1)*beta
        with the same saturation structure.
    traversal_span: the full download traversal spans exactly storage plus
        nominal repair data, and conditioning on W_E, W_F reduces leakage
        to the repair data of the complement set G.
    helper_uniformity: per-helper entropy toward a set F is |F|*beta,
        identically across helpers.

    Subset enumeration is exhaustive for n <= 10 (EXHAUSTIVE_NODE_LIMIT)
    and seeded-random (200 draws per lemma) beyond.  Rows and ranks come
    from one _AnalysisContext for the whole call.
    """
    import random as _random

    p = code.params
    res = LemmaResults()
    ctx = _AnalysisContext(code)
    nodes = list(range(1, p.n + 1))
    rng = None if p.n <= EXHAUSTIVE_NODE_LIMIT else _random.Random(seed)

    # --- group volume -------------------------------------------------------
    if p.t <= p.k:
        chk = res.get("group_volume")
        sizes = (p.t, p.k - p.t, p.d - p.k + p.t)
        for c_set, a_set, b_set in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
            chk.checked += 1
            # S_A^C and S_B^C make up S_{A u B}^C; |A| + |B| = d: a valid helper set
            s_a = _ctx_repair_rows(ctx, a_set, c_set, c_set)
            s_b = _ctx_repair_rows(ctx, b_set, c_set, c_set)
            if ctx.rank(s_a + s_b) != p.d * p.t * p.beta:
                chk.fail(("H(S_{A u B}^C) != dt*beta", c_set, a_set, b_set))
                continue
            if ctx.rank_given(s_b, _storage(ctx, c_set) + s_a) != 0:
                chk.fail(("H(S_B^C|W_C,S_A^C) != 0", c_set, a_set, b_set))

    # --- member volume ------------------------------------------------------
    chk = res.get("member_volume")
    sizes = (1, p.t - 1, p.k - 1, p.d - p.k + 1)
    for i_set, c_prime, a_prime, b_prime in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
        i = i_set[0]
        chk.checked += 1
        group = tuple(sorted((i,) + c_prime))
        # S_{A'}^i and S_{B'}^i make up S_{A' u B'}^i; |A'| + |B'| = d
        s_a = _ctx_repair_rows(ctx, a_prime, [i], group)
        s_b = _ctx_repair_rows(ctx, b_prime, [i], group)
        z = _ctx_exchange_rows(ctx, c_prime, i, group)
        if ctx.rank(s_a + s_b + z) != (p.d + p.t - 1) * p.beta:
            chk.fail(
                ("H(S_{A'uB'}^i, Z_{C'}^i) != (d+t-1)beta", i, c_prime, a_prime, b_prime)
            )
            continue
        if ctx.rank_given(s_b + z, _storage(ctx, [i]) + s_a) != 0:
            chk.fail(
                ("H(S_B'^i, Z_C'^i | W_i, S_A'^i) != 0", i, c_prime, a_prime, b_prime)
            )

    # --- traversal span -----------------------------------------------------
    chk = res.get("traversal_span")
    allowed_f = sorted(eavesdroppable_nodes(code))
    spans = {f: [ctx.intern(row) for row in download_span(code, f)] for f in allowed_f}
    for l2 in range(1, p.k):
        for f_set in itertools.combinations(allowed_f, l2):
            tilde = [row for f in f_set for row in spans[f]]
            span_ref = _storage(ctx, f_set) + _nominal_repair_rows(ctx, nodes, f_set)
            chk.checked += 1
            if not (ctx.rank(tilde) == ctx.rank(span_ref) == ctx.rank(tilde + span_ref)):
                chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
                continue
            rest = [x for x in nodes if x not in f_set]
            for l1 in range(0, p.k - l2):
                for e_set in itertools.combinations(rest, l1):
                    pool = [x for x in rest if x not in e_set]
                    lhs = ctx.rank_given(tilde, _storage(ctx, e_set + f_set))
                    for g_set in itertools.combinations(pool, p.k - l1 - l2):
                        chk.checked += 1
                        rhs = ctx.rank(_nominal_repair_rows(ctx, g_set, f_set))
                        if lhs != rhs:
                            chk.fail(
                                ("H(tilde S^F|W_E,W_F) != H(S_G^F)", f_set, e_set, g_set)
                            )

    # --- helper uniformity --------------------------------------------------
    chk = res.get("helper_uniformity")
    for size in range(1, p.k):
        for f_set in itertools.combinations(nodes, size):
            outside = [x for x in nodes if x not in f_set]
            entropies = {}
            for i in outside:
                entropies[i] = ctx.rank(_nominal_repair_rows(ctx, [i], f_set))
            chk.checked += 1
            if len(set(entropies.values())) != 1:
                chk.fail(("H(S_i^F) differs across helpers", f_set, entropies))
                continue
            if size <= p.t and (p.t <= p.k or p.d == p.k):
                expect = size * p.beta
                got = next(iter(entropies.values()))
                if got != expect:
                    chk.fail(("H(S_i^F) != |F|beta", f_set, got, expect))

    return ctx.finish(res)


# ---------------------------------------------------------------------------
# Capacity sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityCell:
    l1: int
    l2: int
    E: tuple
    F: tuple
    measured: int
    predicted: object

    @property
    def matches(self):
        return self.predicted is NOT_COVERED or self.measured == self.predicted


def placements(code, l1: int, l2: int):
    """Every disjoint placement with |E| = l1 and |F| = l2, as EveModels.

    F is drawn from the nodes whose traversal the code can model, E from
    the other nodes; both in lexicographic order, F outermost.
    """
    nodes = range(1, code.params.n + 1)
    for f_set in itertools.combinations(sorted(code.supported_failed_nodes), l2):
        rest = [x for x in nodes if x not in f_set]
        for e_set in itertools.combinations(rest, l1):
            yield EveModel(E=e_set, F=f_set)


def capacity_cell(code, eve: EveModel) -> CapacityCell:
    """Measured capacity at one placement, beside the predicted one.

    Only the stable code has a closed form; every other code is measured
    against NOT_COVERED.
    """
    return _capacity_cells(code, [eve])[0]


def capacity_table(code, pairs=None):
    """capacity_cell for every admissible placement.

    pairs defaults to every (l1, l2) with l1 + l2 <= k - 1; for each pair
    every placement is enumerated.
    """
    p = code.params
    if pairs is None:
        pairs = [(l1, tot - l1) for tot in range(p.k) for l1 in range(tot + 1)]
    return _capacity_cells(code, (eve for l1, l2 in pairs for eve in placements(code, l1, l2)))


def _capacity_cells(code, eves):
    """capacity_cell of each placement, all ranked in one RowSpace."""
    p = code.params
    view = PlacementRows(code, (RowSpace(code.field, p.B),))
    stable = code.variant == "stable"
    cells = []
    for eve in eves:
        (leaked,) = view.ranks(eve)
        predicted = predicted_secrecy_capacity(p, eve.l1, eve.l2) if stable else NOT_COVERED
        cells.append(CapacityCell(eve.l1, eve.l2, eve.E, eve.F, p.B - leaked, predicted))
    return cells


def specific_verifications(code, l1: int, l2: int) -> LemmaResults:
    """The three concrete checks on the canonical placement E=[1,l1], F=[l1+1,l1+l2].

    downloads_span: downloads of F span exactly storage-plus-repair; for
        this code the exchange rows alone span exactly W_F (both
        directions).
    leak_decomposition: the leaked joint entropy splits as H(W_{E u F})
        plus the repair data of the remaining in-reconstruction-set
        helpers, the tail rows beyond node k adding nothing.
    leak_totals: the leaked total is (l1+l2)*alpha + sum_g H(S_g^F) with
        per-helper entropy min(l2, t)*beta, reproducing the closed-form
        capacity.
    """
    p = code.params
    if l1 + l2 > p.k - 1 or l2 < 1:
        raise InvalidL("need l2 >= 1 and l1 + l2 <= k - 1 for the canonical check")
    res = LemmaResults()
    ctx = _AnalysisContext(code)
    e_set = tuple(range(1, l1 + 1))
    f_set = tuple(range(l1 + 1, l1 + l2 + 1))
    nodes = list(range(1, p.n + 1))
    tilde = [ctx.intern(row) for f in f_set for row in download_span(code, f)]
    w_f = _storage(ctx, f_set)
    s_f = _nominal_repair_rows(ctx, nodes, f_set)

    # downloads span
    chk = res.get("downloads_span")
    chk.checked += 1
    ref = w_f + s_f
    if not (ctx.rank(tilde) == ctx.rank(ref) == ctx.rank(tilde + ref)):
        chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
    z_f = [ctx.nominal_exchange_row(j, i) for i in f_set for j in nodes if j != i]
    chk.checked += 1
    if ctx.rank_given(z_f, w_f) != 0 or ctx.rank_given(w_f, z_f) != 0:
        chk.fail(("span(Z^F) != span(W_F)", f_set))

    # leak decomposition
    chk = res.get("leak_decomposition")
    chk.checked += 1
    w_ef = _storage(ctx, e_set + f_set)
    mid = [x for x in range(1, p.k + 1) if x not in e_set + f_set]
    s_mid = _nominal_repair_rows(ctx, mid, f_set)
    tail = [x for x in nodes if x > p.k and x not in f_set]
    s_tail = _nominal_repair_rows(ctx, tail, f_set)
    lhs = ctx.rank(w_ef + s_f)
    rhs = ctx.rank(w_ef) + ctx.rank(s_mid)
    if lhs != rhs:
        chk.fail(("H(W_{EuF}, S^F) != H(W_{EuF}) + H(S_mid^F)", lhs, rhs))
    chk.checked += 1
    if ctx.rank_given(s_mid, w_ef) != ctx.rank(s_mid):
        chk.fail(("H(S_mid^F|W) != H(S_mid^F)",))
    chk.checked += 1
    if ctx.rank_given(s_tail, w_ef + s_mid) != 0:
        chk.fail(("tail repair rows add entropy beyond W and the k-set",))

    # leak totals
    chk = res.get("leak_totals")
    leaked = ctx.rank(_storage(ctx, e_set) + tilde)
    per_helper = {}
    for g in range(l1 + l2 + 1, p.k + 1):
        per_helper[g] = ctx.rank(_nominal_repair_rows(ctx, [g], f_set))
    chk.checked += 1
    if leaked != (l1 + l2) * p.alpha + sum(per_helper.values()):
        chk.fail(("leak total != (l1+l2)alpha + sum H(S_g^F)", leaked, per_helper))
    expect_each = min(l2, p.t) * p.beta
    chk.checked += 1
    if any(v != expect_each for v in per_helper.values()):
        chk.fail(("H(S_g^F) != min(l2, t)beta", per_helper))
    chk.checked += 1
    capacity = p.B - leaked
    closed_form = (p.k - l1 - l2) * (p.alpha - l2 * p.beta) if l2 <= p.t else 0
    if p.d == p.k and l2 >= p.t:
        closed_form = 0
    if capacity != closed_form:
        chk.fail(("capacity != closed form", capacity, closed_form))
    return ctx.finish(res)

