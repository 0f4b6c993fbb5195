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

repair_download_rows is the one walk over a node's repair contexts: it
gives each download once, keyed by a tuple (kind, sender, group,
helpers).  A rank depends only on the rows, never on their names, so
every analysis (lemma suite, capacity sweep, measured capacity, secrecy
checks) ranks plain rows in one entropy.RowSpace per call, and
download_label names a key only where something prints it
(leakage_observations and the attacks).  A row set is one mask, the OR
of its rows' handles.  The lemma suite ranks in an _AnalysisContext, a
RowSpace that keeps one mask per (kind, sender, targets, group) block and
fetches each functional row once per (kind, helper, failed, group), never
per (helper, failed) alone: the suite must not assume the stability it
checks.  The capacity and secrecy sweeps rank through PlacementRows: one
RowSpace, one mask per node in it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

# entropy_symbols is unused here, but perfbench's tracer rebinds it in eve by name
from .entropy import ObservationSet, RowSpace, entropy_symbols, observations  # noqa: F401
from .errors import InvalidEveModel, InvalidL, LemmaViolation, NonIntegralParams
from .record import Record

# Closed-form capacity is not claimed for these parameters.
NOT_COVERED = "not-covered"


class EveModel(namedtuple("EveModel", "E F")):
    """E: nodes with contents read; F: nodes with repair downloads read; each sorted."""

    __slots__ = ()

    def __new__(cls, E=(), F=()):
        E, F = tuple(sorted(E)), tuple(sorted(F))
        if set(E) & set(F):
            raise InvalidEveModel("E and F must be disjoint")
        return super().__new__(cls, E, F)

    @classmethod
    def _make(cls, iterable):
        """As namedtuple's _make, but through __new__: _replace sorts and checks too."""
        return cls(*iterable)

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
    allowed = set(code.supported_failed_nodes)
    if not set(eve.F) <= allowed:
        raise InvalidEveModel(f"code cannot enumerate repair downloads for {eve.F}")


def repair_download_rows(code, node: int):
    """Everything delivered to `node` across all (group, helper-set) contexts.

    The one walk over code.contexts(node): (key, row) pairs in traversal
    order, key = (kind, sender, group, helpers), kind "S" for a repair
    transfer and "Z" for an exchange.
    """
    return [
        ((kind, sender, group, helpers), row)
        for group, helpers in code.contexts(node)
        for (kind, sender), row in code.download_rows(node, group, helpers)
    ]


def download_label(code, receiver: int, key) -> str:
    """The printed name of a download: kind_sender^receiver|<context tag>."""
    kind, sender, group, helpers = key
    return f"{kind}_{sender}^{receiver}|{code.context_label(group, helpers)}"


def download_span(code, node: int):
    """The distinct rows of repair_download_rows(code, node), first occurrence first.

    They span exactly what the full traversal spans, so a rank taken over
    them is the measured leakage, not an assumed one.  The traversal yields
    hundreds of rows but only a handful of distinct ones; callers build the
    span once per node per call and reuse it across placements.
    """
    return list(dict.fromkeys(row for _, row in repair_download_rows(code, node)))


def leakage_observations(code, eve: EveModel) -> ObservationSet:
    """The adversary's full view, labelled: W_E plus every download of every F node."""
    validate_eve(code, eve)
    rows = []
    for e in eve.E:
        rows.extend(code.storage_rows(e))
    for f in eve.F:
        walk = repair_download_rows(code, f)
        rows.extend((download_label(code, f, key), row) for key, row in walk)
        rows.extend(code.granted_rows(f))
    return observations(code.field, code.params.B, rows)


class PlacementRows:
    """The rows of leakage_observations(code, eve), ranked in one RowSpace.

    A node of F shows its download_span and granted rows, a node of E its
    storage rows; each node's rows are built once, as one mask in space.
    expand maps a row to the row the space holds (by default the row
    itself); each distinct row is expanded and interned once.  rank(eve)
    is the joint_rank of W_E over F's view, and basis(eve) their
    joint_basis; F's basis is memoised.
    """

    def __init__(self, code, space, expand=lambda row: row):
        self.code = code
        self.space = space
        self._intern = lru_cache(None)(lambda row: space.intern(expand(row)))
        self._nodes = {}  # (node, in F) -> its rows' mask

    def _node(self, node, downloads):
        key = (node, downloads)
        if key not in self._nodes:
            code = self.code
            if downloads:
                built = download_span(code, node) + [row for _, row in code.granted_rows(node)]
            else:
                built = [row for _, row in code.storage_rows(node)]
            self._nodes[key] = reduce(or_, map(self._intern, built), 0)
        return self._nodes[key]

    def observed(self, eve: EveModel):
        """(F's rows, E's rows) as one mask each, once eve is validated."""
        validate_eve(self.code, eve)
        return (
            reduce(or_, (self._node(f, True) for f in eve.F), 0),
            reduce(or_, (self._node(e, False) for e in eve.E), 0),
        )

    def rank(self, eve: EveModel):
        f_rows, e_rows = self.observed(eve)
        return self.space.joint_rank(e_rows, f_rows)

    def basis(self, eve: EveModel):
        f_rows, e_rows = self.observed(eve)
        return self.space.joint_basis(e_rows, f_rows)


def measured_secrecy_capacity(code, eve: EveModel) -> int:
    """B minus the rank of everything the adversary observed."""
    return capacity_cell(code, eve).measured


def _check_pair(params, l1: int, l2: int):
    """Raise InvalidL unless l1, l2 >= 0 and l1 + l2 <= k - 1, the modelled eavesdroppers."""
    if l1 < 0 or l2 < 0 or l1 + l2 > params.k - 1:
        raise InvalidL(
            f"need l1, l2 >= 0 and l1 + l2 <= k - 1 = {params.k - 1}, got ({l1}, {l2})"
        )


def predicted_secrecy_capacity(params, l1: int, l2: int):
    """Closed-form capacity for stable codes, or NOT_COVERED.

    (k - l1 - l2)(alpha - l2*beta) when l2 <= t <= k, or when t > k and
    d = k; additionally 0 when d = k and l2 >= t.  Other regimes are open.
    """
    _check_pair(params, l1, l2)
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


class LemmaCheck(Record):
    """One lemma's tally: cases checked, whether all passed, the first failure's witness."""

    __slots__ = ("name", "checked", "passed", "witness")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.passed = True
        self.witness = None

    def fail(self, witness):
        if self.passed:
            self.passed = False
            self.witness = witness


class LemmaResults(Record):
    """A lemma suite's checks by name, and its rank and row counters."""

    __slots__ = ("checks", "rank_lookups", "rank_eliminations", "rows_built", "rows_unique")

    def __init__(self):
        self.checks = {}
        self.rank_lookups = 0  # row sets whose rank the call asked for
        self.rank_eliminations = 0  # of those, the ones eliminated
        self.rows_built = 0  # row keys the call fetched from the code
        self.rows_unique = 0  # distinct rows among everything it ranked

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


# each block kind's functional row from sender toward receiver under group:
# repair (S) and exchange (Z) rows, and the context-free nominal ones (S0,
# Z0), which for unstable codes are the rows under the least repair group
# holding the receiver (the "declared" repair data)
_FETCH = {
    "S": lambda code, i, j, group: code.repair_functional(i, j, group),
    "Z": lambda code, i, j, group: code.exchange_functional(i, j, group),
    "S0": lambda code, i, j, group: code.nominal_repair_row(i, j),
    "Z0": lambda code, i, j, group: code.nominal_exchange_row(i, j),
}


class _AnalysisContext(RowSpace):
    """The RowSpace of one lemma_suite or specific_verifications call.

    blocks(kind, senders, targets, group) is the mask of the row set the
    rank identities name kind_senders^targets: every sender's row of that
    kind toward every target but itself, when group is being repaired.
    Kinds "W" and "D" take no targets: the senders' storage rows (W) and
    download spans (D, the full traversal tilde S).  It is the OR of one
    mask per (kind, sender, targets, group) block, each built the first
    time it is asked for.  Each row is fetched from the code once, keyed
    on everything it may depend on: (kind, helper, failed, group), never
    (helper, failed) alone, since CodeB's rows depend on the group and the
    suite must not assume the stability it checks.  Nominal rows carry
    group None, and a node's storage rows are fetched as one key.  finish
    reports the RowSpace counters, the keys fetched (rows_built) and the
    distinct rows (rows_unique).
    """

    def __init__(self, code):
        super().__init__(code.field, code.params.B)
        self.code = code
        self._rows = {}  # fetch key -> handle, or a node's storage mask
        self._blocks = {}  # (kind, sender, targets, group) -> mask

    def blocks(self, kind, senders, targets=(), group=None):
        # the hot path of every lemma, so the lookup is written out
        memo = self._blocks
        mask = 0
        for i in senders:
            key = (kind, i, targets, group)
            block = memo.get(key)
            if block is None:
                block = memo[key] = self._block(kind, i, targets, group)
            mask |= block
        return mask

    def _block(self, kind, sender, targets, group):
        code, rows = self.code, self._rows
        if kind == "D":
            return self.mask(download_span(code, sender))
        if kind == "W":  # a node's storage rows, fetched as one key
            mask = self.mask(row for _, row in code.storage_rows(sender))
            rows["W", sender, None, None] = mask
            return mask
        fetch = _FETCH[kind]
        mask = 0
        for j in targets:
            if j != sender:
                key = (kind, sender, j, group)
                handle = rows.get(key)
                if handle is None:
                    handle = rows[key] = self.intern(fetch(code, sender, j, group))
                mask |= handle
        return mask

    def finish(self, res):
        """Copy the counters into the call's results and return them."""
        res.rank_lookups = self.lookups
        res.rank_eliminations = self.eliminations
        res.rows_built = len(self._rows)
        res.rows_unique = len(self._bits)
        return res


def _subset_chains(nodes, sizes, rng=None, samples=200):
    """Tuples of pairwise disjoint subsets of nodes with the given sizes.

    Exhaustive by default, depth first: each subset in
    itertools.combinations order over the nodes the subsets before it
    left, and chains that share a prefix share its subset objects.  Seeded
    random draws when a generator is given (used beyond desk scale, where
    full enumeration is impractical).
    """
    if rng is None:
        walk = iter([((), list(nodes))])  # (prefix, the nodes it leaves)
        for size in sizes[:-1]:
            walk = _extend_chains(walk, size)
        last = sizes[-1] if sizes else 0
        combinations = itertools.combinations
        return (prefix + (chosen,) for prefix, pool in walk for chosen in combinations(pool, last))
    return _drawn_chains(nodes, sizes, rng, samples)


def _extend_chains(walk, size):
    """Each (prefix, pool) of walk, extended by each size-subset of pool."""
    for prefix, pool in walk:
        for chosen in itertools.combinations(pool, size):
            yield prefix + (chosen,), [x for x in pool if x not in chosen]


def _drawn_chains(nodes, sizes, rng, samples):
    """samples chains, each subset drawn by rng from the nodes left."""
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

    group_volume and member_volume walk chains of disjoint subsets
    (_subset_chains): every chain for n <= 10 (EXHAUSTIVE_NODE_LIMIT), and
    SAMPLE_DRAWS (200) seeded draws each beyond.  traversal_span and
    helper_uniformity enumerate every subset at any n.  Each chain
    prefix's row sets are built once, when the walk reaches it.  Rows and
    ranks come from one _AnalysisContext for the whole call.
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
        built = None  # the chain prefix (C, A) whose masks are built
        for c_set, a_set, b_set in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
            chk.checked += 1
            if built != (c_set, a_set):
                built = (c_set, a_set)
                s_a = ctx.blocks("S", a_set, c_set, c_set)
                given = ctx.blocks("W", c_set) | s_a
            # S_A^C and S_B^C make up S_{A u B}^C; |A| + |B| = d: a valid helper set
            s_b = ctx.blocks("S", b_set, c_set, c_set)
            if ctx.rank(s_a | s_b) != p.d * p.t * p.beta:
                chk.fail(("H(S_{A u B}^C) != dt*beta", c_set, a_set, b_set))
                continue
            if ctx.rank_given(s_b, given) != 0:
                chk.fail(("H(S_B^C|W_C,S_A^C) != 0", c_set, a_set, b_set))

    # --- member volume ------------------------------------------------------
    chk = res.get("member_volume")
    sizes = (1, p.t - 1, p.k - 1, p.d - p.k + 1)
    group_built = built = None  # the chain prefixes (i, C') and A' whose masks are built
    for i_set, c_prime, a_prime, b_prime in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
        i = i_set[0]
        chk.checked += 1
        if group_built != (i_set, c_prime):
            group_built, built = (i_set, c_prime), None
            group = tuple(sorted((i,) + c_prime))
            z = ctx.blocks("Z", c_prime, i_set, group)
        if built != a_prime:
            built = a_prime
            s_a = ctx.blocks("S", a_prime, i_set, group)
            s_az = s_a | z
            given = ctx.blocks("W", i_set) | s_a
        # S_{A'}^i and S_{B'}^i make up S_{A' u B'}^i; |A'| + |B'| = d
        s_b = ctx.blocks("S", b_prime, i_set, group)
        if ctx.rank(s_az | s_b) != (p.d + p.t - 1) * p.beta:
            chk.fail(
                ("H(S_{A'uB'}^i, Z_{C'}^i) != (d+t-1)beta", i, c_prime, a_prime, b_prime)
            )
            continue
        if ctx.rank_given(s_b | z, given) != 0:
            chk.fail(
                ("H(S_B'^i, Z_C'^i | W_i, S_A'^i) != 0", i, c_prime, a_prime, b_prime)
            )

    # --- traversal span -----------------------------------------------------
    chk = res.get("traversal_span")
    allowed_f = sorted(code.supported_failed_nodes)
    for l2 in range(1, p.k):
        for f_set in itertools.combinations(allowed_f, l2):
            # tilde S^F joins the memoised spans of F's first l2 - 1 nodes
            # (an F set of the round before) and of its last node
            head, last = ctx.blocks("D", f_set[:-1]), ctx.blocks("D", f_set[-1:])
            tilde = head | last
            span_ref = ctx.blocks("W", f_set) | ctx.blocks("S0", nodes, f_set)
            chk.checked += 1
            if not (
                ctx.rank_union(head, last) == ctx.rank(span_ref) == ctx.rank_union(tilde, span_ref)
            ):
                chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
                continue
            rest = [x for x in nodes if x not in f_set]
            for l1 in range(0, p.k - l2):
                for e_set in itertools.combinations(rest, l1):
                    pool = [x for x in rest if x not in e_set]
                    lhs = ctx.rank_given(tilde, ctx.blocks("W", e_set + f_set))
                    for g_set in itertools.combinations(pool, p.k - l1 - l2):
                        chk.checked += 1
                        rhs = ctx.rank(ctx.blocks("S0", g_set, f_set))
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
                entropies[i] = ctx.rank(ctx.blocks("S0", (i,), f_set))
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


class CapacityCell(namedtuple("CapacityCell", "l1 l2 E F measured predicted")):
    """One placement's measured secrecy capacity beside the predicted one (or NOT_COVERED)."""

    __slots__ = ()

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
    every placement is enumerated.  A pair outside that range raises
    InvalidL before any placement is enumerated.
    """
    p = code.params
    if pairs is None:
        pairs = [(l1, tot - l1) for tot in range(p.k) for l1 in range(tot + 1)]
    pairs = list(pairs)  # read twice: checked, then enumerated
    for l1, l2 in pairs:
        _check_pair(p, l1, l2)
    return _capacity_cells(code, (eve for l1, l2 in pairs for eve in placements(code, l1, l2)))


def _capacity_cells(code, eves):
    """capacity_cell of each placement, all ranked in one RowSpace."""
    p = code.params
    view = PlacementRows(code, RowSpace(code.field, p.B))
    stable = code.variant == "stable"
    cells = []
    for eve in eves:
        leaked = view.rank(eve)
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
    _check_pair(p, l1, l2)
    if l2 < 1:
        raise InvalidL(f"need l2 >= 1 for the canonical check, got {l2}")
    res = LemmaResults()
    ctx = _AnalysisContext(code)
    e_set = tuple(range(1, l1 + 1))
    f_set = tuple(range(l1 + 1, l1 + l2 + 1))
    nodes = list(range(1, p.n + 1))
    tilde = ctx.blocks("D", f_set)
    w_f = ctx.blocks("W", f_set)
    s_f = ctx.blocks("S0", nodes, f_set)

    # downloads span
    chk = res.get("downloads_span")
    chk.checked += 1
    ref = w_f | s_f
    if not (ctx.rank(tilde) == ctx.rank(ref) == ctx.rank(tilde | ref)):
        chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
    z_f = ctx.blocks("Z0", nodes, f_set)
    chk.checked += 1
    if ctx.rank_given(z_f, w_f) != 0 or ctx.rank_given(w_f, z_f) != 0:
        chk.fail(("span(Z^F) != span(W_F)", f_set))

    # leak decomposition
    chk = res.get("leak_decomposition")
    chk.checked += 1
    w_ef = ctx.blocks("W", e_set + f_set)
    mid = [x for x in range(1, p.k + 1) if x not in e_set + f_set]
    s_mid = ctx.blocks("S0", mid, f_set)
    tail = [x for x in nodes if x > p.k and x not in f_set]
    s_tail = ctx.blocks("S0", tail, f_set)
    lhs = ctx.rank(w_ef | s_f)
    rhs = ctx.rank(w_ef) + ctx.rank(s_mid)
    if lhs != rhs:
        chk.fail(("H(W_{EuF}, S^F) != H(W_{EuF}) + H(S_mid^F)", lhs, rhs))
    chk.checked += 1
    if ctx.rank_given(s_mid, w_ef) != ctx.rank(s_mid):
        chk.fail(("H(S_mid^F|W) != H(S_mid^F)",))
    chk.checked += 1
    if ctx.rank_given(s_tail, w_ef | s_mid) != 0:
        chk.fail(("tail repair rows add entropy beyond W and the k-set",))

    # leak totals
    chk = res.get("leak_totals")
    leaked = ctx.rank(ctx.blocks("W", e_set) | tilde)
    per_helper = {}
    for g in range(l1 + l2 + 1, p.k + 1):
        per_helper[g] = ctx.rank(ctx.blocks("S0", (g,), f_set))
    chk.checked += 1
    if leaked != (l1 + l2) * p.alpha + sum(per_helper.values()):
        chk.fail(("leak total != (l1+l2)alpha + sum H(S_g^F)", leaked, per_helper))
    expect_each = min(l2, p.t) * p.beta
    chk.checked += 1
    if any(v != expect_each for v in per_helper.values()):
        chk.fail(("H(S_g^F) != min(l2, t)beta", per_helper))
    chk.checked += 1
    capacity = p.B - leaked
    closed_form = predicted_secrecy_capacity(p, l1, l2)
    if capacity != closed_form:
        chk.fail(("capacity != closed form", capacity, closed_form))
    return ctx.finish(res)

