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

A rank depends only on the rows, never on their names, so the analysis
(lemma suite, capacity sweep, measured capacity, secrecy checks) ranks
plain rows through entropy.rank_rows.  Labels are formatted only for the
labelled reference view, leakage_observations, and for leakage_report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .entropy import ObservationSet, entropy_symbols, observations, rank_rows
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


@dataclass(frozen=True)
class LeakageReport:
    observations: ObservationSet
    leaked_symbols: int
    measured_capacity: int
    predicted_capacity: object  # int or NOT_COVERED
    eve: EveModel
    lemma_results: object = None


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
    """Everything delivered to `node` across all (group, helper-set) contexts."""
    rows = []
    for group, helpers in code.contexts(node):
        rows.extend(code.downloads_for_context(node, group, helpers))
    return rows


def download_span(code, node: int):
    """The distinct rows of repair_download_rows(code, node), first occurrence first.

    They span exactly what the full traversal spans, so a rank taken over
    them is the measured leakage, not an assumed one.  The traversal yields
    hundreds of labelled rows but only a handful of distinct ones; callers
    build the span once per node per call and reuse it across placements.
    """
    return list(dict.fromkeys(row for _, row in repair_download_rows(code, node)))


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


def observed_rows(code, eve: EveModel, spans):
    """The distinct rows of leakage_observations(code, eve), in its order.

    spans maps each node of eve.F to its download_span; eve must already
    have passed validate_eve.  Every node's span holds the distinct rows of
    its traversal in first-occurrence order, so de-duplicating W_E, then
    per F node its span and granted rows, keeps the full view's order.
    """
    rows = _storage(code, eve.E)
    for f in eve.F:
        rows.extend(spans[f])
        rows.extend(row for _, row in code.granted_rows(f))
    return list(dict.fromkeys(rows))


def _leaked_symbols(code, eve: EveModel, spans) -> int:
    return _rank(code, observed_rows(code, eve, spans))


def measured_secrecy_capacity(code, eve: EveModel) -> int:
    """B minus the rank of everything the adversary observed."""
    validate_eve(code, eve)
    spans = {f: download_span(code, f) for f in eve.F}
    return code.params.B - _leaked_symbols(code, eve, spans)


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

    def get(self, name) -> LemmaCheck:
        return self.checks.setdefault(name, LemmaCheck(name))

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


def _rank(code, rows):
    """H(rows) in symbols."""
    return rank_rows(code.field, code.params.B, rows)


def _rank_given(code, rows, given):
    """H(rows | given) = rank(rows stacked on given) - rank(given)."""
    return _rank(code, rows + given) - _rank(code, given)


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


EXHAUSTIVE_NODE_LIMIT = 9
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

    Subset enumeration is exhaustive for n <= 9 and seeded-random (200
    draws per lemma) beyond.
    """
    import random as _random

    p = code.params
    res = LemmaResults()
    nodes = list(range(1, p.n + 1))
    rng = None if p.n <= EXHAUSTIVE_NODE_LIMIT else _random.Random(seed)

    # --- group volume -------------------------------------------------------
    if p.t <= p.k:
        chk = res.get("group_volume")
        sizes = (p.t, p.k - p.t, p.d - p.k + p.t)
        for c_set, a_set, b_set in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
            chk.checked += 1
            ab = tuple(a_set) + tuple(b_set)  # |A| + |B| = d: a valid helper set
            if _rank(code, _ctx_repair_rows(code, ab, c_set, c_set)) != p.d * p.t * p.beta:
                chk.fail(("H(S_{A u B}^C) != dt*beta", c_set, a_set, b_set))
                continue
            given = _storage(code, c_set) + _ctx_repair_rows(code, a_set, c_set, c_set)
            b_rows = _ctx_repair_rows(code, b_set, c_set, c_set)
            if _rank_given(code, b_rows, given) != 0:
                chk.fail(("H(S_B^C|W_C,S_A^C) != 0", c_set, a_set, b_set))

    # --- member volume ------------------------------------------------------
    chk = res.get("member_volume")
    sizes = (1, p.t - 1, p.k - 1, p.d - p.k + 1)
    for i_set, c_prime, a_prime, b_prime in _subset_chains(nodes, sizes, rng, SAMPLE_DRAWS):
        i = i_set[0]
        chk.checked += 1
        group = tuple(sorted((i,) + c_prime))
        helpers = tuple(a_prime) + tuple(b_prime)  # |A'| + |B'| = d
        joint = _ctx_repair_rows(code, helpers, [i], group) + _ctx_exchange_rows(
            code, c_prime, i, group
        )
        if _rank(code, joint) != (p.d + p.t - 1) * p.beta:
            chk.fail(
                ("H(S_{A'uB'}^i, Z_{C'}^i) != (d+t-1)beta", i, c_prime, a_prime, b_prime)
            )
            continue
        given = _storage(code, [i]) + _ctx_repair_rows(code, a_prime, [i], group)
        target = _ctx_repair_rows(code, b_prime, [i], group) + _ctx_exchange_rows(
            code, c_prime, i, group
        )
        if _rank_given(code, target, given) != 0:
            chk.fail(
                ("H(S_B'^i, Z_C'^i | W_i, S_A'^i) != 0", i, c_prime, a_prime, b_prime)
            )

    # --- traversal span -----------------------------------------------------
    chk = res.get("traversal_span")
    allowed_f = sorted(eavesdroppable_nodes(code))
    spans = {f: download_span(code, f) for f in allowed_f}
    for l2 in range(1, p.k):
        for f_set in itertools.combinations(allowed_f, l2):
            tilde = [row for f in f_set for row in spans[f]]
            span_ref = _storage(code, f_set) + _nominal_repair_rows(code, nodes, f_set)
            chk.checked += 1
            if not (_rank(code, tilde) == _rank(code, span_ref) == _rank(code, tilde + span_ref)):
                chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
                continue
            rest = [x for x in nodes if x not in f_set]
            for l1 in range(0, p.k - l2):
                for e_set in itertools.combinations(rest, l1):
                    pool = [x for x in rest if x not in e_set]
                    lhs = _rank_given(code, tilde, _storage(code, e_set + f_set))
                    for g_set in itertools.combinations(pool, p.k - l1 - l2):
                        chk.checked += 1
                        rhs = _rank(code, _nominal_repair_rows(code, g_set, f_set))
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
                entropies[i] = _rank(code, _nominal_repair_rows(code, [i], f_set))
            chk.checked += 1
            if len(set(entropies.values())) != 1:
                chk.fail(("H(S_i^F) differs across helpers", f_set, entropies))
                continue
            if size <= p.t and (p.t <= p.k or p.d == p.k):
                expect = size * p.beta
                got = next(iter(entropies.values()))
                if got != expect:
                    chk.fail(("H(S_i^F) != |F|beta", f_set, got, expect))

    return res


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


def capacity_table(code, pairs=None, compare_predicted=True):
    """Measured (and predicted) capacity for every admissible placement.

    pairs defaults to every (l1, l2) with l1 + l2 <= k - 1; for each pair
    every disjoint placement of E and F is enumerated (F restricted to the
    nodes whose traversal the code can model).
    """
    p = code.params
    if pairs is None:
        pairs = [
            (l1, l2)
            for tot in range(0, p.k)
            for l1 in range(tot + 1)
            for l2 in [tot - l1]
        ]
    nodes = list(range(1, p.n + 1))
    allowed_f = sorted(eavesdroppable_nodes(code))
    spans = {f: download_span(code, f) for f in allowed_f} if any(l2 for _, l2 in pairs) else {}
    cells = []
    for l1, l2 in pairs:
        for f_set in itertools.combinations(allowed_f, l2):
            rest = [x for x in nodes if x not in f_set]
            for e_set in itertools.combinations(rest, l1):
                eve = EveModel(E=e_set, F=f_set)
                validate_eve(code, eve)
                measured = p.B - _leaked_symbols(code, eve, spans)
                predicted = (
                    predicted_secrecy_capacity(p, l1, l2)
                    if compare_predicted
                    else NOT_COVERED
                )
                cells.append(
                    CapacityCell(l1=l1, l2=l2, E=e_set, F=f_set, measured=measured, predicted=predicted)
                )
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
    e_set = tuple(range(1, l1 + 1))
    f_set = tuple(range(l1 + 1, l1 + l2 + 1))
    nodes = list(range(1, p.n + 1))
    spans = {f: download_span(code, f) for f in f_set}

    tilde = [row for f in f_set for row in spans[f]]
    w_f = _storage(code, f_set)
    s_f = _nominal_repair_rows(code, nodes, f_set)

    # downloads span
    chk = res.get("downloads_span")
    chk.checked += 1
    ref = w_f + s_f
    if not (_rank(code, tilde) == _rank(code, ref) == _rank(code, tilde + ref)):
        chk.fail(("span(tilde S^F) != span(W_F u S^F)", f_set))
    z_f = [code.nominal_exchange_row(j, i) for i in f_set for j in nodes if j != i]
    chk.checked += 1
    if _rank_given(code, z_f, w_f) != 0 or _rank_given(code, w_f, z_f) != 0:
        chk.fail(("span(Z^F) != span(W_F)", f_set))

    # leak decomposition
    chk = res.get("leak_decomposition")
    chk.checked += 1
    w_ef = _storage(code, e_set + f_set)
    mid = [x for x in range(1, p.k + 1) if x not in e_set + f_set]
    s_mid = _nominal_repair_rows(code, mid, f_set)
    tail = [x for x in nodes if x > p.k and x not in f_set]
    s_tail = _nominal_repair_rows(code, tail, f_set)
    lhs = _rank(code, w_ef + s_f)
    rhs = _rank(code, w_ef) + _rank(code, s_mid)
    if lhs != rhs:
        chk.fail(("H(W_{EuF}, S^F) != H(W_{EuF}) + H(S_mid^F)", lhs, rhs))
    chk.checked += 1
    if _rank_given(code, s_mid, w_ef) != _rank(code, s_mid):
        chk.fail(("H(S_mid^F|W) != H(S_mid^F)",))
    chk.checked += 1
    if _rank_given(code, s_tail, w_ef + s_mid) != 0:
        chk.fail(("tail repair rows add entropy beyond W and the k-set",))

    # leak totals
    chk = res.get("leak_totals")
    leaked = _rank(code, _storage(code, e_set) + tilde)
    per_helper = {}
    for g in range(l1 + l2 + 1, p.k + 1):
        per_helper[g] = _rank(code, _nominal_repair_rows(code, [g], f_set))
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
    return res


def leakage_report(code, eve: EveModel, lemma_results=None) -> LeakageReport:
    obs = leakage_observations(code, eve)
    leaked = entropy_symbols(obs)
    return LeakageReport(
        observations=obs,
        leaked_symbols=leaked,
        measured_capacity=code.params.B - leaked,
        predicted_capacity=predicted_secrecy_capacity(code.params, eve.l1, eve.l2),
        eve=eve,
        lemma_results=lemma_results,
    )
