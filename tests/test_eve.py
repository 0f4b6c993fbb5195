import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from coopstore import eve, kernels
from coopstore.entropy import RowSpace, entropy_symbols, rank_rows
from coopstore.errors import InvalidEveModel, InvalidL, LemmaViolation, NonIntegralParams
from coopstore.eve import (
    NOT_COVERED,
    EveModel,
    bandwidth_comparison,
    capacity_cell,
    capacity_table,
    download_span,
    leakage_observations,
    lemma_suite,
    PlacementRows,
    measured_secrecy_capacity,
    placements as eve_placements,
    predicted_secrecy_capacity,
    repair_download_rows,
    specific_verifications,
)
from coopstore.field import binary_field, prime_field
from coopstore.instances import a1, b1, s1
from coopstore.legacy import CodeAAdapter, CodeB
from coopstore.stable import CodeParams, StableCode
from helpers import FromScratchAnalysis

S1_TABLE = {(0, 0): 6, (1, 0): 4, (2, 0): 2, (0, 1): 2, (1, 1): 1, (0, 2): 0}


def n8():
    """n=8, k=d=4, t=2 over GF(11): 525 traversal rows per node, 14 distinct."""
    return StableCode.create(CodeParams.mscr(n=8, k=4, d=4, t=2, q=11), prime_field(11))


def n8_gf16():
    """n8's parameters over binary GF(16): the XOR lanes of the echelon kernel."""
    return StableCode.create(CodeParams.mscr(n=8, k=4, d=4, t=2, q=16), binary_field(4))


def n8_gf17():
    """n8's parameters over GF(17): above the byte lanes, the tuple-row echelon."""
    return StableCode.create(CodeParams.mscr(n=8, k=4, d=4, t=2, q=17), prime_field(17))


def code_a():
    return CodeAAdapter(a1())


def n9():
    """n=9, k=d=4, t=3 over GF(11): the largest instance CI verifies before n=10."""
    return StableCode.create(CodeParams.mscr(n=9, k=4, d=4, t=3, q=11), prime_field(11))


def n11(cls=StableCode):
    """n=11, k=d=3, t=2 over GF(13): above EXHAUSTIVE_NODE_LIMIT, so sampled."""
    return cls.create(CodeParams.mscr(n=11, k=3, d=3, t=2, q=13), prime_field(13))


def t_over_k():
    """The t > k, d = k regime: n=5, k=d=2, t=3 over GF(11)."""
    return StableCode.create(CodeParams.mscr(n=5, k=2, d=2, t=3, q=11), prime_field(11))


def count_ranks(monkeypatch):
    """A Counter of kernels.rank and kernels.echelon calls from now on.

    One elimination is one call of kernels.echelon: a RowSpace's basis memo
    calls it directly, and kernels.rank (RowSpace.joint_rank, and
    entropy.rank_rows, which the from-scratch reference ranks through)
    calls it once per rank.
    """
    calls = Counter()
    for name in ("rank", "echelon"):
        real = getattr(kernels, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def all_summaries(code):
    """The lemma suite's summary and, for a stable code, every placement's."""
    out = {"lemmas": lemma_suite(code).summary()}
    if code.variant == "stable":
        k = code.params.k
        for l2 in range(1, k):
            for l1 in range(k - l2):
                out[(l1, l2)] = specific_verifications(code, l1, l2).summary()
    return out


class TestLeakageObservations:
    def test_empty_model(self):
        code = s1()
        obs = leakage_observations(code, EveModel())
        assert len(obs) == 0
        assert measured_secrecy_capacity(code, EveModel()) == 6

    def test_single_f_leaks_four(self):
        # alpha + (k-1) * l2 * beta = 2 + 2 = 4
        code = s1()
        for f in range(1, 7):
            obs = leakage_observations(code, EveModel(F=(f,)))
            assert entropy_symbols(obs) == 4

    def test_context_enumeration_is_exhaustive(self):
        code = s1()
        obs = leakage_observations(code, EveModel(F=(1,)))
        # C(n-1, t-1) * C(n-t, d) contexts, each d repair + (t-1) exchange rows
        assert len(obs) == 5 * 4 * (3 + 1)

    def test_code_b_node_t_leaks_everything(self):
        code = b1()
        obs = leakage_observations(code, EveModel(F=(2,)))
        assert entropy_symbols(obs) == 6

    def test_code_b_vulnerable_and_edge_nodes(self):
        code = b1()
        for node in (2, 3, 4, 5):
            assert measured_secrecy_capacity(code, EveModel(F=(node,))) == 0
        for node in (1, 6):  # position never changes at the extremes
            assert measured_secrecy_capacity(code, EveModel(F=(node,))) == 2

    def test_code_a_node_one_zero_capacity(self):
        adapter = CodeAAdapter(a1())
        assert measured_secrecy_capacity(adapter, EveModel(F=(1,))) == 0

    def test_code_a_unsupported_node_rejected(self):
        adapter = CodeAAdapter(a1())
        with pytest.raises(InvalidEveModel):
            leakage_observations(adapter, EveModel(F=(2,)))

    def test_eve_union_bound(self):
        code = s1()
        with pytest.raises(InvalidEveModel):
            leakage_observations(code, EveModel(E=(1, 2), F=(3,)))

    def test_overlap_rejected(self):
        with pytest.raises(InvalidEveModel):
            EveModel(E=(1,), F=(1,))

    def test_monotone_in_nodes(self):
        code = s1()
        base = entropy_symbols(leakage_observations(code, EveModel(F=(3,))))
        more_e = entropy_symbols(leakage_observations(code, EveModel(E=(5,), F=(3,))))
        more_f = entropy_symbols(leakage_observations(code, EveModel(F=(3, 4))))
        assert more_e >= base and more_f >= base


GROUP_WALK = pytest.mark.parametrize(
    "make",
    [s1, b1, n8, n9, t_over_k, code_a],
    ids=["s1", "b1", "n8", "n9", "t-over-k", "code-a"],
)


class TestDownloadSpan:
    @GROUP_WALK
    def test_group_walk_holds_every_context_row(self, make):
        # download_span's premise: under each group, every context's
        # download_rows are the rows the group walk gives for its helpers,
        # key by key, and the walk visits the groups the contexts do
        code = make()
        for node in code.supported_failed_nodes:
            walk = {
                group: dict(code.download_rows(node, group, senders))
                for group, senders in code.download_groups(node)
            }
            contexts = list(code.contexts(node))
            assert list(walk) == list(dict.fromkeys(group for group, _ in contexts))
            for group, helpers in contexts:
                for key, row in code.download_rows(node, group, helpers):
                    assert walk[group][key] == row

    @GROUP_WALK
    def test_span_is_the_distinct_traversal_rows(self, make):
        code = make()
        for f in code.supported_failed_nodes:
            span = download_span(code, f)
            full = repair_download_rows(code, f)
            assert len(span) == len(set(span)) <= len(full)
            assert set(span) == {row for _, row in full}
            # the documented order: each group in turn, in traversal order,
            # its repair rows before its exchange rows, first occurrence first
            groups = list(dict.fromkeys(key[2] for key, _ in full))
            order = sorted(
                range(len(full)),
                key=lambda i: (groups.index(full[i][0][2]), full[i][0][0] == "Z", i),
            )
            assert span == list(dict.fromkeys(full[i][1] for i in order))

    @pytest.mark.parametrize(
        "make",
        [s1, b1, code_a, n8, n8_gf16, n8_gf17, t_over_k],
        ids=["s1", "b1", "code-a", "n8", "n8-gf16", "n8-gf17", "t-over-k"],
    )
    def test_capacity_from_spans_equals_full_view(self, make):
        # every placement: the capacity sweep (one RowSpace) and
        # measured_secrecy_capacity (one per placement), both over spans,
        # against the from-scratch rank of the full labelled view
        code = make()
        p = code.params
        cells = capacity_table(code)
        allowed = len(code.supported_failed_nodes)
        assert len(cells) == sum(
            comb(allowed, l2) * comb(p.n - l2, tot - l2)
            for tot in range(p.k)
            for l2 in range(tot + 1)
        )
        for cell in cells:
            eve = EveModel(E=cell.E, F=cell.F)
            full = p.B - entropy_symbols(leakage_observations(code, eve))
            assert cell.measured == measured_secrecy_capacity(code, eve) == full

    @pytest.mark.parametrize(
        "make, placements",
        [(s1, 73), (b1, 73), (code_a, 7), (n8, 577)],
        ids=["s1", "b1", "code-a", "n8"],
    )
    def test_observed_rows_are_the_distinct_full_view(self, make, placements):
        # every placement: the bare rows the analysis ranks, node by node
        # (PlacementRows' masks), against the labelled reference view
        code = make()
        space = RowSpace(code.field, code.params.B)
        view = PlacementRows(code, space)
        cells = capacity_table(code)
        assert len(cells) == placements
        for cell in cells:
            eve = EveModel(E=cell.E, F=cell.F)
            f_rows, e_rows = view.observed(eve)
            assert set(space.rows(f_rows | e_rows)) == set(
                leakage_observations(code, eve).unique_rows()
            )

    def test_n8_span_size(self):
        code = n8()
        assert len(repair_download_rows(code, 3)) == 525
        assert len(download_span(code, 3)) == 14


class TestPredictedCapacity:
    def test_table_values(self):
        p = s1().params
        for (l1, l2), expect in S1_TABLE.items():
            assert predicted_secrecy_capacity(p, l1, l2) == expect

    def test_eq57_form(self):
        p = CodeParams.mscr(n=7, k=3, d=4, t=2, q=11)
        # (k - l1 - l2)(d - k + t - l2) * beta
        assert predicted_secrecy_capacity(p, 1, 1) == 1 * 2 * 1

    def test_no_adversary_gives_b(self):
        p = s1().params
        assert predicted_secrecy_capacity(p, 0, 0) == p.B

    def test_not_covered_regime(self):
        # t > k but d != k
        p = CodeParams.mscr(n=7, k=2, d=4, t=3, q=11)
        assert predicted_secrecy_capacity(p, 0, 1) is NOT_COVERED

    def test_t_greater_k_with_d_equals_k_covered(self):
        p = CodeParams.mscr(n=5, k=2, d=2, t=3, q=11)
        assert predicted_secrecy_capacity(p, 0, 1) == (2 - 1) * (3 - 1)

    def test_invalid_l(self):
        p = s1().params
        with pytest.raises(InvalidL):
            predicted_secrecy_capacity(p, 2, 1)


class TestCapacityTable:
    def test_s1_exhaustive_match(self):
        code = s1()
        cells = capacity_table(code)
        assert cells
        seen = set()
        for cell in cells:
            assert cell.measured == S1_TABLE[(cell.l1, cell.l2)] == cell.predicted
            seen.add((cell.l1, cell.l2))
        assert seen == set(S1_TABLE)

    def test_placement_counts(self):
        code = s1()
        cells = capacity_table(code)
        by_pair = {}
        for c in cells:
            by_pair.setdefault((c.l1, c.l2), 0)
            by_pair[(c.l1, c.l2)] += 1
        assert by_pair[(0, 0)] == 1
        assert by_pair[(1, 0)] == 6
        assert by_pair[(2, 0)] == 15
        assert by_pair[(0, 1)] == 6
        assert by_pair[(1, 1)] == 30
        assert by_pair[(0, 2)] == 15

    @pytest.mark.parametrize(
        "make",
        [s1, b1, n8, n8_gf16, n8_gf17, t_over_k, code_a],
        ids=["s1", "b1", "n8", "n8-gf16", "n8-gf17", "t-over-k", "code-a"],
    )
    def test_sweep_equals_cell_by_cell(self, make):
        # the F-first sweep against one validated capacity_cell per
        # placement, in placements() order over the default pairs
        code = make()
        k = code.params.k
        pairs = [(l1, tot - l1) for tot in range(k) for l1 in range(tot + 1)]
        expect = [
            capacity_cell(code, eve) for l1, l2 in pairs for eve in eve_placements(code, l1, l2)
        ]
        assert capacity_table(code) == expect

    def test_capacity_from_single_helper_entropy(self):
        # measured == (k - l1 - l2)(alpha - H(S_g^F)) for any g in G
        code = s1()
        for f_set in itertools.combinations(range(1, 7), 1):
            for e_set in itertools.combinations([x for x in range(1, 7) if x not in f_set], 1):
                eve = EveModel(E=e_set, F=f_set)
                rest = [x for x in range(1, 7) if x not in e_set + f_set]
                g = rest[0]
                s_g = [code.nominal_repair_row(g, f) for f in f_set]
                h_g = rank_rows(code.field, 6, s_g)
                expect = (3 - 2) * (2 - h_g)
                assert measured_secrecy_capacity(code, eve) == expect


class TestLemmaSuite:
    def test_s1_all_pass(self):
        res = lemma_suite(s1())
        assert res.all_passed, res.summary()
        assert res.checks["group_volume"].checked == 180
        assert res.checks["member_volume"].checked == 360
        assert res.checks["helper_uniformity"].checked == 21
        res.raise_if_failed()

    def test_l2_specific_subset_full_rank(self):
        # rank of repair data toward C={1,2} from A={3}, B={4,5} is dt*beta=6
        ctx = eve._AnalysisContext(s1())
        assert ctx.rank(ctx.blocks("S", (3, 4, 5), (1, 2), (1, 2))) == 6

    @pytest.mark.parametrize("make", [s1, b1], ids=["s1", "b1"])
    def test_context_rows_match_row_ctx(self, make):
        # the block masks the lemma suite ranks hold the transfer
        # primitives' rows, and one sender's block toward one node is the
        # code's keyed download_rows row, on every context of every node
        code = make()
        ctx = eve._AnalysisContext(code)
        nodes = range(1, code.params.n + 1)
        for node in nodes:
            for group, helpers in code.contexts(node):
                assert ctx.blocks("S", helpers, group, group) == ctx.mask(
                    code.repair_functional(i, j, group) for j in group for i in helpers
                )
                senders = [j for j in group if j != node]
                assert ctx.blocks("Z", group, (node,), group) == ctx.mask(
                    code.exchange_functional(j, node, group) for j in senders
                )
                keyed = code.download_rows(node, group, helpers)
                assert [key for key, _ in keyed] == [("S", i) for i in helpers] + [
                    ("Z", j) for j in senders
                ]
                for (kind, sender), row in keyed:
                    assert ctx.blocks(kind, (sender,), (node,), group) == ctx.intern(row)

    def test_traversal_span_counts_and_witnesses(self):
        # pinned before conditional_entropy moved out of the G loop
        assert lemma_suite(s1()).checks["traversal_span"].checked == 261
        res = lemma_suite(b1())
        assert res.checks["traversal_span"].checked == 101
        assert res.checks["traversal_span"].witness == (
            "span(tilde S^F) != span(W_F u S^F)",
            (2,),
        )

    def test_n8_counts_unchanged(self):
        # pinned before the traversals were reduced to their spans
        res = lemma_suite(n8())
        assert res.all_passed, res.summary()
        assert {name: chk.checked for name, chk in res.checks.items()} == {
            "group_volume": 2520,
            "member_volume": 3360,
            "traversal_span": 3592,
            "helper_uniformity": 92,
        }

    def test_b1_witnesses_unchanged(self):
        summary = lemma_suite(b1()).summary()
        assert {name: (c["checked"], c["passed"]) for name, c in summary.items()} == {
            "group_volume": (180, True),
            "member_volume": (360, True),
            "traversal_span": (101, False),
            "helper_uniformity": (21, False),
        }
        assert summary["helper_uniformity"]["witness"] == "('H(S_i^F) != |F|beta', (2, 3), 1, 2)"

    def test_code_b_l4_l5_fail_with_witness(self):
        res = lemma_suite(b1())
        assert res.checks["group_volume"].passed
        assert res.checks["member_volume"].passed
        assert not res.checks["traversal_span"].passed
        assert not res.checks["helper_uniformity"].passed
        assert res.checks["traversal_span"].witness is not None
        assert res.checks["helper_uniformity"].witness is not None
        with pytest.raises(LemmaViolation):
            res.raise_if_failed()

    def test_helper_uniformity_regime_t_greater_than_k(self):
        # the t >= k, d = k regime on a non-default instance
        code = t_over_k()
        res = lemma_suite(code)
        assert res.all_passed, res.summary()
        assert "group_volume" not in res.checks or res.checks["group_volume"].checked == 0


class TestAnalysisContext:
    """Each row built and each row set eliminated once per analysis call."""

    @pytest.mark.parametrize(
        "make, distinct, from_scratch",
        [(s1, 726, 2115), (b1, 350, 1873), (n8, 5254, 22888)],
        ids=["s1", "b1", "n8"],
    )
    def test_each_row_set_eliminated_once(self, make, distinct, from_scratch, monkeypatch):
        code = make()
        calls = count_ranks(monkeypatch)
        res = lemma_suite(code)
        assert calls == {"echelon": res.rank_eliminations}
        assert res.rank_eliminations == distinct
        assert res.rank_lookups > distinct
        # the reference ranks every row set it is asked for
        monkeypatch.setattr(eve, "_AnalysisContext", FromScratchAnalysis)
        calls.clear()
        lemma_suite(code)
        assert calls == {"rank": from_scratch, "echelon": from_scratch}

    def test_capacity_table_reuses_f_set_bases(self, monkeypatch):
        # one RowSpace per sweep: each of the 92 F sets' bases is reduced
        # once, and each of the 484 placements with E nonempty extends its
        # F set's basis by W_E in one kernels.rank call; the others are
        # F's memoised rank.  Fewer eliminations than the 577 placements.
        calls = count_ranks(monkeypatch)
        cells = capacity_table(n8())
        assert len(cells) == 577
        assert sum(1 for c in cells if c.E) == 484
        assert calls == {"rank": 484, "echelon": 484 + 92}

    @pytest.mark.parametrize(
        "make",
        [s1, b1, n8, n8_gf16, n8_gf17, t_over_k, n11, lambda: n11(CodeB)],
        ids=["s1", "b1", "n8", "n8-gf16", "n8-gf17", "t-over-k", "n11", "n11-code-b"],
    )
    def test_summaries_equal_from_scratch_reference(self, make, monkeypatch):
        code = make()
        memoised = all_summaries(code)
        monkeypatch.setattr(eve, "_AnalysisContext", FromScratchAnalysis)
        assert all_summaries(code) == memoised

    def test_tensor_rows_built_once_per_node_pair(self, monkeypatch):
        # every repair and exchange row is _tensor_row(g'_a, g_b) for a pair
        # a != b, so the suite and every canonical placement build at most
        # n(n - 1) rows, however many contexts ask for them
        calls = [0]
        real = StableCode._tensor_row

        def counted(self, left, right):
            calls[0] += 1
            return real(self, left, right)

        monkeypatch.setattr(StableCode, "_tensor_row", counted)
        code = n8()
        n, k = code.params.n, code.params.k
        assert lemma_suite(code).all_passed
        for l2 in range(1, k):
            for l1 in range(k - l2):
                assert specific_verifications(code, l1, l2).all_passed
        assert 0 < calls[0] <= n * (n - 1) == 56

    def test_n9_exhaustive_counts(self):
        res = lemma_suite(n9())
        assert res.all_passed, res.summary()
        assert {name: chk.checked for name, chk in res.checks.items()} == {
            "group_volume": 5040,
            "member_volume": 15120,
            "traversal_span": 6429,
            "helper_uniformity": 129,
        }
        assert res.counters() == {
            "lookups": 69405,
            "eliminations": 13903,
            "rows_built": 2097,
            "rows_unique": 75,
        }


class MisreportedRank(FromScratchAnalysis):
    """The from-scratch reference, but one row set's rank reads one too high."""

    target = frozenset()

    def rank(self, rows):
        return super().rank(rows) + (rows == self.target)


class TestChainOrder:
    """A witness is the first chain, in _subset_chains order, that fails.

    Every test code passes group_volume and member_volume, so nothing else
    pins which chain their witness names.  Here the rank of one row set,
    S_{A u B}^C or S_{A' u B'}^i with Z_{C'}^i, is misreported, and the
    witness must be the first chain whose first check ranks that set.
    Several chains name one set (any split of the same helpers); the set
    misreported is one that a chain past the middle of the walk names
    again, so its witness comes earlier than that chain.
    """

    @staticmethod
    def _chains(code, lemma):
        """The lemma's chains in walk order, each with the row set its first check ranks."""
        p = code.params
        ref = FromScratchAnalysis(code)
        nodes = list(range(1, p.n + 1))
        rng = None if p.n <= eve.EXHAUSTIVE_NODE_LIMIT else random.Random(0)
        group = list(eve._subset_chains(nodes, (p.t, p.k - p.t, p.d - p.k + p.t), rng, eve.SAMPLE_DRAWS))
        if lemma == "group_volume":
            return [
                (chain, ref.blocks("S", chain[1] + chain[2], chain[0], chain[0])) for chain in group
            ]
        # member_volume draws after group_volume, from the same generator
        sizes = (1, p.t - 1, p.k - 1, p.d - p.k + 1)
        out = []
        for i_set, c_prime, a_prime, b_prime in eve._subset_chains(nodes, sizes, rng, eve.SAMPLE_DRAWS):
            target = tuple(sorted(i_set + c_prime))
            rows = ref.blocks("S", a_prime + b_prime, i_set, target) | ref.blocks("Z", c_prime, i_set, target)
            out.append(((i_set[0], c_prime, a_prime, b_prime), rows))
        return out

    @pytest.mark.parametrize("lemma", ["group_volume", "member_volume"])
    @pytest.mark.parametrize("make", [n8, n11], ids=["exhaustive", "sampled"])
    def test_witness_is_first_chain_naming_the_set(self, make, lemma, monkeypatch):
        code = make()
        chains = self._chains(code, lemma)
        # the first set that a chain past the middle of the walk names again
        seen = set()
        for index, (_, rows) in enumerate(chains):
            if index > len(chains) // 2 and rows in seen:
                target = rows
                break
            seen.add(rows)
        first = next(chain for chain, rows in chains if rows == target)
        message = {
            "group_volume": "H(S_{A u B}^C) != dt*beta",
            "member_volume": "H(S_{A'uB'}^i, Z_{C'}^i) != (d+t-1)beta",
        }[lemma]
        monkeypatch.setattr(MisreportedRank, "target", target)
        monkeypatch.setattr(eve, "_AnalysisContext", MisreportedRank)
        check = lemma_suite(code).checks[lemma]
        assert not check.passed
        assert check.witness == (message,) + first


class TestSampledLemmaSuite:
    """lemma_suite beyond EXHAUSTIVE_NODE_LIMIT: seeded draws of the subsets."""

    def test_stable_passes(self):
        code = n11()
        assert code.params.n > eve.EXHAUSTIVE_NODE_LIMIT
        res = lemma_suite(code)
        assert res.all_passed, res.summary()
        assert {name: chk.checked for name, chk in res.checks.items()} == {
            "group_volume": 200,
            "member_volume": 200,
            "traversal_span": 2046,
            "helper_uniformity": 66,
        }

    def test_code_b_fails_l4_l5(self):
        res = lemma_suite(n11(CodeB))
        assert res.checks["group_volume"].passed
        assert res.checks["member_volume"].passed
        assert not res.checks["traversal_span"].passed
        assert not res.checks["helper_uniformity"].passed

    def test_draws_follow_the_seed(self, monkeypatch):
        calls = count_ranks(monkeypatch)
        drawn = []
        real = eve._subset_chains

        def recording(*args):
            for chain in real(*args):
                drawn.append(chain)
                yield chain

        monkeypatch.setattr(eve, "_subset_chains", recording)
        code = n11()
        runs = []
        for seed in (1, 1, 2):
            calls.clear()
            drawn.clear()
            lemma_suite(code, seed=seed)
            runs.append((dict(calls), list(drawn)))
        assert runs[0] == runs[1]
        assert runs[1][0] != runs[2][0]
        assert runs[1][1] != runs[2][1]


class TestSpecificVerifications:
    @pytest.mark.parametrize("l1,l2", [(0, 1), (1, 1), (0, 2)])
    def test_s1_canonical_placements(self, l1, l2):
        res = specific_verifications(s1(), l1, l2)
        assert res.all_passed, res.summary()

    @pytest.mark.parametrize("make", [s1, n8], ids=["s1", "n8"])
    def test_every_canonical_placement_counts(self, make):
        code = make()
        k = code.params.k
        for l2 in range(1, k):
            for l1 in range(k - l2):
                summary = specific_verifications(code, l1, l2).summary()
                assert {name: (c["checked"], c["passed"]) for name, c in summary.items()} == {
                    "downloads_span": (2, True),
                    "leak_decomposition": (3, True),
                    "leak_totals": (3, True),
                }

    def test_invalid_l(self):
        with pytest.raises(InvalidL):
            specific_verifications(s1(), 0, 3)

    @pytest.mark.parametrize("l1,l2", [(-1, 2), (1, 0)])
    def test_invalid_pair_rejected_before_any_rank(self, l1, l2, monkeypatch):
        # (-1, 2) puts node 0, which does not exist, into the canonical F
        calls = count_ranks(monkeypatch)
        with pytest.raises(InvalidL):
            specific_verifications(s1(), l1, l2)
        assert calls == {}


class TestBandwidthComparison:
    def test_s1_values(self):
        msr, mscr = bandwidth_comparison(6, 3, 3, 2, 6)
        assert (msr, mscr) == (Fraction(12), Fraction(8))

    def test_t1_equal(self):
        msr, mscr = bandwidth_comparison(6, 3, 4, 1, 6)
        assert msr == mscr

    def test_fractional_msr_total(self):
        msr, mscr = bandwidth_comparison(8, 2, 4, 2, 8)
        assert msr == Fraction(32, 3)
        assert mscr == Fraction(10)
        assert mscr < msr

    def test_non_mscr_point_rejected(self):
        with pytest.raises(NonIntegralParams):
            bandwidth_comparison(6, 3, 3, 2, 7)


class TestStorageRecoverability:
    def test_full_downloads_determine_storage(self):
        # H(W_i | tilde S^i) = 0 for every node of S1
        from coopstore.entropy import conditional_entropy, observations
        from coopstore.eve import repair_download_rows

        code = s1()
        for i in range(1, 7):
            w_i = observations(code.field, 6, code.storage_rows(i))
            tilde = observations(code.field, 6, repair_download_rows(code, i))
            assert conditional_entropy(w_i, tilde) == 0

    def test_repair_data_alone_does_not(self):
        # the caveat that separates cooperative codes from single-repair
        # ones: H(W_i | S^i) > 0 here, so the suite must never assert it zero
        code = s1()
        nodes = list(range(1, 7))
        for i in nodes:
            w_i = [row for _, row in code.storage_rows(i)]
            s_i = [code.nominal_repair_row(h, i) for h in nodes if h != i]
            assert rank_rows(code.field, 6, w_i + s_i) - rank_rows(code.field, 6, s_i) == 1


def test_leakage_observations_shape():
    code = s1()
    eve = EveModel(F=(1,))
    obs = leakage_observations(code, eve)
    leaked = entropy_symbols(obs)
    assert leaked == 4
    assert measured_secrecy_capacity(code, eve) == 2 == predicted_secrecy_capacity(code.params, 0, 1)
    assert measured_secrecy_capacity(code, eve) == code.params.B - leaked
    assert len(obs) == 80
