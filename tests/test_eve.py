import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from coopstore import eve, kernels
from coopstore.entropy import entropy_symbols, rank_rows
from coopstore.errors import InvalidEveModel, InvalidL, LemmaViolation, NonIntegralParams
from coopstore.eve import (
    NOT_COVERED,
    EveModel,
    bandwidth_comparison,
    capacity_table,
    download_span,
    leakage_observations,
    lemma_suite,
    PlacementRows,
    measured_secrecy_capacity,
    predicted_secrecy_capacity,
    repair_download_rows,
    specific_verifications,
)
from coopstore.field import binary_field, prime_field
from coopstore.instances import a1, b1, s1
from coopstore.legacy import CodeAAdapter
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


class RowsAsHandles:
    """A stand-in row space whose handle of a row is the row itself."""

    @staticmethod
    def intern(row):
        return row


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


class TestDownloadSpan:
    @pytest.mark.parametrize("make", [s1, b1, code_a, n8], ids=["s1", "b1", "code-a", "n8"])
    def test_span_is_the_distinct_traversal_rows(self, make):
        code = make()
        for f in code.supported_failed_nodes:
            span = download_span(code, f)
            full = [row for _, row in repair_download_rows(code, f)]
            assert len(span) == len(set(span)) <= len(full)
            assert set(span) == set(full)
            assert span == sorted(span, key=full.index)

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
        # (PlacementRows), against the labelled reference view
        code = make()
        view = PlacementRows(code, (RowsAsHandles,))
        cells = capacity_table(code)
        assert len(cells) == placements
        for cell in cells:
            eve = EveModel(E=cell.E, F=cell.F)
            f_rows, e_rows = view.observed(eve)
            assert {row for (row,) in f_rows + e_rows} == set(
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

    def test_capacity_from_single_helper_entropy(self):
        # measured == (k - l1 - l2)(alpha - H(S_g^F)) for any g in G
        code = s1()
        from coopstore.eve import _nominal_repair_rows

        for f_set in itertools.combinations(range(1, 7), 1):
            for e_set in itertools.combinations([x for x in range(1, 7) if x not in f_set], 1):
                eve = EveModel(E=e_set, F=f_set)
                rest = [x for x in range(1, 7) if x not in e_set + f_set]
                g = rest[0]
                h_g = rank_rows(code.field, 6, _nominal_repair_rows(code, [g], f_set))
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
        code = s1()
        from coopstore.eve import _ctx_repair_rows

        rows = _ctx_repair_rows(code, (3, 4, 5), (1, 2), (1, 2))
        assert rank_rows(code.field, 6, rows) == 6

    @pytest.mark.parametrize("make", [s1, b1], ids=["s1", "b1"])
    def test_context_rows_match_row_ctx(self, make):
        # the bare rows the lemma suite ranks equal the rows of the labelled
        # repair_row_ctx / exchange_row_ctx, on every context of every node
        from coopstore.eve import _ctx_exchange_rows, _ctx_repair_rows

        code = make()
        nodes = range(1, code.params.n + 1)
        for node in nodes:
            for group, helpers in code.contexts(node):
                assert _ctx_repair_rows(code, helpers, group, group) == [
                    code.repair_row_ctx(i, j, group, helpers)[1]
                    for j in group
                    for i in helpers
                ]
                assert _ctx_exchange_rows(code, group, node, group) == [
                    code.exchange_row_ctx(j, node, group, helpers)[1] for j in group if j != node
                ]

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
        [s1, b1, n8, n8_gf16, n8_gf17, t_over_k],
        ids=["s1", "b1", "n8", "n8-gf16", "n8-gf17", "t-over-k"],
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
        from coopstore.eve import _nominal_repair_rows, _storage

        code = s1()
        nodes = list(range(1, 7))
        for i in nodes:
            w_i = _storage(code, [i])
            s_i = _nominal_repair_rows(code, nodes, [i])
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
