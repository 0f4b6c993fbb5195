import itertools
import random

import pytest

from coopstore.entropy import entropy_symbols
from coopstore.errors import (
    FieldTooSmall,
    InadmissibleOmega,
    InvalidGroup,
    NotGenerator,
    ParameterTooSmall,
)
from coopstore.field import prime_field
from coopstore.instances import a1, b1
from coopstore.legacy import (
    CodeB,
    admissibility_value,
    code_a_attack,
    code_a_encode,
    code_a_init,
    code_a_inverse_leakage_matrix,
    code_a_leakage_matrix,
    code_a_repair_functionals,
    code_b_attack,
    code_b_repair_data,
)
from coopstore.matrix import Mat
from coopstore.stable import CodeParams, StableCode

GF11 = prime_field(11)
GF13 = prime_field(13)


def rand_vec(field, n, rng):
    return tuple(rng.randrange(field.order) for _ in range(n))


class TestCodeAInit:
    def test_admissible_d3_q11_omega2(self):
        params = a1()
        assert params.n == 5 and params.alpha == 3 and params.B == 6
        # exhaustive: 2 generates GF(11)* and the condition value is 4
        orders = {a: GF11.element_order(a) for a in range(1, 11)}
        assert orders[2] == 10
        assert admissibility_value(GF11, 2, 3) == 4
        assert 4 not in (0, 9)

    def test_omega_one_rejected_as_non_generator(self):
        with pytest.raises(NotGenerator):
            code_a_init(3, GF11, 1)

    def test_field_too_small(self):
        # q = n - 1 violates the q > n - 1 requirement
        with pytest.raises(FieldTooSmall):
            code_a_init(4, prime_field(5), 2)

    def test_inadmissible_generator_rejected(self):
        # omega=2 over GF(13) with d=3: condition value equals alpha^2
        assert GF13.element_order(2) == 12
        assert admissibility_value(GF13, 2, 3) == 9
        with pytest.raises(InadmissibleOmega) as exc:
            code_a_init(3, GF13, 2)
        assert exc.value.condition_value == 9


class TestCodeAEncode:
    def test_zero_b_copies_a(self, rng):
        params = a1()
        a = rand_vec(GF11, 3, rng)
        shards = code_a_encode(params, a, (0, 0, 0))
        for s in shards[2:]:
            assert s.symbols == a

    def test_unit_b_reads_diagonal(self):
        params = a1()
        shards = code_a_encode(params, (0, 0, 0), (1, 0, 0))
        for i in range(1, 4):
            expect = (GF11.pow(2, (i - 1) % 3), 0, 0)
            assert shards[i + 1].symbols == expect

    def test_r2_matches_direct_evaluation(self, rng):
        params = a1()
        a, b = rand_vec(GF11, 3, rng), rand_vec(GF11, 3, rng)
        shards = code_a_encode(params, a, b)
        # D_2 diagonal: omega^((2-1+r) mod 3) = (omega, omega^2, 1)
        diag = (2, 4, 1)
        expect = tuple(GF11.add(x, GF11.mul(w, y)) for x, w, y in zip(a, diag, b))
        assert shards[3].symbols == expect


class TestCodeARepairFunctionals:
    def test_group_12_rows(self):
        params = a1()
        obs = code_a_repair_functionals(params, (1, 2))
        assert len(obs) == 3
        for label, row in zip(obs.labels, obs.rows):
            j = int(label.split("^")[0].split("_")[1]) - 2
            dj_inv = tuple(GF11.inv(v) for v in params.diag(j))
            assert row == dj_inv + (1, 1, 1)

    def test_group_1_i2_parity_rows(self):
        params = a1()
        i = 2
        obs = code_a_repair_functionals(params, (1, i + 2))
        di = params.diag(i)
        by_label = dict(zip(obs.labels, obs.rows))
        for j in (1, 3):
            dj_inv = [GF11.inv(v) for v in params.diag(j)]
            expect = tuple(GF11.mul(x, y) for x, y in zip(di, dj_inv)) + di
            assert by_label[f"S_{j + 2}^1|C=1,{i + 2}"] == expect
        assert by_label[f"S_2^1|C=1,{i + 2}"] == (0, 0, 0) + di

    def test_interference_alignment_group_12(self):
        # the b-side of every parity row under group (1,2) is literally z^T
        params = a1()
        obs = code_a_repair_functionals(params, (1, 2))
        segments = {row[3:] for row in obs.rows}
        assert segments == {(1, 1, 1)}

    def test_invalid_group(self):
        with pytest.raises(InvalidGroup):
            code_a_repair_functionals(a1(), (2, 3))


class TestCodeAAttack:
    def test_exact_recovery(self, rng):
        params = a1()
        a, b = rand_vec(GF11, 3, rng), rand_vec(GF11, 3, rng)
        result = code_a_attack(params, a, b)
        assert result.recovered_a == a
        assert result.recovered_b == b

    def test_leaked_entropy_is_everything(self, rng):
        params = a1()
        a, b = rand_vec(GF11, 3, rng), rand_vec(GF11, 3, rng)
        result = code_a_attack(params, a, b)
        assert result.leaked_entropy == params.B == 6

    def test_zero_b_recovered(self, rng):
        params = a1()
        a = rand_vec(GF11, 3, rng)
        result = code_a_attack(params, a, (0, 0, 0))
        assert result.recovered_b == (0, 0, 0)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_every_parity_index_works(self, j, rng):
        params = a1()
        a, b = rand_vec(GF11, 3, rng), rand_vec(GF11, 3, rng)
        result = code_a_attack(params, a, b, j=j)
        assert result.recovered_b == b


class TestAdmissibilityCondition:
    """The admissibility condition guarantees both leakage matrices invertible.

    Swept over every generator of GF(11)* and GF(13)* and every d in range;
    singular counterexamples exist among inadmissible omegas (negative
    control).  The condition is sufficient, not necessary: some inadmissible
    generators still give invertible matrices.
    """

    @pytest.mark.parametrize("field", [GF11, GF13], ids=["GF11", "GF13"])
    def test_condition_implies_invertible(self, field):
        generators = [g for g in range(2, field.order) if field.is_generator(g)]
        assert generators
        checked = 0
        for omega in generators:
            for d in range(2, field.order - 1):
                val = admissibility_value(field, omega, d)
                alpha_sq = field.mul(d % field.order, d % field.order)
                if val in (0, alpha_sq):
                    continue
                params = code_a_init(d, field, omega) if field.order > d + 1 else None
                if params is None:
                    continue
                for j in range(1, d + 1):
                    assert code_a_leakage_matrix(params, j).rank() == d
                    assert code_a_inverse_leakage_matrix(params, j).rank() == d
                checked += 1
        assert checked > 0

    def test_negative_control_singular_for_inadmissible_omega(self):
        # omega=3 over GF(11) with d=5 fails the condition and the leakage
        # matrix is genuinely singular for every parity index.
        from coopstore.legacy import CodeAParams

        omega, d = 3, 5
        val = admissibility_value(GF11, omega, d)
        alpha_sq = GF11.mul(5, 5)
        assert val in (0, alpha_sq)
        params = CodeAParams(field=GF11, d=d, omega=omega)
        for j in range(1, d + 1):
            assert code_a_leakage_matrix(params, j).rank() < d

    def test_matrix17_of_omega_equals_matrix16_of_inverse_omega(self):
        # the omega <-> omega^{-1} correspondence used to transfer
        # invertibility between the two matrix families
        from coopstore.legacy import CodeAParams

        for omega in (2, 6, 7, 8):
            w_inv = GF11.inv(omega)
            p1 = CodeAParams(field=GF11, d=3, omega=omega)
            p2 = CodeAParams(field=GF11, d=3, omega=w_inv)
            for j in (1, 2, 3):
                assert code_a_leakage_matrix(p1, j) == code_a_inverse_leakage_matrix(p2, j)


class TestCodeBRepair:
    def test_serial_assignment_group_12(self, rng):
        code = b1()
        data = Mat(GF11, 2, 3, [rng.randrange(11) for _ in range(6)])
        symbols, obs = code_b_repair_data(code, data, (1, 2), (4, 5, 6))
        # the per-generation reference encode over the same deployment
        shards = {s.node_id: s for s in StableCode.create(code.params, code.field).encode(data)}
        for lam in (4, 5, 6):
            assert symbols[(lam, 1)] == shards[lam].symbols[0]  # first packet
            assert symbols[(lam, 2)] == shards[lam].symbols[1]

    def test_same_node_different_functional_across_groups(self):
        code = b1()
        r12 = code.repair_row_ctx(5, 2, (1, 2), (4, 5, 6))[1]
        r23 = code.repair_row_ctx(5, 2, (2, 3), (4, 5, 6))[1]
        assert r12 != r23  # node 2 is second in (1,2) but first in (2,3)

    def test_zero_data_zero_transfers(self):
        code = b1()
        symbols, _ = code_b_repair_data(code, Mat.zeros(GF11, 2, 3), (1, 2), (4, 5, 6))
        assert set(symbols.values()) == {0}

    def test_repair_regenerates_exactly_everywhere(self, rng):
        # 7 generations, as bytes (the table lincomb) and as an int list
        code = b1()
        symbols = [rng.randrange(11) for _ in range(7 * 6)]
        for stream in (bytes(symbols), symbols):
            payloads = code.encode_batch(stream)
            for group in itertools.combinations(range(1, 7), 2):
                pool = [i for i in range(1, 7) if i not in group]
                for helpers in itertools.combinations(pool, 3):
                    regen = code.repair(group, helpers, {h: payloads[h] for h in helpers})
                    assert regen == {g: payloads[g] for g in group}


class TestCodeBAttack:
    def test_exact_recovery_and_full_leakage(self, rng):
        code = b1()
        data = Mat(GF11, 2, 3, [rng.randrange(11) for _ in range(6)])
        result = code_b_attack(code, data)
        assert result.recovered == data
        assert result.leaked_entropy == code.params.B == 6
        assert result.groups == ((1, 2), (2, 3))
        assert result.helpers == (4, 5, 6)

    def test_observed_rows_all_from_node_t(self):
        code = b1()
        result = code_b_attack(code, Mat.zeros(GF11, 2, 3))
        assert all(f"^{code.params.t}|" in lbl for lbl in result.observations.labels)

    def test_parameter_too_small(self):
        params = CodeParams.mscr(n=5, k=3, d=3, t=2, q=11)
        code = CodeB.create(params, GF11)
        with pytest.raises(ParameterTooSmall):
            code_b_attack(code, Mat.zeros(GF11, 2, 3))


def test_code_a_full_observation_rank_counts():
    # the traversal leaks all B symbols; granting node 1's content is about
    # making the recovery explicit, not about adding entropy
    from coopstore.entropy import observations
    from coopstore.eve import EveModel, leakage_observations
    from coopstore.legacy import CodeAAdapter, code_a_repair_functionals

    params = a1()
    full = leakage_observations(CodeAAdapter(params), EveModel(F=(1,)))
    assert entropy_symbols(full) == 6
    repair_only = []
    for ell in range(2, 6):
        sub = code_a_repair_functionals(params, (1, ell))
        repair_only.extend(zip(sub.labels, sub.rows))
    assert entropy_symbols(observations(GF11, 6, repair_only)) == 6


@pytest.fixture
def rng():
    return random.Random(0xA77AC)
