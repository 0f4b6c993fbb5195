"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  All arithmetic is exact; every comparison is integer equality, and
the stated runtime budgets are asserted with wall-clock checks.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from coopstore.entropy import brute_force_entropy, entropy_symbols, observations
from coopstore.errors import NotGenerator
from coopstore.eve import (
    EveModel,
    bandwidth_comparison,
    capacity_table,
    lemma_suite,
)
from coopstore.field import FieldSpec, prime_field
from coopstore.instances import a1, b1, s1, s1_binary
from coopstore.legacy import (
    CodeAParams,
    admissibility_value,
    code_a_attack,
    code_a_leakage_matrix,
    code_b_attack,
)
from coopstore.matrix import Mat
from coopstore.secure import (
    SecureScheme,
    decode_secret,
    encode_secure,
    random_symbols,
    scheme_create,
    verify_secrecy_sweep,
)
from coopstore.shardfile import ShardMeta, write_shard
from coopstore.stable import RepairContext, stability_certificate


@contextmanager
def criterion(num, description, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num:02d} PASS  {description}  ({elapsed:.2f}s)")


RNG = random.Random(0xACCE97)


def random_message(code):
    p = code.params
    return Mat(code.field, p.t, p.k, [RNG.randrange(p.q) for _ in range(p.B)])


def test_criterion_1_mds_reconstruction():
    with criterion(1, "all 20 k-subsets of S1 reconstruct the message exactly", 1.0):
        code = s1()
        data = random_message(code)
        shards = code.encode(data)
        subsets = list(itertools.combinations(range(1, 7), 3))
        assert len(subsets) == 20
        for ids in subsets:
            assert code.reconstruct({i: shards[i] for i in ids}) == data


def test_criterion_2_repair_correctness():
    with criterion(2, "all 15 groups x 4 helper sets regenerate byte-identical shards", 1.0):
        code = s1()
        p = code.params
        data = random_message(code)
        originals = code.encode(data)
        contexts = 0
        for group in itertools.combinations(range(1, 7), 2):
            pool = [i for i in range(1, 7) if i not in group]
            for helpers in itertools.combinations(pool, 3):
                regen = code.cooperative_repair(RepairContext(group, helpers), originals)
                assert regen == {j: originals[j] for j in group}
                contexts += 1
        assert contexts == 60

        # byte-level: serialized regenerated shard equals the original file
        def blob(node, symbols):
            import io
            import tempfile
            from pathlib import Path

            meta = ShardMeta(
                variant="stable",
                field_spec=FieldSpec.prime(11),
                params=p,
                node_id=node,
                generations=1,
            )
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "x.shard"
                write_shard(path, meta, list(symbols))
                return path.read_bytes()

        regen = code.cooperative_repair(RepairContext((2, 5), (1, 3, 4)), originals)
        for node, symbols in regen.items():
            assert blob(node, symbols) == blob(node, originals[node])


def test_criterion_3_stability():
    with criterion(3, "stability certificate: S1 passes; Code-B yields a two-context witness"):
        assert stability_certificate(s1()) is None
        witness = stability_certificate(b1())
        assert witness is not None
        assert witness.first_row != witness.second_row
        assert witness.first_context != witness.second_context
        # both contexts involve the same helper -> failed transfer
        assert witness.failed in witness.first_context[0]
        assert witness.failed in witness.second_context[0]
        assert witness.helper in witness.first_context[1]
        assert witness.helper in witness.second_context[1]


def test_criterion_4_capacity_table():
    expected = {(0, 0): 6, (1, 0): 4, (2, 0): 2, (0, 1): 2, (1, 1): 1, (0, 2): 0}
    with criterion(4, "measured capacity equals the closed form at every placement", 30.0):
        cells = capacity_table(s1())
        assert len(cells) == 73  # exhaustive over E/F choices
        seen = set()
        for cell in cells:
            assert cell.predicted == expected[(cell.l1, cell.l2)]
            assert cell.measured == cell.predicted, (cell.l1, cell.l2, cell.E, cell.F)
            seen.add((cell.l1, cell.l2))
        assert seen == set(expected)


def test_criterion_5_code_a_attack():
    with criterion(5, "Code-A: traversal recovers (a, b); leak = B; singular control exists"):
        params = a1()
        a = tuple(RNG.randrange(11) for _ in range(3))
        b = tuple(RNG.randrange(11) for _ in range(3))
        result = code_a_attack(params, a, b)
        assert result.recovered_a == a and result.recovered_b == b
        assert result.leaked_entropy == params.B == 6
        for j in (1, 2, 3):
            assert code_a_leakage_matrix(params, j).rank() == 3  # certified invertible
        # negative control: inadmissible omega with a genuinely singular matrix
        bad = CodeAParams(field=prime_field(11), d=5, omega=3)
        value = admissibility_value(prime_field(11), 3, 5)
        assert value in (0, prime_field(11).mul(5, 5))
        assert any(code_a_leakage_matrix(bad, j).rank() < 5 for j in range(1, 6))
        with pytest.raises(NotGenerator):
            from coopstore.legacy import code_a_init

            code_a_init(5, prime_field(11), 3)


def test_criterion_6_code_b_attack():
    with criterion(6, "Code-B: sliding groups leak all 6 symbols to node t's observer"):
        code = b1()
        data = random_message(code)
        result = code_b_attack(code, data)
        assert result.recovered == data
        assert result.leaked_entropy == 6
        target = code.params.t
        assert all(f"^{target}|" in lbl for lbl in result.observations.labels)


def test_criterion_7_lemma_suite():
    with criterion(7, "the four supporting rank identities hold on S1, exhaustively", 60.0):
        res = lemma_suite(s1())
        assert res.all_passed, res.summary()
        assert res.checks["group_volume"].checked == 180
        assert res.checks["member_volume"].checked == 360
        assert res.checks["traversal_span"].checked >= 21
        assert res.checks["helper_uniformity"].checked == 21


def test_criterion_8_entropy_oracle():
    with criterion(8, ">=100 seeded observation sets: brute force equals rank exactly"):
        cases = 0
        for seed in range(55):
            rng = random.Random(seed)
            for q, bmax in ((2, 12), (3, 7)):
                fld = prime_field(q)
                b = rng.randint(1, bmax)
                assert q**b <= 2**16
                rows = [
                    (f"r{i}", tuple(rng.randrange(q) for _ in range(b)))
                    for i in range(rng.randint(0, b + 2))
                ]
                obs = observations(fld, b, rows)
                # both sides in log-q units: exact equality, zero tolerance
                assert brute_force_entropy(obs) == Fraction(entropy_symbols(obs))
                cases += 1
        assert cases >= 100


def test_criterion_9_secure_mode():
    with criterion(9, "secure mode: 1 secret symbol, zero leakage at all 30 placements"):
        scheme = scheme_create(s1_binary(), 1, 1)
        assert scheme.secret_len == 1  # the closed-form prediction
        checks = verify_secrecy_sweep(scheme)
        assert len(checks) == 30
        assert all(c.passed and c.mutual_information == 0 for c in checks)
        secret = random_symbols(scheme, RNG, 1)
        randomness = random_symbols(scheme, RNG, 5)
        shards = encode_secure(scheme, secret, randomness)
        for ids in itertools.combinations(range(1, 7), 3):
            assert decode_secret(scheme, {i: shards[i] for i in ids}) == secret
        # negative control: one fewer random symbol breaks the verification
        tampered = SecureScheme(
            code=scheme.code,
            ext=scheme.ext,
            gabidulin=scheme.gabidulin,
            secret_len=2,
            random_len=4,
            l1=1,
            l2=1,
        )
        bad = verify_secrecy_sweep(tampered)
        assert all(not c.coverable and c.mutual_information > 0 for c in bad)


def test_criterion_10_bandwidth_report():
    with criterion(10, "cooperative repair totals 8 symbols vs 12 for one-by-one"):
        msr, mscr = bandwidth_comparison(6, 3, 3, 2, 6)
        assert msr == 12 and mscr == 8
        assert mscr < msr
