"""The package's records: equality, hashing, frozenness, checks and repr.

Frozen value records are namedtuple subclasses; ReportDoc, LemmaCheck,
LemmaResults and ObservationSet are plain classes.  Each keeps the
Name(field=value, ...) repr, the field order and the equality that its
dataclass had.
"""

import random
import re

import pytest

from coopstore.entropy import ObservationSet
from coopstore.errors import DimensionMismatch, InvalidEveModel, NonIntegralParams
from coopstore.eve import NOT_COVERED, CapacityCell, EveModel, LemmaCheck, LemmaResults
from coopstore.field import FieldSpec, prime_field
from coopstore.instances import s1_binary
from coopstore.legacy import CodeB, code_a_attack, code_a_init, code_b_attack
from coopstore.matrix import Mat
from coopstore.report import ReportDoc
from coopstore.secure import SecrecyCheck, scheme_create
from coopstore.shardfile import ShardMeta
from coopstore.stable import CodeParams, RepairContext, StabilityWitness

GF11 = prime_field(11)
S1 = CodeParams.mscr(6, 3, 3, 2, q=11)


def _code_b_result():
    data = Mat(GF11, 2, 3, [random.Random(1).randrange(11) for _ in range(6)])
    return code_b_attack(CodeB.create(S1, GF11), data)


# name: (factory, fields in order, frozen); each factory makes equal records
RECORDS = {
    "FieldSpec": (
        lambda: FieldSpec.tower(FieldSpec.binary(4), 6),
        ("kind", "p", "m", "poly", "base", "degree", "reduction"),
        True,
    ),
    "CodeParams": (
        lambda: CodeParams.mscr(6, 3, 3, 2, q=11),
        ("n", "k", "d", "t", "alpha", "beta", "beta_prime", "B", "q"),
        True,
    ),
    "RepairContext": (lambda: RepairContext((5, 2), (4, 1, 3)), ("group", "helpers"), True),
    "StabilityWitness": (
        lambda: StabilityWitness(1, 2, ((1, 2), (3, 4, 5)), (1, 0), ((1, 3), (2, 4, 5)), (0, 1)),
        ("helper", "failed", "first_context", "first_row", "second_context", "second_row"),
        True,
    ),
    "ShardMeta": (
        lambda: ShardMeta("stable", FieldSpec.prime(11), S1, 3, 7),
        ("variant", "field_spec", "params", "node_id", "generations"),
        True,
    ),
    "ReportDoc": (
        lambda: ReportDoc("verify", {"seed": 0}),
        ("command", "config", "results", "failures", "timings_ms"),
        False,
    ),
    "EveModel": (lambda: EveModel(E=(3, 1), F=(2,)), ("E", "F"), True),
    "LemmaCheck": (
        lambda: LemmaCheck("group_volume"), ("name", "checked", "passed", "witness"), False
    ),
    "LemmaResults": (
        LemmaResults,
        ("checks", "rank_lookups", "rank_eliminations", "rows_built", "rows_unique"),
        False,
    ),
    "CapacityCell": (
        lambda: CapacityCell(0, 1, (), (1,), 2, NOT_COVERED),
        ("l1", "l2", "E", "F", "measured", "predicted"),
        True,
    ),
    "ObservationSet": (
        lambda: ObservationSet(GF11, 2, ((1, 0), (0, 1)), ("a", "b")),
        ("field", "message_len", "rows", "labels"),
        True,
    ),
    "SecureScheme": (
        lambda: scheme_create(s1_binary(), 1, 1),
        ("code", "ext", "gabidulin", "secret_len", "random_len", "l1", "l2"),
        True,
    ),
    "SecrecyCheck": (
        lambda: SecrecyCheck(EveModel(E=(1,)), 3, 3, True, True, 0),
        (
            "eve", "observed_rank", "randomness_entropy", "coverable",
            "randomness_determined", "mutual_information",
        ),
        True,
    ),
    "CodeAParams": (lambda: code_a_init(3, GF11, 2), ("field", "d", "omega"), True),
    "CodeAAttackResult": (
        lambda: code_a_attack(code_a_init(3, GF11, 2), (1, 2, 3), (4, 5, 6)),
        ("recovered_a", "recovered_b", "leaked_entropy", "observations", "parity_index"),
        True,
    ),
    "CodeBAttackResult": (
        _code_b_result,
        ("recovered", "leaked_entropy", "observations", "groups", "helpers"),
        True,
    ),
}

# the reprs the dataclasses printed, character for character
PINNED_REPRS = {
    "FieldSpec": (
        "FieldSpec(kind='tower', p=0, m=0, poly=0, base=FieldSpec(kind='binary', p=0, m=4, "
        "poly=19, base=None, degree=0, reduction=()), degree=6, reduction=(9, 0, 0, 1, 0, 0, 1))"
    ),
    "CodeParams": "CodeParams(n=6, k=3, d=3, t=2, alpha=2, beta=1, beta_prime=1, B=6, q=11)",
    "RepairContext": "RepairContext(group=(2, 5), helpers=(1, 3, 4))",
    "StabilityWitness": (
        "StabilityWitness(helper=1, failed=2, first_context=((1, 2), (3, 4, 5)), "
        "first_row=(1, 0), second_context=((1, 3), (2, 4, 5)), second_row=(0, 1))"
    ),
    "ShardMeta": (
        "ShardMeta(variant='stable', field_spec=FieldSpec(kind='prime', p=11, m=0, poly=0, "
        "base=None, degree=0, reduction=()), params=CodeParams(n=6, k=3, d=3, t=2, alpha=2, "
        "beta=1, beta_prime=1, B=6, q=11), node_id=3, generations=7)"
    ),
    "ReportDoc": (
        "ReportDoc(command='verify', config={'seed': 0}, results={}, failures=[], timings_ms={})"
    ),
    "EveModel": "EveModel(E=(1, 3), F=(2,))",
    "LemmaCheck": "LemmaCheck(name='group_volume', checked=0, passed=True, witness=None)",
    "LemmaResults": (
        "LemmaResults(checks={}, rank_lookups=0, rank_eliminations=0, rows_built=0, "
        "rows_unique=0)"
    ),
    "CapacityCell": (
        "CapacityCell(l1=0, l2=1, E=(), F=(1,), measured=2, predicted='not-covered')"
    ),
    "ObservationSet": (
        "ObservationSet(field=GF(11), message_len=2, rows=((1, 0), (0, 1)), labels=('a', 'b'))"
    ),
    "SecrecyCheck": (
        "SecrecyCheck(eve=EveModel(E=(1,), F=()), observed_rank=3, randomness_entropy=3, "
        "coverable=True, randomness_determined=True, mutual_information=0)"
    ),
    "CodeAParams": "CodeAParams(field=GF(11), d=3, omega=2)",
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_is_name_and_fields_in_order(name):
    make, fields, _ = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    expect = f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"
    assert repr(record) == expect
    if name in PINNED_REPRS:
        assert repr(record) == PINNED_REPRS[name]


@pytest.mark.parametrize("name", list(RECORDS))
def test_equal_by_value_within_its_type(name):
    make, fields, frozen = RECORDS[name]
    if name == "SecureScheme":
        # its code is compared by identity; schemes share it through _replace
        a = make()
        b = a._replace()
    else:
        a, b = make(), make()
    assert a is not b and a == b and not a != b
    if frozen:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", list(RECORDS))
def test_frozen_records_refuse_assignment(name):
    make, fields, frozen = RECORDS[name]
    record = make()
    value = getattr(record, fields[-1])
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, fields[-1], value)
        assert getattr(record, fields[-1]) is value
    else:
        setattr(record, fields[-1], "changed")
        assert getattr(record, fields[-1]) == "changed" and record != make()


def test_changed_field_breaks_equality():
    assert CodeParams.mscr(6, 3, 3, 2, q=13) != CodeParams.mscr(6, 3, 3, 2, q=11)
    meta = ShardMeta("stable", FieldSpec.prime(11), S1, 3, 7)
    assert meta._replace(node_id=4) != meta and meta._replace(node_id=4)._replace(node_id=3) == meta
    obs = ObservationSet(GF11, 2, ((1, 0),), ("a",))
    assert obs != ObservationSet(GF11, 2, ((1, 0),), ("b",))
    assert ReportDoc("verify", {}) != ReportDoc("decode", {})


@pytest.mark.parametrize(
    "values, message",
    [
        ((0, 3, 3, 2, 2, 1, 1, 6, 11), "all parameters must be positive"),
        ((4, 3, 3, 2, 2, 1, 1, 6, 11), "need n >= d + t"),
        ((6, 3, 2, 2, 2, 1, 1, 6, 11), "no such codes exist with d < k"),
        ((6, 3, 3, 2, 3, 1, 1, 6, 11), "storage per node must equal B/k"),
        ((6, 3, 3, 2, 1, 1, 1, 3, 11), "B must be divisible by k(d-k+t)"),
        ((6, 3, 3, 2, 2, 2, 1, 6, 11), "repair and exchange bandwidth"),
        ((6, 3, 3, 2, 2, 1, 2, 6, 11), "repair and exchange bandwidth"),
    ],
)
def test_code_params_checks(values, message):
    with pytest.raises(NonIntegralParams, match=re.escape(message)):
        CodeParams(*values)
    # _replace builds through the same checks
    fields = dict(zip(CodeParams._fields, values))
    with pytest.raises(NonIntegralParams, match=re.escape(message)):
        S1._replace(**fields)


def test_code_params_keywords_and_as_dict():
    p = CodeParams(n=6, k=3, d=3, t=2, alpha=2, beta=1, beta_prime=1, B=6, q=11)
    assert p == S1 and p._asdict() == {
        "n": 6, "k": 3, "d": 3, "t": 2, "alpha": 2, "beta": 1, "beta_prime": 1, "B": 6, "q": 11,
    }


def test_repair_context_sorts():
    ctx = RepairContext([5, 2], (4, 1, 3))
    assert (ctx.group, ctx.helpers) == ((2, 5), (1, 3, 4))
    assert ctx._replace(group=(6, 1)).group == (1, 6)


def test_eve_model_sorts_and_checks():
    eve = EveModel(E=[3, 1], F=(5, 2))
    assert (eve.E, eve.F, eve.l1, eve.l2) == ((1, 3), (2, 5), 2, 2)
    assert EveModel() == EveModel(E=(), F=()) and EveModel().E == ()
    with pytest.raises(InvalidEveModel, match="disjoint"):
        EveModel(E=(1, 2), F=(2,))
    with pytest.raises(InvalidEveModel, match="disjoint"):
        eve._replace(F=(3,))
    assert eve._replace(E=(6, 4)).E == (4, 6)


def test_observation_set_checks():
    with pytest.raises(DimensionMismatch, match="one label per row"):
        ObservationSet(GF11, 2, ((1, 0),), ())
    with pytest.raises(DimensionMismatch, match="row length"):
        ObservationSet(GF11, 2, ((1, 0, 0),), ("a",))
    obs = ObservationSet(GF11, 2, ((1, 0), (0, 1)), ("a", "b"))
    assert len(obs) == 2 and len(ObservationSet(GF11, 2)) == 0
    with pytest.raises(AttributeError):
        del obs.rows


def test_shard_meta_symbol_width_is_a_class_attribute():
    meta = ShardMeta("stable", FieldSpec.prime(11), S1, 3, 7)
    assert ShardMeta.symbol_width == meta.symbol_width == 1
    assert "symbol_width" not in ShardMeta._fields


def test_mutable_records_start_empty_and_apart():
    a, b = ReportDoc("verify", {}), ReportDoc("verify", {})
    a.fail("x")
    assert (a.failures, b.failures, a.passed, b.passed) == (["x"], [], False, True)
    r1, r2 = LemmaResults(), LemmaResults()
    r1.get("group_volume").fail("w")
    assert r2.checks == {} and not r1.all_passed and r2.all_passed
