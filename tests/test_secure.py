import dataclasses
import hashlib
import itertools
import random

import pytest
from helpers import expand_oracle, secrecy_oracle

from coopstore.errors import InvalidEveModel, LengthMismatch, NotCoveredRegime, FieldKindUnsupported
from coopstore.eve import EveModel, leakage_observations
from coopstore import cli, field, kernels, secure
from coopstore.field import ExtensionField
from coopstore.instances import s1, s1_binary
from coopstore.secure import (
    SecureScheme,
    decode_secret,
    encode_secure,
    precode,
    random_symbols,
    scheme_create,
    verify_secrecy,
    verify_secrecy_sweep,
)
from coopstore.stable import StableCode


@pytest.fixture(scope="module")
def scheme():
    return scheme_create(s1_binary(), 1, 1)


@pytest.fixture
def rng():
    return random.Random(0x5EC2E7)


class TestSchemeCreate:
    def test_sizes_from_capacity(self, scheme):
        assert scheme.secret_len == 1
        assert scheme.random_len == 5

    def test_no_adversary_stores_everything(self):
        s = scheme_create(s1_binary(), 0, 0)
        assert s.secret_len == 6 and s.random_len == 0

    def test_vacuous_scheme_rejected(self):
        with pytest.raises(NotCoveredRegime):
            scheme_create(s1_binary(), 0, 2)

    def test_prime_field_rejected(self):
        with pytest.raises(FieldKindUnsupported):
            scheme_create(s1(), 1, 1)

    def test_one_command_builds_one_code(self, monkeypatch):
        # secure-verify ranks over the symbol-field code alone; the tower
        # code is built only when encode_secure or decode_secret asks for it
        created = []
        real = StableCode.create.__func__

        def spy(cls, params, field):
            created.append(field)
            return real(cls, params, field)

        monkeypatch.setattr(StableCode, "create", classmethod(spy))
        assert cli.main(["secure-verify", "--l1", "1", "--l2", "1"]) == 0
        assert len(created) == 1 and created[0].kind == "binary"

    def test_two_commands_build_one_tower(self, monkeypatch):
        # field_create keeps the tower for the process and the Moore generator
        # is built once per tower, so a second secure-verify builds neither
        # (nor runs the irreducibility or independence checks again)
        field.field_create.cache_clear()
        secure._gabidulin.cache_clear()
        towers, generators = [], []
        real_init, real_moore = ExtensionField.__init__, secure.moore_matrix

        def init_spy(self, *args):
            towers.append(args)
            real_init(self, *args)

        def moore_spy(*args):
            generators.append(args)
            return real_moore(*args)

        monkeypatch.setattr(ExtensionField, "__init__", init_spy)
        monkeypatch.setattr(secure, "moore_matrix", moore_spy)
        assert cli.main(["secure-verify", "--l1", "1", "--l2", "1"]) == 0
        assert cli.main(["secure-verify", "--l1", "0", "--l2", "1"]) == 0
        assert len(towers) == 1 and len(generators) == 1
        assert scheme_create(s1_binary(), 2, 0).ext is field.field_create(
            field.FieldSpec.tower(field.FieldSpec.binary(4), 6)
        )

    def test_unpublished_tower_exits_2(self, capsys):
        # n=9, k=d=4, t=3 has B = 12, and no tower of degree 12 is published
        assert cli.main(["secure-verify", "--params", "n=9,k=4,d=4,t=3"]) == 2
        assert capsys.readouterr().err == "error: no published tower for q=16, degree=12\n"

    def test_generators_agree_across_layers(self, scheme):
        # the analysis layer (GF(16)) and data layer (tower) share the same
        # integer coefficient matrices, so expansions model the real encode
        assert scheme.code.G.data == scheme.code_ext.G.data
        assert scheme.code.Gp.data == scheme.code_ext.Gp.data


class TestMooreGenerator:
    def test_consecutive_row_windows_all_invertible(self, scheme):
        # the rank-distance property, exhaustively at B = 6: any window of
        # consecutive Frobenius powers against any column subset is a
        # sub-generator whose square selections are invertible.  (Rows with
        # gaps do NOT have this property; see the counterexample below.)
        gab = scheme.gabidulin
        b = gab.nrows
        for s in range(1, b + 1):
            for start in range(b - s + 1):
                rows = range(start, start + s)
                for cols in itertools.combinations(range(b), s):
                    assert gab.submatrix(rows, cols).rank() == s

    def test_gapped_rows_can_be_singular(self, scheme):
        # frozen counterexample: skipping Frobenius powers loses the
        # guarantee, so the window restriction above is necessary
        assert scheme.gabidulin.submatrix((0, 2), (0, 3)).rank() == 1

    def test_first_row_is_basis(self, scheme):
        ext = scheme.ext
        expect = tuple(
            ext.from_coords([1 if s == i else 0 for s in range(6)]) for i in range(6)
        )
        assert scheme.gabidulin.row(0) == expect


class TestPrecode:
    def test_zero_in_zero_out(self, scheme):
        assert set(precode(scheme, (0,), (0,) * 5)) == {0}

    def test_length_checks(self, scheme):
        with pytest.raises(LengthMismatch):
            precode(scheme, (1, 2), (0,) * 5)
        with pytest.raises(LengthMismatch):
            precode(scheme, (1,), (0,) * 4)

    def test_fresh_randomness_changes_cells_not_secret(self, scheme, rng):
        secret = random_symbols(scheme, rng, 1)
        r1 = random_symbols(scheme, rng, 5)
        r2 = random_symbols(scheme, rng, 5)
        assert r1 != r2
        cells1, cells2 = precode(scheme, secret, r1), precode(scheme, secret, r2)
        assert cells1 != cells2
        shards1, shards2 = encode_secure(scheme, secret, r1), encode_secure(scheme, secret, r2)
        s1_ = decode_secret(scheme, {j: shards1[j] for j in (1, 2, 3)})
        s2_ = decode_secret(scheme, {j: shards2[j] for j in (1, 2, 3)})
        assert s1_ == s2_ == secret

    def test_round_trip_every_k_subset(self, scheme, rng):
        secret = random_symbols(scheme, rng, 1)
        randomness = random_symbols(scheme, rng, 5)
        shards = encode_secure(scheme, secret, randomness)
        for ids in itertools.combinations(range(1, 7), 3):
            assert decode_secret(scheme, {i: shards[i] for i in ids}) == secret


class TestVerifySecrecy:
    def test_all_30_placements_pass(self, scheme):
        checks = verify_secrecy_sweep(scheme)
        assert len(checks) == 30
        for chk in checks:
            assert chk.passed and chk.mutual_information == 0
            assert chk.coverable and chk.randomness_determined
            assert chk.observed_rank == chk.randomness_entropy == 30

    def test_sweep_expands_each_distinct_row_once(self, scheme, monkeypatch):
        # the sweep's placements share one set of row spaces, so each
        # distinct cell row any placement observes is expanded once, although
        # the placements observe many more; and a fresh verify_secrecy per
        # placement gives the same check
        expanded = []
        real = secure._expand

        def spy(scheme, lam):
            expanded.append(lam)
            return real(scheme, lam)

        monkeypatch.setattr(secure, "_expand", spy)
        checks = verify_secrecy_sweep(scheme)
        assert len(checks) == 30
        views = [leakage_observations(scheme.code, chk.eve).unique_rows() for chk in checks]
        assert len(expanded) == len(set(expanded))
        assert set(expanded) == {row for view in views for row in view}
        assert len(expanded) < sum(len(view) for view in views)
        for chk in checks:
            assert verify_secrecy(scheme, chk.eve) == chk

    def test_sweep_eliminates_once_per_placement(self, monkeypatch):
        # one tower elimination per placement (30) and one per memoised F
        # basis (6): both secrecy ranks come from one echelon basis (ranking
        # W and W cut to the randomness positions apart takes twice as many).
        # The tower and its kept ladders outlive a sweep, but its bases do
        # not: a second sweep in the same process eliminates as many times.
        calls = []
        real = kernels._echelon_tower

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "_echelon_tower", spy)
        for _ in range(2):
            calls.clear()
            assert len(verify_secrecy_sweep(scheme_create(s1_binary(), 1, 1))) == 30
            assert len(calls) == 36

    def test_empty_eve_trivially_passes(self, scheme):
        chk = verify_secrecy(scheme, EveModel())
        assert chk.passed and chk.observed_rank == 0

    @pytest.mark.parametrize("eve", [EveModel(E=(1, 2), F=(3,)), EveModel(F=(7,))])
    def test_invalid_placement_rejected(self, scheme, eve):
        with pytest.raises(InvalidEveModel):
            verify_secrecy(scheme, eve)

    def test_negative_control_smaller_randomness(self, scheme):
        # one fewer random symbol: the observed rows can no longer be covered
        tampered = SecureScheme(
            code=scheme.code,
            ext=scheme.ext,
            gabidulin=scheme.gabidulin,
            secret_len=scheme.secret_len + 1,
            random_len=scheme.random_len - 1,
            l1=scheme.l1,
            l2=scheme.l2,
        )
        checks = verify_secrecy_sweep(tampered)
        assert all(not c.coverable for c in checks)
        assert all(c.mutual_information > 0 for c in checks)
        assert not any(c.passed for c in checks)


class TestPackedExpand:
    """_expand on the packed generator columns against the scale loop in helpers."""

    @pytest.mark.parametrize(
        "l1,l2,tampered",
        [(1, 0, False), (2, 0, False), (0, 1, False), (1, 1, False), (1, 1, True)],
    )
    def test_matches_scale_loop(self, l1, l2, tampered):
        scheme = scheme_create(s1_binary(), l1, l2)
        if tampered:
            # the TestPinnedOutputs negative control: one secret symbol more
            scheme = dataclasses.replace(
                scheme, secret_len=scheme.secret_len + 1, random_len=scheme.random_len - 1
            )
        b, q = scheme.B, scheme.code.field.order
        rng = random.Random(0xE4A9D + 100 * l1 + 10 * l2 + tampered)
        rows = [tuple(rng.randrange(q) for _ in range(b)) for _ in range(100)]
        # sparse rows, then every base constant at every position, then zero
        rows += [tuple(rng.randrange(q) if rng.random() < 0.3 else 0 for _ in range(b)) for _ in range(50)]
        rows += [tuple(c if j == i else 0 for j in range(b)) for i in range(b) for c in range(1, q)]
        rows.append((0,) * b)
        for lam in rows:
            assert secure._expand(scheme, lam) == expand_oracle(scheme, lam), lam

    def test_columns_follow_secret_len(self, scheme):
        # the packed columns put the randomness positions first, so a scheme
        # with another secret_len packs its own
        moved = dataclasses.replace(scheme, secret_len=0, random_len=scheme.B)
        assert moved.columns != scheme.columns
        unit = (1,) + (0,) * (scheme.B - 1)
        assert secure._expand(moved, unit) == scheme.gabidulin.col(0)


class TestAgainstStackedOracle:
    """The two extension-field ranks equal the stacked base-field computation."""

    FIELDS = ("observed_rank", "randomness_entropy", "coverable", "randomness_determined",
              "mutual_information")

    def assert_matches_oracle(self, scheme):
        checks = verify_secrecy_sweep(scheme)
        assert checks
        for chk in checks:
            got = {name: getattr(chk, name) for name in self.FIELDS}
            assert got == secrecy_oracle(scheme, chk.eve), chk.eve
        return checks

    @pytest.mark.parametrize("l1,l2,placements", [(1, 1, 30), (0, 1, 6), (1, 0, 6), (2, 0, 15)])
    def test_every_placement(self, l1, l2, placements):
        checks = self.assert_matches_oracle(scheme_create(s1_binary(), l1, l2))
        assert len(checks) == placements and all(c.passed for c in checks)

    def test_negative_control(self, scheme):
        tampered = dataclasses.replace(
            scheme, secret_len=scheme.secret_len + 1, random_len=scheme.random_len - 1
        )
        checks = self.assert_matches_oracle(tampered)
        assert not any(c.passed or c.coverable for c in checks)

    def test_surplus_randomness_is_not_determined(self):
        # one more random symbol than needed: still no leakage, but the
        # observations no longer pin the randomness down
        base = scheme_create(s1_binary(), 1, 1)
        padded = dataclasses.replace(base, secret_len=0, random_len=base.B)
        checks = self.assert_matches_oracle(padded)
        assert all(c.passed and c.coverable and not c.randomness_determined for c in checks)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr() of the values below, computed before the tower arithmetic
# was rewritten as tables (digit-by-digit add, schoolbook mul, power inverse).
PINNED_SWEEPS = {
    # (l1, l2): (placements, digest of [(E, F, observed_rank, mutual_information)])
    (1, 1): (30, "4383dc1740c5460d7c418601ba0072663bcbe18616c149b78fe3967c42a53dc0"),
    (0, 1): (6, "2aa63f5f1d1b4c838f6fa96f088826ff1ed821130ef142d0e6d2c0c8a6c4bbb8"),
    (2, 0): (15, "33db652c04af1cb42c673116517474acd257b24c69cec3bad7931c3092dd8d14"),
}
# the (1, 1) scheme with one secret symbol more than its capacity
PINNED_TAMPERED = "a6e6c8757ac7298caaf18dde59b2bd09c6090f26734b62006535091d8fb938bf"
# [(node, tuple(payload))] of encode_secure at (1, 1), secret and randomness drawn
# from random.Random(0x5EC2E7) in that order
PINNED_SHARDS = "fc3eff880a06fff3fe23756b677ae57509afbc8deb2e71332960f45c11cea86a"


class TestPinnedOutputs:
    @staticmethod
    def summary(checks):
        return [(c.eve.E, c.eve.F, c.observed_rank, c.mutual_information) for c in checks]

    @pytest.mark.parametrize("l1,l2", sorted(PINNED_SWEEPS))
    def test_sweep(self, l1, l2):
        rows = self.summary(verify_secrecy_sweep(scheme_create(s1_binary(), l1, l2)))
        assert (len(rows), _digest(rows)) == PINNED_SWEEPS[(l1, l2)]

    def test_tampered_sweep(self, scheme):
        tampered = dataclasses.replace(
            scheme, secret_len=scheme.secret_len + 1, random_len=scheme.random_len - 1
        )
        assert _digest(self.summary(verify_secrecy_sweep(tampered))) == PINNED_TAMPERED

    def test_encode_secure_shards(self, scheme, rng):
        secret = random_symbols(scheme, rng, scheme.secret_len)
        randomness = random_symbols(scheme, rng, scheme.random_len)
        shards = encode_secure(scheme, secret, randomness)
        assert _digest([(node, tuple(payload)) for node, payload in shards.items()]) == PINNED_SHARDS
        for ids in itertools.combinations(shards, 3):
            assert decode_secret(scheme, {i: shards[i] for i in ids}) == secret
