import errno
import hashlib
import json
import os
import random
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from coopstore import cli, errors, eve, legacy, shardfile
from coopstore.cli import main
from coopstore.eve import lemma_suite, specific_verifications
from coopstore.field import DEFAULT_POLY, FieldSpec, prime_field
from coopstore.instances import s1
from coopstore.report import ReportDoc, capacity_rows, text_table
from coopstore.stable import CodeParams, StableCode
from helpers import FromScratchAnalysis, text_table_oracle


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sample_file(tmp_path):
    data = bytes(random.Random(99).randrange(256) for _ in range(500))
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return path


def encode_dir(tmp_path, sample_file, extra=()):
    out = tmp_path / "shards"
    assert run(["encode", "--input", sample_file, "--out-dir", out, *extra]) == 0
    return out


class TestEncodeDecode:
    def test_round_trip(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        assert (shards / "manifest.json").exists()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_round_trip_from_any_k_nodes(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", "3,5,6"]) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_binary_field_round_trip(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file, extra=["--field", "m=4"])
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_deterministic_shards(self, tmp_path, sample_file):
        s1_dir = encode_dir(tmp_path / "a", sample_file)
        s2_dir = encode_dir(tmp_path / "b", sample_file)
        for f1 in sorted(s1_dir.glob("*.shard")):
            f2 = s2_dir / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_empty_input_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        assert run(["encode", "--input", empty, "--out-dir", tmp_path / "s"]) == 2

    def test_decode_of_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "shards"
        empty.mkdir()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", empty, "--output", out]) == 2
        assert "no shard files found" in capsys.readouterr().err
        assert not out.exists()


class TestRepair:
    def test_regenerated_files_byte_identical(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        before = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in shards.glob("*.shard")
        }
        (shards / "node_002.shard").unlink()
        (shards / "node_005.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 0
        after = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in shards.glob("*.shard")
        }
        assert before == after

    def test_explicit_helpers(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        original = (shards / "node_001.shard").read_bytes()
        (shards / "node_001.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "1,6", "--helpers", "2,3,4"]) == 0
        assert (shards / "node_001.shard").read_bytes() == original

    def test_too_few_helper_shards_are_named(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_003.shard").unlink()
        (shards / "node_004.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        assert "need 3 helper shards to repair group 2,5, got 2: 1,6" in capsys.readouterr().err

    def test_transfer_accounting_mismatch_writes_nothing(
        self, tmp_path, sample_file, capsys, monkeypatch
    ):
        # a repair whose phase-1 count is one short of t*d*beta per
        # generation fails (exit 1) before it writes any shard
        real = cli.RepairPlan.run

        def one_short(plan, payloads):
            regenerated, (phase1, phase2) = real(plan, payloads)
            return regenerated, (phase1 - 1, phase2)

        monkeypatch.setattr(cli.RepairPlan, "run", one_short)
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_002.shard").unlink()
        (shards / "node_005.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        assert "transfer accounting" in capsys.readouterr().err
        assert not (shards / "node_002.shard").exists()
        assert not (shards / "node_005.shard").exists()

    def test_overlapping_group_and_helpers(self, tmp_path, sample_file, capsys):
        # a bad node list is a config error (2), like every other one
        shards = encode_dir(tmp_path, sample_file)
        assert run(["repair", "--shard-dir", shards, "--group", "1,2", "--helpers", "2,3,4"]) == 2
        assert "node 2 is also in --group" in capsys.readouterr().err


class TestAttack:
    def test_code_a_report(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["attack", "--variant", "code-a", "--seed", "5", "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["pass"] is True
        assert doc["results"]["recovered"] == "EXACT"
        assert doc["results"]["leaked_symbols"] == 6
        assert any(lbl.startswith("granted") for lbl in doc["results"]["leaked_rows"])

    def test_code_b_report(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["attack", "--variant", "code-b", "--seed", "5", "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["recovered"] == "EXACT"
        assert doc["results"]["helpers"] == [4, 5, 6]

    @pytest.mark.parametrize(
        "variant, count, first, expected",
        [
            ("code-a", 15, "S_3^1|C=1,2",
             "ab2d84d2481a8bbc6670145575fe6a35a643886895af5ef17aa088d8ec5714a1"),
            ("code-b", 6, "S_4^2|C=1,2;D=4,5,6",
             "d22bf0ace741d29660849ebd123fb325cfa5a560e06574405b44c6f56bf852b8"),
        ],
    )
    def test_leaked_rows_pinned(self, tmp_path, variant, count, first, expected):
        # every label the attack reports, in order, at the defaults
        report = tmp_path / "r.json"
        assert run(["attack", "--variant", variant, "--report", report]) == 0
        labels = json.loads(report.read_text())["results"]["leaked_rows"]
        assert (len(labels), labels[0]) == (count, first)
        assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == expected

    def test_code_b_partial_leak_fails(self, monkeypatch):
        # recovery alone does not pass: the leak must also be total
        real = legacy.code_b_attack

        def partial(code, data):
            result = real(code, data)
            return result._replace(leaked_entropy=code.params.B - 1)

        monkeypatch.setattr(legacy, "code_b_attack", partial)
        assert run(["attack", "--variant", "code-b"]) == 1

    def test_inadmissible_omega_is_config_error(self):
        assert run(["attack", "--variant", "code-a", "--field", "p=13", "--omega", "2"]) == 2

    def test_seed_determinism_via_env(self, tmp_path, monkeypatch):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        monkeypatch.setenv("COOPSTORE_SEED", "31337")
        assert run(["attack", "--variant", "code-b", "--report", r1]) == 0
        assert run(["attack", "--variant", "code-b", "--report", r2]) == 0
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert d1["results"] == d2["results"]
        assert d1["config"]["seed"] == 31337


class TestSweepVerify:
    def test_capacity_sweep_s1(self, tmp_path):
        report = tmp_path / "r.json"
        csv_path = tmp_path / "table.csv"
        assert run(["capacity-sweep", "--report", report, "--csv", csv_path]) == 0
        doc = json.loads(report.read_text())
        assert doc["pass"] is True
        assert doc["results"]["placements"] == 73
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "l1,l2,E,F,measured,predicted,match"
        assert len(lines) == 74

    def test_capacity_sweep_code_b_measured_only(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["capacity-sweep", "--variant", "code-b", "--report", report]) == 0
        doc = json.loads(report.read_text())
        cells = doc["results"]["cells"]
        assert all(c["predicted"] == "not-covered" for c in cells)
        vulnerable = [c for c in cells if c["l1"] == 0 and c["l2"] == 1 and c["F"] in "2345"]
        assert vulnerable and all(c["measured"] == 0 for c in vulnerable)

    def test_sweep_pairs_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"pairs": [[0, 1]]}}))
        report = tmp_path / "r.json"
        assert run(["capacity-sweep", "--config", cfg, "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["placements"] == 6

    def test_single_eve_placement_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eve": {"E": [4], "F": [1]}}))
        report = tmp_path / "r.json"
        assert run(["capacity-sweep", "--config", cfg, "--report", report]) == 0
        doc = json.loads(report.read_text())
        (cell,) = doc["results"]["cells"]
        assert cell["measured"] == cell["predicted"] == 1
        assert (cell["E"], cell["F"]) == ("4", "1")

    @pytest.mark.parametrize(
        "nodes, message",
        [({"F": [3, 3]}, "F names node 3 twice"), ({"E": [1, 1], "F": [3]}, "E names node 1 twice")],
        ids=["F-3-3", "E-1-1"],
    )
    def test_repeated_eve_node_is_a_config_error(self, tmp_path, capsys, nodes, message):
        # a repeated node is one eavesdropped node, not two: no cell, no
        # false mismatch against the closed form, no l1 + l2 bound
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eve": nodes}))
        assert run(["capacity-sweep", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "pairs", [[[-1, 1]], [[1]], [[0, 1, 2]], [["0", 1]], [[True, 0]], 5],
        ids=["negative", "one-value", "three-values", "string", "bool", "not-a-list"],
    )
    def test_malformed_sweep_pairs_are_config_errors(self, tmp_path, capsys, pairs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"pairs": pairs}}))
        assert run(["capacity-sweep", "--config", cfg]) == 2
        assert "sweep.pairs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, section",
        [
            ({"sweep": ["pairs"]}, "sweep"),
            ({"sweep": [1]}, "sweep"),
            ({"eve": [1]}, "eve"),
            ({"eve": {"E": 1}}, "eve"),
            ({"eve": {"F": ["a", 1]}}, "eve"),
            ([1], "config"),
            ({"params": [1]}, "params"),
            ({"field": 5}, "field"),
            ({"params": {"n": "8"}}, "params"),
            ({"field": {"p": "11"}}, "field"),
            ({"params": {"n": 8.0, "k": 4, "d": 4, "t": 2}}, "params"),
            ({"field": {"m": 4, "poly": "x"}}, "field"),
            ({"params": {"n": 8, "K": 4}}, "params"),
            ({"params": {"n": True}}, "params"),
            ({"field": {"p": 11, "m": 4}}, "field"),
        ],
        ids=[
            "sweep-names-pairs", "sweep-list", "eve-list", "eve-E-int", "eve-F-string", "config-list",
            "params-list", "field-int", "params-string", "field-string", "params-float",
            "field-poly-string", "params-unknown-key", "params-bool", "field-p-and-m",
        ],
    )
    def test_malformed_config_objects_are_config_errors(self, tmp_path, capsys, config, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["capacity-sweep", "--config", cfg]) == 2
        assert f"{section} is not" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["attack", "--variant", "code-a"], {"seed": [1]}, "seed"),
            (["verify"], {"seed": [1]}, "seed"),
            (["attack", "--variant", "code-a"], {"omega": "x"}, "omega"),
            (["attack", "--variant", "code-a"], {"seed": 1.5}, "seed"),
            (["attack", "--variant", "code-a"], {"omega": True}, "omega"),
        ],
        ids=["attack-seed-list", "verify-seed-list", "omega-string", "seed-float", "omega-bool"],
    )
    def test_bad_seed_and_omega_are_config_errors(self, tmp_path, capsys, argv, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([*argv, "--config", cfg]) == 2
        assert f"{key} is not an int" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["stable", "code-b"])
    @pytest.mark.parametrize("pair", [[5, 5], [6, 1]])
    def test_inadmissible_sweep_pairs_are_config_errors(self, tmp_path, capsys, variant, pair):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"pairs": [pair]}}))
        assert run(["capacity-sweep", "--variant", variant, "--config", cfg]) == 2
        assert f"l1 + l2 <= k - 1 = 2, got ({pair[0]}, {pair[1]})" in capsys.readouterr().err

    def test_empty_sweep_range_is_vacuous_success(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"pairs": []}}))
        report = tmp_path / "r.json"
        assert run(["capacity-sweep", "--config", cfg, "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["placements"] == 0 and doc["pass"] is True

    def test_verify_stable_passes(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["verify", "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["pass"] is True
        assert all(c["passed"] for c in doc["results"]["lemmas"].values())
        assert doc["results"]["stability"] == "pass"
        assert doc["results"]["bandwidth"] == {"msr_total": "12", "mscr_total": "8"}

    def test_verify_code_b_fails_with_witness(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert run(["verify", "--variant", "code-b", "--report", report]) == 1
        doc = json.loads(report.read_text())
        assert doc["pass"] is False
        assert "differs between" in doc["results"]["stability"]
        out = capsys.readouterr().out
        assert "stability witness" in out

    def test_secure_verify(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["secure-verify", "--l1", "1", "--l2", "1", "--report", report]) == 0
        doc = json.loads(report.read_text())
        assert doc["results"]["secret_symbols"] == 1
        # the tower: base order, degree and reduction, low degree first
        assert doc["config"]["tower"] == {
            "base_order": 16, "degree": 6, "reduction": [9, 0, 0, 1, 0, 0, 1]
        }
        assert len(doc["results"]["placements"]) == 30
        assert all(p["mutual_information"] == 0 for p in doc["results"]["placements"])


class TestTextTable:
    """report.text_table against the column-by-column reference it replaced."""

    HEADERS = ["l1", "l2", "E", "F", "measured", "predicted", "match"]

    @pytest.mark.parametrize(
        "params", [None, CodeParams.mscr(n=8, k=4, d=4, t=2, q=11)], ids=["s1", "n8"]
    )
    def test_capacity_tables(self, params):
        code = s1() if params is None else StableCode.create(params, prime_field(11))
        cells = eve.capacity_table(code)
        rows = capacity_rows(cells)
        assert [(r["E"], r["F"]) for r in rows] == [
            (",".join(map(str, c.E)), ",".join(map(str, c.F))) for c in cells
        ]
        table = [
            [r["l1"], r["l2"], r["E"] or "-", r["F"] or "-", r["measured"], r["predicted"], r["match"]]
            for r in rows
        ]
        assert text_table(self.HEADERS, table) == text_table_oracle(self.HEADERS, table)

    def test_random_rows(self):
        rng = random.Random(7)
        values = ["", "-", "x", "1,2,3", "not-covered", True, False, 0, 12, -3]
        for _ in range(200):
            width = rng.randrange(0, 6)
            headers = ["".join(rng.choices("ab ", k=rng.randrange(0, 4))) for _ in range(width)]
            rows = [rng.choices(values, k=width) for _ in range(rng.randrange(0, 5))]
            assert text_table(headers, rows) == text_table_oracle(headers, rows)


def test_bad_params_are_config_errors(tmp_path, sample_file, capsys):
    assert run(["capacity-sweep", "--params", "n=4,k=3,d=3,t=2"]) == 2
    assert run(["verify", "--field", "p=10"]) == 2
    assert run(["verify", "--params", "nonsense"]) == 2
    # a malformed integer or an unusable setting is a config error (exit 2,
    # one line), neither a crash nor a failed verification (exit 1)
    shards = encode_dir(tmp_path, sample_file)
    capsys.readouterr()
    out = tmp_path / "out.bin"
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"eve": {"E": [1], "F": [1]}}))
    for argv in (
        ["decode", "--shard-dir", shards, "--output", out, "--nodes", "2,x"],
        ["repair", "--shard-dir", shards, "--group", "2,five"],
        ["repair", "--shard-dir", shards, "--group", "2,5", "--helpers", "1,x,3"],
        ["verify", "--params", "n=abc"],
        ["verify", "--params", "n=8,K=4"],
        ["verify", "--field", "p=11,m=4"],
        ["verify", "--field", "p=abc"],
        ["verify", "--field", "m=30"],
        ["secure-verify", "--field", "p=11"],
        ["secure-verify", "--params", "n=8,k=4,d=4,t=2"],
        ["attack", "--variant", "code-a", "--params", "d=1"],
        ["attack", "--variant", "code-a", "--params", "k=9"],
        ["secure-verify", "--l1", "-1"],
        ["capacity-sweep", "--config", overlap],
        ["secure-verify", "--l1", "0", "--l2", "2"],
    ):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_config_errors_are_the_unusable_settings():
    config_errors = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ConfigError) and obj is not errors.ConfigError
    }
    assert config_errors == {
        "InvalidConfig",
        "InadmissibleOmega",
        "NotGenerator",
        "FieldTooSmall",
        "FieldKindUnsupported",
        "NonIntegralParams",
        "NonPrimeModulus",
        "ReduciblePolynomial",
        "ParameterTooSmall",
        "InvalidL",
        "InvalidEveModel",
        "NotCoveredRegime",
    }


def test_verify_seed_reaches_the_lemma_suite(monkeypatch):
    seeds = []
    real = eve.lemma_suite

    def spy(code, seed=0, ctx=None):
        seeds.append(seed)
        return real(code, seed=seed, ctx=ctx)

    monkeypatch.setattr(eve, "lemma_suite", spy)
    assert run(["verify", "--seed", "7"]) == 0
    assert seeds == [7]


DATA_PATH_ONLY = """
import sys
from pathlib import Path
from coopstore import cli

work = Path(sys.argv[1])
(work / "input.bin").write_bytes(bytes(range(256)) * 4)
shards = str(work / "shards")
for argv in (
    ["encode", "--input", str(work / "input.bin"), "--out-dir", shards],
    ["decode", "--shard-dir", shards, "--output", str(work / "out.bin")],
    ["repair", "--shard-dir", shards, "--group", "2,5"],
):
    assert cli.main(argv) == 0, argv
print("\\n".join(sorted(sys.modules)))
"""

ONE_COMMAND = """
import sys
from coopstore import cli

assert cli.main(sys.argv[1:]) == 0, sys.argv
print("\\n".join(sorted(sys.modules)))
"""

# no command loads these: building dataclasses took about half of a
# re-import of coopstore.cli, and dataclasses imports inspect
RECORD_MODULES = {"dataclasses", "inspect"}


def fresh_modules(script, *args):
    """Every module a fresh interpreter has loaded after running script.

    -S keeps site-packages' .pth files from importing modules of their own.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines())


def test_data_path_commands_load_no_analysis_module(tmp_path):
    # a fresh interpreter, since this one has loaded every module already
    loaded = fresh_modules(DATA_PATH_ONLY, tmp_path)
    assert "coopstore.stable" in loaded
    analysis = {"coopstore.eve", "coopstore.legacy", "coopstore.secure", "coopstore.entropy"}
    assert loaded.isdisjoint(analysis), sorted(loaded & analysis)
    assert loaded.isdisjoint(RECORD_MODULES), sorted(loaded & RECORD_MODULES)


@pytest.mark.parametrize(
    "argv", [["verify"], ["secure-verify", "--l1", "1", "--l2", "1"]], ids=["verify", "secure"]
)
def test_analysis_commands_load_no_dataclasses(argv):
    loaded = fresh_modules(ONE_COMMAND, *argv)
    assert {"coopstore.eve", "coopstore.entropy"} <= loaded
    assert loaded.isdisjoint(RECORD_MODULES), sorted(loaded & RECORD_MODULES)


class TestEveryCommandReport:
    """main finishes every command's report the same way."""

    LAYERS = {"striping", "shard_read", "algebra", "shard_write"}

    @staticmethod
    def every_command(tmp_path, sample_file):
        shards = tmp_path / "shards"
        return [
            ["encode", "--input", sample_file, "--out-dir", shards],
            ["decode", "--shard-dir", shards, "--output", tmp_path / "out.bin"],
            ["repair", "--shard-dir", shards, "--group", "2,5", "--helpers", "1,3,4"],
            ["attack", "--variant", "code-b"],
            ["capacity-sweep"],
            ["verify"],
            ["verify", "--variant", "code-b"],
            ["secure-verify", "--l1", "0", "--l2", "1"],
        ]

    def test_report_command_timings_and_exit_status(self, tmp_path, sample_file):
        runs = self.every_command(tmp_path, sample_file)
        statuses = []
        for i, argv in enumerate(runs):
            report = tmp_path / f"r{i}.json"
            rc = run(argv + ["--report", report])
            doc = json.loads(report.read_text())
            command = argv[0]
            assert doc["command"] == command, argv
            assert set(doc["timings_ms"]) == self.LAYERS | {command}, argv
            assert doc["timings_ms"][command] > 0, argv
            assert rc == (0 if doc["pass"] else 1), argv
            statuses.append(rc)
        assert {argv[0] for argv in runs} == {
            "encode", "decode", "repair", "attack", "capacity-sweep", "verify", "secure-verify"
        }
        assert statuses == [0, 0, 0, 0, 0, 0, 1, 0]

    def test_report_is_one_line_with_sorted_keys(self, tmp_path, sample_file, monkeypatch):
        written = []
        real = ReportDoc.write_json

        def spy(self, path):
            written.append(self.to_dict())
            real(self, path)

        monkeypatch.setattr(ReportDoc, "write_json", spy)

        def sorted_object(pairs):
            keys = [key for key, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        for i, argv in enumerate(self.every_command(tmp_path, sample_file)):
            report = tmp_path / f"r{i}.json"
            run(argv + ["--report", report])
            text = report.read_text()
            assert text.endswith("\n") and text.count("\n") == 1, argv
            assert json.loads(text, object_pairs_hook=sorted_object) == written[-1], argv
        assert len(written) == 8

    def test_command_total_includes_argument_parsing(self, tmp_path, monkeypatch):
        real = cli.build_parser

        def slow_parser():
            time.sleep(0.02)
            return real()

        monkeypatch.setattr(cli, "build_parser", slow_parser)
        report = tmp_path / "r.json"
        assert run(["attack", "--variant", "code-a", "--report", report]) == 0
        assert json.loads(report.read_text())["timings_ms"]["attack"] >= 20

    def test_verify_reports_rank_memo_counters(self, tmp_path):
        # the totals of the command's one analysis context, which the lemma
        # suite and, for the stable code, every placement verification
        # rank in; code-b has only the lemma suite
        counted = {}
        for variant in ("stable", "code-b"):
            report = tmp_path / f"{variant}.json"
            run(["verify", "--variant", variant, "--report", report])
            counted[variant] = json.loads(report.read_text())["results"]["lemma_ranks"]
        assert counted == {
            "stable": {"lookups": 1372, "eliminations": 603, "rows_built": 196, "rows_unique": 32},
            "code-b": {"lookups": 1078, "eliminations": 294, "rows_built": 186, "rows_unique": 12},
        }
        code = s1()
        ctx = eve._AnalysisContext(code)
        lemma_suite(code, ctx=ctx)
        for l1, l2 in ((0, 1), (1, 1), (0, 2)):
            res = specific_verifications(code, l1, l2, ctx=ctx)
        assert counted["stable"] == res.counters()
        # a context per call would eliminate the bases they share again
        calls = [lemma_suite(code)] + [
            specific_verifications(code, l1, l2) for l1, l2 in ((0, 1), (1, 1), (0, 2))
        ]
        assert sum(r.rank_eliminations for r in calls) > counted["stable"]["eliminations"]

    def test_verify_ranks_in_one_context(self, tmp_path, monkeypatch):
        # made through eve._AnalysisContext when the command runs, so the
        # memo-free reference swaps in and must leave the report unchanged
        # but for its counters
        def report(name):
            path = tmp_path / f"{name}.json"
            assert run(["verify", "--params", "n=8,k=4,d=4,t=2", "--report", path]) == 0
            doc = json.loads(path.read_text())
            del doc["timings_ms"], doc["results"]["lemma_ranks"]
            return doc

        made = []

        class Counted(FromScratchAnalysis):
            def __init__(self, code):
                made.append(code)
                super().__init__(code)

        memoised = report("memoised")
        monkeypatch.setattr(eve, "_AnalysisContext", Counted)
        assert report("from-scratch") == memoised
        assert len(made) == 1


class TestCachedParser:
    """main reuses one parser; each parse must equal one by a freshly built parser."""

    # each subcommand with its options given, then left out in the next call
    ARGV = [
        ["encode", "--input", "a.bin", "--out-dir", "s", "--params", "n=8,k=3,d=3,t=2",
         "--field", "m=8", "--seed", "3", "--variant", "stable", "--report", "r.json"],
        ["encode", "--input", "a.bin", "--out-dir", "s"],
        ["decode", "--shard-dir", "s", "--output", "o.bin", "--nodes", "2,4,6", "--report", "r.json"],
        ["decode", "--shard-dir", "s", "--output", "o.bin"],
        ["repair", "--shard-dir", "s", "--group", "2,5", "--helpers", "1,3,4", "--report", "r.json"],
        ["repair", "--shard-dir", "s", "--group", "2,5"],
        ["attack", "--variant", "code-a", "--omega", "2", "--seed", "5", "--config", "c.json"],
        ["attack", "--variant", "code-b"],
        ["capacity-sweep", "--csv", "c.csv", "--variant", "code-b", "--seed", "4"],
        ["capacity-sweep"],
        ["verify", "--variant", "code-b", "--params", "n=8,k=4,d=4,t=2", "--report", "r.json"],
        ["verify"],
        ["secure-verify", "--l1", "0", "--l2", "2", "--field", "m=4", "--seed", "9"],
        ["secure-verify"],
        ["decode", "--output", "o.bin"],
        ["no-such-command"],
        ["repair", "--shard-dir", "s", "--group", "2,5"],
    ]

    @staticmethod
    def parsed(parser, argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return ("exit", exc.code)

    def test_reused_parser_parses_as_a_fresh_one(self, capsys):
        cached = cli.build_parser()
        for argv in self.ARGV:
            assert self.parsed(cached, argv) == self.parsed(cli.build_parser.__wrapped__(), argv)
        assert cli.build_parser() is cached
        plain = self.parsed(cached, ["secure-verify"])
        assert (plain["l1"], plain["l2"]) == (1, 1)
        assert self.parsed(cached, ["decode"]) == ("exit", 2)

    def test_default_helpers_after_explicit_ones(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        reports = [tmp_path / "explicit.json", tmp_path / "default.json"]
        base = ["repair", "--shard-dir", shards, "--group", "2,5"]
        assert run(base + ["--helpers", "3,4,6", "--report", reports[0]]) == 0
        assert run(base + ["--report", reports[1]]) == 0
        helpers = [json.loads(path.read_text())["results"]["helpers"] for path in reports]
        assert helpers == [[3, 4, 6], [1, 3, 4]]


def test_bad_seed_variable_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setenv("COOPSTORE_SEED", "abc")
    assert run(["capacity-sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "COOPSTORE_SEED" in err and err.count("\n") == 1, err


class TestShardIdentity:
    """A shard under the wrong file name or from another encoding is named, never decoded."""

    def decode_fails_naming(self, shards, tmp_path, capsys, name, nodes=None, reason=""):
        out = tmp_path / "out.bin"
        argv = ["decode", "--shard-dir", shards, "--output", out]
        if nodes:
            argv += ["--nodes", nodes]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert name in err and reason in err, err
        assert not out.exists()

    def test_copied_shard(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_005.shard").write_bytes((shards / "node_004.shard").read_bytes())
        self.decode_fails_naming(shards, tmp_path, capsys, "node_005.shard", nodes="1,2,5")

    def test_renamed_shard(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_005.shard").unlink()
        (shards / "node_004.shard").rename(shards / "node_005.shard")
        self.decode_fails_naming(shards, tmp_path, capsys, "node_005.shard")

    def with_foreign_node_3(self, tmp_path, sample_file):
        """An encoding whose node_003.shard comes from a shorter input."""
        shards = encode_dir(tmp_path, sample_file)
        other_input = tmp_path / "other.bin"
        other_input.write_bytes(bytes(range(100)))
        other = tmp_path / "other"
        assert run(["encode", "--input", other_input, "--out-dir", other]) == 0
        (shards / "node_003.shard").write_bytes((other / "node_003.shard").read_bytes())
        return shards

    def test_foreign_shard_with_other_generation_count(self, tmp_path, sample_file, capsys):
        # the manifest's sha256 check fires first
        shards = self.with_foreign_node_3(tmp_path, sample_file)
        self.decode_fails_naming(shards, tmp_path, capsys, "node_003.shard", reason="sha256")

    def test_foreign_shard_without_manifest(self, tmp_path, sample_file, capsys):
        # the header comparison against the first shard read names it
        shards = self.with_foreign_node_3(tmp_path, sample_file)
        (shards / "manifest.json").unlink()
        reason = "variant, field, params or generation count differ"
        self.decode_fails_naming(shards, tmp_path, capsys, "node_003.shard", reason=reason)

    def test_repair_refuses_copied_helper(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_002.shard").unlink()
        (shards / "node_003.shard").write_bytes((shards / "node_004.shard").read_bytes())
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        assert "node_003.shard" in capsys.readouterr().err
        assert not (shards / "node_002.shard").exists()


class TestAtomicWrites:
    def test_interrupted_repair_write_keeps_old_shard(self, tmp_path, sample_file, monkeypatch):
        from coopstore import shardfile

        shards = encode_dir(tmp_path, sample_file)
        before = {p.name: p.read_bytes() for p in shards.iterdir()}

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.fh.write(blob[: len(blob) // 2])
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(
            shardfile, "open", lambda path, mode: HalfWriter(real_open(path, mode)), raising=False
        )
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        after = {p.name: p.read_bytes() for p in shards.iterdir()}
        assert after == before  # same files, same bytes, no temporary left behind


    @staticmethod
    def refuse_rename(src, dst):
        raise OSError("rename failed")

    def test_interrupted_decode_keeps_old_output(self, tmp_path, sample_file, monkeypatch):
        shards = encode_dir(tmp_path, sample_file)
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous output")
        monkeypatch.setattr(shardfile.os, "replace", self.refuse_rename)
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 2
        assert out.read_bytes() == b"previous output"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["decode", "--shard-dir", "shards", "--output", "missing/x.bin"], errno.ENOENT),
            (
                ["decode", "--shard-dir", "shards", "--output", "out.bin", "--report", "missing/x.bin"],
                errno.ENOENT,
            ),
            (
                ["encode", "--input", "input.bin", "--out-dir", "more", "--report", "missing/x.bin"],
                errno.ENOENT,
            ),
            (["capacity-sweep", "--csv", "missing/x.bin"], errno.ENOENT),
            # a parent that is a file, and a report path that is a directory
            (
                ["decode", "--shard-dir", "shards", "--output", "out.bin"]
                + ["--report", "shards/manifest.json/x.bin"],
                errno.ENOTDIR,
            ),
            (
                ["decode", "--shard-dir", "shards", "--output", "out.bin", "--report", "shards"],
                errno.EISDIR,
            ),
        ],
        ids=["output", "report", "encode-report", "csv", "report-under-a-file", "report-is-a-directory"],
    )
    def test_missing_directory_names_the_requested_file(
        self, tmp_path, sample_file, capsys, monkeypatch, argv, code
    ):
        monkeypatch.chdir(tmp_path)
        encode_dir(tmp_path, sample_file)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"io error: [Errno {code}] {os.strerror(code)}: '{argv[-1]}'\n", err
        after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert after == before  # no output, shard directory or temporary file

    @pytest.mark.parametrize("extra", [[], ["--csv", "table.csv"]])
    def test_interrupted_report_write_keeps_old_files(self, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        for name in ("r.json", "table.csv"):
            (tmp_path / name).write_text("previous")
        monkeypatch.setattr(shardfile.os, "replace", self.refuse_rename)
        assert run(["capacity-sweep", "--report", "r.json", *extra]) == 2
        assert [(tmp_path / n).read_text() for n in ("r.json", "table.csv")] == ["previous"] * 2
        assert not list(tmp_path.glob("*.tmp"))


class TestEncodeReport:
    def test_report_written(self, tmp_path, sample_file):
        report = tmp_path / "r.json"
        shards = encode_dir(tmp_path, sample_file, extra=["--report", report])
        doc = json.loads(report.read_text())
        assert doc["command"] == "encode"
        assert doc["pass"] is True
        assert doc["config"]["params"]["n"] == 6
        assert doc["results"]["input_bytes"] == 500
        assert doc["results"]["shards"] == [1, 2, 3, 4, 5, 6]
        manifest = json.loads((shards / "manifest.json").read_text())
        assert doc["config"] == manifest["config"]
        assert doc["results"]["generations"] > 0
        assert "encode" in doc["timings_ms"]


def _flip_payload_byte(path, q=11):
    """Change the last payload symbol to another value inside the field."""
    blob = bytearray(path.read_bytes())
    blob[-1] = (blob[-1] + 1) % q
    path.write_bytes(bytes(blob))


class TestManifestDigests:
    def test_manifest_holds_shard_digests(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        manifest = json.loads((shards / "manifest.json").read_text())
        assert manifest["version"] == 2
        for j in range(1, 7):
            blob = (shards / f"node_{j:03d}.shard").read_bytes()
            assert manifest["sha256"][str(j)] == hashlib.sha256(blob).hexdigest()

    def decode_fails_naming(self, shards, tmp_path, capsys, name, nodes):
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", nodes]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, q", [("p=11", 11), ("m=8", 256)], ids=["p=11", "m=8"])
    def test_payload_byte_flip(self, tmp_path, sample_file, capsys, field, q):
        """Any changed byte of a used shard, header or payload, fails decode with no output.

        The manifest digests are the only check that sees every such change:
        at GF(2^8) every payload byte value is a field symbol.
        """
        shards = encode_dir(tmp_path, sample_file, ["--field", field])
        rng = random.Random(f"flip {field}")
        for node in (2, 4, 6):
            path = shards / f"node_{node:03d}.shard"
            clean = path.read_bytes()
            header = rng.sample(range(shardfile.HEADER_SIZE), 4)
            payload = rng.sample(range(shardfile.HEADER_SIZE, len(clean)), 8)
            for pos in header + payload:
                blob = bytearray(clean)
                # payload bytes stay in the field; header bytes take any other value
                span = q if pos >= shardfile.HEADER_SIZE else 256
                blob[pos] = (blob[pos] + rng.randrange(1, span)) % span
                path.write_bytes(blob)
                self.decode_fails_naming(shards, tmp_path, capsys, path.name, "2,4,6")
            path.write_bytes(clean)

    def test_foreign_shard_of_same_shape(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        other_input = tmp_path / "other.bin"
        other_input.write_bytes(random.Random(7).randbytes(500))
        other = tmp_path / "other"
        assert run(["encode", "--input", other_input, "--out-dir", other]) == 0
        (shards / "node_003.shard").write_bytes((other / "node_003.shard").read_bytes())
        self.decode_fails_naming(shards, tmp_path, capsys, "node_003.shard", "1,2,3")

    def test_version_1_manifest_decodes_unchecked(self, tmp_path, sample_file):
        shards = encode_dir(tmp_path, sample_file)
        manifest = json.loads((shards / "manifest.json").read_text())
        manifest["version"] = 1
        del manifest["sha256"]
        (shards / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_malformed_manifest_is_named(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        manifest = json.loads((shards / "manifest.json").read_text())
        manifest["sha256"] = [1]
        (shards / "manifest.json").write_text(json.dumps(manifest))
        self.decode_fails_naming(shards, tmp_path, capsys, "manifest.json", "1,2,3")

    def test_repair_refuses_shard_that_misses_its_digest(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        manifest = json.loads((shards / "manifest.json").read_text())
        manifest["sha256"]["2"] = "0" * 64
        (shards / "manifest.json").write_text(json.dumps(manifest))
        (shards / "node_002.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        assert "node_002.shard" in capsys.readouterr().err
        assert not (shards / "node_002.shard").exists()

    def test_repair_refuses_flipped_helper(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "node_002.shard").unlink()
        _flip_payload_byte(shards / "node_004.shard")
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 1
        assert "node_004.shard" in capsys.readouterr().err
        assert not (shards / "node_002.shard").exists()


class TestDecodeReadsOnlyWhatItUses:
    @pytest.mark.parametrize("nodes", [["--nodes", "1,2,3,6"], []], ids=["explicit", "default"])
    def test_flipped_unused_shard_is_not_read(self, tmp_path, sample_file, nodes):
        shards = encode_dir(tmp_path, sample_file)
        _flip_payload_byte(shards / "node_006.shard")
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, *nodes]) == 0
        assert out.read_bytes() == sample_file.read_bytes()


class TestRepairReadsOnlyHelpers:
    @pytest.mark.parametrize("helpers", [["--helpers", "1,3,4"], []], ids=["explicit", "default"])
    def test_corrupt_non_helper_is_not_read(self, tmp_path, sample_file, helpers):
        shards = encode_dir(tmp_path, sample_file)
        saved = {j: (shards / f"node_00{j}.shard").read_bytes() for j in (2, 5)}
        for j in (2, 5):
            (shards / f"node_00{j}.shard").unlink()
        (shards / "node_006.shard").write_bytes(b"not a shard")
        assert run(["repair", "--shard-dir", shards, "--group", "2,5", *helpers]) == 0
        for j in (2, 5):
            assert (shards / f"node_00{j}.shard").read_bytes() == saved[j]


class TestDataPathReports:
    LAYERS = {"striping", "shard_read", "algebra", "shard_write"}

    def check_timings(self, doc, command):
        timings = doc["timings_ms"]
        assert set(timings) == self.LAYERS | {command}
        assert sum(timings[name] for name in self.LAYERS) <= timings[command]

    def test_encode_decode_repair_reports(self, tmp_path, sample_file):
        reports = {cmd: tmp_path / f"{cmd}.json" for cmd in ("encode", "decode", "repair")}
        shards = encode_dir(tmp_path, sample_file, extra=["--report", reports["encode"]])
        out = tmp_path / "out.bin"
        argv = ["decode", "--shard-dir", shards, "--output", out, "--nodes", "2,4,6"]
        assert run(argv + ["--report", reports["decode"]]) == 0
        argv = ["repair", "--shard-dir", shards, "--group", "2,5", "--helpers", "1,3,4"]
        assert run(argv + ["--report", reports["repair"]]) == 0
        docs = {cmd: json.loads(path.read_text()) for cmd, path in reports.items()}
        gens = docs["encode"]["results"]["generations"]
        n, k, d, t, B = 6, 3, 3, 2, 6
        for cmd, doc in docs.items():
            assert doc["command"] == cmd and doc["pass"] is True
            assert doc["results"]["generations"] == gens
            assert doc["results"]["symbols"] == gens * B
            assert doc["config"]["params"]["n"] == n
            self.check_timings(doc, cmd)
        assert docs["decode"]["results"]["shards"] == [2, 4, 6]
        assert docs["decode"]["results"]["output_bytes"] == 500
        repair = docs["repair"]["results"]
        assert (repair["group"], repair["helpers"]) == ([2, 5], [1, 3, 4])
        assert repair["transfers_phase1"] == t * d * gens
        assert repair["transfers_phase2"] == t * (t - 1) * gens
        assert docs["repair"]["timings_ms"]["striping"] == 0
        assert docs["decode"]["timings_ms"]["shard_write"] == 0
        assert {doc["results"]["lincomb"] for doc in docs.values()} == {"bytes-table"}

    @pytest.mark.parametrize(
        "field, branch",
        [("p=11", "bytes-table"), ("m=8", "bytes-table"), ("p=131", "int-list")],
    )
    def test_layer_timings_sum_within_total(self, tmp_path, sample_file, field, branch):
        """Each layer is timed inside the command, so their sum cannot pass its total."""
        reports = {cmd: tmp_path / f"{cmd}.json" for cmd in ("encode", "decode", "repair")}
        shards = encode_dir(tmp_path, sample_file, ["--field", field, "--report", reports["encode"]])
        out = tmp_path / "out.bin"
        argv = ["decode", "--shard-dir", shards, "--output", out, "--report", reports["decode"]]
        assert run(argv) == 0
        assert out.read_bytes() == sample_file.read_bytes()
        argv = ["repair", "--shard-dir", shards, "--group", "2,5", "--report", reports["repair"]]
        assert run(argv) == 0
        for cmd, path in reports.items():
            doc = json.loads(path.read_text())
            self.check_timings(doc, cmd)
            assert doc["results"]["lincomb"] == branch, cmd


class TestBadNodeLists:
    """A node list that cannot name a valid set of nodes is a usage error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decode", "--nodes", "2,4"], "--nodes needs at least 3 nodes, got 2"),
            (["decode", "--nodes", "2,2,4"], "--nodes 2,2,4 names a node twice"),
            (["decode", "--nodes", "0,1,2"], "--nodes: node 0 is outside 1..6"),
            (["repair", "--group", "2,2"], "--group 2,2 names a node twice"),
            (["repair", "--group", "9"], "--group: node 9 is outside 1..6"),
            (["repair", "--group", "2"], "--group needs 2 nodes, got 1"),
            (["repair", "--group", "2,5", "--helpers", "1,3"], "--helpers needs 3 nodes, got 2"),
            (["repair", "--group", "2,5", "--helpers", "1,3,7"], "--helpers: node 7 is outside 1..6"),
        ],
        ids=[
            "decode-too-few", "decode-repeated", "decode-node-0", "repair-repeated",
            "repair-node-9", "repair-short-group", "repair-short-helpers", "repair-helper-7",
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, sample_file, capsys, argv, message):
        shards = encode_dir(tmp_path, sample_file)
        before = {p.name: p.read_bytes() for p in shards.iterdir()}
        command, *options = argv
        out = ["--output", tmp_path / "out.bin"] if command == "decode" else []
        capsys.readouterr()
        assert run([command, "--shard-dir", shards, *out, *options]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err
        assert not (tmp_path / "out.bin").exists()
        assert {p.name: p.read_bytes() for p in shards.iterdir()} == before


class TestStrayShardNames:
    """Files that merely look like shards are not taken for one."""

    @pytest.mark.parametrize("stray", ["node_old.shard", "node_2.shard", "node_0002.shard"])
    def test_default_decode_and_repair_ignore_stray_names(self, tmp_path, sample_file, stray):
        shards = encode_dir(tmp_path, sample_file)
        (shards / stray).write_bytes(b"not a shard")
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 0
        assert out.read_bytes() == sample_file.read_bytes()
        original = (shards / "node_002.shard").read_bytes()
        (shards / "node_002.shard").unlink()
        (shards / "node_005.shard").unlink()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5"]) == 0
        assert (shards / "node_002.shard").read_bytes() == original


class TestTruncatedShard:
    """A shard cut short is named and never decoded, with or without a manifest."""

    @pytest.mark.parametrize("manifest", ["v2", "none"])
    def test_truncated_shard_fails_naming_it(self, tmp_path, sample_file, capsys, manifest):
        shards = encode_dir(tmp_path, sample_file)
        if manifest == "none":
            (shards / "manifest.json").unlink()
        path = shards / "node_002.shard"
        path.write_bytes(path.read_bytes()[:-7])
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", "2,4,6"]) == 1
        err = capsys.readouterr().err
        assert "node_002.shard" in err
        assert ("sha256" if manifest == "v2" else "payload length") in err
        assert not out.exists()

    def test_truncated_header_fails_naming_it(self, tmp_path, sample_file, capsys):
        shards = encode_dir(tmp_path, sample_file)
        (shards / "manifest.json").unlink()
        path = shards / "node_002.shard"
        path.write_bytes(path.read_bytes()[:20])
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", "2,4,6"]) == 1
        err = capsys.readouterr().err
        assert "node_002.shard" in err and "truncated header" in err, err
        assert not out.exists()


class TestForeignHeader:
    """A CRC-valid header naming no known variant, field or code is a corrupt shard.

    So is one naming a field of more than 256 elements, which no shard can
    hold: a directory an earlier version wrote at q > 256 does not decode.
    """

    FIELDS = (
        "magic", "version", "variant_tag", "kind", "param", "m", "n", "k", "d", "t",
        "alpha", "beta", "beta_prime", "B", "node", "width",
    )
    # header fields and the values written, what the error must say
    CASES = {
        "variant-tag-9": ({"variant_tag": 9}, "unknown variant tag 9"),
        "field-kind-5": ({"kind": 5}, "unknown field kind 5"),
        "p-12": ({"param": 12}, "invalid header"),
        "n-0": ({"n": 0}, "invalid header"),
        "version-2": ({"version": 2}, "unsupported version 2"),
        "width-2": ({"width": 2}, "symbol width 2 != expected 1"),
    }
    WIDE = {
        "p-257": ({"param": 257}, "GF(257) is above the 256-element bound"),
        "p-257-width-2": ({"param": 257, "width": 2}, "GF(257) is above the 256-element bound"),
        "m-9": (
            {"kind": 1, "m": 9, "param": DEFAULT_POLY[9]},
            "GF(512) is above the 256-element bound",
        ),
    }

    def rewrite_header(self, shards, case):
        """node_002's header with the case's fields changed, under a valid CRC."""
        (shards / "manifest.json").unlink()
        path = shards / "node_002.shard"
        blob = path.read_bytes()
        values = list(shardfile._HEADER.unpack(blob[: shardfile._HEADER.size]))
        changes, reason = {**self.CASES, **self.WIDE}[case]
        for name, value in changes.items():
            values[self.FIELDS.index(name)] = value
        head = shardfile._HEADER.pack(*values)
        path.write_bytes(head + struct.pack("<I", zlib.crc32(head)) + blob[shardfile.HEADER_SIZE :])
        return reason

    @pytest.mark.parametrize("nodes", ["2,4,6", "4,6,1,2"], ids=["used", "unused"])
    @pytest.mark.parametrize("case", [*CASES, *WIDE])
    def test_foreign_header_fails_naming_it(self, tmp_path, sample_file, capsys, case, nodes):
        shards = encode_dir(tmp_path, sample_file)
        reason = self.rewrite_header(shards, case)
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", nodes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "node_002.shard" in err and reason in err, err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(WIDE))
    def test_repair_from_wide_field_header_fails_naming_it(
        self, tmp_path, sample_file, capsys, case
    ):
        shards = encode_dir(tmp_path, sample_file)
        reason = self.rewrite_header(shards, case)
        for j in (1, 5):
            (shards / f"node_00{j}.shard").unlink()
        capsys.readouterr()
        assert run(["repair", "--shard-dir", shards, "--group", "1,5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "node_002.shard" in err and reason in err, err
        assert not any((shards / f"node_00{j}.shard").exists() for j in (1, 5))

    # params that CodeParams accepts but the stable code cannot build
    UNBUILDABLE = {
        "d-ne-k": (CodeParams.mscr(7, 3, 4, 2, q=11), "this construction requires d = k"),
        "beta-2": (CodeParams.mscr(6, 3, 3, 2, q=11, beta=2), "scalar construction: beta must be 1"),
    }

    def unbuildable_dir(self, tmp_path, case):
        """Every shard of a directory under one consistent header for the case's params."""
        params, reason = self.UNBUILDABLE[case]
        shards = tmp_path / "shards"
        shards.mkdir()
        rng = random.Random(7)
        for node in range(1, params.n + 1):
            meta = shardfile.ShardMeta("stable", FieldSpec.prime(11), params, node, 4)
            payload = bytes(rng.randrange(11) for _ in range(4 * params.alpha))
            shardfile.write_shard(shards / shardfile.shard_filename(node), meta, payload)
        return shards, reason

    @pytest.mark.parametrize("case", list(UNBUILDABLE))
    def test_unbuildable_params_decode_fails_naming_shard(self, tmp_path, capsys, case):
        shards, reason = self.unbuildable_dir(tmp_path, case)
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {shards / 'node_001.shard'}: invalid header: {reason}\n", err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(UNBUILDABLE))
    def test_unbuildable_params_repair_fails_naming_shard(self, tmp_path, capsys, case):
        shards, reason = self.unbuildable_dir(tmp_path, case)
        for j in (1, 2):
            (shards / f"node_00{j}.shard").unlink()
        before = sorted(p.name for p in shards.iterdir())
        capsys.readouterr()
        assert run(["repair", "--shard-dir", shards, "--group", "1,2"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {shards / 'node_003.shard'}: invalid header: {reason}\n", err
        assert sorted(p.name for p in shards.iterdir()) == before


class TestWideFieldEncode:
    """Encode takes fields of at most 256 elements: a larger one is a config error."""

    @pytest.mark.parametrize(
        "field, name", [("p=257", "GF(257)"), ("m=9", "GF(512)"), ("m=16", "GF(65536)")]
    )
    def test_exits_2_writing_nothing(self, tmp_path, sample_file, capsys, field, name):
        out = tmp_path / "shards"
        out.mkdir()
        capsys.readouterr()
        assert run(["encode", "--input", sample_file, "--out-dir", out, "--field", field]) == 2
        err = capsys.readouterr().err
        assert err == f"error: encode takes fields of at most 256 elements, not {name}\n", err
        assert not list(out.iterdir())


class TestStaleShards:
    """node_007 and node_008 left by an earlier n=8 encoding into the same directory."""

    @pytest.fixture
    def shards(self, tmp_path, sample_file):
        encode_dir(tmp_path, sample_file, extra=["--params", "n=8,k=3,d=3,t=2"])
        shards = encode_dir(tmp_path, sample_file)
        assert {p.name for p in shards.glob("*.shard")} >= {"node_007.shard", "node_008.shard"}
        return shards

    def test_default_decode_and_repair_ignore_ids_outside_1_to_n(self, tmp_path, sample_file, shards):
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 0
        assert out.read_bytes() == sample_file.read_bytes()
        saved = {j: (shards / f"node_00{j}.shard").read_bytes() for j in (2, 5)}
        for j in (2, 5):
            (shards / f"node_00{j}.shard").unlink()
        report = tmp_path / "r.json"
        assert run(["repair", "--shard-dir", shards, "--group", "2,5", "--report", report]) == 0
        assert json.loads(report.read_text())["results"]["helpers"] == [1, 3, 4]
        for j in (2, 5):
            assert (shards / f"node_00{j}.shard").read_bytes() == saved[j]

    def test_explicit_stale_node_is_still_an_error(self, tmp_path, shards, capsys):
        out = tmp_path / "out.bin"
        capsys.readouterr()
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", "1,2,3,7"]) == 2
        assert capsys.readouterr().err == "error: --nodes: node 7 is outside 1..6\n"
        # read first, its header sets n; the manifest does not list it
        assert run(["decode", "--shard-dir", shards, "--output", out, "--nodes", "7,1,2"]) == 1
        assert "node_007.shard: node 7 is not listed in manifest.json" in capsys.readouterr().err
        assert not out.exists()


class TestCorruptStream:
    """A decoded stream that packing cannot have made is bad data (exit 1), never bytes."""

    def wide_symbol(symbols):
        return symbols[:30] + bytes([8]) + symbols[31:]  # 8 is in GF(11) but not 3 bits wide

    def long_prefix(symbols):
        return bytes([7] * 21) + symbols[21:]  # 63 bits of the length prefix set

    def short_stream(symbols):
        return symbols[:6]  # one generation: 2 bytes, fewer than the prefix

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (wide_symbol, "corrupt stream: decoded symbol 8 is wider than 3 bits"),
            (long_prefix, "corrupt stream: length prefix exceeds available data"),
            (short_stream, "symbol stream shorter than the length prefix"),
        ],
        ids=["wide-symbol", "long-prefix", "short-stream"],
    )
    def test_decode_exits_1(self, tmp_path, sample_file, capsys, monkeypatch, mangle, message):
        real = cli.pack_payload
        monkeypatch.setattr(cli, "pack_payload", lambda *args: mangle(real(*args)))
        shards = encode_dir(tmp_path, sample_file)
        monkeypatch.undo()
        capsys.readouterr()
        out = tmp_path / "out.bin"
        assert run(["decode", "--shard-dir", shards, "--output", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestLoaderReads:
    """Which shard files decode and repair open, and how much of each."""

    @pytest.fixture
    def reads(self, monkeypatch):
        log = []
        real_read, real_meta = shardfile.read_shard, shardfile.read_shard_meta
        real_open = shardfile.Path.open

        def read(path, sha256=None):
            log.append(("payload", path.name))
            return real_read(path, sha256=sha256)

        def meta(path):
            log.append(("header", path.name))
            return real_meta(path)

        def opened(path, *args, **kwargs):
            if path.suffix == ".shard":
                log.append(("open", path.name))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(shardfile, "read_shard", read)
        monkeypatch.setattr(shardfile, "read_shard_meta", meta)
        monkeypatch.setattr(shardfile.Path, "open", opened)
        return log

    @staticmethod
    def names(*ids):
        return [f"node_{j:03d}.shard" for j in ids]

    @pytest.mark.parametrize(
        "nodes, full, headers",
        [([], (1, 2, 3), (4, 5, 6)), (["--nodes", "1,2,3,6"], (1, 2, 3), (6,))],
        ids=["default", "explicit"],
    )
    def test_decode_reads_k_payloads_and_the_other_headers(
        self, tmp_path, sample_file, reads, nodes, full, headers
    ):
        shards = encode_dir(tmp_path, sample_file)
        reads.clear()
        assert run(["decode", "--shard-dir", shards, "--output", tmp_path / "out.bin", *nodes]) == 0
        assert [name for kind, name in reads if kind == "payload"] == self.names(*full)
        assert [name for kind, name in reads if kind == "header"] == self.names(*headers)
        assert sorted(name for kind, name in reads if kind == "open") == self.names(*full, *headers)

    @pytest.mark.parametrize("helpers", [[], ["--helpers", "1,3,4"]], ids=["default", "explicit"])
    def test_repair_opens_only_the_d_helpers(self, tmp_path, sample_file, reads, helpers):
        shards = encode_dir(tmp_path, sample_file)
        for j in (2, 5):
            (shards / f"node_00{j}.shard").unlink()
        reads.clear()
        assert run(["repair", "--shard-dir", shards, "--group", "2,5", *helpers]) == 0
        assert reads == [(kind, name) for name in self.names(1, 3, 4) for kind in ("payload", "open")]
