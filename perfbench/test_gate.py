"""Tests of the benchmark's own correctness gate, closed forms and tracer.

    python3 -m pytest -q perfbench/test_gate.py

Run from the repository root; the coopstore sources are taken from ./src.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
os.environ["COOPSTORE_PURE"] = "1"

import gate as checks  # noqa: E402
from layers import install_layers, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

from coopstore import cli  # noqa: E402

S1_CODE = checks.FileCode(n=6, k=3, t=2, p=11)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_closed_forms_at_64_kib():
    nbytes = 64 * 1024
    gens = S1_CODE.generations(nbytes)
    assert gens == 29131
    assert S1_CODE.transfers(nbytes) == (174786, 58262)
    assert S1_CODE.storage_bytes(nbytes) == 6 * (52 + 2 * gens)
    assert round(S1_CODE.storage_bytes(nbytes) / nbytes, 3) == 5.339


def test_expected_placement_counts():
    assert sum(checks.placements(8, l1, l2) for l1, l2 in checks.sweep_pairs(4)) == 577
    assert checks.placements(6, 1, 1) + checks.placements(6, 0, 1) == 36


def test_flipped_byte_in_decoded_copy_counts_as_failed(tmp_path):
    data = bytes(range(256)) * 2
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    assert run_cli(["encode", "--input", str(src), "--out-dir", str(tmp_path / "s")])[0] == 0
    out = tmp_path / "out.bin"
    rc, _ = run_cli(["decode", "--shard-dir", str(tmp_path / "s"), "--output", str(out), "--nodes", "2,4,6"])
    decoded = out.read_bytes()

    gate = checks.Gate()
    assert gate.record("decode", checks.check_exit(rc) + checks.check_bytes("decode", data, decoded))
    flipped = bytearray(decoded)
    flipped[300] ^= 0x01
    assert not gate.record("decode", checks.check_bytes("decode", data, bytes(flipped)))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "byte 300" in gate.messages[0]


def test_mismatched_capacity_cell_counts_as_failed(tmp_path):
    report_path = tmp_path / "sweep.json"
    rc, _ = run_cli(["capacity-sweep", "--report", str(report_path)])
    report = json.loads(report_path.read_text())

    gate = checks.Gate()
    assert gate.record("sweep", checks.check_exit(rc) + checks.check_capacity_report(report, 6, 3, 3, 2))
    report["results"]["cells"][7]["measured"] += 1
    assert not gate.record("sweep", checks.check_capacity_report(report, 6, 3, 3, 2))
    report["results"]["cells"].pop()
    assert not gate.record("sweep", checks.check_capacity_report(report, 6, 3, 3, 2))
    assert (gate.attempted, gate.failed) == (3, 2)


def test_leaking_secure_placement_counts_as_failed():
    rows = [{"E": [], "F": [f], "mutual_information": 0} for f in range(1, 7)]
    report = {"pass": True, "failures": [], "results": {"placements": rows}}
    assert checks.check_secure_report(report, 6, 0, 1) == []
    rows[3]["mutual_information"] = 1
    assert checks.check_secure_report(report, 6, 0, 1)


def test_transfer_counts_are_parsed_and_checked():
    out = "regenerated nodes 2,5 from helpers 1,3,4; transfers: phase1=174786 phase2=58262\n"
    assert checks.parse_transfers(out) == (174786, 58262)
    assert checks.check_transfers((174786, 58262), S1_CODE, 64 * 1024) == []
    assert checks.check_transfers((174786, 58261), S1_CODE, 64 * 1024)
    assert checks.check_transfers(None, S1_CODE, 64 * 1024)


def test_tracer_wraps_by_name_imports_and_restores_them():
    from coopstore import entropy, eve, secure

    original = entropy.entropy_symbols
    tracer = Tracer()
    install_layers(tracer)
    try:
        assert eve.entropy_symbols is entropy.entropy_symbols is secure.entropy_symbols
        assert entropy.entropy_symbols is not original
        start = time.perf_counter()
        rc, _ = run_cli(["capacity-sweep"])
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert rc == 0
    assert entropy.entropy_symbols is original is eve.entropy_symbols
    layers = layer_metrics(tracer, wall, (0, 0))
    assert layers["eve.placements"] == 73
    assert layers["kernels.rank_calls"] > 0 and layers["kernels.rank_s"] > 0
    assert 0 < layers["trace.self_sum_s"] <= wall
    assert layers["cli.capacity-sweep.self_s"] > 0
