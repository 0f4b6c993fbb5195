"""One benchmark run: set up, run passes of a workload through the CLI, report.

Started by run.py in a fresh interpreter with COOPSTORE_PURE=1 and the
checkout's ``src`` on PYTHONPATH.  Every command goes through
``coopstore.cli.main`` in this process, one after another (one closed-loop
client, no threads).  Prints one JSON document as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gate as checks
from layers import PER_LAYER_UNITS, install_layers, layer_metrics
from tracer import Tracer

SETUP_REPEATS = 21
REFERENCE_PROBE_S = 0.015
FILE_CODE = checks.FileCode(n=6, k=3, t=2, p=11)
FILE_PARAMS = "n=6,k=3,d=3,t=2"
FIRST_DECODE, REPAIR_GROUP, REPAIR_HELPERS, SECOND_DECODE = "2,4,6", (2, 5), "1,3,4", "2,5,6"
S1 = {"n": 6, "k": 3, "d": 3, "t": 2}
N8 = {"n": 8, "k": 4, "d": 4, "t": 2}


@dataclass(frozen=True)
class Workload:
    """Every workload runs all three blocks; one is scaled up, the others are
    light, so that every end-to-end metric is measured on every workload."""

    file_bytes: int
    sweep: dict  # capacity-sweep and verify parameters, over GF(11)
    sweep_reps: int
    secure: tuple  # (l1, l2) pairs for secure-verify on S1 over GF(16)
    secure_reps: int


WORKLOADS = {
    "file-s1": Workload(16 * 1024, S1, 3, ((0, 1),), 2),
    "sweep-n8": Workload(4 * 1024, N8, 1, ((0, 1),), 2),
    "secure-s1": Workload(4 * 1024, S1, 3, ((1, 1), (0, 1)), 1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_MBps": "MB/s",
    "decode_MBps": "MB/s",
    "repair_MBps": "MB/s",
    "storage_ratio": "ratio",
    "peak_rss_MB": "MB",
    "capacity_sweep_s": "s",
    "verify_s": "s",
    "secure_verify_s": "s",
    "ok_frac": "fraction",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# timing normalised to the host's speed
# ---------------------------------------------------------------------------


def host_probe() -> float:
    """Seconds for a fixed pure-Python elimination over GF(11), 60 x 60.

    It shares no code with coopstore, so no change to coopstore moves it.
    """
    n, p = 60, 11
    start = time.perf_counter()
    m, x = [], 1
    for _ in range(n * n):
        x = (x * 1103515245 + 12345) % 2**31
        m.append((x >> 16) % p)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r * n + col]), None)
        if piv is None:
            continue
        m[col * n : col * n + n], m[piv * n : piv * n + n] = m[piv * n : piv * n + n], m[col * n : col * n + n]
        inv = pow(m[col * n + col], p - 2, p)
        for r in range(col + 1, n):
            f = m[r * n + col] * inv % p
            if f:
                for c in range(col, n):
                    m[r * n + c] = (m[r * n + c] - f * m[col * n + c]) % p
    return time.perf_counter() - start


class HostClock:
    """Times calls and scales each to a reference host speed.

    On a shared host the CPU speed one process gets drifts by tens of
    percent, both within a run and between runs.  Every timed call is
    bracketed by host probes, and its seconds are multiplied by
    REFERENCE_PROBE_S over the mean of the two probes: the call's time on a
    host where the probe takes 15 ms.  The wall seconds are kept as well.
    """

    def __init__(self):
        self.probes = [host_probe()]
        self.wall = defaultdict(list)

    def time(self, label, fn):
        """(fn's result, its normalised seconds)."""
        start = time.perf_counter()
        result = fn()
        secs = time.perf_counter() - start
        self.probes.append(host_probe())
        self.wall[label].append(secs)
        return result, secs * 2 * REFERENCE_PROBE_S / (self.probes[-2] + self.probes[-1])

    def scale(self) -> float:
        """Run-wide factor from wall to normalised seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)


# ---------------------------------------------------------------------------
# set-up: import coopstore and write the workload's inputs
# ---------------------------------------------------------------------------


def build_inputs(spec: Workload, workload: str, seed: int, directory: Path) -> dict:
    """Write the generated inputs; the program sees only these files."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    directory.mkdir(parents=True)
    paths = {
        "input": directory / "input.bin",
        "sweep": directory / "sweep.json",
        "secure": directory / "secure.json",
    }
    paths["input"].write_bytes(rng.randbytes(spec.file_bytes))
    # The config seed draws verify's random entropy-oracle instances, whose
    # cost varies by about 12% between seeds; it stays fixed so that every
    # run of a workload asks verify for the same work.
    paths["sweep"].write_text(json.dumps({"params": spec.sweep, "field": {"p": 11}, "seed": 0}))
    paths["secure"].write_text(json.dumps({"params": S1, "field": {"m": 4}, "seed": 0}))
    return paths


def set_up(spec: Workload, workload: str, seed: int, workdir: Path, clock: HostClock):
    """Import coopstore and build the inputs SETUP_REPEATS times.

    Each repeat drops every coopstore module first, so the import runs
    again; the bytecode cache (in the run's work directory) is warm after
    the first repeat.  Returns the per-repeat seconds and the last inputs.
    """
    times = []
    for i in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "coopstore" or m.startswith("coopstore.")]:
            del sys.modules[name]
        target = workdir / f"inputs{i}"
        gc.collect()

        def one_setup():
            importlib.import_module("coopstore.cli")
            return build_inputs(spec, workload, seed, target)

        paths, secs = clock.time("setup", one_setup)
        times.append(secs)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return times, paths


def provenance(workload: str, seed: int, paths: dict) -> dict:
    from coopstore import kernels
    from coopstore.field import ExtensionField, binary_field, prime_field
    from coopstore.secure import PUBLISHED_TOWERS

    gf16 = binary_field(4)
    fields = {
        "GF(11)": prime_field(11),
        "GF(16)": gf16,
        "F_(2^4)^6": ExtensionField(gf16, 6, PUBLISHED_TOWERS[(16, 6)]),
    }
    digest = hashlib.sha256()
    for key in sorted(paths):
        digest.update(key.encode() + b"\0" + paths[key].read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "input_sha256": digest.hexdigest(),
        "backend": {name: kernels.backend_name(f) for name, f in fields.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """What the blocks of one pass share."""

    spec: Workload
    paths: dict
    directory: Path
    seed: int
    clock: HostClock
    gate: checks.Gate
    samples: dict

    def cli(self, argv):
        """(exit code, captured stdout, normalised seconds) of one command."""
        cli = sys.modules["coopstore.cli"]
        out = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out):
                    return cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                return "crash"

        gc.collect()
        rc, secs = self.clock.time(argv[0], call)
        return rc, out.getvalue(), secs


def read_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def file_block(run: Pass):
    """encode, decode, lose and repair two shards, decode again."""
    nbytes = run.spec.file_bytes
    original = run.paths["input"].read_bytes()
    shards = run.directory / "shards"

    def node(i):
        return shards / f"node_{i:03d}.shard"

    def decode(label, nodes):
        output = run.directory / f"{label}.bin"
        rc, _, secs = run.cli(
            ["decode", "--shard-dir", str(shards), "--output", str(output), "--nodes", nodes]
        )
        got = output.read_bytes() if output.exists() else b""
        run.gate.record(label, checks.check_exit(rc) + checks.check_bytes(label, original, got))
        return secs

    rc, out, secs = run.cli(
        ["encode", "--input", str(run.paths["input"]), "--out-dir", str(shards),
         "--params", FILE_PARAMS, "--field", f"p={FILE_CODE.p}", "--seed", str(run.seed)]
    )
    stored = sum(p.stat().st_size for p in shards.glob("node_*.shard"))
    run.gate.record(
        "encode",
        checks.check_exit(rc)
        + checks.check_encode(out, FILE_CODE, nbytes)
        + checks.check_storage(stored, FILE_CODE, nbytes),
    )
    run.samples["encode_MBps"].append(nbytes / 1e6 / secs)
    run.samples["storage_ratio"].append(stored / nbytes)

    decode_secs = decode("decode", FIRST_DECODE)

    saved = {i: node(i).read_bytes() for i in REPAIR_GROUP}
    for i in REPAIR_GROUP:
        node(i).unlink()
    rc, out, secs = run.cli(
        ["repair", "--shard-dir", str(shards),
         "--group", ",".join(map(str, REPAIR_GROUP)), "--helpers", REPAIR_HELPERS]
    )
    transfers = checks.parse_transfers(out)
    fails = checks.check_exit(rc) + checks.check_transfers(transfers, FILE_CODE, nbytes)
    for i in REPAIR_GROUP:
        got = node(i).read_bytes() if node(i).exists() else b""
        fails += checks.check_bytes(f"repaired node_{i:03d}", saved[i], got)
    run.gate.record("repair", fails)
    run.samples["repair_MBps"].append(nbytes / 1e6 / secs)

    decode_secs += decode("decode-after-repair", SECOND_DECODE)
    run.samples["decode_MBps"].append(2 * nbytes / 1e6 / decode_secs)
    shutil.rmtree(shards)
    return transfers


def sweep_block(run: Pass):
    p = run.spec.sweep
    config = str(run.paths["sweep"])
    for _ in range(run.spec.sweep_reps):
        report = run.directory / "sweep-report.json"
        rc, _, secs = run.cli(["capacity-sweep", "--config", config, "--report", str(report)])
        run.gate.record(
            "capacity-sweep",
            checks.check_exit(rc)
            + checks.check_capacity_report(read_report(report), p["n"], p["k"], p["d"], p["t"]),
        )
        run.samples["capacity_sweep_s"].append(secs)
        report = run.directory / "verify-report.json"
        rc, _, secs = run.cli(["verify", "--config", config, "--report", str(report)])
        run.gate.record("verify", checks.check_exit(rc) + checks.check_verify_report(read_report(report)))
        run.samples["verify_s"].append(secs)


def secure_block(run: Pass):
    for _ in range(run.spec.secure_reps):
        total = 0.0
        for l1, l2 in run.spec.secure:
            report = run.directory / "secure-report.json"
            rc, _, secs = run.cli(
                ["secure-verify", "--config", str(run.paths["secure"]),
                 "--l1", str(l1), "--l2", str(l2), "--report", str(report)]
            )
            run.gate.record(
                f"secure-verify({l1},{l2})",
                checks.check_exit(rc)
                + checks.check_secure_report(read_report(report), S1["n"], l1, l2),
            )
            total += secs
        run.samples["secure_verify_s"].append(total)


def run_pass(run: Pass):
    """One pass of the workload; returns (wall seconds, repair transfers)."""
    run.directory.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    transfers = file_block(run)
    sweep_block(run)
    secure_block(run)
    wall = time.perf_counter() - start
    shutil.rmtree(run.directory)
    return wall, transfers


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    workdir = Path(args.workdir)

    clock = HostClock()
    setup_times, paths = set_up(spec, args.workload, args.seed, workdir, clock)
    prov = provenance(args.workload, args.seed, paths)
    if set(prov["backend"].values()) != {"pure-python"}:
        log(f"kernel backend is not pure-python: {prov['backend']}")
        return 3

    gate = checks.Gate()
    tracer = Tracer()
    samples = defaultdict(list)
    walls = {False: [], True: []}
    traced_layers, transfers_seen = [], []
    # Untraced and traced passes alternate in a traced run; a pass starts only
    # if one like it fits before the deadline, after at least one of each.
    kinds = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() + max(walls[traced]) > deadline:
            break
        # a traced pass's end-to-end samples are dropped
        run = Pass(spec, paths, workdir / "pass", args.seed, clock, gate,
                   defaultdict(list) if traced else samples)
        if traced:
            tracer.reset()
            install_layers(tracer)
        try:
            wall, transfers = run_pass(run)
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        transfers_seen.append(transfers)
        if traced:
            layers = layer_metrics(tracer, wall, transfers)
            fails = []
            if layers["trace.self_sum_s"] > wall:
                fails.append(f"self times sum to {layers['trace.self_sum_s']} s > wall {wall} s")
            gate.record("trace", fails)
            traced_layers.append(layers)
        log(f"{args.workload} {'traced' if traced else 'untraced'} pass {wall:.2f} s")
    if len(set(transfers_seen)) != 1:
        gate.record("transfers", [f"repair transfers differ between passes: {transfers_seen}"])

    if args.trace:
        metrics = {
            name: statistics.median(layers[name] for layers in traced_layers)
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        scale = clock.scale()
        for name, unit in PER_LAYER_UNITS.items():
            if unit == "s":
                metrics[name] *= scale
        units = PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["ok_frac"] = gate.ok_frac
        units = END_TO_END_UNITS
    samples["setup_s"] = setup_times
    samples["host_probe_s"] = clock.probes
    samples.update({f"wall.{label}_s": secs for label, secs in clock.wall.items()})
    prov["repair_transfers"] = transfers_seen[0]
    prov["passes"] = {"untraced": len(walls[False]), "traced": len(walls[True])}
    doc = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "provenance": prov,
        "failures": gate.messages[:20],
        "samples": samples,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
