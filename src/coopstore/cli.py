"""Command-line shell: encode/decode/repair plus the verification commands.

Exit codes: 0 the report passes, 1 a check failed or the data is bad, 2 usage
or config error (see main).
Flags override config-file fields; COOPSTORE_SEED is the seed fallback.
decode and repair parse node lists and leave which shard files to read, and
whether to trust them, to shardfile.ShardDir.
encode, decode and repair load only the data path: each analysis command
imports eve, entropy, legacy or secure when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import stat
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import ConfigError, CoopstoreError, InvalidConfig, TooFewShards
from .field import FieldSpec, field_create, prime_field
from .matrix import Mat, lincomb_branch
from .report import ReportDoc, capacity_rows, text_table, write_capacity_csv
from .shardfile import (
    ShardDir,
    ShardMeta,
    shard_filename,
    write_atomic,
    write_manifest,
    write_shard,
)
from .stable import CodeParams, RepairPlan, StableCode, repair_context, stability_certificate
from .striping import pack_payload, unpack_payload

DEFAULT_PARAMS = {"n": 6, "k": 3, "d": 3, "t": 2}
DEFAULT_FIELD = {"p": 11}
DEFAULT_CODE_A = {"d": 3, "omega": 2}
# the key sets a params or field object may use, all with int values
SECTION_KEYS = {"params": [("n", "k", "d", "t", "beta")], "field": [("p",), ("m", "poly")]}


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidConfig(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = _parse_int(value, part)
    return out


def _parse_int(text: str, context: str) -> int:
    """An integer literal (base prefixes allowed); a bad one is a config error."""
    try:
        return int(text, 0)
    except ValueError:
        raise InvalidConfig(f"not an integer in {context!r}") from None


def _load_config(args) -> dict:
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise InvalidConfig(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise InvalidConfig(f"config is not a JSON object: {config!r}")
        for name in SECTION_KEYS.keys() & config.keys():
            _section(name, config[name])
        for name in ("seed", "omega"):
            if name in config and type(config[name]) is not int:
                raise InvalidConfig(f"{name} is not an int: {config[name]!r}")
    if getattr(args, "params", None):
        config["params"] = {**config.get("params", {}), **_section("params", _parse_kv(args.params))}
    if getattr(args, "field", None):
        config["field"] = _section("field", _parse_kv(args.field))
    if getattr(args, "variant", None):
        config["variant"] = args.variant
    if getattr(args, "omega", None) is not None:
        config["omega"] = args.omega
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    elif "seed" not in config and os.environ.get("COOPSTORE_SEED"):
        config["seed"] = _parse_int(os.environ["COOPSTORE_SEED"], "COOPSTORE_SEED")
    config.setdefault("seed", 0)
    config.setdefault("variant", "stable")
    return config


def _section(name, value) -> dict:
    """A params or field object, checked: int values under one of its key sets."""
    allowed = SECTION_KEYS[name]
    if not isinstance(value, dict) or all(value.keys() - keys for keys in allowed) or any(
        type(v) is not int for v in value.values()
    ):
        spelled = " or ".join(f"({', '.join(keys)})" for keys in allowed)
        raise InvalidConfig(f"{name} is not an object of ints with keys from {spelled}: {value!r}")
    return value


def _field_from_config(config) -> object:
    fld = config.get("field") or dict(DEFAULT_FIELD)
    if "p" in fld:
        spec = FieldSpec.prime(fld["p"])
    elif "m" in fld:
        spec = FieldSpec.binary(fld["m"], fld.get("poly"))
    else:
        raise InvalidConfig("field must give p=<prime> or m=<degree>[,poly=<bits>]")
    return field_create(spec)


def _make_code(config):
    field = _field_from_config(config)
    # _load_config let only the keys of CodeParams.mscr into params
    params = CodeParams.mscr(**{**DEFAULT_PARAMS, **config.get("params", {})}, q=field.order)
    variant = config.get("variant", "stable")
    if variant == "stable":
        return StableCode.create(params, field)
    if variant == "code-b":
        from .legacy import CodeB

        return CodeB.create(params, field)
    raise InvalidConfig(f"variant {variant!r} not supported here")


def _echo_config(config, field, params) -> dict:
    return {**config, "field": {"kind": field.kind, "order": field.order}, "params": asdict(params)}


# ---------------------------------------------------------------------------
# encode / decode / repair
# ---------------------------------------------------------------------------


class _Stopwatch:
    """Milliseconds per data-path layer and for the whole command: timings_ms.

    main starts one per command before parsing its arguments and names the
    command once they are parsed; the analysis commands leave the layers at 0.
    """

    LAYERS = ("striping", "shard_read", "algebra", "shard_write")

    def __init__(self):
        self.command = None
        self.ms = dict.fromkeys(self.LAYERS, 0.0)
        self.start = time.perf_counter()

    @contextlib.contextmanager
    def layer(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] += 1000 * (time.perf_counter() - start)

    def timings(self) -> dict:
        total = 1000 * (time.perf_counter() - self.start)
        return {name: round(ms, 3) for name, ms in {**self.ms, self.command: total}.items()}


def _datapath_results(code, generations, **extra) -> dict:
    return {
        "generations": generations,
        "symbols": generations * code.params.B,
        "lincomb": lincomb_branch(code.field),
        **extra,
    }


def cmd_encode(args, clock) -> ReportDoc:
    config = _load_config(args)
    code = _make_code(config)
    if code.variant != "stable":
        raise InvalidConfig("shard persistence is implemented for the stable variant")
    p = code.params
    data = Path(args.input).read_bytes()
    with clock.layer("striping"):
        symbols = pack_payload(data, p.q, p.B)
    with clock.layer("algebra"):
        payloads = code.encode_batch(symbols)
    gens = len(symbols) // p.B

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for node, payload in payloads.items():
        meta = ShardMeta("stable", code.field.spec, p, node, gens)
        with clock.layer("shard_write"):
            digests[node] = write_shard(out_dir / shard_filename(node), meta, payload)
    echo = _echo_config(config, code.field, p)
    write_manifest(out_dir, echo, sorted(payloads), digests)
    report = ReportDoc(command="encode", config=echo)
    report.results = _datapath_results(code, gens, input_bytes=len(data), shards=sorted(payloads))
    print(f"encoded {len(data)} bytes into {p.n} shards x {gens} generations")
    return report


def cmd_decode(args, clock) -> ReportDoc:
    listed = _parse_ids(args.nodes, "--nodes")
    with clock.layer("shard_read"):
        meta, payloads = ShardDir(args.shard_dir).load(listed)
    p = meta.params
    if listed:
        _check_ids("--nodes", listed, p.n, p.k, None)
    code = StableCode.create(p, field_create(meta.field_spec))
    with clock.layer("algebra"):
        symbols = code.reconstruct_batch(payloads)
    with clock.layer("striping"):
        blob = unpack_payload(symbols, p.q)
    write_atomic(args.output, blob)
    report = ReportDoc(command="decode", config=_echo_config({"variant": meta.variant}, code.field, p))
    report.results = _datapath_results(
        code, meta.generations, output_bytes=len(blob), shards=sorted(payloads)
    )
    print(f"decoded {len(blob)} bytes from {len(payloads)} shards")
    return report


def cmd_repair(args, clock) -> ReportDoc:
    group = _parse_ids(args.group, "--group")
    if not group:
        raise InvalidConfig("--group is required, e.g. --group 2,5")
    shards = ShardDir(args.shard_dir)
    helpers = _parse_ids(args.helpers, "--helpers")
    overlap = sorted(set(helpers or ()) & set(group))
    if overlap:
        raise InvalidConfig(f"--helpers: node {overlap[0]} is also in --group")
    with clock.layer("shard_read"):
        meta, payloads = shards.load(helpers, group)
    p = meta.params
    _check_ids("--group", group, p.n, p.t, p.t)
    if args.helpers:
        _check_ids("--helpers", helpers, p.n, p.d, p.d)
    elif len(payloads) < p.d:
        raise TooFewShards(
            f"need {p.d} helper shards to repair group {','.join(map(str, group))}, "
            f"got {len(payloads)}: {','.join(map(str, payloads))}"
        )
    code = StableCode.create(p, field_create(meta.field_spec))
    ctx = repair_context(code, group, helpers or tuple(payloads))
    with clock.layer("algebra"):
        regenerated, (phase1, phase2) = RepairPlan(code, ctx).run(payloads)

    gens = meta.generations
    expect1 = p.t * p.d * p.beta * gens
    expect2 = p.t * (p.t - 1) * p.beta_prime * gens
    if (phase1, phase2) != (expect1, expect2):
        raise CoopstoreError(
            f"transfer accounting broken: {(phase1, phase2)} != {(expect1, expect2)}"
        )
    for node, payload in regenerated.items():
        with clock.layer("shard_write"):
            shards.write(node, meta, payload)
    report = ReportDoc(command="repair", config=_echo_config({"variant": meta.variant}, code.field, p))
    report.results = _datapath_results(
        code,
        gens,
        group=list(ctx.group),
        helpers=list(ctx.helpers),
        transfers_phase1=phase1,
        transfers_phase2=phase2,
    )
    print(
        f"regenerated nodes {','.join(map(str, ctx.group))} from helpers "
        f"{','.join(map(str, ctx.helpers))}; transfers: phase1={phase1} phase2={phase2}"
    )
    return report


def _parse_ids(text, option):
    """The node ids of a comma-separated list, which must not repeat one."""
    if not text:
        return None
    ids = tuple(_parse_int(x, text) for x in str(text).split(",") if x.strip())
    if len(set(ids)) != len(ids):
        raise InvalidConfig(f"{option} {text} names a node twice")
    return ids


def _check_ids(option, ids, n, least, most):
    """A node list against the header's params: ids in 1..n, least to most of them."""
    bad = [i for i in ids if not 1 <= i <= n]
    if bad:
        raise InvalidConfig(f"{option}: node {bad[0]} is outside 1..{n}")
    if len(ids) < least or most is not None and len(ids) > most:
        want = least if least == most else f"at least {least}"
        raise InvalidConfig(f"{option} needs {want} nodes, got {len(ids)}")


# ---------------------------------------------------------------------------
# attack / sweep / verify
# ---------------------------------------------------------------------------


def cmd_attack(args, clock) -> ReportDoc:
    import random

    from .legacy import code_a_attack, code_a_init, code_b_attack

    config = _load_config(args)
    rng = random.Random(config["seed"])
    variant = config.get("variant")
    if variant == "code-a":
        # Code A fixes n = d + 2 and k = t = 2, so d is its one params key
        other = sorted(config.get("params", {}).keys() - {"d"})
        if other:
            raise InvalidConfig(f"code-a params take only d, got {', '.join(other)}")
        field = _field_from_config(config)
        d = config.get("params", {}).get("d", DEFAULT_CODE_A["d"])
        omega = config.get("omega", DEFAULT_CODE_A["omega"])
        params = code_a_init(d, field, omega)
        a = tuple(rng.randrange(field.order) for _ in range(params.alpha))
        b = tuple(rng.randrange(field.order) for _ in range(params.alpha))
        result = code_a_attack(params, a, b)
        exact = (result.recovered_a, result.recovered_b) == (a, b)
        message, extra, how = params.B, {}, ""
    elif variant == "code-b":
        code = _make_code({**config, "variant": "code-b"})
        p = code.params
        data = Mat(code.field, p.t, p.k, [rng.randrange(p.q) for _ in range(p.B)])
        result = code_b_attack(code, data)
        exact = result.recovered == data
        message, how = p.B, " via sliding groups"
        extra = {"groups": [list(g) for g in result.groups], "helpers": list(result.helpers)}
    else:
        raise InvalidConfig("attack needs --variant code-a or code-b")
    report = ReportDoc(command="attack", config=config)
    report.results = {
        "variant": variant,
        "recovered": "EXACT" if exact else "MISMATCH",
        "leaked_symbols": result.leaked_entropy,
        "message_symbols": message,
        "leaked_rows": list(result.observations.labels),
        **extra,
    }
    # both attacks must recover the message and account for all of it as leaked
    if not exact:
        report.fail(f"{variant} attack did not recover the message")
    if result.leaked_entropy != message:
        report.fail(f"{variant} leak is not total")
    print(
        f"{variant} attack: recovered {report.results['recovered']}, "
        f"leaked {result.leaked_entropy}/{message} symbols{how}"
    )
    return report


def _int_lists(value, length=None) -> bool:
    """Whether value is a list of lists of ints >= 0, each of length (if given)."""
    return isinstance(value, list) and all(
        isinstance(x, list) and length in (None, len(x)) and all(type(v) is int and v >= 0 for v in x)
        for x in value
    )


def cmd_capacity_sweep(args, clock) -> ReportDoc:
    from .eve import EveModel, capacity_cell, capacity_table

    config = _load_config(args)
    code = _make_code(config)
    report = ReportDoc(command="capacity-sweep", config=config)
    if "eve" in config:
        nodes = config["eve"]
        lists = [nodes.get("E", []), nodes.get("F", [])] if isinstance(nodes, dict) else None
        if not _int_lists(lists):
            raise InvalidConfig(f"eve is not an object of node lists E and F: {nodes!r}")
        cells = [capacity_cell(code, EveModel(*map(tuple, lists)))]
    else:
        sweep = config.get("sweep", {})
        if not isinstance(sweep, dict):
            raise InvalidConfig(f"sweep is not an object: {sweep!r}")
        pairs = sweep.get("pairs")
        if pairs is not None and not _int_lists(pairs, 2):
            raise InvalidConfig(f"sweep.pairs is not a list of [l1, l2] >= 0: {pairs!r}")
        cells = capacity_table(code, pairs=pairs)
    rows = capacity_rows(cells)
    report.results = {"variant": code.variant, "cells": rows, "placements": len(rows)}
    for cell in cells:
        if not cell.matches:
            report.fail(
                f"measured {cell.measured} != predicted {cell.predicted} at "
                f"l1={cell.l1} l2={cell.l2} E={cell.E} F={cell.F}"
            )
    print(
        text_table(
            ["l1", "l2", "E", "F", "measured", "predicted", "match"],
            [
                [r["l1"], r["l2"], r["E"] or "-", r["F"] or "-", r["measured"], r["predicted"], r["match"]]
                for r in rows
            ],
        )
    )
    if args.csv:
        write_capacity_csv(args.csv, cells)
    return report


def cmd_verify(args, clock) -> ReportDoc:
    import random
    from fractions import Fraction

    from .entropy import brute_force_entropy, entropy_symbols, observations
    from .eve import bandwidth_comparison, lemma_suite, specific_verifications

    config = _load_config(args)
    code = _make_code(config)
    p = code.params
    report = ReportDoc(command="verify", config=config)

    witness = stability_certificate(code)
    report.results["stability"] = "pass" if witness is None else witness.describe()
    if witness is not None:
        report.fail(f"stability: {witness.describe()}")
        print("stability witness:")
        print(f"  first : C={witness.first_context[0]} D={witness.first_context[1]}")
        print(f"          row {witness.first_row}")
        print(f"  second: C={witness.second_context[0]} D={witness.second_context[1]}")
        print(f"          row {witness.second_row}")

    lemmas = lemma_suite(code, seed=config["seed"])
    report.results["lemmas"] = lemmas.summary()
    for name, chk in lemmas.checks.items():
        if not chk.passed:
            report.fail(f"{name}: {chk.witness}")
    # summed over every call
    ranks = lemmas.counters()

    if code.variant == "stable":
        verif = {}
        for l2 in range(1, p.k):
            for l1 in range(0, p.k - l2):
                res = specific_verifications(code, l1, l2)
                verif[f"l1={l1},l2={l2}"] = res.summary()
                for name, value in res.counters().items():
                    ranks[name] += value
                for name, chk in res.checks.items():
                    if not chk.passed:
                        report.fail(f"verification {name} at (l1={l1},l2={l2}): {chk.witness}")
        report.results["placement_verifications"] = verif
    report.results["lemma_ranks"] = ranks

    # entropy oracle cross-check on seeded random observation sets
    rng = random.Random(config["seed"])
    oracle_cases = 0
    for _ in range(40):
        for q, bmax in ((2, 8), (3, 5)):
            fld = prime_field(q)
            b = rng.randint(1, bmax)
            rows = [
                (f"r{i}", tuple(rng.randrange(q) for _ in range(b)))
                for i in range(rng.randint(0, b + 1))
            ]
            obs = observations(fld, b, rows)
            if brute_force_entropy(obs) != Fraction(entropy_symbols(obs)):
                report.fail(f"entropy oracle mismatch on a random {q}^{b} instance")
            oracle_cases += 1
    report.results["entropy_oracle_cases"] = oracle_cases

    msr, mscr = bandwidth_comparison(p.n, p.k, p.d, p.t, p.B)
    report.results["bandwidth"] = {"msr_total": str(msr), "mscr_total": str(mscr)}
    print(f"bandwidth per {p.t}-failure repair: MSCR {mscr} {'<' if mscr < msr else '='} MSR {msr}")

    for name, chk in lemmas.checks.items():
        print(f"lemma {name}: {'pass' if chk.passed else 'FAIL'} ({chk.checked} cases)")
    print(f"stability: {report.results['stability']}")
    print(f"verify: {'PASS' if report.passed else 'FAIL'}")
    return report


def cmd_secure_verify(args, clock) -> ReportDoc:
    from .secure import scheme_create, verify_secrecy_sweep

    config = _load_config(args)
    if "field" not in config:
        config["field"] = {"m": 4}
    code = _make_code({**config, "variant": "stable"})
    report = ReportDoc(command="secure-verify", config=config)
    l1, l2 = args.l1, args.l2
    scheme = scheme_create(code, l1, l2)
    tower = scheme.ext
    config["tower"] = {
        "base_order": tower.base.order,
        "degree": tower.degree,
        "reduction": list(tower.reduction),  # low degree first
    }
    report.results["secret_symbols"] = scheme.secret_len
    report.results["random_symbols"] = scheme.random_len
    checks = verify_secrecy_sweep(scheme)
    placements = []
    for chk in checks:
        placements.append(
            {
                "E": list(chk.eve.E),
                "F": list(chk.eve.F),
                "observed_rank": chk.observed_rank,
                "mutual_information": chk.mutual_information,
                "pass": chk.passed,
            }
        )
        if not chk.passed:
            report.fail(f"leak at E={chk.eve.E} F={chk.eve.F}: I={chk.mutual_information}")
    report.results["placements"] = placements
    print(
        f"secure mode (l1={l1}, l2={l2}): secret={scheme.secret_len} random={scheme.random_len} "
        f"placements={len(checks)} all-zero-leak={report.passed}"
    )
    return report


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    parse_args keeps no state in the parser between calls (each call fills a
    new Namespace), so main reuses it rather than rebuilding it per command.
    """
    parser = argparse.ArgumentParser(
        prog="coopstore",
        description="cooperative regenerating storage codes with exact secrecy verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, variant_choices=("stable", "code-b")):
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--params", help="code parameters, e.g. n=6,k=3,d=3,t=2")
        sp.add_argument("--field", help="field, e.g. p=11 or m=4[,poly=0x13]")
        sp.add_argument("--seed", type=int, help="PRNG seed (fallback: COOPSTORE_SEED)")
        sp.add_argument("--report", help="write the JSON report here")
        if variant_choices:
            sp.add_argument("--variant", choices=variant_choices)

    sp = sub.add_parser("encode", help="stripe and encode a file into n shard files")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="reconstruct the original file from k shards")
    sp.add_argument("--shard-dir", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--nodes", help="comma-separated node ids to read (default: all present)")
    sp.add_argument("--report", help="write the JSON report here")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("repair", help="regenerate failed nodes' shard files")
    sp.add_argument("--shard-dir", required=True)
    sp.add_argument("--group", required=True, help="failed node ids, e.g. 2,5")
    sp.add_argument("--helpers", help="helper node ids (default: lowest available)")
    sp.add_argument("--report", help="write the JSON report here")
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("attack", help="run an eavesdropping attack demonstration")
    common(sp, variant_choices=("code-a", "code-b"))
    sp.add_argument("--omega", type=int, help="code-a field generator")
    sp.set_defaults(func=cmd_attack)

    sp = sub.add_parser("capacity-sweep", help="measured vs predicted secrecy capacity")
    common(sp)
    sp.add_argument("--csv", help="also write the capacity table as CSV")
    sp.set_defaults(func=cmd_capacity_sweep)

    sp = sub.add_parser("verify", help="lemma suite, stability, oracle and bandwidth checks")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("secure-verify", help="rank-metric precoder zero-leakage sweep")
    common(sp, variant_choices=None)
    sp.add_argument("--l1", type=int, default=1)
    sp.add_argument("--l2", type=int, default=1)
    sp.set_defaults(func=cmd_secure_verify)

    return parser


def _check_report_path(path):
    """Raise, naming path, the OSError that writing a file there would give
    when its parent is missing or not a directory, or it is a directory."""
    directory = os.path.dirname(path) or "."
    try:
        is_dir = stat.S_ISDIR(os.stat(directory).st_mode)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    if not is_dir:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def main(argv=None) -> int:
    """Run one command; its report gets the timings and goes to --report.

    Exit status: 0 when the report passes, 1 when a check in it failed or a
    CoopstoreError other than a ConfigError was raised, 2 on a ConfigError
    or an OSError.  A --report whose directory is missing or not a
    directory, or that names a directory, fails before the command runs
    and leaves no new output or shards; any other failure to write the
    report (an unwritable directory, say) comes after them.
    """
    clock = _Stopwatch()
    args = build_parser().parse_args(argv)
    clock.command = args.command
    try:
        if args.report:
            _check_report_path(args.report)
        report = args.func(args, clock)
        report.timings_ms = clock.timings()
        if args.report:
            report.write_json(args.report)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoopstoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
