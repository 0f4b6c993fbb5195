"""Which coopstore functions the traced run wraps, and the per-layer metrics.

Only layer boundaries are wrapped, never per-field-operation calls such
as ``Field.mul``.  Spans give self times; counter-only wrappers (matrix
products and row de-duplication) add call counts without a span, so their
time stays in the enclosing layer.
"""

from __future__ import annotations

import importlib

# name -> unit, in report order.  Every name is reported on every workload;
# a layer a workload does not run reads 0.
PER_LAYER_UNITS = {
    "striping.pack_payload_s": "s",
    "striping.stripe_symbols_s": "s",
    "striping.unpack_payload_s": "s",
    "striping.symbols": "count",
    "shardfile.write_shard_s": "s",
    "shardfile.read_shard_s": "s",
    "shardfile.bytes_written": "bytes",
    "shardfile.bytes_read": "bytes",
    "stable.encode_s": "s",
    "stable.encode_calls": "count",
    "stable.reconstruct_s": "s",
    "stable.reconstruct_calls": "count",
    "stable.cooperative_repair_s": "s",
    "stable.cooperative_repair_calls": "count",
    "stable.transfers_phase1": "count",
    "stable.transfers_phase2": "count",
    "stable.stability_certificate_s": "s",
    "matrix.mul_calls": "count",
    "matrix.inverse_calls": "count",
    "matrix.solve_calls": "count",
    "kernels.solve_s": "s",
    "kernels.solve_calls": "count",
    "kernels.rank_s": "s",
    "kernels.rank_calls": "count",
    "kernels.rank_cells": "count",
    "entropy.self_s": "s",
    "entropy.entropy_symbols_calls": "count",
    "entropy.conditional_entropy_calls": "count",
    "entropy.mutual_information_calls": "count",
    "entropy.rows_in": "count",
    "entropy.rows_unique": "count",
    "entropy.unique_ratio": "ratio",
    "eve.repair_download_rows_s": "s",
    "eve.repair_download_rows_calls": "count",
    "eve.leakage_observations_s": "s",
    "eve.leakage_observations_calls": "count",
    "eve.capacity_table_s": "s",
    "eve.lemma_suite_s": "s",
    "eve.specific_verifications_s": "s",
    "eve.placements": "count",
    "secure.scheme_create_s": "s",
    "secure.verify_secrecy_s": "s",
    "secure.verify_secrecy_self_s": "s",
    "secure.placements": "count",
    "cli.self_s": "s",
    "cli.encode.self_s": "s",
    "cli.decode.self_s": "s",
    "cli.repair.self_s": "s",
    "cli.capacity-sweep.self_s": "s",
    "cli.verify.self_s": "s",
    "cli.secure-verify.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}

# Spans reported as "<layer>.<function>_s" (self time) and, where listed in
# PER_LAYER_UNITS, "<layer>.<function>_calls".
_SPANS = (
    ("striping", "pack_payload"),
    ("striping", "stripe_symbols"),
    ("striping", "unpack_payload"),
    ("shardfile", "write_shard"),
    ("shardfile", "read_shard"),
    ("stable", "StableCode.encode"),
    ("stable", "StableCode.reconstruct"),
    ("stable", "StableCode.cooperative_repair"),
    ("stable", "stability_certificate"),
    ("kernels", "solve"),
    ("kernels", "rank"),
    ("entropy", "entropy_symbols"),
    ("entropy", "conditional_entropy"),
    ("entropy", "mutual_information"),
    ("eve", "repair_download_rows"),
    ("eve", "leakage_observations"),
    ("eve", "capacity_table"),
    ("eve", "lemma_suite"),
    ("eve", "specific_verifications"),
    ("secure", "scheme_create"),
    ("secure", "verify_secrecy"),
)

_COUNTERS = (
    ("matrix", "Mat.mul"),
    ("matrix", "Mat.inverse"),
    ("matrix", "Mat.solve"),
    ("entropy", "ObservationSet.unique_rows"),
)


def _shard_bytes(meta) -> int:
    from coopstore.shardfile import HEADER_SIZE

    return HEADER_SIZE + meta.generations * meta.params.alpha * meta.symbol_width


def _on_pack(counts, args, result):
    counts["striping.symbols"] += len(result)


def _on_unpack(counts, args, result):
    counts["striping.symbols"] += len(args[0])


def _on_write(counts, args, result):
    counts["shardfile.bytes_written"] += _shard_bytes(args[1])


def _on_read(counts, args, result):
    counts["shardfile.bytes_read"] += _shard_bytes(result[0])


def _on_rank(counts, args, result):
    counts["kernels.rank_cells"] += args[1] * args[2]


def _on_unique(counts, args, result):
    counts["entropy.rows_in"] += len(args[0].rows)
    counts["entropy.rows_unique"] += len(result)


def _on_capacity_table(counts, args, result):
    counts["eve.placements"] += len(result)


def _on_verify_secrecy(counts, args, result):
    counts["secure.placements"] += 1


_HOOKS = {
    "striping.pack_payload": _on_pack,
    "striping.unpack_payload": _on_unpack,
    "shardfile.write_shard": _on_write,
    "shardfile.read_shard": _on_read,
    "kernels.rank": _on_rank,
    "entropy.ObservationSet.unique_rows": _on_unique,
    "eve.capacity_table": _on_capacity_table,
    "secure.verify_secrecy": _on_verify_secrecy,
}


def _resolve(layer, dotted):
    """The function object itself; a method is read from its class dict."""
    obj = importlib.import_module(f"coopstore.{layer}")
    owner, _, attr = dotted.rpartition(".")
    if owner:
        obj = getattr(obj, owner)
        return vars(obj)[attr]
    return getattr(obj, attr)


def _metric_name(layer, dotted):
    """Metric prefix of a wrapped function: stable.StableCode.encode -> stable.encode."""
    return f"{layer}.{dotted.rpartition('.')[2]}"


def _cli_span_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def install_layers(tracer) -> None:
    """Wrap every layer boundary; call after coopstore is imported."""
    for wrap, entries in ((tracer.span, _SPANS), (tracer.counter, _COUNTERS)):
        for layer, dotted in entries:
            fn = _resolve(layer, dotted)
            tracer.install(fn, wrap(_metric_name(layer, dotted), fn, _HOOKS.get(f"{layer}.{dotted}")))
    main = _resolve("cli", "main")
    tracer.install(main, tracer.span(_cli_span_name, main))


def layer_metrics(tracer, wall_s: float, transfers: tuple) -> dict:
    """Per-layer metric values of one traced pass (overhead filled in later)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for layer, dotted in _SPANS:
        name = _metric_name(layer, dotted)
        if f"{name}_s" in PER_LAYER_UNITS:
            out[f"{name}_s"] = self_s.get(name, 0.0)
        if f"{name}_calls" in PER_LAYER_UNITS:
            out[f"{name}_calls"] = calls.get(name, 0)
    for name in ("mul", "inverse", "solve"):
        out[f"matrix.{name}_calls"] = calls.get(f"matrix.{name}", 0)
    for key in (
        "striping.symbols",
        "shardfile.bytes_written",
        "shardfile.bytes_read",
        "kernels.rank_cells",
        "entropy.rows_in",
        "entropy.rows_unique",
        "eve.placements",
        "secure.placements",
    ):
        out[key] = counts.get(key, 0)
    rows_in = counts.get("entropy.rows_in", 0)
    out["entropy.unique_ratio"] = counts.get("entropy.rows_unique", 0) / rows_in if rows_in else 0.0
    out["entropy.self_s"] = sum(
        self_s.get(f"entropy.{fn}", 0.0)
        for fn in ("entropy_symbols", "conditional_entropy", "mutual_information")
    )
    # the one inclusive time: verify_secrecy with its rank calls
    out["secure.verify_secrecy_s"] = tracer.total_s.get("secure.verify_secrecy", 0.0)
    out["secure.verify_secrecy_self_s"] = self_s.get("secure.verify_secrecy", 0.0)
    cli_names = [n for n in self_s if n.startswith("cli.")]
    for name in cli_names:
        if f"{name}.self_s" not in PER_LAYER_UNITS:
            raise RuntimeError(f"untracked CLI command span {name}")
    for cmd in ("encode", "decode", "repair", "capacity-sweep", "verify", "secure-verify"):
        out[f"cli.{cmd}.self_s"] = self_s.get(f"cli.{cmd}", 0.0)
    out["cli.self_s"] = sum(self_s[n] for n in cli_names)
    out["stable.transfers_phase1"], out["stable.transfers_phase2"] = transfers
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_s"] = tracer.self_sum()
    missing = set(PER_LAYER_UNITS) - set(out) - {"trace.overhead_s"}
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
