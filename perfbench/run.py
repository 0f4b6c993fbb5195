#!/usr/bin/env python3
"""coopstore benchmark: the command that BENCHMARK.json names.

    python3 perfbench/run.py --workload file-s1 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Starts one worker process (worker.py)
with COOPSTORE_PURE=1 and ``src`` on PYTHONPATH, waits for it, and prints
two JSON lines: the run's provenance, then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits non-zero
without a result when the checkout has no coopstore sources or the worker
fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="file-s1, sweep-n8 or secure-s1")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = root / "src"
    if not (src / "coopstore" / "cli.py").is_file():
        print("perfbench: no coopstore sources under ./src; run from a checkout root", file=sys.stderr)
        return 2

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "COOPSTORE_NO_EXT")
    }
    env.update(
        COOPSTORE_PURE="1",
        PYTHONPATH=str(src),
        PYTHONPYCACHEPREFIX=str(workdir / "pycache"),
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    for message in doc["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    provenance = dict(doc["provenance"], git_commit=git_commit(root), source_sha256=source_digest(src))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"samples": {
        name: {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
        for name, values in doc["samples"].items()
    }}))
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
