"""Correctness gate: every benchmarked command's output is checked here.

Each check returns a list of failure messages (empty means pass).  The
Gate counts one attempted operation per checked command and one failure
per command whose check returned any message.  The expected values are
computed here from closed forms, not read back from the program.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

LENGTH_PREFIX_BYTES = 8
SHARD_HEADER_BYTES = 52


@dataclass(frozen=True)
class FileCode:
    """A stable code over GF(p) at d = k, beta = 1, as the file block uses it."""

    n: int
    k: int
    t: int
    p: int

    @property
    def d(self):
        return self.k

    @property
    def B(self):
        return self.k * (self.d - self.k + self.t)

    @property
    def alpha(self):
        return self.B // self.k

    @property
    def symbol_bits(self):
        return self.p.bit_length() - 1

    @property
    def symbol_width(self):
        return max(1, ((self.p - 1).bit_length() + 7) // 8)

    def generations(self, nbytes: int) -> int:
        symbols = math.ceil((nbytes + LENGTH_PREFIX_BYTES) * 8 / self.symbol_bits)
        return math.ceil(symbols / self.B)

    def transfers(self, nbytes: int) -> tuple:
        """(phase-1, phase-2) symbols moved by one t-failure repair of the file."""
        gens = self.generations(nbytes)
        return self.t * self.d * gens, self.t * (self.t - 1) * gens

    def storage_bytes(self, nbytes: int) -> int:
        """Total size of the n shard files."""
        gens = self.generations(nbytes)
        return self.n * (SHARD_HEADER_BYTES + self.alpha * self.symbol_width * gens)


def placements(n: int, l1: int, l2: int) -> int:
    """Disjoint (E, F) placements with |E| = l1, |F| = l2 among n nodes."""
    return math.comb(n, l2) * math.comb(n - l2, l1)


def sweep_pairs(k: int):
    return [(l1, tot - l1) for tot in range(k) for l1 in range(tot + 1)]


def closed_form_capacity(k, d, t, l1, l2) -> int:
    """(k - l1 - l2)(alpha - l2) at beta = 1 for l2 <= t; 0 when d = k and l2 >= t."""
    alpha = d - k + t
    if l2 == 0:
        return (k - l1) * alpha
    if d == k and l2 >= t:
        return 0
    return (k - l1 - l2) * (alpha - l2)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_exit(rc: int) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


def check_bytes(what: str, expected: bytes, got: bytes) -> list:
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"{what}: {len(got)} bytes, expected {len(expected)}"]
    first = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return [f"{what}: differs from the reference at byte {first}"]


def check_encode(out: str, code: FileCode, nbytes: int) -> list:
    expect = f"encoded {nbytes} bytes into {code.n} shards x {code.generations(nbytes)} generations"
    return [] if expect in out else [f"encode output lacks {expect!r}"]


def parse_transfers(out: str):
    """(phase1, phase2) from the repair command's output, or None."""
    found = re.search(r"phase1=(\d+) phase2=(\d+)", out)
    return (int(found[1]), int(found[2])) if found else None


def check_transfers(got, code: FileCode, nbytes: int) -> list:
    expect = code.transfers(nbytes)
    if got != expect:
        return [f"repair transfers {got}, closed form t*d*gens, t(t-1)*gens = {expect}"]
    return []


def check_storage(total_bytes: int, code: FileCode, nbytes: int) -> list:
    expect = code.storage_bytes(nbytes)
    if total_bytes != expect:
        return [f"shards hold {total_bytes} bytes, closed form {expect}"]
    return []


def check_capacity_report(report: dict, n: int, k: int, d: int, t: int) -> list:
    fails = []
    if report.get("pass") is not True or report.get("failures"):
        fails.append("capacity-sweep report does not pass")
    cells = report.get("results", {}).get("cells", [])
    expect = sum(placements(n, l1, l2) for l1, l2 in sweep_pairs(k))
    if len(cells) != expect:
        fails.append(f"capacity-sweep has {len(cells)} cells, expected {expect}")
    for cell in cells:
        want = closed_form_capacity(k, d, t, cell["l1"], cell["l2"])
        if cell.get("match") is not True or cell["measured"] != want or cell["predicted"] != want:
            fails.append(
                f"cell l1={cell['l1']} l2={cell['l2']} E={cell['E']} F={cell['F']}: "
                f"measured {cell['measured']}, predicted {cell['predicted']}, closed form {want}"
            )
            break
    return fails


def check_verify_report(report: dict) -> list:
    fails = []
    if report.get("pass") is not True or report.get("failures"):
        fails.append(f"verify report does not pass: {report.get('failures')}")
    results = report.get("results", {})
    if results.get("stability") != "pass":
        fails.append(f"stability: {results.get('stability')}")
    lemmas = results.get("lemmas", {})
    if not lemmas or not all(c.get("passed") and c.get("checked", 0) > 0 for c in lemmas.values()):
        fails.append("a lemma failed or checked nothing")
    return fails


def check_secure_report(report: dict, n: int, l1: int, l2: int) -> list:
    fails = []
    if report.get("pass") is not True or report.get("failures"):
        fails.append("secure-verify report does not pass")
    rows = report.get("results", {}).get("placements", [])
    expect = placements(n, l1, l2)
    if len(rows) != expect:
        fails.append(f"secure-verify has {len(rows)} placements, expected {expect}")
    leaks = [r for r in rows if r.get("mutual_information") != 0]
    if leaks:
        fails.append(f"{len(leaks)} placements leak, first E={leaks[0]['E']} F={leaks[0]['F']}")
    return fails


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, what: str, failures: list) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {msg}" for msg in failures)
        return not failures

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
