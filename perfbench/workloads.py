"""The benchmark's workloads: one fixed polysample CLI command each, and its verifier.

Why each workload is here, and which layers it exercises, is written up in
NOTES.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    seeded: bool  # the command draws random numbers and takes --seed
    family: str
    n: int
    check: Callable[[dict], list[str]]  # workload-specific problems in a document

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)] if self.seeded else list(self.args)

    def evaluate_ops_per_call(self) -> int:
        """Kernel operations of one evaluator call (computed, not measured)."""
        if self.family == "permanent":
            return (2**self.n - 1) * 2 * self.n  # Ryser over Gray-code column subsets
        return 2 ** (self.n - 1) * (self.n - 1) ** 2  # Held-Karp subset DP


def _check_squashed_table(doc: dict) -> list[str]:
    table = doc["results"]["table"]
    problems = _table_shape(table, radix=4, length=9, arithmetic="rational")
    if problems:
        return problems
    pairs = [tuple(int(part) for part in entry.split("/")) for entry in table["probs"]]
    if any(p < 0 or q <= 0 for p, q in pairs):
        return ["table has a negative or malformed entry"]
    common = math.lcm(*{q for _, q in pairs})
    total = Fraction(sum(p * (common // q) for p, q in pairs), common)
    return [] if total == 1 else [f"exact entries sum to {total}, not 1"]


def _check_roots_sim(doc: dict) -> list[str]:
    results = doc["results"]
    problems = _table_shape(results["table"], radix=5, length=9, arithmetic="double")
    if problems:
        return problems
    probs = results["table"]["probs"]
    if min(probs) < 0:
        problems.append("table has a negative entry")
    drift = abs(math.fsum(probs) - 1.0)
    if drift > 1e-9:
        problems.append(f"entries sum to 1 + {drift:.3e}")
    if not results["tv_vs_analytic"] <= 1e-9:
        problems.append(f"tv_vs_analytic {results['tv_vs_analytic']} above 1e-9")
    return problems


def _check_squashed_reduction(doc: dict) -> list[str]:
    results = doc["results"]
    problems = []
    if results["trials"] != 100000:
        problems.append(f"echoed trials {results['trials']}, not 100000")
    elif not results["failure_count"] / results["trials"] <= results["delta"]:
        problems.append(f"failure rate {results['failure_count']}/{results['trials']} above delta")
    return problems


ANTICON_THRESHOLDS = [0.5, 0.25, 0.125, 0.0625]


def _check_cycle_anticon(doc: dict) -> list[str]:
    results = doc["results"]
    rows = sorted(results["rows"], key=lambda r: r["inv_p"])
    problems = []
    if results["samples"] != 50000:
        problems.append(f"echoed samples {results['samples']}, not 50000")
    if [r["inv_p"] for r in rows] != sorted(ANTICON_THRESHOLDS):
        problems.append("rows do not match the thresholds one to one")
    for r in rows:
        if not r["ci_low"] <= r["rate"] <= r["ci_high"]:
            problems.append(f"rate {r['rate']} outside [{r['ci_low']}, {r['ci_high']}]")
    if any(a["rate"] > b["rate"] for a, b in zip(rows, rows[1:])):
        problems.append("rates are not monotone in the threshold")
    return problems


def _table_shape(table: dict, radix: int, length: int, arithmetic: str) -> list[str]:
    if (table["radix"], table["length"], table["arithmetic"]) != (radix, length, arithmetic):
        return [f"table is {table['arithmetic']} {table['radix']}^{table['length']}"]
    if len(table["probs"]) != radix**length:
        return [f"table has {len(table['probs'])} entries, not {radix}^{length}"]
    return []


WORKLOADS = {
    w.name: w
    for w in [
        Workload("squashed-table", ("dist", "squashed", "--family", "permanent", "--n", "3", "--k", "3"),
                 False, "permanent", 3, _check_squashed_table),
        Workload("roots-sim", ("sim", "es", "--family", "permanent", "--n", "3", "--ell", "5"),
                 False, "permanent", 3, _check_roots_sim),
        Workload("squashed-reduction",
                 ("reduce", "squashed", "--family", "permanent", "--n", "3", "--k", "2",
                  "--epsilon", "0.25", "--delta", "0.125", "--trials", "100000"),
                 True, "permanent", 3, _check_squashed_reduction),
        Workload("cycle-anticon",
                 ("anticon", "--family", "hamiltonian_cycle", "--n", "6", "--ell", "2",
                  "--samples", "50000"),
                 True, "hamiltonian_cycle", 6, _check_cycle_anticon),
    ]
}


TIMESTAMP_LINE = re.compile(rb'^  "timestamp": "[^"\n]*",?\n', re.MULTILINE)


def verify_output(workload: Workload, path, seed: int) -> tuple[list[str], str | None]:
    """Problems found in one written document, and its digest without ``timestamp``.

    The digest is sha256 over the document's bytes without its top-level
    ``timestamp`` line, so two commits that write byte-identical documents
    (timestamps excluded) give the same digest.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"unreadable document: {exc}"], None
    digest = hashlib.sha256(TIMESTAMP_LINE.sub(b"", raw)).hexdigest()
    try:
        checks = doc["checks"]
        problems = [f"check {c['name']} failed" for c in checks if c["passed"] is not True]
        if not checks:
            problems.append("document has no checks")
        if workload.seeded and doc["seed"] != seed:
            problems.append(f"document seed {doc['seed']}, not {seed}")
        problems += workload.check(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems = [f"malformed document: {exc!r}"]
    return problems, digest
