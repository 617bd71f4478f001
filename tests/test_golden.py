"""Golden CLI documents: every output byte except the timestamp is pinned.

Each case runs one small CLI invocation in a scratch directory and compares
its JSON document (timestamp removed, re-serialized the way the CLI writes
it) byte for byte against ``tests/golden/cli/<case>.json``. Cases that dump
a statevector also pin the dumped file as ``<case>.state.json``.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from polysample.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
STATE_FILE = "state.json"

_REDUCTION = ["--epsilon", "0.5", "--delta", "0.25", "--trials", "40", "--records"]

CASES = {
    "dist_squashed_perm2_k3": ["dist", "squashed", "--family", "permanent", "--n", "2", "--k", "3"],
    "dist_squashed_hc3_k1": ["dist", "squashed", "--family", "hamiltonian_cycle", "--n", "3", "--k", "1"],
    "reduce_additive_ell2": ["reduce", "additive", "--family", "permanent", "--n", "2", "--ell", "2",
                             *_REDUCTION, "--seed", "17"],
    "reduce_additive_ell3": ["reduce", "additive", "--family", "permanent", "--n", "2", "--ell", "3",
                             *_REDUCTION, "--seed", "5"],
    "reduce_squashed_k2": ["reduce", "squashed", "--family", "permanent", "--n", "2", "--k", "2",
                           *_REDUCTION, "--seed", "3"],
    "reduce_lift_k2": ["reduce", "lift", "--family", "permanent", "--n", "2", "--k", "2",
                       *_REDUCTION, "--seed", "4"],
    "anticon_exhaustive_k2": ["anticon", "--family", "permanent", "--n", "3", "--k", "2",
                              "--exhaustive"],
    "anticon_exhaustive_k2_enumeration": ["anticon", "--family", "hamiltonian_cycle", "--n", "3",
                                          "--k", "2", "--exhaustive", "--evaluator", "enumeration"],
    "sim_squashed_dump_state": ["sim", "squashed", "--family", "permanent", "--n", "2", "--k", "2",
                                "--dump-state", STATE_FILE],
    "dist_fold_random": ["dist", "fold", "--random-bits", "6", "--seed", "5"],
    "dist_fold_values": ["dist", "fold", "--values", "1,-1,-1,-1,1,1,-1,1"],
    "sim_es_ell3": ["sim", "es", "--family", "permanent", "--n", "2", "--ell", "3"],
}


def render(argv) -> tuple[int, str, str | None]:
    """Exit code, document text without its timestamp, and dumped state text."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    doc = json.loads(stdout.getvalue())
    doc.pop("timestamp")
    state = None
    if STATE_FILE in argv:
        state = Path(STATE_FILE).read_text()
    return code, json.dumps(doc, indent=2) + "\n", state


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYSAMPLE_SEED", raising=False)
    code, text, state = render(CASES[case])
    assert code == 0
    assert text == (GOLDEN_DIR / f"{case}.json").read_text()
    if state is not None:
        assert state == (GOLDEN_DIR / f"{case}.state.json").read_text()


def regenerate(out_dir: Path) -> None:
    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ.pop("POLYSAMPLE_SEED", None)
    workdir = out_dir / "_work"
    workdir.mkdir(exist_ok=True)
    os.chdir(workdir)
    for case, argv in CASES.items():
        code, text, state = render(argv)
        if code != 0:
            raise SystemExit(f"{case} exited {code}")
        (out_dir / f"{case}.json").write_text(text)
        if state is not None:
            (out_dir / f"{case}.state.json").write_text(state)
            os.remove(STATE_FILE)
    workdir.rmdir()


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR)
