"""Golden CLI documents: every output byte except the timestamp is pinned.

Each case runs one small CLI invocation in a scratch directory and compares
the text it writes byte for byte against ``tests/golden/cli/<case>.json``,
with only the last key's ``"timestamp"`` line removed (and the comma it
leaves after ``checks``). A ``--format csv`` case is compared as raw text
against ``<case>.csv``. Cases that dump a statevector also pin the dumped
file as ``<case>.state.json``. The CLI streams table entries in chunks, and
``test_streamed_writer_matches_one_shot_rendering`` checks that across chunk
boundaries.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py [--case NAME ...] [OUT_DIR]

Without ``--case`` every case is written; with it only the named cases are,
so adding a case leaves the other golden files untouched.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polysample import ProbabilityTable, cli, mixed_radix_digits, permanent, tables
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
    "anticon_mc_hc5_ell2": ["anticon", "--family", "hamiltonian_cycle", "--n", "5", "--ell", "2",
                            "--samples", "3000", "--seed", "11"],
    "anticon_mc_perm3_k2": ["anticon", "--family", "permanent", "--n", "3", "--k", "2",
                            "--samples", "2000", "--seed", "12"],
    "anticon_mc_lift_ell2": ["anticon", "--family", "permanent", "--n", "2", "--lift", "3",
                             "--ell", "2", "--samples", "2000", "--seed", "13"],
    "anticon_mc_perm2_ell3": ["anticon", "--family", "permanent", "--n", "2", "--ell", "3",
                              "--samples", "500", "--seed", "14"],
    "anticon_exhaustive_ell2": ["anticon", "--family", "permanent", "--n", "3", "--ell", "2",
                                "--exhaustive"],
    "reduce_squashed_hc3_k1": ["reduce", "squashed", "--family", "hamiltonian_cycle", "--n", "3",
                               "--k", "1", *_REDUCTION, "--seed", "6"],
    "dist_variance_samples": ["dist", "variance", "--family", "hamiltonian_cycle", "--n", "4", "--k", "2",
                              "--samples", "500", "--seed", "8"],
    "dist_squashed_lift2_k1": ["dist", "squashed", "--family", "permanent", "--n", "2", "--lift", "2",
                               "--k", "1"],
    "dist_roots_perm3_ell2": ["dist", "roots", "--family", "permanent", "--n", "3", "--ell", "2"],
    "dist_roots_perm2_ell3": ["dist", "roots", "--family", "permanent", "--n", "2", "--ell", "3"],
    "dist_roots_hc3_ell2": ["dist", "roots", "--family", "hamiltonian_cycle", "--n", "3", "--ell", "2"],
    "dist_roots_lift3_ell5": ["dist", "roots", "--family", "permanent", "--n", "1", "--lift", "3",
                              "--ell", "5"],
    "dist_roots_perm2_ell6": ["dist", "roots", "--family", "permanent", "--n", "2", "--ell", "6"],
    "sim_fold_values": ["sim", "fold", "--values", "1,-1,-1,-1,1,1,-1,1"],
    # The perturbed tables' common denominators are 3 * 2^56 (past 2^53) and
    # 3 * 2^66 (past 2^63).
    "reduce_squashed_perm3_k1_beta": ["reduce", "squashed", "--family", "permanent", "--n", "3",
                                      "--k", "1", *_REDUCTION, "--beta", "0.05", "--seed", "9"],
    "reduce_squashed_perm3_k1_tiny_beta": ["reduce", "squashed", "--family", "permanent", "--n", "3",
                                           "--k", "1", *_REDUCTION, "--beta", "0.0001", "--seed", "10"],
    "dist_squashed_perm2_k2_csv": ["dist", "squashed", "--family", "permanent", "--n", "2", "--k", "2",
                                   "--format", "csv"],
    "squash_matrix_k2": ["squash", "matrix", "--k", "2"],
    # gamma = 0 keeps every estimate exact: an int64 table (ell = 2), a double
    # table (ell = 3) and an object-width table (denominator 3 * 2^66).
    "reduce_additive_ell2_gamma0": ["reduce", "additive", "--family", "permanent", "--n", "2", "--ell", "2",
                                    *_REDUCTION, "--gamma", "0", "--seed", "18"],
    "reduce_additive_ell3_gamma0": ["reduce", "additive", "--family", "permanent", "--n", "2", "--ell", "3",
                                    *_REDUCTION, "--gamma", "0", "--seed", "19"],
    "reduce_squashed_perm3_k1_tiny_beta_gamma0": ["reduce", "squashed", "--family", "permanent", "--n", "3",
                                                  "--k", "1", *_REDUCTION, "--beta", "0.0001",
                                                  "--gamma", "0", "--seed", "20"],
    # Exact binomial draws at a k far above the other cases' k <= 3.
    "dist_variance_perm2_k3000": ["dist", "variance", "--family", "permanent", "--n", "2", "--k", "3000",
                                  "--samples", "20", "--seed", "3"],
    # k = 40 > 32: each coordinate's exact binomial draw takes two uint32 words.
    # The lift gives three coordinates per trial on a 41^3-entry table.
    "reduce_squashed_perm1_lift3_k40": ["reduce", "squashed", "--family", "permanent", "--n", "1",
                                        "--lift", "3", "--k", "40", *_REDUCTION, "--seed", "21"],
    # A double table's CSV projection: 5^4 rows of float reprs.
    "sim_es_perm2_ell5_csv": ["sim", "es", "--family", "permanent", "--n", "2", "--ell", "5",
                              "--format", "csv"],
    "reduce_squashed_perm2_k2_csv": ["reduce", "squashed", "--family", "permanent", "--n", "2", "--k", "2",
                                     "--epsilon", "0.5", "--delta", "0.25", "--trials", "40",
                                     "--seed", "22", "--format", "csv"],
}


def golden_path(case) -> Path:
    return GOLDEN_DIR / f"{case}.{'csv' if 'csv' in CASES[case] else 'json'}"


# The CLI writes "timestamp" last, so the line before it ends in a comma.
TIMESTAMP_LINE = re.compile(r',\n  "timestamp": "[^"\n]*"\n}\n\Z')


def render(argv) -> tuple[int, str, str | None]:
    """Exit code, written text without the timestamp line (csv: raw text), and dumped state text."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    if "csv" in argv:
        return code, stdout.getvalue(), None
    text, found = TIMESTAMP_LINE.subn("\n}\n", stdout.getvalue())
    assert found == 1, "document does not end in its timestamp line"
    state = None
    if STATE_FILE in argv:
        state = Path(STATE_FILE).read_text()
    return code, text, state


@pytest.mark.parametrize("case", sorted(CASES))
def test_document_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYSAMPLE_SEED", raising=False)
    code, text, state = render(CASES[case])
    assert code == 0
    # Bytes, not read_text: csv rows end in \r\n, which text mode would translate.
    assert text == golden_path(case).read_bytes().decode()
    if state is not None:
        assert state == (GOLDEN_DIR / f"{case}.state.json").read_text()


# The streamed writer against the one-shot renderings it replaces, with the
# chunk shrunk so that small tables cross chunk boundaries.
CHUNK = 4
SHAPES = {1: (3, 0), CHUNK - 1: (3, 1), CHUNK: (2, 2), CHUNK + 1: (5, 1), 2 * CHUNK + 1: (3, 2)}


def _table(arithmetic, size):
    radix, length = SHAPES[size]
    raw = [0] + [3 * i + 2 for i in range(1, size)] if size > 1 else [1]
    if arithmetic == "double":
        probs = np.array(raw, dtype=np.float64) / sum(raw)
        if size > 2:  # move the mass of entry 1 but 1e-20, which renders with an exponent
            probs[-1] += probs[1] - 1e-20
            probs[1] = 1e-20
        return ProbabilityTable(radix, length, probs)
    # object width: every numerator and the denominator lie past 2^64
    scale = 1 if arithmetic == "int64" else (1 << 64) + 1
    numerators = [w * scale for w in raw]
    return ProbabilityTable(radix, length, np.array(numerators, dtype=object), sum(numerators))


def _reference_entries(table):
    if table.arithmetic == "double":
        return table.weights.tolist()
    fractions = (Fraction(int(w), table.denominator) for w in table.weights)
    return [f"{f.numerator}/{f.denominator}" for f in fractions]


def _assert_written_as_one_shot(table, tmp_path, capsys):
    """JSON and CSV, to a file and to stdout, match the renderings of the per-entry reference."""
    entries = _reference_entries(table)
    doc = {"command": "dist roots", "results": {"table": table, "note": "x"}, "checks": []}
    table_doc = {"radix": table.radix, "length": table.length, "arithmetic": table.arithmetic,
                 "probs": entries}
    expected_json = json.dumps({**doc, "results": {"table": table_doc, "note": "x"}}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "outcome", "probability"])
    for i, entry in enumerate(entries):
        writer.writerow([i, ",".join(map(str, mixed_radix_digits(i, table.radix, table.length))), entry])
    expected = {"json": expected_json, "csv": buf.getvalue()}
    for fmt in ("json", "csv"):
        path = tmp_path / f"doc.{fmt}"
        cli._write_output(argparse.Namespace(format=fmt, output=str(path)), doc, table.write_csv)
        assert path.read_bytes().decode() == expected[fmt]
        cli._write_output(argparse.Namespace(format=fmt, output=None), doc, table.write_csv)
        assert capsys.readouterr().out == expected[fmt]


@pytest.mark.parametrize("size", sorted(SHAPES))
@pytest.mark.parametrize("arithmetic", ["double", "int64", "object"])
def test_streamed_writer_matches_one_shot_rendering(arithmetic, size, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tables, "WRITE_CHUNK", CHUNK)
    table = _table(arithmetic, size)
    assert (table.weights.dtype == object) is (arithmetic == "object")
    _assert_written_as_one_shot(table, tmp_path, capsys)


# A writer chunk renders each distinct value once. These tables draw their
# entries from a small pool, repeated within and across chunk boundaries.
_S = (1 << 64) + 1
REPEATED = {
    # -0.0 == 0.0, but the two render differently; both sit in the first chunk.
    "double": [0.0, -0.0, 0.25, 0.125, 0.25, -0.0, 0.125, 0.25, 1e-20],
    # Over 24: 1/12, 1/8, 1/6, 1/4 and 7/24.
    "int64": [0, 2, 3, 4, 3, 2, 0, 3, 7],
    # Over 24 * S: the multiples of S reduce to small fractions, 4S - 1 and
    # 6S + 1 do not.
    "object": [0, 2 * _S, 3 * _S, 4 * _S, 3 * _S, 2 * _S, 0, 4 * _S - 1, 6 * _S + 1],
}


@pytest.mark.parametrize("arithmetic", sorted(REPEATED))
def test_streamed_writer_renders_repeated_values_per_entry(arithmetic, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tables, "WRITE_CHUNK", CHUNK)
    values = REPEATED[arithmetic]
    if arithmetic == "double":
        table = ProbabilityTable(3, 2, np.array(values))
    else:
        table = ProbabilityTable(3, 2, np.array(values, dtype=object), sum(values))
    assert (table.weights.dtype == object) is (arithmetic == "object")
    chunks = list(table.entry_chunks())
    assert len(chunks) > 1
    assert [entry for chunk in chunks for entry in chunk] == list(map(str, _reference_entries(table)))
    _assert_written_as_one_shot(table, tmp_path, capsys)


def test_wide_table_chunks_stay_within_text_budget(tmp_path, capsys):
    # The denominator 2^2000 * 2000 has 607 digits, so 2001 entries of up to
    # 1215 characters would make one WRITE_CHUNK-entry chunk of 2.4 MB.
    table = tables.exact_table_squashed(permanent(1), 2000, as_text=True)
    assert table.weights.dtype == object and table.size < tables.WRITE_CHUNK
    budget = tables.WRITE_CHUNK * tables.INT64_TEXT
    chunks = list(table.entry_chunks())
    assert len(chunks) > 1
    assert all(sum(map(len, chunk)) <= budget for chunk in chunks)
    _assert_written_as_one_shot(table, tmp_path, capsys)


def regenerate(out_dir: Path, names) -> None:
    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ.pop("POLYSAMPLE_SEED", None)
    workdir = out_dir / "_work"
    workdir.mkdir(exist_ok=True)
    os.chdir(workdir)
    for case in names:
        argv = CASES[case]
        code, text, state = render(argv)
        if code != 0:
            raise SystemExit(f"{case} exited {code}")
        (out_dir / golden_path(case).name).write_text(text)
        if state is not None:
            (out_dir / f"{case}.state.json").write_text(state)
            os.remove(STATE_FILE)
    workdir.rmdir()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write golden CLI documents.")
    parser.add_argument("out_dir", nargs="?", type=Path, default=GOLDEN_DIR)
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="write only this case (repeatable); default: every case")
    args = parser.parse_args()
    regenerate(args.out_dir, args.case or list(CASES))
