"""CLI surface: exit codes, JSON schema, determinism, projections."""

import json
import sys
from fractions import Fraction

import pytest

from polysample import RandomSource
from polysample.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_squash_matrix_golden(capsys):
    code, doc, _ = run_json(capsys, "squash", "matrix", "--k", "2")
    assert code == 0
    unitary = doc["results"]["transform"]["unitary"]
    assert unitary[0][0] == pytest.approx(0.5)
    assert unitary[1][0] == pytest.approx(2**0.5 / 2)
    assert doc["results"]["transform"]["r0"] == pytest.approx(0.5)
    assert doc["results"]["transform"]["r1"] == pytest.approx(1 / 8**0.5)
    assert doc["results"]["unitarity_residual"] <= 1e-9
    assert all(check["passed"] for check in doc["checks"])


def test_poly_rank_example(capsys):
    code, doc, _ = run_json(
        capsys, "poly", "rank", "--family", "permanent", "--n", "3", "--mask", "001010100"
    )
    assert code == 0
    assert doc["results"]["index"] == "5"


def test_poly_unrank_round_trip(capsys):
    code, doc, _ = run_json(
        capsys, "poly", "unrank", "--family", "hamiltonian_cycle", "--n", "4", "--index", "3"
    )
    assert code == 0
    mask = doc["results"]["mask"]
    code2, doc2, _ = run_json(
        capsys, "poly", "rank", "--family", "hamiltonian_cycle", "--n", "4", "--mask", mask
    )
    assert code2 == 0 and doc2["results"]["index"] == "3"


def test_poly_eval_checks_both_routes(capsys):
    code, doc, _ = run_json(
        capsys, "poly", "eval", "--family", "permanent", "--n", "2",
        "--mode", "int", "--bound", "1", "--values", "1,1,1,-1",
    )
    assert code == 0
    assert doc["results"]["value_enumeration"] == "0"


def test_sim_es_self_check_passes(capsys):
    code, doc, _ = run_json(
        capsys, "sim", "es", "--family", "permanent", "--n", "2", "--ell", "2"
    )
    assert code == 0
    assert doc["results"]["tv_vs_analytic"] <= 1e-9


def test_sim_squashed_self_check(capsys):
    code, doc, _ = run_json(
        capsys, "sim", "squashed", "--family", "permanent", "--n", "2", "--k", "2"
    )
    assert code == 0
    assert doc["results"]["amplitude_formula_max_deviation"] <= 1e-9


def test_sim_fold_and_dist_fold_agree(capsys, tmp_path):
    a = tmp_path / "sim.json"
    b = tmp_path / "dist.json"
    code, _, _ = run_cli(
        capsys, "sim", "fold", "--random-bits", "6", "--seed", "5", "--output", str(a)
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "dist", "fold", "--random-bits", "6", "--seed", "5", "--output", str(b)
    )
    assert code == 0
    code, doc, _ = run_json(
        capsys, "tv", "--table-a", str(a), "--table-b", str(b), "--max-tv", "1e-12"
    )
    assert code == 0
    assert doc["results"]["tv"] <= 1e-12


def test_tv_max_violation_exits_one(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "dist", "roots", "--family", "permanent", "--n", "2", "--ell", "2",
            "--output", str(a))
    run_cli(capsys, "dist", "roots", "--family", "hamiltonian_cycle", "--n", "2", "--ell", "2",
            "--output", str(b))
    code, out, err = run_cli(capsys, "tv", "--table-a", str(a), "--table-b", str(b),
                             "--max-tv", "1e-12")
    assert code == 1
    assert "failed checks" in err


def test_tv_rejects_a_non_finite_table(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"radix": 2, "length": 1, "arithmetic": "double", "probs": [float("nan"), 1.0]}))
    code, out, err = run_cli(capsys, "tv", "--table-a", str(a), "--table-b", str(a))
    assert code == 1
    assert out == "" and "non-finite" in err


def test_size_guard_exit_code(capsys):
    code, out, err = run_cli(capsys, "sim", "es", "--family", "permanent", "--n", "6", "--ell", "4")
    assert code == 3
    assert "guard" in err


def test_object_width_squashed_table_exits_three_before_it_is_built(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("table built before the byte guard")

    monkeypatch.setattr("polysample.tables.squashed_points", no_build)
    spec = ["--family", "permanent", "--n", "1", "--k", "80000"]
    for argv in (["dist", "squashed", *spec],
                 ["reduce", "squashed", *spec, "--epsilon", "0.5", "--delta", "0.25", "--trials", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "table numerators of about 802410030 bytes exceed the size guard" in err


def test_squashed_table_past_the_int_to_str_limit_exits_three_before_it_is_built(capsys, monkeypatch):
    # The document writes the denominator 2^K * K (and numerators up to it) in
    # decimal, which Python refuses past its int-to-str digit limit. At the
    # lowest limit, 640 digits, K = 2200 crosses it on a 2201-entry table.
    def no_build(*args, **kwargs):
        raise AssertionError("table built before the digit guard")

    monkeypatch.setattr("polysample.tables.squashed_points", no_build)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, "dist", "squashed", "--family", "permanent", "--n", "1",
                                     "--k", "2200", "--format", fmt)
            assert code == 3 and out == ""
            assert "table denominator has more than 640 decimal digits, the int-to-str limit" in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_squashed_table_just_under_the_int_to_str_limit_is_written(capsys):
    # 2^2100 * 2100 has 636 digits: under the lowest limit, so the document is written.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, doc, _ = run_json(capsys, "dist", "squashed", "--family", "permanent", "--n", "1",
                                "--k", "2100")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    denominator = 2**2100 * 2100
    # class 0 is the value -2100, with one preimage: (-2100)^2 / denominator
    first = Fraction(2100**2, denominator)
    assert doc["results"]["table"]["probs"][0] == f"{first.numerator}/{first.denominator}"
    assert doc["checks"][0]["detail"].endswith(f"2^{{kn}} * Var = {denominator}")


def test_fold_random_bits_are_guarded_before_the_draw(capsys, monkeypatch):
    # --random-bits n asks for a 2^n-entry truth table; past the fold-table guard the
    # command exits 3 before drawing it.
    def no_draw(*args, **kwargs):
        raise AssertionError("truth table drawn before the size guard")

    monkeypatch.setattr(RandomSource, "integers", no_draw)
    for command in ("dist", "sim"):
        for bits in ("21", "64"):
            code, out, err = run_cli(capsys, command, "fold", "--random-bits", bits)
            assert code == 3 and "size guard" in err


def test_config_error_exit_code(capsys):
    # tv on tables of mismatched shape is a configuration problem
    code, out, err = run_cli(capsys, "poly", "eval", "--family", "permanent", "--n", "2",
                             "--mode", "root", "--values", "0,0,0,0")
    assert code == 2
    assert "ell" in err


def test_argparse_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["poly", "rank", "--family", "nope", "--n", "3", "--mask", "1"])
    assert info.value.code == 2


def test_reduce_additive_is_deterministic(capsys):
    argv = ["reduce", "additive", "--family", "permanent", "--n", "2", "--ell", "2",
            "--epsilon", "0.5", "--delta", "0.25", "--trials", "200", "--seed", "17",
            "--records"]
    code_a, doc_a, _ = run_json(capsys, *argv)
    code_b, doc_b, _ = run_json(capsys, *argv)
    assert code_a == code_b == 0
    doc_a.pop("timestamp")
    doc_b.pop("timestamp")
    assert doc_a == doc_b
    assert doc_a["results"]["empirical_failure_rate"] <= 0.25


def test_reduce_squashed_cli(capsys):
    code, doc, _ = run_json(
        capsys, "reduce", "squashed", "--family", "permanent", "--n", "2", "--k", "2",
        "--epsilon", "0.5", "--delta", "0.25", "--trials", "300", "--seed", "3",
    )
    assert code == 0
    assert doc["results"]["beta"] == 0.5 * 0.25 / 16


def test_reduce_lift_cli(capsys):
    code, doc, _ = run_json(
        capsys, "reduce", "lift", "--family", "permanent", "--n", "2", "--k", "2",
        "--epsilon", "0.5", "--delta", "0.25", "--trials", "300", "--seed", "4",
    )
    assert code == 0
    assert doc["results"]["lifted"]["delta_mult"] == 0.5
    assert doc["checks"][0]["name"] == "union_bound_consistency"


def test_anticon_cli(capsys):
    code, doc, _ = run_json(
        capsys, "anticon", "--family", "permanent", "--n", "3", "--ell", "2",
        "--exhaustive", "--thresholds", "0.5,1.0",
    )
    assert code == 0
    assert doc["results"]["zero_rate"] == 0.0


def test_dist_variance_cli(capsys):
    code, doc, _ = run_json(
        capsys, "dist", "variance", "--family", "permanent", "--n", "2", "--k", "2",
        "--samples", "500", "--seed", "9",
    )
    assert code == 0
    assert doc["results"]["closed_form"] == "8"
    assert doc["results"]["binomial_sampling_method"] == "exact-inverse-cdf"


def test_anticon_names_the_binomial_approximation(capsys):
    # k = 20000 is above tables.EXACT_BINOMIAL_GUARD, so the draws are rounded normals.
    code, doc, _ = run_json(
        capsys, "anticon", "--family", "permanent", "--n", "1", "--k", "20000", "--samples", "10",
    )
    assert code == 0
    assert doc["results"]["binomial_sampling_method"] == "rounded-normal"


def test_csv_projection(capsys, tmp_path):
    out = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "dist", "roots", "--family", "permanent", "--n", "2", "--ell", "2",
        "--format", "csv", "--output", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,outcome,probability"
    assert len(lines) == 17


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("POLYSAMPLE_SEED", "123")
    code, doc, _ = run_json(
        capsys, "poly", "info", "--family", "permanent", "--n", "4"
    )
    assert code == 0
    assert doc["seed"] == 123
    assert doc["results"]["num_monomials"] == "24"


def test_dump_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    code, _, _ = run_cli(
        capsys, "sim", "es", "--family", "permanent", "--n", "2", "--ell", "2",
        "--dump-state", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["qudit_dim"] == 2 and len(doc["amps"]) == 16
    assert all(len(pair) == 2 for pair in doc["amps"])


@pytest.mark.parametrize("argv", [
    ["poly", "info", "--family", "permanent", "--n", "3"],
    ["dist", "variance", "--family", "permanent", "--n", "2", "--k", "2", "--samples", "10"],
    ["squash", "matrix", "--k", "2"],
    ["reduce", "lift", "--family", "permanent", "--n", "2", "--k", "2",
     "--epsilon", "0.5", "--delta", "0.25", "--trials", "10"],
    ["tv", "--table-a", "a.json", "--table-b", "b.json"],
])
def test_csv_without_projection_is_rejected_up_front(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its --format was rejected")

    for name in ("_build_spec", "build_squashed_transform", "open"):
        monkeypatch.setattr(f"polysample.cli.{name}", no_work, raising=False)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "csv"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_non_integer_env_seed_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setenv("POLYSAMPLE_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["poly", "info", "--family", "permanent", "--n", "3"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "POLYSAMPLE_SEED" in errors[0]
    # an explicit --seed wins over the broken default
    code, doc, _ = run_json(capsys, "poly", "info", "--family", "permanent", "--n", "3",
                            "--seed", "7")
    assert code == 0 and doc["seed"] == 7



