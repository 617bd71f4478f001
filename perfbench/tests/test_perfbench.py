"""Tests of the benchmark itself: span arithmetic, output verifiers and tracing.

Run from the repository root with: python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload, verify_output  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_subtracts_direct_children_and_clips_them_to_the_parent():
    # root [0, 10] has children a [1, 4], b [5, 9] and d [9.5, 12]; d runs
    # past root's end, so only 0.5 s of it counts against root. b has child c.
    parent = np.array([-1, 0, 0, 2, 0])
    start = np.array([0.0, 1.0, 5.0, 6.0, 9.5])
    end = np.array([10.0, 4.0, 9.0, 8.0, 12.0])
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [2.5, 3.0, 2.0, 2.0, 2.5])


def test_layer_metrics_group_self_time_and_counts():
    names = ["cli.main", "reductions.run_squashed_reduction", "evaluate.evaluate_values_fast",
             "tables.exact_table_squashed", "rng.RandomSource.randbits"]
    groups = ["cli", "reductions", "evaluate", "tables.build", "rng"]
    # main > run_squashed_reduction > {table build > evaluate, evaluate (truth), randbits}
    spans = {
        "names": names,
        "groups": groups,
        "name_id": np.array([0, 1, 3, 2, 2, 4]),
        "parent": np.array([-1, 0, 1, 2, 1, 1]),
        "start": np.array([0.0, 1.0, 1.0, 1.5, 5.0, 6.0]),
        "end": np.array([10.0, 8.0, 4.0, 2.5, 5.5, 6.25]),
        "work": np.array([0, 0, 27, 0, 0, 0]),
    }
    m = tracer.layer_metrics(spans, evaluate_ops_per_call=42)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["reductions.self_s"] == pytest.approx(7.0 - 3.0 - 0.5 - 0.25)
    assert m["tables.build_s"] == pytest.approx(2.0)
    assert m["evaluate.self_s"] == pytest.approx(1.5)
    assert (m["evaluate.calls"], m["evaluate.ops"], m["reductions.truth_evals"]) == (2, 84, 1)
    assert (m["rng.draws"], m["tables.entries"], m["trace.spans"]) == (1, 27, 6)
    assert m["trace.root_s"] == pytest.approx(10.0)


def test_per_layer_takes_medians_over_traced_calls_and_keeps_counts_whole():
    def traced(count, seconds, wall):
        layers = {name: count if unit != "s" else seconds for name, unit in run.PER_LAYER_UNITS.items()}
        layers.update({"reductions.truth_hit_ratio": 0.5, "trace.root_s": wall / 2})
        return run.Call(0, wall, 50.0, 100, [], "d", layers)

    plain = run.Call(0, 1.0, 40.0, 100, [], "d")
    values, samples = run.per_layer([plain], [traced(3, 1.0, 2.0), traced(4, 2.0, 2.0)])
    assert values["evaluate.calls"] == 3 and isinstance(values["evaluate.calls"], int)
    assert values["evaluate.self_s"] == pytest.approx(1.5)
    assert values["trace.overhead_s"] == pytest.approx(1.0)
    assert values["trace.uncovered_frac"] == pytest.approx(0.5)
    assert list(values) == list(run.PER_LAYER_UNITS)
    assert samples["evaluate.calls"] == 2 and samples["trace.untraced_wall_s"] == 1


def _squashed_table_doc():
    return {
        "command": "dist squashed",
        "params": {},
        "seed": 0,
        "results": {"table": {"radix": 4, "length": 9, "arithmetic": "rational",
                              "probs": ["1/262144"] * 4**9}},
        "checks": [{"name": "normalization_identity", "passed": True, "detail": ""}],
        "timestamp": "2026-01-01T00:00:00",
    }


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize("corruption", ["flipped_check", "wrong_entry_count", "entry_changed", "truncated"])
def test_verifier_counts_a_corrupted_document_as_failed(tmp_path, corruption):
    workload = WORKLOADS["squashed-table"]
    doc = _squashed_table_doc()
    good = tmp_path / "good.json"
    _write(good, doc)
    assert verify_output(workload, good, 0)[0] == []

    bad = tmp_path / "bad.json"
    if corruption == "flipped_check":
        doc["checks"][0]["passed"] = False
    elif corruption == "wrong_entry_count":
        doc["results"]["table"]["probs"].pop()
    elif corruption == "entry_changed":
        doc["results"]["table"]["probs"][7] = "2/262144"
    _write(bad, doc)
    if corruption == "truncated":
        bad.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
    problems, _ = verify_output(workload, bad, 0)
    assert problems

    call = run.Call(0, 1.0, 10.0, bad.stat().st_size, problems, None)
    ok = run.Call(0, 1.0, 10.0, good.stat().st_size, [], None)
    values, _ = run.end_to_end([ok, call], setup_walls=[0.2])
    assert values["ok_frac"] == 0.5


def test_anticon_verifier_rejects_a_rate_outside_its_interval(tmp_path):
    rows = [{"inv_p": t, "cutoff": 1.0, "rate": t / 10, "ci_low": t / 20, "ci_high": t / 5, "hits": 1}
            for t in (0.5, 0.25, 0.125, 0.0625)]
    doc = {"seed": 3, "results": {"samples": 50000, "rows": rows},
           "checks": [{"name": "tail_monotone_in_threshold", "passed": True, "detail": ""}]}
    path = tmp_path / "anticon.json"
    _write(path, doc)
    assert verify_output(WORKLOADS["cycle-anticon"], path, 3)[0] == []
    rows[0]["rate"] = 0.9
    _write(path, doc)
    assert verify_output(WORKLOADS["cycle-anticon"], path, 3)[0]


def test_digest_ignores_only_the_timestamp(tmp_path):
    workload = WORKLOADS["squashed-table"]
    doc = _squashed_table_doc()
    paths = [tmp_path / f"{i}.json" for i in range(3)]
    _write(paths[0], doc)
    doc["timestamp"] = "2027-12-31T23:59:59"
    _write(paths[1], doc)
    doc["seed"] = 1
    _write(paths[2], doc)
    digests = [verify_output(workload, p, 0)[1] for p in paths]
    assert digests[0] == digests[1] != digests[2]


def _bindings():
    import polysample.samplers  # noqa: F401  (every traced module is loaded)

    out = {}
    for mod in tracer._polysample_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type):
                out.update({(mod.__name__, attr, k): id(v) for k, v in vars(value).items()})
    return out


def test_wrappers_are_removed_after_a_traced_call(tmp_path):
    import polysample.cli
    import polysample.tables

    before = _bindings()
    original = polysample.tables.evaluate_values_fast
    t = tracer.Tracer()
    t.install()
    try:
        assert polysample.tables.evaluate_values_fast is not original
        assert polysample.cli.evaluate_values_fast is polysample.tables.evaluate_values_fast
        code = polysample.cli.main(["dist", "squashed", "--family", "permanent", "--n", "2",
                                    "--k", "1", "--output", str(tmp_path / "doc.json")])
    finally:
        t.uninstall()
    assert code == 0
    assert _bindings() == before
    m = tracer.layer_metrics(t.spans(), evaluate_ops_per_call=1)
    assert (m["evaluate.calls"], m["tables.entries"]) == (16, 16)


@pytest.fixture
def launcher():
    with run.Launcher() as launcher:
        yield launcher


def test_peak_rss_is_the_childs_own_when_the_runner_has_grown(tmp_path, launcher):
    ballast = b"x" * (300 << 20)  # the runner now holds 300 MB more than any child
    code, _, rss_mb = launcher.spawn([sys.executable, "-c", "pass"], tmp_path, "tiny")
    assert len(ballast) and code == 0
    assert rss_mb < 100


TINY = [
    ("reduce", "squashed", "--family", "permanent", "--n", "2", "--k", "1",
     "--epsilon", "0.25", "--delta", "0.125", "--trials", "300"),
    ("sim", "es", "--family", "permanent", "--n", "2", "--ell", "3"),
]


@pytest.mark.parametrize("args", TINY, ids=["reduce", "sim"])
def test_traced_and_untraced_calls_write_the_same_document(tmp_path, launcher, args):
    workload = Workload("tiny", args, args[0] == "reduce", "permanent", 2, lambda doc: [])
    argv = workload.argv(seed=5)
    plain = run.run_call(launcher, workload, argv, 5, tmp_path, 0, traced=False)
    traced = run.run_call(launcher, workload, argv, 5, tmp_path, 1, traced=True)
    assert plain.problems == traced.problems == []
    assert plain.digest == traced.digest is not None
    if args[0] == "reduce":
        assert traced.layers["reductions.trials"] == 300
        assert traced.layers["statevector.gate_passes"] == 0
    else:
        assert traced.layers["statevector.gate_passes"] == 4
        assert traced.layers["statevector.amplitudes"] == 3**4
        assert traced.layers["evaluate.calls"] == 0
