"""Layer spans for the traced run: wrappers around polysample's public functions.

``Tracer.install`` replaces each function named in ``TARGETS`` with a timing
wrapper, in every ``polysample`` module that bound it (``evaluate_values_fast``
is imported into ``tables``, ``reductions``, ``anticoncentration``, ``cli`` and
the package itself) or on its class for methods. Each call of a wrapped
function records one span: its name, start, end, the span that was open when
it started, and an optional work size taken from its result. Spans stay in
memory; ``save`` writes them out once, and ``uninstall`` puts every original
back. The analysis half of this module turns saved spans into the per-layer
metrics.

Wrapped calls in one process are strictly nested (the program is single
threaded), so a span's children never overlap one another and its self time
is its duration minus the clipped durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (group, module under polysample, attribute path). A group is the unit the
# per-layer metrics report; its time is the self time of its spans.
TARGETS = [
    ("cli", "cli", "main"),
    ("evaluate", "evaluate", "evaluate_values_fast"),
    ("evaluate", "evaluate", "evaluate_fast"),
    ("evaluate", "evaluate", "evaluate_values_by_enumeration"),
    ("evaluate", "evaluate", "evaluate_by_enumeration"),
    ("families", "families", "permanent"),
    ("families", "families", "hamiltonian_cycle"),
    ("families", "families", "lift_k_equivalent"),
    ("families", "families", "spec_from_json"),
    ("families", "families", "collapse_assignment"),
    ("families", "families", "monomial_of_index"),
    ("families", "families", "index_of_monomial"),
    ("families", "families", "mask_to_string"),
    ("families", "families", "mask_from_string"),
    ("families", "families", "Assignment.roots"),
    ("families", "families", "Assignment.integers"),
    ("families", "families", "Assignment.numeric_values"),
    ("tables.build", "tables", "exact_table_roots"),
    ("tables.build", "tables", "exact_table_squashed"),
    ("tables.build", "tables", "exact_table_fold"),
    ("tables.normalize", "tables", "ProbabilityTable.validate_normalization"),
    ("tables.to_json", "tables", "ProbabilityTable.to_json_dict"),
    ("tables.tv", "tables", "tv_distance"),
    ("tables.binomial", "tables", "sample_binomial_value"),
    ("tables.other", "tables", "orbit_weight"),
    ("tables.other", "tables", "variance"),
    ("tables.other", "tables", "sample_binomial_assignment"),
    ("tables.other", "tables", "sample_from_table"),
    ("tables.other", "tables", "mixed_radix_index"),
    ("tables.other", "tables", "mixed_radix_digits"),
    ("tables.other", "tables", "ProbabilityTable.as_floats"),
    ("tables.other", "tables", "ProbabilityTable.from_json_dict"),
    ("tables.other", "tables", "ProbabilityTable.write_csv"),
    ("rng", "rng", "RandomSource.__init__"),
    ("rng", "rng", "RandomSource.random"),
    ("rng", "rng", "RandomSource.uniform"),
    ("rng", "rng", "RandomSource.integers"),
    ("rng", "rng", "RandomSource.normal"),
    ("rng", "rng", "RandomSource.randbits"),
    ("rng", "rng", "as_random_source"),
    ("samplers.perturb", "samplers", "make_perturbed_sampler"),
    ("samplers.query", "samplers", "SamplerHandle.estimate_probability"),
    ("samplers.query", "samplers", "SamplerHandle.probability"),
    ("samplers.query", "samplers", "SamplerHandle.draw"),
    ("samplers.query", "counting", "noisy_scale"),
    ("reductions", "reductions", "run_roots_reduction"),
    ("reductions", "reductions", "run_squashed_reduction"),
    ("reductions", "reductions", "additive_estimator"),
    ("reductions", "reductions", "squashed_additive_estimator"),
    ("reductions", "reductions", "multiplicative_lift"),
    ("anticoncentration", "anticoncentration", "anticoncentration_experiment"),
    ("anticoncentration", "anticoncentration", "_draw_squared_value"),
    ("anticoncentration", "anticoncentration", "_exhaustive_points"),
    ("anticoncentration", "anticoncentration", "wilson_interval"),
    ("statevector.prepare", "statevector", "prepare_monomial_superposition"),
    ("statevector.gate", "statevector", "apply_qft"),
    ("statevector.gate", "statevector", "apply_single_qudit_gate"),
    ("statevector.gate", "statevector", "qft_matrix"),
    ("statevector.measure", "statevector", "measurement_distribution"),
    ("statevector.other", "statevector", "StateVector.norm"),
    ("statevector.other", "statevector", "StateVector.validate_norm"),
    ("statevector.other", "statevector", "StateVector.to_json_dict"),
    ("statevector.other", "statevector", "run_roots_sampler_circuit"),
    ("statevector.other", "statevector", "run_squashed_sampler_circuit"),
    ("statevector.other", "statevector", "run_fold_sampler_circuit"),
]

# Work size recorded from a span's result: table entries built, amplitudes
# prepared, and complex multiply-adds of one gate pass (qudit_dim * size).
WORK = {
    "tables.exact_table_roots": lambda table: table.size,
    "tables.exact_table_squashed": lambda table: table.size,
    "tables.exact_table_fold": lambda table: table.size,
    "statevector.prepare_monomial_superposition": lambda state: state.size,
    "statevector.apply_single_qudit_gate": lambda state: state.qudit_dim * state.size,
}

RNG_DRAWS = {f"rng.RandomSource.{m}" for m in ("random", "uniform", "integers", "normal", "randbits")}
SAMPLER_QUERIES = {f"samplers.SamplerHandle.{m}" for m in ("estimate_probability", "probability", "draw")}
ASSIGNMENTS = {"families.Assignment.roots", "families.Assignment.integers"}
TRIALS = {"reductions.additive_estimator", "reductions.squashed_additive_estimator"}
REDUCTION_RUNS = {"reductions.run_roots_reduction", "reductions.run_squashed_reduction"}
COMPLEX128_BYTES = 16


class Tracer:
    """Records spans of wrapped calls in the current process."""

    def __init__(self):
        self.names: list[str] = []  # span name table, indexed by name id
        self.groups: list[str] = []
        self._name_ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._works = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for group, module_name, path in TARGETS:
            module = importlib.import_module(f"polysample.{module_name}")
            name = f"{module_name}.{path}"
            name_id = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name_id, WORK.get(name)))
                else:
                    new = self._wrap(raw, name_id, WORK.get(name))
                self._patch(cls, attr, raw, new)
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, name_id, WORK.get(name))
                for mod in _polysample_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, new) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def _wrap(self, fn, name_id, work_of):
        clock, stack = time.perf_counter, self._stack
        name_ids, parents, starts, ends, works = (
            self._name_ids, self._parents, self._starts, self._ends, self._works
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            works.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if work_of is not None:
                works[sid] = work_of(result)
            return result

        return wrapper

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "groups": list(self.groups),
            "name_id": np.frombuffer(self._name_ids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self._starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self._ends, dtype=np.float64).copy(),
            "work": np.frombuffer(self._works, dtype=np.int64).copy(),
        }

    def save(self, path, call_id: str) -> None:
        """Write every span of this call; all of them share ``call_id``."""
        spans = self.spans()
        meta = {"call_id": call_id, "names": spans.pop("names"), "groups": spans.pop("groups")}
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **spans)


def _polysample_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polysample" or name.startswith("polysample."))]


def load_spans(path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in ("name_id", "parent", "start", "end", "work")}
        meta = json.loads(str(data["meta"]))
    spans.update(meta)
    return spans


# ---------------------------------------------------------------------------
# analysis


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its direct children cover."""
    self_s = end - start
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    covered = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
    np.subtract.at(self_s, p, np.clip(covered, 0.0, None))
    return self_s


def layer_metrics(spans: dict, evaluate_ops_per_call: int) -> dict:
    """Per-layer counts and self times of one traced call.

    ``evaluate_ops_per_call`` is the computed kernel operation count of one
    evaluator call for the workload's family and size.
    """
    names = np.array(spans["names"], dtype=object)
    groups = np.array(spans["groups"], dtype=object)
    name_id, parent, work = spans["name_id"], spans["parent"], spans["work"]
    span_name, span_group = names[name_id], groups[name_id]
    has_parent = parent >= 0
    parent_or_0 = np.where(has_parent, parent, 0)
    parent_name = np.where(has_parent, span_name[parent_or_0], "")
    parent_group = np.where(has_parent, span_group[parent_or_0], "")
    self_s = self_times(parent, spans["start"], spans["end"])

    def group_self(group):
        return float(self_s[span_group == group].sum())

    def count(mask):
        return int(np.count_nonzero(mask))

    def named(name_set, of=span_name):
        return np.isin(of, sorted(name_set))

    evaluate = span_group == "evaluate"
    evaluate_calls = count(evaluate & (parent_group != "evaluate"))
    trials = count(named(TRIALS))
    truth_evals = count(evaluate & named(REDUCTION_RUNS, parent_name))
    gates = span_name == "statevector.apply_single_qudit_gate"
    gate_passes = count(gates)
    prepared = work[span_name == "statevector.prepare_monomial_superposition"]
    amplitudes = int(prepared.max(initial=0))
    return {
        "cli.self_s": group_self("cli"),
        "evaluate.calls": evaluate_calls,
        "evaluate.self_s": group_self("evaluate"),
        "evaluate.ops": evaluate_calls * evaluate_ops_per_call,
        "families.assignments": count(named(ASSIGNMENTS)),
        "families.self_s": group_self("families"),
        "tables.build_s": group_self("tables.build"),
        "tables.normalize_s": group_self("tables.normalize"),
        "tables.to_json_s": group_self("tables.to_json"),
        "tables.tv_s": group_self("tables.tv"),
        "tables.entries": int(work[span_group == "tables.build"].sum()),
        "tables.binomial_draws": count(span_group == "tables.binomial"),
        "tables.binomial_s": group_self("tables.binomial"),
        "tables.other_s": group_self("tables.other"),
        "rng.draws": count(named(RNG_DRAWS)),
        "rng.self_s": group_self("rng"),
        "samplers.perturb_s": group_self("samplers.perturb"),
        "samplers.queries": count(named(SAMPLER_QUERIES)),
        "samplers.query_s": group_self("samplers.query"),
        "reductions.trials": trials,
        "reductions.self_s": group_self("reductions"),
        "reductions.truth_evals": truth_evals,
        "reductions.truth_hit_ratio": 1.0 - truth_evals / trials if trials else 0.0,
        "anticoncentration.samples": count(span_name == "anticoncentration._draw_squared_value"),
        "anticoncentration.self_s": group_self("anticoncentration"),
        "statevector.prepare_s": group_self("statevector.prepare"),
        "statevector.gate_s": group_self("statevector.gate"),
        "statevector.measure_s": group_self("statevector.measure"),
        "statevector.other_s": group_self("statevector.other"),
        "statevector.gate_passes": gate_passes,
        "statevector.amplitudes": amplitudes,
        # Computed from shapes: 8 real flops per complex multiply-add, and one
        # read plus one write of the whole complex128 state per gate pass.
        "statevector.gate_flops": 8 * int(work[gates].sum()),
        "statevector.gate_bytes": 2 * COMPLEX128_BYTES * gate_passes * amplitudes,
        "trace.spans": len(name_id),
        "trace.root_s": float((spans["end"] - spans["start"])[parent < 0].sum()),
    }
