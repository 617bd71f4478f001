"""Batch command-line surface.

Every subcommand emits a single JSON document {command, params, seed,
results, checks, timestamp} (CSV is available as a projection for tabular
payloads) and self-checks against its analytic oracle where one exists.
Exit status: 0 all checks passed, 1 a verification check failed, 2 bad
configuration, 3 size guard rejection.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import __version__
from .anticoncentration import DEFAULT_THRESHOLDS, anticoncentration_experiment
from .errors import FOLD_TABLE_GUARD, NumericalCheckError, PolySampleError, SizeGuardError, check_size
from .evaluate import block_points, evaluate_by_enumeration, evaluate_fast, evaluate_values_fast
from .families import (
    Assignment,
    hamiltonian_cycle,
    index_of_monomial,
    lift_k_equivalent,
    mask_from_string,
    mask_to_string,
    monomial_of_index,
    permanent,
)
from .reductions import multiplicative_lift, run_roots_reduction, run_squashed_reduction
from .rng import RandomSource
from .squashed import build_squashed_transform, unitarity_residual, weighted_gram
from .statevector import (
    apply_qft,
    measurement_distribution,
    prepare_monomial_superposition,
    run_fold_sampler_circuit,
    squashed_circuit_state,
    squashed_measurement_distribution,
)
from .tables import (
    DOUBLE_NORMALIZATION_TOL,
    RATIONAL,
    ProbabilityTable,
    binomial_sampling_method,
    exact_table_fold,
    exact_table_roots,
    exact_table_squashed,
    squashed_points,
    tv_distance,
    variance,
)

TV_TOL_SIM = 1e-9
TV_TOL_FOLD = 1e-12

ENV_SEED = "POLYSAMPLE_SEED"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        results, checks, projection = args.handler(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (PolySampleError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = {
        "command": args.command_path,
        "params": _echo_params(args),
        "seed": args.seed,
        "results": results,
        "checks": checks,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    _write_output(args, doc, projection)
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysample",
        description="Exact distributions, statevector simulation, and classical "
        "reduction experiments for polynomial Fourier sampling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    poly = top.add_parser("poly", help="polynomial families: info, eval, rank, unrank")
    poly_sub = poly.add_subparsers(dest="action", required=True)
    p = _sub(poly_sub, "info", cmd_poly_info, "poly info")
    _spec_flags(p)
    p = _sub(poly_sub, "eval", cmd_poly_eval, "poly eval")
    _spec_flags(p)
    p.add_argument("--mode", choices=["root", "int"], required=True)
    p.add_argument("--ell", type=int, help="root order (root mode)")
    p.add_argument("--bound", type=int, help="integer range bound (int mode)")
    p.add_argument("--values", required=True, help="comma-separated exponents or integers")
    p = _sub(poly_sub, "rank", cmd_poly_rank, "poly rank")
    _spec_flags(p)
    p.add_argument("--mask", required=True, help="0/1 mask string, variable 0 first")
    p = _sub(poly_sub, "unrank", cmd_poly_unrank, "poly unrank")
    _spec_flags(p)
    p.add_argument("--index", required=True, help="monomial index in [0, m)")

    dist = top.add_parser("dist", help="exact target distributions")
    dist_sub = dist.add_subparsers(dest="action", required=True)
    p = _sub(dist_sub, "roots", cmd_dist_roots, "dist roots", tabular=True)
    _spec_flags(p)
    p.add_argument("--ell", type=int, required=True)
    p = _sub(dist_sub, "squashed", cmd_dist_squashed, "dist squashed", tabular=True)
    _spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    p = _sub(dist_sub, "fold", cmd_dist_fold, "dist fold", tabular=True)
    _fold_flags(p)
    p = _sub(dist_sub, "variance", cmd_dist_variance, "dist variance")
    _spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=0, help="optional Monte Carlo sample count")

    sim = top.add_parser("sim", help="statevector circuit simulation with self-checks")
    sim_sub = sim.add_subparsers(dest="action", required=True)
    p = _sub(sim_sub, "es", cmd_sim_es, "sim es", tabular=True)
    _spec_flags(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dump-state", help="write the pre-measurement statevector JSON here")
    p = _sub(sim_sub, "squashed", cmd_sim_squashed, "sim squashed", tabular=True)
    _spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dump-state", help="write the pre-measurement statevector JSON here")
    p = _sub(sim_sub, "fold", cmd_sim_fold, "sim fold", tabular=True)
    _fold_flags(p)

    squash = top.add_parser("squash", help="the squashed symmetric transform")
    squash_sub = squash.add_subparsers(dest="action", required=True)
    p = _sub(squash_sub, "matrix", cmd_squash_matrix, "squash matrix")
    p.add_argument("--k", type=int, required=True)

    reduce_ = top.add_parser("reduce", help="sampler-to-estimator reduction experiments")
    reduce_sub = reduce_.add_subparsers(dest="action", required=True)
    p = _sub(reduce_sub, "additive", cmd_reduce, "reduce additive", tabular=True)
    _spec_flags(p)
    p.add_argument("--ell", type=int, required=True)
    _reduction_flags(p)
    p = _sub(reduce_sub, "squashed", cmd_reduce, "reduce squashed", tabular=True)
    _spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    _reduction_flags(p)
    p = _sub(reduce_sub, "lift", cmd_reduce_lift, "reduce lift")
    _spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    _reduction_flags(p)
    p.add_argument("--p-coeff", type=float, default=1.0, help="c in p(n, 1/delta) = c * n^a * (1/delta)^b")
    p.add_argument("--p-n-power", type=float, default=2.0, help="a in p(n, 1/delta)")
    p.add_argument("--p-delta-power", type=float, default=1.0, help="b in p(n, 1/delta)")

    p = _sub(top, "anticon", cmd_anticon, "anticon", tabular=True)
    _spec_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="blockwise-binomial integer inputs")
    group.add_argument("--ell", type=int, help="uniform root-of-unity inputs")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--thresholds", default=",".join(str(t) for t in DEFAULT_THRESHOLDS),
                   help="comma-separated 1/p values")
    p.add_argument("--evaluator", choices=["fast", "enumeration"], default="fast")

    p = _sub(top, "tv", cmd_tv, "tv")
    p.add_argument("--table-a", required=True)
    p.add_argument("--table-b", required=True)
    p.add_argument("--max-tv", type=float, help="fail the check if the distance exceeds this")

    return parser


def _sub(subparsers, name, handler, command_path, tabular=False):
    p = subparsers.add_parser(name)
    p.set_defaults(handler=handler, command_path=command_path)
    # argparse runs a string default through ``type``: a bad environment seed is a usage error.
    p.add_argument("--seed", type=_seed, default=os.environ.get(ENV_SEED, "0"))
    p.add_argument("--output", help="write the document here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"] if tabular else ["json"], default="json")
    return p


def _seed(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed {text!r}: --seed and {ENV_SEED} take an integer"
        ) from None


def _spec_flags(p):
    p.add_argument("--family", choices=["permanent", "hamiltonian_cycle"], required=True)
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--lift", type=int, help="replace each variable by a sum of this many copies")


def _fold_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated +-1 truth table of length 2^n")
    group.add_argument("--random-bits", type=int, help="draw a random +-1 truth table on this many bits")


def _reduction_flags(p):
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--beta", type=float, help="sampler TV budget; default epsilon*delta/16")
    p.add_argument("--gamma", type=float, help="counting noise; default epsilon*delta/8")
    p.add_argument("--records", action="store_true", help="include per-trial records in the JSON document")


def _build_spec(args):
    spec = permanent(args.n) if args.family == "permanent" else hamiltonian_cycle(args.n)
    if getattr(args, "lift", None) is not None:
        spec = lift_k_equivalent(spec, args.lift)
    return spec


def _parse_int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _truth_table(args):
    if args.values is not None:
        return _parse_int_list(args.values)
    n = args.random_bits
    if n is None or n < 1:
        raise ValueError("--random-bits must be >= 1")
    check_size("fold truth table", 1 << n, FOLD_TABLE_GUARD)
    rng = RandomSource(args.seed)
    return [1 - 2 * int(b) for b in rng.integers(0, 2, size=1 << n)]


def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _echo_params(args) -> dict:
    skip = {"handler", "command_path", "group", "action", "seed", "output", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_output(args, doc, projection) -> None:
    def write(handle):
        if args.format == "csv":
            projection(handle)
        else:
            _write_document(handle, doc)

    if args.output:
        with open(args.output, "w") as handle:
            write(handle)
    else:
        write(sys.stdout)


# Rendered in place of each table's probs; argv strings cannot hold a NUL, so
# nothing else in a document renders to it.
_PROBS = "\0probs"


def _write_document(handle, doc) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"``, streaming the probs of each ProbabilityTable in it.

    Neither the full entry list nor the full text of a table is ever built:
    entries are written one ``entry_chunks`` list at a time.
    """
    tables = []

    def table_head(table):
        tables.append(table)
        return {"radix": table.radix, "length": table.length, "arithmetic": table.arithmetic,
                "probs": _PROBS}

    parts = json.dumps(doc, indent=2, default=table_head).split(json.dumps(_PROBS))
    for head, table in zip(parts, tables):
        line = head[head.rfind("\n") + 1:]
        outer = " " * (len(line) - len(line.lstrip(" ")))
        quote = '"' if table.arithmetic == RATIONAL else ""
        separator = quote + ",\n  " + outer + quote
        handle.write(head)
        lead = "[\n  " + outer + quote
        for chunk in table.entry_chunks():
            handle.write(lead + separator.join(chunk))
            lead = separator
        handle.write(quote + "\n" + outer + "]")
    handle.write(parts[-1] + "\n")


def _rows_projection(header, rows):
    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)

    return write


def _dump_state(path, state) -> None:
    # One json.dumps call runs the C encoder; json.dump always runs the Python one.
    with open(path, "w") as handle:
        handle.write(json.dumps(state.to_json_dict()))


# ---------------------------------------------------------------------------
# poly


def cmd_poly_info(args):
    spec = _build_spec(args)
    results = {
        "spec": spec.describe(),
        "n_vars": spec.n_vars,
        "degree": spec.degree,
        "num_monomials": str(spec.num_monomials),
    }
    return results, [], None


def cmd_poly_eval(args):
    spec = _build_spec(args)
    values = _parse_int_list(args.values)
    if args.mode == "root":
        if not args.ell:
            raise ValueError("root mode needs --ell")
        assignment = Assignment.roots(args.ell, values)
    else:
        if not args.bound:
            raise ValueError("int mode needs --bound")
        assignment = Assignment.integers(args.bound, values)
    by_enum = evaluate_by_enumeration(spec, assignment)
    fast = evaluate_fast(spec, assignment)
    if isinstance(by_enum, complex) or isinstance(fast, complex):
        agree = abs(complex(by_enum) - complex(fast)) <= 1e-9
        render = lambda v: [complex(v).real, complex(v).imag]
    else:
        agree = by_enum == fast
        render = str
    results = {"value_enumeration": render(by_enum), "value_fast": render(fast)}
    checks = [_check("evaluators_agree", agree, f"enumeration {by_enum}, fast {fast}")]
    return results, checks, None


def cmd_poly_rank(args):
    spec = _build_spec(args)
    mask = mask_from_string(args.mask)
    index = index_of_monomial(spec, mask)
    round_trip = monomial_of_index(spec, index)
    results = {"index": str(index), "mask": mask_to_string(mask)}
    checks = [_check("round_trip", round_trip == mask, f"unrank(rank) gives {mask_to_string(round_trip)}")]
    return results, checks, None


def cmd_poly_unrank(args):
    spec = _build_spec(args)
    index = int(args.index)
    mask = monomial_of_index(spec, index)
    round_trip = index_of_monomial(spec, mask)
    results = {"index": str(index), "mask": mask_to_string(mask)}
    checks = [_check("round_trip", round_trip == index, f"rank(unrank) gives {round_trip}")]
    return results, checks, None


# ---------------------------------------------------------------------------
# dist


def cmd_dist_roots(args):
    spec = _build_spec(args)
    table = exact_table_roots(spec, args.ell)
    results = {"table": table}
    measured = table.validate_normalization()
    if table.arithmetic == RATIONAL:
        check = _check("normalization", measured == table.denominator,
                       f"sum of |Q|^2 numerators = {measured}, ell^n * m = {table.denominator}")
    else:
        check = _check("normalization", measured <= DOUBLE_NORMALIZATION_TOL,
                       f"|sum p - 1| = {measured:.3e} (tolerance {DOUBLE_NORMALIZATION_TOL})")
    return results, [check], table.write_csv


def cmd_dist_squashed(args):
    spec = _build_spec(args)
    table = exact_table_squashed(spec, args.k, as_text=True)
    results = {"table": table, "class_value_map": "value = 2*class - k"}
    total = table.validate_normalization()
    checks = [_check("normalization_identity", total == table.denominator,
                     f"sum of Q^2 * orbit = {total}, 2^{{kn}} * Var = {table.denominator}")]
    return results, checks, table.write_csv


def cmd_dist_fold(args):
    table = exact_table_fold(_truth_table(args))
    results = {"table": table}
    total = table.validate_normalization()
    checks = [_check("normalization", total == table.denominator,
                     f"sum of squared Walsh coefficients = {total}, 4^n = {table.denominator}")]
    return results, checks, table.write_csv


def cmd_dist_variance(args):
    spec = _build_spec(args)
    rng = RandomSource(args.seed)
    report = variance(spec, args.k, samples=args.samples, rng=rng)
    results = {
        "closed_form": str(report.closed_form),
        "sum_form": f"{report.sum_form.numerator}/{report.sum_form.denominator}",
        "empirical": report.empirical,
        "samples": report.samples,
        "binomial_sampling_method": binomial_sampling_method(args.k),
    }
    checks = [_check("forms_agree", report.forms_agree,
                     f"closed {report.closed_form} vs sum {report.sum_form}")]
    return results, checks, None


# ---------------------------------------------------------------------------
# sim


def cmd_sim_es(args):
    spec = _build_spec(args)
    state = apply_qft(prepare_monomial_superposition(spec, args.ell))
    if args.dump_state:
        _dump_state(args.dump_state, state)
    simulated = measurement_distribution(state)
    analytic = exact_table_roots(spec, args.ell)
    tv = tv_distance(simulated, analytic)
    results = {"table": simulated, "tv_vs_analytic": tv, "norm": state.norm()}
    checks = [
        _check("tv_vs_analytic", tv <= TV_TOL_SIM, f"TV {tv:.3e} (tolerance {TV_TOL_SIM})"),
        _check("norm", abs(state.norm() - 1) <= 1e-9, f"norm {state.norm()!r}"),
    ]
    return results, checks, simulated.write_csv


def cmd_sim_squashed(args):
    spec = _build_spec(args)
    transform = build_squashed_transform(args.k)
    state = squashed_circuit_state(spec, args.k, transform)
    if args.dump_state:
        _dump_state(args.dump_state, state)
    simulated = squashed_measurement_distribution(state)
    analytic = exact_table_squashed(spec, args.k)
    tv = tv_distance(simulated, analytic)
    amp_dev = _amplitude_formula_deviation(spec, args.k, transform, simulated)
    results = {"table": simulated, "tv_vs_analytic": tv,
               "amplitude_formula_max_deviation": amp_dev}
    checks = [
        _check("tv_vs_analytic", tv <= TV_TOL_SIM, f"TV {tv:.3e} (tolerance {TV_TOL_SIM})"),
        _check("amplitude_formula", amp_dev <= TV_TOL_SIM,
               f"max |alpha^2 - p| = {amp_dev:.3e}"),
    ]
    return results, checks, simulated.write_csv


def _amplitude_formula_deviation(spec, k, transform, simulated) -> float:
    # alpha_y = r0^(n-d) r1^d Q(y) sqrt(orbit(y) / m) must square to the
    # table entry, outcome by outcome.
    n, d, m = spec.n_vars, spec.degree, spec.num_monomials
    prefactor = transform.r0 ** (n - d) * transform.r1**d
    worst, flat = 0.0, 0
    for values, orbits in squashed_points(n, k, block_points(spec)):
        for vals, orbit in zip(values.tolist(), orbits.tolist()):
            q = evaluate_values_fast(spec, vals)
            alpha_sq = prefactor**2 * q * q * orbit / m
            worst = max(worst, abs(alpha_sq - float(simulated[flat])))
            flat += 1
    return worst


def cmd_sim_fold(args):
    truth = _truth_table(args)
    simulated = run_fold_sampler_circuit(truth)
    analytic = exact_table_fold(truth)
    tv = tv_distance(simulated, analytic)
    results = {"table": simulated, "tv_vs_analytic": tv}
    checks = [_check("tv_vs_analytic", tv <= TV_TOL_FOLD, f"TV {tv:.3e} (tolerance {TV_TOL_FOLD})")]
    return results, checks, simulated.write_csv


# ---------------------------------------------------------------------------
# squash


def cmd_squash_matrix(args):
    transform = build_squashed_transform(args.k)
    residual = unitarity_residual(transform)
    _, off_diagonal = weighted_gram(transform.core, transform.class_sizes)
    results = {"transform": transform.to_json_dict(), "unitarity_residual": residual}
    checks = [
        _check("unitarity", residual <= 1e-9, f"max |U^T U - I| = {residual:.3e}"),
        _check("column_orthogonality", off_diagonal == 0,
               f"max |off-diagonal weighted Gram entry| = {off_diagonal} (exact integers)"),
    ]
    return results, checks, None


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args):
    report = _reduction_report(args)
    results = report.to_json_dict(include_records=args.records)
    checks = [_check(
        "failure_rate_within_delta",
        report.empirical_failure_rate <= report.delta,
        f"rate {report.empirical_failure_rate} vs delta {report.delta}",
    )]
    # Rendered only when the CSV projection is written.
    rows = ([",".join(map(str, r.outcome)), r.estimate, r.truth, r.error] for r in report.records)
    return results, checks, _rows_projection(["outcome", "estimate", "truth", "error"], rows)


def _reduction_report(args):
    # reduce additive runs on root-of-unity tables; squashed and lift on squashed ones.
    if args.action == "additive":
        run, param = run_roots_reduction, args.ell
    else:
        run, param = run_squashed_reduction, args.k
    return run(
        _build_spec(args), param, args.epsilon, args.delta, args.trials,
        RandomSource(args.seed), beta=args.beta, gamma=args.gamma,
    )


def cmd_reduce_lift(args):
    report = _reduction_report(args)
    lifted = multiplicative_lift(
        report,
        lambda n, inv_delta: args.p_coeff * n**args.p_n_power * inv_delta**args.p_delta_power,
    )
    results = {
        "additive": report.to_json_dict(include_records=args.records),
        "lifted": lifted.to_json_dict(),
    }
    additive_rate_nonzero = sum(
        1 for r in report.records if r.truth != 0 and r.error > report.additive_bound
    ) / max(1, lifted.nonzero_trials)
    bound = additive_rate_nonzero + lifted.anticoncentration_rate * (
        (lifted.nonzero_trials + lifted.zero_truth_trials) / max(1, lifted.nonzero_trials)
    )
    checks = [_check(
        "union_bound_consistency",
        lifted.failure_rate <= bound + 1e-12,
        f"lifted rate {lifted.failure_rate} vs additive+anticoncentration {bound}",
    )]
    return results, checks, None


# ---------------------------------------------------------------------------
# anticon, tv


def cmd_anticon(args):
    spec = _build_spec(args)
    thresholds = [float(tok) for tok in args.thresholds.split(",") if tok.strip() != ""]
    report = anticoncentration_experiment(
        spec,
        k=args.k,
        ell=args.ell,
        samples=args.samples,
        exhaustive=args.exhaustive,
        thresholds=thresholds,
        evaluator=args.evaluator,
        rng=RandomSource(args.seed),
    )
    results = report.to_json_dict()
    ordered = sorted(report.rows, key=lambda r: r.inv_p)
    monotone = all(a.rate <= b.rate + 1e-15 for a, b in zip(ordered, ordered[1:]))
    checks = [_check("tail_monotone_in_threshold", monotone, "rates non-decreasing in 1/p")]
    rows = [[r.inv_p, r.cutoff, r.rate, r.ci_low, r.ci_high, r.hits] for r in report.rows]
    return results, checks, _rows_projection(
        ["inv_p", "cutoff", "rate", "ci_low", "ci_high", "hits"], rows
    )


def cmd_tv(args):
    with open(args.table_a) as handle:
        table_a = ProbabilityTable.from_json_dict(_table_doc(json.load(handle)))
    with open(args.table_b) as handle:
        table_b = ProbabilityTable.from_json_dict(_table_doc(json.load(handle)))
    tv = tv_distance(table_a, table_b)
    results = {"tv": tv}
    checks = []
    if args.max_tv is not None:
        checks.append(_check("tv_within_max", tv <= args.max_tv, f"TV {tv} vs max {args.max_tv}"))
    return results, checks, None


def _table_doc(doc: dict) -> dict:
    # Accept either a bare table document or a full CLI output document.
    if "results" in doc and isinstance(doc["results"], dict) and "table" in doc["results"]:
        return doc["results"]["table"]
    return doc


if __name__ == "__main__":
    sys.exit(main())
