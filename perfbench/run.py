"""Closed-loop benchmark of the polysample CLI.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client makes one CLI call at a time (``python -m polysample.cli ...`` with
PYTHONPATH=src, from spawn to exit) until the calls add up to S seconds.
Each call's document is verified after the call, outside the timed interval.

--trace 0 reports the end-to-end metrics: median wall seconds per call,
set-up seconds (median ``--version`` call, spread over the run), the largest
child peak RSS, and the share of calls that passed. --trace 1 alternates untraced calls with
calls through ``traced_cli.py`` and reports the per-layer metrics of the
traced calls (medians), plus the tracing overhead against the untraced wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. NOTES.md explains the
workloads and how to read the traced run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, verify_output

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_FIRST = 4  # --version calls before the first workload call; one more follows each call
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "evaluate.calls": "count", "evaluate.self_s": "s", "evaluate.ops": "count",
    "families.assignments": "count", "families.self_s": "s",
    "tables.build_s": "s", "tables.normalize_s": "s", "tables.to_json_s": "s", "tables.tv_s": "s",
    "tables.entries": "count", "tables.binomial_draws": "count", "tables.binomial_s": "s",
    "tables.other_s": "s",
    "rng.draws": "count", "rng.self_s": "s",
    "samplers.perturb_s": "s", "samplers.queries": "count", "samplers.query_s": "s",
    "reductions.trials": "count", "reductions.self_s": "s", "reductions.truth_evals": "count",
    "reductions.truth_hit_ratio": "ratio",
    "anticoncentration.samples": "count", "anticoncentration.self_s": "s",
    "statevector.prepare_s": "s", "statevector.gate_s": "s", "statevector.measure_s": "s",
    "statevector.other_s": "s", "statevector.gate_passes": "count",
    "statevector.amplitudes": "count", "statevector.gate_flops": "flop",
    "statevector.gate_bytes": "bytes",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio", "trace.uncovered_frac": "ratio", "trace.spans": "count",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Call:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    output_bytes: int
    problems: list[str]
    digest: str | None
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("POLYSAMPLE_SEED", None)  # unseeded commands echo the env seed
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """Runs children through ``launcher.py``, a process that stays small.

    A child's peak RSS includes its spawner's RSS high-water mark, and this
    runner grows when it parses documents, so it never spawns children
    itself. Start the launcher before the runner loads anything large.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd: list[str], workdir: Path, tag: str) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, its peak RSS in MB)."""
        request = {"cmd": cmd, "cwd": str(ROOT), "env": child_env(),
                   "stdout": str(workdir / f"{tag}.stdout"), "stderr": str(workdir / f"{tag}.stderr")}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        reply = json.loads(reply)
        return reply["exit_code"], reply["wall_s"], reply["peak_rss_mb"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def time_setup(launcher: Launcher, workdir: Path) -> float:
    """Wall seconds of one ``--version`` call: start-up, ``import polysample``, parser."""
    code, wall, _ = launcher.spawn([sys.executable, "-m", "polysample.cli", "--version"],
                                   workdir, "setup")
    text = (workdir / "setup.stdout").read_text()
    if code != 0 or not text.startswith("polysample "):
        err = (workdir / "setup.stderr").read_text().strip().splitlines()[-1:]
        raise SetupError(f"`polysample.cli --version` exited {code}: {' '.join(err)}")
    return wall


def run_call(launcher: Launcher, workload: Workload, argv: list[str], seed: int, workdir: Path,
             index: int, traced: bool) -> Call:
    doc = workdir / f"call{index}.json"
    cli_args = [*argv, "--output", str(doc)]
    if traced:
        spans = workdir / f"call{index}.spans.npz"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{seed}-{index}", "--",
               *cli_args]
    else:
        cmd = [sys.executable, "-m", "polysample.cli", *cli_args]
    code, wall, rss = launcher.spawn(cmd, workdir, "call")
    # Everything below runs outside the timed interval.
    output_bytes = doc.stat().st_size if doc.exists() else 0
    problems, digest = verify_output(workload, doc, seed)
    if code != 0:
        err = (workdir / "call.stderr").read_text().strip().splitlines()[-1:]
        problems.insert(0, f"exit code {code}: {' '.join(err)}")
    call = Call(code, wall, rss, output_bytes, problems, digest)
    if traced:
        from tracer import layer_metrics, load_spans  # numpy: only the traced run needs it

        if spans.exists():
            call.layers = layer_metrics(load_spans(spans), workload.evaluate_ops_per_call())
            spans.unlink()
        else:
            call.problems.append("traced call wrote no spans")
    doc.unlink(missing_ok=True)
    return call


def measure(launcher: Launcher, workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path):
    """Calls until their wall time adds up to ``seconds``; in trace mode untraced
    and traced calls alternate, at least one of each.

    Without tracing, set-up calls are spread over the run (SETUP_FIRST before
    the first call, one after each call) so that their median sees the same
    machine as the calls do. Returns (calls, traced calls, set-up walls).
    """
    argv = workload.argv(seed)
    calls: list[Call] = []
    traced_calls: list[Call] = []
    time_setup(launcher, workdir)  # untimed warm-up, which also writes bytecode
    setup_walls = [] if trace else [time_setup(launcher, workdir) for _ in range(SETUP_FIRST)]
    timed = 0.0
    while not calls or (trace and not traced_calls) or timed < seconds:
        index = len(calls) + len(traced_calls)
        call = run_call(launcher, workload, argv, seed, workdir, index, False)
        calls.append(call)
        timed += call.wall_s
        _print_call(call, "untraced" if trace else "call")
        if trace:
            tcall = run_call(launcher, workload, argv, seed, workdir, index + 1, True)
            if calls[0].digest != tcall.digest:
                tcall.problems.append("traced document digest differs from the untraced one")
            traced_calls.append(tcall)
            timed += tcall.wall_s
            _print_call(tcall, "traced")
        else:
            setup_walls.append(time_setup(launcher, workdir))
    return calls, traced_calls, setup_walls


def _print_call(call: Call, kind: str) -> None:
    status = "ok" if not call.problems else "FAILED: " + "; ".join(call.problems)
    print(f"  {kind}: exit {call.exit_code}, {call.wall_s:.4f} s, {call.peak_rss_mb:.1f} MB, "
          f"{call.output_bytes} bytes, sha256 {call.digest}, {status}", flush=True)


def end_to_end(calls: list[Call], setup_walls: list[float]) -> tuple[dict, dict]:
    failed = sum(1 for c in calls if c.problems)
    values = {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(c.peak_rss_mb for c in calls),
        "ok_frac": 1.0 - failed / len(calls),
    }
    samples = {"wall_s": len(calls), "setup_s": len(setup_walls),
               "peak_rss_mb": len(calls), "ok_frac": len(calls)}
    return values, samples


def per_layer(calls: list[Call], traced_calls: list[Call]) -> tuple[dict, dict]:
    """Medians over the traced calls, and the tracing overhead against the untraced ones."""
    untraced_wall = statistics.median(c.wall_s for c in calls)
    traced_wall = statistics.median(c.wall_s for c in traced_calls)
    usable = [c for c in traced_calls if c.layers]

    def median_of(value):
        values = [value(c) for c in usable]
        if not values:
            return 0
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        return (statistics.median_low if exact else statistics.median)(values)

    derived = {
        "cli.output_bytes": statistics.median(c.output_bytes for c in traced_calls),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        # Share of a traced call's wall time outside every layer span:
        # interpreter start, imports, installing the wrappers, saving spans.
        "trace.uncovered_frac": median_of(lambda c: 1.0 - c.layers["trace.root_s"] / c.wall_s),
    }
    values = {name: derived[name] if name in derived else median_of(lambda c: c.layers[name])
              for name in PER_LAYER_UNITS}
    samples = {name: len(usable) for name in PER_LAYER_UNITS}
    samples.update({"cli.output_bytes": len(traced_calls), "trace.wall_s": len(traced_calls),
                    "trace.untraced_wall_s": len(calls)})
    return values, samples


def run_record(workload: Workload, seed: int, seconds: float, trace: bool, samples: dict) -> dict:
    return {
        "workload": workload.name,
        "command": ["python", "-m", "polysample.cli", *workload.argv(seed)],
        "loop": "closed, one client, one CLI call at a time",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": _git_state(),
        "samples": samples,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def run_workload(launcher: Launcher, workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path):
    print(f"workload {workload.name}, seed {seed}, {seconds} s, trace {int(trace)}", flush=True)
    calls, traced_calls, setup_walls = measure(launcher, workload, seed, seconds, trace, workdir)
    if trace:
        values, samples = per_layer(calls, traced_calls)
        units = PER_LAYER_UNITS
    else:
        values, samples = end_to_end(calls, setup_walls)
        units = END_TO_END_UNITS
    attempted = len(calls) + len(traced_calls)
    failed = sum(1 for c in calls + traced_calls if c.problems)
    print("record " + json.dumps(run_record(workload, seed, seconds, trace, samples)))
    for name, value in values.items():
        print(f"  {name:28s} {value!r} {units[name]} (n={samples[name]})")
    print(f"  {'failed_frac':28s} {failed / attempted!r} ratio ({failed} of {attempted} calls)",
          flush=True)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polysample" / "cli.py").is_file():
        print(f"error: no polysample sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    attempted = failed = 0
    metrics = {}
    try:
        with Launcher() as launcher:
            for name in names:
                a, f, m = run_workload(launcher, WORKLOADS[name], args.seed, args.seconds,
                                       bool(args.trace), workdir)
                attempted, failed = attempted + a, failed + f
                prefix = "" if len(names) == 1 else f"{name}."
                metrics.update({prefix + key: value for key, value in m.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
