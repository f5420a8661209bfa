"""Solve benchmark: time and iterations to tolerance, end to end and per layer.

    python3 benchmarks/run.py --workload mc-sparse --seed 1 --seconds 35 --trace 0

One process solves a workload's instances one after another (a closed loop,
one client) with BLAS pinned to one thread, checks every solve's output, and
prints each metric by name and unit. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the solves with per-layer spans (see ``tracing.py``) and reports the
per-layer metrics instead. See README.md in this directory for the design.
"""

import os

# BLAS reads its thread count when numpy loads, so pin it before that import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import pdhgsdp as P  # noqa: E402
from pdhgsdp import solver as solver_module  # noqa: E402
from pdhgsdp.bench import make_problem  # noqa: E402

from tracing import Tracer, instrument, instrument_policy  # noqa: E402

# The paper's stopping rule at tol 1e-6, with the library's default budget.
CONFIG = P.SolveConfig(tol=1e-6)
SGM_SHIFT_S = 1.0  # shift of the geometric mean of solve times, as in PDLP
# setup_s sums, over the instance set, the median time to produce each
# instance. Every solve's own instance is one sample, and this many more are
# produced after each solve and discarded. The machine's speed shifts from
# second to second, so samples spread over the run steady the median.
SETUP_REPEATS_PER_SOLVE = 5

# Output checks. On seed set "a" the solver gives about -2e-16*||X|| for the
# smallest eigenvalue, at most 2.9e-4 relative primal infeasibility (snl), at
# most 7e-9 for the max-cut objective and at most 7e-7 for the tf/alv gap.
PSD_RTOL = 1e-9
INFEASIBILITY_MAX = 1e-3
MAXCUT_OBJECTIVE_MAX = 1e-6
PAIR_OBJECTIVE_RTOL = 1e-5


@dataclass(frozen=True)
class Workload:
    family: str
    policies: tuple[str, ...]
    seeds: tuple[int, ...]  # generator seeds of seed set "a"


# Why these three, and which layer each loads, is recorded in BENCHMARK.json.
WORKLOADS = {
    "mc-sparse": Workload("mc", ("bpdr",), (1, 2)),
    "rg-dense": Workload("rg", ("tf", "alv"), (1, 2, 3, 4, 5)),
    "snl-sdpa": Workload("snl", ("ls",), (1, 2)),
}
SIZES = {"mc": {"n": 150, "m_edges": 150}, "rg": {"n": 50, "m": 50}}  # snl: defaults
# Offset added to every generator seed. Set "b" is held out so that a claimed
# gain can be checked on instances not used while the change was written.
SEED_SETS = {"a": 0, "b": 100}


@dataclass
class Setup:
    """Seconds spent in the library calls that produce one instance."""

    gen_s: float = 0.0
    write_s: float = 0.0
    read_s: float = 0.0
    sdpa_bytes: int = 0

    @property
    def seconds(self) -> float:
        return self.gen_s + self.write_s + self.read_s


def produce(family: str, seed: int, work: Path) -> tuple[P.SdpProblem, P.SdpProblem, Setup]:
    """Generate one instance and, on snl, write it as SDPA and read it back.

    Returns the generated instance, the instance to solve (the read-back on
    snl, else the generated one) and the time of each library call.
    """
    setup = Setup()
    t0 = time.perf_counter()
    generated = make_problem(family, seed, SIZES)
    setup.gen_s = time.perf_counter() - t0
    if family != "snl":
        return generated, generated, setup
    path = work / f"instance-{seed}.dat-s"
    t0 = time.perf_counter()
    P.write_instance(generated, path)
    t1 = time.perf_counter()
    read = P.read_instance(path)
    setup.read_s = time.perf_counter() - t1
    setup.write_s = t1 - t0
    setup.sdpa_bytes = path.stat().st_size
    return generated, read, setup


def entries(problem: P.SdpProblem) -> tuple[np.ndarray, ...]:
    """C, every A_i and b, read through the public operators."""
    a = [P.apply_At(problem.constraints, e).to_dense() for e in np.eye(problem.m)]
    return problem.C.to_dense(), np.stack(a), problem.b


def round_trip_failure(written: P.SdpProblem, read: P.SdpProblem) -> str | None:
    if read is written:
        return None
    same = written.m == read.m and all(
        np.array_equal(w, r) for w, r in zip(entries(written), entries(read)))
    return None if same else "SDPA read-back differs from the written instance"


@dataclass
class Solve:
    seed: int
    policy: str
    seconds: float
    iterations: int  # as run
    converged: bool
    wall_ms: list[float]
    objective: float
    failure: str | None

    @property
    def iterations_charged(self) -> int:
        """Iterations, with a solve that did not converge charged the budget."""
        return self.iterations if self.converged else CONFIG.max_iters


def output_failure(family: str, problem: P.SdpProblem, x_final) -> str | None:
    x = x_final.to_dense()
    if not np.all(np.isfinite(x)):
        return "X_final is not finite"
    lam_min = float(np.linalg.eigvalsh(x)[0])
    if lam_min < -PSD_RTOL * np.linalg.norm(x):
        return f"X_final is not PSD: smallest eigenvalue {lam_min:.3e}"
    residual = P.apply_A(problem.constraints, x_final) - problem.b
    infeasibility = np.linalg.norm(residual) / (1.0 + np.linalg.norm(problem.b))
    if not infeasibility < INFEASIBILITY_MAX:
        return f"relative primal infeasibility {infeasibility:.3e}"
    if family == "mc" and not abs(problem.objective(x)) < MAXCUT_OBJECTIVE_MAX:
        return f"max-cut objective {problem.objective(x):.3e} is not 0"
    return None


def run_pass(wl: Workload, seeds: list[int], work: Path, setups: dict[int, list[Setup]],
             tracer: Tracer | None = None) -> list[Solve]:
    """Solve every instance with every policy of the workload, once.

    Each solve gets a freshly produced instance, so every solve pays the same
    one-off costs inside ``solve`` and holds only its own instance in memory.
    Every production, and SETUP_REPEATS_PER_SOLVE more after each solve, is
    a set-up sample in ``setups``.
    """
    solves = []
    for seed in seeds:
        pair = []
        for name in wl.policies:
            generated, problem, setup = produce(wl.family, seed, work)
            setups[seed].append(setup)
            policy = P.make_policy(name)
            hooks = instrument_policy(policy, tracer) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with hooks:
                    trace = P.solve(problem, policy, CONFIG)
                failure = None if trace.status == "converged" else f"status {trace.status}"
            except P.SolveError as exc:
                trace, failure = exc.trace, f"SolveError: {exc}"
            seconds = time.perf_counter() - t0
            failure = (failure or output_failure(wl.family, problem, trace.X_final)
                       or round_trip_failure(generated, problem))
            objective = problem.objective(trace.X_final.to_dense())
            pair.append(Solve(seed, name, seconds, trace.iterations,
                              trace.status == "converged", [r.wall_ms for r in trace.rows],
                              objective, failure))
            del generated, problem, policy, trace
            for _ in range(SETUP_REPEATS_PER_SOLVE):
                setups[seed].append(produce(wl.family, seed, work)[2])
        # two policies on one instance must reach the same optimum
        if len(pair) == 2 and not (pair[0].failure or pair[1].failure):
            f0, f1 = pair[0].objective, pair[1].objective
            if abs(f0 - f1) > PAIR_OBJECTIVE_RTOL * max(1.0, abs(f0), abs(f1)):
                for s in pair:
                    s.failure = f"{pair[0].policy}/{pair[1].policy} objectives differ: {f0!r} vs {f1!r}"
        solves.extend(pair)
    return solves


def sgm(times: list[float], shift: float = SGM_SHIFT_S) -> float:
    """Shifted geometric mean."""
    return math.exp(statistics.fmean(math.log(t + shift) for t in times)) - shift


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_set": args.seed_set,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_median(setups: dict[int, list[Setup]], attr: str) -> float:
    """Per-instance median of one set-up quantity, summed over the instance set."""
    return sum(statistics.median(getattr(s, attr) for s in samples)
               for samples in setups.values())


def end_to_end(setups: dict[int, list[Setup]], passes: list[list[Solve]]) -> dict:
    per_solve = [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]
    return {
        "solve_s_sgm": (sgm(per_solve), "s"),
        "batch_s": (statistics.median(sum(s.seconds for s in p) for p in passes), "s"),
        "iters_total": (statistics.median(sum(s.iterations_charged for s in p) for p in passes), "count"),
        "setup_s": (setup_median(setups, "seconds"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(setups: dict[int, list[Setup]], ref: list[Solve], traced: list[Solve],
              tr: Tracer) -> dict:
    """Per-layer metrics. The problems.sdpa_* metrics are 0 on the workloads
    that do no SDPA I/O."""
    iters = sum(s.iterations for s in traced)
    solve_s = sum(s.seconds for s in traced)
    op_calls = tr.layer("operators", tr.calls, exclude="lambda_max")
    op_s = tr.layer("operators", tr.total_s, exclude="lambda_max")
    lam_calls = tr.layer("operators", tr.calls) - op_calls
    lam_s = tr.layer("operators", tr.total_s) - op_s
    proj_calls = tr.layer("projections", tr.calls)
    proj_s = tr.layer("projections", tr.total_s)
    iter_ms = np.concatenate([s.wall_ms for s in ref])
    p50, p99 = np.percentile(iter_ms, [50, 99])
    return {
        "problems.gen_s": (setup_median(setups, "gen_s"), "s"),
        "problems.sdpa_write_s": (setup_median(setups, "write_s"), "s"),
        "problems.sdpa_read_s": (setup_median(setups, "read_s"), "s"),
        "problems.sdpa_bytes": (setup_median(setups, "sdpa_bytes"), "bytes"),
        "operators.calls_per_iter": (op_calls / iters, "calls/iter"),
        "operators.ms_per_call": (1e3 * op_s / max(op_calls, 1), "ms"),
        "operators.share": ((op_s + lam_s) / solve_s, "ratio"),
        "operators.lambda_max_calls": (lam_calls / len(traced), "calls/solve"),
        "operators.lambda_max_s": (lam_s / max(lam_calls, 1), "s"),
        "projections.calls_per_iter": (proj_calls / iters, "calls/iter"),
        "projections.ms_per_call": (1e3 * proj_s / max(proj_calls, 1), "ms"),
        "projections.share": (proj_s / solve_s, "ratio"),
        "linalg.self_ms_per_iter": (1e3 * tr.layer("linalg", tr.self_s) / iters, "ms"),
        "solver.iter_ms_p50": (float(p50), "ms"),
        "solver.iter_ms_p99": (float(p99), "ms"),
        "solver.policy_self_ms_per_iter": (1e3 * tr.layer("policy", tr.self_s) / iters, "ms"),
        "solver.policy_operator_calls_per_iter": (tr.policy_operator_calls / iters, "calls/iter"),
        "solver.residual_self_ms_per_iter": (1e3 * tr.self_s["solver.residuals"] / iters, "ms"),
        "solver.engine_self_ms_per_iter": (1e3 * (solve_s - tr.covered_s) / iters, "ms"),
        "trace.overhead_frac": (solve_s / sum(s.seconds for s in ref) - 1.0, "ratio"),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="run seed: labels the run and picks the order the instances are solved in")
    ap.add_argument("--seconds", type=int, required=True,
                    help="measuring time; passes over the instances repeat while one more fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-set", choices=sorted(SEED_SETS), default="a",
                    help="instance set: 'a' (default) or the held-out 'b'")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(P.__file__).resolve().is_relative_to(SRC):
        print(f"pdhgsdp was imported from {P.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    print("environment", json.dumps(environment(args)), flush=True)

    seeds = [s + SEED_SETS[args.seed_set] for s in wl.seeds]
    seeds = random.Random(args.seed).sample(seeds, len(seeds))
    setups = {seed: [] for seed in seeds}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        def one_pass(tracer=None):
            return run_pass(wl, seeds, Path(work), setups, tracer)

        t_start = time.perf_counter()
        passes = [one_pass()]
        correct = True
        if args.trace:
            tracer = Tracer()
            with instrument(solver_module, tracer):
                passes.append(one_pass(tracer))
            ran, traced = ([s.iterations for s in p] for p in passes)
            if ran != traced:
                print(f"traced iterations {traced} differ from untraced {ran}", file=sys.stderr)
                correct = False
            metrics = per_layer(setups, passes[0], passes[1], tracer)
        else:
            last_pass_s = time.perf_counter() - t_start
            while time.perf_counter() - t_start + last_pass_s <= args.seconds:
                t_pass = time.perf_counter()
                passes.append(one_pass())
                last_pass_s = time.perf_counter() - t_pass
            metrics = end_to_end(setups, passes)

    solves = [s for p in passes for s in p]
    failed = sum(1 for s in solves if s.failure)
    for s in solves:
        if s.failure:
            print(f"FAILED seed={s.seed} policy={s.policy}: {s.failure}", file=sys.stderr)
    for s in solves[: len(passes[0])]:
        print(f"solve seed={s.seed} policy={s.policy} iterations={s.iterations} "
              f"seconds={s.seconds:.3f}")
    print(f"passes {len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(f"{'failed_frac':<40} {failed / len(solves):.6g} ratio ({failed} of {len(solves)} solves)")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
