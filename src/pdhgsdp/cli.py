"""Command-line entry points.

Subcommands:

* ``solve``: generate or load one instance, run one policy, write a CSV trace.
  Exit 0 on convergence, 2 on iteration cap, 1 on error.
* ``bench``: seed sweep over families and policies; writes ``table.csv`` plus
  per-run traces.
* ``verify``: PDHG-vs-DRS equivalence check plus the lifting certificate;
  writes a JSON report. Exit 3 when a check fails.
* ``grid-search``: eta sweep for the balancing policies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .drs import check_equivalence, constant_schedule, geometric_schedule
from .operators import build_T, gram, lambda_max_AAt
from .problems import gen_random, read_instance
from .solver import (
    POLICY_NAMES,
    SolveConfig,
    SolveError,
    default_stepsize_product,
    make_policy,
    solve,
)

# The instance flags each family takes, mapped to its generator's keywords.
# Like the policy flags, they default to None and pass on only when given, so
# every default lives in the library.
INSTANCE_FLAGS = {
    "rg": {"n": "n", "m": "m"},
    "mc": {"n": "n", "m": "m_edges"},
    "snl": {"n": "n_sensors", "m": "m_anchors", "radius": "radius",
            "degree": "degree", "p": "p"},
}


def _given(args, names) -> dict:
    """The flags among ``names`` that were given on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _problem_from_args(args):
    spec = args.problem
    keywords = INSTANCE_FLAGS.get(spec, {})
    given = _given(args, ("n", "m", "radius", "degree", "p"))
    for flag in given:
        if flag not in keywords:
            raise ValueError(f"--{flag} does not apply to problem {spec!r}")
    if spec.startswith("file:"):
        return read_instance(spec[5:])
    sizes = {spec: {keywords[flag]: value for flag, value in given.items()}}
    return bench_mod.make_problem(spec, args.seed, sizes)


def cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    policy = make_policy(args.policy, **_given(args, ("eta", "s")))
    config = SolveConfig(**_given(args, ("max_iters", "tol")))
    try:
        trace = solve(problem, policy, config)
    except SolveError as exc:
        exc.trace.write_csv(args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace.write_csv(args.out)
    last = trace.rows[-1] if trace.rows else None
    combined = last.combined if last else float("nan")
    objective = last.objective if last else float("nan")
    print(
        f"{args.problem} {args.policy}: {trace.status} after {trace.iterations} "
        f"iterations, combined residual {combined:.3e}, objective {objective:.6e}; "
        f"trace -> {args.out}"
    )
    return 0 if trace.status == "converged" else 2


def cmd_bench(args) -> int:
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: a bench config must be a JSON object")
    flags = _given(args, ("families", "seeds", "policies", "tol"))
    config = bench_mod.BenchConfig.from_dict({**data, **flags})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    result = bench_mod.run_bench(config, trace_dir=out_dir / "runs", progress=progress)
    (out_dir / "table.csv").write_text(result.table_csv())
    print(result.table_csv(), end="")
    return 0


def cmd_verify(args) -> int:
    problem = gen_random(args.seed, n=args.n, m=args.m)
    schedule = constant_schedule() if args.schedule == "constant" else geometric_schedule()
    report = check_equivalence(
        problem, schedule, iters=args.iters, break_product=args.break_product,
        **_given(args, ("tol",)),
    )

    # lifting certificate on the same instance
    cmap = problem.constraints
    lifted = build_T(cmap, default_stepsize_product(lambda_max_AAt(cmap)))
    tt = lifted.T @ lifted.T.T
    cert_tts = float(np.linalg.norm(tt - lifted.S))
    cert_inv = float(np.linalg.norm(gram(cmap) + tt - (1.0 / lifted.R) * np.eye(problem.m)))
    cert_ok = cert_tts < 1e-10 * max(1.0, float(np.linalg.norm(lifted.S))) and cert_inv < 1e-9

    payload = report.as_dict()
    payload["lifting_certificate"] = {
        "ttT_minus_S": cert_tts,
        "AAt_plus_TTt_minus_invR": cert_inv,
        "pass": cert_ok,
    }
    payload["schedule"] = args.schedule
    text = json.dumps(payload, indent=2)
    Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if (report.passed and cert_ok) else 3


def cmd_grid_search(args) -> int:
    sizes = None
    budgets = None
    if args.scale == "small":
        sizes = {
            "rg": {"n": 20, "m": 20},
            "mc": {"n": 30, "m_edges": 30},
            "snl": {"m_anchors": 4, "n_sensors": 15, "radius": 0.7, "degree": 8},
        }
        budgets = {"rg": 10000, "mc": 5000, "snl": 15000}
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    result = bench_mod.grid_search_eta(
        sizes=sizes, budgets=budgets, progress=progress,
        **_given(args, ("etas", "tol")),
    )
    Path(args.out).write_text(result.table_csv())
    print(result.table_csv(), end="")
    return 0


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdhgsdp",
        description="Adaptive PDHG solver for SDP: single solves, benchmark "
                    "sweeps, and splitting-equivalence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and write a CSV trace")
    p.add_argument("--problem", required=True,
                   help="rg | mc | snl | file:<path to SDPA sparse file>")
    p.add_argument("--policy", required=True,
                   choices=POLICY_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", default="trace.csv")
    p.add_argument("--n", type=int, help="instance n (mc, rg) or sensor count (snl)")
    p.add_argument("--m", type=int, help="constraint (rg), edge (mc) or anchor (snl) count")
    p.add_argument("--radius", type=float, help="snl radius")
    p.add_argument("--degree", type=int, help="snl neighbor cap")
    p.add_argument("--p", type=int, help="snl ambient dimension")
    p.add_argument("--eta", type=float, help="epsilon decay for bpdr/alv")
    p.add_argument("--s", type=float, help="linesearch dual/primal stepsize ratio")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="seed sweep; writes table.csv and per-run traces")
    p.add_argument("--config", default=None, help="JSON file mirroring BenchConfig")
    p.add_argument("--families", type=_comma_list, help="comma list, e.g. rg,mc")
    p.add_argument("--seeds", type=int)
    p.add_argument("--policies", type=_comma_list, help="comma list, e.g. tf,fixed,ls")
    p.add_argument("--tol", type=float)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="PDHG-vs-DRS equivalence and lifting certificate")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float)
    p.add_argument("--schedule", choices=["constant", "geometric"], default="constant")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--break-product", action="store_true",
                   help="negative control: corrupt alpha*beta = R")
    p.add_argument("--out", default="verify.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid-search", help="eta sweep for bpdr/alv")
    p.add_argument("--etas", type=lambda text: [float(v) for v in text.split(",")],
                   help="comma list of eta values")
    p.add_argument("--scale", choices=["small", "full"], default="small")
    p.add_argument("--tol", type=float)
    p.add_argument("--out", default="grid_search.csv")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_grid_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract is 1 for usage errors
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (OSError, RuntimeError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
