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
from .problems import gen_maxcut, gen_random, gen_snl, read_instance
from .solver import POLICY_NAMES, SolveConfig, SolveError, make_policy, solve


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps0", type=float, default=0.5,
                   help="initial epsilon for bpdr/alv (default 0.5)")
    p.add_argument("--eta", type=float, default=0.95,
                   help="epsilon decay for bpdr/alv (default 0.95)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="bpdr balance threshold multiplier (default 1)")
    p.add_argument("--s", type=float, default=1.0,
                   help="linesearch dual/primal stepsize ratio (default 1)")
    p.add_argument("--mu", type=float, default=0.7,
                   help="linesearch backtracking shrink (default 0.7)")
    p.add_argument("--eps-tf", type=float, default=None,
                   help="tf spectral bound; default lambda_max*(1+1e-6)")


def _policy_from_args(args) -> object:
    kwargs: dict = {}
    if args.policy == "bpdr":
        kwargs = {"eps0": args.eps0, "eta": args.eta, "delta": args.delta}
    elif args.policy == "alv":
        kwargs = {"eps0": args.eps0, "eta": args.eta}
    elif args.policy == "ls":
        kwargs = {"s": args.s, "mu": args.mu}
    elif args.policy == "tf":
        kwargs = {"eps": args.eps_tf}
    return make_policy(args.policy, **kwargs)


def _problem_from_args(args):
    spec = args.problem
    if spec.startswith("file:"):
        return read_instance(spec[5:])
    seed = args.seed
    if spec == "rg":
        return gen_random(seed, n=args.n or 50, m=args.m or 50)
    if spec == "mc":
        return gen_maxcut(seed, n=args.n or 100, m_edges=args.m or 100)
    if spec == "snl":
        problem, _ = gen_snl(
            seed,
            m_anchors=args.m or 10,
            n_sensors=args.n or 50,
            radius=args.radius,
            degree=args.degree,
            p=args.p,
        )
        return problem
    raise ValueError(f"unknown problem {spec!r}; expected rg|mc|snl|file:<path>")


def cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    policy = _policy_from_args(args)
    config = SolveConfig(max_iters=args.max_iters, tol=args.tol)
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
    overrides = {}
    if args.config:
        overrides = json.loads(Path(args.config).read_text())
    cfg_kwargs: dict = {}
    for key in ("families", "seeds", "budgets", "policies", "ls_s_grid", "tol",
                "sizes", "policy_params"):
        if key in overrides:
            value = overrides[key]
            if key in ("families", "policies", "ls_s_grid"):
                value = tuple(value)
            if key == "budgets":
                value = {k: tuple(v) for k, v in value.items()}
            cfg_kwargs[key] = value
    if args.families:
        cfg_kwargs["families"] = tuple(args.families.split(","))
    if args.seeds is not None:
        cfg_kwargs["seeds"] = args.seeds
    if args.policies:
        cfg_kwargs["policies"] = tuple(args.policies.split(","))
    if args.tol is not None:
        cfg_kwargs["tol"] = args.tol

    config = bench_mod.BenchConfig(**cfg_kwargs)
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
        problem, schedule, iters=args.iters, tol=args.tol,
        break_product=args.break_product,
    )

    # lifting certificate on the same instance
    lam = lambda_max_AAt(problem.constraints)
    r = 0.9 / lam
    lifted = build_T(problem.constraints, r)
    g = gram(problem.constraints)
    s = (1.0 / r) * np.eye(problem.m) - g
    tt = lifted.T @ lifted.T.T
    cert_tts = float(np.linalg.norm(tt - s))
    cert_inv = float(np.linalg.norm(g + tt - (1.0 / r) * np.eye(problem.m)))
    cert_ok = cert_tts < 1e-10 * max(1.0, float(np.linalg.norm(s))) and cert_inv < 1e-9

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
    etas = tuple(float(v) for v in args.etas.split(","))
    progress = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    result = bench_mod.grid_search_eta(
        etas=etas, sizes=sizes, budgets=budgets, tol=args.tol, progress=progress
    )
    Path(args.out).write_text(result.table_csv())
    print(result.table_csv(), end="")
    return 0


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
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="trace.csv")
    p.add_argument("--n", type=int, default=None, help="override instance n")
    p.add_argument("--m", type=int, default=None,
                   help="override constraint/edge/anchor count")
    p.add_argument("--radius", type=float, default=0.3, help="snl radius")
    p.add_argument("--degree", type=int, default=5, help="snl neighbor cap")
    p.add_argument("--p", type=int, default=2, help="snl ambient dimension")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="seed sweep; writes table.csv and per-run traces")
    p.add_argument("--config", default=None, help="JSON file mirroring BenchConfig")
    p.add_argument("--families", default=None, help="comma list, e.g. rg,mc")
    p.add_argument("--seeds", type=int, default=None)
    p.add_argument("--policies", default=None, help="comma list, e.g. tf,fixed,ls")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="PDHG-vs-DRS equivalence and lifting certificate")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--schedule", choices=["constant", "geometric"], default="constant")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--break-product", action="store_true",
                   help="negative control: corrupt alpha*beta = R")
    p.add_argument("--out", default="verify.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grid-search", help="eta sweep for bpdr/alv")
    p.add_argument("--etas", default=",".join(str(e) for e in bench_mod.ETA_GRID))
    p.add_argument("--scale", choices=["small", "full"], default="small")
    p.add_argument("--tol", type=float, default=1e-6)
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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
