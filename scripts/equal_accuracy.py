"""Iterations each policy needs to reach a fixed accuracy on random SDPs.

    PYTHONPATH=src python3 scripts/equal_accuracy.py --policies alv tf --seeds 1 2 3 4 5

The paper's stopping rule measures residuals in the units of the constraint
rows, so two policies that stop at the same tolerance may stop at different
accuracies. This script compares them at one accuracy instead. A tf solve at
tol 1e-16 gives the reference objective; then each policy runs with the stop
switched off, and the script prints the first iteration at which the relative
infeasibility ||A(X) - b|| / (1 + ||b||) is at most 3e-7 and the relative
objective error |<C, X> - ref| / (1 + |ref|) is at most 1e-6 ("cap" if the
20000-iteration budget runs out first). Instances are the benchmark's
rg-dense size, n = m = 50.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

import numpy as np  # noqa: E402

import pdhgsdp as P  # noqa: E402
from pdhgsdp.operators import forward  # noqa: E402

INFEASIBILITY = 3e-7
OBJECTIVE_ERROR = 1e-6
BUDGET = 20000


def reference_objective(problem: P.SdpProblem, budget: int) -> float:
    trace = P.solve(problem, P.make_policy("tf"), P.SolveConfig(max_iters=budget, tol=1e-16))
    if trace.status != "converged":
        raise RuntimeError(f"the tf reference did not converge in {budget} iterations")
    return trace.rows[-1].objective


class _Reached(Exception):
    """Raised from the solve callback to end the run at the first hit."""


def iterations_to_accuracy(problem: P.SdpProblem, policy: str, ref: float,
                           budget: int) -> int | None:
    b_scale = 1.0 + float(np.linalg.norm(problem.b))
    c = problem.C.dense

    def check(k, x, y):
        infeasibility = float(np.linalg.norm(forward(problem.constraints, x) - problem.b))
        objective = float(np.vdot(c, x))
        if (infeasibility <= INFEASIBILITY * b_scale
                and abs(objective - ref) <= OBJECTIVE_ERROR * (1.0 + abs(ref))):
            raise _Reached(k + 1)

    config = P.SolveConfig(max_iters=budget, tol=1e-300, callback=check)
    try:
        P.solve(problem, P.make_policy(policy), config)
    except _Reached as hit:
        return hit.args[0]
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--policies", nargs="+", default=["alv", "tf"])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    args = ap.parse_args()
    print("seed," + ",".join(args.policies))
    for seed in args.seeds:
        problem = P.gen_random(seed, n=50, m=50)
        ref = reference_objective(problem, 10 * BUDGET)
        counts = [iterations_to_accuracy(problem, name, ref, BUDGET)
                  for name in args.policies]
        print(f"{seed}," + ",".join("cap" if c is None else str(c) for c in counts),
              flush=True)


if __name__ == "__main__":
    main()
