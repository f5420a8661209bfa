"""The per-layer wrappers count exactly what the engine does.

    python3 -m pytest -q benchmarks/test_tracing.py

Every iteration of bpdr applies the constraint map 4 times (A^T in the primal
step, A in the dual step, one of each in the residuals); tf and alv add one
A^T(y) recomputation in a policy hook. The solves run to the iteration cap so
that alv's post-iteration hook runs on every iteration.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pdhgsdp as P  # noqa: E402
from pdhgsdp import solver as solver_module  # noqa: E402

from tracing import Tracer, instrument, instrument_policy  # noqa: E402

ITERS = 25


def traced_solve(policy_name):
    problem = P.gen_random(1, n=6, m=4)
    policy = P.make_policy(policy_name)
    tracer = Tracer()
    with instrument(solver_module, tracer), instrument_policy(policy, tracer):
        trace = P.solve(problem, policy, P.SolveConfig(max_iters=ITERS, tol=1e-300))
    assert trace.iterations == ITERS
    return tracer


@pytest.mark.parametrize("policy, per_iter, in_policy", [
    ("bpdr", 4, 0), ("tf", 5, 1), ("alv", 5, 1),
])
def test_operator_calls_per_iteration(policy, per_iter, in_policy):
    tracer = traced_solve(policy)
    map_calls = tracer.layer("operators", tracer.calls, exclude="lambda_max")
    assert map_calls == per_iter * ITERS
    assert tracer.policy_operator_calls == in_policy * ITERS
    assert tracer.layer("operators", tracer.calls) - map_calls == 1  # lambda_max once
    assert tracer.layer("projections", tracer.calls) == ITERS
    assert tracer.calls["solver.residuals"] == ITERS


def test_originals_restored():
    before = dict(vars(solver_module))
    policy = P.make_policy("tf")
    traced_solve("bpdr")
    with instrument_policy(policy, Tracer()):
        assert "adjust_mid" in vars(policy)
    assert "adjust_mid" not in vars(policy)
    assert dict(vars(solver_module)) == before


def test_self_time_excludes_children():
    tracer = traced_solve("tf")
    for name, total in tracer.total_s.items():
        assert 0.0 <= tracer.self_s[name] <= total
    # the hook's A^T call is its child, so the hook's self time is smaller
    assert tracer.self_s["policy.adjust_mid"] < tracer.total_s["policy.adjust_mid"]
