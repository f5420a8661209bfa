"""The end-to-end summary of a run with several passes.

    python3 -m pytest -q benchmarks/test_run.py

At the configured run length every workload makes one pass, so the medians
over passes are checked here on made-up solve records.
"""

import math

import pytest

import run
from run import Setup, Solve


def solve(seconds, iterations=100, converged=True):
    return Solve(1, "tf", seconds, iterations, converged, [], 0.0, None)


def test_medians_over_passes():
    passes = [
        [solve(1.0), solve(4.0)],
        [solve(3.0), solve(2.0, converged=False)],
        [solve(2.0), solve(9.0)],
    ]
    setups = {1: [Setup(gen_s=0.1), Setup(gen_s=0.3), Setup(gen_s=0.2)],
              2: [Setup(gen_s=1.0, write_s=0.5, read_s=0.25)]}
    metrics = run.end_to_end(setups, passes)
    # per-solve medians over passes are 2 s and 4 s
    assert metrics["solve_s_sgm"][0] == pytest.approx(math.sqrt(3.0 * 5.0) - 1.0)
    assert metrics["batch_s"][0] == 5.0  # pass sums 5, 5 and 11
    # the unconverged solve is charged the iteration budget
    assert metrics["iters_total"][0] == 200
    assert run.end_to_end(setups, passes[1:2])["iters_total"][0] == 100 + run.CONFIG.max_iters
    assert metrics["setup_s"][0] == pytest.approx(0.2 + 1.75)
    assert metrics["peak_rss_mb"][0] > 0
