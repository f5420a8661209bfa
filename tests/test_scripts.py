import importlib.util
from pathlib import Path

import pytest

from pdhgsdp.problems import gen_random

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def equal_accuracy():
    spec = importlib.util.spec_from_file_location(
        "equal_accuracy", SCRIPTS / "equal_accuracy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEqualAccuracy:
    """``iterations_to_accuracy`` ends each solve by raising from the
    callback at the first iteration that reaches the accuracy."""

    def test_counts_iterations_to_accuracy(self, equal_accuracy):
        problem = gen_random(1, n=6, m=4)
        ref = equal_accuracy.reference_objective(problem, 10 * equal_accuracy.BUDGET)
        count = equal_accuracy.iterations_to_accuracy(problem, "tf", ref,
                                                      equal_accuracy.BUDGET)
        assert isinstance(count, int)
        assert count == 295

    def test_exhausted_budget_gives_none(self, equal_accuracy):
        problem = gen_random(1, n=6, m=4)
        ref = equal_accuracy.reference_objective(problem, 10 * equal_accuracy.BUDGET)
        assert equal_accuracy.iterations_to_accuracy(problem, "tf", ref, 1) is None
