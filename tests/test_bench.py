import numpy as np
import pytest

import pdhgsdp.bench as bench_mod
import pdhgsdp.solver as solver_mod
from pdhgsdp.bench import (
    DEFAULT_BUDGETS,
    BenchConfig,
    grid_search_eta,
    make_problem,
    run_bench,
)

TINY_SIZES = {
    "rg": {"n": 6, "m": 4},
    "mc": {"n": 8, "m_edges": 8},
    "snl": {"m_anchors": 3, "n_sensors": 5, "radius": 0.9, "degree": 4},
}


def tiny_config(**kwargs):
    defaults = dict(
        families=("rg",),
        seeds=2,
        budgets={"rg": (200, 2000)},
        policies=("fixed", "tf"),
        sizes=TINY_SIZES,
    )
    defaults.update(kwargs)
    return BenchConfig(**defaults)


class TestBenchConfig:
    def test_default_budgets_match_protocol(self):
        assert DEFAULT_BUDGETS["rg"] == (5000, 10000, 25000)
        assert DEFAULT_BUDGETS["mc"] == (2500, 5000, 10000)
        assert DEFAULT_BUDGETS["snl"] == (7500, 15000, 30000)

    def test_default_ls_grid(self):
        assert BenchConfig().ls_s_grid == (0.1, 0.2, 1.0, 10.0)

    def test_default_seed_count(self):
        assert BenchConfig().seeds == 100

    def test_budgets_must_increase(self):
        with pytest.raises(ValueError):
            BenchConfig(families=("rg",), budgets={"rg": (100, 100)})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(families=("bogus",))

    def test_family_without_budgets_rejected(self):
        with pytest.raises(ValueError, match="'mc'"):
            BenchConfig(families=("rg", "mc"), budgets={"rg": (100,)})

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValueError, match="'rg'"):
            BenchConfig(families=("rg",), budgets={"rg": ()})

    def test_size_values_typed_like_generator_defaults(self):
        for sizes in ({"rg": {"n": "x"}}, {"rg": {"n": True}}, {"rg": {"m": 5.0}},
                      {"snl": {"radius": "0.3"}}, {"mc": {"negate_objective": 1}}):
            with pytest.raises(ValueError, match="must be of type"):
                tiny_config(sizes=sizes)
        # an int stands for a float, and a bool for a bool
        tiny_config(sizes={"snl": {"radius": 1}, "mc": {"negate_objective": True}})

    def test_ls_grid_expansion(self):
        cfg = tiny_config(policies=("ls",), ls_s_grid=(0.1, 0.2, 1.0, 10.0))
        labels = [label for label, _ in cfg.policy_factories()]
        assert labels == ["ls_s0.1", "ls_s0.2", "ls_s1", "ls_s10"]

    def test_policy_params_forwarded(self):
        cfg = tiny_config(policies=("bpdr",), policy_params={"bpdr": {"eta": 0.25}})
        (_, factory), = cfg.policy_factories()
        assert factory().eta == 0.25


class TestMakeProblem:
    def test_families_and_overrides(self):
        assert make_problem("rg", 1, TINY_SIZES).n == 6
        assert make_problem("mc", 1, TINY_SIZES).n == 8
        assert make_problem("snl", 1, TINY_SIZES).n == 2 + 5
        with pytest.raises(ValueError):
            make_problem("bogus", 1)

    def test_one_instance_per_seed(self):
        a = make_problem("rg", 1, TINY_SIZES)
        b = make_problem("rg", 2, TINY_SIZES)
        assert not np.array_equal(a.b, b.b)


class TestRunBench:
    def test_fractions_monotone_in_budget(self, tmp_path):
        result = run_bench(tiny_config(), trace_dir=tmp_path)
        for (family, policy, budget), frac in result.fractions.items():
            assert 0.0 <= frac <= 1.0
        for policy in ("fixed", "tf"):
            assert result.fraction("rg", policy, 200) <= result.fraction(
                "rg", policy, 2000
            )

    def test_records_and_traces_written(self, tmp_path):
        result = run_bench(tiny_config(), trace_dir=tmp_path)
        assert len(result.records) == 2 * 2  # seeds x policies
        for rec in result.records:
            assert (tmp_path / f"{rec.family}_{rec.policy}_{rec.seed}.csv").exists()

    def test_table_csv_deterministic(self):
        cfg = tiny_config()
        assert run_bench(cfg).table_csv() == run_bench(cfg).table_csv()

    def test_table_csv_shape(self):
        table = run_bench(tiny_config()).table_csv()
        lines = table.strip().splitlines()
        assert lines[0] == "family,policy,budget,solved_fraction"
        assert len(lines) == 1 + 2 * 2  # policies x budgets

    def test_run_errors_recorded_not_fatal(self, monkeypatch):
        # a projection that fails in every solve must not kill the sweep
        def failing_projection(x, runs):
            raise np.linalg.LinAlgError("eigensolver did not converge")

        monkeypatch.setattr(solver_mod, "proj_psd_packed", failing_projection)
        result = run_bench(tiny_config())
        assert len(result.records) == 4
        assert all(rec.error is not None for rec in result.records)
        assert result.fraction("rg", "tf", 2000) == 0.0


class TestGridSearch:
    def test_shape_and_range(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "GRID_SEARCH_SPLIT", {"rg": 2})
        result = grid_search_eta(
            etas=(0.9, 0.95),
            sizes=TINY_SIZES,
            budgets={"rg": 2000},
        )
        assert set(result.fastest_fraction) == {
            ("bpdr", 0.9), ("bpdr", 0.95), ("alv", 0.9), ("alv", 0.95),
        }
        for frac in result.fastest_fraction.values():
            assert 0.0 <= frac <= 1.0
        table = result.table_csv()
        assert table.splitlines()[0] == "policy,eta,fastest_fraction"
