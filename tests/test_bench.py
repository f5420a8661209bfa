from types import SimpleNamespace

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
from pdhgsdp.solver import SolveError

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

    def test_params_of_a_policy_not_swept_are_checked(self):
        data = {"families": ["rg"], "seeds": 1, "policies": ["fixed"],
                "policy_params": {"tf": {"eps": 2.0}}}
        with pytest.raises(ValueError, match="policy 'tf'.*'eps'"):
            BenchConfig.from_dict(data)
        for params, match in (({"bpdr": {"eta": 1.5}}, "eta must be"),
                              ({"ls": {"mu": 0.5}}, "policy 'ls'.*'mu'")):
            with pytest.raises(ValueError, match=match):
                tiny_config(policies=("fixed",), policy_params=params)

    def test_ls_params_checked_with_each_grid_value(self):
        with pytest.raises(ValueError, match="s must be a finite positive number, got -1.0"):
            tiny_config(policies=("fixed",), policy_params={"ls": {}}, ls_s_grid=(1.0, -1.0))

    @pytest.mark.parametrize("kwargs,match", [
        ({"sizes": {"bogus": {}}}, "sizes name unknown family 'bogus'"),
        ({"sizes": {"rg": 5}}, "sizes for rg must be a mapping, got 5"),
        ({"policy_params": {"bogus": {}}}, "unknown policy 'bogus'"),
    ], ids=["sizes-family", "sizes-not-mapping", "policy-only-in-params"])
    def test_malformed_field_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            tiny_config(**kwargs)

    @pytest.mark.parametrize("data", [{"families": 5}, {"policies": 7}])
    def test_from_dict_reports_a_field_of_the_wrong_type(self, data):
        with pytest.raises(ValueError, match="malformed bench config"):
            BenchConfig.from_dict(data)

    @pytest.mark.parametrize("kwargs,message", [
        ({"families": ("rg", "rg")}, "families repeats 'rg'"),
        ({"policies": ("tf", "fixed", "tf")}, "policies repeats 'tf'"),
        ({"policies": ("ls",), "ls_s_grid": (0.1, 0.1000001)}, "ls_s_grid repeats 'ls_s0.1'"),
        ({"policies": ("ls",), "ls_s_grid": (1.0, 1)}, "ls_s_grid repeats 'ls_s1'"),
    ], ids=["families", "policies", "ls-labels-6-digits", "ls-repeated-value"])
    def test_repeats_rejected(self, kwargs, message):
        # a repeat would solve each instance twice, count its runs twice and
        # write one trace over the other
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(**kwargs)

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

    def test_progress_reports_each_run(self):
        lines = []
        result = run_bench(tiny_config(), progress=lines.append)
        assert lines == [f"rg {r.policy} seed={r.seed}: "
                         f"{'converged' if r.converged else 'iteration_cap'} in {r.iterations}"
                         for r in result.records]

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

    @pytest.mark.parametrize("kwargs,match", [
        ({"etas": (0.5, 2.0)}, "eta must be"),
        ({"sizes": {"snl": {"radius": "x"}}}, "radius must be"),
        ({"budgets": {"rg": 100, "mc": 100, "snl": 0}}, "budgets for snl"),
        ({"tol": float("nan")}, "tol must be"),
    ], ids=["eta", "size", "last-family-budget", "tol"])
    def test_bad_input_rejected_before_any_instance(self, monkeypatch, kwargs, match):
        def no_call(*args):
            raise AssertionError("an instance was generated or solved")

        monkeypatch.setattr(bench_mod, "make_problem", no_call)
        monkeypatch.setattr(bench_mod, "solve", no_call)
        with pytest.raises(ValueError, match=match):
            grid_search_eta(**{"etas": (0.5,), **kwargs})

    def test_each_instance_generated_once(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "GRID_SEARCH_SPLIT", {"rg": 2, "mc": 1})
        generated = []
        generate = bench_mod.make_problem

        def counting(family, seed, sizes=None):
            generated.append((family, seed))
            return generate(family, seed, sizes)

        monkeypatch.setattr(bench_mod, "make_problem", counting)
        grid_search_eta(etas=(0.9, 0.95), sizes=TINY_SIZES, budgets={"rg": 300, "mc": 300})
        assert generated == [("rg", 1), ("rg", 2), ("mc", 1)]

    def test_fastest_fraction_from_iteration_counts(self, monkeypatch):
        # iterations to tolerance per (policy, eta, instance); None hits the
        # cap and "error" is a failed solve
        script = {
            ("bpdr", 0.9, ("rg", 1)): 10, ("bpdr", 0.95, ("rg", 1)): 10,  # tie: both win
            ("bpdr", 0.9, ("rg", 2)): None, ("bpdr", 0.95, ("rg", 2)): None,  # no winner
            ("bpdr", 0.9, ("mc", 1)): None, ("bpdr", 0.95, ("mc", 1)): 7,
            ("alv", 0.9, ("rg", 1)): 5, ("alv", 0.95, ("rg", 1)): 8,
            ("alv", 0.9, ("rg", 2)): None, ("alv", 0.95, ("rg", 2)): "error",  # no winner
            ("alv", 0.9, ("mc", 1)): 3, ("alv", 0.95, ("mc", 1)): 3,  # tie: both win
        }
        budgets = {"rg": 40, "mc": 30}

        def scripted_solve(problem, policy, config):
            assert config.max_iters == budgets[problem[0]] and config.tol == 1e-5
            iters = script[(policy.name, policy.eta, problem)]
            if iters == "error":
                raise SolveError("failed", SimpleNamespace(status="error", iterations=4))
            if iters is None:
                return SimpleNamespace(status="iteration_cap", iterations=config.max_iters)
            return SimpleNamespace(status="converged", iterations=iters)

        monkeypatch.setattr(bench_mod, "GRID_SEARCH_SPLIT", {"rg": 2, "mc": 1})
        monkeypatch.setattr(bench_mod, "make_problem", lambda family, seed, sizes: (family, seed))
        monkeypatch.setattr(bench_mod, "solve", scripted_solve)
        messages = []
        result = grid_search_eta(etas=(0.9, 0.95), budgets=budgets, tol=1e-5,
                                 progress=messages.append)
        assert result.fastest_fraction == {
            ("bpdr", 0.9): 1 / 3, ("bpdr", 0.95): 2 / 3,
            ("alv", 0.9): 2 / 3, ("alv", 0.95): 1 / 3,
        }
        # the runs come instance by instance
        assert messages[:5] == [
            "eta=0.9 rg bpdr seed=1: converged in 10", "eta=0.9 rg alv seed=1: converged in 5",
            "eta=0.95 rg bpdr seed=1: converged in 10", "eta=0.95 rg alv seed=1: converged in 8",
            "eta=0.9 rg bpdr seed=2: iteration_cap in 40",
        ]
