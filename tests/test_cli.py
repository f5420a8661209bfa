import argparse
import json

import numpy as np
import pytest

import pdhgsdp.bench as bench_mod
from pdhgsdp.bench import make_problem
from pdhgsdp.cli import build_parser, main
from pdhgsdp.linalg import SymMat
from pdhgsdp.operators import ConstraintMap
from pdhgsdp.problems import SdpProblem, gen_maxcut, write_instance
from pdhgsdp.solver import POLICY_NAMES, SolveConfig, make_policy, solve


def run_cli(*args):
    return main(list(args))


class TestSolveCommand:
    def test_converged_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--problem", "mc", "--policy", "fixed", "--seed", "1",
            "--n", "6", "--m", "6", "--max-iters", "20000", "--tol", "1e-6",
            "--out", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "iter,p_norm,d_norm,combined,objective,alpha,beta,theta,wall_ms"
        assert "converged" in capsys.readouterr().out

    def test_iteration_cap_exit_two(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--problem", "rg", "--policy", "fixed", "--seed", "1",
            "--n", "6", "--m", "6", "--max-iters", "3", "--out", str(out),
        )
        assert code == 2

    def test_error_exit_one(self, tmp_path):
        code = run_cli(
            "solve", "--problem", "file:/does/not/exist.dat-s",
            "--policy", "tf", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("size", [1000000, 99999999999999999999], ids=["1e6", "1e20"])
    def test_block_size_too_large_exit_one(self, tmp_path, capsys, size):
        # a dense C of this size cannot be allocated; the block size is on line 4
        path = tmp_path / "big.dat-s"
        path.write_text(f'"two entries\n1\n1\n{size}\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n')
        code = run_cli("solve", "--problem", f"file:{path}", "--policy", "bpdr",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: line 4: block size {size} is too large")

    def test_unknown_flag_exit_one(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", "mc", "--policy", "tf",
                       "--bogus-flag", "1")
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("policy", ["fixed", "bpdr", "alv", "tf"])
    def test_zero_constraint_map_exit_one(self, tmp_path, capsys, policy):
        zero = SdpProblem(SymMat.identity(2), ConstraintMap((SymMat.zeros(2),)),
                          np.zeros(1))
        path = tmp_path / "zero.dat-s"
        write_instance(zero, path)
        code = run_cli("solve", "--problem", f"file:{path}", "--policy", policy,
                       "--out", str(tmp_path / "t.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "constraint map is zero" in err

    def test_file_problem_round_trips(self, tmp_path):
        prob = gen_maxcut(1, n=6, m_edges=6)
        path = tmp_path / "inst.dat-s"
        write_instance(prob, path)
        out = tmp_path / "trace.csv"
        code = run_cli(
            "solve", "--problem", f"file:{path}", "--policy", "fixed",
            "--max-iters", "20000", "--out", str(out),
        )
        assert code == 0

    def test_deterministic_trace_modulo_wall_ms(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(
                "solve", "--problem", "rg", "--policy", "bpdr", "--seed", "3",
                "--n", "6", "--m", "4", "--max-iters", "50", "--out", str(out),
            ) in (0, 2)
            outs.append(out.read_text())
        assert strip_wall_ms(outs[0]) == strip_wall_ms(outs[1])

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_no_flag_runs_the_library_defaults(self, tmp_path, policy):
        out = tmp_path / "trace.csv"
        assert run_cli("solve", "--problem", "rg", "--policy", policy, "--n", "6",
                       "--m", "4", "--max-iters", "50", "--out", str(out)) in (0, 2)
        trace = solve(make_problem("rg", 1, {"rg": {"n": 6, "m": 4}}),
                      make_policy(policy), SolveConfig(max_iters=50))
        assert strip_wall_ms(out.read_text()) == strip_wall_ms(trace.to_csv())

    @pytest.mark.parametrize("flags", [
        ("--policy", "tf", "--s", "0.2"),  # a flag of another policy
        ("--policy", "tf", "--n", "0"),  # an invalid size, once replaced by 50
        ("--policy", "fixed", "--radius", "0.5"),  # an snl flag on rg
    ], ids=["foreign-policy-flag", "zero-size", "foreign-instance-flag"])
    def test_rejected_flag_exit_one(self, tmp_path, capsys, flags):
        code = run_cli("solve", "--problem", "rg", "--max-iters", "5",
                       "--out", str(tmp_path / "t.csv"), *flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        ("--policy", "bpdr", "--eps0", "0.5"),
        ("--policy", "ls", "--mu", "0.5"),
        ("--policy", "tf", "--eps-tf", "2"),
    ], ids=["eps0", "mu", "eps-tf"])
    def test_fixed_constant_flag_exit_one(self, tmp_path, capsys, flags):
        # only eta (bpdr, alv) and s (ls) are settable; tf takes nothing
        code = run_cli("solve", "--problem", "rg", "--max-iters", "5",
                       "--out", str(tmp_path / "t.csv"), *flags)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flags[2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_maxcut_size_named(self, tmp_path, capsys, n):
        code = run_cli("solve", "--problem", "mc", "--policy", "bpdr", "--n", n,
                       "--m", "0", "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: need n >= 1, got n={n}")

    @pytest.mark.parametrize("flags", [
        ("--degree", "0"),  # once resampled 50 geometries, then a traceback
        ("--n", "0"),  # once solved a 2x2 instance with no sensor
        ("--radius", "1e-6"),  # a geometry that never connects
    ], ids=["zero-degree", "no-sensor", "unconnected"])
    def test_snl_sizes_exit_one(self, tmp_path, capsys, flags):
        code = run_cli("solve", "--problem", "snl", "--policy", "fixed",
                       "--max-iters", "5", "--out", str(tmp_path / "t.csv"), *flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags,param", [
        (("--problem", "rg", "--policy", "fixed", "--tol", "nan"), "tol"),
        (("--problem", "rg", "--policy", "ls", "--s", "nan"), "s"),
        (("--problem", "rg", "--policy", "ls", "--s", "inf"), "s"),
        (("--problem", "rg", "--policy", "bpdr", "--eta", "nan"), "eta"),
        (("--problem", "snl", "--policy", "fixed", "--radius", "nan"), "radius"),
    ], ids=["tol-nan", "s-nan", "s-inf", "eta-nan", "radius-nan"])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, flags, param):
        # each once ran to the cap, failed mid-solve or resampled geometries
        code = run_cli("solve", "--max-iters", "5", "--out", str(tmp_path / "t.csv"),
                       *flags)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {param} must")


def strip_wall_ms(text):
    return [",".join(line.split(",")[:-1]) for line in text.splitlines()]


def test_library_keyword_flags_default_to_none():
    """Flags that set a library keyword restate no default. verify's --n and
    --m are its own small sizes for the lifted oracle, not gen_random's."""
    keyword_flags = {
        "solve": {"eta", "s", "n", "m", "radius", "degree", "p",
                  "max_iters", "tol"},
        "bench": {"families", "seeds", "policies", "tol"},
        "verify": {"tol"},
        "grid-search": {"etas", "tol"},
    }
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, dests in keyword_flags.items():
        actions = {a.dest: a for a in subparsers.choices[command]._actions}
        assert dests <= actions.keys()
        assert {dest: actions[dest].default for dest in dests} == dict.fromkeys(dests)


class TestVerifyCommand:
    def test_constant_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run_cli("verify", "--n", "5", "--m", "3", "--iters", "100",
                       "--schedule", "constant", "--tol", "1e-8",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["lifting_certificate"]["pass"] is True
        capsys.readouterr()

    def test_geometric_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run_cli("verify", "--schedule", "geometric", "--out", str(out))
        assert code == 0
        capsys.readouterr()

    def test_more_constraints_than_entries_passes(self, tmp_path, capsys):
        # m = 12 > n^2 = 9: the lifting lives in R^m, so no limit applies
        out = tmp_path / "verify.json"
        code = run_cli("verify", "--n", "3", "--m", "12", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True
        capsys.readouterr()

    def test_break_product_exit_three(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run_cli("verify", "--break-product", "--iters", "50",
                       "--out", str(out))
        assert code == 3
        assert json.loads(out.read_text())["pass"] is False
        capsys.readouterr()

    def test_nan_tol_exit_one(self, tmp_path, capsys):
        # once exited 3, reporting the malformed flag as a failed certificate
        out = tmp_path / "verify.json"
        code = run_cli("verify", "--tol", "nan", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: tol must be")
        assert not out.exists()


class TestBenchCommand:
    def test_tiny_sweep(self, tmp_path, capsys):
        cfg = {
            "families": ["rg"],
            "seeds": 2,
            "budgets": {"rg": [200, 2000]},
            "policies": ["fixed", "tf"],
            "sizes": {"rg": {"n": 6, "m": 4}},
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli("bench", "--config", str(cfg_path),
                       "--out-dir", str(out_dir))
        assert code == 0
        table = (out_dir / "table.csv").read_text()
        assert table.splitlines()[0] == "family,policy,budget,solved_fraction"
        assert (out_dir / "runs" / "rg_fixed_1.csv").exists()
        assert (out_dir / "runs" / "rg_tf_2.csv").exists()
        capsys.readouterr()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = {"sizes": {"rg": {"n": 6, "m": 4}}, "budgets": {"rg": [200, 400]}}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = run_cli("bench", "--config", str(cfg_path), "--families", "rg",
                       "--seeds", "1", "--policies", "fixed",
                       "--out-dir", str(out_dir))
        assert code == 0
        lines = (out_dir / "table.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # one policy, two budgets
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        '{"seeds": "2"}',
        '{"policy_params": {"tf": {"s": 1}}}',
        '{"budgets": [100]}',
        '{"seed": 1}',
        '[{"families": ["rg"]}]',
        '{"policy_params": {"bpdr": {"eta": "0.3"}}}',
        '{"policy_params": {"tf": {"eps": 2.0}}}',
    ], ids=["seeds-string", "foreign-policy-param", "budgets-list", "unknown-key",
            "top-level-array", "param-of-wrong-type", "tf-eps"])
    def test_malformed_config_exit_one(self, tmp_path, capsys, monkeypatch, text):
        def no_instances(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(bench_mod, "make_problem", no_instances)
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(text)
        code = run_cli("bench", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("entries,param", [
        ({"tol": "x"}, "tol"),
        ({"budgets": {"rg": ["a", "b"]}}, "budgets"),
        ({"budgets": {"rg": [1.5, 2.5]}}, "budgets"),
        ({"sizes": {"rg": {"bogus": 1}}}, "sizes"),
        ({"policies": ["tf"], "policy_params": {"tf": {"eps": "x"}}}, "eps"),
        ({"sizes": {"rg": {"n": "x"}}}, "sizes"),
        ({"sizes": {"rg": {"n": True}}}, "sizes"),
        ({"policy_params": {"fixed": {"alpha": float("nan"), "beta": float("nan")}}},
         "alpha"),
        ({"tol": float("inf")}, "tol"),
        ({"seeds": True}, "seeds"),
        ({"tol": True}, "tol"),
        ({"budgets": {"rg": [True, 2]}}, "budgets"),
        ({"policies": ["tf"], "policy_params": {"tf": {"eps": True}}}, "eps"),
        ({"policies": ["ls"], "policy_params": {"ls": {"s": 0.5}}}, "ls_s_grid"),
    ], ids=["tol-string", "budget-strings", "budget-floats", "unknown-size",
            "tf-eps-string", "size-string", "size-bool", "fixed-nan", "tol-inf",
            "seeds-true", "tol-true", "budget-true", "tf-eps-true", "ls-s-param"])
    def test_malformed_value_exit_one(self, tmp_path, capsys, monkeypatch, entries, param):
        def no_instances(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(bench_mod, "make_problem", no_instances)
        cfg = {"families": ["rg"], "seeds": 1, "policies": ["fixed"], **entries}
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("bench", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and param in err

    @pytest.mark.parametrize("budgets", [{"rg": [200]}, {"rg": [200], "mc": []}])
    def test_family_without_budgets_exit_one(self, tmp_path, capsys, budgets):
        cfg_path = tmp_path / "bench.json"
        # a tiny sweep, so that a config accepted by mistake still ends soon
        cfg = {"families": ["rg", "mc"], "budgets": budgets, "seeds": 1,
               "policies": ["fixed"], "sizes": {"rg": {"n": 6, "m": 4}}}
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("bench", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'mc'" in err


class TestGridSearchCommand:
    def test_micro_grid(self, tmp_path, capsys, monkeypatch):
        # shrink the split so the command is fast
        import pdhgsdp.bench as bench_mod
        monkeypatch.setattr(bench_mod, "GRID_SEARCH_SPLIT", {"rg": 1})
        out = tmp_path / "grid.csv"
        code = run_cli("grid-search", "--etas", "0.9,0.95", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "policy,eta,fastest_fraction"
        assert len(lines) == 1 + 4
        capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()
