import csv
import io

import pytest

from stormopt import variants
from stormopt.cli import cli_main, run_profile_cells
from stormopt.engine import TrustRegionConfig
from stormopt.logistic import LogisticProblem, make_synthetic, train_test_split
from stormopt.problems import get_problem
from stormopt.profiles import ProfileTable, solve_threshold


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theory_prints_standard_recipe_values(capsys):
    code, out, _ = run_cli(capsys, "theory", "--L", "1", "--kappa", "10",
                           "--kfcd", "0.5", "--eta1", "0.5", "--gamma", "2")
    assert code == 0
    assert "eta2_min=32" in out
    assert "C1=2/17 (0.117647)" in out
    assert "threshold_A=9" in out
    assert "threshold_B=1/440" in out


def test_theory_failure_probabilities(capsys):
    code, out, _ = run_cli(capsys, "theory", "--n", "10", "--success-prob", "0.998")
    assert code == 0
    assert "alpha=0.266782" in out
    assert "beta=0.960751" in out


def test_theory_probability_condition_checks(capsys):
    code, out, _ = run_cli(capsys, "theory", "--alpha", "0.999", "--beta", "0.999")
    assert code == 0
    assert "ratio_condition=true" in out
    assert "product_condition=true" in out
    assert "half_condition=true" in out
    code, out, _ = run_cli(capsys, "theory", "--alpha", "0.6", "--beta", "0.6")
    assert "product_condition=false" in out


def test_run_failure_no_corruption_solved(capsys):
    code, out, _ = run_cli(capsys, "run", "--variant", "storm-failure",
                           "--noise", "failure", "--problem", "simple-quad-2",
                           "--ps", "1.0", "--seed", "1")
    assert code == 0
    assert "solved=true" in out


def test_run_emits_trajectory_csv(capsys):
    code, out, _ = run_cli(capsys, "run", "--variant", "storm-unbiased",
                           "--problem", "simple-quad-2", "--budget", "300",
                           "--seed", "0")
    assert code == 0
    lines = [l for l in out.splitlines() if l and "=" not in l.split(",")[0]]
    header = lines[0].split(",")
    assert header[:3] == ["k", "delta", "rho"]
    assert len(lines) > 1


def test_unknown_problem_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--variant", "tr-saa",
                           "--problem", "nope-7")
    assert code == 2
    assert "unknown problem" in err


def test_non_finite_sigma_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--variant", "tr-saa", "--problem", "simple-quad-2",
                           "--noise", "additive", "--sigma", "nan")
    assert code == 2
    assert err.startswith("error:") and "sigma" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--problem", "simple-quad-2", "--seeds", "0"),
    ("sweep", "--problem", "simple-quad-2", "--seeds", "-1"),
    ("profile", "--problems", "simple-quad-2", "--tau", "nan"),
    ("run", "--variant", "tr-saa", "--problem", "simple-quad-2", "--tau", "nan"),
    # an infinite radius used to make the run loop forever
    ("run", "--variant", "tr-saa", "--problem", "simple-quad-2",
     "--delta0", "inf", "--delta-max", "inf"),
    # n = 0 used to raise ZeroDivisionError, and n = -1 to print a
    # "probability" above 1
    ("theory", "--n", "0"),
    ("theory", "--n", "-1"),
    ("theory", "--n", "-1", "--success-prob", "0.9"),
])
def test_bad_counts_and_tolerances_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("flag", ["--gamma", "--eta2", "--delta0", "--delta-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ("run", "--variant", "tr-saa", "--problem", "simple-quad-2"),
    ("sweep", "--problem", "simple-quad-2", "--seeds", "1", "--budget", "50"),
    ("train", "--n-samples", "100", "--n-features", "2", "--baseline", "none"),
])
def test_non_finite_trust_region_settings_are_usage_errors(capsys, command, flag, value):
    code, out, err = run_cli(capsys, *command, flag, value)
    assert code == 2
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert out == ""


@pytest.mark.parametrize("argv, marker", [
    (("run", "--variant", "tr-saa", "--problem", "simple-quad-2", "--delta0", "1e-320"),
     "stop_reason=delta-floor"),
    (("run", "--variant", "storm-unbiased", "--problem", "simple-quad-2",
      "--delta0", "1e-320"), "stop_reason=delta-floor"),
    (("train", "--n-samples", "200", "--n-features", "2", "--delta0", "1e-160"),
     "storm_final_train_loss="),
    (("train", "--n-samples", "200", "--n-features", "2", "--delta0", "1e-200"),
     "storm_final_train_loss="),
])
def test_tiny_radius_runs_to_a_clean_stop(capsys, argv, marker):
    # 1/delta (and 1/delta^2) used to overflow, or divide by a delta^2 of 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert marker in out


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--no-such-flag", "x", "--variant", "tr-saa",
                  "--problem", "simple-quad-2"])
    assert exc.value.code == 2


def test_trailing_config_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--variant", "tr-saa", "--problem", "simple-quad-2", "--config"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant=storm-failure\nproblem=simple-quad-2\nps=1.0\nseed=3\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--noise", "failure",
                           "--variant", "storm-failure", "--problem", "simple-quad-2")
    assert code == 0
    assert "seed=3" in out
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--noise", "failure",
                           "--variant", "storm-failure", "--problem", "simple-quad-2",
                           "--seed", "11")
    assert code == 0
    assert "seed=11" in out


def test_storm_seed_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("STORM_SEED", "77")
    code, out, _ = run_cli(capsys, "run", "--variant", "storm-failure",
                           "--noise", "failure", "--problem", "simple-quad-2",
                           "--ps", "1.0")
    assert code == 0
    assert "seed=77" in out


def test_sweep_csv_shape(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--problem", "simple-quad-2",
                         "--ps-grid", "0.9,1.0", "--seeds", "3",
                         "--budget", "2000", "--out", str(out_file),
                         "--emit-plot-data")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["ps", "solved_fraction", "seeds", "mean_evals_solved", "stderr"]
    assert len(rows) == 3
    assert float(rows[2][1]) >= float(rows[1][1])  # ps=1.0 at least as solvable


def test_profile_row_per_pair_and_raw_round_trip(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    curves = tmp_path / "curves.csv"
    code, out, _ = run_cli(capsys, "profile", "--solvers", "storm-unbiased,tr-saa",
                           "--problems", "simple-quad-2,beale-2", "--seeds", "2",
                           "--budget-mult", "200", "--raw-out", str(raw),
                           "--curves-out", str(curves))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["solver", "problem", "score", "fraction_at_r2"]
    assert len(rows) == 1 + 2 * 2  # one row per (solver, problem)
    table = ProfileTable.from_csv(raw.read_text())
    assert len(table.rows) == 2 * 2 * 2
    assert curves.read_text().startswith("solver,ratio,fraction_solved")


def test_profile_fstar_from_run(capsys):
    code, out, _ = run_cli(capsys, "profile", "--solvers", "storm-unbiased,tr-saa",
                           "--problems", "simple-quad-2", "--seeds", "1",
                           "--budget-mult", "200", "--fstar-from-run")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3  # header + one row per solver


def test_solved_profile_cell_stops_at_its_target(monkeypatch):
    spec = get_problem("simple-quad-2")
    threshold = solve_threshold(spec.instantiate().true_f(spec.x0), spec.f_star, 1e-3)
    records = []
    entry = variants.REGISTRY["tr-saa"]

    def capture(problem, cfg, stop=None):
        records.append(entry(problem, cfg, stop))
        return records[-1]

    monkeypatch.setitem(variants.REGISTRY, "tr-saa", capture)
    table = run_profile_cells(["tr-saa"], [spec], "multiplicative", 1e-3, 1e-3, 200, 1)
    (rec,) = records
    assert table.rows[0].evals_to_solve is not None
    assert rec.stop_reason == "target"
    crossed = [ev.k for ev in rec.events if ev.true_f_after < threshold]
    assert crossed[0] == rec.events[-1].k  # no iteration past the first solve


def test_train_synthetic_runs_and_reports(tmp_path, capsys):
    out_file = tmp_path / "train.csv"
    code, out, _ = run_cli(capsys, "train", "--data", "synthetic",
                           "--n-samples", "300", "--n-features", "4",
                           "--baseline", "adagrad", "--seed", "0",
                           "--out", str(out_file))
    assert code == 0
    assert "storm_final_train_loss=" in out
    assert "adagrad_final_train_loss=" in out
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["solver", "evals", "train_loss", "test_loss"]
    solvers = {r[0] for r in rows[1:]}
    assert "adagrad" in solvers and "storm-logistic" in solvers
    for row in rows[1:]:
        float(row[2]), float(row[3])
    for line in out.splitlines():
        float(line.split("=", 1)[1])


def test_train_losses_equal_fresh_full_data_passes(tmp_path, capsys):
    out_file = tmp_path / "train.csv"
    code, out, _ = run_cli(capsys, "train", "--n-samples", "400", "--n-features", "3",
                           "--lambda", "1e-3", "--seed", "5", "--out", str(out_file))
    assert code == 0
    train, test = train_test_split(make_synthetic(400, 3, seed=7, margin_noise=0.3), 0.05, seed=0)
    problem, test_problem = LogisticProblem(train, lam=1e-3), LogisticProblem(test, lam=1e-3)
    storm = variants.run_storm_logistic(problem, TrustRegionConfig(budget=train.n_samples, seed=5))
    base = variants.run_adagrad(train, budget=train.n_samples, lam=1e-3, seed=5)
    want = [[storm.variant, str(sum(e.evals_used_this_iter for e in storm.events[:k + 1])),
             repr(problem.true_f(ev.x_after)), repr(test_problem.true_f(ev.x_after))]
            for k, ev in enumerate(storm.events)]
    want += [[base.variant, str(evals), repr(problem.true_f(x)), repr(test_problem.true_f(x))]
             for evals, x in base.x_checkpoints]
    assert any(not ev.success for ev in storm.events)
    assert list(csv.reader(io.StringIO(out_file.read_text())))[1:] == want
    assert out == (f"storm_final_train_loss={problem.true_f(storm.x_final)!r}\n"
                   f"adagrad_final_train_loss={problem.true_f(base.x_final)!r}\n")


@pytest.mark.parametrize("flags", [
    ("--batch", "0"), ("--batch", "-1"), ("--step0", "nan"), ("--step0", "0"),
    ("--lambda", "-1"), ("--lambda", "nan"), ("--margin-noise", "nan"),
])
def test_bad_train_settings_are_usage_errors(monkeypatch, capsys, flags):
    def refuse(self, p, rng):
        raise AssertionError("training started")  # batch 0 would never end
    monkeypatch.setattr(LogisticProblem, "draw_sample", refuse)
    code, out, err = run_cli(capsys, "train", "--n-samples", "100", "--n-features", "2", *flags)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_train_parses_libsvm_file(tmp_path, capsys):
    data = tmp_path / "tiny.libsvm"
    lines = []
    import numpy as np
    rng = np.random.default_rng(0)
    for i in range(80):
        x = rng.standard_normal(3)
        y = 1 if x[0] + 0.3 * rng.standard_normal() > 0 else -1
        lines.append(f"{y} 1:{x[0]:.4f} 2:{x[1]:.4f} 3:{x[2]:.4f}")
    data.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "train", "--data", str(data),
                           "--baseline", "none", "--seed", "0")
    assert code == 0
    assert "storm_final_train_loss=" in out
