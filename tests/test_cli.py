import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minmarch as mm
from minmarch.cli import PROBLEM_NAMES, PROBLEMS, main, resolve_config
from minmarch.reporting import json_value


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def out_files(directory):
    return sorted(
        f for f in os.listdir(directory) if f.endswith(".csv")
    )


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def analytic_command_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after one-block studies and a trajectory.

    The studies are of quadratic, cubic and logistic1d with one worker, and
    of logistic1d with two, whose block is too cheap to start a worker for.
    """
    script = (
        "import sys\n"
        "from minmarch.cli import main\n"
        "studies = [('quadratic', 1), ('cubic', 1), ('logistic1d', 1), ('logistic1d', 2)]\n"
        "for name, workers in studies:\n"
        "    argv = ['study', '--problem', name, '--samples', '40', '--workers', str(workers)]\n"
        "    assert main(argv + ['--out', f'{sys.argv[1]}{name}{workers}']) == 0\n"
        "argv = ['trajectory', '--problem', 'logistic1d', '--theta', '1.0,3.0,0.1']\n"
        "assert main(argv + ['--out', sys.argv[1] + 'trajectory']) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(mm.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path_factory.mktemp("commands") / "out_")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


class TestCheck:
    def test_default_passes(self, capsys):
        assert run(["check", "--random-points", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        for name in ("quadratic", "cubic", "logistic1d", "advdiff"):
            assert name in out

    def test_absurd_fd_step_fails(self, capsys):
        assert run(["check", "--fd-step", "0.5", "--random-points", "0"]) != 0
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_problem_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problem": "rosenbrock"}))
        assert run(["check", "--config", str(cfg)]) == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problem": "quadratic", "samples": 10}))
        assert run(["check", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_for_a_later_problem_rejected_before_any_check(self, tmp_path, capsys):
        # advdiff is checked last; its config is still resolved before the first check
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problem": "advdiff", "fd_step": "x"}))
        assert run(["check", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "config error: fd_step must be a number, got 'x'\n")

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_fd_step_that_is_not_positive_and_finite_rejected(self, capsys, step):
        assert run(["check", "--fd-step", step, "--random-points", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: fd_step must be positive and finite, got {float(step)}\n"

    def test_negative_point_count_rejected(self, capsys):
        assert run(["check", "--random-points", "-2"]) == 2
        assert capsys.readouterr() == ("", "config error: --random-points must be >= 0, got -2\n")

    def test_negative_seed_names_the_key(self, capsys):
        # the seed is validated before it seeds the random check points
        assert run(["check", "--seed", "-1", "--random-points", "0"]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"


class TestStudy:
    def test_quadratic_small_study_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert (
            run(
                [
                    "study", "--problem", "quadratic", "--samples", "50",
                    "--steps", "1,2", "--workers", "1", "--out", str(out),
                ]
            )
            == 0
        )
        assert (out / "samples.csv").exists()
        assert (out / "errors_vs_N.csv").exists()
        assert not (out / "study.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "kde_marginal_1_oracle.csv").exists()
        assert (out / "kde_marginal_1_N1.csv").exists()

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem"] == "quadratic"
        assert manifest["config"]["num_samples"] == 50
        assert manifest["failure_counts"]["newton_not_converged"] == 0
        assert manifest["version"] == mm.__version__
        assert manifest["newton"]["grad_tol"] == 1e-10
        assert set(manifest["timings_sec"]) >= {"propagate", "statistics", "kde", "write"}

        rows = read_csv(out / "samples.csv")
        assert len(rows) == 50
        # quadratic: every march equals the oracle equals theta_1
        for row in rows[:5]:
            assert float(row["N1_m_1"]) == pytest.approx(float(row["theta_1"]), abs=1e-12)
            assert float(row["oracle_m_1"]) == pytest.approx(float(row["theta_1"]), abs=1e-12)

    @pytest.mark.usefixtures("forked_blocks")
    @pytest.mark.parametrize("workers,blocks", [(1, 1), (2, 2)])
    def test_manifest_counters(self, tmp_path, workers, blocks):
        out = tmp_path / "counted"
        args = ["study", "--problem", "logistic1d", "--samples", "40", "--out", str(out)]
        assert run(args + ["--workers", str(workers)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        counters = manifest["counters"]
        assert set(counters) == {
            "rhs_evaluations", "march_blocks", "oracle_iterations", "derivative_rows"
        }
        # forward Euler with N = 1, 2, 4, 8, 16: 31 evaluations per sample
        assert counters["rhs_evaluations"] == 31 * 40
        assert counters["march_blocks"] == blocks
        # the first stage of step 0 of each of the 5 step counts is shared by
        # a block: one 3-row call there instead of one row per sample
        assert counters["derivative_rows"]["march"] == 31 * 40 - 5 * (40 - 3 * blocks)
        assert counters["derivative_rows"]["oracle"] >= 40 + counters["oracle_iterations"]
        rows = read_csv(out / "samples.csv")
        assert counters["oracle_iterations"] == sum(int(r["oracle_iterations"]) for r in rows)
        assert counters["oracle_iterations"] > 0

    def test_zero_samples_rejected(self, tmp_path, capsys):
        assert (
            run(["study", "--problem", "quadratic", "--samples", "0", "--out", str(tmp_path / "x")])
            == 2
        )
        assert "num_samples" in capsys.readouterr().err

    def test_single_sample_study_degrades_gracefully(self, tmp_path):
        out = tmp_path / "single"
        assert (
            run(
                [
                    "study", "--problem", "quadratic", "--samples", "1",
                    "--steps", "1", "--workers", "1", "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fitted_slopes"] is None
        assert not (out / "errors_vs_N.csv").exists()
        assert (out / "samples.csv").exists()

    def test_nan_slopes_are_written_as_null(self, tmp_path, capsys):
        # two step counts leave fewer than three points to fit, so every slope is NaN
        out = tmp_path / "two_steps"
        args = ["study", "--problem", "logistic1d", "--samples", "40", "--steps", "1,2"]
        assert run(args + ["--workers", "1", "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        assert "NaN" not in text
        slopes = json.loads(text)["fitted_slopes"]
        assert slopes == {"mean": [None], "std": [None], "per_sample": [None]}
        assert "fitted slopes: mean=[None] std=[None]\n" in capsys.readouterr().out

    def test_zero_spread_study_skips_densities(self, tmp_path):
        # every sample equals the nominal parameters, so no minimizer spreads
        out = tmp_path / "flat"
        cfg = tmp_path / "flat.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "logistic1d",
                    "box": {"nominal": [1.0, 3.0, 0.1], "relative": 0.0},
                    "num_samples": 40,
                    "workers": 1,
                    "output_dir": str(out),
                }
            )
        )
        assert run(["study", "--config", str(cfg)]) == 0
        assert (out / "samples.csv").exists()
        assert (out / "errors_vs_N.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kde_files"] == []
        assert not [f for f in os.listdir(out) if f.startswith("kde_")]

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "logistic1d",
                    "num_samples": 40,
                    "N_list": [1, 2],
                    "seed": 5,
                    "workers": 1,
                    "output_dir": str(tmp_path / "from_config"),
                }
            )
        )
        assert run(["study", "--config", str(cfg), "--samples", "35"]) == 0
        manifest = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
        assert manifest["config"]["num_samples"] == 35  # flag beats file
        assert manifest["config"]["seed"] == 5

    @pytest.mark.parametrize("problem", PROBLEM_NAMES)
    def test_config_echo_resolves_to_itself(self, tmp_path, problem):
        """The manifest's config, read back as a config file, is the same config."""
        out = tmp_path / problem
        args = ["study", "--problem", problem, "--samples", "2", "--steps", "1"]
        assert run(args + ["--no-oracle", "--workers", "1", "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert json_value(resolve_config(echo, {})) == echo

    @pytest.mark.parametrize(
        "key,value",
        [
            ("with_oracle", "false"),
            ("N_list", 4),
            ("problem_options", 3),
            ("workers", 2.7),
            ("num_samples", 40.5),
            ("seed", 7.5),
            ("seed", -1),
            ("fd_step", True),
            ("fd_step", "1e-6"),
            ("output_dir", ["a"]),
            ("N_list", [4, 4]),
            ("N_list", [1, 2.5]),
            ("scheme", "leapfrog"),
            ("box", {"nominal": [1.0, 3.0, 0.1], "relative": True}),
            ("box", {"nominal": [True, 3, 0.1], "relative": 0.4}),
            ("box", {"nominal": [1.0, 3.0, 0.1], "half_widths": [0.1, "x", 0.01]}),
            ("fd_step", float("inf")),
            ("fd_step", float("nan")),
        ],
    )
    def test_config_value_of_wrong_type_rejected(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # rejected before any output directory is made, here or in the cwd
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {"problem": "logistic1d", "num_samples": 40, "output_dir": "never", key: value}
            )
        )
        assert run(["study", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("grid_cells", 64.7),
            ("noise_seed", 1.9),
            ("beta", "1e-3"),
            ("m_true", 0.05),
            ("m_true", [True, 0.4]),
            ("m_prior", [0.06, "x"]),
        ],
    )
    def test_advdiff_option_of_wrong_type_rejected(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "advdiff", "num_samples": 2, "N_list": [1],
                    "with_oracle": False, "workers": 1, "output_dir": "never",
                    "problem_options": {key: value},
                }
            )
        )
        assert run(["study", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"problem_options.{key}" in err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize(
        "key,value",
        [("noise_std", v) for v in (-0.5, np.nan, np.inf)]
        + [("beta", v) for v in (0.0, np.nan, np.inf)]
        + [("noise_seed", -1)],
    )
    def test_advdiff_option_out_of_range_rejected(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        # json writes nan and inf as NaN and Infinity, which json.load reads back
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "advdiff", "num_samples": 2, "N_list": [1],
                    "with_oracle": False, "workers": 1, "output_dir": "never",
                    "problem_options": {key: value},
                }
            )
        )
        assert run(["study", "--config", str(cfg)]) == 2
        rule = {
            "noise_std": ">= 0 and finite",
            "beta": "positive and finite",
            "noise_seed": ">= 0",
        }[key]
        assert capsys.readouterr().err == f"error: {key} must be {rule}, got {value}\n"
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize(
        "key,value", [("m_true", [0.05]), ("m_prior", [0.06, 0.32, 0.1])]
    )
    def test_advdiff_vector_option_of_wrong_length_rejected(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "advdiff", "num_samples": 2, "N_list": [1],
                    "with_oracle": False, "workers": 1, "output_dir": "never",
                    "problem_options": {key: value},
                }
            )
        )
        assert run(["study", "--config", str(cfg)]) == 2
        assert f"{key} must have 2 entries" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("problem,p", [("quadratic", 1), ("cubic", 2), ("advdiff", 3)])
    @pytest.mark.parametrize("command", ["study", "trajectory"])
    def test_box_of_wrong_length_rejected(
        self, tmp_path, monkeypatch, capsys, command, problem, p
    ):
        # rejected before any output directory is made, naming both lengths
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.json"
        nominal = [0.4, 0.5] if p != 2 else [0.3, 0.75, 0.5]
        cfg.write_text(
            json.dumps(
                {
                    "problem": problem, "num_samples": 2, "N_list": [1], "workers": 1,
                    "output_dir": "never", "box": {"nominal": nominal, "relative": 0.2},
                }
            )
        )
        theta = ",".join(map(str, nominal))
        argv = [command, "--config", str(cfg)] + (["--theta", theta] if command != "study" else [])
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: box has {len(nominal)} parameters, but {problem} takes {p}\n"
        assert os.listdir(tmp_path) == ["bad.json"]

    def test_analytic_commands_load_no_scipy(self, analytic_command_modules):
        # scipy takes about 0.2 s to import and 0.04 s to tear down, more than
        # the rest of a logistic1d study after its nominal solve; advdiff alone
        # needs it
        loaded = [m for m in analytic_command_modules if m.split(".")[0] == "scipy"]
        assert loaded + [m for m in analytic_command_modules if "advdiff" in m] == []

    def test_one_block_commands_load_neither_numpy_ma_nor_multiprocessing(
        self, analytic_command_modules
    ):
        # np.percentile imports numpy.ma (12 ms, 1.3 MB) and a worker process
        # needs multiprocessing (7 ms, 0.7 MB): a study of one block uses neither
        assert [
            m for m in analytic_command_modules
            if m.split(".")[0] == "multiprocessing" or m.split(".")[:2] == ["numpy", "ma"]
        ] == []

    def test_no_oracle_skips_error_table(self, tmp_path):
        out = tmp_path / "no_oracle"
        assert (
            run(
                [
                    "study", "--problem", "quadratic", "--samples", "31",
                    "--steps", "1", "--no-oracle", "--workers", "1", "--out", str(out),
                ]
            )
            == 0
        )
        assert not (out / "errors_vs_N.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fitted_slopes"] is None

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["study", "--problem", "logistic1d", "--samples", "60", "--steps", "1,4", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert run(args + ["--workers", "1", "--out", str(out2)]) == 0
        names = out_files(out1)
        assert names == out_files(out2)
        for name in names:
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name

    @pytest.mark.usefixtures("forked_blocks")
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ["study", "--problem", "logistic1d", "--samples", "60", "--steps", "1,4", "--seed", "11"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert run(args + ["--workers", "2", "--out", str(out2)]) == 0
        for name in out_files(out1):
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name

    @pytest.mark.usefixtures("forked_blocks")
    def test_advdiff_options_and_workers(self, tmp_path):
        cfg = tmp_path / "adv.json"
        cfg.write_text(
            json.dumps(
                {
                    "problem": "advdiff",
                    "num_samples": 31,
                    "N_list": [1, 2],
                    "seed": 4,
                    "problem_options": {"grid_cells": 64},
                }
            )
        )
        out1, out2 = tmp_path / "adv1", tmp_path / "adv2"
        assert run(["study", "--config", str(cfg), "--workers", "1", "--out", str(out1)]) == 0
        assert run(["study", "--config", str(cfg), "--workers", "2", "--out", str(out2)]) == 0
        for name in out_files(out1):
            assert read_bytes(out1 / name) == read_bytes(out2 / name), name
        assert (out1 / "kde_joint_oracle.csv").exists()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["problem_options"]["grid_cells"] == 64
        assert manifest["config"]["problem_options"]["beta"] == 1e-3  # defaults kept

    def test_scheme_flag(self, tmp_path):
        out = tmp_path / "heun"
        assert (
            run(
                [
                    "study", "--problem", "quadratic", "--samples", "5", "--steps", "2",
                    "--scheme", "heun", "--workers", "1", "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scheme"] == "heun"


@pytest.mark.parametrize(
    "argv, out",
    [
        (["study", "--problem", "quadratic", "--samples", "40", "--workers", "1"], "file"),
        (["trajectory", "--problem", "quadratic", "--theta", "0.5"], "file/x"),
    ],
    ids=["study", "trajectory"],
)
def test_output_directory_that_cannot_be_made_is_an_error_line(tmp_path, argv, out):
    """An --out that is a file, or lies under one, exits 1 with one line on stderr."""
    (tmp_path / "file").write_text("")
    result = subprocess.run(
        [sys.executable, "-m", "minmarch.cli", *argv, "--out", str(tmp_path / out)],
        env={**os.environ, "PYTHONPATH": str(Path(mm.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_advdiff_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every CSV of a 2-d study is the same under one and two OpenBLAS threads.

    At 60 samples a BLAS product of the joint density's kernel matrices is
    large enough for OpenBLAS to split over threads, which changes its bits.
    """
    argv = ["study", "--problem", "advdiff", "--samples", "60", "--workers", "1"]
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "minmarch.cli", *argv, "--out", str(tmp_path / threads)],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(mm.__file__).resolve().parents[1]),
                "OPENBLAS_NUM_THREADS": threads,
            },
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
    names = out_files(tmp_path / "1")
    assert "kde_joint_oracle.csv" in names and names == out_files(tmp_path / "2")
    for name in names:
        assert read_bytes(tmp_path / "1" / name) == read_bytes(tmp_path / "2" / name), name


def test_readme_example_config_is_the_advdiff_default():
    """README's example config states advdiff's defaults, but for the worker count."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Example config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    example = json.loads(block)
    resolved = json_value(resolve_config(example, {}))
    default = resolve_config(None, {"problem": "advdiff", "workers": example["workers"]})
    assert resolved == json_value(default)
    assert example["box"] == PROBLEMS["advdiff"]["box"]
    assert example["N_list"] == PROBLEMS["advdiff"]["N_list"]
    assert example["problem_options"] == PROBLEMS["advdiff"]["problem_options"]


class TestTrajectory:
    def test_nominal_sample_is_constant(self, tmp_path):
        out = tmp_path / "traj"
        assert (
            run(
                [
                    "trajectory", "--problem", "logistic1d", "--theta", "1.0,3.0,0.1",
                    "--steps", "6", "--out", str(out),
                ]
            )
            == 0
        )
        rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 7
        values = {row["m_1"] for row in rows}
        assert len(values) == 1
        sens = read_csv(out / "sensitivity.csv")
        assert all(float(r["f_norm"]) == 0.0 for r in sens)

    @pytest.mark.parametrize(
        "problem,theta,N",
        [
            ("logistic1d", "1.2,2.6,0.12", 16),
            ("quadratic", "0.55", 4),
            ("advdiff", "11,0.055,0.9", 20),
        ],
    )
    def test_sensitivity_rows_are_the_euler_increments(self, tmp_path, problem, theta, N):
        """Forward Euler steps m_{n+1} = m_n + h f_n with the f_n of sensitivity.csv.

        Bit for bit, except at advdiff's step 0: the march takes it from the
        full B at the nominal point, sensitivity.csv from the directional b.
        """
        out = tmp_path / problem
        argv = ["trajectory", "--problem", problem, "--theta", theta, "--steps", str(N)]
        assert run(argv + ["--out", str(out)]) == 0
        traj, sens = read_csv(out / "trajectory.csv"), read_csv(out / "sensitivity.csv")
        d = len(traj[0]) - 2
        m = np.array([[float(row[f"m_{j + 1}"]) for j in range(d)] for row in traj])
        f = np.array([[float(row[f"f_{j + 1}"]) for j in range(d)] for row in sens])
        assert len(m) == N + 1 and len(f) == N
        stepped = m[:-1] + (1.0 / N) * f
        first = 1 if problem == "advdiff" else 0
        assert np.array_equal(m[1 + first :], stepped[first:])
        np.testing.assert_allclose(m[1], stepped[0], rtol=1e-12, atol=0.0)

    def test_step_zero_abort_writes_header_only_sensitivity(
        self, tmp_path, monkeypatch, fragile_problem
    ):
        # Heun's second stage at theta = -1 meets an indefinite Hessian
        monkeypatch.setattr("minmarch.cli.build_problem", lambda cfg: fragile_problem)
        cfg = tmp_path / "fragile.json"
        box = {"nominal": [1.0], "half_widths": [2.5]}
        cfg.write_text(json.dumps({"problem": "quadratic", "box": box}))
        out = tmp_path / "aborted"
        argv = ["trajectory", "--config", str(cfg), "--theta", "-1.0", "--steps", "1"]
        assert run(argv + ["--scheme", "heun", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "aborted_indefinite"
        assert len(read_csv(out / "trajectory.csv")) == 1
        assert (out / "sensitivity.csv").read_text() == "sample_index,step,t,f_norm,f_1\n"

    def test_cubic_lands_on_second_parameter(self, tmp_path):
        out = tmp_path / "cubic_traj"
        assert (
            run(
                [
                    "trajectory", "--problem", "cubic", "--theta", "0.35,0.8",
                    "--steps", "8", "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final_state"][0] == pytest.approx(0.8, abs=1e-10)
        assert manifest["status"] == "completed"

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--seed", "3"], ["--samples", "10"], ["--oracle"]]
    )
    def test_study_only_flags_rejected(self, tmp_path, capsys, flag):
        argv = ["trajectory", "--problem", "logistic1d", "--theta", "1.0,3.0,0.1", *flag]
        with pytest.raises(SystemExit) as exit_:
            run(argv + ["--out", str(tmp_path / "x")])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_config_file_keeps_study_keys(self, tmp_path):
        # study and trajectory share a config file
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"problem": "logistic1d", "workers": 2, "seed": 3}))
        out = tmp_path / "traj"
        argv = ["trajectory", "--config", str(cfg), "--theta", "1.0,3.0,0.1", "--steps", "2"]
        assert run(argv + ["--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["workers"], config["seed"]) == (2, 3)

    def test_outside_box_names_coordinate(self, tmp_path, capsys):
        assert (
            run(
                [
                    "trajectory", "--problem", "logistic1d", "--theta", "1.0,4.5,0.1",
                    "--out", str(tmp_path / "x"),
                ]
            )
            == 2
        )
        assert "theta_2" in capsys.readouterr().err

    def test_final_state_matches_newton(self, tmp_path, logistic):
        theta = [1.25, 2.5, 0.09]
        out = tmp_path / "cross"
        assert (
            run(
                [
                    "trajectory", "--problem", "logistic1d",
                    "--theta", ",".join(str(v) for v in theta),
                    "--steps", "20", "--out", str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        oracle = mm.newton_solve(logistic, np.array(theta), np.array([0.9]))
        assert abs(manifest["final_state"][0] - oracle.minimizer[0]) <= 1e-2
