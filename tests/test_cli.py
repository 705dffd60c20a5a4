import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cblue
import cblue.verify
from cblue.cli import main
from cblue.fileio import CSV_HEADER, save_matrix

X_HAT_LINE = re.compile(r"x_hat\[(\d+)\] = \(([^,]+), ([^)]+)\)")
VARIANCE_LINE = re.compile(r"variance\[(\d+)\] = (\S+)")


def parse_x_hat(text):
    found = {int(m.group(1)): complex(float(m.group(2)), float(m.group(3)))
             for m in X_HAT_LINE.finditer(text)}
    return np.array([found[i] for i in sorted(found)])


def parse_variance(text):
    found = {int(m.group(1)): float(m.group(2)) for m in VARIANCE_LINE.finditer(text)}
    return np.array([found[i] for i in sorted(found)])


@pytest.fixture
def colored_problem(tmp_path):
    # worked example: H = I2, C = diag(1, 4), zero-sum constraint, y = [1, 1]
    paths = {}
    arrays = {
        "H": np.eye(2),
        "Cnn": np.diag([1.0, 4.0]),
        "A": np.ones((1, 2)),
        "b": np.zeros(1),
        "y": np.array([1.0, 1.0]),
    }
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    return paths


def run_in_fresh_interpreter(argv):
    """Run the CLI in a new interpreter with warnings shown, capturing text."""
    src = str(Path(cblue.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "default", "-c", "from cblue.cli import run; run()", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def estimate_args(paths, method=None):
    argv = [
        "estimate",
        "--H", str(paths["H"]),
        "--Cnn", str(paths["Cnn"]),
        "--A", str(paths["A"]),
        "--b", str(paths["b"]),
        "--y", str(paths["y"]),
    ]
    if method is not None:
        argv += ["--method", method]
    return argv


def test_estimate_worked_example(colored_problem, capsys):
    assert main(estimate_args(colored_problem)) == 0
    out = capsys.readouterr().out
    assert "method = cblue" in out
    assert_allclose(parse_x_hat(out), [0.6, -0.6], atol=1e-12)
    assert_allclose(parse_variance(out), [0.8, 0.8], rtol=1e-12)
    residual = float(out.split("constraint_residual = ")[1].splitlines()[0])
    assert residual <= 1e-12


def test_readme_estimate_output_is_the_quick_start_problems(colored_problem, capsys):
    # README prints `cblue estimate` on the quick-start problem; the block is its output, byte for byte
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"\n```\n(method = .*?)```", readme, re.S)
    assert main(estimate_args(colored_problem)) == 0
    assert capsys.readouterr().out == block


def test_estimate_direct_and_nullspace_agree(colored_problem, capsys):
    assert main(estimate_args(colored_problem, "cblue-direct")) == 0
    direct = parse_x_hat(capsys.readouterr().out)
    assert main(estimate_args(colored_problem, "cblue-nullspace")) == 0
    reduced = parse_x_hat(capsys.readouterr().out)
    assert_allclose(direct, reduced, atol=1e-10)


def test_estimate_ls_ignores_noise_and_constraints(colored_problem, capsys):
    assert main(estimate_args(colored_problem, "ls")) == 0
    out = capsys.readouterr().out
    assert_allclose(parse_x_hat(out), [1.0, 1.0], atol=1e-12)
    residual = float(out.split("constraint_residual = ")[1].splitlines()[0])
    assert residual == pytest.approx(2.0, rel=1e-9)


def test_estimate_underdetermined_needs_nullspace_form(tmp_path, capsys):
    paths = {}
    arrays = {
        "H": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        "Cnn": np.eye(2),
        "A": np.ones((1, 3)),
        "b": np.zeros(1),
        "y": np.array([1.0, -1.0]),
    }
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    assert main(estimate_args(paths, "cblue")) == 0
    out = capsys.readouterr().out
    x_hat = parse_x_hat(out)
    assert abs(x_hat.sum()) <= 1e-10

    assert main(estimate_args(paths, "cls")) == 1
    err = capsys.readouterr().err
    assert "rank" in err

    assert main(estimate_args(paths, "cblue-direct")) == 1


def test_estimate_names_the_form_used(tmp_path, capsys):
    # two measurements for three parameters: cblue falls back to the nullspace form
    paths = {}
    arrays = {
        "H": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        "Cnn": np.eye(2),
        "A": np.ones((1, 3)),
        "b": np.zeros(1),
        "y": np.array([1.0, -1.0]),
    }
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    assert main(estimate_args(paths, "cblue")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["method = cblue", "form = cblue_nullspace"]


def test_estimate_missing_file(colored_problem, tmp_path, capsys):
    colored_problem["y"] = tmp_path / "absent.json"
    assert main(estimate_args(colored_problem)) == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_corrupt_file(colored_problem, capsys):
    colored_problem["H"].write_text("{not json")
    assert main(estimate_args(colored_problem)) == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_dimension_mismatch(colored_problem, tmp_path, capsys):
    bad = tmp_path / "y3.json"
    save_matrix(bad, np.ones(3))
    colored_problem["y"] = bad
    assert main(estimate_args(colored_problem)) == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_unknown_method_is_usage_error(colored_problem, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(estimate_args(colored_problem, "ridge"))
    assert excinfo.value.code == 2
    capsys.readouterr()


def experiment_config(tmp_path, **overrides):
    settings = {
        "n_x": 3,
        "n_u": 2,
        "base_noise_diag": [1.0, 0.5, 0.2, 0.1],
        "k_grid": [0.1, 1.0],
        "trials": 6,
        "seed": 2,
    }
    settings.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(settings))
    return path


def test_experiment_end_to_end(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 0
    stdout = capsys.readouterr().out
    assert "report written to" in stdout
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_experiment_output_is_reproducible(tmp_path, capsys):
    config = experiment_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["experiment", "--config", str(config), "--output", str(first)]) == 0
    assert main(["experiment", "--config", str(config), "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_experiment_seed_override_changes_output(tmp_path, capsys):
    config = experiment_config(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["experiment", "--config", str(config), "--output", str(first)]) == 0
    assert main(
        ["experiment", "--config", str(config), "--output", str(second), "--seed", "77"]
    ) == 0
    capsys.readouterr()
    assert first.read_bytes() != second.read_bytes()


def test_experiment_trials_override(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["experiment", "--config", str(config), "--output", str(out_csv), "--trials", "3"]
    )
    assert code == 0
    assert "3 trials each" in capsys.readouterr().out


def test_experiment_plot(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["experiment", "--config", str(config), "--output", str(out_csv), "--plot"]
    )
    assert code == 0
    assert "chart written to" in capsys.readouterr().out
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 6
    assert "noise scale k" in svg
    assert "average MSE" in svg


def test_experiment_default_spec(tmp_path, capsys):
    out_csv = tmp_path / "default.csv"
    code = main(["experiment", "--output", str(out_csv), "--trials", "2"])
    assert code == 0
    capsys.readouterr()
    assert len(out_csv.read_text().splitlines()) == 11


def test_experiment_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"unknown_setting": 1}))
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["matrix", "k_grid", "base_noise_diag"])
def test_integers_beyond_double_range_end_in_one_error_line(colored_problem, tmp_path, capsys, where):
    huge = 10**400
    if where == "matrix":
        colored_problem["y"].write_text(
            json.dumps({"rows": 2, "cols": 1, "data": [[1, 0], [huge, 0]]})
        )
        argv = estimate_args(colored_problem)
    else:
        value = [0.1, huge] if where == "k_grid" else [1.0, 0.5, huge, 0.1]
        config = experiment_config(tmp_path, **{where: value})
        argv = ["experiment", "--config", str(config), "--output", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "overrides", [{"trials": 2.5}, {"seed": 1.5}, {"trials": True}]
)
def test_experiment_rejects_non_integer_counts(tmp_path, capsys, overrides):
    config = experiment_config(tmp_path, **overrides)
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_experiment_reports_estimation_failure(tmp_path, capsys):
    # a plainly positive diagonal whose dynamic range trips the pivot gate
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"base_noise_diag": [1.0] * 9 + [1e-17], "trials": 2}))
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_experiment_reports_underflowing_noise_level(tmp_path, capsys):
    # the diagonal passes the pivot gate, but k underflows its first variance to 0
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"k_grid": [1e-318], "base_noise_diag": [1e-10] + [1.0] * 9, "trials": 4})
    )
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: noise scale k = 1e-318 gives a non-finite average MSE"]
    assert not out_csv.exists()


def test_experiment_reports_singular_batch(tmp_path, capsys, monkeypatch):
    import cblue.montecarlo as mc

    real_polar_normals = mc._polar_normals

    def zero_inputs(uniforms):
        """Real draws with every input sequence (n_u = 2 values) set to zero."""
        values = real_polar_normals(uniforms)
        values[..., :2] = 0.0
        return values

    monkeypatch.setattr(mc, "_polar_normals", zero_inputs)
    config = experiment_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: noise scale k = 0.1: ")
    assert not out_csv.exists()


def test_experiment_matches_pinned_sweep(tmp_path, capsys):
    # written by `cblue experiment --trials 200 --seed 1`; values, not bytes,
    # are compared so that another BLAS does not trip the check
    pinned = Path(__file__).parent / "data" / "sweep-trials200-seed1.csv"
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--output", str(out_csv), "--trials", "200", "--seed", "1"]) == 0
    capsys.readouterr()
    assert out_csv.read_text().splitlines()[0] == pinned.read_text().splitlines()[0]
    expected = np.loadtxt(pinned, delimiter=",", skiprows=1)
    assert expected.shape == (10, 13)
    assert_allclose(np.loadtxt(out_csv, delimiter=",", skiprows=1), expected, rtol=1e-10, atol=0)


def test_experiment_plot_needs_two_k_values(tmp_path, capsys):
    config = experiment_config(tmp_path, k_grid=[1.0])
    out_csv = tmp_path / "sweep.csv"
    code = main(["experiment", "--config", str(config), "--output", str(out_csv), "--plot"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_experiment_refuses_non_finite_mse(tmp_path, capsys):
    # 1e-306 * 1e-3 is subnormal, so the inverse noise variances overflow
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_grid": [1e-306], "trials": 2}))
    out_csv = tmp_path / "sweep.csv"
    assert main(["experiment", "--config", str(config), "--output", str(out_csv)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_experiment_refusal_prints_only_the_error_line(tmp_path):
    # numpy floating-point warnings must not come before the error line, so
    # the command runs in a fresh interpreter with warnings shown
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k_grid": [1e-306], "trials": 2}))
    out_csv = tmp_path / "sweep.csv"
    done = run_in_fresh_interpreter(
        ["experiment", "--config", str(config), "--output", str(out_csv)]
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert not out_csv.exists()


@pytest.mark.parametrize("exponent", [-160, 160, 200])
def test_estimate_refuses_extreme_scale_with_one_error_line(tmp_path, exponent):
    # the Gram matrix or the error covariance leaves double range; numpy
    # warnings and tracebacks must not reach stderr
    rng = np.random.default_rng(82)
    h = (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) * 10.0**exponent
    arrays = {
        "H": h,
        "Cnn": np.eye(8),
        "A": np.ones((1, 4)),
        "b": np.zeros(1),
        "y": h @ np.array([1.0, -2.0, 0.5, 0.5]),
    }
    paths = {}
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    done = run_in_fresh_interpreter(estimate_args(paths))
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert done.stdout == ""


def test_estimate_nullspace_refuses_extreme_constraint_scale_with_one_error_line(tmp_path):
    # A A^H of the zero-sum row times 1e160 overflows while the nullspace
    # parameterization forms its least-norm particular solution
    arrays = {
        "H": np.eye(3),
        "Cnn": np.eye(3),
        "A": np.ones((1, 3)) * 1e160,
        "b": np.zeros(1),
        "y": np.array([1.0, -2.0, 1.0]),
    }
    paths = {}
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    done = run_in_fresh_interpreter(estimate_args(paths, "cblue-nullspace"))
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert done.stdout == ""


PROBE_H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def probe_paths(tmp_path, h, y):
    # H x = y with x_1 = x_2 and C_nn = I: every estimator gives x_hat = (y1 + y2 + 2 y3) / 6
    # per unit of H
    arrays = {"H": h, "Cnn": np.eye(3), "A": np.array([[1.0, -1.0]]), "b": np.zeros(1), "y": y}
    paths = {}
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    return paths


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["cblue", "ls"])
def test_estimate_refuses_an_estimate_beyond_double_range(tmp_path, capsys, method):
    # x_hat = 4e300 / 6e-10 = 6.7e309
    paths = probe_paths(tmp_path, PROBE_H * 1e-10, np.full(3, 1e300))
    assert main(estimate_args(paths, method)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = "error: estimate is not finite in double precision; rescale the problem\n"
    assert captured.err == error


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_keeps_an_estimate_near_the_top_of_double_range(tmp_path, capsys):
    # x_hat = 1.13e308, while W^H L^-1 y = 3.4e308 unless the whitened measurement is scaled
    paths = probe_paths(tmp_path, PROBE_H, np.full(3, 1.7e308))
    assert main(estimate_args(paths)) == 0
    assert_allclose(parse_x_hat(capsys.readouterr().out), [1.7e308 / 6 * 4] * 2, rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_constraint_residual_does_not_overflow(tmp_path, capsys):
    # x_hat = 3.3e307, whose squares overflow in an unscaled norm of A x_hat - b
    paths = probe_paths(tmp_path, PROBE_H, np.array([1e308, -1e308, 1e308]))
    assert main(estimate_args(paths)) == 0
    out = capsys.readouterr().out
    residual = float(re.search(r"constraint_residual = (\S+)", out).group(1))
    x_hat = parse_x_hat(out) / 1e307
    assert residual / 1e307 <= 4 * np.finfo(float).eps * np.linalg.norm(x_hat)


def test_constraint_residual_equals_the_unscaled_norm_on_ordinary_scales():
    from cblue.cli import _residual_norm

    rng = np.random.default_rng(83)
    for scale in (1e-100, 1e-3, 1.0, 1e5, 1e100):
        a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        x = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * scale
        b = a @ x + rng.standard_normal(3) * scale * 1e-12
        assert _residual_norm(a, x, b) == float(np.linalg.norm(a @ x - b))


def test_constraint_residual_scales_the_residual():
    # with a, x and b scaled by the reciprocals of their peaks, the residual of
    # a x = 3e-300 and b = 1 is near 2^995, whose square overflows unless the
    # residual is scaled again before its norm
    from cblue.cli import _residual_norm

    a = np.full((1, 3), 1e-300, dtype=complex)
    assert _residual_norm(a, np.ones(3, dtype=complex), np.ones(1, dtype=complex)) == 1.0


def write_problem(tmp_path, arrays):
    paths = {}
    for name, value in arrays.items():
        paths[name] = tmp_path / f"{name}.json"
        save_matrix(paths[name], value)
    return paths


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constraint_residual_scales_the_constraint_matrix(tmp_path, capsys):
    # A = 1e200 ones on H = 1e100 I: A x_hat - b is near 1e184, but A x_hat has
    # terms near 1e200, whose squares overflow unless A is scaled as well as x_hat
    arrays = {
        "H": 1e100 * np.eye(3),
        "Cnn": np.eye(3),
        "A": 1e200 * np.ones((1, 3)),
        "b": np.zeros(1),
        "y": 1e100 * np.array([1.0, 2.0, 3.5]),
    }
    assert main(estimate_args(write_problem(tmp_path, arrays))) == 0
    out = capsys.readouterr().out
    residual = float(re.search(r"constraint_residual = (\S+)", out).group(1))
    bound = 4 * np.finfo(float).eps * np.linalg.norm(parse_x_hat(out)) * np.sqrt(3)
    assert residual / 1e200 <= bound


METHODS = ("ls", "blue", "cls", "cblue", "cblue-nullspace", "cblue-direct")
SCALE_EXPONENTS = np.arange(-300, 301, 20)


def extreme_scale_problem(rng):
    """A random ``cblue estimate`` input whose five arrays are each scaled by 10^k, k often 0."""
    method = METHODS[rng.integers(len(METHODS))]
    n_x = int(rng.integers(2, 6))
    n_b = int(rng.integers(1, n_x))
    # fewer rows than parameters makes the model underdetermined
    n_y = int(rng.integers(n_x - n_b, n_x + 4))

    def scale():
        return 10.0 ** (0 if rng.random() < 0.5 else int(rng.choice(SCALE_EXPONENTS)))

    def draw(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale()

    h = draw(n_y, n_x)
    root = rng.standard_normal((n_y, n_y)) + 1j * rng.standard_normal((n_y, n_y))
    c_nn = (root @ root.conj().T + n_y * np.eye(n_y)) * scale()
    return method, {"H": h, "Cnn": c_nn, "A": draw(n_b, n_x), "b": draw(n_b), "y": draw(n_y)}


def test_estimate_ends_every_extreme_scale_input_in_an_exit_code(tmp_path, capsys):
    # every input ends in exit 0 with finite output, or in exit 1 or 2 with one
    # error line; an exception that escapes main, a RuntimeWarning among them,
    # fails the test
    rng = np.random.default_rng(29)
    codes = set()
    for _ in range(600):
        method, arrays = extreme_scale_problem(rng)
        code = main(estimate_args(write_problem(tmp_path, arrays), method))
        codes.add(code)
        captured = capsys.readouterr()
        if code == 0:
            assert np.isfinite(parse_x_hat(captured.out)).all()
            assert np.isfinite(parse_variance(captured.out)).all()
            assert len(parse_x_hat(captured.out)) == arrays["H"].shape[1]
        else:
            assert code in (1, 2)
            lines = captured.err.splitlines()
            assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    assert {0, 1} <= codes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimate_keeps_a_least_norm_particular_near_the_top_of_double_range(tmp_path, capsys):
    # x_p = 3.3e306 ones, and H x_p leaves the whitened offset chain's range
    # unless it goes through the scaled apply
    arrays = {
        "H": 10 * np.eye(2, 3),
        "Cnn": np.eye(2),
        "A": np.ones((1, 3)),
        "b": np.array([1e307]),
        "y": np.ones(2),
    }
    assert main(estimate_args(write_problem(tmp_path, arrays))) == 0
    out = capsys.readouterr().out
    assert "form = cblue_nullspace" in out
    x_hat = parse_x_hat(out)
    assert abs(x_hat.sum() - 1e307) <= 4 * np.finfo(float).eps * 1e307


def test_verify_command_passes(capsys):
    assert main(["verify", "--trials", "6"]) == 0
    out = capsys.readouterr().out
    assert "verification: 10/10 properties passed" in out
    assert "FAIL" not in out


def test_verify_command_catches_injected_defect(sign_defect, capsys):
    assert main(["verify", "--trials", "6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_names_the_worst_instance_only_on_failing_lines(sign_defect, capsys):
    assert main(["verify", "--trials", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    where = re.compile(r"  worst at instance [0-5]: n_y \d+, n_x \d+, n_b \d+$")
    assert any("FAIL" in line for line in lines)
    for line in lines:
        assert bool(where.search(line)) == ("FAIL" in line), line


def test_verify_fails_a_property_whose_residuals_are_nan(monkeypatch, capsys):
    @cblue.verify._property("nan-probe", 1e-9)
    def check_nan(rng, model, constraints):
        yield float("nan")

    monkeypatch.setattr(cblue.verify, "_SUITE", (check_nan,))
    assert main(["verify", "--trials", "2"]) == 1
    line, summary = capsys.readouterr().out.splitlines()
    assert line.startswith("nan-probe  FAIL  worst residual       nan  (tol 1e-09, 2 instances)")
    assert re.search(r"  worst at instance 0: n_y \d+, n_x \d+, n_b \d+$", line), line
    assert summary == "verification: 0/1 properties passed"


def test_verify_refuses_bad_arguments():
    for argv in (["--trials", "0"], ["--trials", "-3"], ["--seed", "-1"]):
        done = run_in_fresh_interpreter(["verify", *argv])
        assert done.returncode == 2, argv
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
        assert done.stdout == ""


def test_verify_does_not_report_a_failure_inside_the_suite_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken draw")

    monkeypatch.setattr(cblue.verify, "random_instance", broken)
    with pytest.raises(ValueError, match="broken draw"):
        main(["verify", "--trials", "1"])


def test_experiment_failed_chart_leaves_no_report(tmp_path, capsys):
    config = experiment_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    (tmp_path / "sweep.svg").mkdir()
    code = main(["experiment", "--config", str(config), "--output", str(out_csv), "--plot"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out_csv.exists()
