import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from cblue.fileio import (
    CSV_HEADER,
    FileFormatError,
    load_experiment_config,
    load_matrix,
    load_vector,
    save_matrix,
    spec_from_config,
    write_mse_csv,
)
from cblue.montecarlo import ExperimentSpec, run_experiment


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(80)
    matrix = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    target = tmp_path / "m.json"
    save_matrix(target, matrix)
    assert_array_equal(load_matrix(target), matrix)


def test_vector_round_trip(tmp_path):
    vector = np.array([1.0 + 2.0j, -0.5, 3.25j])
    target = tmp_path / "v.json"
    save_matrix(target, vector)
    loaded = load_vector(target)
    assert loaded.shape == (3,)
    assert_array_equal(loaded, vector)


def test_load_vector_accepts_row_layout(tmp_path):
    target = tmp_path / "row.json"
    write_json(
        target,
        {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]},
    )
    assert_array_equal(load_vector(target), np.array([1.0, 2.0]))


def test_load_vector_rejects_full_matrix(tmp_path):
    target = tmp_path / "m.json"
    save_matrix(target, np.ones((2, 3)))
    with pytest.raises(FileFormatError):
        load_vector(target)


def test_load_matrix_rejects_bad_payloads(tmp_path):
    cases = [
        "not json at all",
        json.dumps([1, 2, 3]),
        json.dumps({"rows": 2, "cols": 2}),
        json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]] * 4, "extra": 1}),
        json.dumps({"rows": 0, "cols": 2, "data": []}),
        json.dumps({"rows": True, "cols": 2, "data": [[1, 0], [1, 0]]}),
        json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]] * 3}),
        json.dumps({"rows": 1, "cols": 1, "data": [[1]]}),
        json.dumps({"rows": 1, "cols": 1, "data": [[1, "zero"]]}),
        json.dumps({"rows": 1, "cols": 1, "data": [[1, None]]}),
    ]
    for index, text in enumerate(cases):
        target = tmp_path / f"bad{index}.json"
        target.write_text(text)
        with pytest.raises(FileFormatError):
            load_matrix(target)


def test_load_matrix_rejects_non_finite(tmp_path):
    target = tmp_path / "inf.json"
    target.write_text('{"rows": 1, "cols": 1, "data": [[1e999, 0.0]]}')
    with pytest.raises(FileFormatError):
        load_matrix(target)


def test_integers_beyond_double_range_are_format_errors(tmp_path):
    # json parses 1 followed by 400 zeros as an exact int, which float() cannot hold
    huge = 10**400
    target = tmp_path / "huge.json"
    target.write_text(json.dumps({"rows": 1, "cols": 2, "data": [[1, 0], [huge, 0]]}))
    with pytest.raises(FileFormatError, match=r"data\[1\]"):
        load_matrix(target)
    for config in ({"k_grid": [1.0, huge]}, {"base_noise_diag": [1.0, 0.5, huge, 0.2, 0.1]}):
        with pytest.raises(FileFormatError):
            spec_from_config(config)


def test_config_round_trip(tmp_path):
    target = tmp_path / "config.json"
    write_json(target, {"trials": 12, "seed": 9, "k_grid": [0.5, 1.0]})
    spec = spec_from_config(load_experiment_config(target))
    assert spec.trials == 12
    assert spec.seed == 9
    assert spec.k_grid == (0.5, 1.0)
    assert spec.n_x == 5


def test_config_rejects_unknown_key(tmp_path):
    target = tmp_path / "config.json"
    write_json(target, {"trial_count": 12})
    with pytest.raises(FileFormatError):
        load_experiment_config(target)


def test_config_rejects_bad_value(tmp_path):
    target = tmp_path / "config.json"
    write_json(target, {"trials": -5})
    with pytest.raises(FileFormatError):
        spec_from_config(load_experiment_config(target))


def test_config_defaults(tmp_path):
    target = tmp_path / "config.json"
    write_json(target, {})
    spec = spec_from_config(load_experiment_config(target))
    assert spec == ExperimentSpec()


def test_csv_header_names_every_estimator():
    assert CSV_HEADER == (
        "k,mse_ls,mse_ls_meansub,mse_cls,mse_blue,mse_blue_meansub,mse_cblue,"
        "analytic_ls,analytic_ls_meansub,analytic_cls,analytic_blue,"
        "analytic_blue_meansub,analytic_cblue"
    )


def test_write_mse_csv(tmp_path):
    spec = ExperimentSpec(
        n_x=3,
        n_u=2,
        base_noise_diag=(1.0, 0.5, 0.2, 0.1),
        k_grid=(0.1, 1.0),
        trials=4,
        seed=1,
    )
    report = run_experiment(spec)
    target = tmp_path / "out.csv"
    write_mse_csv(target, report)
    text = target.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(spec.k_grid)
    assert text.endswith("\n")
    for line, k in zip(lines[1:], spec.k_grid):
        fields = line.split(",")
        assert len(fields) == 13
        assert float(fields[0]) == pytest.approx(k, rel=1e-15)
        for field in fields:
            float(field)
            # 15 digits after the point gives 16 significant digits
            mantissa = field.split("e")[0]
            assert len(mantissa.split(".")[1]) == 15


def test_write_mse_csv_is_deterministic(tmp_path):
    spec = ExperimentSpec(
        n_x=3,
        n_u=2,
        base_noise_diag=(1.0, 0.5, 0.2, 0.1),
        k_grid=(0.1, 1.0),
        trials=4,
        seed=1,
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_mse_csv(first, run_experiment(spec))
    write_mse_csv(second, run_experiment(spec))
    assert first.read_bytes() == second.read_bytes()
