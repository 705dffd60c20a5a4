"""Command line front end.

Three subcommands: ``estimate`` runs one estimator on a measurement vector
read from matrix files, ``experiment`` runs the Monte Carlo sweep and writes
a CSV (optionally with an SVG chart), and ``verify`` runs the randomized
self-checks.  Exit codes: 0 on success, 1 when estimation or verification
fails, 2 for unusable inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio, svgchart
from .errors import EstimationError
from .estimators import blue, cblue, cblue_direct, cblue_nullspace, cls, covariance, ls
from .fileio import FileFormatError
from .model import ConstraintSet, LinearModel, parameterize
from .montecarlo import run_experiment
from .verify import run_suite

_CHART_STYLE = (
    ("ls", "LS", "#c1121f", "2 4"),
    ("ls_meansub", "LS mean-subtracted", "#c1121f", "9 5"),
    ("cls", "Constrained LS", "#c1121f", None),
    ("blue", "BLUE", "#1f4ac1", "2 4"),
    ("blue_meansub", "BLUE mean-subtracted", "#1f4ac1", "9 5"),
    ("cblue", "Constrained BLUE", "#1f4ac1", None),
)


def _build_estimator(method: str, model: LinearModel, constraints: ConstraintSet):
    if method == "ls":
        return ls(model)
    if method == "blue":
        return blue(model)
    if method == "cls":
        return cls(model, constraints)
    if method == "cblue":
        return cblue(model, constraints)
    if method == "cblue-nullspace":
        return cblue_nullspace(model, parameterize(constraints))
    if method == "cblue-direct":
        return cblue_direct(model, constraints)
    raise ValueError(f"unknown method {method!r}")


def _cmd_estimate(args) -> int:
    try:
        h = fileio.load_matrix(args.H)
        c_nn = fileio.load_matrix(args.Cnn)
        a = fileio.load_matrix(args.A)
        b = fileio.load_vector(args.b)
        y = fileio.load_vector(args.y)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        model = LinearModel(h, c_nn)
        constraints = ConstraintSet(a, b)
        estimator = _build_estimator(args.method, model, constraints)
        x_hat = estimator.apply(y)
        variances = covariance(estimator, model.C_nn).per_element_variance
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"method = {args.method}")
    for index, value in enumerate(x_hat):
        print(f"x_hat[{index}] = ({value.real:.15e}, {value.imag:.15e})")
    residual = float(np.linalg.norm(constraints.A @ x_hat - constraints.b))
    print(f"constraint_residual = {residual:.6e}")
    for index, value in enumerate(variances):
        print(f"variance[{index}] = {value:.15e}")
    return 0


def _cmd_experiment(args) -> int:
    config = {}
    try:
        if args.config is not None:
            config = fileio.load_experiment_config(args.config)
        if args.trials is not None:
            config["trials"] = args.trials
        if args.seed is not None:
            config["seed"] = args.seed
        spec = fileio.spec_from_config(config)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.plot and len(spec.k_grid) < 2:
        print("error: --plot needs at least two k_grid values", file=sys.stderr)
        return 2
    try:
        report = run_experiment(spec)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        fileio.write_mse_csv(args.output, report)
        if args.plot:
            chart_path = str(Path(args.output).with_suffix(".svg"))
            curves = [
                svgchart.Curve(label, color, dash, report.empirical_mse[kind])
                for kind, label, color, dash in _CHART_STYLE
            ]
            svgchart.write_loglog_chart(
                chart_path,
                report.k_grid,
                curves,
                x_label="noise scale k",
                y_label="average MSE",
            )
            print(f"chart written to {chart_path}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"report written to {args.output}: {len(report.k_grid)} k values, "
        f"{report.trials} trials each"
    )
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(instances=args.trials, seed=args.seed)
    name_width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{result.name:<{name_width}}  {status}  worst residual "
            f"{result.worst:9.3e}  (tol {result.tol:.0e}, {result.instances} instances)"
        )
    passed = sum(result.passed for result in results)
    print(f"verification: {passed}/{len(results)} properties passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cblue",
        description="Linear estimation under linear equality constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser(
        "estimate", help="run one estimator on a measurement vector"
    )
    estimate.add_argument("--H", required=True, metavar="FILE", help="measurement matrix")
    estimate.add_argument("--Cnn", required=True, metavar="FILE", help="noise covariance")
    estimate.add_argument("--A", required=True, metavar="FILE", help="constraint matrix")
    estimate.add_argument("--b", required=True, metavar="FILE", help="constraint right-hand side")
    estimate.add_argument("--y", required=True, metavar="FILE", help="measurement vector")
    estimate.add_argument(
        "--method",
        default="cblue",
        choices=["ls", "blue", "cls", "cblue", "cblue-nullspace", "cblue-direct"],
        help="estimator to apply (default: cblue)",
    )
    estimate.set_defaults(func=_cmd_estimate)

    experiment = sub.add_parser(
        "experiment", help="run the Monte Carlo sweep and write a CSV report"
    )
    experiment.add_argument("--config", metavar="FILE", help="JSON sweep configuration")
    experiment.add_argument("--output", required=True, metavar="FILE", help="CSV output path")
    experiment.add_argument("--trials", type=int, help="override trials per k value")
    experiment.add_argument("--seed", type=int, help="override master seed")
    experiment.add_argument(
        "--plot", action="store_true", help="also write an SVG chart next to the CSV"
    )
    experiment.set_defaults(func=_cmd_experiment)

    verify = sub.add_parser("verify", help="run randomized self-checks")
    verify.add_argument(
        "--trials", type=int, default=50, help="instances per property (default: 50)"
    )
    verify.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    raise SystemExit(main())
