from pathlib import Path

import numpy as np

from cblue.svgchart import Curve, write_loglog_chart

PINNED_CHART = Path(__file__).parent / "data" / "loglog-chart.svg"


def test_loglog_chart_matches_pinned_bytes(tmp_path):
    # a fixed synthetic input, so the pinned file guards the drawing code
    # (grids, labels, curves, legend) and not the numbers of any sweep
    k = np.array([0.1, 0.2, 0.5, 1.0])
    curves = [
        Curve("first", "#c1121f", "2 4", np.array([3e-3, 8e-3, 2e-2, 4e-2])),
        Curve("second", "#1f4ac1", None, np.array([1e-3, 2.5e-3, 6e-3, 1.2e-2])),
    ]
    path = tmp_path / "chart.svg"
    write_loglog_chart(path, k, curves, x_label="noise scale k", y_label="average MSE")
    assert path.read_bytes() == PINNED_CHART.read_bytes()
