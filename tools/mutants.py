"""Mutation probe: does the tier-1 suite notice when a gate or tolerance moves?

Usage, from the root of a checkout:

    python3 tools/mutants.py

Each entry of ``MUTANTS`` changes one line of one file under ``src/``.  The
probe copies ``src/`` into a temporary directory and runs the tier-1 command
with ``-x`` against the unchanged copy first; if that fails, it stops.  It
then applies one mutant at a time to the copy, runs the same command and
restores the line.  A mutant is

- ``killed`` when a test fails; the first failing test is recorded;
- ``equivalent`` when every test passes and the entry gives a reason why no
  test can tell it from the original;
- ``survived`` when every test passes and the entry gives no such reason.

The results go to ``MUTANTS.json``.  A full run takes four to five minutes on
two cores, so the probe is not part of the tier-1 suite.  A change that moves
a gate listed here should change the gate's boundary test in the open and
re-run the probe.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str
    old: str
    new: str
    equivalent: str | None = None


MUTANTS = (
    Mutant("check_pivots-boundary", "numerics.py",
           "if (pivots <= threshold).any():", "if (pivots < threshold).any():"),
    Mutant("rank-threshold-side", "numerics.py",
           "> max(shape) * _EPS", "> min(shape) * _EPS"),
    Mutant("hermitian-rtol", "numerics.py",
           "_HERMITIAN_RTOL = 1e-12", "_HERMITIAN_RTOL = 1e-8"),
    Mutant("reciprocal_power-clamp", "numerics.py",
           "min(max(math.frexp(peak)[1], -1022), 1022)",
           "min(max(math.frexp(peak)[1], -1000), 1000)"),
    Mutant("particular-tolerance", "model.py",
           "if residual > 1e-8 * scale:", "if residual > 1e-4 * scale:"),
    Mutant("kkt_oracle-residual", "estimators.py",
           "residual > 1e-6 * (np.linalg.norm(rhs) + 1.0)",
           "residual > 1e-2 * (np.linalg.norm(rhs) + 1.0)"),
    Mutant("covariance-negative-diagonal", "estimators.py",
           "if (diag * power < -_HERMITIAN_RTOL * size).any():",
           "if (diag * power < -1e-6 * size).any():"),
    Mutant("mse_stderr-clip", "montecarlo.py",
           "np.clip(mean_square[k] - np.square(empirical[k]), 0.0, None)",
           "np.abs(mean_square[k] - np.square(empirical[k]))",
           equivalent="mean_square - empirical^2 is a variance, negative only by roundoff, "
           "where abs gives sqrt(roundoff / trials) and clip gives 0; mse_stderr is "
           "written to no report"),
    Mutant("lowest-cell-midpoint", "montecarlo.py",
           "_LOWEST_CELL_MIDPOINT = 2.0**-54", "_LOWEST_CELL_MIDPOINT = 2.0**-40",
           equivalent="it moves only uniform draws below 2^-40, about one in 10^12; "
           "no seeded test draws one"),
    Mutant("scaled_asymmetry-weight", "numerics.py",
           "(1.0 if i == j else 2.0)", "(1.0 if i == j else 1.0)"),
    Mutant("orthonormality-tolerance", "model.py",
           "if not defect <= 1e-10 * math.sqrt(n0):", "if not defect <= 1e-8 * math.sqrt(n0):"),
    Mutant("apply-forms-e-threshold", "estimators.py",
           "arr.shape[1] <= self.f.shape[0]", "arr.shape[1] < self.f.shape[0]"),
    Mutant("verify-nan-rule", "verify.py",
           "if not residual <= worst and not math.isnan(worst):", "if residual > worst:"),
    Mutant("cli-residual-scaling", "cli.py",
           "power = reciprocal_power(float(np.abs(np.concatenate([x, b]).view(np.float64)).max()))",
           "power = 1.0"),
    Mutant("validate-direct-refusals", "model.py",
           "direct = admits(lambda: cblue_direct(model, constraints), RankDeficient)",
           "direct = admits(lambda: cblue_direct(model, constraints), EstimationError)"),
    Mutant("validate-nullspace-refusals", "model.py",
           "refusals = EstimationError if direct else RankDeficient", "refusals = RankDeficient"),
)


def run_tier1(src: Path) -> tuple[bool, str | None, float]:
    """Run the tier-1 command against the package in ``src``: passed, first failing test, seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=1800)
    elapsed = perf_counter() - start
    if done.returncode == 0:
        return True, None, elapsed
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    tail = done.stdout.strip().splitlines()[-1:] or done.stderr.strip().splitlines()[-1:]
    return False, failed.group(1) if failed else f"exit {done.returncode}: {tail}", elapsed


def probe(mutant: Mutant, src: Path) -> dict:
    """Apply ``mutant`` to the package in ``src``, run tier-1 and restore the file."""
    target = src / "cblue" / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        passed, failed, elapsed = run_tier1(src)
    finally:
        target.write_text(original)
    record = {"id": mutant.id, "file": f"src/cblue/{mutant.path}",
              "old": mutant.old, "new": mutant.new, "seconds": round(elapsed, 1)}
    if not passed:
        record.update(status="killed", killed_by=failed)
    elif mutant.equivalent:
        record.update(status="equivalent", reason=mutant.equivalent)
    else:
        record.update(status="survived")
    return record


def main() -> int:
    for mutant in MUTANTS:
        count = (ROOT / "src" / "cblue" / mutant.path).read_text().count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.id}: {mutant.old!r} occurs {count} times in "
                             f"src/cblue/{mutant.path}, not once")
    with tempfile.TemporaryDirectory(prefix="cblue-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        passed, failed, elapsed = run_tier1(src)
        print(f"unmutated: {'passed' if passed else 'FAILED ' + str(failed)} in {elapsed:.0f} s",
              flush=True)
        if not passed:
            return 1
        records = []
        for mutant in MUTANTS:
            records.append(probe(mutant, src))
            record = records[-1]
            print(f"{mutant.id}: {record['status']} {record.get('killed_by', '')}".rstrip(),
                  flush=True)
    (ROOT / "MUTANTS.json").write_text(json.dumps({"command": "python " + " ".join(TIER1),
                                       "mutants": records}, indent=2) + "\n")
    survived = [r["id"] for r in records if r["status"] == "survived"]
    print(f"{len(records)} mutants, {len(survived)} survived: {', '.join(survived) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
