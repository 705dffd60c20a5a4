"""The mutation probe's table, ``tools/mutants.py``, against the code and its committed record."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _probe():
    if "mutants" not in sys.modules:
        spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
        # dataclasses looks the module up by name while it runs
        sys.modules["mutants"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["mutants"])
    return sys.modules["mutants"]


def test_every_mutant_changes_one_line_of_the_checkout():
    # the checkout's files, not the imported package, which a probe run mutates
    assert _probe().stale_entries() == []


def test_committed_record_matches_the_table_and_has_no_survivor():
    mutants = _probe().MUTANTS
    records = json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]
    assert [(r["id"], r["file"], r["old"], r["new"]) for r in records] == [
        (m.id, f"src/cblue/{m.path}", m.old, m.new) for m in mutants
    ]
    assert [r["id"] for r in records if r["status"] == "survived"] == []
