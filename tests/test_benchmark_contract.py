"""The benchmark's contract with the program: one untraced round of each
in-process workload of ``perfbench`` runs every operation it times without
an exception, and every output passes the workload's own checks.

A program change that deletes or renames a name the benchmark calls, or
that moves one of the numbers it checks (the CHSH values, the 360 fringe
oracle reports, the standard sweep's 42 reports and three Bell values, the
mask searches, the LG decompositions and the far-field metrics), fails here
and not only in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload, args", [("bell_round", (7, False)), ("lg_rep", (False,))])
def test_one_untraced_round_runs_and_checks_clean(monkeypatch, workload, args):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    result = getattr(importlib.import_module("inproc"), workload)(*args)
    assert result["failed"] == []
    assert result["wrong"] == []
    assert result["attempted"] > 0 and result["checks"] > 0
