"""The benchmark's contract with the program: one untraced round of each
in-process workload of ``perfbench``, and one pass of its ten fresh CLI
processes, run every operation they time without an exception or a wrong
exit code, and every output passes the workload's own checks.

One traced bell round, run in a fresh interpreter because the tracer never
removes its wrappers, counts each traced name's own calls only.

A program change that deletes or renames a name the benchmark calls, or
that moves one of the numbers it checks (the CHSH values, the 360 fringe
oracle reports, the standard sweep's 42 reports and three Bell values, the
mask searches, the LG decompositions and the far-field metrics), fails here
and not only in a benchmark run; so does a deferred import that breaks a
subcommand.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oamsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload, args", [("bell_round", (7, False)), ("lg_rep", (False,))])
def test_one_untraced_round_runs_and_checks_clean(monkeypatch, workload, args):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    result = getattr(importlib.import_module("inproc"), workload)(*args)
    assert result["failed"] == []
    assert result["wrong"] == []
    assert result["attempted"] > 0 and result["checks"] > 0


def test_one_cli_pass_runs_and_checks_clean(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    src = Path(oamsim.__file__).resolve().parents[1]
    result = importlib.import_module("oneshot").Pass(src, tmp_path, 7).run().result(False)
    assert result["failed"] == []
    assert result["wrong"] == []
    assert result["attempted"] == 10 and result["checks"] > 0


def test_one_traced_bell_round_counts_each_layer_alone(tmp_path):
    # an alias of verify_overlap under the name verify_fringe_sample would
    # carry the wrapper onto the sweep's calls too
    src = Path(oamsim.__file__).resolve().parents[1]
    script = ("import json, inproc\n"
              "result = inproc.bell_round(7, True)\n"
              "print(json.dumps([result['failed'], result['wrong'], result['absent'],"
              " result['layers']['oracle.verify_fringe_sample.calls'],"
              " inproc.FRINGE_ANGLES * inproc.VERIFY_REPEATS]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), str(PERFBENCH), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    failed, wrong, absent, calls, expected = json.loads(out.strip().splitlines()[-1])
    assert failed == [] and wrong == []
    assert absent == ["overlap.binary_mask_overlap"]
    assert calls == expected == 1800
