"""Benchmark of oamsim: runs one workload for a fixed time, checks every
output, prints each metric by name and unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload bell-chsh --seed 1 --seconds 30 --trace 0

Workloads (README.md has the details):
  bell-chsh    CHSH values, fringe oracle, standard sweep, six mask searches,
               in one worker process
  lg-fields    the paper's LG decompositions (cold, then warm) and three
               1024^2 far fields, in a fresh worker process per repetition
  cli-oneshot  every CLI subcommand, plus three malformed inputs, each as a
               fresh `python -m oamsim.cli` process

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
rounds with traced ones, each traced round in a fresh process, and reports
the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import oneshot

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("bell-chsh", "lg-fields", "cli-oneshot")
# the workload's headline call: one mask search, the two cold paper
# decompositions, `bell --ell 0.5` as a fresh process
HEADLINE = {"bell-chsh": "search_s", "lg-fields": "decompose_cold_s", "cli-oneshot": "cli_bell_s"}
# the other timed stages, reported with the per-layer metrics
STAGES = ("verify_s", "decompose_warm_s", "farfield_s")
SETUP_PROBES = 5
IMPORT_PROBE = ("import time; start = time.perf_counter(); import oamsim; "
                "print(time.perf_counter() - start)")
PROBE_TIMEOUT_S = 120
WORKER_EXIT_TIMEOUT_S = 60


class Worker:
    """A worker.py process; runs one round of the in-process workloads per
    call. Closing its input ends it, and the benchmark waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)

    def call(self, function, *args) -> dict:
        self.proc.stdin.write(json.dumps([function, *args]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker ended during {function}; its stderr says why")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fresh(function, *args) -> dict:
    """The call, in a worker of its own that ends with it."""
    with Worker() as worker:
        return worker.call(function, *args)


def measure_setup() -> float:
    """Median time of `import oamsim` in fresh interpreters, after one
    untimed import that fills the file cache and writes the bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def repeat(seconds, one_round):
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def collect(args, one):
    """(untraced rounds, traced rounds) of a run; a traced run alternates
    the two, so their difference is the tracing overhead."""
    if not args.trace:
        return repeat(args.seconds, lambda: one(False)), []
    pairs = repeat(args.seconds, lambda: (one(False), one(True)))
    return [untraced for untraced, _ in pairs], [traced for _, traced in pairs]


def run_bell(args, workdir):
    # the untraced rounds share one worker; each traced round gets a fresh
    # one, so no untraced round ever runs under the wrappers
    with Worker() as worker:
        return collect(args, lambda traced: fresh("bell_round", args.seed, True) if traced
                       else worker.call("bell_round", args.seed, False))


def run_lg(args, workdir):
    return collect(args, lambda traced: fresh("lg_rep", traced))


def run_cli(args, workdir):
    return collect(args, lambda traced: oneshot.Pass(
        SRC, Path(tempfile.mkdtemp(dir=workdir)), args.seed).run().result(traced))


RUNNERS = {"bell-chsh": run_bell, "lg-fields": run_lg, "cli-oneshot": run_cli}


def per_layer_names():
    """(name, unit) of every per-layer metric, the same on every workload."""
    names = []
    for target in layers.TARGET_NAMES:
        names += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
    names.append(("lgfield.decompose.entries", "count"))
    names += [(f"cli.{label}_s", "s") for label in oneshot.LABELS]
    names += [(stage, "s") for stage in STAGES]
    names += [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
    return names


def _median(rounds, key):
    values = [r["times"][key] for r in rounds if key in r["times"]]
    if not values:
        raise RuntimeError(f"no round measured {key}")
    return statistics.median(values)


def end_to_end(workload, setup_s, rounds):
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "round_s": (_median(rounds, "round_s"), "s"),
        "headline_s": (_median(rounds, HEADLINE[workload]), "s"),
    }


def per_layer(untraced, traced):
    """Medians over the traced rounds; a metric a workload does not touch
    reads 0. The stage timings come from the untraced rounds."""
    out = {}
    for name, unit in per_layer_names():
        if name in STAGES:
            values = [r["times"].get(name, 0.0) for r in untraced]
        else:
            values = [r["layers"].get(name, 0) for r in traced]
        out[name] = (statistics.median(values), unit)
    base = _median(untraced, "round_s")
    overhead = _median(traced, "round_s") - base
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / base, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "oamsim" / "__init__.py").is_file():
        print(f"error: no oamsim sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_s = None if args.trace else measure_setup()
        untraced, traced = RUNNERS[args.workload](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = [f for r in rounds for f in r["failed"]]
    wrong = [w for r in rounds for w in r["wrong"]]
    for line in sorted(set(failed)):
        print(f"failed x{failed.count(line)}: {line}", file=sys.stderr)
    for line in sorted(set(wrong)):
        print(f"WRONG x{wrong.count(line)}: {line}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(untraced, traced)
        for name in sorted({a for r in traced for a in r["absent"]}):
            print(f"absent: {name} (no longer in the program; its metrics read 0)")
    else:
        metrics = end_to_end(args.workload, setup_s, untraced)
        for stage in (HEADLINE[args.workload], *STAGES):
            if any(stage in r["times"] for r in untraced):
                print(f"stage {stage} = {_median(untraced, stage):.6g} s")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds, {attempted} operations, {len(failed)} failed, "
          f"{sum(r['checks'] for r in rounds)} checks, {len(wrong)} wrong")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
