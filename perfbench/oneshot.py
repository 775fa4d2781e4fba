"""The cli-oneshot workload: each subcommand as a fresh
``python -m oamsim.cli`` process, one after another, with the program's
sources on PYTHONPATH (the package is not installed as a script).

Every command's exit code, stdout headline and artifact are checked against
``references``. The three malformed inputs at the end of the pass should
each exit 2 with a one-line error and no traceback; each that does not is a
failed operation.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import references as ref
import rounds
from seeds import derive_seed

COMMAND_TIMEOUT_S = 60.0
# (label, arguments); the label names the per-command metric cli.<label>_s
COMMANDS = (
    ("bell_spiral", ["bell", "--ell", "0.5", "--out", "bell_spiral.json"]),
    ("bell_step", ["bell", "--plate", "step", "--phi", "pi", "--out", "bell_step.json"]),
    ("fringe", ["fringe", "--ell", "0.5", "--verify", "--out", "fringe.csv"]),
    ("verify", ["verify", "--out", "verify.jsonl"]),
    ("decompose", ["decompose", "--ell", "0.5", "--l-halfwidth", "40", "--p-max", "60",
                   "--out", "decomposition.csv"]),
    ("farfield", ["farfield", "--ell", "3.5", "--grid", "256", "--out", "farfield.pgm"]),
    ("search", ["search", "--budget", "2000", "--seed", "{search_seed}", "--out", "mask.json"]),
    # malformed inputs, kept until the program rejects them with exit 2
    ("bell_inf", ["bell", "--ell", "inf", "--out", "bell_inf.json"]),
    ("search_bad_init", ["search", "--budget", "0", "--init", "no_sectors.json",
                         "--out", "mask_bad.json"]),
    ("farfield_nan", ["farfield", "--ell", "nan", "--grid", "128", "--out", "farfield_nan.pgm"]),
)
MALFORMED = {"bell_inf", "search_bad_init", "farfield_nan"}
LABELS = tuple(label for label, _ in COMMANDS)
# a binary plate description without its "sectors" key
NO_SECTORS_PLATE = {"type": "binary", "phi": math.pi}


class Pass(rounds.Round):
    """Runs the command list once in ``workdir`` and checks the outputs."""

    def __init__(self, src: Path, workdir: Path, run_seed: int):
        super().__init__()
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.workdir = workdir
        self.search_seed = derive_seed(run_seed, "cli/search")
        self.seconds = {}
        self.rss_mb = 0.0
        (workdir / "no_sectors.json").write_text(json.dumps(NO_SECTORS_PLATE))

    def run(self) -> "Pass":
        for label, args in COMMANDS:
            args = [a.format(search_seed=self.search_seed) for a in args]
            code, out, err, seconds = self._spawn(args)
            self.attempted += 1
            self.seconds[label] = seconds
            if label in MALFORMED:
                lines = err.strip().splitlines()
                if code != 2 or len(lines) != 1 or "Traceback" in err:
                    self.failed.append(f"{label}: exit {code}, stderr {err.strip()[-160:]!r}")
            elif code != 0:
                self.failed.append(f"{label}: exit {code}, stderr {err.strip()[-300:]!r}")
            else:
                try:
                    getattr(self, f"_check_{label}")(out.strip())
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    self.check(label, False, f"unreadable output: {type(exc).__name__}: {exc}")
        return self

    def _spawn(self, args):
        """(exit code, stdout, stderr, wall seconds) of one CLI process; its
        peak resident memory is read from its own resource usage."""
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "oamsim.cli", *args],
                                    stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024.0)
        return (proc.returncode, out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"), seconds)

    def result(self, traced: bool) -> dict:
        """The pass as a round: the wall times of the ten processes, the
        headline `bell --ell 0.5` apart, and per command when traced (the
        per-command times are all a traced pass adds)."""
        self.times = {"round_s": sum(self.seconds.values()),
                      "cli_bell_s": self.seconds["bell_spiral"]}
        layers = {f"cli.{label}_s": self.seconds[label] for label in LABELS} if traced else None
        return super().result(self.rss_mb, layers)

    def _json(self, name):
        return json.loads((self.workdir / name).read_text())

    def _check_s_value(self, label, out, artifact, law, angles_pi):
        expected = float(ref.chsh(law, angles_pi, 2))
        doc = self._json(artifact)
        self.check(label, out == f"{expected:.12g}" and abs(doc["S"] - expected) <= 1e-12,
                   f"stdout {out!r}, artifact S {doc['S']!r}, reference {expected!r}")

    def _check_bell_spiral(self, out):
        self._check_s_value("bell_spiral", out, "bell_spiral.json",
                            ref.spiral_fringe_pi, ref.SPIRAL_ANGLES_PI)

    def _check_bell_step(self, out):
        self._check_s_value("bell_step", out, "bell_step.json",
                            ref.step_fringe_pi(2), ref.POLARIZATION_ANGLES_PI)

    def _check_fringe(self, out):
        rows = (self.workdir / "fringe.csv").read_text().splitlines()[1:]
        samples = [tuple(float(v) for v in row.split(",")) for row in rows]
        angles = [ref.TWO_PI * k / 360 for k in range(360)]
        worst = max((max(abs(d - a), abs(p - ref.spiral_fringe(a)))
                     for (d, p), a in zip(samples, angles)), default=0.0)
        expected = f"360 samples, min probability {min(map(ref.spiral_fringe, angles)):.12g}"
        self.check("fringe", len(samples) == 360 and worst <= 1e-11 and out == expected,
                   f"stdout {out!r}, {len(samples)} rows, worst deviation {worst:.3e}")

    def _check_verify(self, out):
        reports = [json.loads(line) for line in
                   (self.workdir / "verify.jsonl").read_text().splitlines()]
        n = 4 * 5 + 4 * 4 + 3 + 3  # the sweep's overlap, step, mask and Bell checks
        self.check("verify", out == f"{n}/{n} oracle checks passed" and len(reports) == n
                   and all(r["passed"] for r in reports), f"stdout {out!r}")

    def _check_decompose(self, out):
        rows = (self.workdir / "decomposition.csv").read_text().splitlines()[1:]
        reference = ref.lg_powers(0.5, (-40, 40), 60)
        count = ref.greedy_count(reference.values(), 0.87)
        worst = 0.0
        for row in rows:
            l, p, _, _, power, _ = row.split(",")
            worst = max(worst, abs(float(power) - reference[(int(l), int(p))]))
        self.check("decompose", out == str(count) and worst <= 1e-11,
                   f"stdout {out!r}, closed-form count {count}, worst power deviation {worst:.3e}")

    def _check_farfield(self, out):
        width, height, maxval, pixels = ref.parse_pgm((self.workdir / "farfield.pgm").read_bytes())
        sidecar = self._json("farfield.pgm.json")
        self.check("farfield", (width, height, maxval) == (256, 256, 65535)
                   and sidecar["grid"] == 256 and max(pixels) > 0 and float(out) > 1.5,
                   f"stdout {out!r}, image {width}x{height}/{maxval}")

    def _check_search(self, out):
        doc = self._json("mask.json")
        sectors = [tuple(s) for s in doc["mask"]["sectors"]]
        s_ref = ref.mask_s(sectors, doc["mask"]["phi"], ref.SPIRAL_ANGLES)
        self.check("search", abs(float(out) - s_ref) <= 1e-9 and s_ref <= 4.0 + 1e-12
                   and abs(doc["S"] - s_ref) <= 1e-9,
                   f"stdout {out!r}, recomputed S {s_ref!r}, sectors {sectors}")
