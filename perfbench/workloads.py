"""Workload definitions and output checks for the bsdelattice benchmark.

Each workload is a fixed list of CLI invocations.  Only ``duality`` takes
the benchmark seed (for its random admissible controls); every other input
is fixed, so the work done does not depend on the seed.  The ``bench``
sizes are what the benchmark measures; the ``toy`` sizes run the same
harness path in a few seconds for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# Root value of linear:1,1 with terminal const:1 on [0, 1]: y' = -(1 + y),
# y(1) = 1, so y(0) = 2e - 1.
CLOSED_FORM_Y0 = 2.0 * math.e - 1.0
# sha256 of each solve CSV, per OpenBLAS kernel family: the z projection is a
# BLAS product, and the SSE/AVX, AVX2 and AVX-512 kernels round differently.
DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple  # subcommand and flags, without --out and --seed

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag, default=None):
        argv = list(self.argv)
        return argv[argv.index(flag) + 1] if flag in argv else default

    def shapes(self):
        """build_lattice keyword arguments for every lattice this invocation builds."""
        dim = int(self.option("--dim", 1))
        mode = self.option("--mode", "full")
        if self.command == "converge":
            steps = [int(s) for s in self.option("--steps-list").split(",")]
        else:
            steps = [int(self.option("--steps"))]
        return [{"steps": n, "dim": dim, "mode": mode} for n in steps]


def _solve(label, *argv):
    return Invocation(label, ("solve", "--driver", "linear:1,1") + argv)


def _converge(label, dim, steps):
    return Invocation(
        label,
        (
            "converge", "--mode", "recombining", "--dim", str(dim), "--driver", "linear:1,1",
            "--terminal", "const:1", "--steps-list", ",".join(map(str, steps)),
            "--reference", repr(CLOSED_FORM_Y0),
        ),
    )


def _certify(duality_steps, picard_steps, approx_steps, samples):
    return [
        Invocation(
            "duality",
            ("duality", "--steps", str(duality_steps), "--driver", "linear:1,1",
             "--terminal", "maxpath", "--samples", str(samples)),
        ),
        Invocation(
            "picard",
            ("picard", "--steps", str(picard_steps), "--driver", "linear:1,1", "--terminal", "maxpath"),
        ),
        Invocation(
            "approx",
            ("approx", "--steps", str(approx_steps), "--driver", "quadratic", "--terminal", "digital"),
        ),
    ]


WORKLOADS = {
    # CSV export dominates: contiguous full-layout rows, and the recombining
    # dM column built from an argsort and a per-edge loop.
    "solve-export": {
        "bench": [
            _solve("full", "--steps", "17", "--terminal", "endpoint"),
            _solve("recombining", "--mode", "recombining", "--steps", "400", "--terminal", "clipped-endpoint"),
        ],
        "toy": [
            _solve("full", "--steps", "6", "--terminal", "endpoint"),
            _solve("recombining", "--mode", "recombining", "--steps", "20", "--terminal", "clipped-endpoint"),
        ],
    },
    # Recombining backward solves: child_indices gather, projection and the
    # fixed point of a y-dependent driver; the exported CSV has a few rows.
    "refine-recombining": {
        "bench": [
            _converge("d1", 1, [125, 250, 500, 1000, 2000]),
            _converge("d2", 2, [20, 40, 80, 160]),
        ],
        "toy": [_converge("d1", 1, [10, 20, 40, 80]), _converge("d2", 2, [8, 16, 32])],
    },
    # Full-layout recursions other than the solve: tilted dual sweeps, Picard
    # sweeps, the inf-convolution ladder and maxpath leaf paths.
    "certify-full": {
        "bench": _certify(15, 17, 9, 32),
        "toy": _certify(6, 6, 4, 4),
    },
}

# Reference process (run.REFERENCE_CODE) that each workload's passes are
# timed against: the formatted-rows one where CSV export dominates, the
# array one where numpy work on the lattice does.
REFERENCE = {
    "solve-export": "rows",
    "refine-recombining": "arrays",
    "certify-full": "arrays",
}


def _reject_constant(name):
    raise ValueError("non-finite number %s in JSON summary" % name)


def parse_summary(stdout: str) -> dict:
    """The JSON summary the CLI prints last, parsed so that NaN and Infinity fail."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no JSON summary on stdout")
    summary = json.loads(lines[-1], parse_constant=_reject_constant)
    if not isinstance(summary, dict):
        raise ValueError("summary is not a JSON object")
    return summary


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# Root value of a direct solve, run in a child process: a large parent
# would raise the ru_maxrss that wait4 reports for every later child.
DIRECT_Y0_CODE = (
    "import sys\n"
    "from bsdelattice.drivers import make_driver, make_terminal\n"
    "from bsdelattice.lattice import build_lattice\n"
    "from bsdelattice.solver import solve_backward\n"
    "steps, driver, terminal = sys.argv[1:]\n"
    "lat = build_lattice(int(steps))\n"
    "print(repr(solve_backward(lat, make_driver(driver), make_terminal(terminal)).y0))\n"
)


class Checker:
    """Checks one invocation's summary and output file; returns an error or None."""

    def __init__(self, workload: str, size: str, env: dict):
        self.digests = DIGESTS.get(workload, {}).get(size, {})
        self.env = env
        self._direct_y0 = {}

    def direct_y0(self, inv: Invocation) -> float:
        """Root value of a direct solve_backward of a Picard invocation's config."""
        if inv not in self._direct_y0:
            argv = [sys.executable, "-c", DIRECT_Y0_CODE, inv.option("--steps"),
                    inv.option("--driver"), inv.option("--terminal")]
            done = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=120, check=True)
            self._direct_y0[inv] = float(done.stdout)
        return self._direct_y0[inv]

    def check(self, inv: Invocation, returncode: int, stdout: str, out_path) -> str:
        if returncode != 0:
            return "exit status %d" % returncode
        try:
            s = parse_summary(stdout)
        except ValueError as exc:
            return str(exc)
        cmd = inv.command
        if cmd == "solve":
            digest = file_digest(out_path)
            recorded = self.digests.get(inv.label, {})
            if digest not in recorded.values():
                return "CSV sha256 %s, recorded %s" % (digest, recorded)
        elif cmd == "converge":
            if s.get("errors_decreasing") is not True:
                return "errors not decreasing"
            if not abs(s["fitted_order"] - 1.0) <= 0.1:
                return "fitted order %r not within 0.1 of 1" % s["fitted_order"]
        elif cmd == "duality":
            if s.get("weakly_consistent") is not True:
                return "not weakly consistent"
            if not abs(s["root_gap"]) <= 1e-9:
                return "root gap %r" % s["root_gap"]
            if not s["sampled_min_gap"] >= -1e-9:
                return "sampled min gap %r" % s["sampled_min_gap"]
        elif cmd == "picard":
            ref = self.direct_y0(inv)
            if not abs(s["y0"] - ref) <= 1e-9:
                return "picard y0 %r, direct solve %r" % (s["y0"], ref)
        elif cmd == "approx":
            if s.get("monotone") is not True:
                return "ladder not monotone"
        return None
