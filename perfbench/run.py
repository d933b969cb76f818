"""Layered benchmark of the bsdelattice command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve-export --seed 1 --seconds 42 --trace 0

With ``--trace 0`` it runs the workload's CLI invocations as separate
``python3 -m bsdelattice.cli`` processes, one at a time, pass after pass for
``--seconds`` seconds, with a fixed reference process before each invocation
and after the last, and checks every output.  It reports the median over
passes of each pass's wall and CPU time in units of the pass's mean
reference run, the median peak RSS,
the median set-up time of a fresh process, and the share of invocations
that passed.  With ``--trace 1`` it runs the same
invocations in this process through ``bsdelattice.cli.main``, with the
package's functions wrapped by perfbench/tracer.py, alternating traced and
untraced passes and two seeds, and reports per-layer self times and counts.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs, spans and a record of the
environment are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # set-up processes before the first pass; one more runs in every pass
DEADLINE_S = 150.0  # every run must end well inside 180 s
# Children run single-threaded BLAS: on two shared vCPUs a second BLAS thread
# waits on the neighbours' load, and an idle OpenBLAS thread spins ~0.1 s of
# CPU after import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

SETUP_CODE = (
    "import json, sys\n"
    "import bsdelattice.cli as cli\n"
    "for shape in json.loads(sys.argv[1]):\n"
    "    cli.build_lattice(**shape)\n"
)

# Fixed computations that do not use bsdelattice.  A reference process runs
# before each CLI invocation and after the last, so each pass is timed
# against the machine's speed at that moment.  The host's slow stretches
# slow different code by different factors, so each workload uses the one
# closest to where its time goes (workloads.REFERENCE):
# "arrays": interpreter start and numpy import, sorts, a gather, a Python
#   loop, and a few formatted rows written to a file;
# "rows": interpreter start and numpy import, then float rows formatted
#   to 17 significant digits and written to a file, as the CSV export does.
REFERENCE_CODE = {
    "arrays": (
        "import sys\n"
        "import numpy as np\n"
        "x = np.linspace(0.0, 1.0, 1 << 19)\n"
        "acc = 0.0\n"
        "for _ in range(2):\n"
        "    y = np.sort(np.sin(x * 7.0) + x[::-1])\n"
        "    acc += float(y[np.argsort(y[: 1 << 17])].sum())\n"
        "big = np.cos(np.arange(1 << 21) * 0.001)\n"
        "acc += float(big[(np.arange(1 << 21) * 7919) % (1 << 21)].sum())\n"
        "s = 0\n"
        "for i in range(150000):\n"
        "    s += i % 7\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    for i in range(12000):\n"
        "        fh.write('%d,%r,%r\\n' % (i, x[i], x[i] * acc))\n"
    ),
    "rows": (
        "import sys\n"
        "import numpy as np\n"
        "x = np.cos(np.arange(1 << 15) * 0.37)\n"
        "z = np.sin(np.arange(1 << 15) * 0.11)\n"
        "def fmt(v):\n"
        "    return format(float(v), '.17g')\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    for k in range(x.shape[0]):\n"
        "        fh.write(','.join([str(k), fmt(x[k]), fmt(z[k]), fmt(x[k] * z[k])]) + '\\n')\n"
    ),
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def spawn(argv, stdout_path, deadline):
    """Run argv to completion; returns (exit code, wall s, cpu s, max RSS MiB)."""
    with open(stdout_path, "w") as out, open(str(stdout_path) + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.perf_counter()
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, end - start, cpu, usage.ru_maxrss / 1024.0


def cli_argv(inv, seed, out_path):
    argv = list(inv.argv) + ["--out", str(out_path)]
    if inv.command == "duality":
        argv += ["--seed", str(seed)]
    return argv


def measure_setup(invocations, deadline):
    """Wall time of one fresh process that imports the CLI and builds every lattice."""
    shapes = [shape for inv in invocations for shape in inv.shapes()]
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(shapes)]
    code, wall, _, _ = spawn(argv, OUT / "setup.stdout", deadline)
    if code != 0:
        raise RuntimeError("set-up process exited %d; see %s" % (code, OUT / "setup.stdout.err"))
    return wall


def measure_reference(kind, deadline):
    """(wall s, cpu s) of one reference process of the given kind."""
    argv = [sys.executable, "-c", REFERENCE_CODE[kind], str(OUT / "reference.csv")]
    code, wall, cpu, _ = spawn(argv, OUT / "reference.stdout", deadline)
    if code != 0:
        raise RuntimeError("reference process exited %d; see %s" % (code, OUT / "reference.stdout.err"))
    return wall, cpu


class Run:
    """State of one benchmark run: attempts, failures and per-pass records."""

    def __init__(self, workload, size, seed, seconds):
        from workloads import REFERENCE, WORKLOADS, Checker

        self.workload = workload
        self.reference = REFERENCE[workload]
        self.invocations = WORKLOADS[workload][size]
        self.checker = Checker(workload, size, _child_env())
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = []
        self.deadline = time.monotonic() + DEADLINE_S

    def out_path(self, inv):
        return OUT / ("%s-%s.csv" % (self.workload, inv.label))

    def record(self, inv, returncode, stdout, error=None):
        """Check one invocation's output, then delete it."""
        path = self.out_path(inv)
        self.attempted += 1
        try:
            error = self.checker.check(inv, returncode, stdout, path) or error
        except (OSError, KeyError, TypeError, ValueError, subprocess.SubprocessError) as exc:
            error = "check raised %r" % (exc,)
        if error:
            self.failed += 1
            self.errors.append("%s: %s" % (inv.label, error))
        if path.exists():
            path.unlink()

    def loop(self, one_pass, min_passes=1):
        """Call one_pass(index) at least min_passes times, and again while a
        call as long as the last one would still end within --seconds."""
        start = time.monotonic()
        last = 0.0
        while len(self.passes) < min_passes or (
            time.monotonic() + last - start <= self.seconds and time.monotonic() < self.deadline - 30
        ):
            begin = time.monotonic()
            self.passes.append(one_pass(len(self.passes)))
            last = time.monotonic() - begin

    # -- end to end ---------------------------------------------------------

    def cli_pass(self, index):
        rec = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "invocations": {}}
        refs = [measure_reference(self.reference, self.deadline)]
        results = []
        for inv in self.invocations:
            argv = [sys.executable, "-m", "bsdelattice.cli"] + cli_argv(inv, self.seed, self.out_path(inv))
            stdout_path = OUT / ("%s-%s.stdout" % (self.workload, inv.label))
            code, wall, cpu, rss = spawn(argv, stdout_path, self.deadline)
            refs.append(measure_reference(self.reference, self.deadline))
            rec["wall_s"] += wall
            rec["cpu_s"] += cpu
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], rss)
            rec["invocations"][inv.label] = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss}
            results.append((inv, code, stdout_path.read_text()))
        rec["ref_wall_s"] = statistics.fmean(wall for wall, _ in refs)
        rec["ref_cpu_s"] = statistics.fmean(cpu for _, cpu in refs)
        for inv, code, stdout in results:  # after the timer stopped
            self.record(inv, code, stdout)
        return rec

    def end_to_end(self):
        setup = [measure_setup(self.invocations, self.deadline) for _ in range(SETUP_REPS)]

        def one_pass(index):
            rec = self.cli_pass(index)
            setup.append(measure_setup(self.invocations, self.deadline))
            return rec

        # The set-up processes have already filled the page and bytecode
        # caches, so every pass is timed.  The host runs whole stretches of
        # a run up to 2x slower, CPU time included, and the reference
        # processes slow down with it; so wall and CPU time are reported per
        # pass in units of the mean reference run of that pass, as medians
        # over the passes.  Seconds stay in the run record.
        self.loop(one_pass)
        passes = self.passes
        metrics = {
            "wall_ref": {"value": statistics.median(p["wall_s"] / p["ref_wall_s"] for p in passes), "unit": "ref"},
            "cpu_ref": {"value": statistics.median(p["cpu_s"] / p["ref_cpu_s"] for p in passes), "unit": "ref"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MiB"},
        }
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["ok_frac"] = {"value": (self.attempted - self.failed) / self.attempted, "unit": "ratio"}
        seconds = {
            key: {"median": statistics.median(p[key] for p in passes), "min": min(p[key] for p in passes)}
            for key in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")
        }
        return metrics, {"setup_s": setup, "seconds": seconds}

    # -- traced -------------------------------------------------------------

    def in_process_pass(self, seed, tracer=None):
        """Run every invocation through cli.main; returns summed main wall time.

        With a tracer, the pass runs traced and also checks solution_residuals
        on the last solve of each invocation, after cli.main returns.  The
        output checks run after the tracer is removed.
        """
        import bsdelattice.cli as cli
        import bsdelattice.solver as solver  # looked up per call, so the traced wrapper runs

        wall = 0.0
        results = []
        with tracer if tracer is not None else contextlib.nullcontext():
            for inv in self.invocations:
                last = []

                def keep_last(*solved):
                    last[:] = [solved]  # earlier solves of the invocation can be freed

                if tracer is not None:
                    tracer.on_solve = keep_last
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    try:
                        code = cli.main(cli_argv(inv, seed, self.out_path(inv)))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 2
                    wall += time.perf_counter() - start
                if tracer is not None:
                    tracer.on_solve = None
                error = None
                for sol, f, phi in last:
                    if not solver.solution_residuals(sol, f, phi).passed:
                        error = "solution residuals failed"
                last.clear()
                results.append((inv, code, buf.getvalue(), error))
        for result in results:
            self.record(*result)
        return wall

    def traced(self):
        import tracer as tr

        tracer = tr.Tracer()
        layers = []
        spans_out = []

        def one_round(index):
            seed = self.seed + index % 2
            rec = {"seed": seed}
            for traced in (True, False) if index % 2 == 0 else (False, True):
                if traced:
                    rec["traced_s"] = self.in_process_pass(seed, tracer)
                    names, spans, counts = tracer.take()
                    layers.append(tr.derive(names, spans, counts))
                    spans_out.append((index, names, spans))
                else:
                    rec["untraced_s"] = self.in_process_pass(seed)
            return rec

        self.loop(one_round, min_passes=2)  # two passes, so two seeds
        write_spans(OUT / ("%s-spans.csv" % self.workload), spans_out)
        self.attempted += 1  # counts must repeat exactly across passes and seeds
        unequal = sorted(k for k in tr.COUNT_METRICS if len({m[k] for m in layers}) > 1)
        if unequal:
            self.failed += 1
            self.errors.append("counts differ between passes: %s" % ", ".join(unequal))
        metrics = {}
        for key in tr.TIME_METRICS + ("trace.traced_s",):
            metrics[key] = {"value": statistics.median(m[key] for m in layers), "unit": "s"}
        for key in tr.COUNT_METRICS:
            unit = "MiB" if key.endswith("_mb") else "count"
            metrics[key] = {"value": layers[0][key], "unit": unit}
        traced_s = statistics.median(p["traced_s"] for p in self.passes)
        untraced_s = statistics.median(p["untraced_s"] for p in self.passes)
        metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
        # solution_residuals runs after cli.main returns, outside trace.traced_s
        shares = {k: m["value"] / metrics["trace.traced_s"]["value"] for k, m in metrics.items()
                  if k.endswith("_s") and k not in ("trace.traced_s", "solver.residuals_s")}
        return metrics, {"shares_of_traced_s": shares}


def write_spans(path, rounds):
    with open(path, "w") as fh:
        fh.write("pass,span,name,start,end,parent\n")
        for index, names, spans in rounds:
            for pos, (idx, start, end, parent) in enumerate(spans):
                fh.write("%d,%d,%s,%r,%r,%d\n" % (index, pos, names[idx], start, end, parent))


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    child = _child_env()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_core": openblas_core(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": {k: child.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cpu_caches(),
        "out_dir": str(OUT),
        "out_fs": filesystem_type(OUT),
    }


def openblas_core():
    """Kernel family OpenBLAS chose at run time (it selects the CSV digest)."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            try:
                fn = getattr(ctypes.CDLL(lib), name)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def cpu_caches():
    """{"L1d": "48K", "L2": "2048K", ...} for CPU 0, from sysfs."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = size
    return caches


def git_sha():
    """HEAD commit of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def filesystem_type(path):
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def run(workload, seed, seconds, trace, size="bench"):
    """One benchmark run; returns the result object printed as the last line."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    r = Run(workload, size, seed, seconds)
    if trace:
        metrics, detail = r.traced()
    else:
        metrics, detail = r.end_to_end()
    record = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds, "trace": trace,
        "reference": r.reference,
        "environment": environment(), "invocations": [list(i.argv) for i in r.invocations],
        "passes": r.passes, "errors": r.errors, "metrics": metrics, **detail,
    }
    (OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(json.dumps(record, indent=1))
    for error in r.errors:
        print("check failed: %s" % error, file=sys.stderr)
    return {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in THREAD_VARS:  # the traced run's BLAS matches the children's
        os.environ[key] = "1"
    if not (SRC / "bsdelattice" / "cli.py").is_file():
        print("no bsdelattice sources under %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
