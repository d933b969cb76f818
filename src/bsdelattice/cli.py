"""Command-line front end for solving, certifying, and experimenting.

Subcommands: solve, duality, picard, converge, approx, verify.  Each option
is declared once, in _OPTIONS, with its kind and default, and _COMMANDS
names the options each subcommand reads.  A subcommand takes only those,
as flags or as keys of a flat JSON config file (same names, underscores for
hyphens); explicit flags win over the config, the config wins over
defaults, and a flag or config key the subcommand does not read is an
input error.  An option whose library keyword has a default of its own is
passed on only when given, so that default is declared once, where it is read.
The CLI parses and checks kinds; the library function that reads a value
checks its range (GridError), except for duality's --samples, read only here.

Each subcommand is a function of its options that does no I/O: it returns
the writer of its output, its summary and its exit code, and main writes
each run's output once the subcommand has returned, so a refused run
writes no file.  The output (a CSV, or verify's report) goes to --out, or
to stdout when --out is omitted; with --out, the summary is then printed
on stdout: one line of JSON, or verify's report text.

The package loads its core modules (lattice, drivers, solver) with this
one; every other subcommand imports its own module when it runs, so a
process pays only for what its subcommand uses.

Exit codes: 0 on success, 1 when a mathematical property fails (divergence,
inadmissible optimizer, violated monotonicity), 2 on input errors.  All CSV
output is written with 17 significant digits and is bitwise reproducible for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .drivers import make_driver, make_terminal
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    GridError,
    LatticeModelError,
    ValidationError,
)
from .lattice import build_lattice
from .solver import export_solution_csv, solution_summary, solve_backward


_OMITTED = object()  # default of an option whose library keyword has its own; null is refused
# every option, once: its kind (int, float or str; [int] or [float] for a
# comma-separated list), its default (null where this is None) and its help
_OPTIONS = {
    "steps": (int, 8, "time steps N"),
    "dim": (int, _OMITTED, "walk dimension d"),
    "horizon": (float, _OMITTED, "time horizon T"),
    "mode": (str, _OMITTED, "lattice layout: full or recombining"),
    "driver": (str, "quadratic", "catalog driver, e.g. linear:1,1"),
    "terminal": (str, "endpoint", "catalog terminal, e.g. const:1"),
    "tol": (float, None, "fixed-point tolerance (the solver's own when omitted)"),
    "max_iter": (int, _OMITTED, "fixed-point iteration cap; for picard, the sweep cap"),
    "reference": (float, None, "reference root value"),
    "samples": (int, 16, "random admissible controls to try"),
    "seed": (int, 0, "random seed"),
    "leaf_budget": (int, None, "last-slice node budget on either layout (2^20 when omitted)"),
    "out": (str, None, "CSV output path (stdout when omitted)"),
    "steps_list": ([int], (10, 50, 100), "comma-separated step counts"),
    "levels": ([float], _OMITTED, "comma-separated regularization levels"),
}
_LATTICE = ("steps", "dim", "horizon", "mode", "leaf_budget")
_SOLVE = _LATTICE + ("driver", "terminal", "tol", "max_iter", "out")


def _check_value(key, value, kind):
    """A config value as its option's kind: a JSON integer for int, any JSON
    number for float, a string for str, and a JSON list of its entries'
    kind for [int] or [float].

    A bool is no number, and neither is a string; int() would also truncate
    2.5 to 2.  A JSON integer for a float option must also fit a float,
    which 1 followed by 400 zeros does not.
    """
    name = key.replace("_", "-")
    if isinstance(kind, list):
        if not isinstance(value, list):
            what = "integers" if kind[0] is int else "numbers"
            raise GridError("%s must be a list of %s, got %r" % (name, what, value))
        return [_check_value(key, v, kind[0]) for v in value]
    if kind is str:
        if not isinstance(value, str):
            raise GridError("%s must be a string, got %r" % (name, value))
        return value
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise GridError(
            "%s must be %s, got %r" % (name, "an integer" if kind is int else "a number", value)
        )
    try:
        return kind(value)
    except OverflowError:
        raise GridError(
            "%s must fit a float, got an integer of %d digits" % (name, len(str(abs(value))))
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsdelattice",
        description="backward solver and certificates on random-walk lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, names) in _COMMANDS.items():
        # no abbreviations: converge would read --steps as --steps-list
        cmd = sub.add_parser(command, help=summary, allow_abbrev=False)
        cmd.add_argument("--config", help="flat JSON file with option values")
        for key in names:
            kind, _, text = _OPTIONS[key]
            number = kind if kind in (int, float) else None
            cmd.add_argument("--" + key.replace("_", "-"), type=number, help=text)
    return parser


def _load_config(path, names):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise GridError("config must be a JSON object, got %s" % type(data).__name__)
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise GridError("unknown config keys: %s" % ", ".join(unknown))
    return data


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """The subcommand's options: flags over the config file over the defaults.

    A config value that is not a JSON value of its option's kind (for a list
    option, a JSON list of its entries' kind) is refused (GridError, like a
    flag argparse refuses); null stays allowed where the default is null.
    Only kinds are checked here: a value's range (an empty list, a tol that
    is not a finite number >= 0, max_iter < 1, ...) is checked by the
    library function that reads it.  Omitted options are left out.
    """
    names = _COMMANDS[args.command][2]
    file_cfg = _load_config(args.config, names) if args.config else {}
    cfg = {}
    for key in names:
        kind, default, _ = _OPTIONS[key]
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key, default)
            if key in file_cfg and (value, default) != (None, None):
                value = _check_value(key, value, kind)
        if value is _OMITTED:
            continue
        if isinstance(kind, list) and isinstance(value, str):
            # a flag's comma-separated list; a config's is a checked JSON list
            value = [kind[0](v) for v in value.split(",") if v.strip()]
        cfg[key] = value
    return argparse.Namespace(**cfg)


class _TextSink:
    """A binary sink over a text stream with no buffer (an io.StringIO): ASCII bytes as text."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data):
        self.stream.write(bytes(data).decode("ascii"))


@contextlib.contextmanager
def _out_sink(path):
    """The output sink, a binary file: the file at path, or stdout's buffer when path is empty.

    Text already written to stdout is flushed first, so it stays ahead of
    the bytes.  A stdout with no buffer takes the bytes as text.
    """
    if not path:
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)
        yield _TextSink(sys.stdout) if buffer is None else buffer
        return
    with open(path, "wb") as fh:
        yield fh


def _given(cfg, *names):
    """The named options that were given, as keywords, so the library keeps its own defaults."""
    return {key: getattr(cfg, key) for key in names if getattr(cfg, key, None) is not None}


def _lattice(cfg):
    return build_lattice(cfg.steps, **_given(cfg, "dim", "horizon", "mode", "leaf_budget"))


def _problem(cfg):
    """The lattice, driver and terminal the options name."""
    return _lattice(cfg), make_driver(cfg.driver), make_terminal(cfg.terminal)


def _cmd_solve(cfg):
    lat, f, phi = _problem(cfg)
    sol = solve_backward(lat, f, phi, **_given(cfg, "tol", "max_iter"))
    return functools.partial(export_solution_csv, sol), solution_summary(sol), 0


def _cmd_duality(cfg):
    if cfg.samples < 0:
        raise GridError("samples must be >= 0, got %r" % (cfg.samples,))
    from .duality import (
        WEAK_DUALITY_SLACK,
        dual_value,
        duality_gap,
        duality_summary,
        export_duality_csv,
        optimal_control,
        random_admissible_control,
    )

    lat, f, phi = _problem(cfg)
    opts = _given(cfg, "tol", "max_iter")
    sol = solve_backward(lat, f, phi, **opts)
    xi = sol.Y[-1]  # the terminal, evaluated once for every candidate
    control = optimal_control(sol, f)
    candidate = dual_value(lat, f, xi, control, **opts)
    report = duality_gap(sol, candidate, control)
    rng = np.random.default_rng(cfg.seed)

    def probe_gap():
        # one probe and its weights at a time: the last is freed before the next is drawn
        probe = random_admissible_control(lat, rng)
        return duality_gap(sol, dual_value(lat, f, xi, probe, **opts), probe).min_gap

    gaps = [probe_gap() for _ in range(cfg.samples)]
    # a numpy fold keeps a NaN gap from any probe
    sampled_min = float(np.min(gaps)) if gaps else None
    payload = duality_summary(report)
    payload["sampled_min_gap"] = sampled_min
    payload["samples"] = cfg.samples
    ok = report.weakly_consistent and (sampled_min is None or sampled_min >= -WEAK_DUALITY_SLACK)
    return functools.partial(export_duality_csv, sol, candidate, control), payload, 0 if ok else 1


def _cmd_picard(cfg):
    from .picard import export_picard_trace_csv, picard_solve

    lat, f, phi = _problem(cfg)
    result = picard_solve(lat, f, phi, **_given(cfg, "tol", "max_iter"))
    payload = {
        "iterations": result.iterations,
        "residual": result.final_residual,
        "y0": result.solution.y0,
    }
    return functools.partial(export_picard_trace_csv, result), payload, 0


def _cmd_converge(cfg):
    from .approximation import export_refinement_csv, refinement_experiment

    if cfg.reference is None:
        raise GridError("converge needs --reference (or a reference config entry)")
    study = refinement_experiment(
        make_driver(cfg.driver),
        make_terminal(cfg.terminal),
        cfg.steps_list,
        reference=cfg.reference,
        **_given(cfg, "dim", "horizon", "mode", "leaf_budget"),
    )
    order = study.fitted_order
    payload = {
        # null, not NaN, when no order is defined: one grid, or an error that vanishes
        "fitted_order": order if math.isfinite(order) else None,
        "errors_decreasing": study.errors_decreasing,
        "final_error": study.rows[-1][2],
    }
    code = 0 if study.errors_decreasing else 1
    return functools.partial(export_refinement_csv, study), payload, code


def _cmd_approx(cfg):
    from .approximation import export_ladder_csv, monotone_limit_experiment

    ladder = monotone_limit_experiment(*_problem(cfg), **_given(cfg, "levels"))
    payload = {
        "monotone": ladder.monotone,
        "increments_decreasing": ladder.increments_decreasing,
        "cauchy_uniform": ladder.cauchy_uniform,
        "levels": len(ladder.rows),
    }
    code = 0 if ladder.monotone and ladder.increments_decreasing else 1
    return functools.partial(export_ladder_csv, ladder), payload, code


def _cmd_verify(cfg):
    from .verify import SamplingPlan, verify_driver_properties, verify_walk_conditions

    walk = verify_walk_conditions(_lattice(cfg))
    plan = SamplingPlan(seed=cfg.seed, **_given(cfg, "dim", "horizon"))
    driver = verify_driver_properties(make_driver(cfg.driver), plan)
    text = "%s\n%s\n" % (walk, driver)
    code = 0 if walk.passed and driver.passed else 1
    return lambda fh: fh.write(text.encode("ascii")), text, code


# each subcommand: its function (options to writer, summary and exit code),
# its help and the options it reads
_COMMANDS = {
    "solve": (_cmd_solve, "solve and export the triple", _SOLVE),
    "duality": (_cmd_duality, "dual certificate and gap", _SOLVE + ("samples", "seed")),
    "picard": (_cmd_picard, "iterate and export the trace", _SOLVE),
    "converge": (
        _cmd_converge,
        "grid refinement study",
        ("dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "steps_list", "reference", "out"),
    ),
    "approx": (_cmd_approx, "regularization ladder", _LATTICE + ("driver", "terminal", "levels", "out")),
    "verify": (_cmd_verify, "check walk and driver properties", _LATTICE + ("driver", "seed", "out")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        write, summary, code = _COMMANDS[args.command][0](cfg)
        with _out_sink(cfg.out) as fh:
            write(fh)
        if cfg.out:
            # the summary goes to stdout only when the output went to a file
            if not isinstance(summary, str):
                summary = json.dumps(summary, sort_keys=True) + "\n"
            sys.stdout.write(summary)
        return code
    except (ConvergenceError, AdmissibilityError, ValidationError) as exc:
        print("property failure: %s" % exc, file=sys.stderr)
        return 1
    except (LatticeModelError, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
