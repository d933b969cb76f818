"""Command-line front end for solving, certifying, and experimenting.

Subcommands: solve, duality, picard, converge, approx, verify.  Each option
is declared once, in _OPTIONS, with its kind and default, and _COMMANDS
names the options each subcommand reads.  A subcommand takes only those,
as flags or as keys of a flat JSON config file (same names, underscores for
hyphens); explicit flags win over the config, the config wins over
defaults, and a flag or config key the subcommand does not read is an
input error.  An option whose library keyword has a default of its own is
passed on only when given, so that default is declared once, where it is read.

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
    """A config value of a scalar option, as its kind: a JSON integer for int,
    any JSON number for float, a string for str.

    A bool is no number, and neither is a string; int() would also truncate
    2.5 to 2.  A JSON integer for a float option must also fit a float,
    which 1 followed by 400 zeros does not.
    """
    name = key.replace("_", "-")
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


def _parse_list(key, value, kind):
    """A list option (a list, or a comma-separated string) as a non-empty list of kind.

    The entries of a list must be JSON numbers of the option's kind, as a
    flag's are parsed.
    """
    if isinstance(value, (list, tuple)):
        value = [_check_value(key, v, kind) for v in value]
    else:
        value = [kind(v) for v in str(value).split(",") if v.strip()]
    if not value:
        raise GridError("%s is empty" % key.replace("_", "-"))
    return value


def _check_ranges(cfg):
    """GridError for a tol that is not a finite number >= 0, a non-finite
    reference or level, samples < 0 or max_iter < 1."""
    tol = cfg.get("tol")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise GridError("tol must be a finite number >= 0, got %r" % (tol,))
    reference = cfg.get("reference")
    if reference is not None and not math.isfinite(reference):
        raise GridError("reference must be a finite number, got %r" % (reference,))
    for level in cfg.get("levels", ()):
        if not math.isfinite(level):
            raise GridError("levels must be finite numbers, got %r" % (level,))
    if cfg.get("samples", 0) < 0:
        raise GridError("samples must be >= 0, got %r" % (cfg["samples"],))
    if cfg.get("max_iter", 1) < 1:
        raise GridError("max-iter must be >= 1, got %r" % (cfg["max_iter"],))


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

    A config value of a scalar option that is not a JSON value of its kind
    is refused (GridError, like a flag argparse refuses); null stays allowed
    where the default is null.  An empty list option is refused, and so are
    a tol that is not a finite number >= 0, a non-finite reference or level,
    samples < 0 and max_iter < 1, from a flag or a config.  Omitted options are left out.
    """
    names = _COMMANDS[args.command][2]
    file_cfg = _load_config(args.config, names) if args.config else {}
    cfg = {}
    for key in names:
        kind, default, _ = _OPTIONS[key]
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key, default)
            if key in file_cfg and kind in (int, float, str) and (value, default) != (None, None):
                value = _check_value(key, value, kind)
        if value is _OMITTED:
            continue
        if isinstance(kind, list):
            value = _parse_list(key, value, kind[0])
        cfg[key] = value
    _check_ranges(cfg)
    return argparse.Namespace(**cfg)


class _TextSink:
    """A binary sink over a text stream with no buffer (an io.StringIO): ASCII bytes as text."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data):
        self.stream.write(bytes(data).decode("ascii"))


@contextlib.contextmanager
def _out_sink(path):
    """The CSV sink, a binary file: the file at path, or stdout's buffer when path is empty.

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


def _emit_summary(cfg, payload: dict):
    # summary goes to stdout only when the CSV went to a file
    if cfg.out:
        print(json.dumps(payload, sort_keys=True))


def _given(cfg, *names):
    """The named options that were given, as keywords, so the library keeps its own defaults."""
    return {key: getattr(cfg, key) for key in names if getattr(cfg, key, None) is not None}


def _lattice(cfg):
    return build_lattice(cfg.steps, **_given(cfg, "dim", "horizon", "mode", "leaf_budget"))


def _problem(cfg):
    """The lattice, driver and terminal the options name."""
    return _lattice(cfg), make_driver(cfg.driver), make_terminal(cfg.terminal)


def _cmd_solve(cfg) -> int:
    lat, f, phi = _problem(cfg)
    sol = solve_backward(lat, f, phi, **_given(cfg, "tol", "max_iter"))
    with _out_sink(cfg.out) as fh:
        export_solution_csv(sol, fh)
    _emit_summary(cfg, solution_summary(sol))
    return 0


def _cmd_duality(cfg) -> int:
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
    xi = sol.Y.slices[-1]  # the terminal, evaluated once for every candidate
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
    with _out_sink(cfg.out) as fh:
        export_duality_csv(sol, candidate, control, fh)
    payload = duality_summary(report)
    payload["sampled_min_gap"] = sampled_min
    payload["samples"] = cfg.samples
    _emit_summary(cfg, payload)
    ok = report.weakly_consistent and (sampled_min is None or sampled_min >= -WEAK_DUALITY_SLACK)
    return 0 if ok else 1


def _cmd_picard(cfg) -> int:
    from .picard import export_picard_trace_csv, picard_solve

    lat, f, phi = _problem(cfg)
    result = picard_solve(lat, f, phi, **_given(cfg, "tol", "max_iter"))
    with _out_sink(cfg.out) as fh:
        export_picard_trace_csv(result, fh)
    _emit_summary(
        cfg,
        {
            "iterations": result.iterations,
            "residual": result.final_residual,
            "y0": result.solution.y0,
        },
    )
    return 0


def _cmd_converge(cfg) -> int:
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
    with _out_sink(cfg.out) as fh:
        export_refinement_csv(study, fh)
    order = study.fitted_order
    _emit_summary(
        cfg,
        {
            # null, not NaN, when no order is defined: one grid, or an error that vanishes
            "fitted_order": order if math.isfinite(order) else None,
            "errors_decreasing": study.errors_decreasing,
            "final_error": study.rows[-1][2],
        },
    )
    return 0 if study.errors_decreasing else 1


def _cmd_approx(cfg) -> int:
    from .approximation import export_ladder_csv, monotone_limit_experiment

    ladder = monotone_limit_experiment(*_problem(cfg), **_given(cfg, "levels"))
    with _out_sink(cfg.out) as fh:
        export_ladder_csv(ladder, fh)
    _emit_summary(
        cfg,
        {
            "monotone": ladder.monotone,
            "increments_decreasing": ladder.increments_decreasing,
            "cauchy_uniform": ladder.cauchy_uniform,
            "levels": len(ladder.rows),
        },
    )
    return 0 if ladder.monotone and ladder.increments_decreasing else 1


def _cmd_verify(cfg) -> int:
    from .verify import SamplingPlan, verify_driver_properties, verify_walk_conditions

    walk = verify_walk_conditions(_lattice(cfg))
    plan = SamplingPlan(seed=cfg.seed, **_given(cfg, "dim", "horizon"))
    driver = verify_driver_properties(make_driver(cfg.driver), plan)
    text = "%s\n%s\n" % (walk, driver)
    with _out_sink(cfg.out) as fh:
        fh.write(text.encode("ascii"))
    if cfg.out:
        sys.stdout.write(text)
    return 0 if walk.passed and driver.passed else 1


# each subcommand: its function, its help and the options it reads
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
        return _COMMANDS[args.command][0](cfg)
    except (ConvergenceError, AdmissibilityError, ValidationError) as exc:
        print("property failure: %s" % exc, file=sys.stderr)
        return 1
    except (LatticeModelError, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
