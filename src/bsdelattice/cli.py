"""Command-line front end for solving, certifying, and experimenting.

Subcommands: solve, duality, picard, converge, approx, verify.  Every option
can also come from a flat JSON config file (same names, underscores for
hyphens); explicit flags win over the config, the config wins over defaults.

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
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .approximation import (
    export_ladder_csv,
    export_refinement_csv,
    monotone_limit_experiment,
    refinement_experiment,
)
from .drivers import SamplingPlan, make_driver, make_terminal, verify_driver_properties
from .duality import (
    dual_value,
    duality_gap,
    duality_summary,
    export_duality_csv,
    optimal_control,
    random_admissible_control,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    GridError,
    LatticeModelError,
    ValidationError,
)
from .lattice import build_lattice, verify_walk_conditions
from .picard import export_picard_trace_csv, picard_solve
from .solver import export_solution_csv, solution_summary, solve_backward


@dataclass
class ExperimentConfig:
    """One run's options; the field defaults are the options' defaults."""

    command: str
    steps: int = 8
    dim: int = 1
    horizon: float = 1.0
    mode: str = "full"
    driver: str = "quadratic"
    terminal: str = "endpoint"
    tol: Optional[float] = None
    max_iter: int = 200
    steps_list: Sequence[int] = (10, 50, 100)
    levels: Sequence[float] = (1, 2, 4, 8, 16)
    reference: Optional[float] = None
    samples: int = 16
    seed: int = 0
    leaf_budget: Optional[int] = None
    out: Optional[str] = None

    def lattice(self):
        return build_lattice(self.steps, self.dim, self.horizon, self.mode, self.leaf_budget)


# every option: the config fields but the subcommand
_OPTIONS = [fld for fld in fields(ExperimentConfig) if fld.name != "command"]
# the options argparse reads with type=int or type=float, by kind; leaf_budget,
# tol and reference may also be null
_KINDS = {"int": int, "Optional[int]": int, "float": float, "Optional[float]": float}
_NUMBER_OPTIONS = {fld.name: _KINDS[fld.type] for fld in _OPTIONS if fld.type in _KINDS}


def _check_number(key, value, kind):
    """A config value of a numeric option: a JSON integer for int, any JSON number for float.

    A bool is neither, and neither is a string; int() would also truncate 2.5
    to 2.  A JSON integer for a float option must also fit a float, which
    1 followed by 400 zeros does not.
    """
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise GridError(
            "%s must be %s, got %r"
            % (key.replace("_", "-"), "an integer" if kind is int else "a number", value)
        )
    if kind is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise GridError(
                "%s must fit a float, got an integer of %d digits"
                % (key.replace("_", "-"), len(str(abs(value))))
            ) from None


def _parse_list(key, value, kind):
    """A list option (a list, or a comma-separated string) as a list of kind.

    The entries of a list must be JSON numbers of the option's kind, as a
    flag's are parsed.
    """
    if not isinstance(value, (list, tuple)):
        value = [v for v in str(value).split(",") if v.strip()]
    else:
        for v in value:
            _check_number(key, v, kind)
    return [kind(v) for v in value]


def _check_ranges(merged):
    """GridError for a tol that is not a finite number >= 0, a non-finite
    reference or level, samples < 0 or max_iter < 1."""
    tol = merged["tol"]
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise GridError("tol must be a finite number >= 0, got %r" % (tol,))
    reference = merged["reference"]
    if reference is not None and not math.isfinite(reference):
        raise GridError("reference must be a finite number, got %r" % (reference,))
    for level in merged["levels"]:
        if not math.isfinite(level):
            raise GridError("levels must be finite numbers, got %r" % (level,))
    if merged["samples"] < 0:
        raise GridError("samples must be >= 0, got %r" % (merged["samples"],))
    if merged["max_iter"] < 1:
        raise GridError("max-iter must be >= 1, got %r" % (merged["max_iter"],))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsdelattice",
        description="backward solver and certificates on random-walk lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON file with option values")
    common.add_argument("--steps", type=int)
    common.add_argument("--dim", type=int)
    common.add_argument("--horizon", type=float)
    common.add_argument("--mode", choices=["full", "recombining"])
    common.add_argument("--driver")
    common.add_argument("--terminal")
    common.add_argument("--tol", type=float)
    common.add_argument("--max-iter", type=int, dest="max_iter")
    common.add_argument("--seed", type=int)
    common.add_argument("--leaf-budget", type=int, dest="leaf_budget")
    common.add_argument("--out", help="CSV output path (stdout when omitted)")
    sub.add_parser("solve", parents=[common], help="solve and export the triple")
    dual = sub.add_parser("duality", parents=[common], help="dual certificate and gap")
    dual.add_argument("--samples", type=int, help="random admissible controls to try")
    sub.add_parser("picard", parents=[common], help="iterate and export the trace")
    conv = sub.add_parser("converge", parents=[common], help="grid refinement study")
    conv.add_argument("--steps-list", dest="steps_list", help="comma-separated step counts")
    conv.add_argument("--reference", type=float, help="reference root value")
    appr = sub.add_parser("approx", parents=[common], help="regularization ladder")
    appr.add_argument("--levels", help="comma-separated regularization levels")
    sub.add_parser("verify", parents=[common], help="check walk and driver properties")
    return parser


def _load_config(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise GridError("config must be a JSON object, got %s" % type(data).__name__)
    unknown = sorted(set(data) - {fld.name for fld in _OPTIONS})
    if unknown:
        raise GridError("unknown config keys: %s" % ", ".join(unknown))
    return data


def _merge(args: argparse.Namespace) -> ExperimentConfig:
    """Flags over the config file over the defaults.

    An empty list option is refused, and so is a config value of a numeric
    option that is not a JSON number of its kind (GridError, like a flag
    argparse refuses); null stays allowed where the default is null.  A tol
    that is not a finite number >= 0, a non-finite reference or level,
    samples < 0 and max_iter < 1 are refused too, from a flag or a config.
    """
    file_cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for fld in _OPTIONS:
        value = getattr(args, fld.name, None)
        if value is None:
            value = file_cfg.get(fld.name, fld.default)
            kind = _NUMBER_OPTIONS.get(fld.name)
            if kind is not None and not (value is None and fld.default is None):
                _check_number(fld.name, value, kind)
        merged[fld.name] = value
    for key, kind in (("steps_list", int), ("levels", float)):
        merged[key] = _parse_list(key, merged[key], kind)
        if not merged[key]:
            raise GridError("%s is empty" % key.replace("_", "-"))
    _check_ranges(merged)
    return ExperimentConfig(command=args.command, **merged)


@contextlib.contextmanager
def _out_sink(path):
    """The CSV sink: the file at path, or stdout when path is empty."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _emit_summary(cfg: ExperimentConfig, payload: dict):
    # summary goes to stdout only when the CSV went to a file
    if cfg.out:
        print(json.dumps(payload, sort_keys=True))


def _cmd_solve(cfg: ExperimentConfig) -> int:
    lat = cfg.lattice()
    f = make_driver(cfg.driver)
    phi = make_terminal(cfg.terminal)
    tol = 1e-12 if cfg.tol is None else float(cfg.tol)
    sol = solve_backward(lat, f, phi, tol=tol, max_iter=int(cfg.max_iter))
    with _out_sink(cfg.out) as fh:
        export_solution_csv(sol, fh)
    _emit_summary(cfg, solution_summary(sol))
    return 0


def _cmd_duality(cfg: ExperimentConfig) -> int:
    lat = cfg.lattice()
    f = make_driver(cfg.driver)
    phi = make_terminal(cfg.terminal)
    opts = {"tol": 1e-12 if cfg.tol is None else float(cfg.tol), "max_iter": int(cfg.max_iter)}
    sol = solve_backward(lat, f, phi, **opts)
    xi = sol.Y.slices[-1]  # the terminal, evaluated once for every candidate
    control = optimal_control(sol, f)
    candidate = dual_value(lat, f, xi, control, **opts)
    report = duality_gap(sol, candidate, control)
    rng = np.random.default_rng(cfg.seed)
    gaps = []
    for _ in range(int(cfg.samples)):
        probe = random_admissible_control(lat, rng)
        gaps.append(duality_gap(sol, dual_value(lat, f, xi, probe, **opts), probe).min_gap)
    # a numpy fold keeps a NaN gap from any probe
    sampled_min = float(np.min(gaps)) if gaps else None
    with _out_sink(cfg.out) as fh:
        export_duality_csv(sol, candidate, control, fh)
    payload = duality_summary(report)
    payload["sampled_min_gap"] = sampled_min
    payload["samples"] = int(cfg.samples)
    _emit_summary(cfg, payload)
    ok = report.weakly_consistent and (sampled_min is None or sampled_min >= -1e-9)
    return 0 if ok else 1


def _cmd_picard(cfg: ExperimentConfig) -> int:
    lat = cfg.lattice()
    f = make_driver(cfg.driver)
    phi = make_terminal(cfg.terminal)
    tol = 1e-10 if cfg.tol is None else float(cfg.tol)
    result = picard_solve(lat, f, phi, tol=tol, max_p=int(cfg.max_iter))
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


def _cmd_converge(cfg: ExperimentConfig) -> int:
    if cfg.reference is None:
        raise GridError("converge needs --reference (or a reference config entry)")
    study = refinement_experiment(
        make_driver(cfg.driver),
        make_terminal(cfg.terminal),
        cfg.steps_list,
        reference=float(cfg.reference),
        dim=int(cfg.dim),
        horizon=float(cfg.horizon),
        mode=cfg.mode,
        leaf_budget=cfg.leaf_budget,
    )
    with _out_sink(cfg.out) as fh:
        export_refinement_csv(study, fh)
    _emit_summary(
        cfg,
        {
            "fitted_order": study.fitted_order,
            "errors_decreasing": study.errors_decreasing,
            "final_error": study.rows[-1][2],
        },
    )
    return 0 if study.errors_decreasing else 1


def _cmd_approx(cfg: ExperimentConfig) -> int:
    lat = cfg.lattice()
    ladder = monotone_limit_experiment(
        lat, make_driver(cfg.driver), make_terminal(cfg.terminal), levels=cfg.levels
    )
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


def _cmd_verify(cfg: ExperimentConfig) -> int:
    lat = cfg.lattice()
    walk_report = verify_walk_conditions(lat)
    plan = SamplingPlan(dim=int(cfg.dim), horizon=float(cfg.horizon), seed=int(cfg.seed))
    driver_report = verify_driver_properties(make_driver(cfg.driver), plan)
    lines = []
    for check in walk_report.checks:
        state = "SKIP" if check.passed is None else ("PASS" if check.passed else "FAIL")
        lines.append("walk:%s %s" % (check.name, state))
    for check in driver_report.checks:
        state = "SKIP" if check.passed is None else ("PASS" if check.passed else "FAIL")
        lines.append("driver:%s %s" % (check.name, state))
    text = "\n".join(lines) + "\n"
    with _out_sink(cfg.out) as fh:
        fh.write(text)
    if cfg.out:
        sys.stdout.write(text)
    return 0 if walk_report.passed and driver_report.passed else 1


_COMMANDS = {
    "solve": _cmd_solve,
    "duality": _cmd_duality,
    "picard": _cmd_picard,
    "converge": _cmd_converge,
    "approx": _cmd_approx,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg)
    except (ConvergenceError, AdmissibilityError, ValidationError) as exc:
        print("property failure: %s" % exc, file=sys.stderr)
        return 1
    except (LatticeModelError, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
