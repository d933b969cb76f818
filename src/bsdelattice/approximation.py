"""Terminal approximation ladders and refinement studies.

Bounded irregular terminals are approached through their Lipschitz
regularizations: level n replaces the payoff by the cheapest combination of a
candidate payoff and n times the sup-distance to it.  The candidates are the
path and its uniform shifts along one coordinate, by a fixed magnitude grid
or by the shift that zeroes the final value.  The family is the same at every
level, which makes the ladder nondecreasing in n exactly, not just in the
limit.  A Markov terminal is regularized through its terminal map, so the
full and recombining layouts give the same ladder, and a level at or above
the declared Lipschitz constant keeps the terminal itself.

On top of that sit three experiment drivers: the monotone ladder (solve per
level, check nodewise monotonicity and shrinking increments), the uniform
Cauchy ladder (successive value distances against exp(K T) times the terminal
distance), and grid refinement toward a known reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, TerminalFunctional
from .errors import GridError
from .lattice import build_lattice
from .solver import _backward_sweep, bmo_estimate, solve_backward


def _shift_min(value, x, final, n, mags):
    """min of value(x + s) + n |s| over s = 0 and the one-coordinate shifts s.

    x is a final value (..., d) or a path (..., N+1, d) shifted uniformly in
    time; final is its final value, which fixes the endpoint-zeroing shift.
    """
    d = x.shape[-1]
    tail = (1,) * (x.ndim - final.ndim + 1)
    best = np.array(value(x), dtype=float, copy=True)
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = 1.0
        snap = -final[..., k]
        cand = np.asarray(value(x + snap.reshape(snap.shape + tail) * ek), dtype=float)
        best = np.minimum(best, cand + n * np.abs(snap))
        for c in mags:
            best = np.minimum(best, np.asarray(value(x + c * ek), dtype=float) + n * abs(c))
    return best


def inf_convolution(phi: TerminalFunctional, n: float) -> TerminalFunctional:
    """Level-n Lipschitz regularization of a bounded terminal.

    Candidates: the path itself, and uniform shifts along one coordinate by
    a magnitude on the fixed 129-point grid of radius twice the declared
    bound, or by the shift that zeroes that coordinate's final value; each
    shift s costs n |s|.  Larger shifts cannot win.  The family is the same
    at every level, so the ladder is pointwise nondecreasing in n with no
    tolerance at all.

    A Markov terminal is regularized through its terminal map, and its path
    form reads the final value, so both layouts see the same numbers.  When
    n is at least phi's declared Lipschitz constant every candidate is at
    least phi, and phi itself (running form included) is returned.
    """
    n = float(n)
    if n <= 0:
        raise GridError("regularization level must be positive, got %g" % n)
    if phi.lipschitz is not None and phi.lipschitz <= n:
        return phi
    radius = 2.0 * (phi.bound if phi.bound is not None else 1.0)
    mags = [c for c in np.linspace(-radius, radius, 129) if c != 0.0]
    markov = phi.markovian and phi.terminal_map is not None
    tmap = None
    if markov:
        def tmap(x):
            xv = np.asarray(x, dtype=float)
            return _shift_min(phi.terminal_map, xv, xv, n, mags)

        def evaluate(paths):
            return tmap(np.asarray(paths, dtype=float)[..., -1, :])
    else:
        def evaluate(paths):
            arr = np.asarray(paths, dtype=float)
            return _shift_min(phi.evaluate, arr, arr[..., -1, :], n, mags)

    return TerminalFunctional(
        name="infconv%g:%s" % (n, phi.name),
        evaluate=evaluate,
        lipschitz=n,
        bound=phi.bound,
        markovian=markov,
        terminal_map=tmap,
    )


@dataclass
class LadderRow:
    level: str
    y0: float
    bmo: float
    sup_increment: float = None
    min_increment: float = None
    terminal_gap: float = None
    cauchy_ok: bool = None


@dataclass
class ApproximationLadder:
    rows: list
    solutions: list
    monotone: bool
    increments_decreasing: bool
    cauchy_uniform: bool


def _run_ladder(lattice, f: DriverSpec, terminals, labels) -> ApproximationLadder:
    growth = math.exp(f.lipschitz_wy * lattice.grid.horizon)
    rows = []
    sols = []
    prev_sol = None
    prev_xi = None
    monotone = True
    cauchy = True
    sups = []
    for label, phi in zip(labels, terminals):
        sol = solve_backward(lattice, f, phi)
        xi = sol.Y.slices[-1]
        if prev_sol is None:
            rows.append(LadderRow(level=label, y0=sol.y0, bmo=bmo_estimate(sol)))
        else:
            # numpy folds, so a NaN increment reaches both and fails the ladder
            diffs = [cur - old for cur, old in zip(sol.Y.slices, prev_sol.Y.slices)]
            sup_inc = float(np.max([np.max(np.abs(d)) for d in diffs], initial=0.0))
            min_inc = float(np.min([np.min(d) for d in diffs], initial=math.inf))
            gap = float(np.max(np.abs(xi - prev_xi)))
            ok = sup_inc <= growth * gap + 1e-9
            rows.append(
                LadderRow(
                    level=label,
                    y0=sol.y0,
                    bmo=bmo_estimate(sol),
                    sup_increment=sup_inc,
                    min_increment=min_inc,
                    terminal_gap=gap,
                    cauchy_ok=ok,
                )
            )
            monotone = monotone and min_inc >= -1e-12
            cauchy = cauchy and ok
            sups.append(sup_inc)
        sols.append(sol)
        prev_sol = sol
        prev_xi = xi
    decreasing = all(sups[j + 1] <= sups[j] + 1e-12 for j in range(len(sups) - 1))
    return ApproximationLadder(
        rows=rows,
        solutions=sols,
        monotone=monotone,
        increments_decreasing=decreasing,
        cauchy_uniform=cauchy,
    )


def monotone_limit_experiment(
    lattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    levels=(1, 2, 4, 8, 16),
) -> ApproximationLadder:
    """Solve along the regularization ladder of phi and report monotonicity."""
    terminals = [inf_convolution(phi, n) for n in levels]
    labels = ["n=%g" % n for n in levels]
    return _run_ladder(lattice, f, terminals, labels)


def uniform_limit_experiment(
    lattice, f: DriverSpec, terminals, labels=None
) -> ApproximationLadder:
    """Cauchy ladder over an arbitrary terminal sequence.

    Checks each successive value distance against exp(K T) times the terminal
    sup distance; with a y-independent driver that bound is exact up to
    rounding, so cauchy_uniform should come back True.
    """
    if labels is None:
        labels = ["level=%d" % j for j in range(len(terminals))]
    return _run_ladder(lattice, f, terminals, labels)


@dataclass
class RefinementStudy:
    rows: list = field(default_factory=list)  # (steps, y0, error)
    reference: float = math.nan
    fitted_order: float = math.nan

    @property
    def errors_decreasing(self) -> bool:
        errs = [r[2] for r in self.rows]
        return all(errs[j + 1] < errs[j] for j in range(len(errs) - 1))


def refinement_experiment(
    f: DriverSpec,
    phi: TerminalFunctional,
    steps_list,
    reference: float,
    dim: int = 1,
    horizon: float = 1.0,
    mode: str = "recombining",
    leaf_budget: int = None,
) -> RefinementStudy:
    """Solve on finer and finer grids and track the root error to reference.

    Each grid is solved as solve_backward solves it, with the same checks,
    errors and bits of Y_0, but slice by slice: the study keeps only the
    latest slice, so a grid holds O(one slice) instead of its whole solution.
    The fitted order is the least-squares slope of log error against log N
    (so first order shows up as roughly 1.0); it is NaN when any error
    vanishes exactly or fewer than two grids are given.
    """
    study = RefinementStudy(reference=float(reference))
    for steps in steps_list:
        kwargs = {} if leaf_budget is None else {"leaf_budget": leaf_budget}
        lat = build_lattice(int(steps), dim=dim, horizon=horizon, mode=mode, **kwargs)
        for _, y, _, _, _, _ in _backward_sweep(lat, f, phi):
            pass
        y0 = float(y[0])
        study.rows.append((int(steps), y0, abs(y0 - study.reference)))
    errs = np.array([r[2] for r in study.rows])
    ns = np.array([r[0] for r in study.rows], dtype=float)
    if len(errs) >= 2 and np.all(errs > 0.0):
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        study.fitted_order = float(-slope)
    return study


def export_ladder_csv(ladder: ApproximationLadder, fileobj):
    fileobj.write("level,Y0,sup_increment,bmo,cauchy_bound_ok\n")
    for row in ladder.rows:
        fileobj.write(
            "%s,%.17g,%s,%.17g,%s\n"
            % (
                row.level,
                row.y0,
                "" if row.sup_increment is None else "%.17g" % row.sup_increment,
                row.bmo,
                "" if row.cauchy_ok is None else str(int(row.cauchy_ok)),
            )
        )


def export_refinement_csv(study: RefinementStudy, fileobj):
    fileobj.write("N,Y0,error,fitted_order\n")
    for steps, y0, err in study.rows:
        fileobj.write(
            "%d,%.17g,%.17g,%.17g\n" % (steps, y0, err, study.fitted_order)
        )
