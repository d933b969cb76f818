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

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, TerminalFunctional
from .errors import ConvergenceError, GridError
from .lattice import build_lattice
from .probability import difference_extremes
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, _backward_sweep, _write_table, bmo_estimate
from .solver import solve_backward


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

    A Markov terminal is regularized through its terminal map, and the
    result is Markov too (its path form reads the final value), so both
    layouts see the same numbers.  When n is at least phi's declared
    Lipschitz constant every candidate is at least phi, and phi itself
    (running form included) is returned.  A level that is not a finite
    number > 0 raises GridError (inf * 0 would read NaN at a zero shift).
    """
    n = float(n)
    if not (n > 0 and math.isfinite(n)):
        raise GridError("regularization level must be positive and finite, got %g" % n)
    if phi.lipschitz is not None and phi.lipschitz <= n:
        return phi
    radius = 2.0 * (phi.bound if phi.bound is not None else 1.0)
    mags = [c for c in np.linspace(-radius, radius, 129) if c != 0.0]
    if phi.markovian:
        def tmap(x):
            xv = np.asarray(x, dtype=float)
            return _shift_min(phi.terminal_map, xv, xv, n, mags)

        form = {"terminal_map": tmap}
    else:
        def evaluate(paths):
            arr = np.asarray(paths, dtype=float)
            return _shift_min(phi.evaluate, arr, arr[..., -1, :], n, mags)

        form = {"evaluate": evaluate}
    return TerminalFunctional(
        name="infconv%g:%s" % (n, phi.name), lipschitz=n, bound=phi.bound, **form
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
    monotone: bool
    increments_decreasing: bool
    cauchy_uniform: bool


def _run_ladder(lattice, f: DriverSpec, terminals, labels) -> ApproximationLadder:
    """Solve the levels in turn, each compared with the previous one's Y only; GridError if none."""
    if len(terminals) == 0:
        raise GridError("levels is empty")
    growth = math.exp(f.lipschitz_wy * lattice.grid.horizon)
    rows = []
    prev_y = None
    monotone = True
    cauchy = True
    sups = []
    for label, phi in zip(labels, terminals):
        sol = solve_backward(lattice, f, phi)
        row = LadderRow(level=label, y0=sol.y0, bmo=bmo_estimate(sol))
        if prev_y is not None:
            lo, hi = difference_extremes(sol.Y, prev_y)
            # abs before the max, so an all-zero increment is 0, never -0
            row.sup_increment = float(np.maximum(np.abs(lo), np.abs(hi)))
            row.min_increment = lo
            row.terminal_gap = float(np.max(np.abs(sol.Y[-1] - prev_y[-1])))
            row.cauchy_ok = row.sup_increment <= growth * row.terminal_gap + 1e-9
            monotone = monotone and row.min_increment >= -1e-12
            cauchy = cauchy and row.cauchy_ok
            sups.append(row.sup_increment)
        rows.append(row)
        # keep Y for the next level's increments; Z goes before its solve
        prev_y, sol = sol.Y, None
    decreasing = all(sups[j + 1] <= sups[j] + 1e-12 for j in range(len(sups) - 1))
    return ApproximationLadder(
        rows=rows,
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
    """Solve along the regularization ladder of phi and report monotonicity;
    every level goes through inf_convolution's check before any solve."""
    terminals = [inf_convolution(phi, n) for n in levels]
    return _run_ladder(lattice, f, terminals, ["n=%g" % n for n in levels])


def uniform_limit_experiment(lattice, f: DriverSpec, terminals) -> ApproximationLadder:
    """Cauchy ladder over an arbitrary terminal sequence, labelled level=0, 1, ...

    Checks each successive value distance against exp(K T) times the terminal
    sup distance; with a y-independent driver that bound is exact up to
    rounding, so cauchy_uniform should come back True.
    """
    return _run_ladder(lattice, f, terminals, ["level=%d" % j for j in range(len(terminals))])


@dataclass
class RefinementStudy:
    rows: list = field(default_factory=list)  # (steps, y0, error)
    reference: float = math.nan
    fitted_order: float = math.nan

    @property
    def errors_decreasing(self) -> bool:
        errs = [r[2] for r in self.rows]
        return all(errs[j + 1] < errs[j] for j in range(len(errs) - 1))


def _solve_root(lat, f: DriverSpec, phi: TerminalFunctional) -> float:
    """Y_0 of one grid, streamed slice by slice; ConvergenceError naming N unless it is finite."""
    for _, y, _, _, _, _ in _backward_sweep(lat, f, phi, DEFAULT_TOL, DEFAULT_MAX_ITER):
        pass
    y0 = float(y[0])
    if not math.isfinite(y0):
        raise ConvergenceError("grid N=%d: Y_0 is %r, not a finite number" % (lat.steps, y0))
    return y0


def _solve_group(lattices, f, phi, group) -> list:
    """(index, ok, Y_0 or exception) per grid of the group, in steps_list order, up to its
    first failure: a later grid's error could not be the study's."""
    rows = []
    for k in group:
        try:
            rows.append((k, True, _solve_root(lattices[k], f, phi)))
        except Exception as exc:
            rows.append((k, False, exc))
            break
    return rows


def _groups(lattices) -> list:
    """Grid indices per worker, each group in steps_list order: one group per CPU this
    process may run on (one where the OS cannot tell), at most one per grid, filled largest
    grid first (by total node count) into the least-loaded group, so group 0 gets the largest."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    groups = [[] for _ in range(min(cpus, len(lattices)))]
    loads = [0] * len(groups)
    for k in sorted(range(len(lattices)), key=lambda k: -lattices[k].total_nodes()):
        g = loads.index(min(loads))
        groups[g].append(k)
        loads[g] += lattices[k].total_nodes()
    return [sorted(group) for group in groups]


def _fork_group(lattices, f, phi, group):
    """Solve the group in a forked child; returns (pid, the read end of its pipe).

    The child writes its _solve_group rows, pickled, and leaves through
    os._exit, so it runs none of the parent's cleanup; it exits 1 if it
    could not write them.  An exception that does not pickle and unpickle
    is sent as its text.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    code = 1
    try:
        os.close(r)
        rows = _solve_group(lattices, f, phi, group)
        try:
            data = pickle.dumps(rows)
            pickle.loads(data)  # what the parent will do with it
        except Exception:
            k, _, exc = rows[-1]  # only a failure's exception can refuse
            rows[-1] = (k, False, "%s: %s" % (type(exc).__name__, exc))
            data = pickle.dumps(rows)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _received(data, group, lattices, status) -> dict:
    """index -> (ok, Y_0 or exception) from a child's pipe bytes; a grid it did not send
    back, or whose exception came as text, gets one RuntimeError naming its N."""
    try:
        rows = pickle.loads(data)
    except Exception:  # EOF or a cut write: the child died first
        rows = []
    out = {}
    for k in group:
        out[k] = (False, RuntimeError(
            "grid N=%d: the forked worker solving it exited (status %d) without sending "
            "its result" % (lattices[k].steps, os.waitstatus_to_exitcode(status))))
    for k, ok, value in rows:
        if isinstance(value, str):
            value = RuntimeError("grid N=%d: the forked worker could not send back its "
                                 "exception, %s" % (lattices[k].steps, value))
        out[k] = (ok, value)
    return out


def refinement_experiment(
    f: DriverSpec,
    phi: TerminalFunctional,
    steps_list,
    reference: float,
    mode: str = "recombining",
    **lattice,
) -> RefinementStudy:
    """Solve on finer and finer grids and track the root error to reference.

    Each grid is solved as solve_backward solves it, with the same checks,
    errors and bits of Y_0, but slice by slice: the study keeps only the
    latest slice, so a grid holds O(one slice) instead of its whole solution.
    A grid whose Y_0 is not finite raises ConvergenceError naming its N,
    since one grid alone has no error sequence to fail.  The fitted order
    is the least-squares slope of log error against log N (so first order
    shows up as roughly 1.0); it is NaN when any error vanishes exactly or
    fewer than two grids are given.

    The grids are solved side by side, in one group per CPU the process may
    run on: this process solves the group with the largest grid, and each
    other group is solved in an os.fork() child that sends back only its
    roots, pickled through a pipe.  Where the OS does not report the CPUs
    (macOS, Windows) there is one group, and no child.  The rows, and the
    error raised, are those of the serial loop: rows in steps_list order,
    and the exception of the first failing grid in steps_list order,
    whichever process solved it.  A package exception keeps its type,
    message and attributes; one that does not pickle, or a child that dies
    before it writes, raises RuntimeError naming the grid's N.  Every child
    is waited for before this returns or raises; on an interrupt it is
    killed first.

    Grid N is build_lattice(N, mode=mode, **lattice): dim, horizon and
    leaf_budget keep build_lattice's own defaults unless given.  A non-finite
    reference, an empty steps_list or a grid build_lattice refuses raises
    before any grid is solved.
    """
    study = RefinementStudy(reference=float(reference))
    if not math.isfinite(study.reference):
        raise GridError("reference must be a finite number, got %r" % (study.reference,))
    if len(steps_list) == 0:
        raise GridError("steps_list is empty")
    lattices = [build_lattice(steps, mode=mode, **lattice) for steps in steps_list]
    groups = _groups(lattices)
    workers = []  # (group, pid, pipe) of each child not yet waited for
    try:
        for group in groups[1:]:
            workers.append((group, *_fork_group(lattices, f, phi, group)))
        results = {k: (ok, v) for k, ok, v in _solve_group(lattices, f, phi, groups[0])}
        while workers:
            group, pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            results.update(_received(data, group, lattices, status))
    finally:
        for _, pid, pipe in workers:  # left only if cut short: an interrupt or a failed fork
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for k, lat in enumerate(lattices):
        ok, value = results[k]
        if not ok:
            raise value
        study.rows.append((lat.steps, value, abs(value - study.reference)))
    errs = np.array([r[2] for r in study.rows])
    ns = np.array([r[0] for r in study.rows], dtype=float)
    if len(errs) >= 2 and np.all(errs > 0.0):
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        study.fitted_order = float(-slope)
    return study


def export_ladder_csv(ladder: ApproximationLadder, fileobj):
    """Rows level,Y0,sup_increment,bmo,cauchy_bound_ok, one per level, to a binary file."""
    rows = [(r.level, r.y0, r.sup_increment, r.bmo, r.cauchy_ok) for r in ladder.rows]
    _write_table(fileobj, ("level", "Y0", "sup_increment", "bmo", "cauchy_bound_ok"), rows)


def export_refinement_csv(study: RefinementStudy, fileobj):
    """Rows N,Y0,error,fitted_order, one per grid, to a binary file."""
    rows = [(*row, study.fitted_order) for row in study.rows]
    _write_table(fileobj, ("N", "Y0", "error", "fitted_order"), rows)
