"""Convex-dual certificates for backward solutions.

Every admissible predictable control mu induces a candidate value process:
terminal values unchanged, one step back the tilted conditional expectation
minus the driver's z-conjugate times dt.  The conjugate and the subgradient
of step i are taken at t_{i+1}, the time at which the solve evaluates the
driver.  Convexity of the driver makes every candidate a lower bound on the
solved value (weak duality); the subgradient control closes the gap when its
tilt keeps all one-step weights positive.
The dual binds its conjugate, and the control its subgradient, through the
solve's per-slice binder (solver._slice_driver), so all three read step i's
time and path in one place.  mu is bound once per slice
(DriverSpec.bound_conjugate), so a closed form does its mu-only work there
and the fixed point pays only the y-part per iterate.  The conjugate at the
tilted mean is evaluated once per slice: the NaN guard, the live test and
the step's first iterate all read it.  Its implicit step is
the backward solve's (solver._implicit_step: fixed point, bisection
fallback) with the negated conjugate for the driver, under the solve's
rule for a y-free driver: one iterate.

dual_value takes the terminal slice, not the terminal functional: every
candidate of a solve starts from the solve's own terminal values, so a run
that probes many controls evaluates the terminal once.  Each slice's NaN
guard (solver._refuse_nan, Picard's too) and admissibility guard is one
reduction; the offending node or edge is searched for only when it fails.

A conjugate value of +inf sends the candidate to -inf at that node, which
then propagates toward the root.  That is a legitimate (useless) candidate,
reported as is rather than raised.  A NaN is not: dual_value raises
ConvergenceError at the first slice that holds one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .drivers import DriverSpec
from .errors import GridError, OptimizerAdmissibilityError, StructuralError
from .lattice import PathLattice, _sum_columns
from .probability import ControlProcess, _check_slices, difference_extremes, tilted_expectation
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, SolutionTriple, _check_problem, _implicit_step
from .solver import _refuse_nan, _slice_driver, _write_rows

# the most negative gap that still counts as weak duality: rounding, not a refutation
WEAK_DUALITY_SLACK = 1e-9


def _check_control_lattice(lattice: PathLattice, control: ControlProcess):
    """StructuralError unless control is on a lattice of this grid, dimension and layout."""
    shapes = [(lat.grid, lat.dim, lat.mode) for lat in (control.lattice, lattice)]
    if shapes[0] != shapes[1]:
        raise StructuralError("control is on another lattice: %s, not %s" % tuple(shapes))


def dual_value(
    lattice: PathLattice,
    f: DriverSpec,
    xi: np.ndarray,
    control: ControlProcess,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list:
    """Candidate value process for one admissible control: its N+1 slices, at every node.

    xi is the terminal slice, terminal_values(lattice, phi) or the solve's
    own last slice; it becomes the candidate's last slice and is never
    written, so one array can serve every candidate of a solve.  A length
    other than the terminal node count, or a control on a lattice of another
    grid, dimension or layout, raises StructuralError.  One step
    back solves r = E^mu[R_{i+1} | node] - g(r, mu) dt, g the z-conjugate,
    with the backward solve's fixed point and bisection fallback, under its
    conditions (solver._check_problem, before anything is evaluated);
    ConvergenceError names the slice where both miss tol.  The conjugate is
    f.bound_conjugate: the declared closed form, else the search-based one.
    A NaN tilted expectation, conjugate or candidate value raises
    ConvergenceError naming the slice and node.  The conjugate of step i is
    taken at t_{i+1}, where the solve evaluates the driver, so a
    time-dependent driver's candidate is dual to its solve too.
    """
    n_iter = _check_problem(lattice, f, tol, max_iter)
    _check_control_lattice(lattice, control)
    control.check_admissible()
    n_leaves = lattice.node_count(lattice.steps)
    if np.shape(xi) != (n_leaves,):
        raise StructuralError(
            "terminal slice has shape %s for %d terminal nodes" % (np.shape(xi), n_leaves)
        )
    dt = lattice.grid.dt
    slices = [None] * (lattice.steps + 1)
    slices[lattice.steps] = xi
    r_next = xi

    def neg_conjugate(t, w, m):
        g = f.bound_conjugate(t, w, m)  # m's work once per slice
        return lambda y: -g(y)

    for i in range(lattice.steps - 1, -1, -1):
        e_mu = tilted_expectation(lattice, i, r_next, control.step_weights(i))
        _refuse_nan(e_mu, "dual step at slice %d: the tilted expectation", (i,))
        mu = control.slices[i]
        bind = _slice_driver(lattice, f, i, neg_conjugate)
        r = np.full_like(e_mu, -np.inf)
        g0 = bind(mu)(e_mu)  # -g at the mean
        _refuse_nan(g0, "dual step at slice %d: the conjugate", (i,))
        live = np.flatnonzero(np.isfinite(e_mu) & np.isfinite(g0))
        if live.size:
            r[live] = _implicit_step(
                bind(mu, live), lambda rows: bind(mu, live[rows]), e_mu[live], dt, tol, n_iter, i,
                fy_mean=g0[live],
            )[0]
        _refuse_nan(r, "dual step at slice %d: the candidate value", (i,))
        slices[i] = r
        r_next = r
    return slices


def optimal_control(sol: SolutionTriple, f: DriverSpec) -> ControlProcess:
    """Subgradient control mu*_i = a z-subgradient of the driver at (Y_i, Z_i).

    Raises OptimizerAdmissibilityError when some one-step weight 1 + mu.dW
    drops to zero or below, naming a step count at which the same tilt sizes
    would be admissible.
    """
    lat = sol.lattice

    slices = [
        _slice_driver(lat, f, i, f.bound_subgradient)(sol.Z[i])(sol.Y[i])
        for i in range(lat.steps)
    ]
    control = ControlProcess(lat, slices)
    margin = control.admissibility_margin()
    if margin <= 0.0:
        worst_l1 = max(float(np.max(_sum_columns(np.abs(s)))) for s in slices)
        required = int(math.floor(lat.grid.horizon * worst_l1 * worst_l1)) + 1
        raise OptimizerAdmissibilityError(
            "subgradient control drives a one-step weight to %.3g <= 0; "
            "the same tilt sizes fit on N >= %d steps" % (margin, required),
            required_steps=required,
        )
    return control


def random_admissible_control(
    lattice: PathLattice, rng: np.random.Generator, cap: float = math.inf
) -> ControlProcess:
    """Uniform random predictable control kept strictly admissible by scale.

    Component magnitudes stay below 0.9 / (d sqrt(dt)) so every one-step
    weight is at least 0.1; cap (> 0, else GridError) also bounds the sup norm.
    """
    if not cap > 0.0:  # NaN too, which min() would drop
        raise GridError("cap must be a number > 0, got %r" % (cap,))
    scale = min(0.9 / (lattice.dim * lattice.grid.sqrt_dt), cap)
    slices = [
        rng.uniform(-scale, scale, size=(lattice.node_count(i), lattice.dim))
        for i in range(lattice.steps)
    ]
    return ControlProcess(lattice, slices)


@dataclass
class DualityReport:
    root_primal: float
    root_dual: float
    root_gap: float
    min_gap: float
    max_gap: float
    margin: float

    @property
    def weakly_consistent(self) -> bool:
        return self.min_gap >= -WEAK_DUALITY_SLACK


def duality_gap(sol: SolutionTriple, candidate: list, control: ControlProcess) -> DualityReport:
    """Nodewise primal-minus-dual gaps; a min_gap below -WEAK_DUALITY_SLACK refutes weak duality.

    candidate is a list of N+1 slices on sol.lattice, as dual_value returns
    it; another count or node count, or a control on another lattice (as
    dual_value checks it), raises StructuralError.  A NaN gap
    anywhere makes min_gap and max_gap NaN, which is never weakly consistent.
    """
    candidate = _check_slices(sol.lattice, candidate, sol.lattice.steps + 1)
    _check_control_lattice(sol.lattice, control)
    min_gap, max_gap = difference_extremes(sol.Y, candidate)
    return DualityReport(
        root_primal=sol.y0,
        root_dual=float(candidate[0][0]),
        root_gap=sol.y0 - float(candidate[0][0]),
        min_gap=min_gap,
        max_gap=max_gap,
        margin=control.admissibility_margin(),
    )


def comparison_minimum(low: SolutionTriple, high: SolutionTriple) -> float:
    """min over nodes of high Y minus low Y (>= 0 when comparison applies); NaN if any is NaN."""
    return difference_extremes(high.Y, low.Y)[0]


def export_duality_csv(sol: SolutionTriple, candidate: list, control: ControlProcess, fileobj):
    """Rows node_id,primal,dual,gap,margin with node_id as slice:index, to a binary file.

    candidate and control are checked as duality_gap checks them.
    margin is the smallest one-step weight at the node's deciding step,
    empty on the last slice where no further step is taken.  Values take 17
    significant digits.  The slices stream through solver._write_rows one
    at a time, in blocks of rows that span slices, with the bytes of
    formatting every value on its own.
    """
    lat = sol.lattice
    candidate = _check_slices(lat, candidate, lat.steps + 1)
    _check_control_lattice(lat, control)
    fileobj.write(b"node_id,primal,dual,gap,margin\n")

    def slices():
        for i in range(lat.steps + 1):
            y, r = sol.Y[i], candidate[i]
            margins = control.step_weights(i).min(axis=1) if i < lat.steps else None
            yield [y, r, y - r, margins]

    _write_rows(fileobj, ":", slices())


def duality_summary(report: DualityReport) -> dict:
    return {**asdict(report), "weakly_consistent": report.weakly_consistent}
