"""Convex-dual certificates for backward solutions.

Every admissible predictable control mu induces a candidate value process:
terminal values unchanged, one step back the tilted conditional expectation
minus the driver's z-conjugate times dt.  The conjugate and the subgradient
of step i are taken at t_{i+1}, the time at which the solve evaluates the
driver.  Convexity of the driver makes every candidate a lower bound on the
solved value (weak duality); the subgradient control closes the gap when its
tilt keeps all one-step weights positive.
Its implicit step is the backward solve's (solver._implicit_step: fixed
point, bisection fallback) with the negated conjugate for the driver.

A conjugate value of +inf sends the candidate to -inf at that node, which
then propagates toward the root.  That is a legitimate (useless) candidate,
reported as is rather than raised.  A NaN is not: dual_value raises
ConvergenceError at the first slice that holds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import DriverSpec, TerminalFunctional, numeric_conjugate, subgradient
from .errors import ConvergenceError, OptimizerAdmissibilityError
from .lattice import PathLattice, _sum_columns
from .probability import (
    AdaptedProcess,
    ControlProcess,
    left_process,
    predictable_process,
    tilted_expectation,
)
from .solver import SolutionTriple, _implicit_step, _write_rows, check_step_size
from .solver import driver_context, terminal_values


def _conjugate_slice(f, t, w_ctx, y, mu):
    if f.analytic_conjugate is not None:
        return np.asarray(f.analytic_conjugate(t, w_ctx, y, mu), dtype=float)
    y_arr = np.broadcast_to(np.asarray(y, dtype=float), mu.shape[:-1])
    out = np.empty(mu.shape[:-1])
    flat_mu = mu.reshape(-1, mu.shape[-1])
    flat_y = y_arr.reshape(-1)
    for k in range(flat_mu.shape[0]):
        wk = None if w_ctx is None else w_ctx[k]
        out.reshape(-1)[k] = numeric_conjugate(f, t, wk, flat_y[k], flat_mu[k])
    return out


def _check_no_nan(values, i, what):
    bad = np.flatnonzero(np.isnan(values))
    if bad.size:
        raise ConvergenceError(
            "dual step at slice %d: %s is NaN at %d node(s), first node %d"
            % (i, what, bad.size, bad[0])
        )


def dual_value(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    control: ControlProcess,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> AdaptedProcess:
    """Candidate value process for one admissible control, at every node.

    One step back solves r = E^mu[R_{i+1} | node] - g(r, mu) dt, g the
    z-conjugate, with the backward solve's fixed point and bisection fallback;
    ConvergenceError names the slice where both miss tol.  The driver's
    closed-form conjugate is used when declared, the search-based one
    otherwise.  A NaN tilted expectation, conjugate or candidate value raises
    ConvergenceError naming the slice and node.  The conjugate of step i is
    taken at t_{i+1}, where the solve evaluates the driver, so a
    time-dependent driver's candidate is dual to its solve too.
    """
    check_step_size(f, lattice.grid)
    control.check_admissible()
    xi = terminal_values(lattice, phi)
    grid = lattice.grid
    dt = grid.dt
    slices = [None] * (grid.steps + 1)
    slices[grid.steps] = xi
    r_next = xi
    for i in range(grid.steps - 1, -1, -1):
        e_mu = tilted_expectation(lattice, i, r_next, control.step_weights(i))
        _check_no_nan(e_mu, i, "the tilted expectation")
        mu = control.process.slices[i]
        w_ctx = driver_context(lattice, f, i)
        t1 = grid.time(i + 1)
        if f.y_dependence == "none":
            g = _conjugate_slice(f, t1, w_ctx, np.zeros_like(e_mu), mu)
            r = e_mu - g * dt
        else:
            r = np.full_like(e_mu, -np.inf)
            g0 = _conjugate_slice(f, t1, w_ctx, e_mu, mu)
            _check_no_nan(g0, i, "the conjugate")
            live = np.isfinite(e_mu) & np.isfinite(g0)
            if live.any():
                wl = None if w_ctx is None else w_ctx[live]
                ml = mu[live]

                def fy_rows(rows):
                    w_rows = None if wl is None else wl[rows]
                    m_rows = ml[rows]
                    return lambda y: -_conjugate_slice(f, t1, w_rows, y, m_rows)

                fy = fy_rows(slice(None))
                el = e_mu[live]
                first = el - g0[live] * dt
                r[live] = _implicit_step(fy, fy_rows, el, first, dt, tol, max_iter, i)[0]
        _check_no_nan(r, i, "the candidate value")
        slices[i] = r
        r_next = r
    return left_process(lattice, slices)


def optimal_control(sol: SolutionTriple, f: DriverSpec) -> ControlProcess:
    """Subgradient control mu*_i = a z-subgradient of the driver at (Y_i, Z_i).

    Raises OptimizerAdmissibilityError when some one-step weight 1 + mu.dW
    drops to zero or below, naming a step count at which the same tilt sizes
    would be admissible.
    """
    lat = sol.lattice
    grid = lat.grid
    slices = []
    for i in range(lat.steps):
        y = sol.Y.slices[i]
        z = sol.Z.slices[i]
        w_ctx = driver_context(lat, f, i)
        t1 = grid.time(i + 1)
        if f.analytic_subgradient is not None:
            mu = np.asarray(f.analytic_subgradient(t1, w_ctx, y, z), dtype=float)
            mu = np.broadcast_to(mu, z.shape).copy()
        else:
            mu = np.empty_like(z)
            for k in range(z.shape[0]):
                wk = None if w_ctx is None else w_ctx[k]
                mu[k] = subgradient(f, t1, wk, float(y[k]), z[k], validate=False)
        slices.append(mu)
    control = ControlProcess(predictable_process(lat, slices))
    margin = control.admissibility_margin()
    if margin <= 0.0:
        worst_l1 = max(float(np.max(_sum_columns(np.abs(s)))) for s in slices)
        required = int(math.floor(grid.horizon * worst_l1 * worst_l1)) + 1
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
    weight is at least 0.1; cap further limits the sup norm.
    """
    scale = min(0.9 / (lattice.dim * lattice.grid.sqrt_dt), cap)
    slices = [
        rng.uniform(-scale, scale, size=(lattice.node_count(i), lattice.dim))
        for i in range(lattice.steps)
    ]
    return ControlProcess(predictable_process(lattice, slices))


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
        return self.min_gap >= -1e-9


def duality_gap(
    sol: SolutionTriple, candidate: AdaptedProcess, control: ControlProcess
) -> DualityReport:
    """Nodewise primal-minus-dual gaps; min_gap below -1e-9 would refute weak duality.

    A NaN gap anywhere makes min_gap and max_gap NaN, which is never weakly
    consistent.
    """
    gaps = [ys - rs for ys, rs in zip(sol.Y.slices, candidate.slices)]
    min_gap = float(np.min([np.min(g) for g in gaps]))
    max_gap = float(np.max([np.max(g) for g in gaps]))
    return DualityReport(
        root_primal=sol.y0,
        root_dual=float(candidate.slices[0][0]),
        root_gap=sol.y0 - float(candidate.slices[0][0]),
        min_gap=min_gap,
        max_gap=max_gap,
        margin=control.admissibility_margin(),
    )


def comparison_minimum(low: SolutionTriple, high: SolutionTriple) -> float:
    """min over nodes of high Y minus low Y (>= 0 when comparison applies); NaN if any is NaN."""
    return float(np.min([np.min(hi - lo) for lo, hi in zip(low.Y.slices, high.Y.slices)]))


def export_duality_csv(
    sol: SolutionTriple, candidate: AdaptedProcess, control: ControlProcess, fileobj
):
    """Rows node_id,primal,dual,gap,margin with node_id as slice:index.

    margin is the smallest one-step weight at the node's deciding step,
    empty on the last slice where no further step is taken.  Values take 17
    significant digits; each slice is written in blocks of rows, each distinct
    value of a block formatted once, with the bytes of formatting every value
    on its own.
    """
    fileobj.write("node_id,primal,dual,gap,margin\n")
    lat = sol.lattice
    for i in range(lat.steps + 1):
        y = sol.Y.slices[i]
        r = candidate.slices[i]
        margins = control.step_weights(i).min(axis=1) if i < lat.steps else None
        _write_rows(fileobj, "%d:" % i, [y, r, y - r, margins])


def duality_summary(report: DualityReport) -> dict:
    return {
        "root_primal": report.root_primal,
        "root_dual": report.root_dual,
        "root_gap": report.root_gap,
        "min_gap": report.min_gap,
        "max_gap": report.max_gap,
        "margin": report.margin,
        "weakly_consistent": report.weakly_consistent,
    }
