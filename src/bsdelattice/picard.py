"""Explicit Picard iteration toward the implicit backward solution.

One sweep freezes the driver at the previous iterate and walks backward:

    Y^{p+1}_i = E[Y^{p+1}_{i+1} | node] + f(Y^p_i, Z^p_i) dt,

with Z^{p+1}_i read off the martingale projection of Y^{p+1}_{i+1}.  By
the tower property this is the martingale representation of the terminal
plus the frozen driver summed along each path: the driver sum up to slice i
is constant across a node's children, so it drops out of the projection.

The iteration stops when either the triple distance to the previous iterate
(value sup + control path-l2 + martingale sup) or the implicit-equation
residual of the new iterate drops strictly below tol.  The residual branch is
what lets driver-free problems finish after a single sweep.

One iterate is held, Y and Z, and a sweep overwrites it slice by slice; the
old slice becomes the difference dY_i = old - new, which the next slice down
reads.  The control and martingale distances are sups over paths, formed as
backward tails over each node's children, so they are exact on both lattice
layouts and need no path arrays:

    S_i = |dZ_i|^2 dt + max_c S_{i+1}[child c],                 dZ_l2 = sqrt(S_0)
    U_i = max(0, max_c (ddm_i[:, c] + U_{i+1}[child c])),       L_i likewise with min
    dM_sup = max(U_0, -L_0)

with S_N = U_N = L_N = 0 and ddm_i the orthogonal increments of (dY_{i+1},
dZ_i), the difference of the two iterates' dM on the step out of slice i.
U_i (L_i) is the largest (smallest) partial sum of ddm from node i onward,
so max(U_0, -L_0) is the sup over paths and times of |M^p - M^{p+1}|.  The
folds use np.maximum and np.minimum, so a NaN term makes its sup NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import DriverSpec, TerminalFunctional, _sq_norm
from .errors import ConvergenceError
from .lattice import PathLattice, _fold_columns, gather_children
from .probability import martingale_projection, orthogonal_increments
from .solver import (
    SolutionTriple,
    SolveInfo,
    _check_problem,
    _slice_driver,
    _write_table,
    terminal_values,
)


@dataclass
class PicardState:
    """The iterate after p sweeps: Y on slices 0..N, Z on slices 0..N-1."""

    p: int
    Y: list
    Z: list
    residual: float


@dataclass
class TraceRow:
    p: int
    dY_sup: float
    dZ_l2: float
    dM_sup: float

    @property
    def total(self) -> float:
        return self.dY_sup + self.dZ_l2 + self.dM_sup


@dataclass
class PicardResult:
    solution: SolutionTriple
    trace: list
    iterations: int

    @property
    def final_residual(self) -> float:
        return self.solution.info.residual_max


def zero_state(lattice: PathLattice) -> PicardState:
    Y = [np.zeros(lattice.node_count(i)) for i in range(lattice.steps + 1)]
    Z = [np.zeros((lattice.node_count(i), lattice.dim)) for i in range(lattice.steps)]
    return PicardState(p=0, Y=Y, Z=Z, residual=np.inf)


def _new_slice(lattice, f, i, y_next, y_old, z_old, sweep):
    """Slice i of a sweep: the new (y, z) and the worst implicit residual of y.

    y_next is the new slice i+1; the driver is frozen at the old (y_old,
    z_old).  Raises ConvergenceError naming the sweep and the slice when a
    residual is NaN.
    """
    dt = lattice.grid.dt
    mean, z = martingale_projection(lattice, i, y_next)
    bind = _slice_driver(lattice, f, i)
    y = mean + bind(z_old)(y_old) * dt
    # residual of the new iterate in the implicit one-step equation
    r = np.abs(y - mean - bind(z)(y) * dt)
    rmax = float(np.max(r))
    # the max is NaN iff a residual is; the node is searched for only then
    if math.isnan(rmax):
        raise ConvergenceError(
            "picard sweep %d: implicit residual is NaN at slice %d, first node %d"
            % (sweep, i, np.flatnonzero(np.isnan(r))[0]),
            residual=np.nan,
            iterations=sweep,
        )
    return y, z, rmax


def _tails(lattice, i, dy_next, dz, tails):
    """(S_i, U_i, L_i) from the differences dY_{i+1}, dZ_i and the tails of slice i+1.

    tails is None past the terminal slice, where all three are zero.
    """
    dz2 = _sq_norm(dz) * lattice.grid.dt
    ddm = orthogonal_increments(lattice, i, dy_next, dz)
    if tails is None:
        return dz2, _fold_columns(np.maximum, ddm), _fold_columns(np.minimum, ddm)
    s_next, u_next, l_next = tails
    # S >= 0, so the fold's 0.0 start leaves it unchanged
    s = dz2 + _fold_columns(np.maximum, gather_children(lattice, i, s_next))
    u = _fold_columns(np.maximum, ddm + gather_children(lattice, i, u_next))
    np.add(ddm, gather_children(lattice, i, l_next), out=ddm)
    return s, u, _fold_columns(np.minimum, ddm)


def picard_step(
    lattice: PathLattice, f: DriverSpec, xi: np.ndarray, state: PicardState
) -> TraceRow:
    """One backward sweep with the driver frozen at the previous iterate.

    Overwrites state with the new iterate, slice by slice, and returns the
    sweep's (value sup, control path-l2, martingale sup) distance to the
    previous one.  Each sup is NaN when any of its terms is, so a NaN never
    reads as close.
    """
    n = lattice.steps
    Y, Z = state.Y, state.Z
    dy_next = Y[n] - xi
    Y[n] = xi
    dy_sup = np.max(np.abs(dy_next))
    tails = None  # (S, U, L) of slice i+1; zero past the terminal slice
    resid = 0.0
    for i in range(n - 1, -1, -1):
        y, z, rmax = _new_slice(lattice, f, i, Y[i + 1], Y[i], Z[i], state.p + 1)
        resid = max(resid, rmax)
        # the old slices become the differences old - new
        dy = np.subtract(Y[i], y, out=Y[i])
        dz = np.subtract(Z[i], z, out=Z[i])
        Y[i], Z[i] = y, z
        dy_sup = np.maximum(dy_sup, np.max(np.abs(dy)))
        tails = _tails(lattice, i, dy_next, dz, tails)
        dy_next = dy
    state.p += 1
    state.residual = resid
    s, u, lo = tails
    # U_0 >= 0 >= L_0; abs() also turns a -0.0 tail into +0.0
    return TraceRow(
        p=state.p,
        dY_sup=float(dy_sup),
        dZ_l2=float(np.sqrt(s[0])),
        dM_sup=float(np.maximum(np.abs(u[0]), np.abs(lo[0]))),
    )


def picard_solve(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PicardResult:
    """Iterate from the zero triple until the stopping rule fires.

    Runs on both lattice layouts, under the solve's conditions on the driver
    and the terminal, checked by solver._check_problem before the terminal
    is evaluated.  Raises ConvergenceError when neither the triple distance
    nor the implicit residual gets strictly below tol within max_iter sweeps
    (a tol of 0 can never be reached and always exhausts the budget), and at
    once, naming the sweep and the slice, when a sweep's implicit residual
    is NaN.
    """
    _check_problem(lattice, f, tol, max_iter)
    xi = terminal_values(lattice, phi)
    state = zero_state(lattice)
    trace = []
    for _ in range(max_iter):
        row = picard_step(lattice, f, xi, state)
        trace.append(row)
        if row.total < tol or state.residual < tol:
            info = SolveInfo(
                iterations_max=state.p,
                residual_max=state.residual,
                driver_name=f.name,
                terminal_name=phi.name,
            )
            sol = SolutionTriple(lattice=lattice, Y=state.Y, Z=state.Z, info=info)
            return PicardResult(solution=sol, trace=trace, iterations=state.p)
    raise ConvergenceError(
        "picard iteration did not reach tol=%.3g in %d sweeps "
        "(last residual %.3g)" % (tol, max_iter, state.residual),
        residual=state.residual,
        iterations=max_iter,
    )


def export_picard_trace_csv(result: PicardResult, fileobj):
    """Rows p,dY_sup,dZ_l2,dM_sup, one per sweep, to a binary file."""
    rows = [(row.p, row.dY_sup, row.dZ_l2, row.dM_sup) for row in result.trace]
    _write_table(fileobj, ("p", "dY_sup", "dZ_l2", "dM_sup"), rows)
