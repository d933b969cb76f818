"""Explicit Picard iteration toward the implicit backward solution.

One sweep freezes the driver at the previous iterate and walks backward:

    Y^{p+1}_i = E[Y^{p+1}_{i+1} | node] + f(Y^p_i, Z^p_i) dt,

with Z^{p+1}_i read off the martingale projection of Y^{p+1}_{i+1} and the
orthogonal increments formed from Y^{p+1}_{i+1} and Z^{p+1}_i.  By
the tower property this is the martingale representation of the terminal
plus the frozen driver summed along each path: the driver sum up to slice i
is constant across a node's children, so it drops out of the projection.

The iteration stops when either the triple distance to the previous iterate
(value sup + control path-l2 + martingale sup) or the implicit-equation
residual of the new iterate drops strictly below tol.  The residual branch is
what lets driver-free problems finish after a single sweep.

An iterate keeps its orthogonal increments, which the martingale distance
reads; the converged solution keeps Y and Z only.  The control and
martingale distances are sups over paths, so this module requires full-path
lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import DriverSpec, TerminalFunctional
from .errors import ConvergenceError, StructuralError
from .lattice import PathLattice, _sum_columns
from .probability import (
    left_process,
    martingale_projection,
    orthogonal_increments,
    predictable_process,
)
from .solver import (
    SolutionTriple,
    SolveInfo,
    _slice_driver,
    check_step_size,
    terminal_values,
)


@dataclass
class PicardState:
    p: int
    Y: list
    Z: list
    dm: list
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
    converged: bool = True

    @property
    def final_residual(self) -> float:
        return self.solution.info.residual_max


def zero_state(lattice: PathLattice) -> PicardState:
    Y = [np.zeros(lattice.node_count(i)) for i in range(lattice.steps + 1)]
    Z = [np.zeros((lattice.node_count(i), lattice.dim)) for i in range(lattice.steps)]
    dm = [
        np.zeros((lattice.node_count(i), lattice.n_choices))
        for i in range(lattice.steps)
    ]
    return PicardState(p=0, Y=Y, Z=Z, dm=dm, residual=np.inf)


def picard_step(
    lattice: PathLattice, f: DriverSpec, xi: np.ndarray, state: PicardState
) -> PicardState:
    """One backward sweep with the driver frozen at the previous iterate."""
    dt = lattice.grid.dt
    n = lattice.steps
    Y = [None] * (n + 1)
    Z = [None] * n
    dm = [None] * n
    Y[n] = xi
    resid = 0.0
    for i in range(n - 1, -1, -1):
        mean, Z[i] = martingale_projection(lattice, i, Y[i + 1])
        dm[i] = orthogonal_increments(lattice, i, Y[i + 1], Z[i])
        bind = _slice_driver(lattice, f, i)
        Y[i] = mean + bind(state.Z[i])(state.Y[i]) * dt
        # residual of the new iterate in the implicit one-step equation
        r = np.abs(Y[i] - mean - bind(Z[i])(Y[i]) * dt)
        bad = np.flatnonzero(np.isnan(r))
        if bad.size:
            raise ConvergenceError(
                "picard sweep %d: implicit residual is NaN at slice %d, first node %d"
                % (state.p + 1, i, bad[0]),
                residual=np.nan,
                iterations=state.p + 1,
            )
        resid = max(resid, float(np.max(r)))
    return PicardState(p=state.p + 1, Y=Y, Z=Z, dm=dm, residual=resid)


def iteration_distance(lattice: PathLattice, old: PicardState, new: PicardState):
    """(value sup, control path-l2, martingale sup) distance between iterates.

    Each sup is NaN when any of its terms is, so a NaN never reads as close.
    """
    dt = lattice.grid.dt
    nch = lattice.n_choices
    dy = float(np.max([np.max(np.abs(a - b)) for a, b in zip(old.Y, new.Y)]))
    acc = np.zeros(1)
    for i in range(lattice.steps):
        dz2 = _sum_columns((old.Z[i] - new.Z[i]) ** 2) * dt
        acc = np.repeat(acc + dz2, nch)
    dz = float(np.sqrt(np.max(acc))) if lattice.steps else 0.0
    cum = np.zeros(1)
    dmsup = 0.0
    for i in range(lattice.steps):
        cum = np.repeat(cum, nch) + (old.dm[i] - new.dm[i]).ravel()
        dmsup = float(np.maximum(dmsup, np.max(np.abs(cum))))
    return dy, dz, dmsup


def picard_solve(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    tol: float = 1e-10,
    max_p: int = 200,
) -> PicardResult:
    """Iterate from the zero triple until the stopping rule fires.

    Raises ConvergenceError when neither the triple distance nor the implicit
    residual gets strictly below tol within max_p sweeps (a tol of 0 can
    never be reached and always exhausts the budget), and at once, naming
    the sweep and the slice, when a sweep's implicit residual is NaN.
    """
    if lattice.mode != "full":
        raise StructuralError("picard iteration needs a full-path lattice")
    check_step_size(f, lattice.grid)
    xi = terminal_values(lattice, phi)
    state = zero_state(lattice)
    trace = []
    for _ in range(max_p):
        new = picard_step(lattice, f, xi, state)
        dy, dz, dmsup = iteration_distance(lattice, state, new)
        trace.append(TraceRow(p=new.p, dY_sup=dy, dZ_l2=dz, dM_sup=dmsup))
        state = new
        if dy + dz + dmsup < tol or new.residual < tol:
            info = SolveInfo(
                iterations_max=new.p,
                residual_max=new.residual,
                driver_name=f.name,
                terminal_name=phi.name,
            )
            sol = SolutionTriple(
                lattice=lattice,
                Y=left_process(lattice, state.Y),
                Z=predictable_process(lattice, state.Z),
                info=info,
            )
            return PicardResult(solution=sol, trace=trace, iterations=new.p)
    raise ConvergenceError(
        "picard iteration did not reach tol=%.3g in %d sweeps "
        "(last residual %.3g)" % (tol, max_p, state.residual),
        residual=state.residual,
        iterations=max_p,
    )


def export_picard_trace_csv(result: PicardResult, fileobj):
    fileobj.write("p,dY_sup,dZ_l2,dM_sup\n")
    for row in result.trace:
        fileobj.write(
            "%d,%.17g,%.17g,%.17g\n" % (row.p, row.dY_sup, row.dZ_l2, row.dM_sup)
        )
