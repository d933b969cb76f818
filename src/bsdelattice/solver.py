"""Backward solver for the lattice dynamics, with bounds and exports.

One backward step from slice i+1 to slice i does two things: project the
known slice values onto their conditional mean and z (the martingale
projection), and solve the scalar implicit equation

    y = mean + fy(y) * dt,    fy(y) = fhat(t_{i+1}, w, y, z)

at every node.  z and w are fixed before the implicit step, so the driver is
bound to them once per slice (_slice_driver, DriverSpec.at) and the step
iterates y alone.  The slice loop is one generator, _backward_sweep, which
yields the slices from the terminal down to slice 0: solve_backward stores
them all, and the refinement study (approximation.refinement_experiment)
keeps only the latest, so it holds one slice per grid.  The stored solve
keeps Y and Z only: the orthogonal-martingale increment on each edge,
Y_{i+1} - mean - z . dW, is fixed by them and is recomputed on demand
(SolutionTriple.dm).  The driver argument w is the shifted path sampled at
grid times, known one step ahead, which is what makes the implicit equation
well-posed node by node.  _implicit_step is the one solver of that
equation, for the dual candidates too (with the negated conjugate for fy):
a Banach fixed point with a monotone-bisection fallback.

Also here: the closed-form z bound 2 sqrt(d) (L + K T) exp(K T), its
certificate at the lattice's step size (an admissibility margin and the
exponential domination of the discrete Gronwall envelope), and a BMO-style
tail estimate of the control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .drivers import DriverSpec, RunningFunctional, TerminalFunctional, average_driver
from .errors import ConvergenceError, StepSizeError, StructuralError
from .lattice import PathLattice, TimeGrid, _sum_columns, gather_children, shifted_grid_samples
from .probability import (
    AdaptedProcess,
    _choice_mean,
    conditional_expectation,
    left_process,
    martingale_projection,
    orthogonal_increments,
    predictable_process,
)


@dataclass
class SolveInfo:
    iterations_max: int = 0
    residual_max: float = 0.0
    bisection_nodes: int = 0
    driver_name: str = ""
    terminal_name: str = ""


@dataclass
class SolutionTriple:
    """Solved (Y, Z, dM) on a lattice, holding Y and Z.

    Y is a left process (value per node, slice N equals the terminal values);
    Z is predictable (per deciding node).  dm(i) forms the orthogonal-martingale
    increments per edge of the step out of slice i, shape (n_i, 2**d), from
    Y_{i+1} and the stored Z_i.  The cumulative M (with M_0 = 0) is
    materialized on demand in full-path mode.
    """

    lattice: PathLattice
    Y: AdaptedProcess
    Z: AdaptedProcess
    info: SolveInfo = field(default_factory=SolveInfo)

    def dm(self, i: int) -> np.ndarray:
        return orthogonal_increments(self.lattice, i, self.Y.slices[i + 1], self.Z.slices[i])

    @property
    def y0(self) -> float:
        return float(self.Y.slices[0][0])

    @property
    def M(self) -> AdaptedProcess:
        if self.lattice.mode != "full":
            raise StructuralError(
                "cumulative M is per path; not resolvable on a recombining lattice"
            )
        slices = [np.zeros(1)]
        for i in range(self.lattice.steps):
            slices.append(
                np.repeat(slices[-1], self.lattice.n_choices) + self.dm(i).ravel()
            )
        return left_process(self.lattice, slices)

    def z_sup(self) -> float:
        return float(np.max([np.sqrt(_sum_columns(s ** 2)).max() for s in self.Z.slices]))


def terminal_values(lattice: PathLattice, phi: TerminalFunctional) -> np.ndarray:
    if phi.markovian and phi.terminal_map is not None:
        xi = phi.terminal_map(lattice.walk_slice(lattice.steps))
    elif lattice.mode == "recombining":
        raise StructuralError(
            "recombining mode needs a terminal functional of the final value "
            "(markovian with terminal_map); %r is not" % (phi.name,)
        )
    elif isinstance(phi.evaluate, RunningFunctional):
        # forward over the walk slices; node k of slice j+1 extends node k // 2**d
        run = phi.evaluate
        state = run.init(lattice.walk_slice(0))
        for j in range(1, lattice.steps + 1):
            state = run.update(
                np.repeat(state, lattice.n_choices, axis=0), lattice.walk_slice(j)
            )
        xi = run.finish(state)
    else:
        xi = phi.evaluate(lattice.leaf_paths())
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (lattice.node_count(lattice.steps),):
        raise StructuralError(
            "terminal %r returned shape %r for %d leaves"
            % (phi.name, xi.shape, lattice.node_count(lattice.steps))
        )
    return xi


def driver_context(lattice: PathLattice, f: DriverSpec, i: int):
    """w argument for solving at slice i: shifted path samples on grid 0..i+1."""
    if not f.path_dependent:
        return None
    if lattice.mode != "full":
        raise StructuralError("path-dependent drivers need a full-path lattice")
    stride = lattice.n_choices ** (lattice.steps - i)
    return shifted_grid_samples(lattice.leaf_paths()[::stride, : i + 2, :])


def _slice_driver(lattice: PathLattice, f: DriverSpec, i: int):
    """The step-i average driver as a binder (z, rows) -> (y -> fhat as a float array).

    The binder fixes z and the slice's w; with rows it keeps only those
    nodes of both, so the bound function takes y on the rows alone.  A
    time-constant driver binds through its bound form f.at(t_{i+1}, w, z),
    so its z-only work runs once per bound z; a time-dependent one is
    averaged over the step (composite Simpson) on every call of the bound
    function.
    """
    grid = lattice.grid
    w_ctx = driver_context(lattice, f, i)
    t1 = grid.time(i + 1)

    def bind(z, rows=None):
        w = w_ctx
        if rows is not None:
            z = z[rows]
            w = None if w is None else w[rows]
        if not f.time_dependent:
            return f.at(t1, w, z)
        return lambda y: np.asarray(average_driver(f, grid, i, w, y, z), dtype=float)

    return bind


def check_step_size(f: DriverSpec, grid: TimeGrid):
    k = f.lipschitz_wy
    if k * grid.dt >= 1.0:
        n_min = int(math.floor(k * grid.horizon)) + 1
        raise StepSizeError(
            "K*dt = %.6g >= 1: the implicit step is not a contraction; "
            "use at least N = %d steps" % (k * grid.dt, n_min)
        )


def _backward_sweep(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    tol: float = 1e-12,
    max_iter: int = 200,
):
    """Yield the slices of the backward solve, terminal first, one at a time.

    Checks the step size and the recombining w-dependence, evaluates the
    terminal and yields (N, xi, None, 0, 0, 0.0); then, for i = N-1..0,
    yields (i, y, z, iterations, bisected nodes, worst residual) of slice i.
    Only the slice being solved and the slice it is solved from are held
    here, so a caller that keeps the latest y alone holds O(one slice).
    Kept private: perfbench/tracer.py wraps every public function, and the
    span of a wrapped generator would close before its body runs.
    """
    grid = lattice.grid
    check_step_size(f, grid)
    if lattice.mode == "recombining" and f.w_dependence != "none":
        raise StructuralError("recombining mode needs a w-independent driver")
    y_next = terminal_values(lattice, phi)
    yield grid.steps, y_next, None, 0, 0, 0.0
    dt = grid.dt
    n_iter = 1 if f.y_dependence == "none" else max_iter  # y-free: iterate 1 is exact
    for i in range(grid.steps - 1, -1, -1):
        mean, z = martingale_projection(lattice, i, y_next)
        bind = _slice_driver(lattice, f, i)
        fy = bind(z)
        y, iters, bisected, rmax = _implicit_step(
            fy, lambda rows: bind(z, rows), mean, mean + fy(mean) * dt, dt, tol, n_iter, i
        )
        yield i, y, z, iters, bisected, rmax
        y_next = y


def solve_backward(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SolutionTriple:
    """Solve the backward dynamics on the lattice; returns the triple with Y and Z.

    Requires K*dt < 1 so the per-node implicit equation is a contraction
    (StepSizeError otherwise, naming a sufficient N).  In recombining mode the
    driver must be w-independent and the terminal a function of the final
    value.  The fixed point is iterated to an implicit-equation residual below
    tol, with a monotone-bisection fallback; ConvergenceError reports the
    worst residual if both fail.
    """
    info = SolveInfo(driver_name=f.name, terminal_name=phi.name)
    y_slices = [None] * (lattice.steps + 1)
    z_slices = [None] * (lattice.steps + 1)  # the terminal slice decides no z
    for i, y, z, iters, bisected, rmax in _backward_sweep(lattice, f, phi, tol, max_iter):
        y_slices[i], z_slices[i] = y, z
        info.iterations_max = max(info.iterations_max, iters)
        info.bisection_nodes += bisected
        info.residual_max = float(np.maximum(info.residual_max, rmax))
    return SolutionTriple(
        lattice=lattice,
        Y=left_process(lattice, y_slices),
        Z=predictable_process(lattice, z_slices[:-1]),
        info=info,
    )


def _implicit_step(fy, fy_rows, mean, y, dt, tol, max_iter, i):
    """Solve y = mean + fy(y) dt nodewise at slice i from the first iterate y.

    fy is the slice's driver with z (and w) bound, a function of y alone;
    fy_rows(rows) is the same driver bound to the given nodes only.  Fixed
    point until a step is at most tol/4 or max_iter iterates are made, then
    bisection on the nodes whose residual |y - fy(y) dt - mean| is above tol;
    ConvergenceError names slice i if that misses tol too.  Returns (y,
    iterations, bisected nodes, worst residual), a NaN residual included.
    The array of the first iterate may be overwritten; arrays fy returns are
    only read.
    """
    iters = 1
    nxt = np.empty_like(y)
    diff = np.empty_like(y)
    while iters < max_iter:
        np.multiply(fy(y), dt, out=nxt)
        np.add(mean, nxt, out=nxt)
        iters += 1
        np.subtract(nxt, y, out=diff)
        step = np.abs(diff, out=diff).max()
        y, nxt = nxt, y
        if step <= 0.25 * tol:
            break
    resid = _residual(fy(y), mean, y, dt, diff)
    rmax = float(resid.max())
    if not rmax > tol:
        return y, iters, 0, rmax
    bad = np.flatnonzero(resid > tol)
    y[bad] = _bisect_nodes(fy_rows(bad), mean, dt, y, bad)
    rmax = float(_residual(fy(y), mean, y, dt, diff).max())
    if rmax > tol:
        raise ConvergenceError(
            "implicit step at slice %d failed to reach tol=%.3g "
            "(worst residual %.3g)" % (i, tol, rmax),
            residual=rmax,
            iterations=iters,
        )
    return y, iters, bad.size, rmax


def _residual(fv, mean, y, dt, out):
    """|y - fv dt - mean| into out."""
    np.multiply(fv, dt, out=out)
    np.subtract(y, out, out=out)
    np.subtract(out, mean, out=out)
    return np.abs(out, out=out)


def _bisect_nodes(fy, mean, dt, y_start, rows):
    """Monotone bisection for y - fy(y) dt = mean on the given rows.

    fy is the driver bound to the rows: it takes and returns values on the
    rows alone.  The map y -> y - fy(y) dt is strictly increasing under
    K dt < 1, so a sign change brackets the unique root; brackets expand
    geometrically from the fixed-point iterate.  Halving stops once a pass
    leaves both bracket ends unchanged (0.0 and -0.0 count as equal, a NaN
    end never moves), since every later pass would repeat it.
    """
    m = mean[rows]

    def h(yv):
        return yv - fy(yv) * dt - m

    lo = y_start[rows] - 1.0
    hi = y_start[rows] + 1.0
    for _ in range(80):
        need_lo = h(lo) > 0
        need_hi = h(hi) < 0
        if not (need_lo.any() or need_hi.any()):
            break
        span = hi - lo
        lo = np.where(need_lo, lo - span, lo)
        hi = np.where(need_hi, hi + span, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        to_lo = hm <= 0.0
        to_hi = hm > 0.0
        # mid replaces one end per row; a NaN mid makes hm NaN and moves none
        if not ((to_lo & (mid != lo)).any() or (to_hi & (mid != hi)).any()):
            break
        np.copyto(lo, mid, where=to_lo)
        np.copyto(hi, mid, where=to_hi)
    return 0.5 * (lo + hi)


# -- residual diagnostics ----------------------------------------------------


@dataclass
class ResidualReport:
    dynamics_max: float
    terminal_max: float
    dm_mean_max: float
    dm_orthogonality_max: float
    z_predictable: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.dynamics_max <= 1e-10
            and self.terminal_max == 0.0
            and self.dm_mean_max <= 1e-12
            and self.dm_orthogonality_max <= 1e-12
        )


def solution_residuals(sol: SolutionTriple, f: DriverSpec, phi: TerminalFunctional) -> ResidualReport:
    """Recompute the one-step dynamics residual and the structural identities.

    The dynamics residual is Y_{i+1} - Y_i + fhat dt - z . dW - dm per edge,
    with dm formed from Y_{i+1} and the stored Z; dm must have conditional
    mean zero and be orthogonal to every increment component.
    """
    lat = sol.lattice
    grid = lat.grid
    inc = lat.step_increments()
    dt = grid.dt
    worst, dm_mean, dm_orth = [], [], []
    for i in range(grid.steps):
        y = sol.Y.slices[i]
        z = sol.Z.slices[i]
        dm = sol.dm(i)
        v = gather_children(lat, i, sol.Y.slices[i + 1])
        fv = _slice_driver(lat, f, i)(z)(y)
        resid = v - y[:, None] + (fv * dt)[:, None] - z @ inc.T - dm
        worst.append(np.max(np.abs(resid)))
        dm_mean.append(np.max(np.abs(_choice_mean(dm))))
        for k in range(lat.dim):
            dm_orth.append(np.max(np.abs(_choice_mean(dm * inc[None, :, k]))))
    xi = terminal_values(lat, phi)
    term = float(np.max(np.abs(sol.Y.slices[-1] - xi)))
    # numpy folds: a NaN anywhere reaches the report and fails it
    return ResidualReport(
        dynamics_max=float(np.max(worst, initial=0.0)),
        terminal_max=term,
        dm_mean_max=float(np.max(dm_mean, initial=0.0)),
        dm_orthogonality_max=float(np.max(dm_orth, initial=0.0)),
    )


# -- bounds ------------------------------------------------------------------


def z_bound(L: float, K: float, T: float, d: int) -> float:
    """Closed-form control bound 2 sqrt(d) (L + K T) exp(K T)."""
    return 2.0 * math.sqrt(d) * (L + K * T) * math.exp(K * T)


def _selfref_envelope_dominated(A: float, B: float, grid: TimeGrid) -> bool:
    """Whether A prod_{j > i} (1 - B dt)^-1 stays below 2 A exp(B (T - t_i)) at every t_i.

    The product is the discrete Gronwall envelope of the z bound; False when
    B dt >= 1, where it is undefined.
    """
    dt = grid.dt
    if B * dt >= 1.0:
        return False
    n = grid.steps
    prod = 1.0
    ok = True
    for i in range(n - 1, -1, -1):
        prod /= 1.0 - B * dt
        if prod * A > 2.0 * A * math.exp(B * (grid.horizon - grid.time(i))) + 1e-15:
            ok = False
    return ok


@dataclass
class ZBoundCertificate:
    bound: float
    margin: float  # 1 - b(2*bound) sqrt(d) sqrt(dt), positive when usable
    applies: bool
    detail: str


def z_bound_certificate(
    f: DriverSpec, phi: TerminalFunctional, lattice: PathLattice
) -> ZBoundCertificate:
    """Whether the closed-form z bound is certified at this step size.

    Needs the terminal Lipschitz constant and the driver's z-envelope; the
    certificate holds when the admissibility margin at twice the bound is
    positive and the discrete envelope stays exponentially dominated.
    """
    if phi.lipschitz is None:
        return ZBoundCertificate(math.nan, math.nan, False, "terminal has no Lipschitz constant")
    if f.z_lipschitz is None:
        return ZBoundCertificate(math.nan, math.nan, False, "driver has no z envelope")
    L, K, T, d = phi.lipschitz, f.lipschitz_wy, lattice.grid.horizon, lattice.dim
    bound = z_bound(L, K, T, d)
    b = f.z_lipschitz(2.0 * bound)
    margin = 1.0 - b * math.sqrt(d) * lattice.grid.sqrt_dt
    dominated = _selfref_envelope_dominated(1.0, K, lattice.grid) if K > 0 else True
    applies = margin > 0.0 and dominated
    detail = "margin %.4g, envelope %s" % (margin, "dominated" if dominated else "not dominated")
    return ZBoundCertificate(bound=bound, margin=margin, applies=applies, detail=detail)


def bmo_estimate(sol: SolutionTriple) -> float:
    """max over nodes of E[sum_{j > i} |Z_j|^2 dt | node]."""
    lat = sol.lattice
    dt = lat.grid.dt
    tail = np.zeros(lat.node_count(lat.steps))
    worst = 0.0
    for i in range(lat.steps - 1, -1, -1):
        z2 = _sum_columns(sol.Z.slices[i] ** 2)
        tail = z2 * dt + conditional_expectation(lat, i, tail)
        worst = float(np.maximum(worst, tail.max()))
    return worst


# -- exports -----------------------------------------------------------------


# rows formatted per block: large enough that the per-block overhead vanishes,
# small enough that the block's formatted text stays a fraction of a MiB
_BLOCK_ROWS = 1024


def _write_rows(fileobj, prefix, columns):
    """Write rows 'prefix<k>,<col_1>,...,<col_m>' for k = 0..n-1, block by block.

    Each column is a 1-D array of length n, or None for an empty field; the
    first is never None.  Values take 17 significant digits ('%.17g', which
    round-trips every double and writes nan, inf and -0 as
    format(float(x), ".17g") does).  A block formats each distinct float64 bit
    pattern once, in one '%' pass, and its rows pick the strings up by index;
    keying on bits keeps 0.0 and -0.0 apart.
    """
    cols = [c for c in columns if c is not None]
    row = prefix + "%d" + "".join(",%s" if c is not None else "," for c in columns) + "\n"
    n = len(cols[0])
    for k0 in range(0, n, _BLOCK_ROWS):
        k1 = min(k0 + _BLOCK_ROWS, n)
        block = np.stack([c[k0:k1] for c in cols], dtype=np.float64)
        bits, inv = np.unique(block.view(np.uint64), return_inverse=True)
        text = ("%.17g\n" * bits.size) % tuple(bits.view(np.float64).tolist())
        fields = np.array(text.split("\n"), dtype=object)[inv.reshape(block.shape)]
        values = chain.from_iterable(zip(range(k0, k1), *fields.tolist()))
        fileobj.write((row * (k1 - k0)) % tuple(values))


def _dm_column(lat: PathLattice, i: int, dm: np.ndarray) -> np.ndarray:
    """dM on the edge into each node of slice i >= 1, by the rule export_solution_csv states.

    dm is the (n_{i-1}, 2**d) array of increments on the step into slice i.
    """
    if lat.mode == "full":
        return dm.ravel()
    n = lat.node_count(i)
    mag = np.abs(dm)
    ch = gather_children(lat, i - 1, np.arange(n))
    col = np.zeros(n)
    best = np.full(n, -1.0)
    # a node's incoming edges come from distinct parents, the lowest
    # choice from the last parent: sweep choices down, later edges win ties
    for c in range(lat.n_choices - 1, -1, -1):
        win = mag[:, c] >= best[ch[:, c]]
        best[ch[win, c]] = mag[win, c]
        col[ch[win, c]] = dm[win, c]
    return col


def export_solution_csv(sol: SolutionTriple, fileobj):
    """Write rows (time_index, node_id, Y, Z_1..Z_d, dM), 17 significant digits.

    Z on a row is the control decided at that node for the next step (empty on
    the last slice); dM is the orthogonal increment on the edge into the node
    (empty at the root).  On recombining lattices, where incoming edges are not
    unique, dM is the largest-magnitude incoming increment; ties go to the edge
    that comes last in (parent, choice) order, and NaN increments never win
    (a node whose incoming increments are all NaN reads 0).

    Each slice is written in blocks of rows, each distinct value of a block
    formatted once; the bytes are those of formatting every value with
    format(float(x), ".17g").
    """
    lat = sol.lattice
    d = lat.dim
    header = ["time_index", "node_id", "Y"] + ["Z_%d" % (k + 1) for k in range(d)] + ["dM"]
    fileobj.write(",".join(header) + "\n")
    for i in range(lat.steps + 1):
        z = sol.Z.slices[i] if i < lat.steps else None
        z_cols = [z[:, c] if z is not None else None for c in range(d)]
        dm_col = _dm_column(lat, i, sol.dm(i - 1)) if i > 0 else None
        _write_rows(fileobj, "%d," % i, [sol.Y.slices[i]] + z_cols + [dm_col])


def solution_summary(sol: SolutionTriple) -> dict:
    return {
        "y0": sol.y0,
        "z_sup": sol.z_sup(),
        "bmo": bmo_estimate(sol),
        "residual_max": sol.info.residual_max,
        "iterations_max": sol.info.iterations_max,
        "bisection_nodes": sol.info.bisection_nodes,
        "steps": sol.lattice.steps,
        "dim": sol.lattice.dim,
        "mode": sol.lattice.mode,
        "driver": sol.info.driver_name,
        "terminal": sol.info.terminal_name,
    }
