"""Backward solver for the lattice dynamics, with bounds and exports.

One backward step from slice i+1 to slice i does two things: project the
known slice values onto their conditional mean and z (the martingale
projection), and solve the scalar implicit equation

    y = mean + fy(y) * dt,    fy(y) = f(t_{i+1}, w, y, z)

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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, RunningFunctional, TerminalFunctional, _norm, _sq_norm
from .errors import ConvergenceError, GridError, StepSizeError, StructuralError
from .lattice import PathLattice, TimeGrid, _child_windows, gather_children
from .probability import (
    _check_slices,
    _choice_mean,
    _orthogonal_remainder,
    conditional_expectation,
    martingale_projection,
    orthogonal_increments,
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

    Y is a list of N+1 slices (a value per node; slice N equals the terminal
    values); Z is a list of N slices of shape (n_i, d), the step-(i+1) value
    at its deciding node.  Both are checked on construction.  dm(i) forms
    the orthogonal-martingale increments per edge of the step out of slice
    i, shape (n_i, 2**d), from Y_{i+1} and the stored Z_i.
    """

    lattice: PathLattice
    Y: list
    Z: list
    info: SolveInfo = field(default_factory=SolveInfo)

    def __post_init__(self):
        self.Y = _check_slices(self.lattice, self.Y, self.lattice.steps + 1)
        self.Z = _check_slices(self.lattice, self.Z, self.lattice.steps)

    def dm(self, i: int) -> np.ndarray:
        return orthogonal_increments(self.lattice, i, self.Y[i + 1], self.Z[i])

    @property
    def y0(self) -> float:
        return float(self.Y[0][0])

    def z_sup(self) -> float:
        return float(np.max([_norm(s).max() for s in self.Z]))


# most path entries a whole-path terminal sees at once: paths are built per
# block of consecutive leaves, so no full (leaves, N+1, d) array is held
_PATH_BLOCK_ENTRIES = 2 ** 20


def _leaf_values(phi: TerminalFunctional, xi, n: int) -> np.ndarray:
    """phi's values as a float array; StructuralError unless there are n of them."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise StructuralError(
            "terminal %r returned shape %r for %d leaves" % (phi.name, xi.shape, n)
        )
    return xi


def terminal_values(lattice: PathLattice, phi: TerminalFunctional) -> np.ndarray:
    """The terminal on every slice-N node.

    A Markov terminal maps the final walk slice; otherwise (full layout
    only) a running evaluate goes forward over lattice.walk_slices, and a
    plain one is called on the paths of consecutive leaf blocks.  The
    lattice builds the slices on the way and holds none, so the terminal
    holds one walk slice at a time.
    """
    n = lattice.node_count(lattice.steps)
    if phi.markovian:
        xi = phi.terminal_map(lattice.walk_slice(lattice.steps))
    elif lattice.mode == "recombining":
        raise StructuralError(
            "recombining mode needs a terminal functional of the final value "
            "(one that declares terminal_map); %r is not" % (phi.name,)
        )
    elif isinstance(phi.evaluate, RunningFunctional):
        # forward over the walk slices; node k of slice j+1 extends node k // 2**d
        run = phi.evaluate
        walk = lattice.walk_slices()
        state = run.init(next(walk))
        for w in walk:
            state = run.update(np.repeat(state, lattice.n_choices, axis=0), w)
        xi = run.finish(state)
    else:
        block = max(1, _PATH_BLOCK_ENTRIES // ((lattice.steps + 1) * lattice.dim))
        parts = []
        for k in range(0, n, block):
            rows = np.arange(k, min(k + block, n))
            xi = phi.evaluate(lattice.paths(lattice.steps, rows))
            parts.append(_leaf_values(phi, xi, rows.size))
        xi = np.concatenate(parts)
    return _leaf_values(phi, xi, n)


def driver_context(lattice: PathLattice, f: DriverSpec, i: int):
    """w argument for solving at slice i: the path delayed one grid slot, on grid 0..i+1.

    The shifted interpolation at t_j is the walk at t_{j-1}, so w is a zero
    column followed by the node's path.
    """
    if not f.path_dependent:
        return None
    p = lattice.paths(i)
    return np.concatenate([np.zeros((p.shape[0], 1, lattice.dim)), p], axis=1)


def _slice_driver(lattice: PathLattice, f: DriverSpec, i: int, form=None):
    """The step-i binder (a, rows) -> form(t_{i+1}, w, a), w the slice's driver context.

    The only reader of t_{i+1} and driver_context: the solve, the dual and the
    subgradient control all evaluate step i at its end t_{i+1} and with the
    same w.  form defaults to the bound driver f.at(t, w, z), a function of y
    whose z-only work runs once per bound z; the dual passes its negated
    conjugate (a = mu), the control f.bound_subgradient.  With rows the
    binder keeps only those nodes of a and w, so the bound function takes y
    on the rows alone.
    """
    w_ctx = driver_context(lattice, f, i)
    t1 = lattice.grid.time(i + 1)
    form = f.at if form is None else form

    def bind(a, rows=None):
        w = w_ctx
        if rows is not None:
            a = a[rows]
            w = None if w is None else w[rows]
        return form(t1, w, a)

    return bind


# the implicit step's residual tolerance and iterate cap, for every caller that sets neither
DEFAULT_TOL, DEFAULT_MAX_ITER = 1e-12, 200


def _check_problem(lattice: PathLattice, f: DriverSpec, tol, max_iter: int) -> int:
    """Check the backward step's conditions before anything is evaluated; returns the iterate cap.

    GridError unless tol is a finite number >= 0 and max_iter >= 1;
    StepSizeError unless K is finite and K*dt < 1, the implicit step's
    contraction, naming a sufficient N; StructuralError for a w-dependent driver on the
    recombining layout.  A y-free driver gets one iterate, whose first is
    exact.  The solve, the dual and Picard each call it first.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise GridError("tol must be a finite number >= 0, got %r" % (tol,))
    if max_iter < 1:
        raise GridError("max_iter must be >= 1, got %r" % (max_iter,))
    k, grid = f.lipschitz_wy, lattice.grid
    if not math.isfinite(k):
        raise StepSizeError(
            "K = %r is not a finite number: no N makes the implicit step a contraction" % (k,)
        )
    if k * grid.dt >= 1.0:
        raise StepSizeError(
            "K*dt = %.6g >= 1: the implicit step is not a contraction; "
            "use at least N = %d steps" % (k * grid.dt, int(math.floor(k * grid.horizon)) + 1)
        )
    if lattice.mode == "recombining" and f.w_dependence != "none":
        raise StructuralError("recombining mode needs a w-independent driver")
    return 1 if f.y_dependence == "none" else max_iter


def _backward_sweep(lattice: PathLattice, f: DriverSpec, phi: TerminalFunctional, tol, max_iter):
    """Yield the slices of the backward solve, terminal first, one at a time.

    Checks the problem (_check_problem), evaluates the terminal and yields
    (N, xi, None, 0, 0, 0.0); then, for i = N-1..0, yields (i, y, z,
    iterations, bisected nodes, worst residual).  Only the slice being
    solved and the slice it is solved from are held here, so a caller that
    keeps the latest y alone holds O(one slice).  Kept private:
    perfbench/tracer.py wraps every public function, and the span of a
    wrapped generator would close before its body runs.
    """
    n_iter = _check_problem(lattice, f, tol, max_iter)
    grid = lattice.grid
    y_next = terminal_values(lattice, phi)
    yield grid.steps, y_next, None, 0, 0, 0.0
    for i in range(grid.steps - 1, -1, -1):
        mean, z = martingale_projection(lattice, i, y_next)
        bind = _slice_driver(lattice, f, i)
        y, iters, bisected, rmax = _implicit_step(
            bind(z), lambda rows: bind(z, rows), mean, grid.dt, tol, n_iter, i
        )
        yield i, y, z, iters, bisected, rmax
        y_next = y


def solve_backward(
    lattice: PathLattice,
    f: DriverSpec,
    phi: TerminalFunctional,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolutionTriple:
    """Solve the backward dynamics on the lattice; returns the triple with Y and Z.

    Requires a finite tol >= 0 and max_iter >= 1 (GridError otherwise) and
    K*dt < 1, so that the per-node implicit equation is a contraction
    (StepSizeError otherwise, naming a sufficient N).  In recombining mode
    the driver must be w-independent and the terminal a function of the
    final value.  The fixed point is iterated to an implicit-equation
    residual below tol, with a monotone-bisection fallback; ConvergenceError
    reports the worst residual if both fail.
    """
    info = SolveInfo(driver_name=f.name, terminal_name=phi.name)
    y_slices = [None] * (lattice.steps + 1)
    z_slices = [None] * (lattice.steps + 1)  # the terminal slice decides no z
    for i, y, z, iters, bisected, rmax in _backward_sweep(lattice, f, phi, tol, max_iter):
        y_slices[i], z_slices[i] = y, z
        info.iterations_max = max(info.iterations_max, iters)
        info.bisection_nodes += bisected
        info.residual_max = float(np.maximum(info.residual_max, rmax))
    return SolutionTriple(lattice=lattice, Y=y_slices, Z=z_slices[:-1], info=info)


def _implicit_step(fy, fy_rows, mean, dt, tol, max_iter, i):
    """Solve y = mean + fy(y) dt nodewise at slice i, from the first iterate mean + fy(mean) dt.

    fy is the slice's driver with z (and w) bound, a function of y alone;
    fy_rows(rows) is the same driver bound to the given nodes only.  Fixed
    point until a step is at most tol/4 or max_iter iterates are made, then
    bisection on the nodes whose residual |y - fy(y) dt - mean| is above tol;
    ConvergenceError names slice i if that misses tol too.  Returns (y,
    iterations, bisected nodes, worst residual), a NaN residual included.
    Arrays fy returns are only read.
    """
    y = mean + fy(mean) * dt
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


def _refuse_nan(values, where, args, **attrs) -> float:
    """values.max() as a float, one reduction that is NaN iff a value is.  Only on a NaN are
    the nodes searched, "<where % args> is NaN at <k> node(s), first node <j>" formatted and
    raised as ConvergenceError(message, **attrs); Picard's residual and each dual step use it."""
    top = float(values.max())
    if math.isnan(top):
        bad = np.flatnonzero(np.isnan(values))
        raise ConvergenceError(
            "%s is NaN at %d node(s), first node %d" % (where % args, bad.size, bad[0]), **attrs
        )
    return top


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

    The dynamics residual is Y_{i+1} - Y_i + f(t_{i+1}) dt - z . dW - dm per edge,
    with dm formed from Y_{i+1} and the stored Z; dm must have conditional
    mean zero and be orthogonal to every increment component.
    """
    lat = sol.lattice
    grid = lat.grid
    inc = lat.step_increments()
    dt = grid.dt
    worst, dm_mean, dm_orth = [], [], []
    for i in range(grid.steps):
        y, z = sol.Y[i], sol.Z[i]
        v = gather_children(lat, i, sol.Y[i + 1])
        zdw = z @ lat.dw_weights  # z . dW per edge
        dm = _orthogonal_remainder(v, zdw)  # sol.dm(i) from the one gather
        fv = _slice_driver(lat, f, i)(z)(y)
        resid = v - y[:, None] + (fv * dt)[:, None] - zdw - dm
        worst.append(np.max(np.abs(resid)))
        dm_mean.append(np.max(np.abs(_choice_mean(dm))))
        for k in range(lat.dim):
            dm_orth.append(np.max(np.abs(_choice_mean(dm * inc[None, :, k]))))
    xi = terminal_values(lat, phi)
    term = float(np.max(np.abs(sol.Y[-1] - xi)))
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


def _selfref_envelope_dominated(B: float, grid: TimeGrid) -> bool:
    """Whether prod_{j > i} (1 - B dt)^-1 stays below 2 exp(B (T - t_i)) at every t_i.

    The product is the discrete Gronwall envelope of the z bound; False when
    B dt >= 1, where it is undefined.  Their ratio ((1 - B dt)^-1 e^(-B dt))^n
    over n = N - i steps never decreases in n, so only t_0 can fail.
    """
    bdt = B * grid.dt
    return bdt < 1.0 and (1.0 - bdt) ** -grid.steps <= 2.0 * math.exp(B * grid.horizon) + 1e-15


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
    dominated = _selfref_envelope_dominated(K, lattice.grid) if K > 0 else True
    applies = margin > 0.0 and dominated
    detail = "margin %.4g, envelope %s" % (margin, "dominated" if dominated else "not dominated")
    return ZBoundCertificate(bound=bound, margin=margin, applies=applies, detail=detail)


def bmo_estimate(sol: SolutionTriple) -> float:
    """max over nodes of E[sum_{j > i} |Z_j|^2 dt | node]; NaN if any Z is.

    The tail starts at slice N-1 as |Z_{N-1}|^2 dt, the bits of adding it to
    the mean of a zero slice N, and no slice-N array is made.
    """
    lat = sol.lattice
    dt = lat.grid.dt
    tail = _sq_norm(sol.Z[-1]) * dt
    worst = float(np.maximum(0.0, tail.max()))
    for i in range(lat.steps - 2, -1, -1):
        tail = _sq_norm(sol.Z[i]) * dt + conditional_expectation(lat, i, tail)
        worst = float(np.maximum(worst, tail.max()))
    return worst


# -- exports -----------------------------------------------------------------


# '%.17g' of a double has at most 24 characters (a sign, 17 digits, the point
# and an exponent like e-308); a field is ',' and the number, NUL-padded to
# that width
_NUMBER_BYTES = 24
_FIELD = np.dtype("S%d" % (1 + _NUMBER_BYTES))
_FIELD_FORMAT = b",%%-%d.17g" % _NUMBER_BYTES
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")
# field bytes of one block, which set its rows: the byte matrix, its NUL mask
# and the text are each about this large, and the values, sort keys and
# indices add 8 bytes a field each.  Blocks of 4096 rows of 4 fields made a
# duality process 1.5 MiB larger.
_BLOCK_BYTES = 1 << 18
# node ids are written in groups of four digits
_GROUP = 10 ** 4


def _write_rows(fileobj, sep, slices):
    """Write the rows '<i><sep><k>,<col_1>,...,<col_m>' of every node k of every slice i.

    slices yields, for i = 0, 1, ..., slice i's m columns: 1-D arrays of the
    slice's length, objects that give such an array's rows k:stop when
    sliced (_EdgeRows), or None for an empty field; the first is an array.
    It is read one slice at a time, and a block of rows may span slices.
    Values take 17 significant digits ('%.17g', which round-trips every
    double and writes nan, inf and -0 as format(float(x), ".17g") does).  A
    block formats each distinct float64 bit pattern once, in one '%' pass,
    keying on bits so that 0.0 and -0.0 stay apart.  Its rows are then one
    uint8 matrix: the digits of i and k, the separators, the field bytes
    picked from a table by each value's index, and the newlines, with NUL
    wherever a number is shorter than its column or a field is empty.  i is
    written once per run of a slice's rows (_digits), and the node ids of a
    run as slices of a table of 4-digit groups (_put_node_ids), whatever
    their width.  Dropping the NULs leaves the block's bytes, written with
    one call to the binary file object fileobj.
    """
    values = None
    runs = []  # (first row, i, first node k, rows) of each slice's rows in the block
    filled = 0
    for i, columns in enumerate(slices):
        if values is None:
            block = max(1, _BLOCK_BYTES // (len(columns) * _FIELD.itemsize))
            values = np.empty((block, len(columns)))
            empty = np.empty((block, len(columns)), dtype=bool)
        n = columns[0].shape[0]
        k = 0
        while k < n:
            take = min(n - k, block - filled)
            rows = slice(filled, filled + take)
            runs.append((filled, i, k, take))
            for j, col in enumerate(columns):
                empty[rows, j] = col is None
                values[rows, j] = 0.0 if col is None else col[k : k + take]
            filled += take
            k += take
            if filled == block:
                fileobj.write(_block_text(sep, runs, values, empty))
                filled = 0
                runs = []
    if filled:
        fileobj.write(_block_text(sep, runs, values[:filled], empty[:filled]))


def _block_text(sep, runs, values, empty):
    """The NUL-free uint8 bytes of one block of rows; runs as in _write_rows."""
    n, m = values.shape
    bits, inv = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    # a field per distinct value, then one with ',' alone for the empty field
    fields = (_FIELD_FORMAT * bits.size + b"," + b" " * _NUMBER_BYTES) % tuple(
        bits.view(np.float64).tolist()
    )
    table = np.frombuffer(fields.translate(_SPACE_TO_NUL), dtype=_FIELD)
    inv = inv.reshape(n, m)
    np.copyto(inv, bits.size, where=empty)
    wt = len(str(runs[-1][1]))
    wk = len(str(max(k + take for _, _, k, take in runs) - 1))
    head = wt + 1 + wk
    mat = np.empty((n, head + m * _FIELD.itemsize + 1), dtype=np.uint8)
    for first, i, k, take in runs:
        rows = slice(first, first + take)
        mat[rows, :wt] = _digits(i, wt)
        _put_node_ids(mat[rows, wt + 1 : head], k)
    mat[:, wt] = ord(sep)
    # mode="clip" gathers straight into the matrix; "raise" would gather into a copy
    np.take(table, inv, out=mat[:, head:-1].view(_FIELD), mode="clip")
    mat[:, -1] = ord("\n")
    return mat[mat != 0]


@functools.cache
def _digit_groups():
    """uint8 (10**4, 4): row g holds g's four digits, its leading zeros as NUL.

    Row 0 is three NULs and '0'.  OR-ing a row with '0' (0x30, NUL is 0)
    gives g zero-padded.
    """
    g = np.arange(_GROUP, dtype=np.uint16)
    table = np.empty((_GROUP, 4), dtype=np.uint8)
    rest = g.copy()
    for j in range(3, -1, -1):
        table[:, j] = rest % 10 + ord("0")
        rest //= 10
    for j in range(3):
        table[g < 10 ** (3 - j), j] = 0
    return table


def _digits(v, width):
    """The digits of the integer 0 <= v < 10**width as uint8, right-aligned, NUL-padded.

    The one writer of a single integer: a run's time index, and the digits
    of a node id above its last four (_put_node_ids).
    """
    return np.frombuffer((b"%*d" % (width, v)).translate(_SPACE_TO_NUL), dtype=np.uint8)


def _put_node_ids(out, k):
    """The node ids k, k+1, ... into out's rows, right-aligned and NUL-padded to out's width.

    The one writer of a run's node ids, at any width.  Each piece of rows
    with one k // 10**4 takes its last min(width, 4) digits as columns of
    _digit_groups; where k // 10**4 is not 0 they are zero-padded, and the
    higher digits are one _digits string.
    """
    groups = _digit_groups()
    n, width = out.shape
    cols = min(width, 4)
    r = 0
    while r < n:
        high, low = divmod(k + r, _GROUP)
        take = min(n - r, _GROUP - low)
        piece = out[r : r + take]
        low_digits = groups[low : low + take, 4 - cols :]
        if high:
            np.bitwise_or(low_digits, ord("0"), out=piece[:, -cols:])
            piece[:, :-cols] = _digits(high, width - cols)
        else:
            piece[:, -cols:] = low_digits
            piece[:, :-cols] = 0
        r += take


def _dm_column(lat: PathLattice, i: int, dm: np.ndarray) -> np.ndarray:
    """dM on the edge into each node of recombining slice i >= 1, by export_solution_csv's rule.

    dm is the (n_{i-1}, 2**d) array of increments on the step into slice i.
    Each choice compares and copies on its children's window of the slice-i
    grid (lattice._child_windows).
    """
    col = np.zeros((i + 1,) * lat.dim)
    best = np.full(col.shape, -1.0)
    dm = dm.reshape((i,) * lat.dim + (lat.n_choices,))
    mag = np.abs(dm)
    # a node's incoming edges come from distinct parents, the lowest
    # choice from the last parent: sweep choices down, later edges win ties
    for c, view in reversed(list(enumerate(_child_windows(lat, i - 1)))):
        win = mag[..., c] >= best[view]
        np.copyto(best[view], mag[..., c], where=win)
        np.copyto(col[view], dm[..., c], where=win)
    return col.ravel()


class _EdgeRows:
    """Full-layout dM on the edges into slice i+1's nodes, formed per row range.

    Slicing rows k:stop returns those nodes' dM, the bits that
    orthogonal_increments gives: the z . dW product is its one BLAS call over
    the whole slice, and only the child mean and the subtraction run on the
    parents of the rows asked for, so no slice-sized dM column is made.
    """

    def __init__(self, lat: PathLattice, i: int, child_values: np.ndarray, z: np.ndarray):
        self.children = gather_children(lat, i, child_values)
        self.zdw = z @ lat.dw_weights

    def __getitem__(self, rows: slice) -> np.ndarray:
        m = self.children.shape[1]
        first, last = rows.start // m, -(-rows.stop // m)
        dm = _orthogonal_remainder(self.children[first:last], self.zdw[first:last])
        return dm.ravel()[rows.start - first * m : rows.stop - first * m]


def export_solution_csv(sol: SolutionTriple, fileobj):
    """Write rows (time_index, node_id, Y, Z_1..Z_d, dM) to a binary file, 17 significant digits.

    Z on a row is the control decided at that node for the next step (empty on
    the last slice); dM is the orthogonal increment on the edge into the node
    (empty at the root).  On recombining lattices, where incoming edges are not
    unique, dM is the largest-magnitude incoming increment; ties go to the edge
    that comes last in (parent, choice) order, and NaN increments never win
    (a node whose incoming increments are all NaN reads 0).

    The slices stream through _write_rows one at a time, and its blocks of
    rows span slices.  Full-layout dM is formed per block from the slice's
    z . dW product (_EdgeRows), recombining dM one slice at a time.  The
    bytes are those of formatting every value with format(float(x), ".17g").
    """
    lat = sol.lattice
    d = lat.dim
    header = ["time_index", "node_id", "Y"] + ["Z_%d" % (k + 1) for k in range(d)] + ["dM"]
    fileobj.write((",".join(header) + "\n").encode("ascii"))

    def slices():
        for i in range(lat.steps + 1):
            z = sol.Z[i] if i < lat.steps else None
            z_cols = [z[:, c] if z is not None else None for c in range(d)]
            if i == 0:
                dm_col = None
            elif lat.mode == "full":
                dm_col = _EdgeRows(lat, i - 1, sol.Y[i], sol.Z[i - 1])
            else:
                dm_col = _dm_column(lat, i, sol.dm(i - 1))
            yield [sol.Y[i]] + z_cols + [dm_col]

    _write_rows(fileobj, ",", slices())


def _write_table(fileobj, header, rows):
    """Header and rows to a binary file: a cell None empty, a str as is, an int '%d', else '%.17g'."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return ("%d" if isinstance(v, int) else "%.17g") % v

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    fileobj.write(("\n".join(lines) + "\n").encode("ascii"))


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
