"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written without the package's array code:
plain dicts keyed by choice tuples, python floats, itertools enumeration.
Slow, small, and easy to audit by hand.  Among them are the paper's
continuous-time constructions that the package only ever samples: the
adapted shifted interpolation of the walk, which a path-dependent driver
reads at grid times, the per-path density of P^mu, whose ratios are the
tilted expectations a dual candidate is built from, and the continuous-time
limits of the quadratic driver |z|^2/2 in closed form (Cole-Hopf), which
the lattice solve approaches as N grows.

The exceptions come at the end: two CSV writers that keep the per-row,
per-value loops the exporters used before they wrote whole blocks of rows;
the block writer behind both exports must match their bytes.  They take
full-layout dM from whole slices (SolutionTriple.dm), which the exporter
forms per block, and the recombining dM column from solver._dm_column,
whose rule has its own brute-force test.  Last, the monotone bisection
with its fixed 200 halvings, against which the early-stopping one must
give the same bits, and the Picard distances as forward sums along every
full-layout path, against which the backward tails of the streamed sweep
are checked.
"""

import math
from itertools import product

import numpy as np

from bsdelattice.lattice import _sum_columns
from bsdelattice.probability import orthogonal_increments
from bsdelattice.solver import _dm_column


def signs(choice, dim):
    return tuple(1.0 if ((choice >> (dim - 1 - k)) & 1) == 0 else -1.0 for k in range(dim))


def walk_path(choices, dim, dt):
    s = math.sqrt(dt)
    path = [tuple(0.0 for _ in range(dim))]
    for c in choices:
        sg = signs(c, dim)
        path.append(tuple(path[-1][k] + s * sg[k] for k in range(dim)))
    return path


def shifted_samples(path):
    """Driver w argument: path delayed by one grid slot, zero first."""
    return [tuple(0.0 for _ in path[0])] + list(path[:-1])


def interpolate_linear(path, dt, t):
    """Piecewise-linear interpolation at time t of a walk path sampled every dt.

    path holds the walk at grid times 0, dt, ..., its length fixing how far it
    is known; ValueError when t lies on a step the path does not cover.
    """
    if t < -1e-12:
        raise ValueError("t=%r is negative" % (t,))
    if t <= 0.0:
        return tuple(path[0])
    j = max(int(math.ceil(t / dt - 1e-12)), 1)
    if j >= len(path):
        raise ValueError("a path known up to slice %d does not reach t=%r" % (len(path) - 1, t))
    theta = (t - (j - 1) * dt) / dt
    return tuple(a + theta * (b - a) for a, b in zip(path[j - 1], path[j]))


def interpolate_shifted(path, dt, t):
    """The adapted shift of the linear interpolation: zero for t <= dt, else its value at t - dt.

    It is known one step ahead of t, which is what a path-dependent driver
    may read when solving at the step ending at t.
    """
    if t <= dt:
        return tuple(0.0 for _ in path[0])
    return interpolate_linear(path, dt, t - dt)


def brute_solve(steps, dim, horizon, f, phi, tol=1e-15, max_iter=500):
    """Reference backward solve by full enumeration.

    f(t, w_samples, y, z_tuple) -> float where w_samples is the shifted path
    up to the evaluation slice; phi(path) -> float on the raw walk path.
    Returns dicts Y (node tuple -> value), Z, dm keyed by edges, plus y0.
    """
    dt = horizon / steps
    s = math.sqrt(dt)
    nchoice = 2 ** dim
    Y = {}
    for choices in product(range(nchoice), repeat=steps):
        Y[choices] = float(phi(walk_path(choices, dim, dt)))
    Z = {}
    dm = {}
    for i in range(steps - 1, -1, -1):
        t_next = (i + 1) * dt
        for node in product(range(nchoice), repeat=i):
            children = [Y[node + (c,)] for c in range(nchoice)]
            mean = sum(children) / nchoice
            z = tuple(
                sum(v * signs(c, dim)[k] * s for c, v in enumerate(children))
                / (nchoice * dt)
                for k in range(dim)
            )
            for c, v in enumerate(children):
                sg = signs(c, dim)
                dm[node + (c,)] = v - mean - sum(z[k] * sg[k] * s for k in range(dim))
            # driver argument: shifted path sampled at grid times 0..i+1,
            # i.e. a leading zero followed by the walk values known so far
            w = [tuple(0.0 for _ in range(dim))] + walk_path(node, dim, dt)
            y = mean
            for _ in range(max_iter):
                y_new = mean + f(t_next, w, y, z) * dt
                if abs(y_new - y) <= tol * (1.0 + abs(y_new)):
                    y = y_new
                    break
                y = y_new
            Y[node] = y
            Z[node] = z
    return {"Y": Y, "Z": Z, "dm": dm, "y0": Y[()]}


def node_index(choices, dim):
    idx = 0
    for c in choices:
        idx = idx * (2 ** dim) + c
    return idx


def leaf_density(choices, mu_slices, dim, dt):
    """Density of P^mu against the walk measure on one path: prod_j (1 + mu_j . dW_j).

    mu_slices[j] holds one control row per slice-j node, in the lattice's
    node order; the row at the path's slice-j prefix decides step j+1.
    """
    s = math.sqrt(dt)
    dens = 1.0
    for j, c in enumerate(choices):
        mu = mu_slices[j][node_index(choices[:j], dim)]
        dens *= 1.0 + sum(float(mu[k]) * sg * s for k, sg in enumerate(signs(c, dim)))
    return dens


def expectation_under(values_by_node, density_by_node, node, steps, dim):
    """E^mu[xi | node] as the density-weighted mean over the leaves below node."""
    num = mass = 0.0
    for tail in product(range(2 ** dim), repeat=steps - len(node)):
        leaf = tuple(node) + tail
        num += density_by_node[leaf] * values_by_node[leaf]
        mass += density_by_node[leaf]
    return num / mass


def conditional_mean(values_by_node, node, steps, dim):
    """E[xi | node] for leaf values keyed by full choice tuples."""
    nchoice = 2 ** dim
    depth = steps - len(node)
    total = 0.0
    for tail in product(range(nchoice), repeat=depth):
        total += values_by_node[tuple(node) + tail]
    return total / nchoice ** depth


def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def cole_hopf_clipped_endpoint():
    """(Y_0, Z_0) for f = |z|^2/2 and xi = clip(W_1, -1, 1), horizon 1.

    By Cole-Hopf exp(Y) is a martingale, so Y_0 = log E[exp xi], and Z_0 is
    the x-derivative of log E[exp clip(x + W_1)] at 0, that is
    E[e^xi 1{|W_1| < 1}] / E[e^xi].  On |x| < 1, e^x phi(x) = e^(1/2)
    phi(x - 1) with phi the standard normal density.
    """
    inner = math.exp(0.5) * (_normal_cdf(0.0) - _normal_cdf(-2.0))
    mass = (math.exp(-1.0) + math.exp(1.0)) * _normal_cdf(-1.0) + inner
    return math.log(mass), inner / mass


def cole_hopf_digital():
    """Y_0 = log E[exp 1{W_1 > 0}] = log((1 + e)/2) for f = |z|^2/2, horizon 1."""
    return math.log((1.0 + math.e) / 2.0)


def _fmt(x):
    return format(float(x), ".17g")


def per_row_solution_csv(sol, fileobj):
    """export_solution_csv one row and one value at a time."""
    lat = sol.lattice
    d = lat.dim
    header = ["time_index", "node_id", "Y"] + ["Z_%d" % (k + 1) for k in range(d)] + ["dM"]
    fileobj.write(",".join(header) + "\n")
    for i in range(lat.steps + 1):
        y = sol.Y[i]
        z = sol.Z[i] if i < lat.steps else None
        if i == 0:
            dm_col = None
        elif lat.mode == "full":
            dm_col = sol.dm(i - 1).ravel()
        else:
            dm_col = _dm_column(lat, i, sol.dm(i - 1))
        for k in range(y.shape[0]):
            row = [str(i), str(k), _fmt(y[k])]
            if z is not None:
                row += [_fmt(z[k, c]) for c in range(d)]
            else:
                row += [""] * d
            row.append(_fmt(dm_col[k]) if dm_col is not None else "")
            fileobj.write(",".join(row) + "\n")


def per_row_duality_csv(sol, candidate, control, fileobj):
    """export_duality_csv one row and one value at a time."""
    fileobj.write("node_id,primal,dual,gap,margin\n")
    lat = sol.lattice
    for i in range(lat.steps + 1):
        y = sol.Y[i]
        r = candidate[i]
        if i < lat.steps:
            margins = control.step_weights(i).min(axis=1)
        else:
            margins = None
        for k in range(y.shape[0]):
            row = [
                "%d:%d" % (i, k),
                _fmt(y[k]),
                _fmt(r[k]),
                _fmt(y[k] - r[k]),
                _fmt(margins[k]) if margins is not None else "",
            ]
            fileobj.write(",".join(row) + "\n")


def first_difference(got, want):
    """None when the two texts are equal, else (line number, got line, want line).

    Keeps failure reports short: pytest's own diff of two large CSV texts takes
    minutes.
    """
    a = got.splitlines(keepends=True)
    b = want.splitlines(keepends=True)
    for k in range(max(len(a), len(b))):
        la = a[k] if k < len(a) else None
        lb = b[k] if k < len(b) else None
        if la != lb:
            return k, la, lb
    return None


def bisect_nodes_fixed_halvings(fy, mean, dt, y_start, rows):
    """solver._bisect_nodes as it was before it stopped early: always 200 halvings.

    fy is the driver bound to the rows, as solver._bisect_nodes takes it.
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
        lo = np.where(hm <= 0.0, mid, lo)
        hi = np.where(hm > 0.0, mid, hi)
    return 0.5 * (lo + hi)


def picard_distances_by_paths(lattice, old, new):
    """(dY_sup, dZ_l2, dM_sup) between two Picard iterates, summed forward along every path.

    old and new carry Y (slices 0..N) and Z (slices 0..N-1) on a full-path
    lattice.  Each slice's terms are repeated out to its 2**d children, so
    the last pass holds one running sum per path; dM of each iterate is
    formed by orthogonal_increments.  Each sup is NaN when any term is.
    """
    dt = lattice.grid.dt
    nch = lattice.n_choices
    dy = float(np.max([np.max(np.abs(a - b)) for a, b in zip(old.Y, new.Y)]))
    acc = np.zeros(1)
    for i in range(lattice.steps):
        dz2 = _sum_columns((old.Z[i] - new.Z[i]) ** 2) * dt
        acc = np.repeat(acc + dz2, nch)
    dz = float(np.sqrt(np.max(acc)))
    cum = np.zeros(1)
    dmsup = 0.0
    for i in range(lattice.steps):
        dm_old = orthogonal_increments(lattice, i, old.Y[i + 1], old.Z[i])
        dm_new = orthogonal_increments(lattice, i, new.Y[i + 1], new.Z[i])
        cum = np.repeat(cum, nch) + (dm_old - dm_new).ravel()
        dmsup = float(np.maximum(dmsup, np.max(np.abs(cum))))
    return dy, dz, dmsup


def envelope_dominated_by_slices(B, grid):
    """Whether the discrete Gronwall envelope prod_{j > i} (1 - B dt)^-1 stays below
    2 exp(B (T - t_i)), checked at every t_i, the product built one division per slice."""
    dt = grid.dt
    if B * dt >= 1.0:
        return False
    prod = 1.0
    ok = True
    for i in range(grid.steps - 1, -1, -1):
        prod /= 1.0 - B * dt
        if prod > 2.0 * math.exp(B * (grid.horizon - grid.time(i))) + 1e-15:
            ok = False
    return ok
