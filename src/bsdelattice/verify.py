"""Verification harnesses: the walk conditions of a lattice and the declared driver properties.

verify_walk_conditions recomputes the walk's structure from a lattice, and
verify_driver_properties probes a driver's declared constants on random
samples.  Each returns a ConditionReport, which states every condition with
one call: check for a direct verdict, fold for the worst of many values.
str() of a report is the verify subcommand's output.  No other module
imports this one, so a process that does not verify never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, _norm
from .errors import GridError
from .lattice import PathLattice, gather_children


@dataclass
class ConditionCheck:
    name: str
    passed: object  # True/False, or None for conditions deferred to other suites
    detail: str
    deviation: float = 0.0


@dataclass
class ConditionReport:
    """Per-condition checks; str() prints one '<prefix>:<name> PASS|FAIL|SKIP' line per check."""

    prefix: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def failures(self):
        return [c for c in self.checks if c.passed is False]

    def check(self, name, passed, detail, deviation=0.0):
        """Record a direct verdict; passed is None for a deferred or undeclared condition."""
        passed = None if passed is None else bool(passed)
        self.checks.append(ConditionCheck(name, passed, detail, deviation))

    def fold(self, name, values, pick, ok, detail):
        """Record the worst of values under pick (np.max or np.min) and ok's verdict on it.

        A numpy fold from an initial value: a NaN value becomes the worst and
        fails ok.  detail is a format string; '{:.3g}' takes the worst.
        """
        worst = float(pick(values, initial=-np.inf if pick is np.max else np.inf))
        self.check(name, ok(worst), detail.format(worst), worst)

    def __str__(self):
        state = {True: "PASS", False: "FAIL", None: "SKIP"}
        return "\n".join("%s:%s %s" % (self.prefix, c.name, state[c.passed]) for c in self.checks)


def _moment_deviations(lattice: PathLattice, inc: np.ndarray):
    """Each slice mass's distance to 1, then each increment moment's distance to its target."""
    for i in range(lattice.steps + 1):
        p = lattice.slice_probabilities(i)
        yield abs(float(p.sum()) - 1.0)
        if np.any(p < 0):
            yield float(-p.min())
    for i in range(lattice.steps):
        if lattice.mode == "full":
            q = lattice.slice_probabilities(i + 1).reshape(-1, lattice.n_choices)
        else:
            # transition form: each parent spreads its mass evenly over choices
            even = np.full(lattice.n_choices, 1.0 / lattice.n_choices)
            q = np.outer(lattice.slice_probabilities(i), even)
        q = q.sum(axis=0)
        for k in range(lattice.dim):
            yield abs(float(q @ inc[:, k]))
            yield abs(float(q @ inc[:, k] ** 2) - lattice.grid.dt)
            for l in range(k + 1, lattice.dim):
                yield abs(float(q @ (inc[:, k] * inc[:, l])))


def verify_walk_conditions(lattice: PathLattice, tol: float = 1e-12) -> ConditionReport:
    """Check the walk-structure conditions on the lattice and report per condition.

    Increment moments are recomputed from the lattice's slice probabilities
    and child offsets from consecutive walk_slices, so a lattice whose
    measure or walk is corrupted, or NaN, fails here.  The vanishing-mesh
    limit condition cannot be checked at fixed N and is reported as deferred
    to the convergence suite.
    """
    grid = lattice.grid
    inc = lattice.step_increments()
    rep = ConditionReport("walk")
    times_ok = np.all(np.diff(grid.times) > 0) and grid.times[0] == 0.0
    rep.check(
        "grid",
        grid.dt > 0 and times_ok and abs(grid.times[-1] - grid.horizon) <= tol,
        "uniform dt=%.6g over [0, %g], %d steps" % (grid.dt, grid.horizon, grid.steps),
    )
    rep.check(
        "mesh-limit", None, "limit condition (N -> infinity); exercised by the convergence sweeps"
    )
    support = all(len(np.unique(inc[:, k])) == 2 for k in range(lattice.dim))
    rep.check("support", support, "each component takes the 2 values +-sqrt(dt)")
    rep.fold(
        "moments", list(_moment_deviations(lattice, inc)), np.max, lambda worst: worst <= tol,
        "slice masses 1, increment mean 0, second moment dt, cross moments 0 "
        "(worst deviation {:.3g})",
    )
    ratio = float(np.max(np.abs(inc))) / grid.sqrt_dt
    detail = "increment/sqrt(dt) ratio D = %g" % ratio
    rep.check("bounded", ratio <= 1.0 + tol, detail, abs(ratio - 1.0))
    # every gathered child sits one increment away from its parent; one
    # child-sized array per pair of consecutive walk slices
    devs = []
    for i, (parent, child) in enumerate(itertools.pairwise(lattice.walk_slices())):
        off = gather_children(lattice, i, child) - parent[:, None, :]
        off -= inc
        devs.append(np.max(np.abs(off, out=off)))
    # recombining walk values round relative to their size, up to N sqrt(dt)
    reach = 1.0 + lattice.steps * grid.sqrt_dt
    rep.fold(
        "children", devs, np.max, lambda worst: worst <= tol * reach,
        "child under choice c = parent + increment c (worst deviation {:.3g})",
    )
    return rep


# -- property verification ---------------------------------------------------


# probe box of verify_driver_properties: |y| and |z| radii, the length of a
# sampled path w, and the slack allowed on a Lipschitz margin
_PROBE_Y_RADIUS = 2.0
_PROBE_Z_RADIUS = 2.0
_PROBE_PATH_LENGTH = 4
_PROBE_SLACK = 1e-9


@dataclass
class SamplingPlan:
    """Randomized probe plan for verify_driver_properties."""

    samples: int = 256
    seed: int = 0
    dim: int = 1
    horizon: float = 1.0


def verify_driver_properties(f: DriverSpec, plan: SamplingPlan = None) -> ConditionReport:
    """Probe the declared driver properties on random samples; report per property.

    Checks midpoint convexity in z, the origin bound, the (w, y) Lipschitz
    constant, the local z-Lipschitz envelope at the plan radius, and the lower
    bound; undeclared constants are reported as not checkable.  plan defaults
    to SamplingPlan(); fewer than one sample raises GridError.
    """
    plan = plan or SamplingPlan()
    if plan.samples < 1:
        raise GridError("samples must be >= 1, got %r" % (plan.samples,))
    rng = np.random.default_rng(plan.seed)
    d, n = plan.dim, plan.samples
    ts = rng.uniform(0.0, plan.horizon, n)
    ys = rng.uniform(-_PROBE_Y_RADIUS, _PROBE_Y_RADIUS, (n, 2))
    zs = rng.uniform(-_PROBE_Z_RADIUS / math.sqrt(d), _PROBE_Z_RADIUS / math.sqrt(d), (n, 2, d))
    if f.w_dependence == "none":
        ws = wpairs = [None] * n
    else:
        ws = [rng.normal(0.0, 1.0, (_PROBE_PATH_LENGTH, d)) for _ in range(n)]
        wpairs = [rng.normal(0.0, 1.0, (_PROBE_PATH_LENGTH, d)) for _ in range(n)]

    z1, z2 = zs[:, 0], zs[:, 1]

    def ev(j, z, y=None, w=None):
        """f at sample j's time, and at its first y and its path unless y or w is given."""
        return float(f.evaluate(ts[j], ws[j] if w is None else w, ys[j, 0] if y is None else y, z))

    def wy_margin(j):
        dist = abs(ys[j, 0] - ys[j, 1])
        if ws[j] is not None:
            dist += float(np.max(np.abs(ws[j] - wpairs[j])))
        return abs(ev(j, z1[j]) - ev(j, z1[j], ys[j, 1], wpairs[j])) - f.lipschitz_wy * dist

    rep = ConditionReport("driver")
    mid = [ev(j, 0.5 * (z1[j] + z2[j])) - 0.5 * (ev(j, z1[j]) + ev(j, z2[j])) for j in range(n)]
    rep.fold("convex-z", mid, np.max, lambda m: m <= 1e-12, "midpoint convexity margin {:.3g}")
    if f.zero_bound is None:
        rep.check("origin-bound", None, "no origin bound declared")
    else:
        origin = [abs(ev(j, np.zeros(d), 0.0)) - f.zero_bound for j in range(n)]
        detail = "|f(t, w, 0, 0)| within %g (margin {:.3g})" % f.zero_bound
        rep.fold("origin-bound", origin, np.max, lambda m: m <= 1e-12, detail)
    detail = "constant %g (margin {:.3g})" % f.lipschitz_wy
    wy = [wy_margin(j) for j in range(n)]
    rep.fold("lipschitz-wy", wy, np.max, lambda m: m <= _PROBE_SLACK, detail)
    if f.z_lipschitz is None:
        rep.check("local-lipschitz-z", None, "no z envelope declared")
    else:
        b = f.z_lipschitz(_PROBE_Z_RADIUS)
        detail = "envelope b(%g)=%g (margin {:.3g})" % (_PROBE_Z_RADIUS, b)
        gaps = [
            abs(ev(j, z1[j]) - ev(j, z2[j])) - b * float(_norm(z1[j] - z2[j])) for j in range(n)
        ]
        rep.fold("local-lipschitz-z", gaps, np.max, lambda m: m <= _PROBE_SLACK, detail)
    if f.lower_bound is None:
        rep.check("lower-bound", None, "no lower bound declared")
    else:
        lb = f.lower_bound(_PROBE_Y_RADIUS)
        detail = "f >= %g on |y| <= %g (margin {:.3g})" % (lb, _PROBE_Y_RADIUS)
        low = [ev(j, z1[j]) - lb for j in range(n)]
        rep.fold("lower-bound", low, np.min, lambda m: m >= -1e-12, detail)
    return rep
