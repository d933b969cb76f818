"""Verification harnesses: the walk conditions of a lattice and the declared driver properties.

verify_walk_conditions recomputes the walk's structure from a lattice, and
verify_driver_properties probes a driver's declared constants on random
samples.  Each returns a ConditionReport of per-condition checks, which the
verify subcommand prints.  No other module imports this one, so a process
that does not verify never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, _norm
from .lattice import PathLattice, gather_children


# -- condition reports and the walk conditions ------------------------------


@dataclass
class ConditionCheck:
    name: str
    passed: object  # True/False, or None for conditions deferred to other suites
    detail: str
    deviation: float = 0.0


@dataclass
class ConditionReport:
    """Per-condition checks; str() prints one status line per check under title."""

    checks: list = field(default_factory=list)
    title: str = ""
    label_width: int = 10

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def failures(self):
        return [c for c in self.checks if c.passed is False]

    def __str__(self):
        lines = [self.title] if self.title else []
        for c in self.checks:
            status = {True: "pass", False: "FAIL", None: "n/a "}[c.passed]
            lines.append("%s %-*s %s" % (status, self.label_width, c.name, c.detail))
        return "\n".join(lines)


def verify_walk_conditions(lattice: PathLattice, tol: float = 1e-12) -> ConditionReport:
    """Check the walk-structure conditions on the lattice and report per condition.

    Increment moments are recomputed from the lattice's slice probabilities
    and child offsets from consecutive walk_slices, so a lattice whose
    measure or walk is corrupted fails here.  The vanishing-mesh limit
    condition cannot be checked at fixed N and is reported as deferred to
    the convergence suite.
    """
    grid = lattice.grid
    rep = ConditionReport()
    times = grid.times

    dt_ok = grid.dt > 0 and np.all(np.diff(times) > 0)
    end_ok = times[0] == 0.0 and abs(times[-1] - grid.horizon) <= tol
    rep.checks.append(
        ConditionCheck(
            "grid",
            bool(dt_ok and end_ok),
            "uniform dt=%.6g over [0, %g], %d steps" % (grid.dt, grid.horizon, grid.steps),
        )
    )

    rep.checks.append(
        ConditionCheck(
            "mesh-limit",
            None,
            "limit condition (N -> infinity); exercised by the convergence sweeps",
        )
    )

    inc = lattice.step_increments()
    support_ok = all(len(np.unique(inc[:, k])) == 2 for k in range(lattice.dim))
    rep.checks.append(
        ConditionCheck(
            "support",
            bool(support_ok),
            "each component takes the 2 values +-sqrt(dt)",
        )
    )

    worst = 0.0
    for i in range(lattice.steps + 1):
        p = lattice.slice_probabilities(i)
        worst = max(worst, abs(float(p.sum()) - 1.0))
        if np.any(p < 0):
            worst = max(worst, float(-p.min()))
    for i in range(lattice.steps):
        p = lattice.slice_probabilities(i)
        if lattice.mode == "full":
            q = lattice.slice_probabilities(i + 1).reshape(-1, lattice.n_choices)
        else:
            # transition form: each parent spreads its mass evenly over choices
            q = np.outer(p, np.full(lattice.n_choices, 1.0 / lattice.n_choices))
        for k in range(lattice.dim):
            mean_k = float(q.sum(axis=0) @ inc[:, k])
            m2_k = float(q.sum(axis=0) @ inc[:, k] ** 2)
            worst = max(worst, abs(mean_k), abs(m2_k - grid.dt))
            for l in range(k + 1, lattice.dim):
                worst = max(worst, abs(float(q.sum(axis=0) @ (inc[:, k] * inc[:, l]))))
    rep.checks.append(
        ConditionCheck(
            "moments",
            bool(worst <= tol),
            "slice masses 1, increment mean 0, second moment dt, cross moments 0 "
            "(worst deviation %.3g)" % worst,
            worst,
        )
    )

    ratio = float(np.max(np.abs(inc))) / grid.sqrt_dt
    rep.checks.append(
        ConditionCheck(
            "bounded",
            bool(ratio <= 1.0 + tol),
            "increment/sqrt(dt) ratio D = %g" % ratio,
            abs(ratio - 1.0),
        )
    )

    # every gathered child sits one increment away from its parent (np.max keeps
    # NaN); one child-sized array per pair of consecutive walk slices
    devs = []
    for i, (parent, child) in enumerate(itertools.pairwise(lattice.walk_slices())):
        off = gather_children(lattice, i, child) - parent[:, None, :]
        off -= inc
        devs.append(np.max(np.abs(off, out=off)))
    worst = float(np.max(devs))
    # recombining walk values round relative to their size, up to N sqrt(dt)
    reach = 1.0 + lattice.steps * grid.sqrt_dt
    rep.checks.append(
        ConditionCheck(
            "children",
            bool(worst <= tol * reach),
            "child under choice c = parent + increment c (worst deviation %.3g)" % worst,
            worst,
        )
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


def verify_driver_properties(f: DriverSpec, plan: SamplingPlan = SamplingPlan()) -> ConditionReport:
    """Probe the declared driver properties on random samples; report per property.

    Checks midpoint convexity in z, the origin bound, the (w, y) Lipschitz
    constant, the local z-Lipschitz envelope at the plan radius, and the lower
    bound; undeclared constants are reported as not checkable.
    """
    rng = np.random.default_rng(plan.seed)
    rep = ConditionReport(title="driver %s" % f.name, label_width=18)
    d = plan.dim
    n = plan.samples

    ts = rng.uniform(0.0, plan.horizon, n)
    ys = rng.uniform(-_PROBE_Y_RADIUS, _PROBE_Y_RADIUS, (n, 2))
    zs = rng.uniform(-_PROBE_Z_RADIUS / math.sqrt(d), _PROBE_Z_RADIUS / math.sqrt(d), (n, 2, d))
    if f.w_dependence == "none":
        ws = [None] * n
        wpairs = [None] * n
    else:
        ws = [rng.normal(0.0, 1.0, (_PROBE_PATH_LENGTH, d)) for _ in range(n)]
        wpairs = [rng.normal(0.0, 1.0, (_PROBE_PATH_LENGTH, d)) for _ in range(n)]

    def ev(t, w, y, z):
        return float(f.evaluate(t, w, y, z))

    # numpy folds: a NaN sample reaches the margin and fails the check
    margins = []
    for j in range(n):
        z1, z2 = zs[j, 0], zs[j, 1]
        mid = ev(ts[j], ws[j], ys[j, 0], 0.5 * (z1 + z2))
        avg = 0.5 * (ev(ts[j], ws[j], ys[j, 0], z1) + ev(ts[j], ws[j], ys[j, 0], z2))
        margins.append(mid - avg)
    worst = np.max(margins, initial=-np.inf)
    rep.checks.append(
        ConditionCheck(
            "convex-z",
            bool(worst <= 1e-12),
            "midpoint convexity margin %.3g" % worst,
            float(worst),
        )
    )

    if f.zero_bound is None:
        rep.checks.append(ConditionCheck("origin-bound", None, "no origin bound declared"))
    else:
        worst = np.max(
            [abs(ev(ts[j], ws[j], 0.0, np.zeros(d))) - f.zero_bound for j in range(n)],
            initial=-np.inf,
        )
        rep.checks.append(
            ConditionCheck(
                "origin-bound",
                bool(worst <= 1e-12),
                "|f(t, w, 0, 0)| within %g (margin %.3g)" % (f.zero_bound, worst),
                float(worst),
            )
        )

    margins = []
    for j in range(n):
        z1 = zs[j, 0]
        f1 = ev(ts[j], ws[j], ys[j, 0], z1)
        f2 = ev(ts[j], wpairs[j], ys[j, 1], z1)
        dist = abs(ys[j, 0] - ys[j, 1])
        if ws[j] is not None:
            dist += float(np.max(np.abs(ws[j] - wpairs[j])))
        margins.append(abs(f1 - f2) - f.lipschitz_wy * dist)
    worst = np.max(margins, initial=-np.inf)
    rep.checks.append(
        ConditionCheck(
            "lipschitz-wy",
            bool(worst <= _PROBE_SLACK),
            "constant %g (margin %.3g)" % (f.lipschitz_wy, worst),
            float(worst),
        )
    )

    if f.z_lipschitz is None:
        rep.checks.append(ConditionCheck("local-lipschitz-z", None, "no z envelope declared"))
    else:
        b = f.z_lipschitz(_PROBE_Z_RADIUS)
        margins = []
        for j in range(n):
            z1, z2 = zs[j, 0], zs[j, 1]
            gap = abs(ev(ts[j], ws[j], ys[j, 0], z1) - ev(ts[j], ws[j], ys[j, 0], z2))
            margins.append(gap - b * float(_norm(z1 - z2)))
        worst = np.max(margins, initial=-np.inf)
        rep.checks.append(
            ConditionCheck(
                "local-lipschitz-z",
                bool(worst <= _PROBE_SLACK),
                "envelope b(%g)=%g (margin %.3g)" % (_PROBE_Z_RADIUS, b, worst),
                float(worst),
            )
        )

    if f.lower_bound is None:
        rep.checks.append(ConditionCheck("lower-bound", None, "no lower bound declared"))
    else:
        lb = f.lower_bound(_PROBE_Y_RADIUS)
        worst = np.min(
            [ev(ts[j], ws[j], ys[j, 0], zs[j, 0]) - lb for j in range(n)], initial=np.inf
        )
        rep.checks.append(
            ConditionCheck(
                "lower-bound",
                bool(worst >= -1e-12),
                "f >= %g on |y| <= %g (margin %.3g)" % (lb, _PROBE_Y_RADIUS, worst),
                float(worst),
            )
        )
    return rep
