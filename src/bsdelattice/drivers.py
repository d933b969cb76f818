"""Driver and terminal specifications, their convex-analysis operations, and catalogs.

A driver is the generator f(t, w, y, z), convex in z, handed to the backward
solver; a terminal functional maps a whole walk path to the terminal value.
Both are declared together with the constants the verification harness needs:
Lipschitz constant in (path, y), bound at the origin, local z-Lipschitz
envelope, optional lower bound, and (when known) the closed-form convex
conjugate in z and a subgradient selection.

Conventions
-----------
* evaluate(t, w, y, z): y has shape (...,) or is scalar, z has shape (..., d);
  w is None for w-independent drivers, otherwise the shifted path sampled at
  grid times, shape (..., m, d).  Catalog drivers vectorize over the leading
  axes.
* terminal evaluate(paths): paths has shape (..., steps+1, d) holding the raw
  walk values at grid times; Markov terminals also expose terminal_map acting
  on the final value only, which is what recombining mode uses.
* a terminal evaluate may be a RunningFunctional, a forward recursion over
  the walk values w_0, ..., w_N.  Its state keeps the leading path (or node)
  axis, one entry per path, so repeating the state per child block carries
  it from one full-layout slice to the next: the solver then evaluates it
  slice by slice without building paths.
* bound form: f.at(t, w, z) is the driver with (t, w, z) fixed, a function
  y -> f(t, w, y, z) as a float array.  The backward solve binds z once per
  slice, since z is fixed there before the implicit step iterates y.  A
  driver may declare fix_z(t, w, z) -> (y -> array) doing its z-only work
  once per binding, with the bits of evaluate; without it, at calls
  evaluate on every y.  fix_mu(t, w, mu) does the same for the conjugate.
* conjugate(f, t, w, y, mu) returns +inf as the "unbounded" marker; it is a
  value, not an error, and propagates through the dual machinery.

Catalog names (CLI syntax): zero, constant:c, linear:a,b, quadratic, quartic,
abs, exp; terminals endpoint, const:c, maxpath, digital, clipped-endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import GridError, ValidationError
from .lattice import ConditionCheck, ConditionReport, _sum_columns

_UNBOUNDED_DOUBLINGS = 3


@dataclass
class DriverSpec:
    """A generator f(t, w, y, z) with its declared constants.

    lipschitz_wy is the joint Lipschitz constant in (w, y) under the sup-norm
    on paths; z_lipschitz maps a radius a to a Lipschitz constant of f in z on
    |z| <= a; lower_bound maps a radius c to inf f over |y| <= c (both None
    when not declared).  y_dependence is 'none' for a y-independent driver,
    whose solve and dual steps are then explicit; any other value (the
    catalog uses 'general') marks a driver that may read y.  fix_z(t, w, z), when
    declared, returns y -> f(t, w, y, z) with the z-only work done once; it
    must give evaluate's bits (see at).  fix_mu(t, w, mu), when declared,
    returns y -> analytic_conjugate(t, w, y, mu) on y arrays, bit for bit,
    with the mu-only work done once: the dual binds mu once per slice, so
    its fixed point pays only the y-part per iterate.  The solve, the dual
    and the subgradient control all evaluate the driver of step i at its end
    t_{i+1}; a driver that wants a step average computes it in its own
    evaluate.
    """

    name: str
    evaluate: Callable
    lipschitz_wy: float
    zero_bound: Optional[float] = None
    z_lipschitz: Optional[Callable[[float], float]] = None
    lower_bound: Optional[Callable[[float], float]] = None
    analytic_conjugate: Optional[Callable] = None
    analytic_subgradient: Optional[Callable] = None
    fix_z: Optional[Callable] = None
    fix_mu: Optional[Callable] = None
    y_dependence: str = "none"
    w_dependence: str = "none"  # 'none' or 'path'

    @property
    def path_dependent(self) -> bool:
        return self.w_dependence == "path"

    def __call__(self, t, w, y, z):
        return self.evaluate(t, w, y, z)

    def at(self, t, w, z):
        """The bound form y -> f(t, w, y, z) as a float array, (t, w, z) fixed."""
        if self.fix_z is not None:
            return self.fix_z(t, w, z)
        return lambda y: np.asarray(self.evaluate(t, w, y, z), dtype=float)


@dataclass
class TerminalFunctional:
    """A terminal functional phi(path) with declared Lipschitz/bound constants.

    markovian terminals are functions of the final walk value only and carry
    terminal_map for use on recombining lattices.
    """

    name: str
    evaluate: Callable
    lipschitz: Optional[float] = None
    bound: Optional[float] = None
    markovian: bool = False
    terminal_map: Optional[Callable] = None

    def __call__(self, paths):
        return self.evaluate(paths)


@dataclass(frozen=True)
class RunningFunctional:
    """A path functional computed forward along the path.

    Called on paths of shape (..., N+1, d) it runs state = init(w_0), then
    state = update(state, w_j) for j = 1..N, and returns finish(state).  The
    solver runs the same recursion over the full-layout walk slices, so the
    path form and the lattice form cannot disagree.
    """

    init: Callable
    update: Callable
    finish: Callable

    def __call__(self, paths):
        arr = np.asarray(paths, dtype=float)
        state = self.init(arr[..., 0, :])
        for j in range(1, arr.shape[-2]):
            state = self.update(state, arr[..., j, :])
        return self.finish(state)


def _then(evaluate: Callable, post: Callable) -> Callable:
    """paths -> post(evaluate(paths)), still running when evaluate is."""
    if isinstance(evaluate, RunningFunctional):
        return replace(evaluate, finish=lambda state: post(evaluate.finish(state)))
    return lambda paths: post(evaluate(paths))


# -- catalogs ----------------------------------------------------------------


def _sq_norm(z):
    """|z|^2 over the last axis, with the bits of np.sum(z ** 2, axis=-1)."""
    return _sum_columns(np.asarray(z, dtype=float) ** 2)


def _norm(z):
    return np.sqrt(_sq_norm(z))


def _zeros_like_yz(y, z):
    shape = np.broadcast_shapes(np.shape(y), np.shape(z)[:-1])
    return np.zeros(shape) if shape else 0.0


def _radial(z, magnitude):
    """magnitude * z/|z| with the zero selection at the kink."""
    z = np.asarray(z, dtype=float)
    n = _norm(z)[..., None]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(n > 0.0, magnitude[..., None] * z / n, 0.0)
    return out


def zero_driver() -> DriverSpec:
    return DriverSpec(
        name="zero",
        evaluate=lambda t, w, y, z: _zeros_like_yz(y, z),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 0.0,
        lower_bound=lambda c: 0.0,
        analytic_conjugate=lambda t, w, y, mu: np.where(_norm(mu) == 0.0, 0.0, np.inf),
        analytic_subgradient=lambda t, w, y, z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def constant_driver(c: float) -> DriverSpec:
    c = float(c)
    return DriverSpec(
        name="constant:%g" % c,
        evaluate=lambda t, w, y, z: _zeros_like_yz(y, z) + c,
        lipschitz_wy=0.0,
        zero_bound=abs(c),
        z_lipschitz=lambda a: 0.0,
        lower_bound=lambda r: c,
        analytic_conjugate=lambda t, w, y, mu: np.where(_norm(mu) == 0.0, -c, np.inf),
        analytic_subgradient=lambda t, w, y, z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def linear_driver(a: float, b: float) -> DriverSpec:
    """f = a + b(|y| + |z|); the only y-dependent catalog driver."""
    a, b = float(a), float(b)
    if b < 0:
        raise GridError("linear driver needs b >= 0, got %r" % (b,))

    def fix_z(t, w, z):
        n = _norm(z)

        def fy(y):
            # a + b * (|y| + n), in place on the one new array
            out = np.abs(y, dtype=float)
            out += n
            out *= b
            out += a
            return out

        return fy

    def fix_mu(t, w, mu):
        outside = ~(_norm(mu) <= b)
        clip = bool(outside.any())

        def conj(y):
            # np.where(|mu| <= b, -a - b * |y|, inf), in place on the one new array
            out = np.abs(y, dtype=float)
            out *= b
            np.subtract(-a, out, out=out)
            if clip:
                np.copyto(out, np.inf, where=outside)
            return out

        return conj

    return DriverSpec(
        name="linear:%g,%g" % (a, b),
        evaluate=lambda t, w, y, z: a + b * (np.abs(y) + _norm(z)),
        lipschitz_wy=b,
        zero_bound=abs(a),
        z_lipschitz=lambda r: b,
        lower_bound=lambda c: a,
        analytic_conjugate=lambda t, w, y, mu: np.where(
            _norm(mu) <= b, -a - b * np.abs(y), np.inf
        ),
        analytic_subgradient=lambda t, w, y, z: _radial(z, np.full(np.shape(_norm(z)), b)),
        fix_z=fix_z,
        fix_mu=fix_mu,
        y_dependence="general",
    )


def quadratic_driver() -> DriverSpec:
    return DriverSpec(
        name="quadratic",
        evaluate=lambda t, w, y, z: 0.5 * _sq_norm(z),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: a,
        lower_bound=lambda c: 0.0,
        analytic_conjugate=lambda t, w, y, mu: 0.5 * _norm(mu) ** 2,
        analytic_subgradient=lambda t, w, y, z: np.asarray(z, dtype=float) + 0.0,
    )


def quartic_driver() -> DriverSpec:
    return DriverSpec(
        name="quartic",
        evaluate=lambda t, w, y, z: _sq_norm(z) ** 2,
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 4.0 * a ** 3,
        lower_bound=lambda c: 0.0,
        analytic_conjugate=lambda t, w, y, mu: 3.0 * (_norm(mu) / 4.0) ** (4.0 / 3.0),
        analytic_subgradient=lambda t, w, y, z: 4.0
        * _sq_norm(z)[..., None]
        * np.asarray(z, dtype=float),
    )


def abs_driver() -> DriverSpec:
    return DriverSpec(
        name="abs",
        evaluate=lambda t, w, y, z: _norm(z),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 1.0,
        lower_bound=lambda c: 0.0,
        analytic_conjugate=lambda t, w, y, mu: np.where(_norm(mu) <= 1.0, 0.0, np.inf),
        analytic_subgradient=lambda t, w, y, z: _radial(z, np.ones(np.shape(_norm(z)))),
    )


def exp_driver() -> DriverSpec:
    def conj(t, w, y, mu):
        m = _norm(mu)
        with np.errstate(invalid="ignore", divide="ignore"):
            ent = m * np.log(np.maximum(m, 1e-300)) - m + 1.0
        return np.where(m <= 1.0, 0.0, ent)

    return DriverSpec(
        name="exp",
        evaluate=lambda t, w, y, z: np.expm1(_norm(z)),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: math.exp(a),
        lower_bound=lambda c: 0.0,
        analytic_conjugate=conj,
        analytic_subgradient=lambda t, w, y, z: _radial(z, np.exp(_norm(z))),
    )


DRIVER_CATALOG = {
    "zero": (zero_driver, 0),
    "constant": (constant_driver, 1),
    "linear": (linear_driver, 2),
    "quadratic": (quadratic_driver, 0),
    "quartic": (quartic_driver, 0),
    "abs": (abs_driver, 0),
    "exp": (exp_driver, 0),
}


def make_driver(spec: str) -> DriverSpec:
    """Parse a catalog driver name, e.g. 'quadratic' or 'linear:1,1'."""
    name, _, argpart = spec.partition(":")
    if name not in DRIVER_CATALOG:
        raise GridError(
            "unknown driver %r (catalog: %s)" % (name, ", ".join(sorted(DRIVER_CATALOG)))
        )
    factory, argc = DRIVER_CATALOG[name]
    args = [float(x) for x in argpart.split(",")] if argpart else []
    if len(args) != argc:
        raise GridError("driver %r takes %d parameter(s), got %r" % (name, argc, argpart))
    return factory(*args)


def endpoint_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="endpoint",
        evaluate=lambda paths: np.asarray(paths, dtype=float)[..., -1, 0],
        lipschitz=1.0,
        markovian=True,
        terminal_map=lambda x: np.asarray(x, dtype=float)[..., 0],
    )


def const_terminal(c: float) -> TerminalFunctional:
    c = float(c)
    return TerminalFunctional(
        name="const:%g" % c,
        evaluate=lambda paths: np.full(np.shape(paths)[:-2], c),
        lipschitz=0.0,
        bound=abs(c),
        markovian=True,
        terminal_map=lambda x: np.full(np.shape(x)[:-1], c),
    )


def maxpath_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="maxpath",
        evaluate=RunningFunctional(
            _norm, lambda m, w: np.maximum(m, _norm(w)), lambda m: m
        ),
        lipschitz=1.0,
        markovian=False,
    )


def digital_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="digital",
        evaluate=lambda paths: (np.asarray(paths, dtype=float)[..., -1, 0] > 0.0) * 1.0,
        bound=1.0,
        markovian=True,
        terminal_map=lambda x: (np.asarray(x, dtype=float)[..., 0] > 0.0) * 1.0,
    )


def clipped_endpoint_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="clipped-endpoint",
        evaluate=lambda paths: np.clip(np.asarray(paths, dtype=float)[..., -1, 0], -1.0, 1.0),
        lipschitz=1.0,
        bound=1.0,
        markovian=True,
        terminal_map=lambda x: np.clip(np.asarray(x, dtype=float)[..., 0], -1.0, 1.0),
    )


TERMINAL_CATALOG = {
    "endpoint": (endpoint_terminal, 0),
    "const": (const_terminal, 1),
    "maxpath": (maxpath_terminal, 0),
    "digital": (digital_terminal, 0),
    "clipped-endpoint": (clipped_endpoint_terminal, 0),
}


def make_terminal(spec: str) -> TerminalFunctional:
    """Parse a catalog terminal name, e.g. 'endpoint' or 'const:1'."""
    name, _, argpart = spec.partition(":")
    if name not in TERMINAL_CATALOG:
        raise GridError(
            "unknown terminal %r (catalog: %s)" % (name, ", ".join(sorted(TERMINAL_CATALOG)))
        )
    factory, argc = TERMINAL_CATALOG[name]
    args = [float(x) for x in argpart.split(",")] if argpart else []
    if len(args) != argc:
        raise GridError("terminal %r takes %d parameter(s), got %r" % (name, argc, argpart))
    return factory(*args)


def shift_terminal(phi: TerminalFunctional, delta: float) -> TerminalFunctional:
    """phi + delta, with the declared constants carried along."""
    delta = float(delta)
    return TerminalFunctional(
        name="%s+%g" % (phi.name, delta),
        evaluate=_then(phi.evaluate, lambda v: v + delta),
        lipschitz=phi.lipschitz,
        bound=None if phi.bound is None else phi.bound + abs(delta),
        markovian=phi.markovian,
        terminal_map=None if phi.terminal_map is None else (lambda x: phi.terminal_map(x) + delta),
    )


def scale_terminal(phi: TerminalFunctional, s: float) -> TerminalFunctional:
    """s * phi; Lipschitz and bound scale by |s|."""
    s = float(s)
    return TerminalFunctional(
        name="%g*%s" % (s, phi.name),
        evaluate=_then(phi.evaluate, lambda v: s * v),
        lipschitz=None if phi.lipschitz is None else abs(s) * phi.lipschitz,
        bound=None if phi.bound is None else abs(s) * phi.bound,
        markovian=phi.markovian,
        terminal_map=None if phi.terminal_map is None else (lambda x: s * phi.terminal_map(x)),
    )


# -- convex conjugate and subgradients ---------------------------------------


def _golden_max(fun, a, b, tol=1e-11, iters=120):
    """Golden-section maximization on [a, b]; robust to flat stretches."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    x = x1 if f1 >= f2 else x2
    return x, fun(x)


def numeric_conjugate(f: DriverSpec, t, w, y, mu) -> float:
    """Grid + golden-section conjugate, ignoring any declared closed form."""
    mu = np.asarray(mu, dtype=float).reshape(-1)
    d = mu.shape[0]

    def objective(z):
        return float(np.dot(z, mu)) - float(f.evaluate(t, w, y, z))

    radius = 1.0 + float(_norm(mu))
    doublings = 0
    best_boundary = -np.inf
    while True:
        if d == 1:
            zs = np.linspace(-radius, radius, 65)
            vals = np.array([objective(np.array([z])) for z in zs])
            m = int(np.argmax(vals))
            on_boundary = m in (0, len(zs) - 1)
        else:
            per_axis = 21 if d == 2 else 9
            axes = [np.linspace(-radius, radius, per_axis)] * d
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            vals = np.array([objective(zrow) for zrow in mesh])
            m = int(np.argmax(vals))
            on_boundary = bool(np.any(np.abs(mesh[m]) >= radius - 1e-12))
        grew = vals[m] > best_boundary + 1e-15
        if on_boundary and grew:
            best_boundary = vals[m]
            if doublings >= _UNBOUNDED_DOUBLINGS:
                return math.inf
            radius *= 2.0
            doublings += 1
            continue
        break

    if d == 1:
        lo = zs[max(m - 1, 0)]
        hi = zs[min(m + 1, len(zs) - 1)]
        _, val = _golden_max(lambda z: objective(np.array([z])), lo, hi)
        return max(val, float(vals[m]))

    # coordinate-wise golden sweeps; fine for the concave objectives seen here
    z = mesh[m].copy()
    span = 2.0 * radius / (per_axis - 1)
    best = float(vals[m])
    for _ in range(90):
        for k in range(d):
            def axis_fun(x, k=k):
                zz = z.copy()
                zz[k] = x
                return objective(zz)

            xk, vk = _golden_max(axis_fun, z[k] - span, z[k] + span)
            if vk >= best:
                z[k] = xk
                best = vk
        span = max(span * 0.7, 1e-9)
    return best


def conjugate(f: DriverSpec, t, w, y, mu) -> float:
    """Convex conjugate in z: g(t, w, y, mu) = sup_z (z.mu - f(t, w, y, z)).

    Uses the declared closed form when available, otherwise adaptive grid
    search with golden-section refinement; returns +inf when the objective
    keeps growing at the search boundary across radius doublings.
    """
    if f.analytic_conjugate is not None:
        return float(f.analytic_conjugate(t, w, y, np.asarray(mu, dtype=float)))
    return numeric_conjugate(f, t, w, y, mu)


def subgradient(
    f: DriverSpec, t, w, y, z, validate: bool = True, tol: float = 1e-6
) -> np.ndarray:
    """A subgradient of z -> f(t, w, y, z) at z.

    Uses the declared selection when available, otherwise central finite
    differences with step 1e-6 * (1 + |z|) per component (at kinks this is the
    average of the one-sided slopes).  When validate is set, the conjugacy
    identity z.mu - f(z) = g(mu) is checked within tol and a ValidationError
    raised on failure.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if f.analytic_subgradient is not None:
        mu = np.asarray(f.analytic_subgradient(t, w, y, z), dtype=float).reshape(-1)
    else:
        h = 1e-6 * (1.0 + float(_norm(z)))
        mu = np.empty_like(z)
        for k in range(z.shape[0]):
            zp = z.copy()
            zm = z.copy()
            zp[k] += h
            zm[k] -= h
            mu[k] = (float(f.evaluate(t, w, y, zp)) - float(f.evaluate(t, w, y, zm))) / (2.0 * h)
    if validate:
        g = conjugate(f, t, w, y, mu)
        resid = abs(float(np.dot(z, mu)) - float(f.evaluate(t, w, y, z)) - g)
        if not resid <= tol:
            raise ValidationError(
                "subgradient candidate fails the conjugacy identity "
                "(residual %.3g at z=%s)" % (resid, z)
            )
    return mu


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
