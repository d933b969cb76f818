"""Driver and terminal specifications, their convex-analysis operations, and catalogs.

A driver is the generator f(t, w, y, z), convex in z, handed to the backward
solver; a terminal functional maps a whole walk path to the terminal value.
Both are declared together with the constants the verification harness needs:
Lipschitz constant in (path, y), bound at the origin, local z-Lipschitz
envelope, optional lower bound, and (when known) the closed-form convex
conjugate in z and a subgradient selection.

Conventions
-----------
* a driver is declared once, by its bound form at(t, w, z): the driver with
  (t, w, z) fixed, y -> f(t, w, y, z) as a float array over the nodes of z,
  shape (..., d); w is None for w-independent drivers, else the shifted path
  at grid times, shape (..., m, d).  The solve binds z once per slice before
  the implicit step iterates y, so the z-only work runs once per binding;
  conjugate_at(t, w, mu) is the closed-form conjugate bound the same way.
  f.evaluate and conjugate(f, ...) are derived from them, and
  DriverSpec.bound_conjugate and bound_subgradient make the one choice
  between a closed form and the numeric fallback.
* a terminal declares its path form evaluate(paths), paths of shape
  (..., steps+1, d) holding the walk values at grid times, or, when Markov,
  terminal_map(x) on the final value alone, which recombining mode uses.
* a terminal evaluate may be a RunningFunctional, a forward recursion over
  the walk values w_0, ..., w_N, which the solver runs over the full-layout
  walk slices without building paths.
* a conjugate value of +inf is the "unbounded" marker; it is a value, not an
  error, and propagates through the dual machinery.

Catalog names (CLI syntax): zero, constant:c, linear:a,b, quadratic, quartic,
abs, exp; terminals endpoint, const:c, maxpath, digital, clipped-endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import GridError, StructuralError, ValidationError
from .lattice import _sum_columns

_UNBOUNDED_DOUBLINGS = 3


def _pointwise(form, t, w, a, y):
    """form(t, w, a)(y) as a float array, a scalar y broadcast over the nodes of a (..., d).

    y is a scalar or one value per node.  A lone node, a of shape (d,), is
    bound as one row, so a bound form is always called with a y array.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim == 1:
        w = None if w is None else np.asarray(w)[None]
        return np.asarray(form(t, w, a[None])(y.reshape(1)), dtype=float)[0]
    if y.shape != a.shape[:-1]:
        y = np.broadcast_to(y, a.shape[:-1])
    return np.asarray(form(t, w, a)(y), dtype=float)


def _node_by_node(scalar, t, w, a, tail=()):
    """The bound form y -> out, out[k] = scalar(t, w[k], y[k], a[k]) of shape tail per node k."""
    a = np.asarray(a, dtype=float)

    def form(y):
        out = np.empty(a.shape[:-1] + tail)
        for k in np.ndindex(a.shape[:-1]):
            out[k] = scalar(t, None if w is None else w[k], y[k], a[k])
        return out

    return form


@dataclass
class DriverSpec:
    """A generator f(t, w, y, z), declared by its bound form, with its constants.

    at(t, w, z) returns y -> f(t, w, y, z), and conjugate_at(t, w, mu) (None:
    the numeric conjugate) y -> g(t, w, y, mu), each on a y array with one
    value per node, which they only read; the arrays they return are only
    read.  analytic_subgradient(t, w, y, z) is a closed-form selection.
    lipschitz_wy is the joint Lipschitz constant in (w, y) under the
    sup-norm on paths; z_lipschitz maps a radius a to a Lipschitz constant
    of f in z on |z| <= a; lower_bound maps a radius c to inf f over |y| <= c
    (both None when not declared).  y_dependence is 'none' for a
    y-independent driver, whose solve and dual steps then take one iterate;
    'general' marks one that may read y.  Every step i is evaluated at its
    end t_{i+1}; a driver that wants a step average computes it itself.
    """

    name: str
    at: Callable
    lipschitz_wy: float
    zero_bound: Optional[float] = None
    z_lipschitz: Optional[Callable[[float], float]] = None
    lower_bound: Optional[Callable[[float], float]] = None
    conjugate_at: Optional[Callable] = None
    analytic_subgradient: Optional[Callable] = None
    y_dependence: str = "none"
    w_dependence: str = "none"  # 'none' or 'path'

    @property
    def path_dependent(self) -> bool:
        return self.w_dependence == "path"

    def evaluate(self, t, w, y, z):
        """f(t, w, y, z) as a float array, a scalar y broadcast over the nodes of z."""
        return _pointwise(self.at, t, w, z, y)

    __call__ = evaluate

    def bound_conjugate(self, t, w, mu):
        """y -> g(t, w, y, mu): conjugate_at when declared, else the numeric conjugate per node."""
        if self.conjugate_at is not None:
            return self.conjugate_at(t, w, mu)
        return _node_by_node(partial(numeric_conjugate, self), t, w, mu)

    def bound_subgradient(self, t, w, z):
        """y -> a z-subgradient per node: the declared selection, else finite differences."""
        z = np.asarray(z, dtype=float)
        if self.analytic_subgradient is None:
            return _node_by_node(partial(_difference_subgradient, self), t, w, z, z.shape[-1:])
        return lambda y: np.broadcast_to(self.analytic_subgradient(t, w, y, z), z.shape).copy()


@dataclass
class TerminalFunctional:
    """A terminal functional phi(path) with declared Lipschitz/bound constants.

    It declares evaluate(paths) or, when Markov (a function of the final
    walk value only), terminal_map(x) alone; both or neither raises
    StructuralError.  phi(paths) is the path form either way.
    """

    name: str
    evaluate: Optional[Callable] = None
    lipschitz: Optional[float] = None
    bound: Optional[float] = None
    terminal_map: Optional[Callable] = None

    def __post_init__(self):
        if (self.evaluate is None) == (self.terminal_map is None):
            raise StructuralError(
                "terminal %r must declare exactly one of evaluate and terminal_map" % (self.name,)
            )

    @property
    def markovian(self) -> bool:
        return self.terminal_map is not None

    def __call__(self, paths):
        if self.markovian:
            return self.terminal_map(np.asarray(paths, dtype=float)[..., -1, :])
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


def _then(phi: TerminalFunctional, post: Callable) -> dict:
    """phi's declared form followed by post, as keywords; a running evaluate stays running."""
    if phi.markovian:
        tmap = phi.terminal_map
        return {"terminal_map": lambda x: post(tmap(x))}
    evaluate = phi.evaluate
    if isinstance(evaluate, RunningFunctional):
        return {"evaluate": replace(evaluate, finish=lambda state: post(evaluate.finish(state)))}
    return {"evaluate": lambda paths: post(evaluate(paths))}


# -- catalogs ----------------------------------------------------------------


def _sq_norm(z):
    """|z|^2 over the last axis, with the bits of np.sum(z ** 2, axis=-1)."""
    return _sum_columns(np.asarray(z, dtype=float) ** 2)


def _norm(z):
    return np.sqrt(_sq_norm(z))


def _y_free(values):
    """The bound form of a term that does not read y: y -> values, computed once."""
    return lambda y: values


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
        at=lambda t, w, z: lambda y: np.zeros(np.shape(y)),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 0.0,
        lower_bound=lambda c: 0.0,
        conjugate_at=lambda t, w, mu: _y_free(np.where(_norm(mu) == 0.0, 0.0, np.inf)),
        analytic_subgradient=lambda t, w, y, z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def constant_driver(c: float) -> DriverSpec:
    c = float(c)
    return DriverSpec(
        name="constant:%g" % c,
        at=lambda t, w, z: lambda y: np.zeros(np.shape(y)) + c,
        lipschitz_wy=0.0,
        zero_bound=abs(c),
        z_lipschitz=lambda a: 0.0,
        lower_bound=lambda r: c,
        conjugate_at=lambda t, w, mu: _y_free(np.where(_norm(mu) == 0.0, -c, np.inf)),
        analytic_subgradient=lambda t, w, y, z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def linear_driver(a: float, b: float) -> DriverSpec:
    """f = a + b(|y| + |z|); the only y-dependent catalog driver."""
    a, b = float(a), float(b)
    if b < 0:
        raise GridError("linear driver needs b >= 0, got %r" % (b,))

    def at(t, w, z):
        n = _norm(z)

        def fy(y):
            # a + b * (|y| + n), in place on the one new array
            out = np.abs(y, dtype=float)
            out += n
            out *= b
            out += a
            return out

        return fy

    def conjugate_at(t, w, mu):
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
        at=at,
        lipschitz_wy=b,
        zero_bound=abs(a),
        z_lipschitz=lambda r: b,
        lower_bound=lambda c: a,
        conjugate_at=conjugate_at,
        analytic_subgradient=lambda t, w, y, z: _radial(z, np.full(np.shape(_norm(z)), b)),
        y_dependence="general",
    )


def quadratic_driver() -> DriverSpec:
    return DriverSpec(
        name="quadratic",
        at=lambda t, w, z: _y_free(0.5 * _sq_norm(z)),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: a,
        lower_bound=lambda c: 0.0,
        conjugate_at=lambda t, w, mu: _y_free(0.5 * _norm(mu) ** 2),
        analytic_subgradient=lambda t, w, y, z: np.asarray(z, dtype=float) + 0.0,
    )


def quartic_driver() -> DriverSpec:
    return DriverSpec(
        name="quartic",
        at=lambda t, w, z: _y_free(_sq_norm(z) ** 2),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 4.0 * a ** 3,
        lower_bound=lambda c: 0.0,
        conjugate_at=lambda t, w, mu: _y_free(3.0 * (_norm(mu) / 4.0) ** (4.0 / 3.0)),
        analytic_subgradient=lambda t, w, y, z: 4.0
        * _sq_norm(z)[..., None]
        * np.asarray(z, dtype=float),
    )


def abs_driver() -> DriverSpec:
    return DriverSpec(
        name="abs",
        at=lambda t, w, z: _y_free(_norm(z)),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: 1.0,
        lower_bound=lambda c: 0.0,
        conjugate_at=lambda t, w, mu: _y_free(np.where(_norm(mu) <= 1.0, 0.0, np.inf)),
        analytic_subgradient=lambda t, w, y, z: _radial(z, np.ones(np.shape(_norm(z)))),
    )


def exp_driver() -> DriverSpec:
    def conjugate_at(t, w, mu):
        m = _norm(mu)
        with np.errstate(invalid="ignore", divide="ignore"):
            ent = m * np.log(np.maximum(m, 1e-300)) - m + 1.0
        return _y_free(np.where(m <= 1.0, 0.0, ent))

    return DriverSpec(
        name="exp",
        at=lambda t, w, z: _y_free(np.expm1(_norm(z))),
        lipschitz_wy=0.0,
        zero_bound=0.0,
        z_lipschitz=lambda a: math.exp(a),
        lower_bound=lambda c: 0.0,
        conjugate_at=conjugate_at,
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


def _from_catalog(what, catalog, spec):
    """The catalog entry a spec 'name' or 'name:p1,p2' names, built with its parameters."""
    name, _, argpart = spec.partition(":")
    if name not in catalog:
        raise GridError("unknown %s %r (catalog: %s)" % (what, name, ", ".join(sorted(catalog))))
    factory, argc = catalog[name]
    try:
        args = [float(x) for x in argpart.split(",")] if argpart else []
    except ValueError:
        raise GridError("%s parameters must be numbers, got %r" % (what, spec)) from None
    if len(args) != argc:
        raise GridError("%s %r takes %d parameter(s), got %r" % (what, name, argc, argpart))
    return factory(*args)


def make_driver(spec: str) -> DriverSpec:
    """Parse a catalog driver name, e.g. 'quadratic' or 'linear:1,1'."""
    return _from_catalog("driver", DRIVER_CATALOG, spec)


def endpoint_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="endpoint",
        lipschitz=1.0,
        terminal_map=lambda x: np.asarray(x, dtype=float)[..., 0],
    )


def const_terminal(c: float) -> TerminalFunctional:
    c = float(c)
    return TerminalFunctional(
        name="const:%g" % c,
        lipschitz=0.0,
        bound=abs(c),
        terminal_map=lambda x: np.full(np.shape(x)[:-1], c),
    )


def maxpath_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="maxpath",
        evaluate=RunningFunctional(
            _norm, lambda m, w: np.maximum(m, _norm(w)), lambda m: m
        ),
        lipschitz=1.0,
    )


def digital_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="digital",
        bound=1.0,
        terminal_map=lambda x: (np.asarray(x, dtype=float)[..., 0] > 0.0) * 1.0,
    )


def clipped_endpoint_terminal() -> TerminalFunctional:
    return TerminalFunctional(
        name="clipped-endpoint",
        lipschitz=1.0,
        bound=1.0,
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
    return _from_catalog("terminal", TERMINAL_CATALOG, spec)


def shift_terminal(phi: TerminalFunctional, delta: float) -> TerminalFunctional:
    """phi + delta, with the declared constants carried along."""
    delta = float(delta)
    return TerminalFunctional(
        name="%s+%g" % (phi.name, delta),
        lipschitz=phi.lipschitz,
        bound=None if phi.bound is None else phi.bound + abs(delta),
        **_then(phi, lambda v: v + delta),
    )


def scale_terminal(phi: TerminalFunctional, s: float) -> TerminalFunctional:
    """s * phi; Lipschitz and bound scale by |s|."""
    s = float(s)
    return TerminalFunctional(
        name="%g*%s" % (s, phi.name),
        lipschitz=None if phi.lipschitz is None else abs(s) * phi.lipschitz,
        bound=None if phi.bound is None else abs(s) * phi.bound,
        **_then(phi, lambda v: s * v),
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
    """Grid + golden-section conjugate at one mu, ignoring any declared closed form."""
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


def conjugate(f: DriverSpec, t, w, y, mu):
    """Convex conjugate in z: g(t, w, y, mu) = sup_z (z.mu - f(t, w, y, z)), f.bound_conjugate's.

    mu has shape (..., d), a scalar y is broadcast over its nodes, and a
    lone mu gives a float.  The numeric fallback returns +inf when the
    objective keeps growing at the search boundary across radius doublings.
    """
    return _pointwise(f.bound_conjugate, t, w, mu, y)


def _difference_subgradient(f: DriverSpec, t, w, y, z) -> np.ndarray:
    """Central differences of z -> f(t, w, y, z), step 1e-6 * (1 + |z|) per component.

    At a kink this is the average of the one-sided slopes.
    """
    h = 1e-6 * (1.0 + float(_norm(z)))
    mu = np.empty_like(z)
    for k in range(z.shape[0]):
        zp = z.copy()
        zm = z.copy()
        zp[k] += h
        zm[k] -= h
        mu[k] = (float(f.evaluate(t, w, y, zp)) - float(f.evaluate(t, w, y, zm))) / (2.0 * h)
    return mu


def subgradient(
    f: DriverSpec, t, w, y, z, validate: bool = True, tol: float = 1e-6
) -> np.ndarray:
    """A subgradient of z -> f(t, w, y, z) at z, f.bound_subgradient's.

    When validate is set, the conjugacy identity z.mu - f(z) = g(mu) is
    checked within tol and a ValidationError raised on failure.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    mu = _pointwise(f.bound_subgradient, t, w, z, y)
    if validate:
        g = conjugate(f, t, w, y, mu)
        resid = abs(float(np.dot(z, mu)) - float(f.evaluate(t, w, y, z)) - g)
        if not resid <= tol:
            raise ValidationError(
                "subgradient candidate fails the conjugacy identity "
                "(residual %.3g at z=%s)" % (resid, z)
            )
    return mu
