"""Exact-rational backward solve over the field Q[sqrt(dt)].

Every walk value on the lattice lives in the quadratic extension of the
rationals by sqrt(dt), and for y-independent polynomial drivers the whole
backward recursion stays inside that field: conditional means are rational
combinations, the control is a field element divided by the rational dt, and
the implicit step degenerates to one exact evaluation.  The field's order is
exact too (QuadExt.sign), so |z| in d=1, |y| and max stay inside it: the
linear driver's implicit step has a closed form there, the abs driver's
|z| is exact in d=1, and terminals such as the running max of |W| can be
written.  When dt is the square of a rational (N = 4 or 16 on [0, 1]) the
field is Q itself, and every QuadExt folds its radical part into its
rational one, so equal numbers compare and hash equal.  This gives
reference values with no rounding at all, used to certify the floating
solver on small lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, sqrt

from .errors import GridError, StructuralError


def _rational_root(m: Fraction):
    """sqrt(m) as a Fraction when m >= 0 is the square of a rational, else None."""
    if m < 0:
        return None
    p, q = isqrt(m.numerator), isqrt(m.denominator)
    return Fraction(p, q) if p * p == m.numerator and q * q == m.denominator else None


class QuadExt:
    """Exact element a + b*sqrt(m) with a, b, m rational.

    Each number has one representation over its radicand: when m is the
    square of a rational, b*sqrt(m) is folded into a and b is 0.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m=1):
        # Fraction(x) of a Fraction copies it; the arithmetic passes Fractions
        a, b, m = (x if type(x) is Fraction else Fraction(x) for x in (a, b, m))
        root = _rational_root(m) if b else None
        if root is not None:
            a, b = a + b * root, Fraction(0)
        self.a, self.b, self.m = a, b, m

    def _coerce(self, other):
        """other over the radicand of whichever operand has a radical part; results use o.m."""
        if isinstance(other, QuadExt):
            if other.m != self.m and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands %s and %s" % (self.m, other.m))
            return QuadExt(other.a, other.b, self.m if other.b == 0 else other.m)
        return QuadExt(Fraction(other), 0, self.m)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, o.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.m)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt(
            self.a * o.a + self.b * o.b * o.m,
            self.a * o.b + self.b * o.a,
            o.m,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        denom = o.a * o.a - o.b * o.b * o.m
        if denom == 0:
            raise ZeroDivisionError("division by zero element")
        num = self * QuadExt(o.a, -o.b, o.m)
        return QuadExt(num.a / denom, num.b / denom, o.m)

    def __eq__(self, other):
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational number hashes as its Fraction, whatever radicand it carries
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.m))

    def sign(self) -> int:
        """-1, 0 or 1, exactly, for m >= 0: when a and b differ in sign, compare a^2 with b^2 m."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa
        if sa == 0:
            return sb
        excess = self.a * self.a - self.b * self.b * self.m
        return sa if excess > 0 else (sb if excess < 0 else 0)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(float(self.m))

    def __repr__(self):
        if self.b == 0:
            return "QuadExt(%s)" % (self.a,)
        return "QuadExt(%s + %s*sqrt(%s))" % (self.a, self.b, self.m)

    @property
    def is_rational(self):
        return self.b == 0


@dataclass
class ExactSolution:
    steps: int
    dim: int
    dt: Fraction
    Y: list  # per slice, dict node-tuple -> QuadExt
    Z: list  # per slice < N, dict node-tuple -> tuple of QuadExt
    dm: list  # per slice < N, dict (node-tuple, choice) -> QuadExt

    @property
    def y0(self) -> QuadExt:
        return self.Y[0][()]


def _signs(choice: int, dim: int):
    return tuple(1 if ((choice >> (dim - 1 - k)) & 1) == 0 else -1 for k in range(dim))


def _exact_step(name: str, m: Fraction, dim: int):
    """The exact implicit step (mean, z) -> y of y = mean + f(y, z) dt at dt = m."""
    if (name == "abs" or name.startswith("linear:")) and dim != 1:
        raise GridError("%s has an exact form in d=1 only, got d=%d" % (name, dim))
    if name.startswith("linear:"):
        a, b = (Fraction(v) for v in name.split(":", 1)[1].split(","))
        if not 0 <= b * m < 1:
            raise GridError("linear:a,b needs 0 <= b dt < 1, got b dt = %s" % (b * m,))

        # y = c + b dt |y| with c = mean + dt (a + b |z|): y = c / (1 -+ b dt) as c >= 0 or not
        def linear(mean, z):
            c = mean + (a + b * abs(z[0])) * m
            return c / (1 - b * m) if c >= 0 else c / (1 + b * m)

        return linear
    if name == "abs":
        return lambda mean, z: mean + abs(z[0]) * m
    if name == "zero":
        return lambda mean, z: mean
    if name.startswith("constant:"):
        c = Fraction(name.split(":", 1)[1])
        return lambda mean, z: mean + c * m
    if name in ("quadratic", "quartic"):
        # |z|^2 / 2 or |z|^4
        def power(mean, z):
            acc = QuadExt(0, 0, m)
            for zk in z:
                acc = acc + zk * zk
            return mean + (acc * Fraction(1, 2) if name == "quadratic" else acc * acc) * m

        return power
    raise GridError("no exact form for driver %r" % (name,))


def exact_solve(steps: int, dim: int, horizon, driver: str, terminal) -> ExactSolution:
    """Backward solve with exact arithmetic.

    terminal is a callable taking the walk path as a tuple of per-time
    tuples of QuadExt (grid times 0..steps, each of length dim) and returning
    a QuadExt or rational.  Supported drivers: zero, constant:<rational>,
    quadratic, quartic, abs in d=1, and linear:<a>,<b> in d=1 while b dt < 1,
    whose implicit step y = c + b dt |y|, c = mean + dt (a + b |z|), is
    y = c / (1 - b dt) if c >= 0, else c / (1 + b dt).
    """
    if steps < 1 or dim < 1:
        raise GridError("need steps >= 1 and dim >= 1")
    m = Fraction(horizon) / steps
    if m <= 0:
        raise GridError("horizon must be positive")
    step = _exact_step(driver, m, dim)
    nchoice = 2 ** dim
    sqrt_dt = QuadExt(0, 1, m)
    zero = QuadExt(0, 0, m)
    inv_count = Fraction(1, nchoice)

    def walk(choices):
        vals = [tuple(zero for _ in range(dim))]
        for c in choices:
            s = _signs(c, dim)
            vals.append(tuple(vals[-1][k] + sqrt_dt * s[k] for k in range(dim)))
        return tuple(vals)

    terminal_slice = {}
    for choices in product(range(nchoice), repeat=steps):
        xi = terminal(walk(choices))
        if not isinstance(xi, QuadExt):
            xi = QuadExt(Fraction(xi), 0, m)
        elif xi.m != m and xi.b != 0:
            raise StructuralError("terminal produced a value outside Q[sqrt(dt)]")
        terminal_slice[choices] = xi

    Y = [None] * (steps + 1)
    Z = [None] * steps
    dM = [None] * steps
    Y[steps] = terminal_slice
    for i in range(steps - 1, -1, -1):
        y_here, z_here, dm_here = {}, {}, {}
        for node in product(range(nchoice), repeat=i):
            children = [Y[i + 1][node + (c,)] for c in range(nchoice)]
            mean = zero
            for v in children:
                mean = mean + v
            mean = mean * inv_count
            zvec = []
            for k in range(dim):
                acc = zero
                for c, v in enumerate(children):
                    acc = acc + v * (sqrt_dt * _signs(c, dim)[k])
                zvec.append(acc * inv_count / m)
            zvec = tuple(zvec)
            for c, v in enumerate(children):
                s = _signs(c, dim)
                drift = zero
                for k in range(dim):
                    drift = drift + zvec[k] * (sqrt_dt * s[k])
                dm_here[node + (c,)] = v - mean - drift
            y_here[node] = step(mean, zvec)
            z_here[node] = zvec
        Y[i] = y_here
        Z[i] = z_here
        dM[i] = dm_here
    return ExactSolution(steps=steps, dim=dim, dt=m, Y=Y, Z=Z, dm=dM)

