"""Bernoulli random-walk lattices.

A lattice carries a d-dimensional random walk with increments +-sqrt(dt) per
component over a uniform time grid t_i = i*T/N.  Two layouts are supported:

* full-path mode: nodes at time index i are the 2**(d*i) sign prefixes,
  ordered lexicographically with + before -.  Node k at slice i has its
  step-j choice in the base-2**d digit of weight (2**d)**(i-j), so the
  children of node k are the contiguous block k*2**d .. k*2**d + 2**d - 1
  and the parent of node k is k // 2**d.

* recombining mode: nodes at time index i are the lattice points reached,
  keyed by per-component down-step counts m_c in 0..i (flat index in mixed
  radix, component 0 most significant; index 0 is the all-up point).  Slice
  i is an (i+1)**d grid, so the children under choice c form the (i+1)**d
  block of the slice-(i+1) grid offset by the choice's down steps.  Only
  meaningful for Markov data; per-path quantities are unresolvable here.

Values attached to a slice are numpy arrays in node order.  gather_children
is the one place that turns the layout into per-parent child arrays; every
backward recursion goes through it.  On the recombining layout it copies the
2**d shifted grid slices of slice i+1 (_child_windows) into one block.
_sum_columns adds such a block's choices (or a vector's components) in
numpy's own reduction order, so one-step means keep the bits of .mean(axis=1)
without a reduction call over a short axis.

A PathLattice is a value: it holds its grid, dimension, layout, signs and
projection weights, and builds every slice array on the call that asks for
it.  PathLattice.walk_slices is the one builder of the walk slices; on the
full layout PathLattice.paths forms any nodes' paths from their base-2**d
digits with the same sums, so it reads no slice.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BudgetError,
    GridError,
    StructuralError,
    TimeDomainError,
)

DEFAULT_LEAF_BUDGET = 2 ** 20


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i * horizon / steps, i = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise GridError("steps must be >= 1, got %r" % (self.steps,))
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise GridError("horizon must be a finite positive real, got %r" % (self.horizon,))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.dt)

    @property
    def times(self) -> np.ndarray:
        """Every grid time, each with the bits of time(i)."""
        return np.arange(self.steps + 1) * self.horizon / self.steps

    def time(self, i: int) -> float:
        if not 0 <= i <= self.steps:
            raise TimeDomainError("time index %d outside 0..%d" % (i, self.steps))
        return i * self.horizon / self.steps


def sign_matrix(dim: int) -> np.ndarray:
    """(2**dim, dim) array of increment signs, lexicographic with + (=+1) first.

    Row c encodes choice c: component k is -1 iff bit (dim-1-k) of c is set,
    so row 0 is all +1 and row 2**dim - 1 is all -1.
    """
    k = np.arange(2 ** dim)[:, None]
    bits = (k >> np.arange(dim - 1, -1, -1)[None, :]) & 1
    return 1.0 - 2.0 * bits


class PathLattice:
    """Random-walk lattice over a TimeGrid; see the module docstring for layout.

    Construct through build_lattice, which enforces the node budget.  Every
    attribute is set here and none changes; the accessors build each slice
    array anew and keep no reference to it.
    """

    def __init__(self, grid: TimeGrid, dim: int, mode: str):
        if dim < 1:
            raise GridError("dimension must be >= 1, got %r" % (dim,))
        if mode not in ("full", "recombining"):
            raise GridError("mode must be 'full' or 'recombining', got %r" % (mode,))
        self.grid = grid
        self.dim = dim
        self.mode = mode
        self.n_choices = 2 ** dim
        self.signs = sign_matrix(dim)
        self.signs.setflags(write=False)
        # one-step projection weights: z = block @ z_weights, dW = z @ dw_weights
        self.z_weights = self.signs / (self.n_choices * grid.sqrt_dt)
        self.z_weights.setflags(write=False)
        self.dw_weights = self.signs.T * grid.sqrt_dt
        self.dw_weights.setflags(write=False)
        # down steps per component of each choice, the grid offset of its children
        self._downs = tuple(tuple(int(b) for b in row) for row in self.signs < 0)

    # -- sizes ---------------------------------------------------------------

    @property
    def steps(self) -> int:
        return self.grid.steps

    def node_count(self, i: int) -> int:
        if not 0 <= i <= self.steps:
            raise TimeDomainError("slice index %d outside 0..%d" % (i, self.steps))
        if self.mode == "full":
            return self.n_choices ** i
        return (i + 1) ** self.dim

    def total_nodes(self) -> int:
        return sum(self.node_count(i) for i in range(self.steps + 1))

    # -- structure -----------------------------------------------------------

    def step_increments(self) -> np.ndarray:
        """(2**d, d) increments of one step: signs * sqrt(dt)."""
        return self.signs * self.grid.sqrt_dt

    def sign_label(self, i: int, k: int) -> str:
        """Human-readable label of node (i, k).

        The full layout gives its sign prefix, e.g. '(+-,++)'; the
        recombining layout gives 'point[k]@i'.
        """
        if self.mode != "full":
            return "point[%d]@%d" % (k, i)
        choices = [(k // self.n_choices ** (i - 1 - j)) % self.n_choices for j in range(i)]
        return "(" + ",".join(self._choice_label(c) for c in choices) + ")"

    def _choice_label(self, c: int) -> str:
        """Sign label of step choice c, e.g. '+-': '-' where its increment is negative."""
        return "".join("-" if s < 0 else "+" for s in self.signs[c])

    # -- values --------------------------------------------------------------

    def walk_slice(self, i: int) -> np.ndarray:
        """(n_i, d) walk values at time index i, in node order, built on every call.

        The full layout returns the i-th slice of walk_slices; the
        recombining layout the closed form (i - 2 m) sqrt(dt) of its grid.
        """
        if not 0 <= i <= self.steps:
            raise TimeDomainError("slice index %d outside 0..%d" % (i, self.steps))
        if self.mode == "full":
            return next(itertools.islice(self.walk_slices(), i, None))
        n = self.node_count(i)
        m = np.array(np.unravel_index(np.arange(n), (i + 1,) * self.dim)).T
        w = (i - 2.0 * m) * self.grid.sqrt_dt
        w.setflags(write=False)
        return w

    def walk_slices(self):
        """Yield the walk slices 0..N in order; the one builder of full-layout slices.

        On the full layout each slice is built from the last: node k of
        slice j+1 is node k >> d of slice j plus increment k & (2**d - 1).
        A reader that goes forward once holds one slice and the step that
        builds the next.  The recombining layout yields walk_slice's
        closed-form grids.
        """
        if self.mode != "full":
            yield from map(self.walk_slice, range(self.steps + 1))
            return
        inc = self.step_increments()
        w = np.zeros((1, self.dim))
        w.setflags(write=False)
        yield w
        for _ in range(self.steps):
            w = np.repeat(w, self.n_choices, axis=0)
            w.reshape(-1, self.n_choices, self.dim)[...] += inc[None, :, :]
            w.setflags(write=False)
            yield w

    def slice_probabilities(self, i: int) -> np.ndarray:
        """(n_i,) node probabilities at time index i, built on every call."""
        if self.mode == "full":
            n = self.node_count(i)
            return np.full(n, 1.0 / n)
        p = np.ones(1)
        for _ in range(self.dim):
            p = np.multiply.outer(p, _binomial_weights(i)).ravel()
        return p

    def paths(self, i: int, rows=None) -> np.ndarray:
        """(n, i+1, d) walk values at times 0..i along the paths to slice-i nodes.

        rows are the slice-i node indices, all of them in order by default.
        Node k's step-j choice is its digit (k >> d*(i-j)) & (2**d - 1), and
        the path adds the choices' increments in time order, the sums
        walk_slices makes, so the values carry its bits.  Full-path mode
        only; no walk slice is read.
        """
        if self.mode != "full":
            raise StructuralError("paths are not resolvable on a recombining lattice")
        k = np.arange(self.node_count(i)) if rows is None else np.asarray(rows, dtype=np.intp)
        inc = self.step_increments()
        out = np.empty((k.size, i + 1, self.dim))
        out[:, 0, :] = 0.0
        for j in range(1, i + 1):
            digit = (k >> (self.dim * (i - j))) & (self.n_choices - 1)
            out[:, j, :] = out[:, j - 1, :] + inc[digit]
        return out


def _binomial_weights(i: int) -> np.ndarray:
    """C(i, m) * 2**-i for m = 0..i, by the scaled recurrence (no overflow)."""
    w = np.empty(i + 1)
    w[0] = 0.5 ** i
    for m in range(i):
        w[m + 1] = w[m] * (i - m) / (m + 1.0)
    return w


def build_lattice(
    steps: int,
    dim: int = 1,
    horizon: float = 1.0,
    mode: str = "full",
    leaf_budget: Optional[int] = None,
) -> PathLattice:
    """Build a random-walk lattice over the uniform grid with the given shape.

    The last slice must hold at most leaf_budget nodes on either layout
    (None means the default, 2**20): 2**(dim*steps) leaves on the full one,
    (steps+1)**dim points on the recombining one.  Pass a larger budget
    explicitly to go beyond it.  GridError names steps, dim or leaf_budget
    if it is no integer (a bool is not one), where int() would truncate 2.7,
    and horizon if it is no real number (nor a bool), where float() would
    read the string "2".
    """
    grid = TimeGrid(horizon=_real("horizon", horizon), steps=_integer("steps", steps))
    lattice = PathLattice(grid, _integer("dim", dim), mode)
    budget = DEFAULT_LEAF_BUDGET if leaf_budget is None else _integer("leaf_budget", leaf_budget)
    leaves = lattice.node_count(lattice.steps)
    if leaves > budget:
        raise BudgetError(
            "lattice with steps=%d dim=%d mode=%s has %d leaf nodes; "
            "needs leaf_budget >= %d (default %d)"
            % (steps, dim, mode, leaves, leaves, DEFAULT_LEAF_BUDGET)
        )
    return lattice


def _integer(name: str, value) -> int:
    """value as a Python int; GridError unless it is an integer (numpy's too) and no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise GridError("%s must be an integer, got %r" % (name, value))
    return int(value)


def _real(name: str, value) -> float:
    """value as a Python float; GridError unless it is a real number (numpy's too) and no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise GridError("%s must be a real number, got %r" % (name, value))
    return float(value)


def gather_children(lattice: PathLattice, i: int, child_values: np.ndarray) -> np.ndarray:
    """(n_i, 2**d, ...) slice-(i+1) values arranged per parent, choices in sign-row order.

    Full-path mode returns a reshape view of the contiguous child blocks.
    Recombining mode copies the 2**d shifted (i+1)**d slices of the
    slice-(i+1) grid, the one under choice c offset by its down steps, into
    one new C-contiguous block of child_values' dtype.
    """
    n_next = lattice.node_count(i + 1)
    if child_values.shape[0] != n_next:
        raise StructuralError(
            "expected %d values on slice %d, got %d" % (n_next, i + 1, child_values.shape[0])
        )
    rest = child_values.shape[1:]
    if lattice.mode == "full":
        return child_values.reshape((-1, lattice.n_choices) + rest)
    grid = child_values.reshape((i + 2,) * lattice.dim + rest)
    out = np.empty(((i + 1) ** lattice.dim, lattice.n_choices) + rest, dtype=child_values.dtype)
    per_choice = out.reshape((i + 1,) * lattice.dim + (lattice.n_choices,) + rest)
    lead = (slice(None),) * lattice.dim
    for c, window in enumerate(_child_windows(lattice, i)):
        per_choice[lead + (c,)] = grid[window]
    return out


def _child_windows(lattice: PathLattice, i: int) -> list:
    """Per choice, in sign-row order, the index of its children in the recombining slice-(i+1)
    grid: choice c's children are the (i+1)**d window shifted by c's down steps."""
    return [tuple([slice(down, down + i + 1) for down in downs]) for downs in lattice._downs]


def _fold_columns(op, v: np.ndarray):
    """The ufunc op folded over 0.0 and the last-axis columns of v, in order, in place;
    a lone vector folds to a numpy scalar."""
    out = op(0.0, v[..., 0])
    into = out if v.ndim > 1 else None
    for j in range(1, v.shape[-1]):
        out = op(out, v[..., j], out=into)
    return out


def _sum_columns(v: np.ndarray) -> np.ndarray:
    """v.sum(axis=-1) of a float array, bit for bit, as whole-column adds.

    numpy sums a row of k <= 8 entries from 0.0: in sequence for k < 8, as
    the pairwise tree ((v0+v1)+(v2+v3))+((v4+v5)+(v6+v7)) for k = 8 when the
    last axis has the smallest stride.  Adding the k columns in that order
    gives the same bits (signed zeros, infinities and NaN included) without
    a reduction call over a short axis.  Other shapes fall back to numpy.
    """
    k = v.shape[-1]
    if 0 < k < 8:
        return _fold_columns(np.add, v)
    step = abs(v.strides[-1])
    if k == 8 and all(step < abs(st) for st, m in zip(v.strides[:-1], v.shape[:-1]) if m > 1):
        c = [v[..., j] for j in range(8)]
        return 0.0 + (((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7])))
    return v.sum(axis=-1)
