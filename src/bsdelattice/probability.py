"""Processes on the lattice and the change-of-measure machinery.

A process is a plain list of per-slice arrays in node order.  A left process
has a value at every node of slices 0..N, so N+1 slices (constant on
[t_i, t_{i+1}) pathwise); a predictable process has its step-(i+1) value
attached to the slice-i node that decides it, so N slices (constant on
(t_i, t_{i+1}]), which makes predictability structural: the value cannot vary
across the 2**d children of a node.  _check_slices checks either layout
where a caller-built list enters the package.

The change of measure for a control mu multiplies each one-step transition by
1 + mu . dW; admissibility is the strict positivity of these weights on every
edge.  The change is applied one step at a time, by tilted_expectation, on
either layout.
"""

from __future__ import annotations

import numpy as np

from .errors import AdmissibilityError, GridError, StructuralError
from .lattice import PathLattice, _sum_columns, gather_children


def _check_slices(lattice: PathLattice, slices, count: int) -> list:
    """list(slices); StructuralError unless it has count slices, slice i of node_count(i) rows."""
    slices = list(slices)
    if len(slices) != count:
        raise StructuralError("process needs %d slices, got %d" % (count, len(slices)))
    for i, arr in enumerate(slices):
        if len(arr) != lattice.node_count(i):
            raise StructuralError(
                "slice %d has %d values for %d nodes" % (i, len(arr), lattice.node_count(i))
            )
    return slices


# -- one-step conditional expectations ---------------------------------------


def _choice_mean(v: np.ndarray) -> np.ndarray:
    """v.mean(axis=1) of gathered (n_i, 2**d, ...) children, bit for bit.

    The choices are added column by column in numpy's reduction order
    (lattice._sum_columns) and the sum divided by 2**d, as numpy's mean does.
    """
    if v.ndim > 2:
        v = np.moveaxis(v, 1, -1)
    return _sum_columns(v) / v.shape[-1]


def conditional_expectation(lattice: PathLattice, i: int, child_values: np.ndarray) -> np.ndarray:
    """E[X | node] over one step: slice-(i+1) values down to slice i.

    The 2**d gathered children are added in numpy's reduction order, so the
    mean has the bits of .mean(axis=1) over the choices.
    """
    return _choice_mean(gather_children(lattice, i, child_values))


def tilted_expectation(
    lattice: PathLattice, i: int, child_values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """One-step mean of slice-(i+1) values reweighted by the (n_i, 2**d) edge weights.

    Summed over the choices like conditional_expectation.
    """
    return _choice_mean(gather_children(lattice, i, child_values) * weights)


def martingale_projection(lattice: PathLattice, i: int, child_values: np.ndarray):
    """Project slice-(i+1) scalar values onto their mean and walk part.

    Returns (mean, z) with mean shape (n_i,), as conditional_expectation
    gives it, and z shape (n_i, d) the conditional covariation with the
    increments divided by dt, a BLAS product of the contiguous child block
    with lattice.z_weights.  What is left over per edge is
    orthogonal_increments(lattice, i, child_values, z).
    """
    v = gather_children(lattice, i, child_values)
    if v.ndim != 2:
        raise StructuralError("martingale projection expects scalar slice values")
    return _choice_mean(v), v @ lattice.z_weights


def orthogonal_increments(
    lattice: PathLattice, i: int, child_values: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Per-edge remainder X - mean - z . dW of slice-(i+1) values, shape (n_i, 2**d).

    The mean is the one-step conditional mean, taken from the same gather.
    With the z of martingale_projection the remainder has conditional mean
    zero and is conditionally orthogonal to every increment component.
    """
    return _orthogonal_remainder(gather_children(lattice, i, child_values), z @ lattice.dw_weights)


def _orthogonal_remainder(children: np.ndarray, zdw: np.ndarray) -> np.ndarray:
    """children - their one-step mean - zdw, for gathered (n, 2**d) children and z . dW.

    Row by row, so a range of parents gets the bits of the whole slice.
    """
    out = children - _choice_mean(children)[:, None]
    out -= zdw
    return out


# -- controls ----------------------------------------------------------------


class ControlProcess:
    """A predictable d-vector control mu with its one-step edge weights.

    slices is a list of N arrays, slice i of shape (n_i, d): the control of
    step i+1 at its deciding node.  Weights are 1 + mu . dW per (parent node,
    choice), formed once with each step's minimum when the control is made;
    check_admissible raises AdmissibilityError naming the first offending
    path when any weight fails strict positivity.
    """

    def __init__(self, lattice: PathLattice, slices):
        self.slices = _check_slices(lattice, slices, lattice.steps)
        for i, arr in enumerate(self.slices):
            if arr.ndim != 2 or arr.shape[1] != lattice.dim:
                raise StructuralError(
                    "control slice %d must have shape (n_%d, %d)" % (i, i, lattice.dim)
                )
        self.lattice = lattice
        inc = lattice.step_increments()
        self._weights = [1.0 + mu @ inc.T for mu in self.slices]
        self._mins = [w.min() for w in self._weights]

    @classmethod
    def from_constant(cls, lattice: PathLattice, mu) -> "ControlProcess":
        mu = np.asarray(mu, dtype=float).reshape(-1)
        if mu.shape[0] != lattice.dim:
            raise GridError("constant control must have dimension %d" % lattice.dim)
        slices = [
            np.broadcast_to(mu, (lattice.node_count(i), lattice.dim)).copy()
            for i in range(lattice.steps)
        ]
        return cls(lattice, slices)

    def step_weights(self, i: int) -> np.ndarray:
        """(n_i, 2**d) edge weights 1 + mu . dW for step i+1."""
        return self._weights[i]

    def check_admissible(self):
        lat = self.lattice
        for i, (w, low) in enumerate(zip(self._weights, self._mins)):
            # the step's stored minimum (a NaN weight makes it NaN, which fails too)
            if not low > 0.0:
                k, c = map(int, np.argwhere(~(w > 0.0))[0])
                raise AdmissibilityError(
                    "control inadmissible at step %d: weight %.6g on edge %s -> %s "
                    "(needs mu . dW > -1 on every path)"
                    % (i + 1, float(w[k, c]), lat.sign_label(i, k), lat._choice_label(c))
                )

    def admissibility_margin(self) -> float:
        """min over all edges of 1 + mu . dW (admissible iff > 0); NaN if any weight is."""
        return float(np.min(self._mins))


# -- folds over slices -------------------------------------------------------


def difference_extremes(a_slices, b_slices):
    """(min, max) of a - b over every node of the paired slices, one slice at a time.

    numpy folds the per-slice extremes, so a NaN difference reaches both.
    Lists of different lengths raise ValueError.
    """
    lows, highs = [], []
    for a, b in zip(a_slices, b_slices, strict=True):
        d = a - b
        lows.append(np.min(d))
        highs.append(np.max(d))
    return float(np.min(lows)), float(np.max(highs))
