import itertools
import math
import re

import numpy as np
import pytest

from bsdelattice.drivers import make_driver, make_terminal
from bsdelattice.errors import AdmissibilityError, StructuralError
from bsdelattice.lattice import build_lattice, gather_children
from bsdelattice.duality import dual_value, duality_gap, export_duality_csv, optimal_control
from bsdelattice.probability import (
    ControlProcess,
    _check_slices,
    conditional_expectation,
    martingale_projection,
    orthogonal_increments,
    tilted_expectation,
)
from bsdelattice.solver import SolutionTriple, solve_backward

import oracles


def test_process_shapes_validated():
    lat = build_lattice(2, dim=1)
    _check_slices(lat, [np.zeros(1), np.zeros(2), np.zeros(4)], 3)
    _check_slices(lat, [np.zeros((1, 1)), np.zeros((2, 1))], 2)
    with pytest.raises(StructuralError):
        _check_slices(lat, [np.zeros(1), np.zeros(2)], 3)
    with pytest.raises(StructuralError):
        _check_slices(lat, [np.zeros(1), np.zeros(3), np.zeros(4)], 3)


# each place a caller-built list of slices enters the package, given a list
# of the wrong length or with a wrong node count: zip used to truncate a
# short candidate, and a length-1 slice broadcast against every node
_ENTRIES = {
    "solution-Y-of-N-slices": (
        lambda lat, sol, ctl, cand: SolutionTriple(lat, sol.Y[:-1], sol.Z),
        "process needs 4 slices, got 3",
    ),
    "solution-wrong-node-count": (
        lambda lat, sol, ctl, cand: SolutionTriple(lat, sol.Y[:2] + [np.zeros(3), sol.Y[3]], sol.Z),
        "slice 2 has 3 values for 4 nodes",
    ),
    "control-of-N+1-slices": (
        lambda lat, sol, ctl, cand: ControlProcess(lat, ctl.slices + [np.zeros((8, 1))]),
        "process needs 3 slices, got 4",
    ),
    "gap-short-candidate": (
        lambda lat, sol, ctl, cand: duality_gap(sol, cand[:-1], ctl),
        "process needs 4 slices, got 3",
    ),
    "gap-length-1-slices": (
        lambda lat, sol, ctl, cand: duality_gap(sol, [r[:1] for r in cand], ctl),
        "slice 1 has 1 values for 2 nodes",
    ),
    "export-short-candidate": (
        lambda lat, sol, ctl, cand: export_duality_csv(sol, cand[:-1], ctl, _Unwritable()),
        "process needs 4 slices, got 3",
    ),
    # a slice of the right node count but the wrong shape: a column candidate
    # broadcast its gaps to (n_i, n_i), and a 1-D Z was kept
    "gap-column-slices": (
        lambda lat, sol, ctl, cand: duality_gap(sol, [r[:, None] for r in cand], ctl),
        "slice 0 must have shape (n_0,)",
    ),
    "export-column-slices": (
        lambda lat, sol, ctl, cand: export_duality_csv(sol, [r[:, None] for r in cand], ctl, _Unwritable()),
        "slice 0 must have shape (n_0,)",
    ),
    "solution-1-d-Z": (
        lambda lat, sol, ctl, cand: SolutionTriple(lat, sol.Y, [z[:, 0] for z in sol.Z]),
        "slice 0 must have shape (n_0, 1)",
    ),
}


class _Unwritable:
    """A binary sink that fails any write: a refused export writes no byte."""

    def write(self, data):
        raise AssertionError("wrote %r before refusing" % data)


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_each_entry_checks_a_caller_built_list_of_slices(entry):
    call, message = _ENTRIES[entry]
    lat = build_lattice(3, dim=1)
    f = make_driver("linear:1,1")
    sol = solve_backward(lat, f, make_terminal("endpoint"))
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, sol.Y[-1], control)
    with pytest.raises(StructuralError) as err:
        call(lat, sol, control, cand)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "mode, steps, dim",
    [("full", 4, 1), ("full", 3, 2), ("full", 2, 3), ("recombining", 9, 1),
     ("recombining", 6, 2), ("recombining", 4, 3)],
)
def test_one_step_means_have_the_bits_of_numpy_reductions(mode, steps, dim):
    # the column-by-column means against the formulas they replaced
    rng = np.random.default_rng(steps * dim)
    lat = build_lattice(steps, dim=dim, mode=mode)
    signs, sq = lat.signs, lat.grid.sqrt_dt
    for i in range(steps):
        n_next = lat.node_count(i + 1)
        v = rng.normal(size=n_next) * 10.0 ** rng.integers(-8, 8, n_next)
        v[rng.random(n_next) < 0.2] = -0.0
        kids = gather_children(lat, i, v)
        mean, z = martingale_projection(lat, i, v)
        assert mean.tobytes() == kids.mean(axis=1).tobytes()
        assert z.tobytes() == (kids @ (signs / (lat.n_choices * sq))).tobytes()
        assert conditional_expectation(lat, i, v).tobytes() == mean.tobytes()
        w = 1.0 + rng.uniform(-0.5, 0.5, kids.shape)
        assert tilted_expectation(lat, i, v, w).tobytes() == (kids * w).mean(axis=1).tobytes()
        dm = orthogonal_increments(lat, i, v, z)
        want = kids - kids.mean(axis=1)[:, None] - z @ (signs.T * sq)
        assert dm.tobytes() == want.tobytes()
        # trailing axes: the mean runs over the choice axis, not the last one
        walk = lat.walk_slice(i + 1)
        got = conditional_expectation(lat, i, walk)
        assert got.tobytes() == gather_children(lat, i, walk).mean(axis=1).tobytes()


def test_conditional_expectation_matches_enumeration():
    rng = np.random.default_rng(11)
    lat = build_lattice(3, dim=2)
    v = rng.normal(size=lat.node_count(3))
    got = conditional_expectation(lat, 2, v)
    for k in range(lat.node_count(2)):
        assert got[k] == pytest.approx(v[4 * k : 4 * k + 4].mean(), abs=1e-14)


def test_conditional_expectation_recombining():
    lat = build_lattice(3, dim=1, mode="recombining")
    v = np.arange(4.0)  # values keyed by down-count at slice 3
    got = conditional_expectation(lat, 2, v)
    # parent with m downs branches to children m and m+1
    assert np.allclose(got, [0.5, 1.5, 2.5])


def test_martingale_projection_reconstructs_exactly():
    rng = np.random.default_rng(5)
    for dim in (1, 2):
        lat = build_lattice(3, dim=dim)
        v = rng.normal(size=lat.node_count(3))
        mean, z = martingale_projection(lat, 2, v)
        dm = orthogonal_increments(lat, 2, v, z)
        inc = lat.step_increments()
        recon = mean[:, None] + z @ inc.T + dm
        assert np.allclose(recon.ravel(), v, atol=1e-14)
        # conditional mean zero and orthogonality to each increment component
        assert np.max(np.abs(dm.mean(axis=1))) < 1e-14
        for k in range(dim):
            assert np.max(np.abs((dm * inc[:, k][None, :]).mean(axis=1))) < 1e-14


def test_martingale_projection_z_formula():
    # d=1: z = (up child - down child) / (2 sqrt(dt))
    lat = build_lattice(1, dim=1, horizon=0.25)
    v = np.array([3.0, 1.0])
    mean, z = martingale_projection(lat, 0, v)
    assert mean[0] == 2.0
    assert z[0, 0] == pytest.approx((3.0 - 1.0) / (2 * 0.5))
    assert np.allclose(orthogonal_increments(lat, 0, v, z), 0.0)


def _leaf_densities(lat, ctl):
    """Reference per-leaf densities of the control, keyed by choice tuple."""
    return {
        leaf: oracles.leaf_density(leaf, ctl.slices, lat.dim, lat.grid.dt)
        for leaf in itertools.product(range(lat.n_choices), repeat=lat.steps)
    }


def _weight_products(ctl):
    """Per-leaf products of the package's step weights, in leaf order."""
    d = np.ones(1)
    for i in range(ctl.lattice.steps):
        d = (d[:, None] * ctl.step_weights(i)).ravel()
    return d


def test_density_two_step_example():
    lat = build_lattice(2, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])
    d = _leaf_densities(lat, ctl)
    s = math.sqrt(0.5)
    assert d[(0, 0)] == pytest.approx((1 + s) ** 2, abs=1e-12)
    assert d[(1, 1)] == pytest.approx((1 - s) ** 2, abs=1e-12)
    assert d[(0, 1)] == pytest.approx((1 + s) * (1 - s), abs=1e-12)
    assert min(d.values()) > 0
    assert sum(d.values()) / 4 == pytest.approx(1.0, abs=1e-14)


def test_density_matches_brute_product():
    # the reference density, from path signs and control rows, against the
    # package's edge weights multiplied along each path
    rng = np.random.default_rng(3)
    lat = build_lattice(3, dim=2)
    mus = [rng.uniform(-0.4, 0.4, size=(lat.node_count(i), 2)) for i in range(3)]
    ctl = ControlProcess(lat, mus)
    want = _leaf_densities(lat, ctl)
    got = _weight_products(ctl)
    for leaf, dens in want.items():
        assert got[oracles.node_index(leaf, 2)] == pytest.approx(dens, rel=1e-13)


def test_admissibility_error_names_path():
    lat = build_lattice(1, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])  # mu.dW = -1 on the down edge
    with pytest.raises(AdmissibilityError) as exc:
        ctl.check_admissible()
    assert "-" in str(exc.value)
    # the admissible side stays strictly positive
    ok = ControlProcess.from_constant(lat, [0.99])
    ok.check_admissible()
    assert ok.admissibility_margin() > 0


def test_admissibility_error_names_the_first_bad_edge_of_a_later_slice():
    # slices 0 and 1 pass; in slice 2 node 5 fails on its down-first edges, node 9 too
    lat = build_lattice(3, dim=2)
    mus = [np.full((lat.node_count(i), 2), 0.1) for i in range(3)]
    mus[2][5] = [2.0, 0.0]
    mus[2][9] = [-2.0, 0.0]
    with pytest.raises(AdmissibilityError, match=re.escape("step 3: weight -0.154701 on edge (+-,+-) -> -+ ")):
        ControlProcess(lat, mus).check_admissible()


def test_nan_weight_is_inadmissible():
    lat = build_lattice(3, dim=2)
    mus = [np.full((lat.node_count(i), 2), 0.1) for i in range(3)]
    mus[1][2] = [np.nan, 0.0]
    mus[2][5] = [2.0, 0.0]  # a later slice's bad edge is not the one named
    with pytest.raises(AdmissibilityError, match=re.escape("step 2: weight nan on edge (-+) -> ++ ")):
        ControlProcess(lat, mus).check_admissible()


def test_expectation_under_mu_drifted_endpoint():
    lat = build_lattice(2, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])
    x = lat.walk_slice(2)[:, 0]
    cond = tilted_expectation(lat, 1, x, ctl.step_weights(1))
    # E^mu[W_2 | W_1 = w] = w + mu dt
    s = math.sqrt(0.5)
    assert np.allclose(cond, [s + 0.5, -s + 0.5], atol=1e-12)
    # drift mu dt per step accumulates to mu * T
    root = tilted_expectation(lat, 0, cond, ctl.step_weights(0))
    assert root[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_under_zero_control_is_plain_expectation():
    rng = np.random.default_rng(9)
    lat = build_lattice(3, dim=2)
    ctl = ControlProcess.from_constant(lat, [0.0, 0.0])
    x = rng.normal(size=lat.node_count(3))
    got = tilted_expectation(lat, 2, x, ctl.step_weights(2))
    got = tilted_expectation(lat, 1, got, ctl.step_weights(1))
    want = conditional_expectation(lat, 1, conditional_expectation(lat, 2, x))
    assert np.allclose(got, want, atol=1e-14)


def test_expectation_under_mu_brute_force():
    # tilted one-step means, chained back, against density ratios over the leaves
    rng = np.random.default_rng(21)
    lat = build_lattice(3, dim=1)
    mus = [rng.uniform(-0.5, 0.5, size=(lat.node_count(i), 1)) for i in range(3)]
    ctl = ControlProcess(lat, mus)
    x = rng.normal(size=8)
    got = x
    for i in range(2, -1, -1):
        got = tilted_expectation(lat, i, got, ctl.step_weights(i))
    dens = _leaf_densities(lat, ctl)
    values = {leaf: x[oracles.node_index(leaf, 1)] for leaf in dens}
    want = oracles.expectation_under(values, dens, (), 3, 1)
    assert got[0] == pytest.approx(want, abs=1e-13)


def test_step_weights_drift_the_walk_by_mu_dt():
    # Girsanov on the lattice: under the reweighted kernel W - int mu dt is a
    # martingale, and the weights multiply to a density of mean one
    lat = build_lattice(3, dim=2)
    rng = np.random.default_rng(2)
    mus = [rng.uniform(-0.3, 0.3, size=(lat.node_count(i), 2)) for i in range(3)]
    ctl = ControlProcess(lat, mus)
    inc = lat.step_increments()
    for i in range(lat.steps):
        w = ctl.step_weights(i)
        assert np.max(np.abs(w.mean(axis=1) - 1.0)) <= 1e-15
        drift = (w @ inc) / lat.n_choices
        assert np.max(np.abs(drift - mus[i] * lat.grid.dt)) <= 1e-15
    dens = _weight_products(ctl)
    assert dens.min() > 0
    assert float(dens @ lat.slice_probabilities(3)) == pytest.approx(1.0, abs=1e-14)


def test_full_path_only_operations():
    # per-path quantities are refused on a recombining lattice
    lat = build_lattice(3, dim=1, mode="recombining")
    with pytest.raises(StructuralError):
        lat.paths(lat.steps)


def test_admissibility_margin_keeps_a_nan():
    lat = build_lattice(3, dim=1)
    slices = [np.full((lat.node_count(i), 1), 0.2) for i in range(3)]
    slices[1][0, 0] = math.nan
    assert math.isnan(ControlProcess(lat, slices).admissibility_margin())
