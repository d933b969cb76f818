import itertools
import math

import numpy as np
import pytest

from bsdelattice.errors import AdmissibilityError, StructuralError
from bsdelattice.lattice import build_lattice
from bsdelattice.probability import (
    AdaptedProcess,
    ControlProcess,
    conditional_expectation,
    conditional_expectation_under,
    density,
    drifted_walk_check,
    expectation_under_mu,
    left_process,
    martingale_projection,
    orthogonal_increments,
    predictable_process,
)


def test_process_shapes_validated():
    lat = build_lattice(2, dim=1)
    left_process(lat, [np.zeros(1), np.zeros(2), np.zeros(4)])
    predictable_process(lat, [np.zeros((1, 1)), np.zeros((2, 1))])
    with pytest.raises(StructuralError):
        left_process(lat, [np.zeros(1), np.zeros(2)])
    with pytest.raises(StructuralError):
        left_process(lat, [np.zeros(1), np.zeros(3), np.zeros(4)])


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


def test_density_two_step_example():
    lat = build_lattice(2, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])
    d = density(ctl)
    s = math.sqrt(0.5)
    assert d[0] == pytest.approx((1 + s) ** 2, abs=1e-12)
    assert d[3] == pytest.approx((1 - s) ** 2, abs=1e-12)
    assert d[1] == pytest.approx((1 + s) * (1 - s), abs=1e-12)
    assert d.min() > 0
    assert float(d @ lat.slice_probabilities(2)) == pytest.approx(1.0, abs=1e-14)


def test_density_matches_brute_product():
    rng = np.random.default_rng(3)
    lat = build_lattice(3, dim=2)
    mus = [rng.uniform(-0.4, 0.4, size=(lat.node_count(i), 2)) for i in range(3)]
    ctl = ControlProcess(predictable_process(lat, mus))
    d = density(ctl)
    inc = lat.step_increments()
    for leaf in range(lat.node_count(3)):
        prod = 1.0
        for j in range(1, 4):
            parent = lat.prefix_index(3, leaf, j - 1)
            choice = lat.prefix_index(3, leaf, j) % 4
            prod *= 1.0 + float(mus[j - 1][parent] @ inc[choice])
        assert d[leaf] == pytest.approx(prod, rel=1e-13)


def test_admissibility_error_names_path():
    lat = build_lattice(1, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])  # mu.dW = -1 on the down edge
    with pytest.raises(AdmissibilityError) as exc:
        density(ctl)
    assert "-" in str(exc.value)
    # the admissible side stays strictly positive
    ok = ControlProcess.from_constant(lat, [0.99])
    assert density(ok).min() > 0


def test_expectation_under_mu_drifted_endpoint():
    lat = build_lattice(2, dim=1)
    ctl = ControlProcess.from_constant(lat, [1.0])
    x = lat.walk_slice(2)[:, 0]
    # drift mu dt per step accumulates to mu * T
    assert expectation_under_mu(ctl, x) == pytest.approx(1.0, abs=1e-12)
    # conditional version at slice 1 agrees with the hand enumeration
    s = math.sqrt(0.5)
    cond = conditional_expectation_under(ctl, x, 1)
    # E^mu[W_2 | W_1 = w] = w + mu dt
    assert np.allclose(cond, [s + 0.5, -s + 0.5], atol=1e-12)


def test_expectation_under_zero_control_is_plain_expectation():
    rng = np.random.default_rng(9)
    lat = build_lattice(3, dim=2)
    ctl = ControlProcess.from_constant(lat, [0.0, 0.0])
    x = rng.normal(size=lat.node_count(3))
    got = conditional_expectation_under(ctl, x, 1)
    want = conditional_expectation(lat, 1, conditional_expectation(lat, 2, x))
    assert np.allclose(got, want, atol=1e-14)


def test_expectation_under_mu_brute_force():
    rng = np.random.default_rng(21)
    lat = build_lattice(3, dim=1)
    mus = [rng.uniform(-0.5, 0.5, size=(lat.node_count(i), 1)) for i in range(3)]
    ctl = ControlProcess(predictable_process(lat, mus))
    x = rng.normal(size=8)
    d = density(ctl)
    p = lat.slice_probabilities(3)
    want = float((d * x) @ p) / float(d @ p)
    assert expectation_under_mu(ctl, x) == pytest.approx(want, abs=1e-13)


def test_drifted_walk_check_passes_and_reports():
    lat = build_lattice(3, dim=2)
    rng = np.random.default_rng(2)
    mus = [rng.uniform(-0.3, 0.3, size=(lat.node_count(i), 2)) for i in range(3)]
    rep = drifted_walk_check(ControlProcess(predictable_process(lat, mus)))
    assert rep.passed
    assert rep.max_deviation <= 1e-12
    assert rep.density_mean == pytest.approx(1.0, abs=1e-12)


def test_full_path_only_operations():
    lat = build_lattice(3, dim=1, mode="recombining")
    ctl = ControlProcess.from_constant(lat, [0.1])
    with pytest.raises(StructuralError):
        density(ctl)
    with pytest.raises(StructuralError):
        drifted_walk_check(ctl)


def test_admissibility_margin_keeps_a_nan():
    lat = build_lattice(3, dim=1)
    slices = [np.full((lat.node_count(i), 1), 0.2) for i in range(3)]
    slices[1][0, 0] = math.nan
    assert math.isnan(ControlProcess(predictable_process(lat, slices)).admissibility_margin())


def test_adapted_process_value_and_norm():
    lat = build_lattice(2, dim=1)
    p = left_process(lat, [np.array([1.0]), np.array([2.0, -3.0]), np.zeros(4)])
    assert p.value((1, 1)) == -3.0
    assert p.sup_norm() == 3.0


def test_sup_norm_keeps_a_nan():
    # behind finite slices, where a running max() would drop it
    lat = build_lattice(3, dim=1)
    slices = [np.ones(lat.node_count(i)) for i in range(4)]
    slices[2][1] = math.nan
    assert math.isnan(left_process(lat, slices).sup_norm())
