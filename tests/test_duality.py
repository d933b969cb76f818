"""Dual candidates, subgradient controls, and gap reports."""

import dataclasses
import io
import math
from itertools import product

import numpy as np
import pytest

from bsdelattice.drivers import (
    DriverSpec,
    conjugate,
    make_driver,
    make_terminal,
    scale_terminal,
    shift_terminal,
)
from bsdelattice.duality import (
    comparison_minimum,
    dual_value,
    duality_gap,
    duality_summary,
    export_duality_csv,
    optimal_control,
    random_admissible_control,
)
from bsdelattice.errors import (
    AdmissibilityError,
    ConvergenceError,
    OptimizerAdmissibilityError,
    StructuralError,
)
from bsdelattice.lattice import build_lattice
from bsdelattice.probability import (
    ControlProcess,
    tilted_expectation,
)
from bsdelattice.solver import solve_backward, terminal_values

import oracles


def _solve(driver, terminal, steps, dim=1, mode="full"):
    lat = build_lattice(steps, dim=dim, mode=mode)
    f = make_driver(driver)
    phi = make_terminal(terminal)
    return lat, f, phi, solve_backward(lat, f, phi)


def test_two_step_quadratic_strong_duality_frozen():
    lat, f, phi, sol = _solve("quadratic", "endpoint", 2)
    control = optimal_control(sol, f)
    for sl in control.slices:
        assert np.allclose(sl, 1.0, atol=1e-13)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    s = math.sqrt(0.5)
    assert cand[0][0] == pytest.approx(0.5, abs=1e-13)
    assert cand[1] == pytest.approx([s + 0.25, -s + 0.25], abs=1e-13)
    rep = duality_gap(sol, cand, control)
    assert abs(rep.root_gap) <= 1e-12
    assert rep.min_gap >= -1e-12
    assert rep.margin == pytest.approx(1.0 - s, abs=1e-13)
    assert duality_summary(rep)["weakly_consistent"]


def test_one_step_subgradient_control_is_rejected():
    lat, f, phi, sol = _solve("quadratic", "endpoint", 1)
    with pytest.raises(OptimizerAdmissibilityError) as err:
        optimal_control(sol, f)
    assert err.value.required_steps == 2


@pytest.mark.parametrize(
    "driver,terminal,steps,mode",
    [
        ("abs", "endpoint", 6, "full"),
        ("exp", "endpoint", 8, "full"),
        ("quartic", "endpoint", 18, "recombining"),
    ],
)
def test_strong_duality_at_subgradient_control(driver, terminal, steps, mode):
    lat, f, phi, sol = _solve(driver, terminal, steps, mode=mode)
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    rep = duality_gap(sol, cand, control)
    assert rep.min_gap >= -1e-9
    assert abs(rep.root_gap) <= 1e-9
    assert rep.margin > 0.0


def test_weak_duality_over_random_controls():
    rng = np.random.default_rng(111)
    for driver, terminal, steps in [
        ("quadratic", "maxpath", 5),
        ("exp", "digital", 4),
        ("quartic", "clipped-endpoint", 4),
    ]:
        lat, f, phi, sol = _solve(driver, terminal, steps)
        for _ in range(32):
            control = random_admissible_control(lat, rng)
            cand = dual_value(lat, f, terminal_values(lat, phi), control)
            rep = duality_gap(sol, cand, control)
            assert rep.min_gap >= -1e-9, (driver, terminal, rep.min_gap)


def test_weak_duality_y_dependent_driver():
    rng = np.random.default_rng(7)
    lat, f, phi, sol = _solve("linear:0.3,1", "clipped-endpoint", 8)
    for _ in range(16):
        control = random_admissible_control(lat, rng, cap=0.95)
        cand = dual_value(lat, f, terminal_values(lat, phi), control)
        rep = duality_gap(sol, cand, control)
        assert rep.min_gap >= -1e-9
    # the subgradient tilt closes the gap even with y in the driver
    star = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), star)
    rep = duality_gap(sol, cand, star)
    assert rep.min_gap >= -1e-9
    assert abs(rep.root_gap) <= 1e-9
    # with a constant terminal the control term is negligible and the zero
    # tilt matches the primal recursion to rounding
    lat2, f2, phi2, sol2 = _solve("linear:0.3,1", "const:1", 8)
    zero = ControlProcess(lat2, [np.zeros((lat2.node_count(i), 1)) for i in range(lat2.steps)])
    cand2 = dual_value(lat2, f2, terminal_values(lat2, phi2), zero)
    rep2 = duality_gap(sol2, cand2, zero)
    assert abs(rep2.root_gap) <= 1e-12
    assert rep2.max_gap <= 1e-12


def test_numeric_conjugate_route_closes_gap():
    lat = build_lattice(4, dim=1)
    f = make_driver("quartic")
    phi = scale_terminal(make_terminal("endpoint"), 0.25)
    sol = solve_backward(lat, f, phi)
    control = optimal_control(sol, f)
    # without a closed form the dual takes the search-based conjugate
    cand = dual_value(
        lat, dataclasses.replace(f, conjugate_at=None), terminal_values(lat, phi), control
    )
    rep = duality_gap(sol, cand, control)
    assert rep.min_gap >= -1e-6
    assert abs(rep.root_gap) <= 1e-6


@pytest.mark.parametrize("steps,dim", [(6, 1), (4, 2)])
def test_abs_dual_is_the_density_ratio_expectation(steps, dim):
    # |mu| <= 1 makes the abs conjugate 0, so the candidate is E^mu[xi | node],
    # here against ratios of per-path densities summed over the leaves
    lat, f, phi, _ = _solve("abs", "maxpath", steps, dim)
    dt = lat.grid.dt
    rng = np.random.default_rng(17)
    paths = list(product(range(2 ** dim), repeat=steps))
    xi = {leaf: max(math.hypot(*p) for p in oracles.walk_path(leaf, dim, dt)) for leaf in paths}
    for _ in range(4):
        control = random_admissible_control(lat, rng, cap=1.0 / math.sqrt(dim))
        cand = dual_value(lat, f, terminal_values(lat, phi), control)
        dens = {
            leaf: oracles.leaf_density(leaf, control.slices, dim, dt) for leaf in paths
        }
        worst = 0.0
        for i in range(steps + 1):
            for node in product(range(2 ** dim), repeat=i):
                want = oracles.expectation_under(xi, dens, node, steps, dim)
                got = cand[i][oracles.node_index(node, dim)]
                worst = max(worst, abs(got - want))
        assert worst <= 1e-13


def test_dual_closes_on_a_time_varying_driver():
    # f = (1+t)|z|^2/2 on the endpoint terminal has z = 1 everywhere, so the
    # root is sum_i (1 + t_{i+1}) dt / 2 = 25/32 on N = 8; the conjugate is
    # taken at t_{i+1} like the driver, so the subgradient tilt closes the gap
    f = DriverSpec(
        name="(1+t)|z|^2/2",
        at=lambda t, w, z: lambda y: 0.5 * (1.0 + t) * np.sum(np.asarray(z) ** 2, axis=-1),
        lipschitz_wy=0.0,
        conjugate_at=lambda t, w, mu: lambda y: np.sum(np.asarray(mu) ** 2, axis=-1)
        / (2.0 * (1.0 + t)),
        analytic_subgradient=lambda t, w, y, z: (1.0 + t) * np.asarray(z, dtype=float),
    )
    lat = build_lattice(8, dim=1)
    phi = make_terminal("endpoint")
    sol = solve_backward(lat, f, phi)
    assert sol.y0 == 0.78125
    control = optimal_control(sol, f)
    assert abs(
        duality_gap(sol, dual_value(lat, f, terminal_values(lat, phi), control), control).root_gap
    ) <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(4):
        control = random_admissible_control(lat, rng)
        assert (
            duality_gap(sol, dual_value(lat, f, terminal_values(lat, phi), control), control).min_gap
            >= -1e-9
        )


def test_unbounded_conjugate_floods_candidate_with_minus_inf():
    lat, f, phi, sol = _solve("abs", "endpoint", 4)
    mu = [np.full((lat.node_count(i), 1), 1.5) for i in range(lat.steps)]
    control = ControlProcess(lat, mu)
    assert control.admissibility_margin() > 0.0
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    assert np.isneginf(cand[0][0])
    rep = duality_gap(sol, cand, control)
    assert rep.min_gap >= -1e-9
    assert math.isinf(rep.root_gap)


def test_dual_bisection_rescues_a_truncated_fixed_point():
    # the dual step shares the solve's implicit solver, bisection included
    lat, f, phi, sol = _solve("linear:1,1", "maxpath", 8)
    control = optimal_control(sol, f)
    ref = dual_value(lat, f, terminal_values(lat, phi), control)
    got = dual_value(lat, f, terminal_values(lat, phi), control, max_iter=2)
    for a, b in zip(got, ref):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_dual_value_rejects_inadmissible_control():
    lat, f, phi, _ = _solve("quadratic", "endpoint", 2)
    mu = [np.full((lat.node_count(i), 1), 2.0) for i in range(lat.steps)]
    with pytest.raises(AdmissibilityError):
        dual_value(lat, f, terminal_values(lat, phi), ControlProcess(lat, mu))


def test_comparison_minimum_constant_shift():
    lat = build_lattice(5, dim=1)
    f = make_driver("quadratic")
    low = solve_backward(lat, f, make_terminal("maxpath"))
    high = solve_backward(lat, f, shift_terminal(make_terminal("maxpath"), 0.3))
    gap = comparison_minimum(low, high)
    assert gap == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("slice_index", [0, 2])
def test_comparison_minimum_keeps_a_nan(slice_index):
    *_, low = _solve("abs", "endpoint", 3)
    *_, high = _solve("abs", "endpoint", 3)
    high.Y[slice_index][-1] = math.nan
    assert math.isnan(comparison_minimum(low, high))


def test_comparison_minimum_refuses_solutions_of_different_step_counts():
    # zip stopped at the shorter list: N=4 against N=6 compared five slices
    *_, low = _solve("quadratic", "endpoint", 4)
    *_, high = _solve("quadratic", "endpoint", 6)
    with pytest.raises(ValueError):
        comparison_minimum(low, high)


def test_duality_csv_layout_and_determinism():
    lat, f, phi, sol = _solve("quadratic", "endpoint", 2)
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    buf = io.BytesIO()
    export_duality_csv(sol, cand, control, buf)
    text = buf.getvalue().decode()
    lines = text.strip().split("\n")
    assert lines[0] == "node_id,primal,dual,gap,margin"
    assert len(lines) == 1 + 1 + 2 + 4
    first = lines[1].split(",")
    assert first[0] == "0:0"
    assert float(first[1]) == pytest.approx(0.5, abs=1e-13)
    assert float(first[3]) == pytest.approx(0.0, abs=1e-12)
    last = lines[-1].split(",")
    assert last[0] == "2:3" and last[4] == ""
    buf2 = io.BytesIO()
    export_duality_csv(sol, cand, control, buf2)
    assert buf2.getvalue().decode() == text


@pytest.mark.parametrize(
    "mode,steps,dim", [("full", 11, 1), ("full", 5, 2), ("recombining", 60, 1), ("recombining", 30, 2)]
)
def test_duality_csv_matches_per_row_writer(mode, steps, dim):
    # full N=11 has 4095 rows, in blocks that span slices
    terminal = "endpoint" if mode == "full" else "clipped-endpoint"
    lat, f, phi, sol = _solve("linear:1,1", terminal, steps, dim, mode)
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    got, want = io.BytesIO(), io.StringIO()
    export_duality_csv(sol, cand, control, got)
    oracles.per_row_duality_csv(sol, cand, control, want)
    assert oracles.first_difference(got.getvalue().decode(), want.getvalue()) is None


def test_maxpath_duality_csv_matches_per_row_writer():
    # full N=11: the running-max terminal repeats values across blocks
    lat, f, phi, sol = _solve("linear:1,1", "maxpath", 11)
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    got, want = io.BytesIO(), io.StringIO()
    export_duality_csv(sol, cand, control, got)
    oracles.per_row_duality_csv(sol, cand, control, want)
    assert oracles.first_difference(got.getvalue().decode(), want.getvalue()) is None


@pytest.mark.parametrize("driver", ["linear:1,1", "quadratic"])
def test_nan_terminal_dual_value_raises(driver):
    lat = build_lattice(4, dim=1)
    control = random_admissible_control(lat, np.random.default_rng(3))
    with pytest.raises(ConvergenceError, match=r"slice 3: the tilted expectation is NaN .*first node 0"):
        dual_value(
            lat, make_driver(driver), terminal_values(lat, make_terminal("const:nan")), control
        )


def test_nan_below_the_terminal_slice_names_its_slice_and_first_node():
    # finite except for +-inf leaves: the parents' means or conjugates are NaN
    lat = build_lattice(3, dim=1)
    zero = ControlProcess.from_constant(lat, [0.0])
    xi = np.zeros(8)
    xi[[4, 6]], xi[[5, 7]] = -np.inf, np.inf
    with pytest.raises(
        ConvergenceError,
        match=r"slice 2: the tilted expectation is NaN at 2 node\(s\), first node 2$",
    ):
        dual_value(lat, make_driver("linear:1,1"), xi, zero)
    xi = np.zeros(8)
    xi[[3, 7]] = np.inf  # -a - 0 * |inf| is NaN
    with pytest.raises(
        ConvergenceError, match=r"slice 2: the conjugate is NaN at 2 node\(s\), first node 1$"
    ):
        dual_value(lat, make_driver("linear:1,0"), xi, zero)
    # a y-free step checks its conjugate like any other step
    with pytest.raises(
        ConvergenceError, match=r"slice 2: the conjugate is NaN at 4 node\(s\), first node 0$"
    ):
        dual_value(lat, make_driver("constant:nan"), np.zeros(8), zero)


@pytest.mark.parametrize("size", [7, 9])
def test_dual_value_refuses_a_terminal_slice_of_the_wrong_length(size):
    lat, f, phi, sol = _solve("linear:1,1", "endpoint", 3)
    with pytest.raises(StructuralError, match="8 terminal nodes"):
        dual_value(lat, f, np.zeros(size), optimal_control(sol, f))


def test_candidates_share_the_terminal_slice_and_leave_it_unwritten():
    lat, f, phi, sol = _solve("linear:1,1", "maxpath", 6)
    xi = sol.Y[-1]
    kept = xi.copy()
    rng = np.random.default_rng(4)
    for control in [optimal_control(sol, f)] + [random_admissible_control(lat, rng) for _ in range(3)]:
        assert dual_value(lat, f, xi, control)[-1] is xi
    assert np.array_equal(xi, kept)
    assert np.array_equal(xi, terminal_values(lat, phi))


def test_unbounded_conjugate_stays_a_value():
    lat, f, phi, sol = _solve("abs", "endpoint", 3)
    # |mu| > 1 is outside the domain of the abs conjugate: -inf, not an error
    control = ControlProcess(lat, [np.full((lat.node_count(i), 1), 1.2) for i in range(3)])
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    assert np.all(cand[0] == -np.inf)
    assert duality_gap(sol, cand, control).weakly_consistent


def test_nan_gap_is_never_weakly_consistent():
    lat, f, phi, sol = _solve("linear:1,1", "maxpath", 4)
    control = optimal_control(sol, f)
    slices = [s.copy() for s in dual_value(lat, f, terminal_values(lat, phi), control)]
    slices[2][1] = np.nan
    report = duality_gap(sol, slices, control)
    assert math.isnan(report.min_gap) and math.isnan(report.max_gap)
    assert not report.weakly_consistent


def test_minus_inf_mean_at_a_finite_domain_control_stays_minus_inf():
    # |mu| = 1.2 > b on slice 3 sends it to -inf; below, mu = 0.5 is in the
    # conjugate's domain, but the mean is -inf and -a - b|y| is -inf there too
    lat, f, phi, _ = _solve("linear:1,1", "endpoint", 4)
    mu = [np.full((lat.node_count(i), 1), 1.2 if i == 3 else 0.5) for i in range(4)]
    cand = dual_value(
        lat, f, terminal_values(lat, phi), ControlProcess(lat, mu)
    )
    for i in range(4):
        assert np.all(cand[i] == -np.inf), i


@pytest.mark.parametrize(
    "driver,terminal,steps", [("quadratic", "maxpath", 6), ("abs", "endpoint", 5)]
)
def test_numeric_subgradient_control_matches_the_closed_form(driver, terminal, steps):
    lat, f, phi, sol = _solve(driver, terminal, steps)
    closed = optimal_control(sol, f)
    numeric = optimal_control(sol, dataclasses.replace(f, analytic_subgradient=None))
    for a, b in zip(numeric.slices, closed.slices):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_dual_closes_on_a_path_dependent_driver_without_closed_forms():
    # no closed conjugate or subgradient: both go node by node with w[k]
    f = DriverSpec(
        name="|z|^2/2 + tanh(w)/10",
        at=lambda t, w, z: lambda y: 0.5 * np.sum(np.asarray(z) ** 2, axis=-1)
        + 0.1 * np.tanh(np.asarray(w)[..., -1, 0]),
        lipschitz_wy=0.1,
        w_dependence="path",
    )
    lat = build_lattice(4, dim=1)
    phi = make_terminal("endpoint")
    sol = solve_backward(lat, f, phi)
    control = optimal_control(sol, f)
    rep = duality_gap(sol, dual_value(lat, f, terminal_values(lat, phi), control), control)
    assert abs(rep.root_gap) <= 1e-9
    assert abs(rep.min_gap) <= 1e-9


@pytest.mark.parametrize("driver", ["zero", "constant:0.5", "quadratic", "quartic", "abs", "exp"])
@pytest.mark.parametrize("mode,steps,dim", [("full", 6, 1), ("full", 4, 2), ("recombining", 30, 1)])
def test_y_free_dual_is_the_explicit_recursion(driver, mode, steps, dim):
    # r_i = E^mu[r_{i+1}] - g(t_{i+1}, 0, mu_i) dt, bit for bit
    terminal = "endpoint" if mode == "full" else "clipped-endpoint"
    lat = build_lattice(steps, dim=dim, mode=mode)
    f, phi = make_driver(driver), make_terminal(terminal)
    rng = np.random.default_rng(23)
    for _ in range(2):
        control = random_admissible_control(lat, rng)
        got = dual_value(lat, f, terminal_values(lat, phi), control)
        r = terminal_values(lat, phi)
        for i in range(steps - 1, -1, -1):
            mu = control.slices[i]
            g = conjugate(f, lat.grid.time(i + 1), None, 0.0, mu)
            r = tilted_expectation(lat, i, r, control.step_weights(i)) - g * lat.grid.dt
            np.testing.assert_array_equal(got[i].view(np.uint64), r.view(np.uint64))
