"""Backward solver against enumeration oracles, exact values, and bounds."""

import io
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bsdelattice import drivers, solver
from bsdelattice.approximation import inf_convolution
from bsdelattice.drivers import (
    DriverSpec,
    TerminalFunctional,
    make_driver,
    make_terminal,
    scale_terminal,
    shift_terminal,
)
from bsdelattice.errors import ConvergenceError, GridError, StepSizeError, StructuralError
from bsdelattice.exact import QuadExt, exact_solve
from bsdelattice.lattice import TimeGrid, build_lattice
from bsdelattice.solver import (
    SolutionTriple,
    _dm_column,
    bmo_estimate,
    driver_context,
    export_solution_csv,
    solution_residuals,
    solution_summary,
    solve_backward,
    terminal_values,
    z_bound,
    z_bound_certificate,
)

import oracles

# a driver that declares it reads the path, and is zero
PATHY = DriverSpec(
    name="pathy",
    at=lambda t, w, z: lambda y: np.zeros(np.shape(z)[:-1]),
    lipschitz_wy=0.0,
    w_dependence="path",
)


def test_zero_driver_endpoint_reproduces_walk():
    lat = build_lattice(3, dim=2)
    sol = solve_backward(lat, make_driver("zero"), make_terminal("endpoint"))
    for i in range(4):
        walk = lat.walk_slice(i)
        assert np.allclose(sol.Y[i], walk[:, 0], atol=1e-13, rtol=0.0)
    for z in sol.Z:
        assert np.allclose(z[:, 0], 1.0, atol=1e-13)
        assert np.allclose(z[:, 1], 0.0, atol=1e-13)
    for i in range(lat.steps):
        assert np.max(np.abs(sol.dm(i))) < 1e-13


def test_constant_driver_shifts_conditional_mean():
    c = 0.7
    lat = build_lattice(4, dim=1)
    sol = solve_backward(lat, make_driver("constant:0.7"), make_terminal("maxpath"))
    dt = lat.grid.dt
    xi = {
        choices: max(
            math.hypot(*p) if len(p) > 1 else abs(p[0])
            for p in oracles.walk_path(choices, 1, dt)
        )
        for choices in product(range(2), repeat=4)
    }
    for i in range(5):
        for node in product(range(2), repeat=i):
            expected = oracles.conditional_mean(xi, node, 4, 1) + c * (1.0 - i * dt)
            got = sol.Y[i][oracles.node_index(node, 1)]
            assert got == pytest.approx(expected, abs=1e-12)


def test_quadratic_two_step_frozen_values():
    lat = build_lattice(2, dim=1)
    sol = solve_backward(lat, make_driver("quadratic"), make_terminal("endpoint"))
    s = math.sqrt(0.5)
    assert sol.y0 == pytest.approx(0.5, abs=1e-14)
    assert sol.Y[1] == pytest.approx([s + 0.25, -s + 0.25], abs=1e-14)
    for z in sol.Z:
        assert z[:, 0] == pytest.approx(1.0, abs=1e-13)
    for i in range(lat.steps):
        assert np.max(np.abs(sol.dm(i))) < 1e-13


def test_quadratic_two_step_exact_rational():
    ex = exact_solve(2, 1, 1, "quadratic", lambda path: path[-1][0])
    assert ex.y0.is_rational
    assert ex.y0.a == Fraction(1, 2)
    assert ex.Y[1][(0,)].a == Fraction(1, 4)
    assert ex.Y[1][(0,)].b == 1
    for sl in ex.Z:
        for zvec in sl.values():
            assert zvec[0] == 1
    lat = build_lattice(2, dim=1)
    sol = solve_backward(lat, make_driver("quadratic"), make_terminal("endpoint"))
    for i in range(3):
        for node in product(range(2), repeat=i):
            assert sol.Y[i][oracles.node_index(node, 1)] == pytest.approx(
                float(ex.Y[i][node]), abs=1e-14
            )


def test_quad_ext_sign_abs_and_order_are_exact():
    m = Fraction(1, 8)  # sqrt(m) = 0.35355...
    root = QuadExt(0, 1, m)
    for a in (Fraction(-3, 8), Fraction(-1, 3), 0, Fraction(1, 3), Fraction(3, 8)):
        for b in (-1, 0, 1):
            x = QuadExt(a, b, m)
            want = (float(x) > 0) - (float(x) < 0)
            assert x.sign() == want, (a, b)
            assert float(abs(x)) == abs(float(x))
    # a perfect-square radicand: 1 - 2 sqrt(1/4) is zero though neither part is
    assert QuadExt(1, -2, Fraction(1, 4)).sign() == 0
    assert Fraction(1, 3) < root < Fraction(3, 8) and root >= root and root <= 1
    assert max([QuadExt(Fraction(1, 3), 0, m), root, -root]) is root
    # a rational left operand takes the right one's radicand
    assert float(QuadExt(1) - root) == 1 - math.sqrt(1 / 8) and QuadExt(1) > root
    assert float(QuadExt(1) * root) == float(root) and float(QuadExt(1) / root) == math.sqrt(8)


@pytest.mark.parametrize("steps", [4, 8, 10])
@pytest.mark.parametrize(
    "terminal,phi",
    [("endpoint", lambda path: path[-1][0]), ("maxpath", lambda path: max(abs(w[0]) for w in path))],
)
def test_exact_linear_driver_certifies_the_implicit_step(steps, terminal, phi):
    # linear:1,1 is y-dependent: the float solve runs the fixed point, the exact one its closed form
    ex = exact_solve(steps, 1, 1, "linear:1,1", phi)
    sol = solve_backward(build_lattice(steps, dim=1), make_driver("linear:1,1"), make_terminal(terminal))
    assert abs(sol.y0 - float(ex.y0)) <= 1e-12


@pytest.mark.parametrize("m", [Fraction(1, 4), Fraction(1, 16)])
def test_quad_ext_equal_numbers_are_equal_over_a_square_radicand(m):
    # at N = 4 or 16 on [0, 1], 1 + 0 sqrt(dt) and 0 + (1/sqrt(dt)) sqrt(dt) compared unequal
    root = Fraction(1, 2) if m == Fraction(1, 4) else Fraction(1, 4)
    one, other = QuadExt(1, 0, m), QuadExt(0, 1 / root, m)
    assert (one - other).sign() == 0
    assert one == other and hash(one) == hash(other) and len({one, other}) == 1
    assert other.is_rational and other == 1 and hash(other) == hash(1)
    assert QuadExt(Fraction(1, 3), 5, m) == Fraction(1, 3) + 5 * root
    assert QuadExt(0, 1, m) * QuadExt(0, 1, m) == m
    # a radicand that is no square keeps its radical part
    assert QuadExt(0, 1, 2 * m).b == 1 and not QuadExt(0, 1, 2 * m).is_rational


def _w1_w2(paths):
    arr = np.asarray(paths, dtype=float)
    return arr[..., -1, 0] * arr[..., -1, 1]


def _maxpath_exact(path):
    return max(abs(w[0]) for w in path)


@pytest.mark.parametrize(
    "driver,steps,dim,terminal,phi",
    [
        ("abs", 4, 1, make_terminal("maxpath"), _maxpath_exact),
        ("abs", 8, 1, make_terminal("maxpath"), _maxpath_exact),
        ("quartic", 8, 1, make_terminal("maxpath"), _maxpath_exact),
        ("quartic", 3, 2, TerminalFunctional(name="w1-w2", evaluate=_w1_w2),
         lambda path: path[-1][0] * path[-1][1]),
    ],
    ids=["abs-N4", "abs-N8", "quartic-N8", "quartic-d2-N3"],
)
def test_exact_abs_and_quartic_certify_the_float_solve(driver, steps, dim, terminal, phi):
    ex = exact_solve(steps, dim, 1, driver, phi)
    sol = solve_backward(build_lattice(steps, dim=dim), make_driver(driver), terminal)
    assert abs(sol.y0 - float(ex.y0)) <= 1e-12


def test_exact_linear_driver_needs_one_dimension_and_a_small_step():
    with pytest.raises(GridError, match="d=1"):
        exact_solve(2, 2, 1, "linear:1,1", lambda path: 0)
    with pytest.raises(GridError, match="abs has an exact form in d=1 only"):
        exact_solve(2, 2, 1, "abs", lambda path: 0)
    with pytest.raises(GridError, match="b dt"):
        exact_solve(2, 1, 1, "linear:1,2", lambda path: 0)


def test_exact_rational_certifies_float_solver_deeper():
    ex = exact_solve(4, 1, 1, "quadratic", lambda path: path[-1][0])
    lat = build_lattice(4, dim=1)
    sol = solve_backward(lat, make_driver("quadratic"), make_terminal("endpoint"))
    assert sol.y0 == pytest.approx(float(ex.y0), abs=1e-13)
    ex2 = exact_solve(3, 2, 1, "constant:7/10", lambda path: path[-1][0] + path[-1][1])

    def phi(paths):
        arr = np.asarray(paths, dtype=float)
        return arr[..., -1, 0] + arr[..., -1, 1]

    term = TerminalFunctional(name="sum-endpoint", evaluate=phi, lipschitz=math.sqrt(2.0))
    sol2 = solve_backward(build_lattice(3, dim=2), make_driver("constant:0.7"), term)
    for i in range(4):
        for node in product(range(4), repeat=i):
            assert sol2.Y[i][oracles.node_index(node, 2)] == pytest.approx(
                float(ex2.Y[i][node]), abs=1e-13
            )


@pytest.mark.parametrize(
    "driver,terminal,steps,dim",
    [
        ("quadratic", "maxpath", 3, 1),
        ("exp", "digital", 3, 1),
        ("linear:0.5,0.8", "endpoint", 3, 2),
        ("abs", "clipped-endpoint", 4, 1),
    ],
)
def test_solver_matches_enumeration_oracle(driver, terminal, steps, dim):
    lat = build_lattice(steps, dim=dim)
    f = make_driver(driver)
    phi = make_terminal(terminal)
    sol = solve_backward(lat, f, phi)

    def f_o(t, w, y, z):
        zn = math.sqrt(sum(v * v for v in z))
        if driver == "quadratic":
            return 0.5 * zn * zn
        if driver == "exp":
            return math.expm1(zn)
        if driver == "abs":
            return zn
        a, b = 0.5, 0.8
        return a + b * (abs(y) + zn)

    def phi_o(path):
        if terminal == "maxpath":
            return max(math.sqrt(sum(v * v for v in p)) for p in path)
        if terminal == "digital":
            return 1.0 if path[-1][0] > 0.0 else 0.0
        if terminal == "clipped-endpoint":
            return min(1.0, max(-1.0, path[-1][0]))
        return path[-1][0]

    ref = oracles.brute_solve(steps, dim, 1.0, f_o, phi_o)
    for i in range(steps + 1):
        for node in product(range(2 ** dim), repeat=i):
            assert sol.Y[i][oracles.node_index(node, dim)] == pytest.approx(
                ref["Y"][node], abs=1e-12
            )
    for i in range(steps):
        for node in product(range(2 ** dim), repeat=i):
            got = sol.Z[i][oracles.node_index(node, dim)]
            assert got == pytest.approx(list(ref["Z"][node]), abs=1e-12)
    rep = solution_residuals(sol, f, phi)
    assert rep.passed, rep


def test_path_dependent_driver_sees_shifted_samples():
    def evaluate(t, w, y, z):
        arr = np.asarray(w, dtype=float)
        zn = np.sqrt((np.asarray(z, dtype=float) ** 2).sum(axis=-1))
        return arr[..., :, 0].mean(axis=-1) + 0.5 * zn

    f = DriverSpec(
        name="pathmean",
        at=lambda t, w, z: lambda y: evaluate(t, w, y, z),
        lipschitz_wy=1.0,
        w_dependence="path",
    )
    phi = make_terminal("endpoint")
    lat = build_lattice(3, dim=1)
    sol = solve_backward(lat, f, phi)

    def f_o(t, w, y, z):
        zn = math.sqrt(sum(v * v for v in z))
        return sum(p[0] for p in w) / len(w) + 0.5 * zn

    ref = oracles.brute_solve(3, 1, 1.0, f_o, lambda path: path[-1][0])
    for i in range(4):
        for node in product(range(2), repeat=i):
            assert sol.Y[i][oracles.node_index(node, 1)] == pytest.approx(
                ref["Y"][node], abs=1e-12
            )


@pytest.mark.parametrize("steps,dim", [(6, 1), (4, 2)])
def test_driver_context_is_the_shifted_interpolation(steps, dim):
    # w at slice i, grid time j, is the adapted shifted interpolation of the
    # node's path at t_j, for every j up to the step's end t_{i+1}
    lat = build_lattice(steps, dim=dim)
    dt = lat.grid.dt
    worst = 0.0
    for i in range(steps):
        w = driver_context(lat, PATHY, i)
        assert w.shape == (lat.node_count(i), i + 2, dim)
        for node in product(range(2 ** dim), repeat=i):
            path = oracles.walk_path(node, dim, dt)
            got = w[oracles.node_index(node, dim)]
            for j in range(i + 2):
                want = oracles.interpolate_shifted(path, dt, lat.grid.time(j))
                worst = max(worst, float(np.max(np.abs(got[j] - want))))
    assert worst <= 1e-15


def test_implicit_linear_recursion_recombining():
    lat = build_lattice(10, dim=1, mode="recombining")
    sol = solve_backward(lat, make_driver("linear:1,1"), make_terminal("const:1"))
    dt = lat.grid.dt
    y = 1.0
    for i in range(9, -1, -1):
        y = (y + dt) / (1.0 - dt)
        sl = sol.Y[i]
        assert np.max(np.abs(sl - y)) < 1e-12
    for z in sol.Z:
        assert np.max(np.abs(z)) < 1e-12


def test_full_and_recombining_agree_on_markov_data():
    f = make_driver("linear:0.6,0.9")
    phi = make_terminal("clipped-endpoint")
    for steps, dim in [(6, 1), (4, 2)]:
        full = solve_backward(build_lattice(steps, dim=dim), f, phi)
        rec = solve_backward(build_lattice(steps, dim=dim, mode="recombining"), f, phi)
        for i in range(steps + 1):
            for node in product(range(2 ** dim), repeat=i):
                downs = [0] * dim
                for c in node:
                    for k in range(dim):
                        if (c >> (dim - 1 - k)) & 1:
                            downs[k] += 1
                rec_idx = 0
                for k in range(dim):
                    rec_idx = rec_idx * (i + 1) + downs[k]
                assert full.Y[i][oracles.node_index(node, dim)] == pytest.approx(
                    rec.Y[i][rec_idx], abs=1e-12
                )


def test_step_size_guard_names_sufficient_steps():
    lat = build_lattice(4, dim=1)
    with pytest.raises(StepSizeError, match="N = 6"):
        solve_backward(lat, make_driver("linear:0,5"), make_terminal("endpoint"))


def test_recombining_rejects_path_dependence():
    lat = build_lattice(4, dim=1, mode="recombining")
    with pytest.raises(StructuralError):
        solve_backward(lat, make_driver("zero"), make_terminal("maxpath"))
    with pytest.raises(StructuralError):
        solve_backward(lat, PATHY, make_terminal("endpoint"))


def test_unreachable_tolerance_raises_convergence_error():
    # at a 1e6 value scale the implicit-equation residual cannot get near
    # 1e-12, and the solver must say so instead of claiming convergence
    from bsdelattice.drivers import scale_terminal

    lat = build_lattice(3, dim=1)
    big = scale_terminal(make_terminal("maxpath"), 1e6)
    with pytest.raises(ConvergenceError):
        solve_backward(lat, make_driver("quadratic"), big, tol=1e-12)


def test_bisection_rescues_a_truncated_fixed_point():
    # two iterates leave the maxpath slices above tol; bisection must finish
    # them to the same values as the full fixed point
    lat = build_lattice(8, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("maxpath")
    ref = solve_backward(lat, f, phi)
    sol = solve_backward(lat, f, phi, max_iter=2)
    assert ref.info.bisection_nodes == 0
    assert sol.info.bisection_nodes > 0
    assert sol.info.residual_max <= 1e-12
    for got, want in zip(sol.Y, ref.Y):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_bisection_cuts_path_samples_to_the_bisected_rows():
    # a path- and y-dependent driver: bisection binds w and z to the bisected
    # rows, and finishes at the full fixed point's values
    def evaluate(t, w, y, z):
        arr = np.asarray(w, dtype=float)
        return arr[..., :, 0].mean(axis=-1) + np.abs(y) + 0.5 * drivers._norm(z)

    f = DriverSpec(name="pathabs", at=lambda t, w, z: lambda y: evaluate(t, w, y, z),
                   lipschitz_wy=2.0, w_dependence="path", y_dependence="general")
    lat, phi = build_lattice(7, dim=1), make_terminal("maxpath")
    ref = solve_backward(lat, f, phi)
    bind = solver._slice_driver(lat, f, 4)
    z, y = ref.Z[4], ref.Y[4]
    rows = np.array([3, 0, 11])
    assert bind(z, rows)(y[rows]).tobytes() == bind(z)(y)[rows].tobytes()
    sol = solve_backward(lat, f, phi, max_iter=2)
    assert ref.info.bisection_nodes == 0 < sol.info.bisection_nodes
    assert solution_residuals(sol, f, phi).dynamics_max <= 1e-10
    for got, want in zip(sol.Y, ref.Y):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_bisection_expands_a_bracket_that_misses_the_root():
    # y_i = 2 y_{i+1} + 1000 at dt = 1/2, so Y_0 = 3000; one iterate leaves
    # every node 500 or more from its root, outside the start bracket +-1
    lat = build_lattice(2)
    sol = solve_backward(lat, make_driver("linear:1000,1"), make_terminal("const:0"), max_iter=1)
    assert abs(sol.y0 - 3000.0) <= 1e-9
    assert sol.info.bisection_nodes == 3


def test_bisection_stops_once_the_bracket_stops_moving(monkeypatch):
    # the early stop gives the bits of the fixed 200 halvings in far fewer
    # driver calls; max_iter=2 sends every node of full N=8 to bisection.
    # The driver comes bound to the bisected rows and sees only their values.
    lat = build_lattice(8, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("maxpath")
    bisect = solver._bisect_nodes
    calls = []

    def counted(fy, mean, dt, y_start, rows):
        n = [0]

        def fv_counted(y):
            n[0] += 1
            assert np.shape(y) == np.shape(rows)
            return fy(y)

        out = bisect(fv_counted, mean, dt, y_start, rows)
        calls.append(n[0])
        return out

    monkeypatch.setattr(solver, "_bisect_nodes", counted)
    sol = solve_backward(lat, f, phi, max_iter=2)
    monkeypatch.setattr(solver, "_bisect_nodes", oracles.bisect_nodes_fixed_halvings)
    want = solve_backward(lat, f, phi, max_iter=2)
    assert sol.info.bisection_nodes == want.info.bisection_nodes > 0
    assert calls and max(calls) <= 80, calls
    for got, ref in zip(sol.Y, want.Y):
        assert np.array_equal(got, ref)
    # a bracket that holds NaN (from a NaN start or a NaN mean) never moves;
    # the other rows still stop early, with the bits of the fixed halvings
    mean = np.array([0.3, math.nan, -0.0, 0.0, 0.1])
    y_start = np.array([0.2, 0.2, -0.0, math.nan, -0.0])
    rows = np.arange(5)
    fy = f.at(1.0, None, np.zeros((5, 1)))
    dt = 0.125
    calls.clear()
    got = counted(fy, mean, dt, y_start, rows)
    want = oracles.bisect_nodes_fixed_halvings(fy, mean, dt, y_start, rows)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[3]) and not np.isnan(got[1])
    assert calls[0] <= 80, calls


def test_implicit_step_only_reads_what_the_driver_returns():
    # a bound driver may hand back a read-only array or a scalar; the fixed
    # point and the bisection write only into arrays the step owns
    lat = build_lattice(6, dim=1)
    phi = make_terminal("maxpath")
    lin = make_driver("linear:1,1")

    def frozen_at(t, w, z):
        fy = lin.at(t, w, z)

        def frozen(y):
            out = fy(y)
            out.setflags(write=False)
            return out

        return frozen

    frozen = replace(lin, at=frozen_at)
    for max_iter in (200, 2):  # 2 sends the slices to bisection
        got = solve_backward(lat, frozen, phi, max_iter=max_iter)
        want = solve_backward(lat, lin, phi, max_iter=max_iter)
        assert got.info.bisection_nodes == want.info.bisection_nodes
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.Y, want.Y))
    const = make_driver("constant:0.5")
    scalar = replace(const, at=lambda t, w, z: lambda y: 0.5, y_dependence="general")
    got = solve_backward(lat, scalar, phi)
    want = solve_backward(lat, const, phi)
    assert got.info.iterations_max > 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.Y, want.Y))


@pytest.mark.parametrize(
    "mode, steps, terminal",
    [("full", 8, "maxpath"), ("recombining", 12, "clipped-endpoint")],
)
def test_linear_driver_norms_z_once_per_slice(monkeypatch, mode, steps, terminal):
    # z is bound once per slice, so its norm is not retaken on each iterate;
    # the closed form a + b(|y| + |z|), norm taken per call, gives the same bits
    lat = build_lattice(steps, dim=2, mode=mode)
    f, phi = make_driver("linear:1,1"), make_terminal(terminal)
    norm = drivers._norm
    calls = [0]

    def counted(z):
        calls[0] += 1
        return norm(z)

    monkeypatch.setattr(drivers, "_norm", counted)
    terminal_values(lat, phi)  # maxpath's running max takes norms too
    in_terminal, calls[0] = calls[0], 0
    sol = solve_backward(lat, f, phi)
    assert calls[0] - in_terminal == lat.steps
    calls[0] = 0
    closed = replace(f, at=lambda t, w, z: lambda y: 1.0 + 1.0 * (np.abs(y) + drivers._norm(z)))
    generic = solve_backward(lat, closed, phi)
    assert calls[0] - in_terminal > 2 * lat.steps
    assert sol.info.iterations_max == generic.info.iterations_max > 2
    for got, want in zip(sol.Y + sol.Z, generic.Y + generic.Z):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["Y", "Z"])
def test_residuals_report_a_nan(where):
    # dM is formed from Y_{i+1} and the stored Z_i, so a NaN in either
    # reaches the dM identities as well as the dynamics residual
    lat = build_lattice(4, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("endpoint")
    sol = solve_backward(lat, f, phi)
    if where == "Y":
        sol.Y[2][0] = math.nan
        keys = ("dynamics_max", "dm_mean_max")
    else:
        sol.Z[1][0, 0] = math.nan
        keys = ("dynamics_max", "dm_mean_max", "dm_orthogonality_max")
    rep = solution_residuals(sol, f, phi)
    for key in keys:
        assert math.isnan(getattr(rep, key)), key
    assert not rep.passed


@pytest.mark.parametrize("terminal", ["const:1", "clipped-endpoint"])
@pytest.mark.parametrize("dim,steps", [(1, 2000), (2, 160)])
def test_refinement_sized_solves_pass_the_residual_check(dim, steps, terminal):
    # the finest grids of the recombining refinement study, which keeps Y_0
    # only and so checks no residual of its own
    lat = build_lattice(steps, dim=dim, mode="recombining")
    f, phi = make_driver("linear:1,1"), make_terminal(terminal)
    sol = solve_backward(lat, f, phi)
    assert solution_residuals(sol, f, phi).passed
    if terminal == "clipped-endpoint":
        assert sol.z_sup() > 0.1


@pytest.mark.parametrize("dim,steps", [(1, 400), (2, 40)])
def test_recombining_solve_retains_little_more_than_y_and_z(dim, steps):
    # dM is formed on demand, so what a solve keeps is Y and Z and little else
    lat = build_lattice(steps, dim=dim, mode="recombining")
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_backward(lat, f, phi)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    yz = sum(s.nbytes for s in sol.Y) + sum(s.nbytes for s in sol.Z)
    assert retained <= 1.25 * yz, retained / yz


class _NullSink:
    def write(self, text):
        return len(text)


def test_full_export_and_summary_hold_the_solution_and_one_slice():
    # N=17: the walk-slice cache stayed held after the solve (1 MiB more),
    # and export plus summary peaked 2.65 leaf slices above what was held,
    # with a whole dM slice and a zero slice N; the z . dW product is one
    # leaf slice and the writer's block buffers less than one more
    lat = build_lattice(17)
    tracemalloc.start()
    try:
        sol = solve_backward(lat, make_driver("linear:1,1"), make_terminal("endpoint"))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        export_solution_csv(sol, _NullSink())
        solution_summary(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    leaf = lat.node_count(17) * 8
    solution = sum(a.nbytes for a in sol.Y + sol.Z)
    assert held < solution + leaf / 4, (held - solution) / leaf
    assert peak - held < 2.25 * leaf, (peak - held) / leaf


@pytest.mark.parametrize("steps,dim", [(9, 1), (5, 2), (3, 3)])
@pytest.mark.parametrize("name", ["endpoint", "maxpath"])
def test_terminal_streams_the_walk_slices(steps, dim, name):
    # per-path oracle: each leaf's walk by running sums, evaluated one path at a time
    phi = make_terminal(name)
    lat = build_lattice(steps, dim=dim)
    got = terminal_values(lat, phi)
    want = [
        phi(np.array([oracles.walk_path(leaf, dim, lat.grid.dt)]))
        for leaf in product(range(lat.n_choices), repeat=steps)
    ]
    assert got.tobytes() == np.concatenate(want).tobytes()


def test_z_bound_closed_form():
    assert z_bound(1.0, 1.0, 1.0, 4) == pytest.approx(8.0 * math.e, rel=1e-14)
    assert z_bound(2.0, 0.0, 5.0, 1) == pytest.approx(4.0)


def test_bmo_estimate_of_unit_control():
    lat = build_lattice(5, dim=1)
    sol = solve_backward(lat, make_driver("zero"), make_terminal("endpoint"))
    assert bmo_estimate(sol) == pytest.approx(1.0, abs=1e-12)
    half = build_lattice(4, dim=1, horizon=0.5)
    sol2 = solve_backward(half, make_driver("zero"), make_terminal("endpoint"))
    assert bmo_estimate(sol2) == pytest.approx(0.5, abs=1e-12)


def test_z_bound_certificate_margins():
    f = make_driver("quadratic")
    phi = make_terminal("endpoint")
    fine = z_bound_certificate(f, phi, build_lattice(100, dim=1, mode="recombining"))
    assert fine.applies
    assert fine.bound == pytest.approx(2.0)
    assert fine.margin == pytest.approx(0.6, abs=1e-12)
    coarse = z_bound_certificate(f, phi, build_lattice(4, dim=1))
    assert not coarse.applies
    assert coarse.margin == pytest.approx(-1.0, abs=1e-12)
    nolip = z_bound_certificate(
        f, make_terminal("digital"), build_lattice(100, dim=1, mode="recombining")
    )
    assert not nolip.applies


def test_z_bound_certificate_envelope_flag():
    # K = 9.9 at dt = 0.1: the Gronwall product outgrows 2 exp(K (T - t))
    phi = make_terminal("endpoint")
    wild = z_bound_certificate(make_driver("linear:0,9.9"), phi, build_lattice(10))
    assert "envelope not dominated" in wild.detail
    assert not wild.applies
    tame = z_bound_certificate(
        make_driver("linear:0,1"), phi, build_lattice(100, mode="recombining")
    )
    assert "envelope dominated" in tame.detail
    assert tame.applies


@pytest.mark.parametrize("steps", list(range(1, 60)) + [100, 250, 1000, 4000])
def test_envelope_comparison_at_t0_matches_every_slice(steps):
    # the one comparison at t_0 against the per-slice product, B*dt >= 1 included
    for horizon in (0.25, 0.5, 1.0, 2.0, 3.0):
        grid = TimeGrid(horizon, steps)
        for k in range(1, 193):
            want = oracles.envelope_dominated_by_slices(k / 16, grid)
            assert solver._selfref_envelope_dominated(k / 16, grid) is want, (horizon, k)


def test_csv_export_layout_and_determinism():
    lat = build_lattice(2, dim=1)
    sol = solve_backward(lat, make_driver("quadratic"), make_terminal("endpoint"))
    buf = io.BytesIO()
    export_solution_csv(sol, buf)
    text = buf.getvalue().decode()
    lines = text.strip().split("\n")
    assert lines[0] == "time_index,node_id,Y,Z_1,dM"
    assert len(lines) == 1 + 1 + 2 + 4
    root = lines[1].split(",")
    assert root[0] == "0" and root[1] == "0"
    assert float(root[2]) == pytest.approx(0.5, abs=1e-14)
    assert float(root[3]) == pytest.approx(1.0, abs=1e-13)
    assert root[4] == ""
    leaf = lines[-1].split(",")
    assert leaf[0] == "2" and leaf[3] == ""
    buf2 = io.BytesIO()
    export_solution_csv(sol, buf2)
    assert buf2.getvalue().decode() == text


@pytest.mark.parametrize("steps,dim", [(7, 1), (4, 2)])
def test_recombining_dm_column_keeps_largest_incoming_edge(steps, dim):
    # Brute force over edges in (parent, choice) order: the largest |dM| wins,
    # a later edge wins a tie, and NaN never wins (a node left without a
    # winner reads 0).  Small integers make opposite-sign ties common.
    lat = build_lattice(steps, dim=dim, mode="recombining")
    rng = np.random.default_rng(11)
    nch = lat.n_choices
    dm = [rng.integers(-2, 3, size=(lat.node_count(i), nch)).astype(float) for i in range(steps)]
    dm[0][0, :] = np.nan
    dm[2][1, 0] = np.nan
    got = {}
    for i in range(1, steps + 1):
        for k, v in enumerate(_dm_column(lat, i, dm[i - 1])):
            got[i, k] = format(float(v), ".17g")
    downs = (lat.signs < 0).astype(int)
    sign_ties = 0
    for i in range(1, steps + 1):
        best, value, signs_at_best = {}, {}, {}
        for k in range(lat.node_count(i - 1)):
            parent = np.unravel_index(k, (i,) * dim)
            for c in range(nch):
                child = int(np.ravel_multi_index(tuple(np.add(parent, downs[c])), (i + 1,) * dim))
                v = dm[i - 1][k, c]
                if abs(v) >= best.get(child, -1.0):
                    if abs(v) > best.get(child, -1.0):
                        signs_at_best[child] = set()
                    signs_at_best[child].add(math.copysign(1.0, v))
                    best[child], value[child] = abs(v), v
        for child in range(lat.node_count(i)):
            assert got[i, child] == format(value.get(child, 0.0), ".17g"), (i, child)
            sign_ties += len(signs_at_best.get(child, ())) > 1
    assert got[1, 0] == "0"
    assert sign_ties > 0


# (mode, steps, dim) at the writer's own block size; tests/test_export.py
# places the block edges
EXPORT_CASES = [
    ("full", 10, 1),
    ("full", 11, 1),
    ("full", 6, 2),
    ("recombining", 60, 1),
    ("recombining", 40, 2),
]


@pytest.mark.parametrize("mode,steps,dim", EXPORT_CASES)
def test_csv_export_matches_per_row_writer(mode, steps, dim):
    lat = build_lattice(steps, dim=dim, mode=mode)
    terminal = "endpoint" if mode == "full" else "clipped-endpoint"
    sol = solve_backward(lat, make_driver("linear:1,1"), make_terminal(terminal))
    got, want = io.BytesIO(), io.StringIO()
    export_solution_csv(sol, got)
    oracles.per_row_solution_csv(sol, want)
    assert oracles.first_difference(got.getvalue().decode(), want.getvalue()) is None


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1.0 / 3.0]


def special_values(shape, offset):
    """Array of the given shape cycling through SPECIALS from offset."""
    n = int(np.prod(shape))
    return np.array([SPECIALS[(offset + j) % len(SPECIALS)] for j in range(n)]).reshape(shape)


@pytest.mark.parametrize("mode,steps,dim", [("full", 4, 2), ("recombining", 6, 1)])
def test_csv_export_writes_non_finite_and_signed_zero_like_format(mode, steps, dim):
    # hand-built triple whose Y, Z and dM columns hold nan, +-inf, -0.0 and 0.0
    lat = build_lattice(steps, dim=dim, mode=mode)
    n = lat.node_count
    sol = SolutionTriple(
        lattice=lat,
        Y=[special_values((n(i),), i) for i in range(steps + 1)],
        Z=[special_values((n(i), dim), i + 1) for i in range(steps)],
    )
    got, want = io.BytesIO(), io.StringIO()
    export_solution_csv(sol, got)
    oracles.per_row_solution_csv(sol, want)
    text = got.getvalue().decode()
    assert oracles.first_difference(text, want.getvalue()) is None
    fields = set(",".join(text.splitlines()[1:]).split(","))
    assert {"nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324"} <= fields


def _bits(pattern):
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0]


# a few values that format alike or nearly alike: 0.0 and -0.0, two NaN payloads
REPEATED = [0.0, -0.0, _bits(0x7FF8000000000000), _bits(0x7FF8000000000001), 5e-324, math.inf, 0.1, -2.5]


def test_csv_export_of_repeated_values_matches_per_row_writer():
    # full N=12 has 8191 rows in several blocks, whose columns draw from a
    # handful of values: every block formats each distinct bit pattern once,
    # so values that format alike must still map back row by row
    lat = build_lattice(12, dim=1)
    rng = np.random.default_rng(5)
    n = lat.node_count

    def pick(shape):
        return np.array(REPEATED)[rng.integers(len(REPEATED), size=shape)]

    sol = SolutionTriple(
        lattice=lat,
        Y=[pick(n(i)) for i in range(13)],
        Z=[pick((n(i), 1)) for i in range(12)],
    )
    block = sol.Y[12][:1024].view(np.uint64)
    assert {0x0, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000001} <= set(block.tolist())
    got, want = io.BytesIO(), io.StringIO()
    export_solution_csv(sol, got)
    oracles.per_row_solution_csv(sol, want)
    text = got.getvalue().decode()
    assert oracles.first_difference(text, want.getvalue()) is None
    assert len(text.splitlines()) == 1 + 2 ** 13 - 1
    fields = set(",".join(text.splitlines()[1:]).split(","))
    assert {"nan", "inf", "-0", "0", "4.9406564584124654e-324", "0.10000000000000001"} <= fields


def test_summary_keeps_a_nan_residual():
    sol = solve_backward(build_lattice(4, dim=1), make_driver("constant:nan"), make_terminal("endpoint"))
    info = solution_summary(sol)
    for key in ("y0", "z_sup", "bmo", "residual_max"):
        assert math.isnan(info[key]), key


@pytest.mark.parametrize("slice_index", [0, 3])
def test_z_sup_and_bmo_keep_a_nan_control(slice_index):
    lat = build_lattice(4, dim=1)
    n = lat.node_count
    z = [np.full((n(i), 1), 0.5) for i in range(4)]
    z[slice_index][-1, 0] = math.nan
    sol = SolutionTriple(
        lattice=lat,
        Y=[np.zeros(n(i)) for i in range(5)],
        Z=z,
    )
    assert math.isnan(sol.z_sup())
    assert math.isnan(bmo_estimate(sol))


def test_summary_fields():
    lat = build_lattice(2, dim=1)
    sol = solve_backward(lat, make_driver("quadratic"), make_terminal("endpoint"))
    info = solution_summary(sol)
    assert info["y0"] == pytest.approx(0.5, abs=1e-14)
    assert info["steps"] == 2 and info["dim"] == 1 and info["mode"] == "full"
    assert info["driver"] == "quadratic" and info["terminal"] == "endpoint"
    assert info["residual_max"] <= 1e-12


@pytest.mark.parametrize("dim,steps", [(1, 1), (1, 4), (1, 9), (2, 1), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_running_terminal_matches_enumerated_maxpath(dim, steps):
    lat = build_lattice(steps, dim=dim)
    dt = lat.grid.dt
    want = np.empty(lat.node_count(steps))
    for choices in product(range(2 ** dim), repeat=steps):
        path = oracles.walk_path(choices, dim, dt)
        want[oracles.node_index(choices, dim)] = max(
            math.sqrt(sum(x * x for x in w)) for w in path
        )
    phi = make_terminal("maxpath")
    assert np.array_equal(terminal_values(lat, phi), want)
    assert np.array_equal(terminal_values(lat, shift_terminal(phi, -0.25)), want - 0.25)
    assert np.array_equal(terminal_values(lat, scale_terminal(phi, 3.0)), 3.0 * want)


def test_maxpath_solves_past_the_leaf_path_budget():
    lat = build_lattice(20)
    sol = solve_backward(lat, make_driver("linear:1,1"), make_terminal("maxpath"))
    xi = sol.Y[-1]
    # the all-up and the all-down path both end at |W| = N sqrt(dt) = sqrt(20)
    assert xi[0] == xi[-1] == pytest.approx(math.sqrt(20.0), rel=1e-14)
    assert np.all(np.isfinite(xi)) and math.isfinite(sol.y0)
    assert sol.info.residual_max <= 1e-12
    # the plain path form, evaluated over leaf blocks, gives the running form's bits
    maxpath = make_terminal("maxpath")
    plain = TerminalFunctional(name="plain-maxpath", evaluate=lambda p: maxpath(p))
    assert np.array_equal(terminal_values(lat, plain), xi)
    del sol, xi

    # a path-dependent driver reads w = (0, W_{t_0}, ..., W_{t_i}) at slice i
    lat = build_lattice(19)
    f = DriverSpec(
        name="last-w",
        at=lambda t, w, z: lambda y: w[..., -1, 0],
        lipschitz_wy=1.0,
        w_dependence="path",
    )
    sol = solve_backward(lat, f, make_terminal("endpoint"))
    # Y_i = E[Y_{i+1} | node] + W_{t_i} dt is solved by Y_i = W_{t_i} (1 + T - t_i)
    for i in range(20):
        want = lat.walk_slice(i)[:, 0] * (2.0 - lat.grid.time(i))
        assert np.max(np.abs(sol.Y[i] - want)) <= 1e-12, i


def _path_mean(paths):
    # a whole-path terminal with no running form: the mean of |W| over the grid
    return np.sqrt((np.asarray(paths) ** 2).sum(axis=-1)).mean(axis=-1)


PATH_MEAN = TerminalFunctional(name="path-mean", evaluate=_path_mean, lipschitz=1.0, bound=1.0)


@pytest.mark.parametrize("entries", [70, 100])
@pytest.mark.parametrize("steps,dim", [(8, 1), (4, 2)])
@pytest.mark.parametrize(
    "phi", [inf_convolution(make_terminal("maxpath"), 0.5), PATH_MEAN], ids=["infconv", "mean"]
)
def test_path_terminal_blocks_give_the_one_block_bits(monkeypatch, phi, steps, dim, entries):
    lat = build_lattice(steps, dim=dim)
    whole = terminal_values(lat, phi)  # 256 leaves in one block
    # blocks of 7 or of 10-11 leaves cut across the subtrees, the last one short
    monkeypatch.setattr(solver, "_PATH_BLOCK_ENTRIES", entries)
    assert np.array_equal(terminal_values(lat, phi), whole)


@pytest.mark.parametrize("entries", [None, 50])
@pytest.mark.parametrize(
    "bad",
    [lambda p: 0.0, lambda p: np.zeros(len(p) + 1), lambda p: np.asarray(p)[..., 0]],
    ids=["scalar", "one-extra", "two-dim"],
)
def test_path_terminal_of_the_wrong_shape_is_refused(monkeypatch, bad, entries):
    if entries is not None:
        monkeypatch.setattr(solver, "_PATH_BLOCK_ENTRIES", entries)
    phi = TerminalFunctional(name="bad", evaluate=bad)
    with pytest.raises(StructuralError, match="returned shape"):
        terminal_values(build_lattice(6), phi)
