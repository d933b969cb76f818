"""Picard sweeps against the direct solver and the stopping rule."""

import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from bsdelattice.drivers import DriverSpec, make_driver, make_terminal
from bsdelattice.errors import ConvergenceError, StepSizeError, StructuralError
from bsdelattice.lattice import build_lattice
from bsdelattice.picard import (
    export_picard_trace_csv,
    picard_solve,
    picard_step,
    zero_state,
)
from bsdelattice.solver import solve_backward, terminal_values


def _path_mean_driver():
    def evaluate(t, w, y, z):
        arr = np.asarray(w, dtype=float)
        zn = np.sqrt((np.asarray(z, dtype=float) ** 2).sum(axis=-1))
        return arr[..., :, 0].mean(axis=-1) + 0.5 * zn

    return DriverSpec(
        name="pathmean",
        at=lambda t, w, z: lambda y: evaluate(t, w, y, z),
        lipschitz_wy=1.0,
        w_dependence="path",
    )


def _copy(state):
    return SimpleNamespace(Y=[a.copy() for a in state.Y], Z=[a.copy() for a in state.Z])


def test_driver_free_problem_converges_in_one_sweep():
    lat = build_lattice(4, dim=1)
    f, phi = make_driver("zero"), make_terminal("maxpath")
    res = picard_solve(lat, f, phi)
    assert res.iterations == 1
    assert len(res.trace) == 1
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y, direct.Y):
        assert np.max(np.abs(a - b)) < 1e-13


def test_constant_driver_converges_in_one_sweep():
    lat = build_lattice(5, dim=1)
    res = picard_solve(lat, make_driver("constant:0.5"), make_terminal("endpoint"))
    assert res.iterations == 1
    assert res.solution.info.residual_max < 1e-12


def test_quadratic_two_step_matches_frozen_root():
    lat = build_lattice(2, dim=1)
    f, phi = make_driver("quadratic"), make_terminal("endpoint")
    res = picard_solve(lat, f, phi)
    assert res.solution.y0 == pytest.approx(0.5, abs=1e-12)
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y, direct.Y):
        assert np.max(np.abs(a - b)) < 1e-12
    for k in range(2, len(res.trace)):
        assert res.trace[k].dY_sup <= res.trace[k - 1].dY_sup + 1e-15


def test_y_dependent_driver_converges_geometrically():
    lat = build_lattice(6, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    res = picard_solve(lat, f, phi)
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y, direct.Y):
        assert np.max(np.abs(a - b)) < 1e-9
    totals = [row.total for row in res.trace]
    for k in range(2, len(totals)):
        assert totals[k] <= totals[k - 1] + 1e-15
    assert res.iterations > 5


def test_path_dependent_driver_round_trip():
    f = _path_mean_driver()
    phi = make_terminal("endpoint")
    lat = build_lattice(3, dim=1)
    res = picard_solve(lat, f, phi)
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y, direct.Y):
        assert np.max(np.abs(a - b)) < 1e-9


def test_zero_tolerance_always_exhausts_the_budget():
    lat = build_lattice(3, dim=1)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(lat, make_driver("zero"), make_terminal("endpoint"), tol=0.0, max_iter=5)
    assert err.value.iterations == 5


def test_mode_and_step_size_guards():
    # recombining runs under the solve's conditions: Markov terminal, w-free driver
    rec = build_lattice(4, dim=1, mode="recombining")
    with pytest.raises(StructuralError):
        picard_solve(rec, make_driver("zero"), make_terminal("maxpath"))
    with pytest.raises(StructuralError):
        picard_solve(rec, _path_mean_driver(), make_terminal("endpoint"))
    lat = build_lattice(4, dim=1)
    with pytest.raises(StepSizeError):
        picard_solve(lat, make_driver("linear:0,5"), make_terminal("endpoint"))


def test_first_sweep_distances_have_known_values():
    lat = build_lattice(2, dim=1)
    f, phi = make_driver("zero"), make_terminal("endpoint")
    xi = terminal_values(lat, phi)
    state = zero_state(lat)
    first = picard_step(lat, f, xi, state)
    assert first.p == 1 and state.p == 1
    assert first.dY_sup == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-13)  # sup of |walk|
    assert first.dZ_l2 == pytest.approx(1.0, abs=1e-13)  # unit control over the horizon
    assert first.dM_sup < 1e-13
    # with no driver the second sweep repeats the first bit for bit
    s1 = _copy(state)
    second = picard_step(lat, f, xi, state)
    assert (second.dY_sup, second.dZ_l2, second.dM_sup) == (0.0, 0.0, 0.0)
    assert oracles.picard_distances_by_paths(lat, s1, state) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "dim,steps,driver",
    [
        (1, 10, "linear:1,1"),
        (1, 10, "quadratic"),
        (1, 8, "path"),
        (2, 5, "linear:1,1"),
        (2, 5, "quadratic"),
        (2, 4, "path"),
    ],
)
def test_streamed_distances_match_the_path_sums(dim, steps, driver):
    lat = build_lattice(steps, dim=dim)
    f = _path_mean_driver() if driver == "path" else make_driver(driver)
    xi = terminal_values(lat, make_terminal("maxpath"))
    state = zero_state(lat)
    for _ in range(6):
        old = _copy(state)
        row = picard_step(lat, f, xi, state)
        dy, dz, dmsup = oracles.picard_distances_by_paths(lat, old, state)
        assert row.dY_sup == dy
        assert abs(row.dZ_l2 - dz) <= 1e-14 * dz
        assert abs(row.dM_sup - dmsup) <= 1e-14


@pytest.mark.parametrize("steps", [8, 12])
def test_full_and_recombining_layouts_agree(steps):
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    full = picard_solve(build_lattice(steps, dim=1), f, phi)
    rec = picard_solve(build_lattice(steps, dim=1, mode="recombining"), f, phi)
    assert full.iterations == rec.iterations
    assert abs(full.solution.y0 - rec.solution.y0) <= 1e-12
    for a, b in zip(full.trace, rec.trace):
        assert a.p == b.p
        for key in ("dY_sup", "dZ_l2", "dM_sup"):
            assert abs(getattr(a, key) - getattr(b, key)) <= 1e-12, (a.p, key)


def test_sweeps_hold_one_iterate():
    # one iterate plus slice-sized temporaries; two iterates with their dM measured 5.0x
    lat = build_lattice(14, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("maxpath")
    tracemalloc.start()
    try:
        res = picard_solve(lat, f, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    iterate = sum(a.nbytes for a in res.solution.Y + res.solution.Z)
    assert peak < 3.5 * iterate, peak / iterate


def test_trace_csv_layout_and_determinism():
    lat = build_lattice(4, dim=1)
    res = picard_solve(lat, make_driver("quadratic"), make_terminal("maxpath"))
    buf = io.BytesIO()
    export_picard_trace_csv(res, buf)
    text = buf.getvalue().decode()
    lines = text.strip().split("\n")
    assert lines[0] == "p,dY_sup,dZ_l2,dM_sup"
    assert len(lines) == 1 + len(res.trace)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(res.trace[0].dY_sup, rel=1e-15)
    buf2 = io.BytesIO()
    export_picard_trace_csv(res, buf2)
    assert buf2.getvalue().decode() == text


def test_nan_terminal_raises_naming_sweep_and_slice():
    lat = build_lattice(4, dim=1)
    with pytest.raises(ConvergenceError, match=r"sweep 1: .*NaN at slice 3, first node 0"):
        picard_solve(lat, make_driver("linear:1,1"), make_terminal("const:nan"))


def test_nan_distance_is_never_close():
    lat = build_lattice(3, dim=1)
    f, phi = make_driver("zero"), make_terminal("endpoint")
    xi = terminal_values(lat, phi)
    state = zero_state(lat)
    picard_step(lat, f, xi, state)
    # behind a finite first slice, where a running max() drops it; it reaches
    # dM through dY_2 and leaves Z alone
    state.Y[2][1] = np.nan
    row = picard_step(lat, f, xi, state)
    assert math.isnan(row.dY_sup) and math.isnan(row.dM_sup)
    assert row.dZ_l2 == 0.0
    assert math.isnan(row.total)
