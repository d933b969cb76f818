"""Picard sweeps against the direct solver and the stopping rule."""

import io
import math

import numpy as np
import pytest

from bsdelattice.drivers import DriverSpec, make_driver, make_terminal
from bsdelattice.errors import ConvergenceError, StepSizeError, StructuralError
from bsdelattice.lattice import build_lattice
from bsdelattice.picard import (
    export_picard_trace_csv,
    iteration_distance,
    picard_solve,
    picard_step,
    zero_state,
)
from bsdelattice.solver import solve_backward, terminal_values


def test_driver_free_problem_converges_in_one_sweep():
    lat = build_lattice(4, dim=1)
    f, phi = make_driver("zero"), make_terminal("maxpath")
    res = picard_solve(lat, f, phi)
    assert res.iterations == 1
    assert len(res.trace) == 1
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y.slices, direct.Y.slices):
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
    for a, b in zip(res.solution.Y.slices, direct.Y.slices):
        assert np.max(np.abs(a - b)) < 1e-12
    for k in range(2, len(res.trace)):
        assert res.trace[k].dY_sup <= res.trace[k - 1].dY_sup + 1e-15


def test_y_dependent_driver_converges_geometrically():
    lat = build_lattice(6, dim=1)
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    res = picard_solve(lat, f, phi)
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y.slices, direct.Y.slices):
        assert np.max(np.abs(a - b)) < 1e-9
    totals = [row.total for row in res.trace]
    for k in range(2, len(totals)):
        assert totals[k] <= totals[k - 1] + 1e-15
    assert res.iterations > 5


def test_path_dependent_driver_round_trip():
    def evaluate(t, w, y, z):
        arr = np.asarray(w, dtype=float)
        zn = np.sqrt((np.asarray(z, dtype=float) ** 2).sum(axis=-1))
        return arr[..., :, 0].mean(axis=-1) + 0.5 * zn

    f = DriverSpec(name="pathmean", evaluate=evaluate, lipschitz_wy=1.0, w_dependence="path")
    phi = make_terminal("endpoint")
    lat = build_lattice(3, dim=1)
    res = picard_solve(lat, f, phi)
    direct = solve_backward(lat, f, phi)
    for a, b in zip(res.solution.Y.slices, direct.Y.slices):
        assert np.max(np.abs(a - b)) < 1e-9


def test_zero_tolerance_always_exhausts_the_budget():
    lat = build_lattice(3, dim=1)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(lat, make_driver("zero"), make_terminal("endpoint"), tol=0.0, max_p=5)
    assert err.value.iterations == 5


def test_mode_and_step_size_guards():
    rec = build_lattice(4, dim=1, mode="recombining")
    with pytest.raises(StructuralError):
        picard_solve(rec, make_driver("zero"), make_terminal("endpoint"))
    lat = build_lattice(4, dim=1)
    with pytest.raises(StepSizeError):
        picard_solve(lat, make_driver("linear:0,5"), make_terminal("endpoint"))


def test_first_sweep_distances_have_known_values():
    lat = build_lattice(2, dim=1)
    f, phi = make_driver("zero"), make_terminal("endpoint")
    xi = terminal_values(lat, phi)
    s0 = zero_state(lat)
    s1 = picard_step(lat, f, xi, s0)
    dy, dz, dmsup = iteration_distance(lat, s0, s1)
    assert dy == pytest.approx(2.0 * math.sqrt(0.5), abs=1e-13)  # sup of |walk|
    assert dz == pytest.approx(1.0, abs=1e-13)  # unit control over the horizon
    assert dmsup < 1e-13
    none = iteration_distance(lat, s1, s1)
    assert none == (0.0, 0.0, 0.0)


def test_trace_csv_layout_and_determinism():
    lat = build_lattice(4, dim=1)
    res = picard_solve(lat, make_driver("quadratic"), make_terminal("maxpath"))
    buf = io.StringIO()
    export_picard_trace_csv(res, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "p,dY_sup,dZ_l2,dM_sup"
    assert len(lines) == 1 + len(res.trace)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(res.trace[0].dY_sup, rel=1e-15)
    buf2 = io.StringIO()
    export_picard_trace_csv(res, buf2)
    assert buf2.getvalue() == text


def test_nan_terminal_raises_naming_sweep_and_slice():
    lat = build_lattice(4, dim=1)
    with pytest.raises(ConvergenceError, match=r"sweep 1: .*NaN at slice 3, first node 0"):
        picard_solve(lat, make_driver("linear:1,1"), make_terminal("const:nan"))


def test_nan_distance_is_never_close():
    lat = build_lattice(3, dim=1)
    old, new = zero_state(lat), zero_state(lat)
    new.Y[2][1] = np.nan  # behind a finite first slice, where a running max() drops it
    new.dm[1][0, 0] = np.nan
    dy, dz, dmsup = iteration_distance(lat, old, new)
    assert math.isnan(dy) and math.isnan(dmsup)
    assert dz == 0.0
