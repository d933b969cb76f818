"""Inf-convolution ladders, Cauchy ladders, and grid refinement."""

import dataclasses
import io
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bsdelattice import approximation
from bsdelattice.approximation import (
    ApproximationLadder,
    export_ladder_csv,
    export_refinement_csv,
    inf_convolution,
    monotone_limit_experiment,
    refinement_experiment,
    uniform_limit_experiment,
)
from bsdelattice.drivers import TerminalFunctional, make_driver, make_terminal, scale_terminal
from bsdelattice.errors import ConvergenceError, GridError, StepSizeError, StructuralError
from bsdelattice.lattice import build_lattice
from bsdelattice.solver import solve_backward, terminal_values

import oracles


def test_digital_regularization_recovers_closed_form_exactly():
    lat = build_lattice(8, dim=1)
    paths = lat.paths(lat.steps)
    digital = make_terminal("digital")
    for n in (1, 2, 4):
        got = inf_convolution(digital, n)(paths)
        want = np.minimum(1.0, n * np.maximum(paths[:, -1, 0], 0.0))
        assert np.array_equal(got, want), n


def test_regularization_is_exactly_monotone_in_level():
    rng = np.random.default_rng(5)
    paths = rng.normal(size=(40, 6, 2))
    for name in ("digital", "maxpath", "clipped-endpoint"):
        phi = make_terminal(name)
        prev = None
        for n in (0.25, 0.5, 1, 2, 4, 8):
            vals = inf_convolution(phi, n)(paths)
            if prev is not None:
                assert np.all(vals >= prev)
            prev = vals


def test_regularization_never_exceeds_original():
    rng = np.random.default_rng(9)
    paths = rng.normal(size=(30, 5, 1))
    phi = make_terminal("maxpath")
    raw = phi(paths)
    for n in (0.25, 0.5, 1, 4, 16):
        assert np.all(inf_convolution(phi, n)(paths) <= raw + 1e-15)


def test_markov_map_agrees_with_path_evaluation():
    # the Markov regularization (built from the terminal map) and the one of
    # the same terminal declared by its path form shift the same final values
    lat = build_lattice(6, dim=1)
    paths = lat.paths(lat.steps)
    digital = make_terminal("digital")
    phi_n = inf_convolution(digital, 3)
    path_form = TerminalFunctional(name="digital-paths", evaluate=digital, bound=1.0)
    assert phi_n.markovian and not inf_convolution(path_form, 3).markovian
    assert np.array_equal(phi_n(paths), inf_convolution(path_form, 3)(paths))
    assert np.array_equal(phi_n(paths), phi_n.terminal_map(paths[:, -1, :]))


def test_inf_convolution_guards():
    phi = make_terminal("digital")
    with pytest.raises(GridError):
        inf_convolution(phi, 0)


def test_nan_level_is_refused():
    # n <= 0 let a NaN level through to the shift family
    with pytest.raises(GridError, match="must be positive"):
        inf_convolution(make_terminal("digital"), math.nan)


def test_monotone_ladder_on_digital_terminal():
    lat = build_lattice(8, dim=1)
    f, phi = make_driver("quadratic"), make_terminal("digital")
    ladder = monotone_limit_experiment(lat, f, phi)
    assert isinstance(ladder, ApproximationLadder)
    assert ladder.monotone
    assert ladder.increments_decreasing
    assert ladder.rows[0].sup_increment is None
    assert all(r.bmo > 0.0 for r in ladder.rows)
    # the ladder keeps no solutions: re-solve each level and check every node
    prev = None
    for n, row in zip((1, 2, 4, 8, 16), ladder.rows):
        sol = solve_backward(lat, f, inf_convolution(phi, n))
        assert sol.y0 == row.y0
        if prev is not None:
            for a, b in zip(prev, sol.Y):
                assert np.min(b - a) >= -1e-12
            inc = np.concatenate([b - a for a, b in zip(prev, sol.Y)])
            assert row.min_increment == np.min(inc) and row.sup_increment == np.max(np.abs(inc))
        prev = sol.Y


@pytest.mark.parametrize("dim,steps", [(1, 8), (2, 4)])
@pytest.mark.parametrize(
    "name,levels", [("endpoint", (0.5, 1, 2)), ("clipped-endpoint", (0.25, 0.5, 1))]
)
def test_full_and_recombining_ladders_agree(name, levels, dim, steps):
    f = make_driver("quadratic")
    phi = make_terminal(name)
    full, rec = (
        monotone_limit_experiment(build_lattice(steps, dim=dim, mode=mode), f, phi, levels)
        for mode in ("full", "recombining")
    )
    assert len(full.rows) == len(rec.rows) == len(levels)
    for a, b in zip(full.rows, rec.rows):
        assert abs(a.y0 - b.y0) <= 1e-12, (a.level, a.y0, b.y0)


@pytest.mark.parametrize(
    "name,mode",
    [
        (name, mode)
        for name in ("endpoint", "clipped-endpoint", "const:1")
        for mode in ("full", "recombining")
    ]
    + [("maxpath", "full")],
)
def test_regularization_at_declared_constant_is_the_terminal(name, mode):
    phi = make_terminal(name)
    for dim in (1, 2):
        lat = build_lattice(5, dim=dim, mode=mode)
        want = terminal_values(lat, phi)
        for n in (max(phi.lipschitz, 0.25), 1, 2, 16):
            got = terminal_values(lat, inf_convolution(phi, n))
            assert np.array_equal(got, want), (dim, n)


def test_maxpath_ladder_runs_past_the_leaf_path_budget():
    lat = build_lattice(19, dim=1)
    f = make_driver("quadratic")
    phi = make_terminal("maxpath")
    direct = solve_backward(lat, f, phi)
    ladder = monotone_limit_experiment(lat, f, phi)
    assert ladder.monotone and len(ladder.rows) == 5
    # the ladder keeps no solutions: re-solve each level and check every node
    for n, row in zip((1, 2, 4, 8, 16), ladder.rows):
        sol = solve_backward(lat, f, inf_convolution(phi, n))
        assert sol.y0 == row.y0
        for a, b in zip(sol.Y, direct.Y):
            assert np.array_equal(a, b)


def test_uniform_ladder_cauchy_bound():
    lat = build_lattice(6, dim=1)
    base = make_terminal("clipped-endpoint")
    terminals = [scale_terminal(base, s) for s in (0.2, 0.4, 0.6, 0.8, 1.0)]
    ladder = uniform_limit_experiment(lat, make_driver("abs"), terminals)
    assert ladder.cauchy_uniform
    gaps = [r.terminal_gap for r in ladder.rows[1:]]
    assert gaps == pytest.approx([0.2] * 4, abs=1e-12)


def test_ladder_evaluates_each_terminal_once():
    lat = build_lattice(5, dim=1)
    calls = []

    def counted(level):
        phi = make_terminal("maxpath")
        evaluate = phi.evaluate

        def ev(paths):
            calls.append(level)
            return level * evaluate(paths)

        return dataclasses.replace(phi, name="maxpath*%d" % level, evaluate=ev)

    ladder = uniform_limit_experiment(lat, make_driver("abs"), [counted(k) for k in (1, 2, 3)])
    assert calls == [1, 2, 3]
    gaps = [r.terminal_gap for r in ladder.rows[1:]]
    # the largest maxpath value, N sqrt(dt) = sqrt(5), is on the all-up path
    assert gaps == pytest.approx([math.sqrt(5.0)] * 2, abs=1e-12)


def test_nan_terminal_ladder_is_not_monotone():
    lat = build_lattice(4, dim=1)
    ladder = monotone_limit_experiment(lat, make_driver("quadratic"), make_terminal("const:nan"))
    for row in ladder.rows[1:]:
        assert math.isnan(row.sup_increment) and math.isnan(row.min_increment)
    assert not ladder.monotone
    assert not ladder.increments_decreasing


def test_refinement_toward_linear_closed_form():
    study = refinement_experiment(
        make_driver("linear:1,1"),
        make_terminal("const:1"),
        (10, 50, 100),
        reference=2.0 * math.e - 1.0,
    )
    assert study.errors_decreasing
    assert study.rows[-1][2] < study.rows[0][2] / 5
    assert 0.7 < study.fitted_order < 1.3


def test_refinement_with_exact_solution_leaves_order_nan():
    study = refinement_experiment(
        make_driver("zero"),
        make_terminal("const:1"),
        (4, 8),
        reference=1.0,
        mode="full",
    )
    assert math.isnan(study.fitted_order)


def _log_mass_clipped(shift):
    """log E[exp clip(shift + W_1)] by the trapezoid rule on [-12, 12]."""
    x = np.linspace(-12.0, 12.0, 240001)
    v = np.exp(np.clip(x + shift, -1.0, 1.0) - 0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
    return math.log((x[1] - x[0]) * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def test_quadratic_clipped_endpoint_approaches_its_cole_hopf_limit():
    # Theorem 1 with a nonzero Z: Y_0 and Z_0 within 0.25/N on both parities
    # (measured constants 0.205 / 0.018 for Y_0 and 0.221 / 0.065 for Z_0 on
    # even / odd N; neither parity is monotone, so no ratio is checked)
    y_lim, z_lim = oracles.cole_hopf_clipped_endpoint()
    assert abs(_log_mass_clipped(0.0) - y_lim) <= 1e-8
    assert abs((_log_mass_clipped(1e-3) - _log_mass_clipped(-1e-3)) / 2e-3 - z_lim) <= 1e-6
    f, phi = make_driver("quadratic"), make_terminal("clipped-endpoint")
    for n in (100, 400, 1600, 101, 401, 1601):
        sol = solve_backward(build_lattice(n, mode="recombining"), f, phi)
        assert abs(sol.y0 - y_lim) <= 0.25 / n, n
        assert abs(sol.Z[0][0, 0] - z_lim) <= 0.25 / n, n


def test_quadratic_digital_approaches_its_limit_from_each_parity():
    # Theorem 3: even N puts a node on the jump, which takes the lower value,
    # and approaches log((1+e)/2) from below at order 1/2 (constant 0.365);
    # odd N approaches from above, also at order 1/2 but with constant 0.0058
    limit = oracles.cole_hopf_digital()
    f, phi = make_driver("quadratic"), make_terminal("digital")
    for n, lo, hi in [(100, -0.4, -0.3), (400, -0.4, -0.3), (1600, -0.4, -0.3),
                      (101, 0.004, 0.008), (401, 0.004, 0.008), (1601, 0.004, 0.008)]:
        err = solve_backward(build_lattice(n, mode="recombining"), f, phi).y0 - limit
        assert lo <= err * math.sqrt(n) <= hi, n
    # the default ladder is the minimal supersolution approached from below
    ladder = monotone_limit_experiment(build_lattice(400, mode="recombining"), f, phi)
    y0s = [row.y0 for row in ladder.rows]
    assert ladder.monotone
    assert y0s == sorted(y0s) and y0s[-1] <= limit


@pytest.mark.parametrize("terminal", ["const:1", "clipped-endpoint"])
@pytest.mark.parametrize(
    "mode,dim,steps",
    [("recombining", 1, (125, 250, 500)), ("recombining", 2, (20, 40)), ("full", 1, (4, 8))],
)
def test_refinement_rows_have_the_bits_of_the_stored_solve(mode, dim, steps, terminal):
    # the study streams each grid's slices; its Y_0 is the stored solve's
    f, phi = make_driver("linear:1,1"), make_terminal(terminal)
    study = refinement_experiment(f, phi, steps, reference=0.0, dim=dim, mode=mode)
    assert [r[0] for r in study.rows] == list(steps)
    for n, y0, _ in study.rows:
        want = solve_backward(build_lattice(n, dim=dim, mode=mode), f, phi).y0
        assert y0.hex() == want.hex(), n


def test_refinement_raises_what_the_solve_raises():
    cases = [
        (make_driver("linear:0,5"), make_terminal("endpoint"), "full", StepSizeError),
        (make_driver("zero"), make_terminal("maxpath"), "recombining", StructuralError),
    ]
    for f, phi, mode, error in cases:
        with pytest.raises(error) as solved:
            solve_backward(build_lattice(4, dim=1, mode=mode), f, phi)
        with pytest.raises(error) as studied:
            refinement_experiment(f, phi, (4,), reference=1.0, mode=mode)
        assert str(studied.value) == str(solved.value)


@pytest.mark.parametrize("terminal", ["const:nan", "const:inf"])
@pytest.mark.parametrize("steps_list", [(10,), (10, 20)], ids=["one-grid", "two-grids"])
def test_refinement_refuses_a_non_finite_root(terminal, steps_list):
    # one grid has no error sequence to fail, so the root itself is checked
    with pytest.raises(ConvergenceError, match=r"grid N=10: Y_0 is (nan|inf), not a finite number"):
        refinement_experiment(make_driver("linear:1,1"), make_terminal(terminal), steps_list, reference=1.0)


@pytest.mark.parametrize("dim,steps", [(1, 1000), (2, 80)])
def test_refinement_holds_one_slice_per_grid(dim, steps):
    # the study keeps the latest slice only, not the grid's Y and Z
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    tracemalloc.start()
    try:
        refinement_experiment(f, phi, (steps,), reference=0.0, dim=dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    last_slice = build_lattice(steps, dim=dim, mode="recombining").node_count(steps) * 8
    assert peak < 32 * last_slice, peak / last_slice


# the side-by-side study forks a worker for every group but the first
forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two groups whatever the machine: the largest grid here, the rest in one forked child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solved_here(monkeypatch, child=None):
    """The grids this process solves, in order; child(lat), when given, replaces the
    solve of each grid in a forked worker."""
    here, parent, solve = [], os.getpid(), approximation._solve_root

    def solve_root(lat, f, phi):
        if os.getpid() == parent:
            here.append(lat.steps)
        elif child is not None:
            return child(lat, f, phi)
        return solve(lat, f, phi)

    monkeypatch.setattr(approximation, "_solve_root", solve_root)
    return here


@forks
def test_a_grid_that_fails_in_a_child_raises_what_the_serial_loop_raised(monkeypatch, two_cpus):
    # K*dt = 1.25 on N=4; N=40 is the larger grid, so this process solves it
    f, phi = make_driver("linear:0,5"), make_terminal("const:1")
    with pytest.raises(StepSizeError) as solved:
        solve_backward(build_lattice(4, mode="recombining"), f, phi)
    here = _solved_here(monkeypatch)
    with pytest.raises(StepSizeError) as studied:
        refinement_experiment(f, phi, (4, 40), reference=1.0)
    assert str(studied.value) == str(solved.value)
    assert here == [40]
    _no_child_left()


@forks
def test_a_study_leaves_no_child(two_cpus):
    f, phi = make_driver("linear:1,1"), make_terminal("const:1")
    study = refinement_experiment(f, phi, (10, 20, 40), reference=2.0 * math.e - 1.0)
    assert [r[0] for r in study.rows] == [10, 20, 40]
    _no_child_left()
    with pytest.raises(ConvergenceError):
        refinement_experiment(f, make_terminal("const:nan"), (10, 20, 40), reference=1.0)
    _no_child_left()


@forks
def test_one_cpu_forks_nothing_and_gives_the_same_bits(monkeypatch):
    f, phi = make_driver("linear:1,1"), make_terminal("clipped-endpoint")
    steps, ref = (125, 250, 500, 1000), 0.25
    side_by_side = refinement_experiment(f, phi, steps, reference=ref)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("the study forked")

    monkeypatch.setattr(os, "fork", no_fork)
    serial = refinement_experiment(f, phi, steps, reference=ref)
    assert [(n, y0.hex(), e.hex()) for n, y0, e in serial.rows] == [
        (n, y0.hex(), e.hex()) for n, y0, e in side_by_side.rows
    ]
    assert serial.fitted_order.hex() == side_by_side.fitted_order.hex()


def _fail_on_4(error):
    def solve(lat, f, phi):
        if lat.steps == 4:
            raise error
        return approximation.solve_backward(lat, f, phi).y0

    return solve


@forks
def test_a_convergence_error_from_a_child_keeps_its_attributes(monkeypatch, two_cpus):
    here = _solved_here(monkeypatch, _fail_on_4(ConvergenceError("no root", residual=0.5, iterations=7)))
    f, phi = make_driver("linear:1,1"), make_terminal("const:1")
    with pytest.raises(ConvergenceError) as err:
        refinement_experiment(f, phi, (4, 40), reference=1.0)
    assert (str(err.value), err.value.residual, err.value.iterations) == ("no root", 0.5, 7)
    assert here == [40]
    _no_child_left()


@forks
def test_an_exception_that_does_not_pickle_names_its_grid(monkeypatch, two_cpus):
    class Local(Exception):
        pass  # a local class: pickle cannot find it by name

    _solved_here(monkeypatch, _fail_on_4(Local("lost")))
    f, phi = make_driver("linear:1,1"), make_terminal("const:1")
    with pytest.raises(RuntimeError) as err:
        refinement_experiment(f, phi, (4, 40), reference=1.0)
    assert str(err.value) == "grid N=4: the forked worker could not send back its exception, Local: lost"
    _no_child_left()


@forks
def test_a_child_that_dies_before_it_writes_names_its_first_grid(monkeypatch, two_cpus):
    _solved_here(monkeypatch, lambda lat, f, phi: os._exit(3))
    f, phi = make_driver("linear:1,1"), make_terminal("const:1")
    with pytest.raises(RuntimeError) as err:
        refinement_experiment(f, phi, (4, 8, 40), reference=1.0)
    assert str(err.value) == (
        "grid N=4: the forked worker solving it exited (status 3) without sending its result"
    )
    _no_child_left()


@forks
def test_an_interrupt_kills_and_waits_for_the_child(monkeypatch, two_cpus):
    parent = os.getpid()

    def solve_root(lat, f, phi):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(approximation, "_solve_root", solve_root)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        refinement_experiment(make_driver("linear:1,1"), make_terminal("const:1"), (4, 40), reference=1.0)
    assert time.monotonic() - start < 30
    _no_child_left()


@forks
@pytest.mark.parametrize("action", ["default", "always"])
def test_a_childs_warnings_are_shown_here_as_the_serial_loop_shows_them(monkeypatch, two_cpus, action):
    # grids 4 and 8 go to the child, 40 stays here; each grid warns at one line
    def warn_then_solve(lat, f, phi):
        warnings.warn("a grid warns", UserWarning)
        return approximation.solve_backward(lat, f, phi).y0

    here = _solved_here(monkeypatch, warn_then_solve)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        study = refinement_experiment(
            make_driver("linear:1,1"), make_terminal("const:1"), (4, 8, 40), reference=1.0
        )
    assert here == [40]
    assert [r[0] for r in study.rows] == [4, 8, 40]
    times = {"default": 1, "always": 2}[action]
    assert [(w.category, str(w.message), w.filename) for w in shown] == [
        (UserWarning, "a grid warns", __file__)
    ] * times


@forks
def test_a_childs_warnings_after_the_first_failing_grid_are_not_shown(monkeypatch, two_cpus):
    # this process solves 40, the first grid, and fails; the serial loop solves nothing after it
    def fail_on_40(lat, f, phi):
        warnings.warn("grid N=%d warns" % lat.steps, UserWarning)
        if lat.steps == 40:
            raise ConvergenceError("no root")
        return 1.0

    monkeypatch.setattr(approximation, "_solve_root", fail_on_40)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="no root"):
            refinement_experiment(make_driver("linear:1,1"), make_terminal("const:1"), (40, 4, 8), reference=1.0)
    assert [str(w.message) for w in shown] == ["grid N=40 warns"]
    _no_child_left()


@forks
@pytest.mark.parametrize(
    "action, text, expected",
    [
        ("always", "grid N=%d warns", ["grid N=4 warns", "grid N=8 warns", "grid N=40 warns"]),
        ("default", "a grid warns", ["a grid warns"]),
    ],
)
def test_warnings_come_out_in_steps_list_order_whichever_process_raised_them(
    monkeypatch, two_cpus, action, text, expected
):
    # 40 is solved here and 4, 8 in the child; the serial loop warns for 4 first
    parent, here = os.getpid(), []

    def warn(lat, f, phi):
        if os.getpid() == parent:
            here.append(lat.steps)
        warnings.warn(text % lat.steps if "%d" in text else text, UserWarning)
        return 1.0

    monkeypatch.setattr(approximation, "_solve_root", warn)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        refinement_experiment(make_driver("linear:1,1"), make_terminal("const:1"), (4, 8, 40), reference=2.0)
    assert here == [40]
    assert [str(w.message) for w in shown] == expected
    _no_child_left()


@forks
def test_a_grid_solved_here_after_a_childs_failing_grid_shows_no_warning(monkeypatch, two_cpus):
    # the child fails on 4, the first grid; this process's 40 warns, but the serial loop never solves it
    def fail_on_4(lat, f, phi):
        if lat.steps == 4:
            raise ConvergenceError("no root")
        warnings.warn("grid N=%d warns" % lat.steps, UserWarning)
        return 1.0

    monkeypatch.setattr(approximation, "_solve_root", fail_on_4)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="no root"):
            refinement_experiment(make_driver("linear:1,1"), make_terminal("const:1"), (4, 40), reference=1.0)
    assert shown == []
    _no_child_left()


def test_ladder_and_refinement_csv_layouts():
    lat = build_lattice(6, dim=1)
    ladder = monotone_limit_experiment(
        lat, make_driver("quadratic"), make_terminal("digital"), levels=(1, 2)
    )
    buf = io.BytesIO()
    export_ladder_csv(ladder, buf)
    lines = buf.getvalue().decode().strip().split("\n")
    assert lines[0] == "level,Y0,sup_increment,bmo,cauchy_bound_ok"
    assert len(lines) == 3
    assert lines[1].startswith("n=1,")
    assert lines[1].split(",")[2] == ""
    assert lines[2].split(",")[4] in ("0", "1")
    study = refinement_experiment(
        make_driver("linear:1,1"), make_terminal("const:1"), (10, 20), reference=2.0 * math.e - 1.0
    )
    buf2 = io.BytesIO()
    export_refinement_csv(study, buf2)
    lines2 = buf2.getvalue().decode().strip().split("\n")
    assert lines2[0] == "N,Y0,error,fitted_order"
    assert len(lines2) == 3
    assert lines2[1].split(",")[0] == "10"
    buf3 = io.BytesIO()
    export_refinement_csv(study, buf3)
    assert buf3.getvalue() == buf2.getvalue()
