"""Input ranges, refused by the library function that reads each value.

A tol that is not a finite number >= 0, a max_iter below 1, a reference
that is not finite, a lattice size that is no integer, and an empty or
non-finite list of grids or levels each raise GridError naming the value,
before any terminal is evaluated: the terminal used here fails the test
when it is read.  A path-dependent
driver on the recombining layout is refused the same way, by the solve,
the dual and Picard alike.
"""

import math

import numpy as np
import pytest

from bsdelattice.approximation import (
    inf_convolution,
    monotone_limit_experiment,
    refinement_experiment,
    uniform_limit_experiment,
)
from bsdelattice.drivers import DriverSpec, TerminalFunctional, make_driver, make_terminal
from bsdelattice.duality import dual_value, optimal_control
from bsdelattice.errors import GridError, StepSizeError, StructuralError
from bsdelattice.lattice import build_lattice
from bsdelattice.picard import picard_solve
from bsdelattice.probability import ControlProcess
from bsdelattice.solver import solve_backward
from bsdelattice.verify import SamplingPlan, verify_driver_properties


def _unread(x):
    raise AssertionError("the terminal was evaluated")


def _driver_unread(t, w, z):
    raise AssertionError("the driver was evaluated")


UNREAD = TerminalFunctional(name="unread", terminal_map=_unread)
# declares that it reads the path, which the recombining layout cannot resolve
PATH_DRIVER = DriverSpec(name="path", at=_driver_unread, lipschitz_wy=0.0, w_dependence="path")

_ITERATION = [
    ({"tol": math.nan}, "tol must be a finite number >= 0, got nan"),
    ({"tol": math.inf}, "tol must be a finite number >= 0, got inf"),
    ({"tol": -1e-300}, "tol must be a finite number >= 0, got -1e-300"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"max_iter": -5}, "max_iter must be >= 1, got -5"),
]
_IDS = ["%s=%r" % next(iter(keywords.items())) for keywords, _ in _ITERATION]


@pytest.mark.parametrize("keywords,message", _ITERATION, ids=_IDS)
@pytest.mark.parametrize("driver", ["linear:1,1", "zero"])
def test_solve_refuses_tol_and_max_iter(keywords, message, driver):
    # tol=nan ran the 200-iterate cap on every slice, and max_iter 0 or -5
    # bisected all 63 nodes of full N=6; both returned a solution
    with pytest.raises(GridError) as err:
        solve_backward(build_lattice(6), make_driver(driver), UNREAD, **keywords)
    assert str(err.value) == message


@pytest.mark.parametrize("keywords,message", _ITERATION, ids=_IDS)
def test_dual_value_refuses_tol_and_max_iter(keywords, message):
    # tol=nan returned a candidate value
    lat = build_lattice(4)
    f = make_driver("linear:1,1")
    sol = solve_backward(lat, f, make_terminal("endpoint"))
    with pytest.raises(GridError) as err:
        dual_value(lat, f, sol.Y[-1], optimal_control(sol, f), **keywords)
    assert str(err.value) == message


@pytest.mark.parametrize("keywords,message", _ITERATION, ids=_IDS)
def test_picard_refuses_tol_and_max_iter(keywords, message):
    # max_iter=0 and tol=nan ended as a ConvergenceError after 0 or 200 sweeps
    with pytest.raises(GridError) as err:
        picard_solve(build_lattice(4), make_driver("linear:1,1"), UNREAD, **keywords)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "steps_list,reference,message",
    [
        ((10, 20), math.nan, "reference must be a finite number, got nan"),
        ((10, 20), -math.inf, "reference must be a finite number, got -inf"),
        ((), 1.0, "steps_list is empty"),
        ([], math.nan, "reference must be a finite number, got nan"),
    ],
    ids=["reference=nan", "reference=-inf", "no-grid", "no-grid-reference=nan"],
)
def test_refinement_refuses_its_reference_and_an_empty_grid_list(steps_list, reference, message):
    # reference=nan returned NaN errors; no grid at all reported errors_decreasing
    with pytest.raises(GridError) as err:
        refinement_experiment(make_driver("linear:1,1"), UNREAD, steps_list, reference=reference)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "levels,message",
    [
        ((1, math.inf), "regularization level must be positive and finite, got inf"),
        ([math.nan, -1.0], "regularization level must be positive and finite, got nan"),
        ((-1.0, math.nan), "regularization level must be positive and finite, got -1"),
        ((), "levels is empty"),
    ],
    ids=["1,inf", "nan,-1", "-1,nan", "no-level"],
)
def test_ladder_refuses_an_empty_or_non_finite_level_list(levels, message):
    # levels (1, inf) reported monotone False; no level at all reported
    # monotone and increments_decreasing
    with pytest.raises(GridError) as err:
        monotone_limit_experiment(build_lattice(4), make_driver("quadratic"), UNREAD, levels=levels)
    assert str(err.value) == message


def test_picard_refuses_a_path_driver_on_the_recombining_layout():
    # the terminal was evaluated, then lattice.paths refused in the first sweep
    with pytest.raises(StructuralError) as err:
        picard_solve(build_lattice(4, mode="recombining"), PATH_DRIVER, UNREAD)
    assert str(err.value) == "recombining mode needs a w-independent driver"


def test_dual_value_refuses_a_path_driver_on_the_recombining_layout():
    # lattice.paths refused at the first slice, after its tilted expectation
    lat = build_lattice(4, mode="recombining")
    control = ControlProcess.from_constant(lat, [0.0])
    with pytest.raises(StructuralError) as err:
        dual_value(lat, PATH_DRIVER, np.zeros(lat.node_count(4)), control)
    assert str(err.value) == "recombining mode needs a w-independent driver"


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
def test_inf_convolution_refuses_a_non_finite_level(n):
    # inf passed the n > 0 check, and the terminal read NaN wherever a shift is zero
    with pytest.raises(GridError) as err:
        inf_convolution(make_terminal("digital"), n)
    assert str(err.value) == "regularization level must be positive and finite, got %g" % n


def test_uniform_ladder_refuses_an_empty_terminal_list():
    # no terminal at all reported monotone, increments_decreasing and cauchy_uniform
    with pytest.raises(GridError) as err:
        uniform_limit_experiment(build_lattice(4), make_driver("quadratic"), [])
    assert str(err.value) == "levels is empty"


def test_linear_driver_refuses_a_negative_b():
    with pytest.raises(GridError) as err:
        make_driver("linear:1,-1")
    assert str(err.value) == "linear driver needs b >= 0, got -1.0"


def test_driver_property_probe_refuses_zero_samples():
    # each fold ran over an empty list from its initial value, so a concave
    # driver below its declared lower bound passed all five checks
    concave = DriverSpec(
        name="concave",
        at=lambda t, w, z: lambda y: -5.0 * np.sum(z * z, axis=-1),
        lipschitz_wy=0.0,
        lower_bound=lambda c: 10.0,
    )
    assert not verify_driver_properties(concave, SamplingPlan(samples=16)).passed
    with pytest.raises(GridError) as err:
        verify_driver_properties(concave, SamplingPlan(samples=0))
    assert str(err.value) == "samples must be >= 1, got 0"


@pytest.mark.parametrize(
    "args,keywords,message",
    [
        ((2.7,), {}, "steps must be an integer, got 2.7"),
        ((4.0,), {}, "steps must be an integer, got 4.0"),
        ((True,), {}, "steps must be an integer, got True"),
        ((4,), {"dim": 1.5}, "dim must be an integer, got 1.5"),
        ((4,), {"leaf_budget": 10.5}, "leaf_budget must be an integer, got 10.5"),
        ((4,), {"mode": "recombining", "leaf_budget": 10.5}, "leaf_budget must be an integer, got 10.5"),
    ],
    ids=["steps=2.7", "steps=4.0", "steps=True", "dim=1.5", "leaf_budget=10.5", "recombining-budget"],
)
def test_build_lattice_refuses_a_non_integral_size(args, keywords, message):
    # int() truncated each: steps 2.7 built N=2, dim 1.5 built d=1
    with pytest.raises(GridError) as err:
        build_lattice(*args, **keywords)
    assert str(err.value) == message


def test_build_lattice_takes_numpy_integers_as_python_ints():
    lat = build_lattice(np.int64(3), dim=np.int32(2), leaf_budget=np.int64(64))
    assert (type(lat.steps), type(lat.dim), lat.steps, lat.dim) == (int, int, 3, 2)


def test_refinement_refuses_a_non_integral_grid_before_solving_any():
    # N=10.5 ran as N=10, after the grids before it were solved
    with pytest.raises(GridError) as err:
        refinement_experiment(make_driver("linear:1,1"), UNREAD, [10, 10.5], reference=1.0)
    assert str(err.value) == "steps must be an integer, got 10.5"


@pytest.mark.parametrize("horizon", ["2", b"2", True, None], ids=["str", "bytes", "True", "None"])
def test_build_lattice_refuses_a_horizon_that_is_no_real_number(horizon):
    # float() read "2" and b"2" as T=2.0 and True as T=1.0
    with pytest.raises(GridError) as err:
        build_lattice(3, horizon=horizon)
    assert str(err.value) == "horizon must be a real number, got %r" % (horizon,)


def test_build_lattice_takes_any_real_horizon_as_a_float():
    for horizon in (2, np.float32(0.5), np.int64(2)):
        grid = build_lattice(3, horizon=horizon).grid
        assert (type(grid.horizon), grid.horizon) == (float, float(horizon))


def _dual(lat, f):
    # a candidate control and terminal values from a driver with K = 1
    g = make_driver("linear:1,1")
    sol = solve_backward(lat, g, make_terminal("endpoint"))
    return dual_value(lat, f, sol.Y[-1], optimal_control(sol, g))


_K_READERS = {
    "solve": lambda lat, f: solve_backward(lat, f, UNREAD),
    "dual": _dual,
    "picard": lambda lat, f: picard_solve(lat, f, UNREAD),
    "ladder": lambda lat, f: monotone_limit_experiment(lat, f, UNREAD, levels=(1.0,)),
    "refinement": lambda lat, f: refinement_experiment(f, UNREAD, (4, 8), reference=1.0),
}


@pytest.mark.parametrize("b", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("reader", sorted(_K_READERS))
def test_a_driver_with_a_non_finite_lipschitz_constant_is_refused(reader, b):
    # K = inf raised OverflowError while the step-size message was formatted,
    # and K = nan passed the K*dt < 1 check
    f = make_driver("linear:1,%r" % b)
    assert repr(f.lipschitz_wy) == repr(b)
    with pytest.raises(StepSizeError) as err:
        _K_READERS[reader](build_lattice(4, mode="recombining"), f)
    assert str(err.value) == (
        "K = %r is not a finite number: no N makes the implicit step a contraction" % (b,)
    )
