import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelattice.drivers import (
    DriverSpec,
    RunningFunctional,
    TerminalFunctional,
    conjugate,
    linear_driver,
    make_driver,
    make_terminal,
    numeric_conjugate,
    scale_terminal,
    shift_terminal,
    subgradient,
)
from bsdelattice.errors import GridError, StructuralError, ValidationError
from bsdelattice.lattice import build_lattice
from bsdelattice.solver import solve_backward
from bsdelattice.verify import SamplingPlan, verify_driver_properties

ALL_DRIVERS = ["zero", "constant:1.5", "linear:1,1", "quadratic", "quartic", "abs", "exp"]
ALL_TERMINALS = ["endpoint", "const:1", "maxpath", "digital", "clipped-endpoint"]


def brute_conjugate(f, mu, radius=8.0, n=200001):
    """Oracle: dense 1-d grid search, no refinement."""
    zs = np.linspace(-radius, radius, n)
    vals = zs * mu - f.evaluate(0.0, None, 0.0, zs[:, None])
    return float(vals.max())


def test_catalog_parsing():
    assert make_driver("linear:1,2").name == "linear:1,2"
    assert make_terminal("const:3").name == "const:3"
    with pytest.raises(GridError):
        make_driver("cubic")
    with pytest.raises(GridError):
        make_driver("linear:1")
    with pytest.raises(GridError):
        make_terminal("endpoint:1")


@pytest.mark.parametrize(
    "parse,spec,message",
    [
        (make_driver, "cubic", "unknown driver 'cubic' (catalog: abs, constant, exp, linear,"),
        (make_terminal, "cubic", "unknown terminal 'cubic' (catalog: clipped-endpoint, const,"),
        (make_driver, "linear:1", "driver 'linear' takes 2 parameter(s), got '1'"),
        (make_terminal, "endpoint:1", "terminal 'endpoint' takes 0 parameter(s), got '1'"),
        # float() raised "could not convert string to float: 'x'", naming no spec
        (make_driver, "linear:1,x", "driver parameters must be numbers, got 'linear:1,x'"),
        (make_terminal, "const:", "terminal 'const' takes 1 parameter(s), got ''"),
        (make_terminal, "const:one", "terminal parameters must be numbers, got 'const:one'"),
    ],
)
def test_catalog_errors_name_the_spec(parse, spec, message):
    with pytest.raises(GridError) as info:
        parse(spec)
    assert str(info.value).startswith(message)


def test_driver_evaluate_vectorized():
    f = make_driver("quadratic")
    z = np.array([[1.0, 0.0], [3.0, 4.0]])
    assert np.allclose(f.evaluate(0.0, None, 0.0, z), [0.5, 12.5])
    g = make_driver("linear:1,1")
    assert np.allclose(g.evaluate(0.0, None, np.array([-2.0, 2.0]), z), [4.0, 8.0])
    assert float(make_driver("exp").evaluate(0.0, None, 0.0, np.array([0.0]))) == 0.0


def test_terminal_values_on_paths():
    # two handmade paths in (n, steps+1, d) layout
    p = np.array(
        [
            [[0.0], [0.5], [-0.25]],
            [[0.0], [-1.5], [2.0]],
        ]
    )
    assert np.allclose(make_terminal("endpoint")(p), [-0.25, 2.0])
    assert np.allclose(make_terminal("maxpath")(p), [0.5, 2.0])
    assert np.allclose(make_terminal("digital")(p), [0.0, 1.0])
    assert np.allclose(make_terminal("clipped-endpoint")(p), [-0.25, 1.0])
    assert np.allclose(make_terminal("const:2")(p), [2.0, 2.0])
    shifted = shift_terminal(make_terminal("endpoint"), 0.5)
    assert np.allclose(shifted(p), [0.25, 2.5])
    assert shifted.terminal_map(np.array([2.0])) == 2.5
    scaled = scale_terminal(make_terminal("endpoint"), -2.0)
    assert np.allclose(scaled(p), [0.5, -4.0])
    assert scaled.lipschitz == 2.0
    # a Markov terminal declares its map alone, and keeps it under shift and scale
    for phi in (make_terminal("endpoint"), shifted, scaled):
        assert phi.markovian and phi.evaluate is None


def test_terminal_declares_one_form():
    endpoint = make_terminal("endpoint")
    with pytest.raises(StructuralError, match="exactly one"):
        TerminalFunctional(name="both", evaluate=endpoint, terminal_map=endpoint.terminal_map)
    with pytest.raises(StructuralError, match="exactly one"):
        TerminalFunctional(name="neither")
    with pytest.raises(AttributeError):
        endpoint.markovian = False  # read-only: the map decides


def _whole_path_maxpath(paths):
    """maxpath as one reduction over the path axis."""
    return np.max(np.sqrt(np.sum(paths ** 2, axis=-1)), axis=-1)


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (1, 3, 2), (5, 9, 2), (2, 4, 6, 3)])
def test_running_maxpath_equals_whole_path_reduction(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-2])
    paths = rng.normal(size=shape)
    phi = make_terminal("maxpath")
    assert isinstance(phi.evaluate, RunningFunctional)
    want = _whole_path_maxpath(paths)
    assert np.array_equal(phi.evaluate(paths), want)
    shifted = shift_terminal(phi, 0.3)
    scaled = scale_terminal(phi, -1.7)
    assert isinstance(shifted.evaluate, RunningFunctional)
    assert isinstance(scaled.evaluate, RunningFunctional)
    assert np.array_equal(shifted.evaluate(paths), want + 0.3)
    assert np.array_equal(scaled.evaluate(paths), -1.7 * want)
    assert np.array_equal(scale_terminal(shifted, 2.0).evaluate(paths), 2.0 * (want + 0.3))


def test_running_functional_runs_init_update_finish_in_order():
    seen = []
    run = RunningFunctional(
        init=lambda w: seen.append(("init", w.tolist())) or w[..., 0],
        update=lambda m, w: seen.append(("update", w.tolist())) or m + w[..., 0],
        finish=lambda m: -m,
    )
    assert run(np.array([[1.0], [2.0], [4.0]])) == -7.0
    assert seen == [("init", [1.0]), ("update", [2.0]), ("update", [4.0])]
    # a path terminal without a running form keeps a plain callable under shift
    endpoint = TerminalFunctional(name="endpoint-paths", evaluate=lambda p: p[..., -1, 0])
    plain = shift_terminal(endpoint, 1.0)
    assert callable(plain.evaluate) and not isinstance(plain.evaluate, RunningFunctional)
    assert plain(np.array([[[0.0], [2.5]]]))[0] == 3.5


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want, equal_nan=True) and got.tobytes() == want.tobytes()


def _norm_of_rows(z):
    return np.sqrt(np.sum(np.asarray(z, dtype=float) ** 2, axis=-1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_linear_bound_form_has_the_bits_of_evaluate(d):
    # z's norm is taken once when z is bound; the sum keeps the closed form's
    # order, a + b * (|y| + |z|)
    f = make_driver("linear:0.5,1.5")

    def closed(y, z):
        return 0.5 + 1.5 * (np.abs(y) + _norm_of_rows(z))

    special = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    rng = np.random.default_rng(d)
    y = np.concatenate([rng.normal(size=12), special, special[::-1]])
    z = rng.normal(size=(y.size, d))
    z[12:17, 0] = special[::-1]
    z[17:, -1] = special
    assert _same_bits(f.at(0.25, None, z)(y), closed(y, z))
    for yv in [0.7, -0.0, np.nan, np.inf, -np.inf]:
        for zrow in z[12:]:
            assert _same_bits(f.at(0.25, None, zrow)(yv), closed(yv, zrow))


_Y_SPECIALS = np.array([0.0, -0.0, 0.3, -2.5, np.inf, -np.inf, np.nan])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    a=st.floats(0.0, 1e3),
    b=st.floats(0.0, 1e3),
    d=st.integers(1, 3),
    rows=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=24),
    y=st.lists(st.floats(), min_size=1, max_size=12),
)
def test_linear_bound_conjugate_has_the_bits_of_the_closed_form(a, b, d, rows, y):
    # mu inside, on and outside |mu| = b (b * e_k has norm b exactly), paired
    # with drawn y and with every special y
    f = linear_driver(a, b)
    assert f.conjugate_at is not None
    eye = np.eye(d)
    drawn = np.array(rows[: len(rows) // d * d]).reshape(-1, d)
    mu = np.vstack(
        [drawn, 0.0 * eye[:1], 0.5 * b * eye, b * eye, -b * eye, np.nextafter(b, np.inf) * eye,
         np.full((1, d), np.nan), np.full((1, d), np.inf)]
    )
    for ys, mus in [
        (np.resize(np.array(y), mu.shape[0]), mu),
        (np.repeat(_Y_SPECIALS, mu.shape[0]), np.tile(mu, (_Y_SPECIALS.size, 1))),
    ]:
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.where(_norm_of_rows(mus) <= b, -a - b * np.abs(ys), np.inf)
            assert _same_bits(f.conjugate_at(0.5, None, mus)(ys), want)


_ROW_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    name=st.sampled_from(ALL_DRIVERS),
    d=st.integers(1, 3),
    rows=st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_ROW_SPECIALS)), min_size=3, max_size=24
    ),
    y=st.lists(st.one_of(st.floats(), st.sampled_from(_ROW_SPECIALS)), min_size=1, max_size=12),
)
def test_pointwise_forms_have_the_bits_of_the_bound_forms(name, d, rows, y):
    # evaluate, __call__ and conjugate on one node with a scalar y, and with
    # a scalar y over every node, give the bound forms' bits on the rows;
    # every special value also fills a whole row
    f = make_driver(name)
    drawn = np.array(rows[: len(rows) // d * d]).reshape(-1, d)
    a = np.vstack([drawn] + [np.full((1, d), v) for v in _ROW_SPECIALS])
    ys = np.resize(np.array(y), a.shape[0])
    with np.errstate(all="ignore"):
        fz = f.at(0.5, None, a)(ys)
        gz = f.conjugate_at(0.5, None, a)(ys)
        for k in range(a.shape[0]):
            assert _same_bits(f.evaluate(0.5, None, ys[k], a[k]), fz[k])
            assert _same_bits(f(0.5, None, ys[k], a[k]), fz[k])
            assert _same_bits(conjugate(f, 0.5, None, ys[k], a[k]), gz[k])
        y0 = np.full(a.shape[0], ys[0])
        assert _same_bits(f.evaluate(0.5, None, ys[0], a), f.at(0.5, None, a)(y0))
        assert _same_bits(conjugate(f, 0.5, None, ys[0], a), f.conjugate_at(0.5, None, a)(y0))


def test_derived_evaluate_is_a_float_array():
    f = DriverSpec(
        name="int-valued",
        at=lambda t, w, z: lambda y: 2 * np.asarray(y) + np.shape(z)[-1],
        lipschitz_wy=2.0,
    )
    z = np.zeros((3, 2))
    y = np.array([1, -2, 3])
    got = f.evaluate(0.0, None, y, z)
    assert got.dtype == np.float64
    assert np.array_equal(got, [4.0, -2.0, 8.0])
    assert f.evaluate(0.0, None, 4, z[0]).dtype == np.float64
    assert f.evaluate(0.0, None, 4, z[0]) == 10.0


def _time_driver(rest):
    """f = t + rest(z), time-dependent, y- and w-free."""
    return DriverSpec(
        name="t+",
        at=lambda t, w, z: lambda y: t + rest(np.asarray(z, dtype=float)),
        lipschitz_wy=0.0,
    )


@pytest.mark.parametrize("steps,mode", [(8, "full"), (50, "recombining")])
def test_solve_evaluates_the_driver_at_the_step_end(steps, mode):
    # f = t gives sum_i t_{i+1} dt = T(T + dt)/2; the step average would give T^2/2
    f = _time_driver(lambda z: 0.0 * z[..., 0])
    sol = solve_backward(build_lattice(steps, mode=mode), f, make_terminal("const:0"))
    assert sol.y0 == 0.5 * (1.0 + 1.0 / steps)


@pytest.mark.parametrize("steps", [100, 400, 1600, 101, 401, 1601])
def test_time_term_adds_its_endpoint_sum_to_the_quadratic_solve(steps):
    lat = build_lattice(steps, mode="recombining")
    phi = make_terminal("clipped-endpoint")
    quad = make_driver("quadratic")
    got = solve_backward(lat, _time_driver(lambda z: quad(0.0, None, 0.0, z)), phi).y0
    want = solve_backward(lat, quad, phi).y0 + 0.5 * (1.0 + 1.0 / steps)
    assert abs(got - want) <= 1e-14


def test_conjugate_analytic_values():
    f = make_driver("quadratic")
    assert conjugate(f, 0.0, None, 0.0, np.array([3.0])) == pytest.approx(4.5)
    q = make_driver("quartic")
    assert conjugate(q, 0.0, None, 0.0, np.array([4.0])) == pytest.approx(3.0)
    a = make_driver("abs")
    assert conjugate(a, 0.0, None, 0.0, np.array([0.5])) == 0.0
    assert conjugate(a, 0.0, None, 0.0, np.array([1.5])) == math.inf
    z = make_driver("zero")
    assert conjugate(z, 0.0, None, 0.0, np.array([0.0])) == 0.0
    assert conjugate(z, 0.0, None, 0.0, np.array([1e-9])) == math.inf
    c = make_driver("constant:1.5")
    assert conjugate(c, 0.0, None, 0.0, np.array([0.0])) == -1.5
    e = make_driver("exp")
    assert conjugate(e, 0.0, None, 0.0, np.array([0.5])) == 0.0
    m = math.e
    assert conjugate(e, 0.0, None, 0.0, np.array([m])) == pytest.approx(1.0)
    lin = make_driver("linear:1,1")
    assert conjugate(lin, 0.0, None, 2.0, np.array([0.5])) == pytest.approx(-3.0)
    assert conjugate(lin, 0.0, None, 2.0, np.array([1.5])) == math.inf


def test_numeric_conjugate_matches_analytic_grid():
    # the acceptance-level identity at module granularity
    mus = np.linspace(-2.0, 2.0, 64)
    for name in ("quadratic", "abs", "quartic"):
        f = make_driver(name)
        for mu in mus:
            got = numeric_conjugate(f, 0.0, None, 0.0, np.array([mu]))
            want = conjugate(f, 0.0, None, 0.0, np.array([mu]))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert abs(got - want) <= 1e-6, (name, mu, got, want)


def test_numeric_conjugate_against_brute_grid():
    f = make_driver("quartic")
    for mu in (-3.0, -0.7, 0.0, 1.3, 4.0):
        got = numeric_conjugate(f, 0.0, None, 0.0, np.array([mu]))
        want = brute_conjugate(f, mu)
        assert abs(got - want) <= 1e-5


def test_numeric_conjugate_two_dimensional():
    f = make_driver("quadratic")
    mu = np.array([0.75, -1.25])
    got = numeric_conjugate(f, 0.0, None, 0.0, mu)
    assert abs(got - 0.5 * float(mu @ mu)) <= 1e-6


def test_numeric_conjugate_declares_unbounded():
    f = make_driver("abs")
    assert numeric_conjugate(f, 0.0, None, 0.0, np.array([1.2])) == math.inf
    assert numeric_conjugate(f, 0.0, None, 0.0, np.array([0.8])) == pytest.approx(0.0, abs=1e-9)


def test_subgradient_analytic_and_numeric():
    f = make_driver("quadratic")
    z = np.array([1.25])
    assert subgradient(f, 0.0, None, 0.0, z)[0] == pytest.approx(1.25)
    bare = DriverSpec(
        name="quad-no-decl",
        at=lambda t, w, zz: lambda y: 0.5 * np.sum(np.asarray(zz, dtype=float) ** 2, axis=-1),
        lipschitz_wy=0.0,
    )
    got = subgradient(bare, 0.0, None, 0.0, z)
    assert got[0] == pytest.approx(1.25, abs=1e-9)
    a = make_driver("abs")
    # kink selection: average of one-sided slopes is 0
    assert subgradient(a, 0.0, None, 0.0, np.array([0.0]))[0] == 0.0
    assert subgradient(a, 0.0, None, 0.0, np.array([-2.0]))[0] == -1.0
    quart = make_driver("quartic")
    assert subgradient(quart, 0.0, None, 0.0, np.array([1.0]))[0] == pytest.approx(4.0)


def test_subgradient_validation_error():
    wrong = DriverSpec(
        name="wrong-subgradient",
        at=lambda t, w, z: lambda y: 0.5 * np.sum(np.asarray(z, dtype=float) ** 2, axis=-1),
        lipschitz_wy=0.0,
        analytic_subgradient=lambda t, w, y, z: 2.0 * np.asarray(z, dtype=float),
    )
    with pytest.raises(ValidationError):
        subgradient(wrong, 0.0, None, 0.0, np.array([1.0]))


def test_fenchel_young_identity_at_samples():
    rng = np.random.default_rng(7)
    for name in ALL_DRIVERS:
        f = make_driver(name)
        for _ in range(64):
            z = rng.uniform(-2.0, 2.0, 1)
            mu = subgradient(f, 0.0, None, 0.5, z, validate=False)
            g = conjugate(f, 0.0, None, 0.5, mu)
            lhs = float(z @ mu) - float(f.evaluate(0.0, None, 0.5, z))
            assert abs(lhs - g) <= 1e-8, (name, z, mu, lhs, g)


@pytest.mark.parametrize("name", ALL_DRIVERS)
def test_catalog_driver_properties_pass(name):
    rep = verify_driver_properties(make_driver(name), SamplingPlan(samples=128, seed=3))
    assert rep.passed, str(rep)


def test_property_report_negative_control():
    liar = DriverSpec(
        name="quad-y",
        at=lambda t, w, z: lambda y: np.asarray(y, dtype=float) ** 2
        + 0.0 * np.asarray(z, dtype=float)[..., 0],
        lipschitz_wy=1.0,  # false: true constant grows with |y|
    )
    rep = verify_driver_properties(liar, SamplingPlan(samples=128, seed=5))
    assert not rep.passed
    assert any(c.name == "lipschitz-wy" for c in rep.failures())


def test_nan_driver_fails_every_checkable_property():
    rep = verify_driver_properties(make_driver("constant:nan"), SamplingPlan(samples=16, seed=3))
    checked = [c for c in rep.checks if c.passed is not None]
    assert {c.name for c in checked} >= {"convex-z", "lipschitz-wy", "local-lipschitz-z"}
    for c in checked:
        assert c.passed is False and math.isnan(c.deviation), c.name


def test_path_dependent_driver_accepts_w():
    f = DriverSpec(
        name="running-max",
        at=lambda t, w, z: lambda y: np.max(np.abs(w), axis=(-2, -1))
        + 0.0 * np.asarray(z, dtype=float)[..., 0],
        lipschitz_wy=1.0,
        w_dependence="path",
    )
    w = np.array([[0.0], [0.3], [-0.9]])
    assert float(f.evaluate(0.5, w, 0.0, np.array([0.0]))) == pytest.approx(0.9)
    assert f.path_dependent


@pytest.mark.parametrize("lipschitz_wy,passed", [(1.0, True), (0.5, False)])
def test_property_probe_moves_the_path_of_a_path_dependent_driver(lipschitz_wy, passed):
    # the running max of test_path_dependent_driver_accepts_w has constant 1
    # in the sup norm of w; the probe samples a pair of paths per point, and
    # only the distance between them refutes a constant of 0.5
    f = DriverSpec(
        name="running-max",
        at=lambda t, w, z: lambda y: np.max(np.abs(w), axis=(-2, -1))
        + 0.0 * np.asarray(z, dtype=float)[..., 0],
        lipschitz_wy=lipschitz_wy,
        w_dependence="path",
    )
    rep = verify_driver_properties(f, SamplingPlan(samples=64, seed=3))
    (check,) = [c for c in rep.checks if c.name == "lipschitz-wy"]
    assert check.passed is passed
