"""End-to-end acceptance checks for the solver stack.

Each test covers one externally visible guarantee and prints a one-line
verdict, so a verbose run doubles as a scorecard.  Tolerances are part of
the contract; do not loosen them to make a failing build pass.
"""

import dataclasses
import math
import re
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import oracles
from bsdelattice.cli import main as cli_main
from bsdelattice.drivers import (
    TerminalFunctional,
    conjugate,
    make_driver,
    make_terminal,
    numeric_conjugate,
    scale_terminal,
    shift_terminal,
    subgradient,
)
from bsdelattice.duality import (
    comparison_minimum,
    dual_value,
    duality_gap,
    optimal_control,
    random_admissible_control,
)
from bsdelattice.lattice import build_lattice
from bsdelattice.picard import picard_solve
from bsdelattice.solver import solve_backward, terminal_values, z_bound_certificate
from bsdelattice.approximation import monotone_limit_experiment, refinement_experiment

DRIVER_NAMES = ("zero", "constant:0.5", "linear:1,1", "quadratic", "quartic", "abs", "exp")
TERMINAL_NAMES = ("endpoint", "const:1", "maxpath", "digital", "clipped-endpoint")
LIPSCHITZ_TERMINALS = ("endpoint", "const:1", "maxpath", "clipped-endpoint")


def _verdict(num, label, ok, detail):
    line = "[check %02d/13] %s %s (%s)" % (num, "PASS" if ok else "FAIL", label, detail)
    print(line)
    assert ok, line


def test_01_zero_driver_reproduces_walk():
    # With no driver the value process must be the conditional expectation
    # chain of the endpoint, i.e. the walk itself, with unit first-component
    # volatility and no orthogonal remainder.
    f = make_driver("zero")
    phi = make_terminal("endpoint")
    start = time.monotonic()
    worst = 0.0
    m_worst = 0.0
    for dim in (1, 2):
        for n in range(1, 13):
            lat = build_lattice(n, dim=dim, leaf_budget=2 ** 24)
            sol = solve_backward(lat, f, phi)
            for i in range(n + 1):
                w = lat.walk_slice(i)
                worst = max(worst, float(np.max(np.abs(sol.Y[i] - w[:, 0]))))
            m_total = 0.0
            for i in range(n):
                z = sol.Z[i]
                worst = max(worst, float(np.max(np.abs(z[:, 0] - 1.0))))
                if dim > 1:
                    worst = max(worst, float(np.max(np.abs(z[:, 1:]))))
                step = float(np.max(np.abs(sol.dm(i))))
                worst = max(worst, step)
                m_total += step
            m_worst = max(m_worst, m_total)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and m_worst <= 1e-12 and elapsed < 5.0
    _verdict(1, "walk reproduction", ok, "max dev %.2e, remainder %.2e, %.2fs" % (worst, m_worst, elapsed))


def test_02_constant_driver_shifts_by_remaining_time():
    # A state-free constant driver telescopes: every node value is the
    # conditional mean of the terminal payoff plus c * (time remaining).
    cases = [
        (0.7, "maxpath", 5, 1),
        (-0.3, "clipped-endpoint", 3, 2),
        (0.5, "digital", 4, 1),
    ]
    worst = 0.0
    for c, tname, n, dim in cases:
        lat = build_lattice(n, dim=dim)
        phi = make_terminal(tname)
        sol = solve_backward(lat, make_driver("constant:%s" % c), phi)
        dt = lat.grid.dt
        leaves = {
            choices: float(
                np.asarray(phi(np.asarray(oracles.walk_path(choices, dim, dt))[None])).ravel()[0]
            )
            for choices in product(range(2 ** dim), repeat=n)
        }
        horizon = lat.grid.horizon
        for i in range(n + 1):
            remaining = horizon - lat.grid.time(i)
            for k, choices in enumerate(product(range(2 ** dim), repeat=i)):
                want = oracles.conditional_mean(leaves, choices, n, dim) + c * remaining
                worst = max(worst, abs(float(sol.Y[i][k]) - want))
    _verdict(2, "constant-driver telescoping", worst <= 1e-12, "max dev %.2e" % worst)


def test_03_recombining_scheme_approaches_closed_form_limit():
    # f = 1 + |y| + |z| with terminal 1 has the closed-form limit 2e - 1;
    # refinements must home in on it monotonically.
    start = time.monotonic()
    study = refinement_experiment(
        make_driver("linear:1,1"),
        make_terminal("const:1"),
        (10, 50, 100, 500),
        reference=2.0 * math.e - 1.0,
        mode="recombining",
    )
    elapsed = time.monotonic() - start
    errs = [row[2] for row in study.rows]
    ok = study.errors_decreasing and errs[-1] <= 0.05 and elapsed < 1.0
    _verdict(3, "closed-form refinement", ok, "errors %s, %.2fs" % (["%.4f" % e for e in errs], elapsed))


def test_04_convex_dual_attains_the_primal_value():
    # Quadratic driver, two steps: root value 1/2, no gap at the subgradient
    # tilt, and every random admissible tilt stays weakly below the primal.
    lat = build_lattice(2, dim=1)
    f = make_driver("quadratic")
    phi = make_terminal("endpoint")
    sol = solve_backward(lat, f, phi)
    ok = abs(sol.y0 - 0.5) <= 1e-12
    control = optimal_control(sol, f)
    cand = dual_value(lat, f, terminal_values(lat, phi), control)
    rep = duality_gap(sol, cand, control)
    ok = ok and abs(rep.root_gap) <= 1e-9 and rep.min_gap >= -1e-9
    rng = np.random.default_rng(7)
    weak_min = math.inf
    for _ in range(64):
        mu = random_admissible_control(lat, rng)
        weak = duality_gap(sol, dual_value(lat, f, terminal_values(lat, phi), mu), mu)
        weak_min = min(weak_min, weak.min_gap)
    ok = ok and weak_min >= -1e-9

    # a flat-sided driver needs the numeric conjugate route; the gap at the
    # subgradient tilt must still close to quadrature accuracy
    lat4 = build_lattice(4, dim=1)
    f4 = make_driver("quartic")
    phi4 = scale_terminal(make_terminal("endpoint"), 0.25)
    s4 = solve_backward(lat4, f4, phi4)
    c4 = optimal_control(s4, f4)
    numeric4 = dataclasses.replace(f4, conjugate_at=None)
    rep4 = duality_gap(s4, dual_value(lat4, numeric4, terminal_values(lat4, phi4), c4), c4)
    ok = ok and abs(rep4.root_gap) <= 1e-6
    _verdict(
        4,
        "dual attainment",
        ok,
        "root %.3f, gap %.1e, weak min %.1e, numeric gap %.1e"
        % (sol.y0, rep.root_gap, weak_min, rep4.root_gap),
    )


def test_05_certified_instances_respect_the_volatility_bound():
    # Wherever the step-size certificate signs off, the realized sup-node
    # volatility stays under the closed-form envelope.
    rng = np.random.default_rng(20260823)
    applied = 0
    worst_excess = -math.inf
    for _ in range(100):
        fname = DRIVER_NAMES[rng.integers(0, len(DRIVER_NAMES))]
        tname = LIPSCHITZ_TERMINALS[rng.integers(0, len(LIPSCHITZ_TERMINALS))]
        scale = float(rng.uniform(0.2, 1.5))
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 3))
        lat = build_lattice(n, dim=dim)
        f = make_driver(fname)
        phi = scale_terminal(make_terminal(tname), scale)
        cert = z_bound_certificate(f, phi, lat)
        if not cert.applies:
            continue
        applied += 1
        sol = solve_backward(lat, f, phi)
        worst_excess = max(worst_excess, sol.z_sup() - cert.bound)
    ok = applied >= 40 and worst_excess <= 1e-9
    _verdict(5, "volatility envelope", ok, "%d/100 certified, excess %.2e" % (applied, worst_excess))


def test_06_larger_terminal_gives_larger_value():
    # Adding a nonnegative constant to the terminal payoff can only raise
    # the value process, node by node.
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        fname = DRIVER_NAMES[rng.integers(0, len(DRIVER_NAMES))]
        tname = LIPSCHITZ_TERMINALS[rng.integers(0, len(LIPSCHITZ_TERMINALS))]
        delta = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 3))
        lat = build_lattice(n, dim=dim)
        f = make_driver(fname)
        phi = make_terminal(tname)
        lo = solve_backward(lat, f, phi)
        hi = solve_backward(lat, f, shift_terminal(phi, delta))
        worst = min(worst, comparison_minimum(lo, hi))
    _verdict(6, "terminal comparison", worst >= -1e-12, "min margin %.2e" % worst)


def test_07_terminal_perturbations_stay_controlled():
    # Two terminals under one state-free driver: value gap bounded by the
    # exponential-growth factor times the worst path gap of the payoffs.
    rng = np.random.default_rng(20260823)
    state_free = tuple(n for n in DRIVER_NAMES if make_driver(n).y_dependence == "none")
    worst_excess = -math.inf
    for _ in range(50):
        fname = state_free[rng.integers(0, len(state_free))]
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 3))
        lat = build_lattice(n, dim=dim)
        f = make_driver(fname)
        pa = scale_terminal(
            make_terminal(LIPSCHITZ_TERMINALS[rng.integers(0, len(LIPSCHITZ_TERMINALS))]),
            float(rng.uniform(0.3, 1.2)),
        )
        pb = shift_terminal(
            scale_terminal(
                make_terminal(LIPSCHITZ_TERMINALS[rng.integers(0, len(LIPSCHITZ_TERMINALS))]),
                float(rng.uniform(0.3, 1.2)),
            ),
            float(rng.uniform(-0.5, 0.5)),
        )
        sa = solve_backward(lat, f, pa)
        sb = solve_backward(lat, f, pb)
        gap = max(float(np.max(np.abs(sa.Y[i] - sb.Y[i]))) for i in range(n + 1))
        leaf = lat.paths(lat.steps)
        spread = float(np.max(np.abs(pa(leaf) - pb(leaf))))
        growth = math.exp(f.lipschitz_wy * lat.grid.horizon)
        worst_excess = max(worst_excess, gap - growth * spread)
    _verdict(7, "terminal stability", worst_excess <= 1e-9, "worst excess %.2e" % worst_excess)


def test_08_iterative_scheme_matches_the_direct_solve():
    # Fixed-point iteration must land on the direct backward solution for
    # every catalog pairing, with the sup-distance metric settling down
    # monotonically after the opening sweep.
    worst = 0.0
    monotone = True
    for fname in DRIVER_NAMES:
        for tname in TERMINAL_NAMES:
            lat = build_lattice(6, dim=1)
            f = make_driver(fname)
            phi = make_terminal(tname)
            direct = solve_backward(lat, f, phi)
            result = picard_solve(lat, f, phi)
            for i in range(7):
                worst = max(worst, float(np.max(np.abs(result.solution.Y[i] - direct.Y[i]))))
                if i < 6:
                    worst = max(worst, float(np.max(np.abs(result.solution.Z[i] - direct.Z[i]))))
            sups = [row.dY_sup for row in result.trace[1:]]
            monotone = monotone and all(sups[j + 1] <= sups[j] for j in range(len(sups) - 1))
    ok = worst <= 1e-9 and monotone
    _verdict(8, "fixed-point consistency", ok, "max dev %.2e, monotone %s" % (worst, monotone))


def test_09_lower_approximations_increase_to_the_target():
    # Lipschitz lower envelopes of the digital payoff produce values that
    # rise with the level and whose increments shrink.
    lat = build_lattice(8, dim=1)
    ladder = monotone_limit_experiment(lat, make_driver("quadratic"), make_terminal("digital"))
    ok = ladder.monotone and ladder.increments_decreasing
    mins = ["%.1e" % row.min_increment for row in ladder.rows[1:]]
    _verdict(9, "monotone approximation", ok, "min increments %s" % mins)


def test_10_numeric_conjugate_and_subgradient_agree_with_closed_forms():
    samples = [np.array([0.0])]
    mu_grid = np.linspace(-2.0, 2.0, 64)
    worst_conj = 0.0
    inf_agree = True
    names = ("quadratic", "abs", "quartic")
    for fname in names:
        f = make_driver(fname)
        for mu in mu_grid:
            ana = conjugate(f, 0.5, samples, 0.0, np.array([mu]))
            num = numeric_conjugate(f, 0.5, samples, 0.0, np.array([mu]))
            if math.isinf(ana) or math.isinf(num):
                inf_agree = inf_agree and math.isinf(ana) and math.isinf(num)
            else:
                worst_conj = max(worst_conj, abs(num - ana))
    rng = np.random.default_rng(11)
    worst_fy = 0.0
    for k in range(256):
        f = make_driver(names[k % len(names)])
        z = np.array([float(rng.uniform(-2.0, 2.0))])
        mu = subgradient(f, 0.5, samples, 0.0, z, validate=False)
        g = conjugate(f, 0.5, samples, 0.0, mu)
        worst_fy = max(worst_fy, abs(float(mu @ z) - float(f.evaluate(0.5, samples, 0.0, z)) - g))
    ok = worst_conj <= 1e-6 and inf_agree and worst_fy <= 1e-6
    _verdict(
        10,
        "conjugate agreement",
        ok,
        "conj dev %.2e, pairing dev %.2e, inf match %s" % (worst_conj, worst_fy, inf_agree),
    )


def test_11_cross_term_payoff_lands_in_the_orthogonal_remainder():
    # The product of the two walk components after one step has zero mean
    # and zero projection on each increment, so the whole payoff must sit
    # in the orthogonal remainder, exactly.
    lat = build_lattice(1, dim=2)
    phi = TerminalFunctional(
        name="increment-product",
        evaluate=lambda paths: np.asarray(paths, dtype=float)[..., -1, 0]
        * np.asarray(paths, dtype=float)[..., -1, 1],
    )
    sol = solve_backward(lat, make_driver("zero"), phi)
    xi = phi.evaluate(lat.paths(lat.steps))
    exact = bool(np.all(sol.Z[0] == 0.0)) and np.array_equal(sol.dm(0).ravel(), xi)
    inc = lat.step_increments()
    ortho = float(np.max(np.abs(sol.dm(0) @ inc / inc.shape[0])))
    ok = exact and sol.y0 == 0.0 and ortho <= 1e-12
    _verdict(11, "orthogonal remainder", ok, "exact %s, orthogonality %.2e" % (exact, ortho))


def test_12_identical_configs_give_identical_bytes(tmp_path):
    # Two runs of the same config must produce byte-identical CSV output.
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        code = cli_main(
            [
                "solve",
                "--steps", "6",
                "--driver", "quadratic",
                "--terminal", "maxpath",
                "--out", str(out / "solution.csv"),
            ]
        )
        assert code == 0
        code = cli_main(
            [
                "duality",
                "--steps", "4",
                "--driver", "abs",
                "--terminal", "endpoint",
                "--samples", "8",
                "--seed", "3",
                "--out", str(out / "duality.csv"),
            ]
        )
        assert code == 0
        outputs.append(
            ((out / "solution.csv").read_bytes(), (out / "duality.csv").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    _verdict(12, "byte-level determinism", ok, "solve+duality runs compared across two runs")


def test_13_readme_quick_start_runs():
    # the README's python block is the documented API
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    gap = scope["gap"]
    _verdict(13, "readme quick start", abs(gap.root_gap) <= 1e-9, "root gap %.2e" % gap.root_gap)
