import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdelattice.errors import BudgetError, StructuralError, TimeDomainError
from bsdelattice.lattice import (
    DEFAULT_LEAF_BUDGET,
    TimeGrid,
    _sum_columns,
    build_lattice,
    gather_children,
    sign_matrix,
)
from bsdelattice.verify import verify_walk_conditions

import oracles


def enumerate_paths(steps, dim, horizon):
    """Oracle: all sign paths in lexicographic order, walk values by running sum."""
    s = math.sqrt(horizon / steps)
    choices = list(itertools.product(range(2 ** dim), repeat=steps))
    paths = []
    for cs in choices:
        w = [tuple(0.0 for _ in range(dim))]
        for c in cs:
            inc = tuple(
                (s if ((c >> (dim - 1 - k)) & 1) == 0 else -s) for k in range(dim)
            )
            w.append(tuple(a + b for a, b in zip(w[-1], inc)))
        paths.append((cs, w))
    return paths


def test_grid_basic():
    g = TimeGrid(horizon=2.0, steps=4)
    assert g.dt == 0.5
    assert g.times.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert g.time(3) == 1.5
    with pytest.raises(TimeDomainError):
        g.time(5)


def test_sign_matrix_order():
    s = sign_matrix(2)
    assert s.tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]


@pytest.mark.parametrize("steps,dim", [(1, 1), (3, 1), (2, 2), (2, 3)])
def test_full_walk_matches_enumeration(steps, dim):
    lat = build_lattice(steps, dim=dim, horizon=1.0)
    oracle = enumerate_paths(steps, dim, 1.0)
    assert lat.node_count(steps) == len(oracle)
    for i in range(steps + 1):
        ws = lat.walk_slice(i)
        assert ws.shape == (2 ** (dim * i), dim)
        # prefix at slice i of leaf r is node r // 2**(d*(steps-i))
        for r, (_, w) in enumerate(oracle):
            k = r // (2 ** (dim * (steps - i)))
            assert np.allclose(ws[k], w[i], atol=1e-14, rtol=0.0)


def test_recombining_walk_slices_are_the_grids():
    # a recombining slice is a grid of points, not the last slice repeated
    lat = build_lattice(3, dim=2, mode="recombining")
    walk = list(lat.walk_slices())
    assert [w.shape for w in walk] == [((i + 1) ** 2, 2) for i in range(4)]
    s = math.sqrt(1.0 / 3)
    for i, w in enumerate(walk):
        want = [[(i - 2 * a) * s, (i - 2 * b) * s] for a in range(i + 1) for b in range(i + 1)]
        assert np.allclose(w, want, atol=1e-15, rtol=0.0)


def test_lattice_holds_only_what_init_sets():
    for mode in ("full", "recombining"):
        lat = build_lattice(4, dim=2, mode=mode)
        before = dict(vars(lat))
        list(lat.walk_slices())
        lat.walk_slice(3)
        lat.slice_probabilities(2)
        verify_walk_conditions(lat)
        if mode == "full":
            lat.paths(3, [0, 5])
        assert vars(lat).keys() == before.keys()
        assert all(vars(lat)[key] is value for key, value in before.items())
        assert not any(isinstance(value, dict) for value in before.values())


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(data=st.data())
def test_paths_carry_the_walk_slices_bits(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    steps = data.draw(st.integers(1, {1: 12, 2: 6, 3: 4}[dim]), label="steps")
    lat = build_lattice(steps, dim=dim)
    i = data.draw(st.integers(0, steps), label="i")
    n = lat.node_count(i)
    rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=40), label="rows")
    k = np.arange(n) if rows is None else np.array(rows, dtype=np.intp)
    got = lat.paths(i, None if rows is None else k)
    walk = list(lat.walk_slices())
    assert got.shape == (k.size, i + 1, dim)
    for j in range(i + 1):
        want = walk[j][k >> (dim * (i - j))]
        assert got[:, j, :].tobytes() == want.tobytes(), j
    assert lat.walk_slice(i).tobytes() == lat.paths(i)[:, -1].tobytes()
    rec = build_lattice(steps, dim=dim, mode="recombining")
    for j, w in enumerate(rec.walk_slices()):
        m = np.array(np.unravel_index(np.arange((j + 1) ** dim), (j + 1,) * dim)).T
        assert w.tobytes() == ((j - 2.0 * m) * rec.grid.sqrt_dt).tobytes(), j
        assert w.tobytes() == rec.walk_slice(j).tobytes(), j


@pytest.mark.parametrize("dim,steps", [(1, 16), (2, 8), (3, 5)])
def test_paths_on_deep_slices_carry_the_walk_slices_bits(dim, steps):
    lat = build_lattice(steps, dim=dim)
    walk = list(lat.walk_slices())
    rows = np.arange(lat.node_count(steps))[3::7]
    got = lat.paths(steps, rows)
    for j, w in enumerate(walk):
        assert got[:, j, :].tobytes() == w[rows >> (dim * (steps - j))].tobytes(), j


def test_paths_of_no_rows():
    # an empty list is no rows, not a float array
    lat = build_lattice(3)
    for rows in ([], ()):
        assert lat.paths(3, rows).shape == (0, 4, 1)


def test_full_probabilities_exact():
    lat = build_lattice(3, dim=2)
    for i in range(4):
        p = lat.slice_probabilities(i)
        assert p.shape == (4 ** i,)
        # powers of two are exact in binary floating point
        assert all(x == float(Fraction(1, 4 ** i)) for x in p)


def assert_children_one_increment_away(lat):
    inc = lat.step_increments()
    for i in range(lat.steps):
        kids = gather_children(lat, i, lat.walk_slice(i + 1))
        w = lat.walk_slice(i)
        assert kids.shape == (lat.node_count(i), lat.n_choices, lat.dim)
        for k in range(lat.node_count(i)):
            for c in range(lat.n_choices):
                assert np.allclose(kids[k, c], w[k] + inc[c], atol=1e-14, rtol=0.0)


def test_parent_child_structure():
    for dim in (1, 2):
        lat = build_lattice(3, dim=dim)
        assert_children_one_increment_away(lat)
        for i in range(3):
            ids = gather_children(lat, i, np.arange(lat.node_count(i + 1)))
            # the children of node k are the block k*2**d .. k*2**d + 2**d - 1
            for k in range(lat.node_count(i)):
                assert ids[k].tolist() == list(range(k * lat.n_choices, (k + 1) * lat.n_choices))


def test_sign_label():
    lat = build_lattice(2, dim=1)
    assert lat.sign_label(2, 0) == "(+,+)"
    assert lat.sign_label(2, 3) == "(-,-)"
    lat2 = build_lattice(2, dim=2)
    assert lat2.sign_label(1, 1) == "(+-)"
    assert lat2.sign_label(2, 0b0110) == "(+-,-+)"


def test_budget_enforced():
    with pytest.raises(BudgetError):
        build_lattice(21, dim=1)
    with pytest.raises(BudgetError):
        build_lattice(11, dim=2)
    # exactly at the default budget is allowed
    lat = build_lattice(20, dim=1)
    assert lat.node_count(20) == DEFAULT_LEAF_BUDGET
    # and the budget is overridable
    lat = build_lattice(21, dim=1, leaf_budget=2 ** 21)
    assert lat.node_count(21) == 2 ** 21
    # None is the default budget, with the default's message
    assert build_lattice(20, dim=1, leaf_budget=None).node_count(20) == DEFAULT_LEAF_BUDGET
    with pytest.raises(BudgetError, match=r"needs leaf_budget >= 2097152 \(default 1048576\)"):
        build_lattice(21, dim=1, leaf_budget=None)


def test_budget_binds_the_last_slice_on_both_layouts():
    # d=2 recombining: (N+1)^2 points on the last slice, 2^20 at N=1023
    assert build_lattice(1023, dim=2, mode="recombining").node_count(1023) == DEFAULT_LEAF_BUDGET
    with pytest.raises(BudgetError, match="mode=recombining has 1050625 leaf nodes"):
        build_lattice(1024, dim=2, mode="recombining")
    assert build_lattice(1024, dim=2, mode="recombining", leaf_budget=1025 ** 2).node_count(1024) == 1025 ** 2


def test_recombining_counts_and_probabilities():
    lat = build_lattice(4, dim=1, mode="recombining")
    for i in range(5):
        assert lat.node_count(i) == i + 1
        p = lat.slice_probabilities(i)
        exact = [float(Fraction(math.comb(i, m), 2 ** i)) for m in range(i + 1)]
        assert np.allclose(p, exact, rtol=1e-15, atol=0.0)
        w = lat.walk_slice(i)
        assert np.allclose(w[:, 0], [(i - 2 * m) * math.sqrt(0.25) for m in range(i + 1)])
    lat2 = build_lattice(3, dim=2, mode="recombining")
    assert lat2.node_count(3) == 16
    assert abs(lat2.slice_probabilities(3).sum() - 1.0) < 1e-15


def test_recombining_children_reach_correct_points():
    for steps, dim in ((5, 1), (3, 2)):
        lat = build_lattice(steps, dim=dim, mode="recombining")
        assert_children_one_increment_away(lat)
    with pytest.raises(StructuralError):
        gather_children(lat, 0, np.zeros(3))


def test_interpolate_linear_values():
    # the reference interpolation the driver-context check relies on
    dt = 0.5
    s = math.sqrt(dt)
    # leaf 0 is (+,+): W = (0, s, 2s)
    up = oracles.walk_path((0, 0), 1, dt)
    assert oracles.interpolate_linear(up, dt, 0.0) == (0.0,)
    assert oracles.interpolate_linear(up, dt, 0.25)[0] == pytest.approx(0.5 * s)
    assert oracles.interpolate_linear(up, dt, 0.5)[0] == pytest.approx(s)
    assert oracles.interpolate_linear(up, dt, 0.75)[0] == pytest.approx(1.5 * s)
    assert oracles.interpolate_linear(up, dt, 1.0)[0] == pytest.approx(2 * s)
    # leaf 1 is (+,-): W = (0, s, 0)
    up_down = oracles.walk_path((0, 1), 1, dt)
    assert oracles.interpolate_linear(up_down, dt, 0.75)[0] == pytest.approx(0.5 * s)
    # interior node (1, 1) determines the walk only up to t_1
    down = oracles.walk_path((1,), 1, dt)
    assert oracles.interpolate_linear(down, dt, 0.3)[0] == pytest.approx(-0.6 * s)
    with pytest.raises(ValueError):
        oracles.interpolate_linear(down, dt, 0.75)
    with pytest.raises(ValueError):
        oracles.interpolate_linear(up, dt, 1.5)


def test_interpolate_shifted_is_delayed():
    dt = 0.5
    s = math.sqrt(dt)
    up = oracles.walk_path((0, 0), 1, dt)
    for t in (0.0, 0.2, 0.5):
        assert oracles.interpolate_shifted(up, dt, t)[0] == 0.0
    # t in (dt, T]: shifted value is the linear interpolation at t - dt
    assert oracles.interpolate_shifted(up, dt, 0.75)[0] == pytest.approx(0.5 * s)
    assert oracles.interpolate_shifted(up, dt, 1.0)[0] == pytest.approx(s)
    # adaptedness: at t = 1.0 the value is W(t_1), common to both children
    # and known from their parent alone
    up_down = oracles.walk_path((0, 1), 1, dt)
    parent = oracles.walk_path((0,), 1, dt)
    assert oracles.interpolate_shifted(up, dt, 1.0) == oracles.interpolate_shifted(up_down, dt, 1.0)
    assert oracles.interpolate_shifted(parent, dt, 1.0) == oracles.interpolate_shifted(up, dt, 1.0)


def test_leaf_paths_match_enumeration():
    lat = build_lattice(3, dim=2)
    for i in range(4):
        paths = lat.paths(i)
        assert paths.shape == (lat.node_count(i), i + 1, 2)
        for node in itertools.product(range(4), repeat=i):
            want = oracles.walk_path(node, 2, lat.grid.dt)
            assert np.allclose(paths[oracles.node_index(node, 2)], want, atol=1e-14)
        rows = np.arange(lat.node_count(i))[::-3]
        assert np.array_equal(lat.paths(i, rows), paths[rows])
    oracle = enumerate_paths(3, 2, 1.0)
    assert np.allclose(lat.paths(3), [w for _, w in oracle], atol=1e-14)


def test_walk_conditions_pass_exactly():
    for lat in (build_lattice(3, dim=2), build_lattice(5, dim=1, mode="recombining")):
        rep = verify_walk_conditions(lat)
        assert rep.passed, str(rep)
        names = [c.name for c in rep.checks]
        assert "mesh-limit" in names
        deferred = [c for c in rep.checks if c.name == "mesh-limit"][0]
        assert deferred.passed is None


def test_walk_conditions_exact_rational_oracle():
    # second moments p * dW^2 sum exactly to dt when done in rationals
    steps, dim = 3, 2
    total = Fraction(0)
    for _ in range(2 ** dim):
        total += Fraction(1, 2 ** dim) * Fraction(1, steps)  # (+-sqrt(dt))^2 = dt exactly
    assert total == Fraction(1, steps)


def gather_children_by_index(lat, i, child_values):
    """Oracle: child of grid point m under choice c is point m + downs(c) of slice i+1."""
    side = (i + 1,) * lat.dim
    out = []
    for k in range(lat.node_count(i)):
        m = np.unravel_index(k, side)
        row = []
        for signs in lat.signs:
            point = tuple(int(a + (s < 0)) for a, s in zip(m, signs))
            row.append(child_values[np.ravel_multi_index(point, (i + 2,) * lat.dim)])
        out.append(row)
    return np.array(out, dtype=child_values.dtype)


@pytest.mark.parametrize("dim, steps", [(1, 7), (2, 5), (3, 4)])
def test_recombining_gather_equals_index_oracle(dim, steps):
    lat = build_lattice(steps, dim=dim, mode="recombining")
    for i in range(steps):
        n_next = lat.node_count(i + 1)
        ids = gather_children(lat, i, np.arange(n_next))
        want = gather_children_by_index(lat, i, np.arange(n_next))
        # integer ids keep their dtype, so they can index a slice
        assert ids.dtype == np.arange(1).dtype and ids.flags.c_contiguous
        assert ids.shape == (lat.node_count(i), lat.n_choices)
        assert np.array_equal(ids, want)
        # trailing axes ride along, as walk slices (n, d) do
        walk = lat.walk_slice(i + 1)
        got = gather_children(lat, i, walk)
        assert got.flags.c_contiguous and got.shape == (lat.node_count(i), lat.n_choices, dim)
        assert got.tobytes() == gather_children_by_index(lat, i, walk).tobytes()


def _sum_rows(k, rng):
    """(n, k) rows with signed zeros, infinities, NaN, subnormals and huge values."""
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]
    v = rng.standard_normal((400, k)) * 10.0 ** rng.integers(-30, 30, (400, k))
    mask = rng.random((400, k)) < 0.3
    v[mask] = rng.choice(specials, int(mask.sum()))
    v[:20] = -0.0
    v[20:40] = rng.choice([0.0, -0.0], (20, k))
    v[40:60] = rng.choice([1e308, -1e308, 5e-324], (20, k))
    return v


@pytest.mark.parametrize("k", range(1, 11))
def test_column_sum_has_numpys_reduction_bits(k):
    # pins the reduction order the one-step means rely on: a numpy that
    # reorders its short-axis sums fails here, not in a CSV digest
    v = _sum_rows(k, np.random.default_rng(k))
    wide = np.repeat(v[:, :, None], 3, axis=2)
    layouts = {
        "contiguous block": v,
        # the full layout's reshape view of a (n * k, 3) slice, one column of it
        "strided view": wide.reshape(-1, 3).reshape(v.shape[0], k, 3)[:, :, 1],
        "column-major": np.asfortranarray(v),
    }
    with np.errstate(invalid="ignore", over="ignore"):
        for name, a in layouts.items():
            got = _sum_columns(a)
            assert got.tobytes() == a.sum(axis=1).tobytes(), name
            assert (got / k).tobytes() == a.mean(axis=1).tobytes(), name
            assert _sum_columns(a[7]).tobytes() == a[7].sum().tobytes(), name
        # the -0.0 rows are where a sum without numpy's leading 0.0 differs
        assert not np.signbit(_sum_columns(v[:20])).any()


def test_walk_conditions_catch_corruption(monkeypatch):
    lat = build_lattice(3, dim=1)
    sound = lat.slice_probabilities

    def corrupted(i):
        p = sound(i)
        if i == 2:
            p[0] += 1e-3  # negative control: break the lattice's measure on slice 2
        return p

    monkeypatch.setattr(lat, "slice_probabilities", corrupted)
    rep = verify_walk_conditions(lat)
    assert not rep.passed
    assert any(c.name == "moments" for c in rep.failures())


@pytest.mark.parametrize("mode", ["full", "recombining"])
def test_walk_conditions_fail_nan_probabilities(monkeypatch, mode):
    lat = build_lattice(3, dim=2, mode=mode)
    sound = lat.slice_probabilities
    monkeypatch.setattr(lat, "slice_probabilities", lambda i: np.full_like(sound(i), np.nan))
    rep = verify_walk_conditions(lat)
    assert [c.name for c in rep.failures()] == ["moments"]
    assert math.isnan(rep.failures()[0].deviation)
    assert "walk:moments FAIL" in str(rep).splitlines()


def test_walk_conditions_catch_a_negative_probability(monkeypatch):
    # the masses still sum to 1, and the recombining transitions never read
    # the last slice, so only the negative-mass term sees it
    lat = build_lattice(2, mode="recombining")
    sound = lat.slice_probabilities
    monkeypatch.setattr(
        lat, "slice_probabilities", lambda i: np.array([0.75, -0.5, 0.75]) if i == 2 else sound(i)
    )
    rep = verify_walk_conditions(lat)
    assert [(c.name, c.deviation) for c in rep.failures()] == [("moments", 0.5)]


def test_walk_conditions_catch_misplaced_children(monkeypatch):
    for mode in ("full", "recombining"):
        lat = build_lattice(3, dim=1, mode=mode)
        sound = lat.walk_slices

        def corrupted():
            for i, w in enumerate(sound()):
                if i == 2:
                    w = w.copy()
                    w[-1] += 1e-6  # negative control: move one slice-2 node off its point
                yield w

        monkeypatch.setattr(lat, "walk_slices", corrupted)
        rep = verify_walk_conditions(lat)
        assert [c.name for c in rep.failures()] == ["children"]
