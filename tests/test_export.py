"""The CSV row writer behind both exports, against the per-row oracle writers.

solver._write_rows cuts the rows of all slices into blocks of
_BLOCK_BYTES // (fields * _FIELD.itemsize) rows, so a block may start in one
slice and end in a later one.  These tests set _BLOCK_BYTES to get the block
edges they need, and each asserts that its edges fall where it says: inside
a slice, on a slice's last row, between node ids of different digit counts,
and next to empty fields.  The bytes must equal those of the oracles, which
format one value at a time.

The three small tables (the regularization ladder, the refinement study and
the Picard trace) share solver._write_table; their bytes are pinned as
literal text.  Last, the benchmark's solve invocations run as child
processes, as perfbench/run.py runs them, and their CSVs must have one of
the sha256 digests recorded in perfbench/digests.json.
"""

import importlib.util
import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsdelattice import solver
from bsdelattice.approximation import (
    ApproximationLadder,
    LadderRow,
    RefinementStudy,
    export_ladder_csv,
    export_refinement_csv,
)
from bsdelattice.drivers import make_driver, make_terminal
from bsdelattice.duality import dual_value, export_duality_csv, optimal_control
from bsdelattice.lattice import build_lattice
from bsdelattice.picard import PicardResult, TraceRow, export_picard_trace_csv
from bsdelattice.solver import SolutionTriple, export_solution_csv, solve_backward

import oracles


def _fields(kind, dim):
    """Fields a row of the export holds after its node id."""
    return dim + 2 if kind == "solve" else 4


def _set_block_rows(monkeypatch, kind, dim, rows):
    monkeypatch.setattr(solver, "_BLOCK_BYTES", rows * _fields(kind, dim) * solver._FIELD.itemsize)


def _first_rows(lat):
    """Row index (header excluded) of each slice's first node, and the row count."""
    counts = [lat.node_count(i) for i in range(lat.steps + 1)]
    return np.concatenate([[0], np.cumsum(counts)[:-1]]).tolist(), sum(counts)


def _assert_matches_oracle(kind, lat):
    terminal = "endpoint" if lat.mode == "full" else "clipped-endpoint"
    f = make_driver("linear:1,1")
    sol = solve_backward(lat, f, make_terminal(terminal))
    got, want = io.BytesIO(), io.StringIO()
    if kind == "solve":
        export_solution_csv(sol, got)
        oracles.per_row_solution_csv(sol, want)
    else:
        control = optimal_control(sol, f)
        cand = dual_value(lat, f, sol.Y[-1], control)
        export_duality_csv(sol, cand, control, got)
        oracles.per_row_duality_csv(sol, cand, control, want)
    text = got.getvalue().decode()
    assert oracles.first_difference(text, want.getvalue()) is None
    return text


KINDS = ["solve", "duality"]
# (mode, steps, dim) per dimension: several slices per block and blocks
# inside slices, at small block sizes
LATTICES = [
    ("full", 9, 1),
    ("recombining", 120, 1),
    ("full", 5, 2),
    ("recombining", 12, 2),
    ("full", 3, 3),
    ("recombining", 6, 3),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode,steps,dim", LATTICES)
@pytest.mark.parametrize("rows", [1, 7, 100])
def test_blocks_that_span_slices(monkeypatch, kind, mode, steps, dim, rows):
    lat = build_lattice(steps, dim=dim, mode=mode)
    starts, total = _first_rows(lat)
    # some slice boundary lies strictly inside a block (every one, at 1 row)
    assert rows == 1 or any(s % rows for s in starts[1:])
    _set_block_rows(monkeypatch, kind, dim, rows)
    text = _assert_matches_oracle(kind, lat)
    assert text.count("\n") == 1 + total


# (mode, steps, dim, rows): rows after each slice in the comment, with the
# slice ends that are block ends in brackets
EDGE_CASES = [
    ("full", 9, 1, 1023),  # 1, 3, ..., 511, [1023]: the file is one block
    ("full", 10, 1, 511),  # 1, 3, ..., [511], 1023, 2047 = 4 * 511 + 3
    ("recombining", 9, 1, 15),  # 1, 3, 6, 10, [15], 21, 28, 36, [45], 55
    ("full", 4, 2, 85),  # 1, 5, 21, [85], 341 = 4 * 85 + 1: a last block of one row
    ("recombining", 6, 2, 14),  # 1, 5, [14], 30, 55, 91, [140]
    ("full", 3, 3, 73),  # 1, 9, [73], 585 = 8 * 73 + 1
    ("recombining", 4, 3, 25),  # 1, 9, 36, [100], [225]
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode,steps,dim,rows", EDGE_CASES)
def test_a_slice_that_ends_on_a_block_edge(monkeypatch, kind, mode, steps, dim, rows):
    lat = build_lattice(steps, dim=dim, mode=mode)
    starts, total = _first_rows(lat)
    assert any(s % rows == 0 for s in starts[1:] + [total])
    _set_block_rows(monkeypatch, kind, dim, rows)
    _assert_matches_oracle(kind, lat)


# full layouts whose last slice has node ids past 10000: (steps, dim, rows
# before the last slice)
WIDE_LAST_SLICE = [(14, 1, 16383), (7, 2, 5461), (5, 3, 4681)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("steps,dim,before", WIDE_LAST_SLICE)
def test_node_ids_that_gain_a_digit_inside_a_block(monkeypatch, kind, steps, dim, before):
    lat = build_lattice(steps, dim=dim)
    starts, _ = _first_rows(lat)
    assert starts[-1] == before
    rows = 4096
    for k in (10, 100, 1000, 10000):
        # nodes k - 1 and k of the last slice share a block
        assert (before + k - 1) // rows == (before + k) // rows
    _set_block_rows(monkeypatch, kind, dim, rows)
    text = _assert_matches_oracle(kind, lat)
    lines = text.splitlines()
    sep = "," if kind == "solve" else ":"
    assert lines[1 + before + 9999].startswith("%d%s9999," % (steps, sep))
    assert lines[1 + before + 10000].startswith("%d%s10000," % (steps, sep))


# (mode, steps, dim, kind, rows, edge): the row of node 10000 of the last
# slice starts a block of rows (edge) or follows node 9999 inside one.  The
# test above has full N=14 inside a block; the recombining d=2 oracle
# writes 348k rows, so each separator runs it at one of the two
NODE_ID_CROSSINGS = [
    ("full", 14, 1, "solve", 3769, True),  # 16383 + 10000 = 7 * 3769
    ("full", 14, 1, "duality", 3769, True),
    ("recombining", 100, 2, "solve", 4096, False),
    ("recombining", 100, 2, "duality", 6967, True),  # 338350 + 10000 = 50 * 6967
]


@pytest.mark.parametrize("mode,steps,dim,kind,rows,edge", NODE_ID_CROSSINGS)
def test_node_ids_that_reach_five_digits(monkeypatch, mode, steps, dim, kind, rows, edge):
    lat = build_lattice(steps, dim=dim, mode=mode)
    starts, _ = _first_rows(lat)
    row = starts[-1] + 10000
    assert (row % rows == 0) == edge
    _set_block_rows(monkeypatch, kind, dim, rows)
    lines = _assert_matches_oracle(kind, lat).splitlines()
    sep = "," if kind == "solve" else ":"
    assert lines[row].startswith("%d%s9999," % (steps, sep))
    assert lines[1 + row].startswith("%d%s10000," % (steps, sep))


@pytest.mark.parametrize("kind", KINDS)
def test_time_indices_that_gain_a_digit_inside_a_block(kind):
    # recombining d=1 slice i has nodes 0..i; at the writer's own block size
    # slices 9 and 10, and 99 and 100, meet inside a block
    lat = build_lattice(120, dim=1, mode="recombining")
    starts, _ = _first_rows(lat)
    rows = solver._BLOCK_BYTES // (_fields(kind, 1) * solver._FIELD.itemsize)
    lines = _assert_matches_oracle(kind, lat).splitlines()
    sep = "," if kind == "solve" else ":"
    for i in (10, 100):
        assert (starts[i] - 1) // rows == starts[i] // rows
        assert lines[starts[i]].startswith("%d%s%d," % (i - 1, sep, i - 1))
        assert lines[1 + starts[i]].startswith("%d%s0," % (i, sep))


def test_time_indices_of_five_digits():
    # 10001 one-row slices share one block of the writer's own size, so
    # time indices of one to five digits meet inside it
    x = np.sin(np.arange(10001.0))
    assert solver._BLOCK_BYTES // solver._FIELD.itemsize > x.size  # one field a row
    buf = io.BytesIO()
    solver._write_rows(buf, ",", ([x[i : i + 1]] for i in range(x.size)))
    want = ["%d,0,%s\n" % (i, format(float(v), ".17g")) for i, v in enumerate(x)]
    assert buf.getvalue().decode() == "".join(want)


# (mode, steps, dim): the last slice starts inside a block of the writer's
# own size, so a block holds rows with Z (or margin) and rows without; the
# root, with no dM, shares the first block with later rows
EMPTY_FIELD_CASES = [
    ("full", 12, 1),
    ("recombining", 100, 1),
    ("full", 6, 2),
    ("recombining", 30, 2),
    ("full", 4, 3),
    ("recombining", 8, 3),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode,steps,dim", EMPTY_FIELD_CASES)
def test_empty_fields_inside_a_block(kind, mode, steps, dim):
    lat = build_lattice(steps, dim=dim, mode=mode)
    starts, _ = _first_rows(lat)
    rows = solver._BLOCK_BYTES // (_fields(kind, dim) * solver._FIELD.itemsize)
    assert rows > 1 and starts[-1] % rows != 0
    text = _assert_matches_oracle(kind, lat)
    root, last = text.splitlines()[1].split(","), text.splitlines()[-1].split(",")
    if kind == "solve":
        assert root[-1] == "" and "" not in root[:-1]  # dM at the root
        assert last[3 : 3 + dim] == [""] * dim and last[-1] != ""  # Z on the last slice
    else:
        assert "" not in root and last[-1] == ""  # the margin on the last slice


# numbers of every length '%.17g' writes, up to the 24 characters of a
# negative number with 17 digits and a three-digit exponent
WIDEST = [-4.9406564584124654e-324, -2.2250738585072014e-308, -1.7976931348623157e308,
          1.7976931348623157e308, -0.1, 1e22, -1e-5, 123456789.0, 0.5, -0.0, 7.0]


def test_the_widest_numbers_fill_their_fields():
    lat = build_lattice(4, dim=2)
    n = lat.node_count
    vals = [np.resize(np.roll(WIDEST, i), n(i)) for i in range(5)]
    sol = SolutionTriple(
        lattice=lat,
        Y=vals,
        Z=[np.stack([v, v[::-1]], axis=1) for v in vals[:4]],
    )
    got, want = io.BytesIO(), io.StringIO()
    with np.errstate(over="ignore", invalid="ignore"):  # dM overflows to inf and nan
        export_solution_csv(sol, got)
        oracles.per_row_solution_csv(sol, want)
    text = got.getvalue().decode()
    assert oracles.first_difference(text, want.getvalue()) is None
    assert max(len(f) for f in text.replace("\n", ",").split(",")) == solver._NUMBER_BYTES


def _csv(export, result):
    buf = io.BytesIO()
    export(result, buf)
    return buf.getvalue()


def test_ladder_csv_bytes():
    # the first level has no increment: its sup_increment and cauchy_bound_ok are empty
    ladder = ApproximationLadder(
        rows=[
            LadderRow("n=1", 0.1, 2.0),
            LadderRow("n=2", 1 / 3, 0.0, sup_increment=2.5e-20, cauchy_ok=True),
        ],
        monotone=True,
        increments_decreasing=True,
        cauchy_uniform=True,
    )
    assert _csv(export_ladder_csv, ladder) == (
        b"level,Y0,sup_increment,bmo,cauchy_bound_ok\n"
        b"n=1,0.10000000000000001,,2,\n"
        b"n=2,0.33333333333333331,2.4999999999999999e-20,0,1\n"
    )


def test_one_grid_refinement_csv_bytes():
    # one grid fits no order: fitted_order stays nan
    study = RefinementStudy(rows=[(10, 4.4, abs(4.4 - (2 * math.e - 1)))], reference=2 * math.e - 1)
    assert _csv(export_refinement_csv, study) == (
        b"N,Y0,error,fitted_order\n"
        b"10,4.4000000000000004,0.036563656918089826,nan\n"
    )


def test_picard_trace_csv_bytes():
    trace = [TraceRow(1, 1.5, 0.1, -2.0), TraceRow(2, 1e-17, 0.0, math.inf)]
    assert _csv(export_picard_trace_csv, PicardResult(solution=None, trace=trace, iterations=2)) == (
        b"p,dY_sup,dZ_l2,dM_sup\n"
        b"1,1.5,0.10000000000000001,-2\n"
        b"2,1.0000000000000001e-17,0,inf\n"
    )


def _perfbench(name):
    """perfbench/<name>.py as a module; the benchmark directory is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


BENCH_RUN, BENCH_WORKLOADS = _perfbench("run"), _perfbench("workloads")
BENCH_SOLVES = BENCH_WORKLOADS.WORKLOADS["solve-export"]["bench"]


@pytest.mark.parametrize("inv", BENCH_SOLVES, ids=[inv.label for inv in BENCH_SOLVES])
def test_benchmark_solves_write_recorded_bytes(tmp_path, inv):
    # a CSV byte that moves fails every solve-export invocation of the benchmark
    recorded = BENCH_WORKLOADS.DIGESTS["solve-export"]["bench"][inv.label]
    family = BENCH_RUN.openblas_core()
    if family not in recorded:
        pytest.skip("no digest recorded for OpenBLAS kernel family %r" % (family,))
    out = tmp_path / (inv.label + ".csv")
    argv = [sys.executable, "-m", "bsdelattice.cli"] + BENCH_RUN.cli_argv(inv, 1, out)
    subprocess.run(argv, env=BENCH_RUN._child_env(), capture_output=True, timeout=300, check=True)
    assert BENCH_WORKLOADS.file_digest(out) in recorded.values()
