"""Span tracer that times the public functions of bsdelattice from outside.

The tracer replaces each traced function with a wrapper in every bsdelattice
module that binds it (``martingale_projection`` lives in ``solver`` and
``picard`` as well as ``probability``), and restores the originals on exit.
A span is (function, start, end, parent span); spans stay in memory until the
benchmark writes them out.  Counts and computed array sizes are recorded at
the same call boundaries.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

MODULES = ("lattice", "probability", "drivers", "solver", "duality", "picard", "approximation", "cli")

# Methods and private functions traced on top of each module's public
# functions; a name that no longer exists is skipped.
EXTRA = {
    "lattice": ("PathLattice.walk_slice", "PathLattice.child_indices", "PathLattice.leaf_paths"),
    "solver": ("_bisect_nodes",),
    "approximation": ("_run_ladder",),
}

# Self time of a traced function goes to this metric; functions not listed
# go to "<module>.other_s".  solve_backward is split into solver.solve_s and
# solver.implicit_s by derive().
SELF_METRIC = {
    "lattice.build_lattice": "lattice.build_s",
    "lattice.PathLattice.walk_slice": "lattice.walk_slice_s",
    "lattice.PathLattice.child_indices": "lattice.child_indices_s",
    "lattice.PathLattice.leaf_paths": "lattice.leaf_paths_s",
    "probability.gather_children": "probability.gather_s",
    "probability.martingale_projection": "probability.projection_s",
    "drivers.average_driver": "drivers.average_driver_s",
    "solver.driver_context": "solver.solve_s",
    "solver._bisect_nodes": "solver.implicit_s",
    "solver.terminal_values": "solver.terminal_values_s",
    "solver.bmo_estimate": "solver.bmo_s",
    "solver.solution_residuals": "solver.residuals_s",
    "solver.export_solution_csv": "solver.export_s",
    "duality.dual_value": "duality.dual_value_s",
    "duality.optimal_control": "duality.optimal_control_s",
    "duality.export_duality_csv": "duality.export_s",
    "picard.picard_step": "picard.sweep_s",
    "picard.iteration_distance": "picard.distance_s",
    "approximation.monotone_limit_experiment": "approximation.ladder_s",
    "approximation._run_ladder": "approximation.ladder_s",
    "approximation.inf_convolution": "approximation.ladder_s",
    "approximation.refinement_experiment": "approximation.refinement_s",
    "cli.main": "cli.main_s",
}

CALL_COUNT = {
    "probability.martingale_projection": "probability.projection_calls",
    "drivers.average_driver": "drivers.average_driver_calls",
    "duality.dual_value": "duality.dual_value_calls",
    "picard.picard_step": "picard.sweeps",
}

MIB = float(1 << 20)


# Counts computed after a call returns from one named argument (or None)
# and the result: metric, argument, measure(argument value, result).
VALUE_COUNT = {
    "probability.martingale_projection": (
        "probability.projection_mb", "child_values",
        lambda values, out: (values.nbytes + sum(a.nbytes for a in out)) / MIB,
    ),
    # the CLI opens the output file fresh for each export, so its position is the size
    "solver.export_solution_csv": ("solver.export_mb", "fileobj", lambda fh, out: fh.tell() / MIB),
    "solver._bisect_nodes": ("solver.bisection_nodes", "rows", lambda rows, out: len(rows)),
    "lattice.build_lattice": ("lattice.nodes", None, lambda _, lattice: lattice.total_nodes()),
}

TIME_METRICS = (
    "lattice.build_s", "lattice.walk_slice_s", "lattice.child_indices_s", "lattice.leaf_paths_s",
    "lattice.other_s", "probability.gather_s", "probability.projection_s", "probability.other_s",
    "drivers.average_driver_s", "drivers.other_s", "solver.solve_s", "solver.implicit_s",
    "solver.terminal_values_s", "solver.bmo_s", "solver.residuals_s", "solver.export_s",
    "solver.other_s", "duality.dual_value_s", "duality.optimal_control_s", "duality.export_s",
    "duality.other_s", "picard.sweep_s", "picard.distance_s", "picard.other_s",
    "approximation.ladder_s", "approximation.refinement_s", "approximation.other_s", "cli.main_s",
)
COUNT_METRICS = (
    "lattice.nodes", "lattice.leaf_paths_mb", "probability.projection_calls",
    "probability.projection_mb", "drivers.average_driver_calls", "solver.fixed_point_iters",
    "solver.bisection_nodes", "solver.export_mb", "duality.dual_value_calls", "picard.sweeps",
    "approximation.terminal_evals",
)


def _targets():
    """(qualified name, owner object, attribute, function) for every traced function."""
    out = []
    for mod_name in MODULES:
        mod = importlib.import_module("bsdelattice." + mod_name)
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                out.append(("%s.%s" % (mod_name, attr), mod, attr, obj))
        for dotted in EXTRA.get(mod_name, ()):
            owner = mod
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if inspect.isfunction(getattr(owner, attr, None)):
                out.append(("%s.%s" % (mod_name, dotted), owner, attr, getattr(owner, attr)))
    return out


def _argument(fn, name):
    """Reader of argument ``name`` from the (args, kwargs) of a call to fn."""
    if name is None:
        return lambda args, kwargs: None
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts for traced calls while installed.

    Use as a context manager around the calls to trace.  ``spans`` holds
    tuples (name index, start, end, parent index), parent -1 for a root;
    ``names`` maps the index to the qualified function name.  ``on_solve``,
    when set, receives (solution, driver, terminal) for every solve_backward
    call, after the span has ended.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self.on_solve = None
        self._stack = []
        self._leaf_arrays = weakref.WeakValueDictionary()
        self._targets = None
        self._wrappers = None
        self._patches = []

    def _wrap(self, qual, fn):
        idx = len(self.names)
        self.names.append(qual)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        value_count = VALUE_COUNT.get(qual)
        if value_count is not None:
            key, name, measure = value_count
            argument = _argument(fn, name)
        is_solve = qual == "solver.solve_backward"
        if is_solve:
            driver, terminal = _argument(fn, "f"), _argument(fn, "phi")
        is_leaf_paths = qual == "lattice.PathLattice.leaf_paths"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pos = len(spans)
            spans.append(None)
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (idx, start, end, parent)
            if value_count is not None:
                value = measure(argument(args, kwargs), result)
                self.counts[key] = self.counts.get(key, 0) + value
            if is_leaf_paths and self._leaf_arrays.get(id(result)) is not result:
                self._leaf_arrays[id(result)] = result  # leaf_paths caches its array
                leaf_mb = self.counts.get("lattice.leaf_paths_mb", 0) + result.nbytes / MIB
                self.counts["lattice.leaf_paths_mb"] = leaf_mb
            if is_solve and self.on_solve is not None:
                self.on_solve(result, driver(args, kwargs), terminal(args, kwargs))
            return result

        return wrapper

    def __enter__(self):
        if self._targets is None:
            self._targets = _targets()
            self._wrappers = {id(fn): self._wrap(qual, fn) for qual, _, _, fn in self._targets}
        wrappers = self._wrappers
        # rebind every module-level name and class attribute that holds a traced function
        for mod_name in MODULES:
            mod = importlib.import_module("bsdelattice." + mod_name)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for _, owner, attr, fn in self._targets:
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        return False

    def take(self):
        """Return (names, spans, counts) recorded so far and start afresh."""
        spans, counts = list(self.spans), self.counts
        self.spans.clear()  # the wrappers hold this list
        self.counts = {}
        self._leaf_arrays = weakref.WeakValueDictionary()
        return self.names, spans, counts


def derive(names, spans, counts):
    """Per-layer metrics of one traced pass from its spans and counts.

    Self time is a span's duration minus the durations of its direct
    children.  Spans outside cli.main belong to the benchmark's output
    check (solution_residuals); each such call counts whole toward its own
    metric and its callees toward none.  Inside solve_backward, self time after a driver_context call
    and before the next martingale_projection call is the implicit step
    (fixed point, residual check and bisection), reported as
    solver.implicit_s; the rest is solver.solve_s.  A slice makes
    fixed_point_iters = driver evaluations - 1 (the residual evaluation),
    minus one more when bisection ran.
    """
    n = len(spans)
    child = [0.0] * n
    for idx, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {k: 0.0 for k in TIME_METRICS}
    out.update({k: 0 for k in COUNT_METRICS})
    out.update(counts)
    name_of = [names[s[0]] for s in spans]
    in_main = [False] * n  # parents precede their children in spans
    in_ladder = [False] * n
    cursor = {}  # solve_backward span -> [time, phase, driver calls, bisected]
    iters = 0
    traced = 0.0
    for pos, (idx, start, end, parent) in enumerate(spans):
        qual = name_of[pos]
        metric = SELF_METRIC.get(qual, qual.split(".", 1)[0] + ".other_s")
        if parent < 0 and qual != "cli.main":
            # an output check run by the benchmark: all of its time is its own
            out[metric] += end - start
            continue
        if parent >= 0 and not in_main[parent]:
            continue
        in_main[pos] = True
        in_ladder[pos] = qual == "approximation._run_ladder" or (parent >= 0 and in_ladder[parent])
        if qual == "cli.main":
            traced += end - start
        if qual in CALL_COUNT:
            out[CALL_COUNT[qual]] += 1
        if qual == "solver.terminal_values" and in_ladder[pos]:
            out["approximation.terminal_evals"] += 1
        if qual == "solver.solve_backward":
            cursor[pos] = [start, "solver.solve_s", 0, False]
            continue
        out[metric] += end - start - child[pos]
        if parent in cursor:
            cur = cursor[parent]
            out[cur[1]] += start - cur[0]
            cur[0] = end
            if qual == "solver.driver_context":
                cur[1] = "solver.implicit_s"
            elif qual == "probability.martingale_projection":
                iters += _close_slice(cur)
                cur[1] = "solver.solve_s"
            elif qual == "drivers.average_driver" and cur[1] == "solver.implicit_s":
                cur[2] += 1
            elif qual == "solver._bisect_nodes":
                cur[3] = True
    for pos, cur in cursor.items():
        out[cur[1]] += spans[pos][2] - cur[0]
        iters += _close_slice(cur)
    out["solver.fixed_point_iters"] = iters
    out["trace.traced_s"] = traced
    return out


def _close_slice(cur):
    calls, bisected = cur[2], cur[3]
    cur[2], cur[3] = 0, False
    if calls == 0:
        return 0
    return calls - 1 - (1 if bisected else 0)

