"""Self-test of the benchmark at toy sizes: same harness path, same checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import sys
import time

import pytest

import run
from workloads import WORKLOADS, Checker, Invocation, parse_summary

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean_at_toy_size(workload, trace):
    result = run.run(workload, seed=3, seconds=0.01, trace=trace, size="toy")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_non_finite_summary_is_rejected():
    for text in ('{"y0": NaN}', '{"y0": Infinity}', '{"y0": -Infinity}'):
        with pytest.raises(ValueError):
            parse_summary("csv written\n" + text + "\n")


def test_nan_solve_that_exits_zero_counts_as_failed():
    run.OUT.mkdir(exist_ok=True)
    inv = Invocation("nan", ("solve", "--steps", "4", "--driver", "constant:nan"))
    out = run.OUT / "selftest-nan.csv"
    code, _, _, _ = run.spawn(
        [sys.executable, "-m", "bsdelattice.cli"] + run.cli_argv(inv, 0, out),
        run.OUT / "selftest-nan.stdout",
        deadline=time.monotonic() + 60,
    )
    error = Checker("solve-export", "toy", run._child_env()).check(
        inv, code, (run.OUT / "selftest-nan.stdout").read_text(), out
    )
    assert error and "non-finite" in error
