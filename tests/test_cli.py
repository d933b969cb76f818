"""Command-line behavior: exit codes, config merging, reproducible output."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys

import pytest

import bsdelattice
from bsdelattice import cli, duality, picard, solver
from bsdelattice.cli import main


def run(argv):
    return main(argv)


def test_solve_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = run(
        ["solve", "--steps", "2", "--driver", "quadratic", "--terminal", "endpoint", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "time_index,node_id,Y,Z_1,dM"
    assert len(lines) == 8
    summary = json.loads(capsys.readouterr().out)
    assert summary["y0"] == pytest.approx(0.5, abs=1e-14)
    assert summary["driver"] == "quadratic"


def test_solve_without_out_streams_csv(capsys):
    code = run(["solve", "--steps", "2"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("time_index,node_id,Y,Z_1,dM\n")


def test_identical_runs_are_bitwise_identical(tmp_path):
    args = [
        "solve",
        "--steps",
        "6",
        "--driver",
        "exp",
        "--terminal",
        "maxpath",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_config_file_supplies_options_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 3, "driver": "abs", "terminal": "endpoint"}))
    out = tmp_path / "c.csv"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 1 + 2 + 4 + 8
    out2 = tmp_path / "d.csv"
    assert run(["solve", "--config", str(cfg), "--steps", "2", "--out", str(out2)]) == 0
    assert len(out2.read_text().strip().split("\n")) == 1 + 1 + 2 + 4
    capsys.readouterr()


def test_unknown_config_key_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"stepz": 3}))
    assert run(["solve", "--config", str(cfg)]) == 2
    cfg2 = tmp_path / "worse.json"
    cfg2.write_text(json.dumps([1, 2]))
    assert run(["solve", "--config", str(cfg2)]) == 2
    capsys.readouterr()


def test_unknown_driver_is_an_input_error(capsys):
    assert run(["solve", "--driver", "cubic"]) == 2
    capsys.readouterr()


def test_duality_roundtrip_and_samples(tmp_path, capsys):
    out = tmp_path / "dual.csv"
    code = run(
        [
            "duality",
            "--steps",
            "2",
            "--driver",
            "quadratic",
            "--terminal",
            "endpoint",
            "--samples",
            "8",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("node_id,primal,dual,gap,margin\n")
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 8
    assert summary["sampled_min_gap"] >= -1e-9
    assert abs(summary["root_gap"]) <= 1e-9


def test_nan_gap_on_a_later_probe_is_a_property_failure(tmp_path, capsys, monkeypatch):
    # calls: the optimal control's report, then one per probe; the second probe reads NaN
    real = duality.duality_gap
    calls = []

    def gap_nan_on_second_probe(sol, candidate, control):
        rep = real(sol, candidate, control)
        calls.append(rep)
        return dataclasses.replace(rep, min_gap=math.nan) if len(calls) == 3 else rep

    monkeypatch.setattr(duality, "duality_gap", gap_nan_on_second_probe)
    out = tmp_path / "dual.csv"
    code = run(
        ["duality", "--steps", "2", "--driver", "quadratic", "--terminal", "endpoint",
         "--samples", "4", "--seed", "1", "--out", str(out)]
    )
    assert len(calls) == 5
    assert code == 1
    assert math.isnan(json.loads(capsys.readouterr().out)["sampled_min_gap"])


def test_inadmissible_subgradient_control_is_a_property_failure(capsys):
    code = run(["duality", "--steps", "1", "--driver", "quadratic", "--terminal", "endpoint"])
    assert code == 1
    assert "property failure" in capsys.readouterr().err


def test_picard_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(
        ["picard", "--steps", "4", "--driver", "linear:1,1", "--terminal", "endpoint", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,dY_sup,dZ_l2,dM_sup"
    assert len(lines) > 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == len(lines) - 1


def test_picard_runs_on_a_recombining_lattice(tmp_path, capsys):
    argv = ["--mode", "recombining", "--steps", "40", "--driver", "linear:1,1",
            "--terminal", "clipped-endpoint"]
    assert run(["picard"] + argv + ["--out", str(tmp_path / "trace.csv")]) == 0
    picard = json.loads(capsys.readouterr().out)
    assert run(["solve"] + argv + ["--out", str(tmp_path / "sol.csv")]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert abs(picard["y0"] - direct["y0"]) <= 1e-8


@pytest.mark.parametrize("command", ["duality", "picard"])
def test_nan_terminal_is_a_property_failure(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--steps", "4", "--driver", "linear:1,1", "--terminal", "const:nan"]
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "slice 3" in err and "NaN" in err


def test_nan_driver_summary_reports_nan(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    run(["solve", "--steps", "4", "--driver", "constant:nan", "--out", str(out)])
    summary = json.loads(capsys.readouterr().out)
    for key in ("y0", "z_sup", "bmo", "residual_max"):
        assert math.isnan(summary[key]), key


def test_nan_terminal_ladder_exits_1(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    assert run(["approx", "--steps", "4", "--terminal", "const:nan", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["monotone"] is False
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert rows and all(row[2] == "nan" for row in rows)


def test_converge_requires_reference(tmp_path, capsys):
    assert run(["converge", "--steps-list", "4,8"]) == 2
    out = tmp_path / "conv.csv"
    code = run(
        [
            "converge",
            "--driver",
            "linear:1,1",
            "--terminal",
            "const:1",
            "--steps-list",
            "10,50,100",
            "--mode",
            "recombining",
            "--reference",
            "4.43656365691809",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,Y0,error,fitted_order"
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "50", "100"]
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors_decreasing"] is True


@pytest.mark.parametrize("terminal", ["const:nan", "const:inf"])
@pytest.mark.parametrize("steps_list", ["10", "10,20"])
def test_non_finite_converge_root_is_a_property_failure(tmp_path, capsys, terminal, steps_list):
    # one grid exited 0 with "final_error": NaN, its one error vacuously decreasing
    out = tmp_path / "c.csv"
    argv = ["converge", "--mode", "recombining", "--terminal", terminal, "--steps-list", steps_list,
            "--reference", "1", "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "property failure: grid N=10: Y_0 is" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--steps", "4"],
        ["duality", "--steps", "4", "--samples", "2"],
        ["picard", "--steps", "4"],
        ["approx", "--steps", "4"],
        ["converge", "--steps-list", "10,20", "--reference", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_driver_with_an_infinite_lipschitz_constant_is_an_input_error(tmp_path, capsys, argv):
    # each printed an OverflowError traceback from the step-size message and exited 1;
    # converge's two grids are solved side by side, so its error comes back from a child
    out = tmp_path / "inf.csv"
    assert run(argv + ["--driver", "linear:1,inf", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: K = inf is not a finite number: no N makes the implicit step a contraction\n"
    )
    assert not out.exists()


def test_approx_ladder(tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    code = run(
        [
            "approx",
            "--steps",
            "6",
            "--driver",
            "quadratic",
            "--terminal",
            "digital",
            "--levels",
            "1,2,4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "level,Y0,sup_increment,bmo,cauchy_bound_ok"
    assert len(lines) == 4
    summary = json.loads(capsys.readouterr().out)
    assert summary["monotone"] is True


def test_verify_reports_all_checks(tmp_path, capsys):
    code = run(["verify", "--steps", "4", "--driver", "exp"])
    assert code == 0
    text = capsys.readouterr().out
    assert "walk:moments PASS" in text
    assert "driver:convex-z PASS" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("driver,code", [("abs", 0), ("constant:nan", 1)])
def test_verify_prints_the_str_of_its_reports(capsys, driver, code):
    from bsdelattice.verify import SamplingPlan, verify_driver_properties, verify_walk_conditions

    argv = ["verify", "--steps", "6", "--dim", "2", "--mode", "recombining", "--seed", "3"]
    assert run(argv + ["--driver", driver]) == code
    walk = verify_walk_conditions(bsdelattice.build_lattice(6, 2, mode="recombining"))
    plan = SamplingPlan(dim=2, seed=3)
    report = verify_driver_properties(bsdelattice.make_driver(driver), plan)
    text = capsys.readouterr().out
    assert text == "%s\n%s\n" % (walk, report)
    assert len(text.splitlines()) == 11


# a small run of each subcommand that exits 0
_RUNS = [
    ["solve", "--steps", "2"],
    ["verify", "--steps", "4", "--dim", "2"],
    ["duality", "--steps", "2", "--samples", "1"],
    ["picard", "--steps", "2"],
    ["converge", "--steps-list", "4", "--reference", "1"],
    ["approx", "--steps", "2", "--levels", "1,2"],
]


@pytest.mark.parametrize("argv", _RUNS)
def test_stdout_without_a_buffer_takes_the_bytes_as_text(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert run(argv) == 0
    assert text.getvalue().encode("ascii") == out.read_bytes()


@pytest.mark.parametrize("argv", _RUNS, ids=[argv[0] for argv in _RUNS])
def test_with_out_the_summary_is_printed_once(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    text = capsys.readouterr().out
    if argv[0] == "verify":
        assert text.encode("ascii") == out.read_bytes()
    else:
        assert text.count("\n") == 1 and text.endswith("\n")
        assert isinstance(json.loads(text, parse_constant=_reject_constant), dict)


@pytest.mark.parametrize(
    "argv,key",
    [
        (["converge", "--mode", "recombining", "--reference", "1"], "steps_list"),
        (["approx", "--steps", "4"], "levels"),
    ],
)
@pytest.mark.parametrize("by_config", [False, True])
def test_empty_list_option_is_an_input_error(tmp_path, capsys, argv, key, by_config):
    out = tmp_path / "out.csv"
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: []}))
        extra = ["--config", str(cfg)]
    else:
        extra = ["--" + key.replace("_", "-"), ""]
    assert run(argv + extra + ["--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_duality_probes_get_the_runs_tol_and_max_iter(tmp_path, capsys, monkeypatch):
    real = duality.dual_value
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "dual_value", recording)
    argv = ["duality", "--steps", "4", "--driver", "linear:1,1", "--tol", "1e-10",
            "--max-iter", "7", "--samples", "3", "--out", str(tmp_path / "dual.csv")]
    assert run(argv) == 0
    capsys.readouterr()
    assert seen == [{"tol": 1e-10, "max_iter": 7}] * 4


@pytest.mark.parametrize(
    "command,target", [("solve", "solve_backward"), ("duality", "dual_value"), ("picard", "picard_solve")]
)
def test_tol_reaches_the_solver_only_when_given(tmp_path, capsys, monkeypatch, command, target):
    # without --tol each solver keeps its own default: picard_solve's differs from the solve's
    owner = {"solve_backward": cli, "dual_value": duality, "picard_solve": picard}[target]
    real = getattr(owner, target)
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, target, recording)
    argv = [command, "--steps", "3", "--driver", "linear:1,1", "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 0
    assert seen and set(seen) == {None}
    seen.clear()
    assert run(argv + ["--tol", "1e-11"]) == 0
    assert seen and set(seen) == {1e-11}
    capsys.readouterr()


# per subcommand: flags that feed no defaulted library keyword, and the library calls it makes
_DEFAULT_RUNS = {
    "solve": ([], {"build_lattice", "solve_backward"}),
    "duality": ([], {"build_lattice", "solve_backward", "dual_value"}),
    "picard": ([], {"build_lattice", "picard_solve"}),
    "approx": ([], {"build_lattice", "monotone_limit_experiment"}),
    "verify": ([], {"build_lattice", "SamplingPlan"}),
    "converge": (
        ["--driver", "linear:1,1", "--terminal", "const:1", "--reference", "4.43656365691809"],
        {"refinement_experiment"},
    ),
}


@pytest.mark.parametrize("command", sorted(_DEFAULT_RUNS))
def test_omitted_options_keep_the_library_defaults(tmp_path, capsys, monkeypatch, command):
    # the CLI declared its own dim, horizon, mode, max_iter and levels; its mode overrode converge's
    from bsdelattice import approximation, verify

    seen = {}
    targets = [(cli, "build_lattice"), (cli, "solve_backward"), (duality, "dual_value"),
               (picard, "picard_solve"), (approximation, "monotone_limit_experiment"),
               (approximation, "refinement_experiment"), (verify, "SamplingPlan")]
    for owner, name in targets:
        def recording(*args, _real=getattr(owner, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).update(kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    argv, called = _DEFAULT_RUNS[command]
    assert run([command] + argv + ["--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()
    assert set(seen) == called
    for keywords in seen.values():
        assert not keywords & {"dim", "horizon", "mode", "max_iter", "tol", "levels"}


def test_converge_runs_on_its_own_default_layout(tmp_path, capsys):
    # the CLI's mode "full" overrode refinement_experiment's "recombining": N=50 needed 2^50 leaves
    out = tmp_path / "c.csv"
    argv = ["converge", "--driver", "linear:1,1", "--terminal", "const:1", "--reference", "4.43656365691809"]
    assert run(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    # a path terminal needs the full layout, which is now asked for by name
    argv = ["converge", "--terminal", "maxpath", "--steps-list", "4,8", "--reference", "1"]
    assert run(argv + ["--out", str(tmp_path / "m.csv")]) == 2
    assert "recombining mode needs a terminal functional of the final value" in capsys.readouterr().err
    assert run(argv + ["--mode", "full", "--out", str(out)]) == 1  # its errors do not decrease
    assert len(out.read_text().splitlines()) == 3


def test_picard_sweep_cap_is_max_iter(capsys):
    assert run(["picard", "--tol", "0", "--max-iter", "3"]) == 1
    assert "did not reach tol=0 in 3 sweeps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,key,value",
    [
        pytest.param(argv, key, value, id="%s=%s" % (key, json.dumps(value)))
        for argv, key, value in [
            (["approx", "--steps", "3"], "levels", None),
            # a bare entry ran one grid, and a string ran the grids it names
            (["converge", "--reference", "1"], "steps_list", 10),
            (["converge", "--reference", "1"], "steps_list", "10,20"),
        ]
    ],
)
def test_levels_config_null_is_an_input_error(tmp_path, capsys, argv, key, value):
    # a config entry of a list option is a JSON list; only a flag is comma-separated
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out.csv"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "input error: %s must be a list" % key.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


_INT_CONFIG_CASES = [
    (["solve"], "steps"),
    (["solve"], "dim"),
    (["solve"], "max_iter"),
    (["solve"], "leaf_budget"),
    (["duality", "--steps", "3"], "samples"),
    (["duality", "--steps", "3", "--samples", "1"], "seed"),
]
_INT_CONFIG_BAD = [
    pytest.param(argv, key, value, id="%s=%s" % (key, json.dumps(value)))
    for argv, key in _INT_CONFIG_CASES
    for value in [2.7, 2.0, True, "3", [3], None]
    if not (key == "leaf_budget" and value is None)  # null is its default
]


@pytest.mark.parametrize("argv,key,value", _INT_CONFIG_BAD)
def test_integer_config_value_must_be_a_json_integer(tmp_path, capsys, argv, key, value):
    # argparse refuses such a flag; from a config, 2.7 steps ran N=2 and a 1.5 seed crashed
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out.csv"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "input error: %s must be an integer" % key.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [2.5, 20.0, False, "20"])
def test_steps_list_config_entry_must_be_a_json_integer(tmp_path, capsys, entry):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps_list": [10, entry]}))
    out = tmp_path / "out.csv"
    argv = ["converge", "--mode", "recombining", "--reference", "1", "--config", str(cfg)]
    assert run(argv + ["--out", str(out)]) == 2
    assert "input error: steps-list must be an integer" in capsys.readouterr().err
    assert not out.exists()


_FLOAT_CONFIG_CASES = [
    (["solve", "--steps", "2"], "horizon"),
    (["solve", "--steps", "2"], "tol"),
    (["converge", "--mode", "recombining", "--steps-list", "10,20"], "reference"),
]
_FLOAT_CONFIG_BAD = [
    pytest.param(argv, key, value, id="%s=%s" % (key, json.dumps(value)))
    for argv, key in _FLOAT_CONFIG_CASES
    for value in [True, False, "1", "1e-10", [1.0], {"v": 1}]
] + [pytest.param(["solve", "--steps", "2"], "horizon", None, id="horizon=null")]


@pytest.mark.parametrize("argv,key,value", _FLOAT_CONFIG_BAD)
def test_float_config_value_must_be_a_json_number(tmp_path, capsys, argv, key, value):
    # {"horizon": true, "tol": false} solved with horizon 1.0 and tol 0.0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out.csv"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert "input error: %s must be a number" % key in capsys.readouterr().err
    assert not out.exists()


_HUGE = 10 ** 400  # a JSON integer beyond the largest float


@pytest.mark.parametrize(
    "argv,key,value",
    [
        pytest.param(argv, key, sign * _HUGE, id="%s=%s1e400" % (key, "-" if sign < 0 else ""))
        for argv, key in _FLOAT_CONFIG_CASES + [(["approx", "--steps", "3"], "levels")]
        for sign in (1, -1)
    ],
)
def test_float_config_value_must_fit_a_float(tmp_path, capsys, argv, key, value):
    # float() of it raised OverflowError: a traceback and exit 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: [1, value] if key == "levels" else value}))
    out = tmp_path / "out.csv"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error: %s must fit a float, got an integer of 401 digits" % key in err
    assert not out.exists()


@pytest.mark.parametrize("entry", [True, False, "2", None])
def test_levels_config_entry_must_be_a_json_number(tmp_path, capsys, entry):
    # [true, 2] ran a level 1.0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"levels": [entry, 2]}))
    out = tmp_path / "out.csv"
    assert run(["approx", "--steps", "4", "--config", str(cfg), "--out", str(out)]) == 2
    assert "input error: levels must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
@pytest.mark.parametrize("by_config", [False, True])
def test_tol_must_be_finite_and_not_negative(tmp_path, capsys, value, by_config):
    # --tol inf solved to y0 4.7849 against 5.0153, --tol nan ran every
    # iteration, and --tol -1 exited 1 as a property failure
    out = tmp_path / "out.csv"
    argv = ["solve", "--steps", "6", "--driver", "linear:1,1", "--out", str(out)]
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": value}))  # Infinity and NaN, which json reads back
        argv += ["--config", str(cfg)]
    else:
        argv += ["--tol=%r" % value]
    assert run(argv) == 2
    assert "input error: tol must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("by_config", [False, True])
def test_reference_must_be_finite(tmp_path, capsys, value, by_config):
    # --reference nan exited 1 and printed "final_error": NaN; inf printed Infinity
    out = tmp_path / "out.csv"
    argv = ["converge", "--mode", "recombining", "--steps-list", "10,20,40",
            "--driver", "linear:1,1", "--terminal", "const:1", "--out", str(out)]
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"reference": value}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--reference=%r" % value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "input error: reference must be a finite number" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("by_config", [False, True])
def test_levels_must_be_finite(tmp_path, capsys, value, by_config):
    # --levels nan,1 exited 1 with "monotone": false
    out = tmp_path / "out.csv"
    argv = ["approx", "--steps", "4", "--out", str(out)]
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levels": [1, value]}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--levels=%r,1" % value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "input error: regularization level must be positive and finite, got %g" % value in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["duality", "--steps", "3"], "samples", -2),
        (["solve", "--steps", "3"], "max_iter", 0),
        (["duality", "--steps", "3"], "max_iter", -1),
        (["picard", "--steps", "3"], "max_iter", 0),
    ],
)
@pytest.mark.parametrize("by_config", [False, True])
def test_samples_and_max_iter_below_their_range(tmp_path, capsys, argv, key, value, by_config):
    # duality --samples -2 exited 0 and reported "samples": -2
    out = tmp_path / "out.csv"
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv = argv + ["--config", str(cfg)]
    else:
        argv = argv + ["--" + key.replace("_", "-"), str(value)]
    assert run(argv + ["--out", str(out)]) == 2
    assert "input error: %s must be >=" % key in capsys.readouterr().err
    assert not out.exists()


def test_boundary_numbers_still_run(tmp_path, capsys):
    # tol 0, samples 0 and max_iter 1 are in range; integers are numbers
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": 0, "horizon": 2, "samples": 0, "max_iter": 1}))
    argv = ["duality", "--steps", "3", "--driver", "zero", "--config", str(cfg),
            "--out", str(tmp_path / "d.csv")]
    assert run(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 0 and summary["sampled_min_gap"] is None
    cfg.write_text(json.dumps({"levels": [0.5, 1]}))
    assert run(["approx", "--steps", "4", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["levels"] == 2


def test_integer_config_values_still_run(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 3, "samples": 2, "seed": 5, "max_iter": 50, "leaf_budget": None}))
    assert run(["duality", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 2
    cfg.write_text(json.dumps({"steps_list": [10, 20]}))
    argv = ["converge", "--config", str(cfg), "--mode", "recombining", "--driver", "linear:1,1",
            "--terminal", "const:1", "--reference", "4.43656365691809", "--out", str(tmp_path / "c.csv")]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["errors_decreasing"]
    assert len((tmp_path / "c.csv").read_text().strip().split("\n")) == 3


def test_duality_evaluates_the_terminal_once(tmp_path, capsys, monkeypatch):
    # the solve's terminal slice serves the tilt and every probe
    calls = []
    real = solver.terminal_values

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (solver, duality, cli):
        if hasattr(mod, "terminal_values"):
            monkeypatch.setattr(mod, "terminal_values", counting)
    argv = ["duality", "--steps", "4", "--driver", "linear:1,1", "--terminal", "maxpath",
            "--samples", "3", "--out", str(tmp_path / "dual.csv")]
    assert run(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


# the options each subcommand reads; it refuses every other option, by flag or config
_READS = {
    "solve": {"steps", "dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "tol",
              "max_iter", "out"},
    "duality": {"steps", "dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "tol",
                "max_iter", "samples", "seed", "out"},
    "picard": {"steps", "dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "tol",
               "max_iter", "out"},
    "converge": {"dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "steps_list",
                 "reference", "out"},
    "approx": {"steps", "dim", "horizon", "mode", "leaf_budget", "driver", "terminal", "levels",
               "out"},
    "verify": {"steps", "dim", "horizon", "mode", "leaf_budget", "driver", "seed", "out"},
}
# a value each option would accept, where it is read
_VALID = {
    "steps": 3, "dim": 1, "horizon": 1.0, "mode": "full", "leaf_budget": 1024,
    "driver": "linear:1,1", "terminal": "const:1", "tol": 1e-6, "max_iter": 50,
    "reference": 4.43656365691809, "samples": 2, "seed": 3, "out": "other.csv",
    "steps_list": [4, 8], "levels": [1, 2],
}
_UNREAD = [
    pytest.param(command, key, id="%s-%s" % (command, key))
    for command, reads in _READS.items()
    for key in cli._OPTIONS
    if key not in reads
]


def _flag(key, value):
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    return ["--" + key.replace("_", "-"), text]


@pytest.mark.parametrize("command", sorted(_READS))
def test_each_subcommand_runs_with_every_option_it_reads(tmp_path, capsys, command):
    options = {key: _VALID[key] for key in _READS[command]}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(options))
    out = tmp_path / "out.csv"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    argv = [command] + [arg for key in sorted(options) for arg in _flag(key, options[key])]
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command,key", _UNREAD)
@pytest.mark.parametrize("by_config", [False, True])
def test_option_the_subcommand_does_not_read_is_refused(tmp_path, capsys, command, key, by_config):
    # converge --tol 0.5 --max-iter 1 --steps 999 wrote the bytes of a run without them
    out = tmp_path / "out.csv"
    argv = [command, "--out", str(out)]
    if by_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: _VALID[key]}))
        assert run(argv + ["--config", str(cfg)]) == 2
        assert "input error: unknown config keys: %s\n" % key in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit) as info:
            run(argv + _flag(key, _VALID[key]))
        assert info.value.code == 2
        assert "unrecognized arguments: --%s" % key.replace("_", "-") in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_is_not_read_as_the_prefix_of_another(capsys):
    # converge --steps 5 would otherwise run --steps-list 5
    with pytest.raises(SystemExit) as info:
        run(["converge", "--steps", "5", "--reference", "1", "--mode", "recombining"])
    assert info.value.code == 2
    assert "unrecognized arguments: --steps 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        pytest.param(key, value, id="%s=%s" % (key, json.dumps(value)))
        for key in ["mode", "driver", "terminal", "out"]
        for value in [3.5, None, ["full"]]
        if not (key == "out" and value is None)  # null is its default
    ],
)
def test_string_config_value_must_be_a_json_string(tmp_path, capsys, key, value):
    # {"driver": 3} crashed with an AttributeError, and {"out": 1} wrote the CSV to fd 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(["solve", "--steps", "2", "--config", str(cfg)]) == 2
    assert "input error: %s must be a string" % key in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError("non-finite number %s in JSON summary" % name)


@pytest.mark.parametrize(
    "argv",
    [
        # one grid: no slope to fit
        ["--mode", "recombining", "--driver", "linear:1,1", "--terminal", "const:1",
         "--steps-list", "10", "--reference", "4.43656365691809"],
        # every error vanishes: no logarithm to fit
        ["--mode", "recombining", "--driver", "zero", "--terminal", "const:1", "--reference", "1"],
    ],
    ids=["one-grid", "zero-errors"],
)
def test_undefined_fitted_order_is_null_in_the_summary(tmp_path, capsys, argv):
    # the summary printed "fitted_order": NaN, which strict JSON refuses
    out = tmp_path / "conv.csv"
    run(["converge"] + argv + ["--out", str(out)])
    summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert summary["fitted_order"] is None
    rows = out.read_text().strip().split("\n")[1:]
    assert rows and all(row.endswith(",nan") for row in rows)


# the package modules each subcommand loads, past the package itself: the
# core the package loads with it, and the subcommand's own module
_CORE = {"errors", "lattice", "drivers", "probability", "solver"}
_IMPORTS = {
    "solve": (["--steps", "2"], set()),
    "duality": (["--steps", "2", "--samples", "1"], {"duality"}),
    "picard": (["--steps", "2"], {"picard"}),
    "converge": (["--mode", "recombining", "--steps-list", "4", "--reference", "1"], {"approximation"}),
    "approx": (["--steps", "2", "--levels", "1"], {"approximation"}),
    "verify": (["--steps", "2"], {"verify"}),
}


def _child(args, cwd=None):
    """A python child process run with args on this source tree; its text output captured."""
    src = os.path.dirname(os.path.dirname(bsdelattice.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable] + args, env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("command", sorted(_IMPORTS))
def test_each_subcommand_imports_only_its_own_modules(tmp_path, command):
    # -m runs cli as __main__, so -X importtime lists the modules it imports, not cli itself
    argv, own = _IMPORTS[command]
    done = _child(["-X", "importtime", "-m", "bsdelattice.cli", command] + argv
                  + ["--out", str(tmp_path / "out.csv")])
    assert done.returncode == 0, done.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:")}
    loaded = {name.split(".", 1)[1] for name in names if name.startswith("bsdelattice.")}
    assert "bsdelattice" in names
    assert loaded == _CORE | own


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    # a frozen garbage cycle is never freed, so only run may freeze
    before = gc.get_freeze_count()
    assert main(["solve", "--steps", "2"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--steps", "6"], 0),
        (["converge", "--mode", "full", "--terminal", "maxpath", "--steps-list", "4,8", "--reference", "1"], 1),
        (["converge", "--terminal", "maxpath", "--steps-list", "4,8", "--reference", "1"], 2),
    ],
)
def test_a_process_exits_and_writes_as_main_returns_and_writes(tmp_path, capsys, argv, code):
    done = _child(["-m", "bsdelattice.cli"] + argv, cwd=tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_run_freezes_the_heap_before_exit_handlers_run(tmp_path):
    out = tmp_path / "solve.csv"
    script = "\n".join([
        "import atexit, gc, sys",
        "from bsdelattice import cli",
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))",
        "cli.run(['solve', '--steps', '2', '--out', %r])" % str(out),
    ])
    done = _child(["-c", script])
    assert done.returncode == 0, done.stderr
    assert out.read_text().startswith("time_index,node_id,Y,Z_1,dM\n")
    assert int(done.stderr.split()[-1]) > 0
