import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import dimwit
from dimwit import bellfmt, catalog, cli, errors, grothendieck
from dimwit.cli import main
from dimwit.errors import NotPSDError
from dimwit.localbound import local_bound, local_bound_min, strategy_table
from dimwit.scenario import bell_operator
from dimwit.seesaw import seeded_models

from conftest import fail_eigh_on, ss, table_csv, theta_state_violation, uniform_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emit(tmp_path, name, filename=None):
    path = tmp_path / (filename or f"{name}.bell")
    path.write_text(bellfmt.serialize_functional(catalog.by_name(name)), encoding="utf-8")
    return path


def write_uniform_table(tmp_path, functional):
    path = tmp_path / "uniform.csv"
    path.write_text(table_csv(uniform_table(functional.scenario)), encoding="utf-8")
    return path


def json_without_duration(text):
    payload = json.loads(text)
    payload["manifest"].pop("duration_s")
    return payload


def test_eval_cglmp_uniform(tmp_path, capsys):
    f_path = emit(tmp_path, "cglmp-c")
    t_path = write_uniform_table(tmp_path, catalog.cglmp_C())
    code, out, _ = run_cli(capsys, "eval", str(f_path), str(t_path))
    assert code == 0
    assert out.strip() == "-0.666666666667"


def test_eval_on_witness_table_gives_local_bound(tmp_path, capsys):
    f = catalog.expression_E()
    value, strategy = local_bound(f)
    table = strategy_table(f.scenario, strategy)
    f_path = emit(tmp_path, "E")
    t_path = tmp_path / "witness.csv"
    t_path.write_text(table_csv(table), encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval", str(f_path), str(t_path))
    assert code == 0
    assert float(out.split()[0]) == value


def test_eval_malformed_table_row_exits_2(tmp_path, capsys):
    f_path = emit(tmp_path, "cglmp-c")
    t_path = tmp_path / "bad.csv"
    t_path.write_text("x,y,a,b,p\n0,0,0,0,oops\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", str(f_path), str(t_path))
    assert code == 2
    assert "line 2" in err


def test_eval_negative_table_index_exits_2(tmp_path, capsys):
    f_path = emit(tmp_path, "chsh")
    t_path = write_uniform_table(tmp_path, catalog.chsh())
    t_path.write_text(t_path.read_text() + "-1,0,0,0,0.7\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", str(f_path), str(t_path))
    assert code == 2
    assert out == "" and "line 18" in err


def test_oversized_scenario_file_exits_2(tmp_path, capsys):
    """A scenario whose coefficient tensor numpy cannot allocate is a parse
    error at its line, not a numpy traceback."""
    f_path = tmp_path / "huge.bell"
    f_path.write_text("scenario A:1000000000 B:1000000000\n+1 P(0 0|0 0)\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "local-bound", str(f_path))
    assert code == 2
    assert out == "" and "too large" in err and "line 1" in err


def test_eval_table_with_a_far_outcome_index_exits_2(tmp_path, capsys):
    """A row whose outcome index implies a block beyond numpy's limits is a
    missing-row error found by counting rows, before any block is allocated."""
    t_path = tmp_path / "far.csv"
    t_path.write_text("x,y,a,b,p\n0,0,10000000000000000000,0,0\n0,0,0,0,0.5\n0,0,0,1,0.5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "chsh", str(t_path))
    assert code == 2
    assert out == "" and "missing row for (x,y,a,b)=(0, 0, 1, 0)" in err


@pytest.mark.parametrize("row", ["{n},0,0,0,0", "0,{n},0,0,0"])
@pytest.mark.parametrize("n", [10**18, 10**20])
def test_eval_table_with_a_far_setting_index_exits_2(tmp_path, capsys, row, n):
    """A setting index at or past the row count leaves a setting without a
    row; it is a table error before the per-setting lists are sized by it."""
    t_path = tmp_path / "far.csv"
    t_path.write_text(f"x,y,a,b,p\n0,0,0,0,0.5\n0,0,0,1,0.5\n{row.format(n=n)}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "chsh", str(t_path))
    assert code == 2
    assert out == "" and "3 rows cannot cover" in err and str(n + 1) in err


def test_seesaw_out_of_memory_exits_5(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("synthetic")

    monkeypatch.setattr(ss, "bell_operators", exhausted)
    code, out, err = run_cli(capsys, "seesaw", "chsh", "--da", "3", "--db", "3", "--restarts", "1")
    assert code == 5
    assert out == "" and "a (3,3) see-saw does not fit in memory" in err


@pytest.mark.parametrize(
    "owner, name, message, command",
    [
        # numpy names the shape it could not allocate; a list of restarts runs out bare
        (np, "eye", "Unable to allocate 1.49 GiB", "grothendieck"),
        (grothendieck, "spawn_rng", "", "grothendieck"),
        (np, "linspace", "Unable to allocate 7.28 TiB", "curve"),
    ],
    ids=["grothendieck-vectors", "grothendieck-restarts", "curve-grid"],
)
def test_out_of_memory_exits_5(tmp_path, capsys, monkeypatch, owner, name, message, command):
    """Running out of memory is exit 5 with a message naming the command,
    not a traceback's exit 1, which means NotWitnessed.  The allocation is
    faked: no test allocates more than it needs."""

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    m_path = tmp_path / "m2.csv"
    m_path.write_text("1,0\n0,1\n", encoding="utf-8")
    argv = {
        "grothendieck": ["grothendieck", "-m", str(m_path), "--n", "3", "--restarts", "2"],
        "curve": ["curve", "--steps", "3", "--restarts", "1", "--out", str(tmp_path / "curve.csv")],
    }[command]
    monkeypatch.setattr(owner, name, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert out == "" and err == f"error: {command} does not fit in memory{': ' + message if message else ''}\n"


def test_eval_scenario_mismatch_exits_3(tmp_path, capsys):
    f_path = emit(tmp_path, "chsh")
    t_path = write_uniform_table(tmp_path, catalog.cglmp_C())
    code, _, err = run_cli(capsys, "eval", str(f_path), str(t_path))
    assert code == 3
    assert "scenario" in err.lower()


def test_local_bound_cli_examples(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "local-bound", str(emit(tmp_path, "E")))
    assert code == 0 and out.splitlines()[0] == "0.000000000000"
    code, out, _ = run_cli(capsys, "local-bound", "chsh")
    assert code == 0 and out.splitlines()[0] == "2.000000000000"
    phi = 3.0 * math.pi / 4.0
    code, out, _ = run_cli(capsys, "local-bound", f"iphi:{phi}")
    assert code == 0 and out.splitlines()[0] == "1.414213562373"


def test_local_bound_min_and_json(tmp_path, capsys):
    f = catalog.cglmp_D()
    path = emit(tmp_path, "cglmp-d")
    code, out, _ = run_cli(capsys, "local-bound", str(path), "--min", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    expected, strategy = local_bound_min(f)
    assert payload["value"] == expected
    assert payload["strategy"]["assignment_a"] == list(strategy.assignment_a)


def test_local_bound_cap_exits_4(tmp_path, capsys):
    # m = 27 is one past the cap of both classical searches.
    matrix = np.random.default_rng(27).normal(size=(27, 27))
    bell_path, m_path = tmp_path / "m27.bell", tmp_path / "m27.csv"
    f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
    bell_path.write_text(bellfmt.serialize_functional(f), encoding="utf-8")
    m_path.write_text(bellfmt.serialize_correlation_matrix(matrix), encoding="utf-8")
    for argv in (["local-bound", str(bell_path)], ["grothendieck", "-m", str(m_path), "--n", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == ""
        assert "cap" in err
    with pytest.raises(SystemExit) as exit_info:
        main(["local-bound", "chsh", "--cap", "3"])
    assert exit_info.value.code == 2 and "--cap" in capsys.readouterr().err


def test_local_bound_equals_local_norm_past_the_product_cap(tmp_path, capsys):
    # 2^28 strategy pairs, over the product cap the search once had; both
    # commands run the same search on the same coefficients.
    matrix = np.random.default_rng(14).normal(size=(14, 14))
    path = tmp_path / "m14.bell"
    f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
    path.write_text(bellfmt.serialize_functional(f), encoding="utf-8")
    code, out, _ = run_cli(capsys, "local-bound", str(path), "--json")
    assert code == 0
    assert json.loads(out)["value"] == grothendieck.local_norm(matrix)


def test_unknown_functional_exits_2(capsys):
    code, _, err = run_cli(capsys, "local-bound", "missing.bell")
    assert code == 2
    assert "missing.bell" in err


def test_seesaw_cli_invalid_dims(capsys):
    code, _, err = run_cli(capsys, "seesaw", "chsh", "--da", "1", "--db", "2")
    assert code == 5
    code, _, err = run_cli(
        capsys, "seesaw", "chsh", "--da", "3", "--db", "3", "--fixed-theta", "0.5"
    )
    assert code == 5 and "--fixed-theta requires --da 2 --db 2" in err
    code, _, err = run_cli(
        capsys, "seesaw", "chsh", "--da", "2", "--db", "2", "--fixed-theta", "0.5", "--fixed-gamma", "1"
    )
    assert code == 5 and "mutually exclusive" in err
    code, _, err = run_cli(capsys, "seesaw", "chsh", "--da", "2", "--db", "2", "--fixed-gamma", "1")
    assert code == 5 and "requires --da 3 --db 3" in err


def test_seesaw_cli_json_deterministic(capsys):
    args = [
        "seesaw", "chsh", "--da", "2", "--db", "2",
        "--restarts", "5", "--seed", "11", "--jobs", "1", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert json_without_duration(out1) == json_without_duration(out2)
    payload = json_without_duration(out1)
    assert abs(payload["best_value"] - 2.0 * math.sqrt(2.0)) < 1e-6
    assert payload["value_label"] == "best found (heuristic)"
    assert payload["manifest"]["seed"] == 11
    assert len(payload["per_restart_values"]) == 5


def test_seesaw_cli_jobs_equivalence(capsys):
    base = ["seesaw", "E", "--da", "2", "--db", "2", "--restarts", "4", "--seed", "2", "--json"]
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *base, "--jobs", "2")
    p1, p2 = json_without_duration(out1), json_without_duration(out2)
    p1["manifest"].pop("command"), p2["manifest"].pop("command")
    p1["manifest"]["config"].pop("jobs"), p2["manifest"]["config"].pop("jobs")
    assert p1 == p2


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_seesaw_cli_rejects_non_positive_jobs(capsys, jobs):
    code, out, err = run_cli(
        capsys, "seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "3", "--jobs", jobs
    )
    assert code == 5
    assert "jobs" in err and out == ""


def test_seesaw_cli_rejects_non_finite_fixed_theta(capsys, no_restarts):
    code, out, err = run_cli(
        capsys, "seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "2", "--fixed-theta", "nan"
    )
    assert code == 5
    assert out == "" and "finite" in err


def test_seesaw_cli_fixed_theta(capsys):
    theta = math.pi / 8.0
    code, out, _ = run_cli(
        capsys,
        "seesaw", "E", "--da", "2", "--db", "2",
        "--fixed-theta", str(theta), "--restarts", "12", "--seed", "4", "--jobs", "1", "--json",
    )
    assert code == 0
    value = json.loads(out)["best_value"]
    assert abs(value - theta_state_violation(theta)) < 1e-5


def test_seesaw_cli_fixed_gamma(capsys):
    # The CLI pins the two-qutrit gamma state, as the library does when given it.
    code, out, _ = run_cli(
        capsys,
        "seesaw", "cglmp-c", "--da", "3", "--db", "3",
        "--fixed-gamma", "0.79", "--restarts", "4", "--seed", "4", "--jobs", "1", "--json",
    )
    assert code == 0
    cfg = ss.SeesawConfig(restarts=4, seed=4)
    want = ss.seesaw(catalog.cglmp_C(), 3, 3, cfg, fixed_state=catalog.gamma_state(0.79)).best_value
    assert json.loads(out)["best_value"] == want


def test_seesaw_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIMWIT_SEED", "77")
    args = ["seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "3", "--jobs", "1", "--json"]
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["manifest"]["seed"] == 77
    monkeypatch.setenv("DIMWIT_SEED", "x")
    code, _, err = run_cli(capsys, *args)
    assert code == 5 and "DIMWIT_SEED" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["seesaw", "witness", "curve", "grothendieck"])
def test_negative_seed_exits_5_before_any_work(tmp_path, capsys, monkeypatch, no_restarts, command, source):
    """A negative seed, from ``--seed`` or ``DIMWIT_SEED``, is a configuration
    error: exit 5, nothing on stdout, no traceback, and neither a see-saw
    restart nor the Grothendieck sign enumeration runs."""

    def refuse(matrix):
        raise AssertionError("the sign enumeration ran")

    monkeypatch.setattr(grothendieck, "local_norm", refuse)
    m_path = tmp_path / "chsh.csv"
    m_path.write_text("1,1\n1,-1\n", encoding="utf-8")
    out_path = tmp_path / "curve.csv"
    argv = {
        "seesaw": ["seesaw", "chsh", "--da", "2", "--db", "2"],
        "witness": ["witness", "chsh", "--d", "2"],
        "curve": ["curve", "--steps", "2", "--out", str(out_path)],
        "grothendieck": ["grothendieck", "-m", str(m_path), "--n", "2"],
    }[command] + ["--restarts", "2"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("DIMWIT_SEED", "-1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (errors.ConfigError.exit_code, "")
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not out_path.exists()


def _reject_constant(constant):
    raise ValueError(f"invalid JSON constant {constant}")


@pytest.mark.parametrize("as_json", [True, False])
def test_seesaw_cli_reports_aborted_restart(capsys, monkeypatch, as_json):
    # Restart 0's first state step diagonalizes its start model's Bell operator.
    f = catalog.chsh()
    start = seeded_models(f.scenario, 2, 2, seed=4, count=1)[0]
    op = bell_operator(f, start.povms_a, start.povms_b)
    fail_eigh_on(monkeypatch, (op + op.conj().T) / 2.0, NotPSDError("synthetic failure"))
    args = ["seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "3", "--seed", "4", "--jobs", "1"]
    with pytest.warns(UserWarning, match="restart 0 aborted"):
        code, out, _ = run_cli(capsys, *args, *(["--json"] if as_json else []))
    assert code == 0
    if as_json:
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["per_restart_values"][0] is None
        assert all(v > 2.8 for v in payload["per_restart_values"][1:])
        assert payload["aborted"] == {"0": "NotPSDError: synthetic failure"}
    else:
        summary = out.splitlines()[1]
        assert "aborted 1" in summary
        assert "inf" not in summary


def test_witness_cli_chsh_not_witnessed(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "chsh", "--d", "2", "--restarts", "8", "--seed", "3", "--jobs", "1"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "NotWitnessed"
    assert payload["schema"] == 1


def test_witness_cli_iphi_witnessed(capsys):
    code, out, _ = run_cli(
        capsys,
        "witness", "iphi:0.785398", "--d", "2", "--restarts", "10", "--seed", "5", "--jobs", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Witnessed"
    assert payload["gap"] > 0.01


def test_witness_cli_accepts_json(capsys):
    # witness always prints JSON; --json, as written for every other
    # command, changes only the manifest's record of the call.
    argv = ["witness", "chsh", "--d", "2", "--restarts", "2", "--max-iterations", "2", "--seed", "3", "--jobs", "1"]
    payloads = []
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["manifest"]["command"] == argv + extra
        assert payload["manifest"]["config"]["json"] == bool(extra)
        payload.pop("manifest")
        payloads.append(payload)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("threshold", ["nan", "inf", "-5", "-1e-3"])
def test_witness_cli_rejects_non_finite_threshold(capsys, no_restarts, threshold):
    for option in ([f"--threshold={threshold}"], ["--threshold", threshold]):
        code, out, err = run_cli(capsys, "witness", "chsh", "--d", "2", *option)
        assert code == 5
        assert out == "" and "threshold" in err


def test_curve_cli(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "curve", "--steps", "3",
        "--restarts", "6", "--seed", "13", "--jobs", "1", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "phi,local_bound,value_d2,value_d3"
    assert len(lines) == 4
    for line in lines[1:]:
        phi, lb, d2, d3 = (float(v) for v in line.split(","))
        assert d3 >= d2 - 1e-9 >= lb - 2e-9
    manifest = json.loads(out_path.with_suffix(".csv.manifest.json").read_text())
    assert manifest["seed"] == 13
    assert manifest["config"]["steps"] == 3


def test_curve_cli_rejects_non_positive_steps(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "curve", "--steps", "0", "--out", str(out_path))
    assert code == 5
    assert "steps" in err
    assert not out_path.exists()


@pytest.mark.parametrize("dims", ["2,x", "2,2", "1", ",", "2.5"])
def test_curve_cli_rejects_bad_or_repeated_dims(tmp_path, capsys, dims):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "curve", "--steps", "2", "--dims", dims, "--out", str(out_path))
    assert code == 5
    assert err.startswith("error: no dimensions given" if dims == "," else "error: curve dimension")
    assert not out_path.exists()


def _curve_csv(**override):
    """``cmd_curve`` on a one-point, one-restart sweep into ./c.csv, with the
    parsed options replaced by ``override``; returns the CSV text."""
    args = cli.build_parser().parse_args(["curve", "--steps", "1", "--dims", "2", "--restarts", "1", "--out", "c.csv"])
    args.argv, args.started, args.seed = [], time.monotonic(), 0
    vars(args).update(override)
    cli.cmd_curve(args)
    with open("c.csv", encoding="utf-8") as fh:
        return fh.read()


_QUICK = ss.SeesawConfig(restarts=2, max_iterations=5)

# Each count option: (its name in the error, its minimum, a valid value, a
# call on a value that returns what the value decides).
COUNT_SITES = {
    "SeesawConfig.restarts": ("restarts", 1, 2, lambda v: ss.SeesawConfig(restarts=v).restarts),
    "SeesawConfig.max_iterations": ("max_iterations", 1, 5, lambda v: ss.SeesawConfig(max_iterations=v).max_iterations),
    "SeesawConfig.seed": ("seed", 0, 3, lambda v: ss.SeesawConfig(seed=v).seed),
    "spawn_rng": ("seed", 0, 3, lambda v: ss.spawn_rng(v, 1).random()),
    "seesaw.jobs": ("jobs", 1, 1, lambda v: ss.seesaw(catalog.chsh(), 2, 2, _QUICK, jobs=v).per_restart_values),
    "seesaw.d_a": ("d_a", 2, 2, lambda v: ss.seesaw(catalog.chsh(), v, 2, _QUICK).per_restart_values),
    "seesaw.d_b": ("d_b", 2, 2, lambda v: ss.seesaw(catalog.chsh(), 2, v, _QUICK).per_restart_values),
    "vector_seesaw": (
        "vector dimension", 1, 2, lambda v: grothendieck.vector_seesaw(grothendieck.normalize(np.eye(2)), v, _QUICK)[0]
    ),
    "grothendieck.search": ("vector dimension", 1, 2, lambda v: grothendieck.search(np.eye(2), v, _QUICK)[:2]),
    "witness_report": ("witness dimension", 2, 2, lambda v: catalog.witness_report(catalog.chsh(), v, _QUICK)),
    "curve --steps": ("--steps", 1, 1, lambda v: _curve_csv(steps=v)),
}


@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_every_count_option_takes_integers_only(site, tmp_path, monkeypatch):
    """A fraction, a string and a value below the minimum each raise
    ``ConfigError`` naming the option; a NumPy integer acts as the int.
    (``curve --dims`` is text, so its checks are in the test above.)"""
    monkeypatch.chdir(tmp_path)
    name, minimum, good, call = COUNT_SITES[site]
    for bad, why in ((2.5, "an integer, got 2.5"), ("3", "an integer, got '3'"), (minimum - 1, f">= {minimum}, got")):
        with pytest.raises(errors.ConfigError, match=f"^{re.escape(name)} must be {re.escape(why)}"):
            call(bad)
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "0"], "restarts"),
        (["seesaw", "chsh", "--da", "2", "--db", "2", "--max-iterations", "0"], "max_iterations"),
        (["seesaw", "chsh", "--da", "2", "--db", "2", "--jobs", "0"], "jobs"),
        (["seesaw", "chsh", "--da", "2", "--db", "2", "--seed", "-1"], "seed"),
        (["seesaw", "chsh", "--da", "1", "--db", "2"], "d_a"),
        (["witness", "chsh", "--d", "1"], "witness dimension"),
        (["curve", "--steps", "0", "--out", "c.csv"], "--steps"),
        (["curve", "--dims", "1", "--out", "c.csv"], "curve dimension"),
        (["grothendieck", "-m", "m.csv", "--n", "0"], "vector dimension"),
    ],
)
def test_bad_counts_exit_5_with_one_error_line(tmp_path, capsys, monkeypatch, no_restarts, argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("1,1\n1,-1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (errors.ConfigError.exit_code, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {name} must be >= ")


@pytest.mark.parametrize("flag, value", [("--phi-min", "nan"), ("--phi-max", "nan"), ("--phi-max", "inf")])
def test_curve_cli_rejects_non_finite_phi(tmp_path, capsys, no_restarts, flag, value):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "curve", "--steps", "3", flag, value, "--out", str(out_path))
    assert code == 5
    assert "non-finite angle" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parent", ["missing-dir", "missing-dir/deeper", "a-file", "a-file/deeper"])
def test_curve_cli_checks_its_output_directory_before_the_sweep(tmp_path, capsys, no_restarts, parent):
    """An output path whose directory is missing, or is a file, or that is
    itself a directory fails with exit 2 and the one error line that writing
    it would give, before any restart runs; an existing file that a later
    check refuses is kept."""
    (tmp_path / "a-file").write_text("kept\n", encoding="utf-8")
    out_path = tmp_path / parent / "x.csv"
    code, out, err = run_cli(capsys, "curve", "--out", str(out_path))
    reason = "[Errno 20] Not a directory" if parent.startswith("a-file") else "[Errno 2] No such file or directory"
    assert (code, out, err) == (2, "", f"error: {reason}: {str(out_path)!r}\n")
    code, out, err = run_cli(capsys, "curve", "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    code, _, err = run_cli(capsys, "curve", "--phi-max", "inf", "--out", str(tmp_path / "a-file"))
    assert code == 5 and "non-finite angle" in err
    assert (tmp_path / "a-file").read_text(encoding="utf-8") == "kept\n"


def test_curve_cli_takes_negative_exponent_angles(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(
        capsys,
        "curve", "--phi-min", "-1e-3", "--phi-max", "1e-3", "--steps", "2", "--dims", "2",
        "--restarts", "1", "--max-iterations", "1", "--jobs", "1", "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out_path.read_text().splitlines()] == ["phi", "-0.001", "0.001"]


def test_curve_cli_rows_at_zero_and_quarter_pi(tmp_path, capsys):
    # two grid points landing exactly on phi = 0 and phi = pi/4
    out_path = tmp_path / "anchors.csv"
    code, _, _ = run_cli(
        capsys,
        "curve", "--steps", "2", "--phi-min", "0", "--phi-max", str(math.pi / 4.0),
        "--restarts", "30", "--seed", "17", "--jobs", "1", "--out", str(out_path),
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    phi0 = [float(v) for v in rows[0]]
    assert phi0[0] == 0.0 and abs(phi0[1]) < 1e-12 and phi0[3] >= 0.3049
    phi4 = [float(v) for v in rows[1]]
    assert abs(phi4[0] - math.pi / 4.0) < 1e-12
    assert phi4[2] <= 1e-6 < phi4[3]


def test_catalog_emit_round_trip(tmp_path, capsys):
    for name in ("cglmp-c", "cglmp-d", "E", "chsh", "iphi:0.785398"):
        code, out, _ = run_cli(capsys, "catalog", "emit", name)
        assert code == 0
        assert bellfmt.parse_functional(out) == catalog.by_name(name)
    path = tmp_path / "e.bell"
    code, _, _ = run_cli(capsys, "catalog", "emit", "E", "--out", str(path))
    assert code == 0
    assert bellfmt.parse_functional(path.read_text()) == catalog.expression_E()
    code, _, err = run_cli(capsys, "catalog", "emit", "unknown-name")
    assert code == 5
    expected = "('cglmp-c', 'cglmp-d', 'E', 'chsh') or iphi:<phi>"
    assert err == f"error: unknown catalog name 'unknown-name'; expected one of {expected}\n"


def test_star_import_binds_every_public_name():
    """``from dimwit import *`` binds every name in ``__all__``, each listed
    once, and no test-only helper is among them or bound at the top level."""
    namespace = {}
    exec("from dimwit import *", namespace)
    assert len(set(dimwit.__all__)) == len(dimwit.__all__)
    assert all(name in namespace and hasattr(dimwit, name) for name in dimwit.__all__)
    dropped = (
        "uniform_table", "serialize_table_csv", "theta_state_violation", "stacked_values",
        "bell_operator", "strategy_table", "reference_bounds", "BoundRecord",
    )
    assert not [name for name in dropped if name in dimwit.__all__ or hasattr(dimwit, name)]


def test_grothendieck_cli(tmp_path, capsys):
    m_path = tmp_path / "chsh.csv"
    m_path.write_text("1,1\n1,-1\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "grothendieck", "-m", str(m_path), "--n", "3", "--restarts", "20", "--seed", "7",
    )
    assert code == 0
    assert out.splitlines()[0] == "local_norm: 2.000000000000"
    assert "1.414213562373" in out.splitlines()[1]
    code, out, _ = run_cli(
        capsys,
        "grothendieck", "-m", str(m_path), "--n", "2", "--restarts", "10", "--seed", "7", "--json",
    )
    payload = json.loads(out)
    assert payload["local_norm"] == 2.0
    assert abs(payload["value"] - math.sqrt(2.0)) < 1e-8
    assert len(payload["x_vectors"]) == 2 and len(payload["x_vectors"][0]) == 2


def test_grothendieck_cli_enumerates_sign_vectors_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = grothendieck.local_norm

    def counted(matrix):
        calls.append(np.shape(matrix))
        return original(matrix)

    monkeypatch.setattr(grothendieck, "local_norm", counted)
    m_path = tmp_path / "chsh.csv"
    m_path.write_text("1,1\n1,-1\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "grothendieck", "-m", str(m_path), "--n", "2", "--restarts", "2", "--json"
    )
    assert code == 0
    assert calls == [(2, 2)]
    assert json.loads(out)["local_norm"] == 2.0


@pytest.mark.parametrize("flag", ["--n", "--restarts", "--max-iterations"])
def test_grothendieck_cli_rejects_bad_options_before_enumerating(
    tmp_path, capsys, monkeypatch, flag
):
    def refuse(matrix):
        raise AssertionError("the sign enumeration ran")

    monkeypatch.setattr(grothendieck, "local_norm", refuse)
    m_path = tmp_path / "chsh.csv"
    m_path.write_text("1,1\n1,-1\n", encoding="utf-8")
    options = ["--n", "2", "--restarts", "2", "--max-iterations", "5"]
    options[options.index(flag) + 1] = "0"
    code, out, _ = run_cli(capsys, "grothendieck", "-m", str(m_path), *options)
    assert (code, out) == (errors.ConfigError.exit_code, "")


MANIFEST_KEYS = {"command", "seed", "config", "version", "duration_s"}


@pytest.mark.parametrize("command", ["eval", "local-bound", "seesaw", "witness", "grothendieck", "curve"])
def test_manifest_records_the_argv_given_to_main(tmp_path, capsys, monkeypatch, command):
    """Each JSON document (and the curve's sidecar) is strict JSON whose
    manifest has exactly the five keys and records main's own argv, not the
    process's command line."""
    monkeypatch.setattr(sys, "argv", ["dimwit", "extra-arg"])
    m_path = tmp_path / "chsh.csv"
    m_path.write_text("1,1\n1,-1\n", encoding="utf-8")
    out_path = tmp_path / "curve.csv"
    quick = ["--restarts", "2", "--max-iterations", "2"]
    argv = {
        "eval": ["eval", "chsh", str(write_uniform_table(tmp_path, catalog.chsh())), "--json"],
        "local-bound": ["local-bound", "chsh", "--min", "--json"],
        "seesaw": ["seesaw", "chsh", "--da", "2", "--db", "2", *quick, "--jobs", "1", "--json"],
        "witness": ["witness", "chsh", "--d", "2", *quick, "--jobs", "1"],
        "grothendieck": ["grothendieck", "-m", str(m_path), "--n", "2", *quick, "--json"],
        "curve": ["curve", "--steps", "2", "--dims", "2", *quick, "--jobs", "1", "--out", str(out_path)],
    }[command]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1)
    if command == "curve":
        out = out_path.with_suffix(".csv.manifest.json").read_text(encoding="utf-8")
    document = json.loads(out, parse_constant=_reject_constant)
    manifest = document if command == "curve" else document["manifest"]
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv


def test_main_without_argv_reads_the_process_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dimwit", "local-bound", "chsh", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["command"] == ["local-bound", "chsh", "--json"]


def test_manifest_config_holds_every_option_with_defaults_resolved(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIMWIT_SEED", "9")
    out_path = tmp_path / "c.csv"
    code, _, _ = run_cli(
        capsys,
        "curve", "--steps", "1", "--dims", "3, 2", "--max-iterations", "1", "--jobs", "1",
        "--out", str(out_path),
    )
    assert code == 0
    manifest = json.loads(out_path.with_suffix(".csv.manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"] == {
        "steps": 1, "dims": [3, 2], "phi_min": 0.0, "phi_max": math.pi, "out": str(out_path),
        "restarts": 150, "max_iterations": 1, "jobs": 1,
    }
    code, out, _ = run_cli(
        capsys, "seesaw", "chsh", "--da", "3", "--db", "2", "--max-iterations", "1", "--jobs", "1", "--json"
    )
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["seed"] == 9
    assert manifest["config"] == {
        "functional": "chsh", "da": 3, "db": 2, "restarts": 150, "max_iterations": 1, "jobs": 1,
        "fixed_theta": None, "fixed_gamma": None, "json": True,
    }


def test_jobs_default_counts_the_cpus_the_process_may_use(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, out, _ = run_cli(
        capsys, "seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "2", "--max-iterations", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["manifest"]["config"]["jobs"] == 1


def test_jobs_default_without_affinity_or_a_cpu_count_is_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._jobs_default() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._jobs_default() == 3


def _parse_outcome(capsys, call, argv):
    """``call(argv)``'s return value or ``SystemExit`` code, with its stdout and stderr."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--help"] for command in cli.COMMANDS),
        *([command] for command in cli.COMMANDS),  # each has a required argument
        *([command, "--bogus"] for command in cli.COMMANDS),
        ["local-bound", "chsh", "--json", "--bogus"],
        [],
        ["--help"],
        ["--version"],
        ["bogus"],
    ],
)
def test_main_builds_a_parser_that_prints_what_the_whole_one_prints(capsys, argv):
    """``main`` builds only the named command's subparser; its help, usage and
    error texts and exit codes are those of the whole tree."""
    lazy = _parse_outcome(capsys, main, argv)
    assert lazy == _parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert lazy[0][0] == "SystemExit"  # argparse ends every one of these calls
    if argv[:2] == ["local-bound", "chsh"]:
        # The top level reports the unrecognized option, so its usage line
        # lists every command although only one subparser was built.
        assert "{" + ",".join(cli.COMMANDS) + "} ..." in lazy[2]


def test_a_valid_command_builds_two_parsers(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["local-bound", str(emit(tmp_path, "chsh")), "--json"]) == 0
    assert built == ["dimwit", "dimwit local-bound"]


def test_one_list_of_commands():
    """The module docstring, the whole parser and ``main``'s dispatch name the
    same commands in the same order."""

    def commands(parser):
        return tuple(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)

    line = next(line for line in cli.__doc__.splitlines() if line.startswith("Subcommands: "))
    assert line == "Subcommands: " + ", ".join(cli.COMMANDS) + "."
    assert commands(cli.build_parser()) == cli.COMMANDS
    for command in cli.COMMANDS:
        assert commands(cli.build_parser(command)) == (command,)


# Payloads, with the input path and ``manifest`` removed, of the two
# ``test_cli_payloads_are_pinned`` commands; every float is compared with ``==``.
GOLDEN_GROTHENDIECK = {
    "local_norm": 96.48565216171869,
    "m": 16,
    "n": 3,
    "schema": 1,
    "value": 1.0817364031343857,
    "value_label": "best found (heuristic)",
    "x_vectors": [
        [0.18373364629642056, -0.9806775820940687, -0.06718204519626354],
        [0.6610135099949346, 0.6558048586688535, 0.3646657743064207],
        [0.5313559224911949, 0.7351067768436496, 0.4210450216687904],
        [-0.39246632058772435, 0.7584244961565627, 0.5203484129254141],
        [-0.15745858756325126, 0.9701403891099928, 0.1844841961255698],
        [-0.8697564224914528, 0.12569694110251523, -0.4772044053991332],
        [-0.5570709185223918, 0.8271044583145322, 0.07463381789003644],
        [-0.10394010817198372, -0.9438437565359904, -0.31361667232662577],
        [-0.038882126774464856, -0.8975348740280396, -0.439225830434602],
        [0.5492422712265109, -0.8187492878132587, -0.167279799148688],
        [-0.28104934756696537, -0.04357542209944992, 0.9587035239431625],
        [0.6287844183255983, -0.7775794513476917, -0.0005933909013566112],
        [-0.39686616755142784, 0.8763355188826987, 0.2730078815668761],
        [0.09241317991421812, 0.9487126340979496, 0.30233117947223453],
        [0.5970042855123364, -0.25121338432878404, 0.7618908836664101],
        [-0.7904156839585504, -0.6001316041173405, -0.12282143254287844],
    ],
    "y_vectors": [
        [0.017366924526834523, 0.8431861532957787, 0.5373411400802538],
        [0.7703882148782745, -0.6375212045791256, -0.008289275519983917],
        [-0.3707286675209421, -0.9235165779794892, 0.09837370215256173],
        [0.4139335665994487, -0.909898040279293, 0.027286603639180358],
        [-0.29850499463298513, -0.7912742322079785, -0.5336476905438975],
        [0.8802696502342812, 0.4244463994982073, 0.2120627190937261],
        [0.7556365137499347, -0.44684370032736115, 0.4788989105913649],
        [-0.18369025056453914, 0.9237727502226332, 0.33600862755835503],
        [-0.39707467661300905, 0.9176303895031352, 0.016916543766346073],
        [-0.5283321448732452, 0.8453696081408885, 0.07883761998790122],
        [0.25427785557577437, 0.9229747218757116, 0.28889519716021306],
        [-0.16043952700900993, -0.7781376205637194, -0.6072569486111775],
        [-0.31607684758749066, 0.8329388399090687, 0.4542117517084833],
        [-0.7511897354369454, 0.6386277635539158, -0.16693879415011936],
        [0.9242302214069189, 0.3538538401009296, 0.1434780738787059],
        [-0.09416944368360554, 0.617436160608786, 0.780963957842487],
    ],
}
GOLDEN_LOCAL_BOUND = {
    "max": {
        "kind": "max",
        "schema": 1,
        "strategy": {
            "assignment_a": [0, 0, 1, 0, 1, 1, 1, 1, 0],
            "assignment_b": [1, 1, 1, 0, 0, 1, 1, 1, 0],
        },
        "value": 34.4692159703901,
    },
    "min": {
        "kind": "min",
        "schema": 1,
        "strategy": {
            "assignment_a": [0, 0, 1, 0, 1, 1, 1, 1, 0],
            "assignment_b": [0, 0, 0, 1, 1, 0, 0, 0, 1],
        },
        "value": -34.4692159703901,
    },
}


def test_cli_payloads_are_pinned(tmp_path, capsys):
    matrix = np.random.default_rng(16).normal(size=(16, 16))
    m_path = tmp_path / "m16.csv"
    m_path.write_text(bellfmt.serialize_correlation_matrix(matrix), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "grothendieck", "-m", str(m_path), "--n", "3", "--restarts", "5", "--seed", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    payload.pop("manifest")
    assert payload.pop("matrix") == str(m_path)
    assert payload == GOLDEN_GROTHENDIECK

    matrix = np.random.default_rng(9).normal(size=(9, 9))
    f = grothendieck.correlator_bell(grothendieck.CorrelationFunctional(matrix))
    bell_path = tmp_path / "m9.bell"
    bell_path.write_text(bellfmt.serialize_functional(f), encoding="utf-8")
    for kind, extra in (("max", []), ("min", ["--min"])):
        code, out, _ = run_cli(capsys, "local-bound", str(bell_path), *extra, "--json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("manifest")
        assert payload.pop("functional") == str(bell_path)
        assert payload == GOLDEN_LOCAL_BOUND[kind]


@pytest.mark.parametrize(
    "text",
    [
        "scenario A:2 B:2\n1/0 P(0 0|0 0)\n",
        "scenario A:2 B:2\n+1e400 P(0 0|0 0)\n",
        "scenario A:2 B:2\n+1e308 PA(0|0)\n+1e308 PA(0|0)\n",
    ],
)
def test_local_bound_non_finite_coefficient_exits_2(tmp_path, capsys, text):
    path = tmp_path / "z.bell"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "local-bound", str(path))
    assert code == 2
    assert out == "" and "line" in err


def test_local_bound_over_long_rational_exits_2(tmp_path, capsys):
    """A numerator past Python's int-string digit limit is a parse error at
    the coefficient, not a traceback."""
    path = tmp_path / "big.bell"
    path.write_text("scenario A:2 B:2\n+1 PA(0|0)\nconst " + "1" * 5000 + "/3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "local-bound", str(path))
    assert code == 2
    assert out == "" and "(line 3, column 7)" in err


@pytest.mark.parametrize("name", ["iphi:nan", "iphi:inf", "iphi:-inf"])
def test_non_finite_iphi_angle_exits_2(capsys, name):
    code, out, err = run_cli(capsys, "local-bound", name)
    assert code == 2
    assert out == "" and name in err


@pytest.mark.parametrize("name", ["iphi:nan", "iphi:abc"])
def test_bad_catalog_name_reports_the_reason(capsys, name):
    code, out, err = run_cli(capsys, "local-bound", name)
    assert code == 2
    assert out == "" and f"bad iphi angle in {name!r}" in err


def test_directory_as_table_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "eval", "E", str(tmp_path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_directory_as_functional_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "local-bound", str(tmp_path))
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_non_utf8_functional_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.bell"
    path.write_bytes(b"scenario A:2 B:2\n+1 P(0 0|0 0) \xff\n")
    code, out, err = run_cli(capsys, "local-bound", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "utf-8" in err


def test_directory_named_like_a_catalog_entry_does_not_hide_it(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E").mkdir()
    (tmp_path / "chsh").mkdir()
    code, out, _ = run_cli(capsys, "local-bound", "E")
    assert code == 0 and out.splitlines()[0] == "0.000000000000"
    code, out, _ = run_cli(capsys, "local-bound", "chsh")
    assert code == 0 and out.splitlines()[0] == "2.000000000000"


@pytest.mark.parametrize("command", ["local-bound", "eval", "grothendieck"])
def test_byte_order_mark_reads_like_plain_utf8(tmp_path, capsys, command):
    # Text editors and spreadsheet "CSV UTF-8" exports start files with one.
    path = tmp_path / "input"
    if command == "local-bound":
        text, argv = bellfmt.serialize_functional(catalog.cglmp_C()), (command, str(path))
    elif command == "eval":
        text = table_csv(uniform_table(catalog.expression_E().scenario))
        argv = (command, "E", str(path))
    else:
        text = "1,1\n1,-1\n"
        argv = (command, "-m", str(path), "--n", "2", "--restarts", "3", "--seed", "7")
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text.encode("utf-8"))
        runs.append(run_cli(capsys, *argv))
    assert runs[0][0] == 0 and runs[1] == runs[0]


# The exit-code table of the cli docstring; every other error type exits 2.
EXIT_CODES = {
    errors.ScenarioMismatchError: 3,
    errors.SignalingError: 3,
    errors.StrategySpaceTooLargeError: 4,
    errors.ConfigError: 5,
    errors.InvalidModelError: 5,
}
ERROR_TYPES = [
    t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.DimwitError)
]


@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda t: t.__name__)
def test_error_type_exit_code(error_type):
    assert error_type.exit_code == EXIT_CODES.get(error_type, 2)


def test_grothendieck_cli_bad_matrix(tmp_path, capsys):
    m_path = tmp_path / "bad.csv"
    m_path.write_text("1,x\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "grothendieck", "-m", str(m_path), "--n", "2")
    assert code == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "1e309"])
def test_grothendieck_cli_non_finite_cell_exits_2(tmp_path, capsys, cell):
    m_path = tmp_path / "bad.csv"
    m_path.write_text(f"1,2\n{cell},3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "grothendieck", "-m", str(m_path), "--n", "2")
    assert code == 2
    assert out == "" and "line 2" in err


def test_local_bound_beyond_the_float_range_exits_2(tmp_path, capsys):
    """Finite coefficients whose bound overflows: a typed error, not a
    RuntimeWarning and an infinite value, which is not JSON."""
    path = tmp_path / "huge.bell"
    path.write_text("scenario A:2 B:2\n1e308 P(0 0|0 0)\n1e308 PA(0|0)\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "local-bound", str(path), "--json")
    assert code == 2
    assert out == "" and "float range" in err


def test_grothendieck_local_norm_beyond_the_float_range_exits_2(tmp_path, capsys):
    """A matrix whose local norm overflows is refused before it would be
    normalized to all zeros and searched."""
    m_path = tmp_path / "huge.csv"
    m_path.write_text("1e308,1e308\n1e308,-1e308\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "grothendieck", "-m", str(m_path), "--n", "2", "--json")
    assert code == 2
    assert out == "" and "float range" in err


HUGE_FUNCTIONAL = "scenario A:2 B:2\n1e308 P(0 0|0 0)\n1e308 PA(0|0)\n"


def test_eval_value_beyond_the_float_range_exits_2(tmp_path, capsys):
    """Finite coefficients whose value on a table overflows: a typed error,
    not an infinite value, which is not JSON."""
    f_path = tmp_path / "huge.bell"
    f_path.write_text(HUGE_FUNCTIONAL, encoding="utf-8")
    f = bellfmt.parse_functional(HUGE_FUNCTIONAL)
    table = strategy_table(f.scenario, local_bound(f.scaled(1e-300))[1])
    t_path = tmp_path / "strategy.csv"
    t_path.write_text(table_csv(table), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "eval", str(f_path), str(t_path), "--json")
    assert code == 2
    assert out == "" and "float range" in err


def test_seesaw_operators_beyond_the_float_range_exit_2_before_any_restart(tmp_path, capsys, no_restarts):
    """A functional whose see-saw operators would overflow is refused, with
    its cause named, before any restart runs and without a RuntimeWarning."""
    path = tmp_path / "huge.bell"
    path.write_text(HUGE_FUNCTIONAL, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "seesaw", str(path), "--da", "2", "--db", "2", "--restarts", "2")
    assert code == 2
    assert out == "" and "beyond the float range" in err


def test_seesaw_runs_on_coefficients_of_1e300(tmp_path, capsys):
    path = tmp_path / "big.bell"
    path.write_text("scenario A:2 B:2\n1e300 P(0 0|0 0)\n1e300 PA(0|0)\n-1e300 P(1 1|0 0)\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "seesaw", str(path), "--da", "3", "--db", "3", "--restarts", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["aborted"] == {} and abs(payload["best_value"] / 2e300 - 1.0) < 1e-12


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dimwit.cli", "local-bound", "cglmp-c"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "0.000000000000"
