import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dimwit import bellfmt, catalog, errors, grothendieck
from dimwit.cli import main
from dimwit.errors import NotPSDError
from dimwit.localbound import local_bound, local_bound_min, strategy_table
from dimwit.scenario import bell_operator, uniform_table
from dimwit.seesaw import seeded_models

from conftest import fail_eigh_on


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
    path.write_text(bellfmt.serialize_table_csv(uniform_table(functional.scenario)), encoding="utf-8")
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
    t_path.write_text(bellfmt.serialize_table_csv(table), encoding="utf-8")
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
    code, _, err = run_cli(capsys, "local-bound", "chsh", "--cap", "3")
    assert code == 4
    assert "cap" in err


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
    assert code == 5


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
    assert abs(value - catalog.theta_state_violation(theta)) < 1e-5


def test_seesaw_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DIMWIT_SEED", "77")
    args = ["seesaw", "chsh", "--da", "2", "--db", "2", "--restarts", "3", "--jobs", "1", "--json"]
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["manifest"]["seed"] == 77
    monkeypatch.setenv("DIMWIT_SEED", "x")
    code, _, err = run_cli(capsys, *args)
    assert code == 5 and "DIMWIT_SEED" in err


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


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_witness_cli_rejects_non_finite_threshold(capsys, no_restarts, threshold):
    code, out, err = run_cli(capsys, "witness", "chsh", "--d", "2", "--threshold", threshold)
    assert code == 5
    assert out == "" and "threshold" in err


def test_curve_cli(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        "curve", "--family", "iphi", "--steps", "3",
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


@pytest.mark.parametrize("dims", ["2,x", "2,2"])
def test_curve_cli_rejects_bad_or_repeated_dims(tmp_path, capsys, dims):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "curve", "--steps", "2", "--dims", dims, "--out", str(out_path))
    assert code == 5
    assert err.startswith("error: curve dimension")
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value", [("--phi-min", "nan"), ("--phi-max", "nan"), ("--phi-max", "inf")])
def test_curve_cli_rejects_non_finite_phi(tmp_path, capsys, no_restarts, flag, value):
    out_path = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "curve", "--steps", "3", flag, value, "--out", str(out_path))
    assert code == 5
    assert "non-finite angle" in err
    assert list(tmp_path.iterdir()) == []


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


# The exit-code table of the cli docstring; every other error type exits 2.
EXIT_CODES = {
    errors.ScenarioMismatchError: 3,
    errors.SignalingError: 3,
    errors.StrategySpaceTooLargeError: 4,
    errors.MatrixTooLargeError: 4,
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


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dimwit.cli", "local-bound", "cglmp-c"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "0.000000000000"
