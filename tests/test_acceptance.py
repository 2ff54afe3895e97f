"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are the contract values, pinned here.
"""

import math
import time
from itertools import product

import numpy as np

from dimwit import bellfmt, catalog, grothendieck, linalg, localbound
from dimwit.cli import main
from dimwit.scenario import BellScenario, model_value
from dimwit.seesaw import SeesawConfig, seeded_models, seesaw

from conftest import party_step, random_functional, random_hermitian, state_step, theta_state_violation

E_QUBIT_MAX = 1.0 / math.sqrt(2.0) - 0.5  # = (sqrt(2)-1)/2 = 0.2071067811...


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_cglmp_local_bound_via_cli(tmp_path, capsys):
    path = tmp_path / "cglmp-c.bell"
    path.write_text(bellfmt.serialize_functional(catalog.cglmp_C()), encoding="utf-8")
    start = time.perf_counter()
    code = main(["local-bound", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        value = float(out.splitlines()[0])
        _report(
            "1 (CGLMP local bound)",
            code == 0 and value == 0.0 and elapsed < 1.0,
            f"value={value!r} exit={code} runtime={elapsed:.3f}s < 1s",
        )


def test_criterion_2_cglmp_qutrit_value(capsys):
    start = time.perf_counter()
    result = seesaw(catalog.cglmp_C(), 3, 3, SeesawConfig(restarts=81, seed=2026))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = 0.3049 <= result.best_value <= 0.3051 and elapsed < 300.0
        _report(
            "2 (CGLMP qutrit value)",
            ok,
            f"best={result.best_value:.6f} in [0.3049, 0.3051], "
            f"81 restarts, runtime={elapsed:.1f}s < 300s",
        )


def test_criterion_3_expression_e_bounds(capsys):
    start = time.perf_counter()
    f = catalog.expression_E()
    d3 = seesaw(f, 3, 3, SeesawConfig(restarts=100, seed=2026))
    d2 = seesaw(f, 2, 2, SeesawConfig(restarts=100, seed=2026))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok_d3 = d3.best_value >= 0.2531
        ok_d2 = abs(d2.best_value - E_QUBIT_MAX) <= 1e-4
        sound = d2.best_value <= E_QUBIT_MAX + 1e-6
        _report(
            "3 (expression E bounds)",
            ok_d3 and ok_d2 and sound and elapsed < 300.0,
            f"d3={d3.best_value:.6f} >= 0.2531; d2={d2.best_value:.9f} within 1e-4 of "
            f"{E_QUBIT_MAX:.7f} and <= certified+1e-6; runtime={elapsed:.1f}s < 300s",
        )


def test_criterion_4_chsh_reduction_curve(capsys):
    start = time.perf_counter()
    f = catalog.expression_E()
    worst = 0.0
    details = []
    for theta in (math.pi / 8.0, math.pi / 6.0, math.pi / 4.0):
        cfg = SeesawConfig(restarts=20, seed=2026)
        value = seesaw(f, 2, 2, cfg, fixed_state=catalog.theta_state(theta)).best_value
        target = theta_state_violation(theta)
        worst = max(worst, abs(value - target))
        details.append(f"theta={theta:.4f}: {value:.7f} vs {target:.7f}")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(
            "4 (CHSH reduction curve)",
            worst <= 1e-5 and elapsed < 60.0,
            f"max deviation {worst:.2e} <= 1e-5; {'; '.join(details)}; "
            f"runtime={elapsed:.1f}s < 60s",
        )


def test_criterion_5_iphi_witness(capsys):
    start = time.perf_counter()
    quarter = catalog.i_phi(math.pi / 4.0)
    bound, _ = localbound.local_bound(quarter)
    d2 = seesaw(quarter, 2, 2, SeesawConfig(restarts=50, seed=2026))
    d3 = seesaw(quarter, 3, 3, SeesawConfig(restarts=60, seed=2026))
    bound_3q, _ = localbound.local_bound(catalog.i_phi(3.0 * math.pi / 4.0))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        # enumeration is exact; the residues below are float rounding in the
        # cos/sin coefficient products
        ok = (
            abs(bound) <= 1e-12
            and d2.best_value <= 1e-6
            and d3.best_value > 0.01
            and abs(bound_3q - math.sqrt(2.0)) <= 1e-15
        )
        _report(
            "5 (I_phi witness)",
            ok and elapsed < 300.0,
            f"local(pi/4)={bound:.1e} (=0 at 1e-12); d2={d2.best_value:.2e} <= 1e-6; "
            f"d3={d3.best_value:.4f} > 0.01; local(3pi/4)-sqrt2={bound_3q - math.sqrt(2.0):.1e} "
            f"(=0 at 1e-15); runtime={elapsed:.1f}s < 300s",
        )


def test_criterion_6_grothendieck_module(capsys):
    start = time.perf_counter()
    chsh_matrix = np.array([[1.0, 1.0], [1.0, -1.0]])
    norm = grothendieck.local_norm(chsh_matrix)
    normalized = grothendieck.normalize(chsh_matrix)
    cfg = SeesawConfig(restarts=30, seed=2026)
    v1, _ = grothendieck.vector_seesaw(normalized, 1, cfg)
    v2, _ = grothendieck.vector_seesaw(normalized, 2, cfg)
    v3, _ = grothendieck.vector_seesaw(normalized, 3, cfg)
    qubit = seesaw(grothendieck.correlator_bell(normalized), 2, 2, cfg)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        ok = (
            norm == 2.0
            and v1 == 1.0
            and abs(v2 - math.sqrt(2.0)) <= 1e-8
            and abs(v3 - math.sqrt(2.0)) <= 1e-8
            and abs(qubit.best_value - v3) <= 1e-5
            and elapsed < 60.0
        )
        _report(
            "6 (Grothendieck module)",
            ok,
            f"local_norm={norm} (=2 exact); N=1 value={v1} (=1 exact); "
            f"N=2 dev={abs(v2 - math.sqrt(2.0)):.1e}; N=3 dev={abs(v3 - math.sqrt(2.0)):.1e} "
            f"(<=1e-8); qubit-vs-N3 dev={abs(qubit.best_value - v3):.1e} <= 1e-5; "
            f"runtime={elapsed:.1f}s < 60s",
        )


def test_criterion_7a_eigensolver_reconstruction(capsys):
    rng = np.random.default_rng(712)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        a = random_hermitian(rng, n)
        eig = linalg.eig_hermitian(a)
        rebuilt = (eig[1] * eig[0]) @ eig[1].conj().T
        worst = max(worst, float(np.abs(a - rebuilt).max()))
    with capsys.disabled():
        _report(
            "7a (eigensolver reconstruction, 1000 matrices)",
            worst < 1e-10,
            f"worst reconstruction error {worst:.2e} < 1e-10",
        )


def test_criterion_7b_seesaw_monotone_feasible_100_runs(capsys):
    rng = np.random.default_rng(713)
    worst_drop = 0.0
    runs = 0
    for i in range(100):
        sc = BellScenario(
            tuple(int(v) for v in rng.integers(2, 4, size=rng.integers(1, 3))),
            tuple(int(v) for v in rng.integers(2, 4, size=rng.integers(1, 3))),
        )
        f = random_functional(rng, sc)
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        model = seeded_models(sc, d_a, d_b, seed=9000 + i, count=1)[0]
        value = model_value(f, model)
        for _ in range(2):
            model = state_step(f, model)
            new = model_value(f, model)
            worst_drop = max(worst_drop, value - new)
            value = new
            for party, settings in (("A", sc.settings_a), ("B", sc.settings_b)):
                for setting in range(settings):
                    model = party_step(f, model, party, setting)
                    model.validate(sc)  # POVM feasibility after every update
                    new = model_value(f, model)
                    worst_drop = max(worst_drop, value - new)
                    value = new
        runs += 1
    with capsys.disabled():
        _report(
            "7b (see-saw monotonicity + feasibility, 100 runs)",
            runs == 100 and worst_drop <= 1e-12,
            f"{runs} runs, worst per-update objective drop {worst_drop:.2e} <= 1e-12",
        )


def test_criterion_7c_local_norm_vs_naive(capsys):
    rng = np.random.default_rng(714)
    worst = 0.0
    checked = 0
    cases = [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]), np.ones((3, 3))]
    for m in (1, 2, 3, 4):
        for _ in range(15):
            cases.append(rng.normal(size=(m, m)))
    for matrix in cases:
        m = matrix.shape[0]
        naive = 0.0
        for xs in product((-1.0, 1.0), repeat=m):
            for ys in product((-1.0, 1.0), repeat=m):
                naive = max(naive, abs(float(np.array(xs) @ matrix @ np.array(ys))))
        worst = max(worst, abs(grothendieck.local_norm(matrix) - naive))
        checked += 1
    with capsys.disabled():
        _report(
            "7c (local_norm vs naive 4^m, m <= 4)",
            worst <= 1e-12,
            f"{checked} matrices, worst deviation {worst:.2e} <= 1e-12",
        )


def test_criterion_7d_parser_round_trip_500(capsys):
    rng = np.random.default_rng(715)
    failures = 0
    for _ in range(500):
        f = random_functional(rng)
        back = bellfmt.parse_functional(bellfmt.serialize_functional(f))
        if back != f:
            failures += 1
    with capsys.disabled():
        _report(
            "7d (parser round-trip identity, 500 functionals)",
            failures == 0,
            f"{failures} of 500 round-trips failed",
        )
