import math

import numpy as np
import pytest

from dimwit import bellfmt, catalog
from dimwit.errors import ConfigError
from dimwit.localbound import DeterministicStrategy, local_bound, strategy_table
from dimwit.scenario import evaluate
from dimwit.seesaw import SeesawConfig, seesaw

from conftest import random_table, theta_state_violation, uniform_table


def d_oracle(assignment_a, assignment_b):
    """Count the selected cells of the companion expression directly."""
    total = 0
    for x in range(2):
        for y in range(2):
            for k in range(3):
                if assignment_a[x] == k and assignment_b[y] == (k - 1 - (x - 1) * (y - 1)) % 3:
                    total -= 1
    return float(total)


def test_cglmp_c_basics():
    f = catalog.cglmp_C()
    assert local_bound(f)[0] == 0.0
    assert abs(evaluate(f, uniform_table(f.scenario)) + 2.0 / 3.0) < 1e-12


def test_cglmp_d_uniform():
    f = catalog.cglmp_D()
    assert abs(evaluate(f, uniform_table(f.scenario)) + 4.0 / 3.0) < 1e-12


def test_cglmp_d_deterministic_matches_cell_count_oracle():
    f = catalog.cglmp_D()
    # frozen from the oracle: a==0, b==2 hits the (0,1), (1,0), (1,1) cells
    assert d_oracle((0, 0), (2, 2)) == -3.0
    for aa in ((0, 0), (0, 1), (2, 1)):
        for bb in ((0, 0), (2, 2), (1, 2)):
            s = DeterministicStrategy(aa, bb)
            value = evaluate(f, strategy_table(f.scenario, s))
            assert value == d_oracle(aa, bb)
    assert evaluate(f, strategy_table(f.scenario, DeterministicStrategy((0, 0), (0, 0)))) == 0.0
    assert evaluate(f, strategy_table(f.scenario, DeterministicStrategy((0, 0), (2, 2)))) == -3.0


def test_cglmp_d_never_positive(rng):
    f = catalog.cglmp_D()
    for _ in range(20):
        assert evaluate(f, random_table(rng, f.scenario)) <= 1e-12


def test_i_phi_endpoints():
    assert catalog.i_phi(0.0) == catalog.cglmp_C()
    f = catalog.i_phi(math.pi / 2.0)
    d = catalog.cglmp_D()
    for x in range(2):
        for y in range(2):
            assert np.abs(f.coefficients[x, y, :3, :3] - d.coefficients[x, y, :3, :3]).max() < 1e-15
    assert abs(f.constant) < 1e-15


def test_i_phi_is_linear_combination(rng):
    c = catalog.cglmp_C()
    d = catalog.cglmp_D()
    for phi in (0.3, 1.1, 2.5, 4.0):
        f = catalog.i_phi(phi)
        for _ in range(3):
            t = random_table(rng, f.scenario)
            combined = math.cos(phi) * evaluate(c, t) + math.sin(phi) * evaluate(d, t)
            assert abs(evaluate(f, t) - combined) < 1e-12


def test_expression_e_basics():
    f = catalog.expression_E()
    assert f.scenario.outcomes_a == (2, 3)
    assert f.scenario.outcomes_b == (2, 2, 2)
    assert local_bound(f)[0] == 0.0
    # frozen by enumeration: the all-zeros strategy scores -2 (the marginal,
    # one positive joint cell, three negative joint cells, constant -1)
    s = DeterministicStrategy((0, 0), (0, 0, 0))
    assert evaluate(f, strategy_table(f.scenario, s)) == -2.0


def test_chsh_basics():
    f = catalog.chsh()
    assert local_bound(f)[0] == 2.0
    assert abs(evaluate(f, uniform_table(f.scenario))) < 1e-15


def test_gamma_state():
    v = catalog.gamma_state(1.0)
    assert np.allclose(v[[0, 4, 8]], 1.0 / math.sqrt(3.0))
    v0 = catalog.gamma_state(0.0)
    assert abs(v0[0] - 1.0 / math.sqrt(2.0)) < 1e-15 and v0[4] == 0.0
    for gamma in (0.5, 0.7923, 2.0):
        assert abs(np.linalg.norm(catalog.gamma_state(gamma)) - 1.0) < 1e-12


def test_gamma_state_past_the_square_overflow():
    # gamma^2 overflows for |gamma| past about 1.34e154; the state stays a unit vector near |11>
    v = catalog.gamma_state(1e200)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15 and v[4] == 1.0


def test_theta_state():
    assert np.allclose(catalog.theta_state(math.pi / 4.0)[[0, 3]], 1.0 / math.sqrt(2.0))
    assert np.allclose(catalog.theta_state(0.0), [1.0, 0.0, 0.0, 0.0])
    # at the maximally entangled state the reference violation is the certified qubit maximum
    assert abs(theta_state_violation(math.pi / 4.0) - catalog.E_QUBIT_MAX) < 1e-15


def test_cglmp_value_at_optimal_gamma_state():
    # Measurement-only search at the known optimal partially entangled state
    # recovers the reported two-qutrit maximum.
    gamma = (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0
    cfg = SeesawConfig(restarts=12, seed=17)
    result = seesaw(catalog.cglmp_C(), 3, 3, cfg, fixed_state=catalog.gamma_state(gamma))
    assert abs(result.best_value - 0.3050) < 1e-3


# The .bell text of each named functional, as `dimwit catalog emit <name>`
# prints it: it pins every nonzero coefficient of the constructors.
PINNED_BELL_TEXTS = {
    "cglmp-c": """scenario A:3,3 B:3,3
const -3
+1 P(0 0|0 0)
+1 P(0 1|0 0)
+1 P(0 2|0 0)
+1 P(1 1|0 0)
+1 P(1 2|0 0)
+1 P(2 2|0 0)
+1 P(0 0|0 1)
+1 P(1 0|0 1)
+1 P(1 1|0 1)
+1 P(2 0|0 1)
+1 P(2 1|0 1)
+1 P(2 2|0 1)
+1 P(0 0|1 0)
+1 P(1 0|1 0)
+1 P(1 1|1 0)
+1 P(2 0|1 0)
+1 P(2 1|1 0)
+1 P(2 2|1 0)
+1 P(0 1|1 1)
+1 P(0 2|1 1)
+1 P(1 2|1 1)
""",
    "cglmp-d": """scenario A:3,3 B:3,3
-1 P(0 1|0 0)
-1 P(1 2|0 0)
-1 P(2 0|0 0)
-1 P(0 2|0 1)
-1 P(1 0|0 1)
-1 P(2 1|0 1)
-1 P(0 2|1 0)
-1 P(1 0|1 0)
-1 P(2 1|1 0)
-1 P(0 2|1 1)
-1 P(1 0|1 1)
-1 P(2 1|1 1)
""",
    "E": """scenario A:2,3 B:2,2,2
const -1
+1 PA(0|0)
-1 P(0 0|0 0)
-1 P(0 0|0 1)
-1 P(0 0|0 2)
+1 P(0 0|1 0)
+1 P(1 0|1 1)
+1 P(2 0|1 2)
""",
    "chsh": """scenario A:2,2 B:2,2
+1 P(0 0|0 0)
-1 P(0 1|0 0)
-1 P(1 0|0 0)
+1 P(1 1|0 0)
+1 P(0 0|0 1)
-1 P(0 1|0 1)
-1 P(1 0|0 1)
+1 P(1 1|0 1)
+1 P(0 0|1 0)
-1 P(0 1|1 0)
-1 P(1 0|1 0)
+1 P(1 1|1 0)
-1 P(0 0|1 1)
+1 P(0 1|1 1)
+1 P(1 0|1 1)
-1 P(1 1|1 1)
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_BELL_TEXTS))
def test_catalog_coefficients_are_pinned(name):
    f = catalog.by_name(name)
    assert bellfmt.serialize_functional(f) == PINNED_BELL_TEXTS[name]
    # The text omits zero terms, so it cannot show a -0.0; the tensor has none.
    assert not np.signbit(f.coefficients[f.coefficients == 0.0]).any()


def test_by_name_and_errors():
    assert catalog.by_name("cglmp-c") == catalog.cglmp_C()
    assert catalog.by_name("E") == catalog.expression_E()
    assert catalog.by_name("iphi:0.5") == catalog.i_phi(0.5)
    with pytest.raises(ConfigError):
        catalog.by_name("nope")
    with pytest.raises(ConfigError):
        catalog.by_name("iphi:abc")


@pytest.mark.parametrize("name", ["iphi:inf", "iphi:nan", "iphi:abc"])
def test_by_name_rejects_bad_angles(name):
    with pytest.raises(ConfigError):
        catalog.by_name(name)


def test_witness_report_not_witnessed_for_chsh():
    cfg = SeesawConfig(restarts=8, seed=19)
    report = catalog.witness_report(catalog.chsh(), 2, cfg, functional_id="chsh")
    assert report.verdict == "NotWitnessed"
    assert not report.witnessed()
    assert abs(report.gap - (report.value_d_plus - report.value_d)) < 1e-15
    assert abs(report.value_d - 2.0 * math.sqrt(2.0)) < 1e-6
    assert report.value_label == catalog.HEURISTIC_LABEL
    with pytest.raises(ConfigError):
        catalog.witness_report(catalog.chsh(), 1, cfg)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -5.0, -1e-3])
def test_witness_report_rejects_non_finite_threshold(no_restarts, threshold):
    with pytest.raises(ConfigError, match="threshold"):
        catalog.witness_report(catalog.chsh(), 2, SeesawConfig(restarts=2), gap_threshold=threshold)


def test_iphi_sweep_rejects_non_finite_grid_before_any_seesaw(no_restarts):
    # A grid that is not a one-dimensional sequence of reals is rejected before any see-saw too.
    for grid, message in (
        ([0.0, 0.5, math.nan], "non-finite angle"),
        (0.3, "one-dimensional"),
        ([[0.1, 0.2]], "one-dimensional"),
        ([[0.1], [0.2, 0.3]], "real angles"),
        (["a"], "real angles"),
    ):
        with pytest.raises(ConfigError, match=message):
            catalog.iphi_sweep(grid, dims=(2,), cfg=SeesawConfig(restarts=2))


@pytest.mark.parametrize("state", [catalog.theta_state, catalog.gamma_state])
def test_special_states_reject_non_finite_angles(state):
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            state(bad)


def test_witness_report_e_gap():
    cfg = SeesawConfig(restarts=40, seed=2)
    report = catalog.witness_report(catalog.expression_E(), 2, cfg, functional_id="E")
    assert report.verdict == "Witnessed"
    assert abs(report.gap - 0.0461) < 1e-3  # 0.2532 - 0.2071
    assert abs(report.value_d - catalog.E_QUBIT_MAX) < 1e-5
    assert abs(report.value_d_plus - 0.2532) < 1e-3


def test_witness_report_iphi_quarter_pi():
    cfg = SeesawConfig(restarts=12, seed=23)
    report = catalog.witness_report(
        catalog.i_phi(math.pi / 4.0), 2, cfg, functional_id="iphi:pi/4"
    )
    assert report.verdict == "Witnessed"
    # exact enumeration; the residue is float rounding in cos(pi/4)*coefficients
    assert abs(report.local_bound) < 1e-12
    assert report.value_d <= 1e-6
    assert report.value_d_plus > 0.01


def test_iphi_sweep_reduced_grid_monotone():
    cfg = SeesawConfig(restarts=10, seed=29)
    phis = np.linspace(0.0, math.pi, 5)
    rows = catalog.iphi_sweep(phis, dims=(2, 3), cfg=cfg)
    assert len(rows) == 5
    for row in rows:
        assert row["value_d3"] >= row["value_d2"] - 1e-9
        assert row["value_d2"] >= row["local_bound"] - 1e-9
