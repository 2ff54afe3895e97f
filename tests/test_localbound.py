import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimwit import catalog, localbound
from dimwit.errors import InvalidFunctionalError, ScenarioMismatchError, StrategySpaceTooLargeError
from dimwit.localbound import (
    ENUMERATION_CAP,
    DeterministicStrategy,
    check_enumeration,
    local_bound,
    local_bound_min,
    strategy_table,
    strategy_value,
)
from dimwit.scenario import BellFunctional, BellScenario, evaluate

from conftest import random_functional


def brute_force_extremes(f):
    """Independent oracle: score every strategy through evaluate()."""
    sc = f.scenario
    best = -math.inf
    worst = math.inf
    for alpha in product(*(range(v) for v in sc.outcomes_a)):
        for beta in product(*(range(v) for v in sc.outcomes_b)):
            s = DeterministicStrategy(alpha, beta)
            v = evaluate(f, strategy_table(sc, s))
            best = max(best, v)
            worst = min(worst, v)
    return best, worst


def test_cglmp_local_bound_is_zero():
    value, strategy = local_bound(catalog.cglmp_C())
    assert value == 0.0
    assert evaluate(catalog.cglmp_C(), strategy_table(catalog.cglmp_C().scenario, strategy)) == value


def test_expression_e_local_bound_is_zero():
    value, strategy = local_bound(catalog.expression_E())
    assert value == 0.0
    assert strategy.assignment_a[0] in (0, 1)


def test_chsh_local_bound_is_two():
    value, _ = local_bound(catalog.chsh())
    assert value == 2.0


def test_iphi_three_quarters_pi_is_sqrt2():
    value, _ = local_bound(catalog.i_phi(3.0 * math.pi / 4.0))
    assert abs(value - math.sqrt(2.0)) < 1e-15


def test_iphi_local_bound_formula_on_64_grid():
    # The piecewise formula (0 for sin phi >= 0, -2 sin phi otherwise) holds on
    # [-pi/4, pi/2]; outside that range other strategies win (see 3pi/4 above).
    for phi in np.linspace(-math.pi / 4.0, math.pi / 2.0, 64):
        value, _ = local_bound(catalog.i_phi(float(phi)))
        expected = 0.0 if math.sin(phi) >= 0.0 else -2.0 * math.sin(phi)
        assert abs(value - expected) < 1e-12, phi


def test_witness_strategy_reproduces_value_exactly(rng):
    for _ in range(25):
        f = random_functional(rng)
        value, strategy = local_bound(f)
        assert evaluate(f, strategy_table(f.scenario, strategy)) == value


def test_matches_brute_force(rng):
    for _ in range(25):
        f = random_functional(rng)
        value, _ = local_bound(f)
        low, _ = local_bound_min(f)
        oracle_max, oracle_min = brute_force_extremes(f)
        assert abs(value - oracle_max) < 1e-12
        assert abs(low - oracle_min) < 1e-12


def test_min_of_constant_functional():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc, constant=-0.75)
    value, strategy = local_bound_min(f)
    assert value == -0.75 and strategy.assignment_a == (0,)


def test_min_is_negated_max_of_negation(rng):
    for _ in range(10):
        f = random_functional(rng)
        assert local_bound_min(f)[0] == -local_bound(-f)[0]


def test_subadditivity(rng):
    sc = BellScenario((2, 3), (2, 2))
    for _ in range(10):
        f1 = random_functional(rng, sc)
        f2 = random_functional(rng, sc)
        lhs, _ = local_bound(f1 + f2)
        assert lhs <= local_bound(f1)[0] + local_bound(f2)[0] + 1e-12


def test_tie_break_is_lexicographic():
    # A flat functional: every strategy scores the same, so the reported
    # witness must be the all-zeros assignment.
    sc = BellScenario((2, 2), (3,))
    f = BellFunctional(sc, constant=1.0)
    _, strategy = local_bound(f)
    assert strategy == DeterministicStrategy((0, 0), (0,))


def test_strategy_space_cap():
    # 3^20 Alice strategies, each 2 + 8 work units, exceed the cap; so do
    # 2^26 strategies of the flip-symmetric zero functional with m = 27,
    # which the search scores with Alice's setting 0 fixed.
    for sc in (BellScenario((3,) * 20, (2,)), BellScenario((2,) * 27, (2,) * 27)):
        for bound in (local_bound, local_bound_min):
            with pytest.raises(StrategySpaceTooLargeError, match="cap"):
                bound(BellFunctional(sc))


def test_cap_admits_correlators_up_to_m_26():
    # A correlator functional is flip-symmetric: 2^(m-1) strategies of
    # 2m + 8 work units each, which fits the cap up to m = 26.
    for m, fits in ((26, True), (27, False)):
        sc = BellScenario((2,) * m, (2,) * m)
        assert ((1 << (m - 1)) * (2 * m + 8) <= ENUMERATION_CAP) == fits
        if fits:
            check_enumeration(sc, flip_symmetric=True)
        else:
            with pytest.raises(StrategySpaceTooLargeError):
                check_enumeration(sc, flip_symmetric=True)
    # Without the symmetry the full 2^26 strategies do not fit.
    with pytest.raises(StrategySpaceTooLargeError):
        check_enumeration(BellScenario((2,) * 26, (2,) * 26), flip_symmetric=False)


@st.composite
def scenarios_within_product_cap(draw):
    """Scenarios whose product of all outcome counts is at most 1e8."""
    counts, budget = [], 10**8
    while len(counts) < 2 or (budget >= 2 and draw(st.booleans())):
        v = draw(st.integers(2, budget // (1 if counts else 2)))
        counts.append(v)
        budget //= v
    split = draw(st.integers(1, len(counts) - 1))
    return BellScenario(tuple(counts[:split]), tuple(counts[split:]))


@settings(max_examples=200, deadline=None)
@given(scenarios_within_product_cap())
@example(BellScenario((5 * 10**7,), (2,)))
@example(BellScenario((2,), (5 * 10**7,)))
@example(BellScenario((2,) * 24, (2, 2)))
def test_cap_admits_every_scenario_within_the_old_product_cap(sc):
    # The search was capped at 1e8 for the product of all outcome counts; every
    # scenario that cap admitted stays admitted, even without the symmetry.
    assert math.prod(sc.outcomes_a) * math.prod(sc.outcomes_b) <= 10**8
    check_enumeration(sc, flip_symmetric=False)


@pytest.mark.parametrize(
    "strategy, message",
    [
        (DeterministicStrategy((-1, 0), (0, 0, 0)), "Alice's setting 0 has outcome -1"),
        (DeterministicStrategy((0, 3), (0, 0, 0)), "Alice's setting 1 has outcome 3"),
        (DeterministicStrategy((0, 0), (0, 2, 0)), "Bob's setting 1 has outcome 2"),
        (DeterministicStrategy((0,), (0, 0, 0)), "Alice's assignment has 1 settings"),
        (DeterministicStrategy((0, 0), (0, 0, 0, 0)), "Bob's assignment has 4 settings"),
    ],
)
def test_strategy_must_fit_the_scenario(strategy, message):
    f = catalog.expression_E()
    for use in (lambda: strategy_table(f.scenario, strategy), lambda: strategy_value(f, strategy)):
        with pytest.raises(ScenarioMismatchError, match=message):
            use()


@pytest.mark.parametrize("bob_marginal", [0.0, -1e308], ids=["winning-score", "reported-value"])
def test_bound_beyond_the_float_range_is_a_typed_error(bob_marginal):
    """With 1e308 on P(0 0|0 0) and on Alice's outcome 0, the winning score
    overflows; adding -1e308 on Bob's outcome 0 keeps the score (summed
    marginals first) at 1e308, but the value (summed joint terms first)
    overflows.  Either raises ``InvalidFunctionalError`` without a warning,
    and the finite minimum is still exact."""
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc, [[np.array([[1e308, 0.0], [0.0, 0.0]])]], [np.array([1e308, 0.0])], [np.array([bob_marginal, 0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidFunctionalError, match="beyond the float range"):
            local_bound(f)
        assert local_bound_min(f)[0] == min(0.0, bob_marginal)
