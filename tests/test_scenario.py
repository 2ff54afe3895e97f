import math
import re

import numpy as np
import pytest

from dimwit import catalog, linalg, scenario
from dimwit.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidFunctionalError,
    InvalidModelError,
    InvalidScenarioError,
    InvalidTableError,
    ScenarioMismatchError,
    SignalingError,
)
from dimwit.scenario import (
    AVERAGE,
    BellFunctional,
    BellScenario,
    ProbabilityTable,
    QuantumModel,
    bell_operator,
    evaluate,
    model_value,
    table_of,
)
from dimwit.seesaw import seeded_models

from conftest import random_functional, random_table, signaling_deviation, uniform_table


def test_scenario_validation():
    with pytest.raises(ValueError):
        BellScenario((), (2,))
    with pytest.raises(ValueError):
        BellScenario((2, 1), (2,))


@pytest.mark.parametrize("outcomes_a", [(), (2, 1), (2.5, 2), ("3",), (np.float64(3.0),)])
def test_invalid_scenario_error_is_typed(outcomes_a):
    # A DimwitError for library callers, and still a ValueError.
    with pytest.raises(InvalidScenarioError) as info:
        BellScenario(outcomes_a, (2,))
    assert isinstance(info.value, ValueError) and info.value.exit_code == 2


def test_scenario_counts_are_integers_only():
    """A non-integer count is rejected by name, not truncated; NumPy integers
    pass and are stored as ints, and the empty-party and count messages stay."""
    with pytest.raises(InvalidScenarioError, match=r"^outcomes_a must be integer counts, got \(2\.5, 2\)$"):
        BellScenario((2.5, 2), (2,))
    with pytest.raises(InvalidScenarioError, match="^outcomes_b must be integer counts, got 3$"):
        BellScenario((2,), 3)
    sc = BellScenario((np.int64(3), 2), (np.int32(2),))
    assert sc == BellScenario((3, 2), (2,)) and all(type(v) is int for v in sc.outcomes_a + sc.outcomes_b)
    with pytest.raises(InvalidScenarioError, match="^each party needs at least one setting$"):
        BellScenario((), (2,))
    with pytest.raises(InvalidScenarioError, match="^every setting needs at least two outcomes$"):
        BellScenario((2, 1), (2,))


def test_evaluate_cglmp_on_uniform():
    f = catalog.cglmp_C()
    value = evaluate(f, uniform_table(f.scenario))
    # 6 of 9 cells satisfy each >= comparison, 3 of 9 the strict one
    assert abs(value - (3 * (6 / 9) + 3 / 9 - 3)) < 1e-12


def test_evaluate_constant_only(rng):
    sc = BellScenario((2, 3), (2,))
    f = BellFunctional(sc, constant=2.5)
    assert evaluate(f, random_table(rng, sc)) == 2.5


def test_evaluate_scenario_mismatch():
    f = catalog.cglmp_C()
    with pytest.raises(ScenarioMismatchError):
        evaluate(f, uniform_table(BellScenario((2, 2), (2, 2))))


def test_marginal_policies_and_signaling():
    sc = BellScenario((2,), (2, 2))
    # Alice's marginal depends on Bob's setting: a signaling table.
    blocks = [[np.array([[0.5, 0.0], [0.0, 0.5]]), np.array([[0.9, 0.0], [0.0, 0.1]])]]
    t = ProbabilityTable(sc, blocks)
    marg = [np.array([1.0, 0.0])]
    f = BellFunctional(sc, marginal_a=marg)
    assert evaluate(f, t) == 0.5  # partner-setting-zero uses y=0
    with pytest.raises(SignalingError):
        evaluate(f, t, AVERAGE)
    # without marginal terms the average policy never needs the marginals
    g = BellFunctional(sc, constant=1.0)
    assert evaluate(g, t, AVERAGE) == 1.0


def test_unknown_marginal_policy_is_a_config_error():
    # The policy is checked before any term is summed, so chsh, which has no
    # marginal term, rejects it as E does.
    for f in (catalog.chsh(), catalog.expression_E()):
        with pytest.raises(ConfigError, match="unknown marginal policy 'bogus'"):
            evaluate(f, uniform_table(f.scenario), "bogus")
    t = uniform_table(catalog.chsh().scenario)
    with pytest.raises(ConfigError, match="unknown marginal policy 'bogus'"):
        t.marginal_a(0, "bogus")


def test_table_validation_and_renormalization():
    sc = BellScenario((2,), (2,))
    bad = [[np.array([[0.6, 0.2], [0.1, 0.0]])]]  # sums to 0.9
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, bad)
    nearly = [[np.array([[0.5, 0.25], [0.25, 5e-8]])]]
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, nearly)
    fixed = ProbabilityTable(sc, nearly, renormalize=True)
    assert fixed.was_renormalized
    assert abs(fixed.p[0][0].sum() - 1.0) < 1e-15
    # misses of 1e-6 are beyond the repairable window
    off = [[np.array([[0.5, 0.25], [0.25, 1e-6]])]]
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, off, renormalize=True)
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, [[np.array([[1.0, 1e-3], [0.0, -1e-3]])]])


QUARTER = np.full((2, 2), 0.25)


@pytest.mark.parametrize(
    "p, name",
    [([[QUARTER]], "table"), ([[QUARTER]] * 3, "table"), ([[QUARTER], [QUARTER] * 2], "table[1]"), ([[]] * 2, "table[0]")],
)
def test_table_rejects_wrong_block_counts(p, name):
    # A missing block is named, not an IndexError; an extra one is not dropped.
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(name)} has"):
        ProbabilityTable(BellScenario((2, 2), (2,)), p)


def test_table_rejects_a_wrongly_shaped_block():
    block = np.full((2, 3), 1.0 / 6.0)
    with pytest.raises(DimensionMismatchError, match=re.escape("table block (0,1) has shape (2, 3), expected (2, 2)")):
        ProbabilityTable(BellScenario((2,), (3, 2)), [[block, block]])


def test_table_copies_its_blocks():
    block = np.full((2, 2), 0.25)
    table = ProbabilityTable(BellScenario((2,), (2,)), [[block]])
    assert block.flags.writeable and not table.p[0][0].flags.writeable
    block[0, 0] = 1.0
    assert table.p[0][0][0, 0] == 0.25


def test_functionals_of_different_scenarios_do_not_add():
    with pytest.raises(ScenarioMismatchError, match="different scenarios"):
        catalog.chsh() + catalog.cglmp_C()


def test_functionals_neither_equal_nor_add_a_number():
    f = catalog.chsh()
    assert (f == 3) is False and f != 3
    with pytest.raises(TypeError):
        f + 3


def test_table_rejects_non_finite_entries():
    sc = BellScenario((2,), (2,))
    nan_block = [[np.array([[np.nan, 0.5], [0.25, 0.25]])]]
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, nan_block)
    with pytest.raises(InvalidTableError):
        ProbabilityTable(sc, nan_block, renormalize=True)


def test_functional_rejects_non_finite_coefficients():
    sc = BellScenario((2, 3), (2,))
    joint = [[np.zeros((2, 2))], [np.zeros((3, 2))]]
    joint[1][0][2, 1] = np.nan
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, joint)
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, marginal_a=[np.zeros(2), np.array([0.0, np.inf, 0.0])])
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, marginal_b=[np.array([-np.inf, 1.0])])
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, constant=np.nan)
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, constant=1e308).scaled(10.0)
    with pytest.raises(InvalidFunctionalError):
        BellFunctional(sc, constant=1e308) + BellFunctional(sc, constant=1e308)
    with pytest.raises(InvalidFunctionalError):
        math.inf * BellFunctional(sc, constant=1.0)


def test_bell_operator_constant_only():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc, constant=-1.5)
    eye2 = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    op = bell_operator(f, (tuple(eye2),), (tuple(eye2),))
    assert np.allclose(op, -1.5 * np.eye(4))


def _canonical_chsh_povms():
    def pvm(op):
        eig = linalg.eig_hermitian(op)
        v0 = eig[1][:, :1]
        p0 = v0 @ v0.conj().T
        return (p0, np.eye(2, dtype=complex) - p0)

    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alice = (pvm(sz), pvm(sx))
    bob = (pvm((sz + sx) / np.sqrt(2.0)), pvm((sz - sx) / np.sqrt(2.0)))
    return alice, bob


def test_bell_operator_chsh_tsirelson():
    alice, bob = _canonical_chsh_povms()
    op = bell_operator(catalog.chsh(), alice, bob)
    assert np.abs(op - op.conj().T).max() < 1e-10
    top = linalg.eig_hermitian(op)[0][0]
    assert abs(top - 2.0 * np.sqrt(2.0)) < 1e-10


def test_bell_operator_trivial_noise_measurements():
    f = catalog.expression_E()
    sc = f.scenario
    d = 3
    povms_a = tuple(
        tuple(np.eye(d, dtype=complex) / v for _ in range(v)) for v in sc.outcomes_a
    )
    povms_b = tuple(
        tuple(np.eye(d, dtype=complex) / v for _ in range(v)) for v in sc.outcomes_b
    )
    op = bell_operator(f, povms_a, povms_b)
    # every probability is 1/(vA*vB), so the operator is the coefficient sum times I
    expected = f.constant
    for x in range(sc.settings_a):
        for y in range(sc.settings_b):
            expected += f.joint[x][y].sum() / (sc.outcomes_a[x] * sc.outcomes_b[y])
        expected += f.marginal_a[x].sum() / sc.outcomes_a[x]
    for y in range(sc.settings_b):
        expected += f.marginal_b[y].sum() / sc.outcomes_b[y]
    assert np.abs(op - expected * np.eye(3 * d)).max() < 1e-12


def test_bell_operator_linear_in_functional(rng):
    sc = BellScenario((2, 3), (2, 2))
    f1 = random_functional(rng, sc)
    f2 = random_functional(rng, sc)
    model = seeded_models(sc, 2, 3, seed=5, count=1)[0]
    op1 = bell_operator(f1, model.povms_a, model.povms_b)
    op2 = bell_operator(f2, model.povms_a, model.povms_b)
    op12 = bell_operator(f1 + f2, model.povms_a, model.povms_b)
    assert np.abs(op12 - (op1 + op2)).max() < 1e-12


def test_model_value_matches_table_evaluation(rng):
    for i in range(20):
        f = random_functional(rng)
        sc = f.scenario
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        model = seeded_models(sc, d_a, d_b, seed=100 + i, count=1)[0]
        direct = model_value(f, model)
        via_table = evaluate(f, table_of(model))
        assert abs(direct - via_table) < 1e-9


def test_model_value_scales_linearly(rng):
    f = catalog.cglmp_C()
    model = seeded_models(f.scenario, 3, 3, seed=9, count=1)[0]
    v = model_value(f, model)
    assert abs(model_value(f.scaled(2.5), model) - 2.5 * v) < 1e-9


def test_table_of_product_state():
    eye2 = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    model = QuantumModel(2, 2, state, (eye2, eye2), (eye2, eye2))
    t = table_of(model)
    for x in range(2):
        for y in range(2):
            assert abs(t.p[x][y][0, 0] - 1.0) < 1e-12


def test_table_of_maximally_entangled_sigma_z():
    eye2 = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    model = QuantumModel(2, 2, psi, (eye2,), (eye2,))
    blk = table_of(model).p[0][0]
    assert np.allclose(blk, np.diag([0.5, 0.5]))


def test_table_of_random_models_no_signaling(rng):
    for i in range(10):
        sc = BellScenario((2, 3), (3, 2))
        model = seeded_models(sc, 3, 2, seed=200 + i, count=1)[0]
        t = table_of(model)
        assert signaling_deviation(t) < 1e-9


def test_average_policy_matches_setting_zero_on_quantum_tables(rng):
    # quantum tables are no-signaling, so the partner-setting convention is
    # immaterial there
    f = random_functional(rng, BellScenario((2, 2), (2, 3)))
    model = seeded_models(f.scenario, 2, 3, seed=77, count=1)[0]
    t = table_of(model)
    assert abs(evaluate(f, t) - evaluate(f, t, AVERAGE)) < 1e-9


def test_bell_operator_rejects_count_mismatch():
    from dimwit.errors import DimensionMismatchError

    f = catalog.chsh()
    eye2 = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(DimensionMismatchError):
        bell_operator(f, (eye2,), (eye2, eye2))  # one Alice setting instead of two


def test_quantum_model_validation(rng):
    sc = BellScenario((2,), (2,))
    model = seeded_models(sc, 2, 2, seed=1, count=1)[0]
    model.validate(sc)
    bad_state = QuantumModel(2, 2, model.state * 2.0, model.povms_a, model.povms_b)
    with pytest.raises(InvalidModelError):
        bad_state.validate()
    not_sum = QuantumModel(
        2, 2, model.state, ((model.povms_a[0][0], model.povms_a[0][0]),), model.povms_b
    )
    with pytest.raises(InvalidModelError):
        not_sum.validate()
    with pytest.raises(InvalidModelError):
        model.validate(BellScenario((2, 2), (2,)))


@pytest.mark.parametrize(
    "element, message",
    [(np.array([[0.5, 0.1], [0.0, 0.5]]), "element not Hermitian"), (np.diag([1.5, -0.5]), "eigenvalue .* below")],
)
def test_quantum_model_rejects_a_non_povm_element(element, message):
    # Each element and its complement sum to the identity, so only the named
    # check can reject the setting.
    model = seeded_models(BellScenario((2,), (2,)), 2, 2, seed=1, count=1)[0]
    bad = QuantumModel(2, 2, model.state, ((element, np.eye(2) - element),), model.povms_b)
    with pytest.raises(InvalidModelError, match=f"Alice setting 0: {message}"):
        bad.validate()


def test_quantum_model_rejects_non_finite_entries():
    sc = BellScenario((2,), (2,))
    model = seeded_models(sc, 2, 2, seed=1, count=1)[0]
    nan = np.full((2, 2), np.nan)
    all_nan = QuantumModel(2, 2, np.full(4, np.nan), ((nan, nan),), ((nan, nan),))
    with pytest.raises(InvalidModelError):
        all_nan.validate(sc)
    nan_povm = QuantumModel(2, 2, model.state, ((nan, nan),), model.povms_b)
    with pytest.raises(InvalidModelError):
        nan_povm.validate(sc)



def test_malformed_models_fail_typed_at_construction():
    model = seeded_models(BellScenario((2,), (2, 2)), 2, 2, seed=3, count=1)[0]
    with pytest.raises(InvalidModelError):
        QuantumModel(2, 2, model.state, (), model.povms_b)
    with pytest.raises(InvalidModelError):
        QuantumModel(2, 2, model.state, model.povms_a, (model.povms_b[0], ()))
    with pytest.raises(DimensionMismatchError):
        QuantumModel(2, 2, model.state, ((np.eye(2), np.zeros((2, 3))),), model.povms_b)
    with pytest.raises(DimensionMismatchError):
        QuantumModel(2, 2, model.state, ((np.eye(3), np.zeros((3, 3))),), model.povms_b)


def test_model_rejects_a_state_of_the_wrong_length():
    model = seeded_models(BellScenario((2,), (2, 2)), 2, 3, seed=3, count=1)[0]
    with pytest.raises(DimensionMismatchError, match="state has length 4, expected 6"):
        QuantumModel(2, 3, model.state[:4], model.povms_a, model.povms_b)


def test_bell_operator_rejects_malformed_povms():
    f = catalog.chsh()
    row = (np.ones((1, 2)), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatchError):
        bell_operator(f, (row, row), (row, row))
    eye2 = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    with pytest.raises(InvalidModelError):
        bell_operator(f, (eye2, ()), (eye2, eye2))


def test_model_stores_its_povms_once_as_read_only_stacks():
    sc = BellScenario((2, 3), (3, 2, 2))
    model = seeded_models(sc, 3, 2, seed=4, count=1)[0]
    for stack, povms, d in ((model.stack_a, model.povms_a, 3), (model.stack_b, model.povms_b, 2)):
        assert stack.shape == (len(povms) + 1, 3, d, d) and not stack.flags.writeable
        assert np.array_equal(stack, scenario.povm_stack(povms))
        for x, setting in enumerate(povms):
            for a, m in enumerate(setting):
                assert np.shares_memory(m, stack[x, a]) and not m.flags.writeable
    with pytest.raises(ValueError):
        model.povms_a[0][0][0, 0] = 2.0


def test_replace_rebuilds_the_stacks():
    from dataclasses import replace

    sc = BellScenario((2, 3), (2, 2))
    model, other = seeded_models(sc, 2, 3, seed=8, count=2)
    moved = replace(model, state=other.state)
    assert np.array_equal(moved.state, other.state)
    assert np.array_equal(moved.stack_a, model.stack_a) and moved.stack_a is not model.stack_a
    swapped = replace(model, povms_a=other.povms_a)
    assert np.array_equal(swapped.stack_a, other.stack_a)
    assert np.array_equal(swapped.stack_b, model.stack_b)
    assert all(np.shares_memory(m, swapped.stack_a) for s in swapped.povms_a for m in s)


def test_pickle_round_trip_keeps_the_model_and_holds_each_element_once():
    import pickle

    model = seeded_models(catalog.expression_E().scenario, 3, 3, seed=1, count=1)[0]
    data = pickle.dumps(model)
    back = pickle.loads(data)
    assert (back.d_a, back.d_b) == (model.d_a, model.d_b)
    for name in ("state", "stack_a", "stack_b"):
        assert np.array_equal(getattr(back, name), getattr(model, name))
    assert not back.stack_a.flags.writeable
    assert all(np.shares_memory(m, back.stack_b) for s in back.povms_b for m in s)
    # The stacks, padding and identity slots included, are not pickled: the
    # pickle is smaller than their data alone.
    assert len(data) < 16 * (model.stack_a.size + model.stack_b.size)


def test_models_compare_and_hash_by_identity():
    """Two equal models are distinct objects: comparing them, finding one in
    a list and hashing it neither raise nor look at the arrays."""
    a, b = (seeded_models(catalog.chsh().scenario, 2, 2, seed=3, count=1)[0] for _ in range(2))
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2
