import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimwit import catalog

ss = importlib.import_module("dimwit.seesaw")
from dimwit.errors import ConfigError, NotPSDError, WrongOutcomeCountError
from dimwit.scenario import BellFunctional, BellScenario, bell_operator, model_value, table_of
from dimwit.seesaw import (
    RESTART_BATCH,
    SeesawConfig,
    embed_model,
    refine,
    seeded_models,
    seesaw,
    spawn_rng,
    update_measurement_binary,
    update_measurement_multi,
    update_state,
)

from conftest import fail_eigh_on, random_functional, signaling_deviation


def test_seeded_models_deterministic():
    sc = BellScenario((2, 3), (2, 2))
    a = seeded_models(sc, 2, 3, seed=42, count=3)
    b = seeded_models(sc, 2, 3, seed=42, count=3)
    for m1, m2 in zip(a, b):
        assert np.array_equal(m1.state, m2.state)
        for s1, s2 in zip(m1.povms_a + m1.povms_b, m2.povms_a + m2.povms_b):
            for e1, e2 in zip(s1, s2):
                assert np.array_equal(e1, e2)
    c = seeded_models(sc, 2, 3, seed=43, count=1)
    assert not np.array_equal(a[0].state, c[0].state)


def test_seeded_models_are_valid_and_projective():
    sc = BellScenario((2, 3), (3, 2))
    for i, model in enumerate(seeded_models(sc, 3, 3, seed=7, count=5)):
        model.validate(sc)
        for setting in model.povms_a + model.povms_b:
            for m in setting:
                assert np.abs(m @ m - m).max() < 1e-10


def test_seeded_models_block_sizes():
    sc = BellScenario((2,), (3,))
    model = seeded_models(sc, 2, 2, seed=1, count=1)[0]
    ranks_a = [round(np.trace(m).real) for m in model.povms_a[0]]
    assert ranks_a == [1, 1]  # rank-1 projective for binary settings on qubits
    ranks_b = sorted(round(np.trace(m).real) for m in model.povms_b[0])
    assert ranks_b == [0, 1, 1]  # ternary setting on a qubit gets a zero block
    sc2 = BellScenario((2,), (2,))
    model2 = seeded_models(sc2, 3, 3, seed=1, count=1)[0]
    assert sorted(round(np.trace(m).real) for m in model2.povms_a[0]) == [1, 2]


def test_update_state_reaches_top_eigenvalue():
    f = catalog.chsh()
    model = seeded_models(f.scenario, 2, 2, seed=3, count=1)[0]
    updated = update_state(f, model)
    value = model_value(f, updated)
    assert value >= model_value(f, model) - 1e-12
    again = update_state(f, updated)
    assert abs(model_value(f, again) - value) < 1e-12


def test_update_state_degenerate_keeps_previous():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc, constant=0.5)  # Bell operator is 0.5 * identity
    model = seeded_models(sc, 2, 2, seed=5, count=1)[0]
    updated = update_state(f, model)
    assert np.abs(updated.state - model.state).max() < 1e-12


def test_update_state_fixed_state_is_noop():
    f = catalog.chsh()
    model = seeded_models(f.scenario, 2, 2, seed=3, count=1)[0]
    updated = update_state(f, model, fixed_state=model.state)
    assert updated is model


def test_binary_update_marginal_only():
    # F_0 - F_1 = 2 * rho_A = diag(2, 0) for the |00> state, so the first
    # element becomes the projector onto |0>.
    sc = BellScenario((2,), (2,))
    marg = [np.array([1.0, -1.0])]
    f = BellFunctional(sc, marginal_a=marg)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    model = seeded_models(sc, 2, 2, seed=2, count=1)[0]
    model = type(model)(2, 2, state, model.povms_a, model.povms_b)
    updated = update_measurement_binary(f, model, "A", 0)
    assert np.allclose(updated.povms_a[0][0], np.diag([1.0, 0.0]))
    assert np.allclose(updated.povms_a[0][1], np.diag([0.0, 1.0]))


def test_binary_update_tie_gives_zero_then_identity():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc)  # all coefficients zero: F_0 = F_1
    model = seeded_models(sc, 2, 2, seed=4, count=1)[0]
    updated = update_measurement_binary(f, model, "A", 0)
    assert np.allclose(updated.povms_a[0][0], 0.0)
    assert np.allclose(updated.povms_a[0][1], np.eye(2))


def test_binary_update_wrong_outcome_count():
    f = catalog.expression_E()
    model = seeded_models(f.scenario, 2, 2, seed=1, count=1)[0]
    with pytest.raises(WrongOutcomeCountError):
        update_measurement_binary(f, model, "A", 1)
    with pytest.raises(WrongOutcomeCountError):
        update_measurement_multi(f, model, "A", 0)


def test_multi_update_degenerate_left_unchanged():
    # Identical reduced operators for every outcome: exchanges are ties and
    # must leave the POVM as it is.
    sc = BellScenario((3,), (2,))
    f = BellFunctional(sc, constant=1.0)
    model = seeded_models(sc, 3, 2, seed=6, count=1)[0]
    noisy = tuple(np.eye(3, dtype=complex) / 3.0 for _ in range(3))
    model = type(model)(3, 2, model.state, (noisy,), model.povms_b)
    updated = update_measurement_multi(f, model, "A", 0)
    for before, after in zip(model.povms_a[0], updated.povms_a[0]):
        assert np.abs(before - after).max() < 1e-12


def test_multi_update_ignores_padding_outcomes():
    # Bob's 3-outcome setting is padded to the width of his 4-outcome one.
    # Every F_b of it is -rho_B, so the real pairs tie, while an exchange
    # with a padding slot (F = 0) would move mass out of the POVM.
    sc = BellScenario((2,), (4, 3))
    f = BellFunctional(sc, marginal_b=[np.zeros(4), -np.ones(3)])
    model = seeded_models(sc, 3, 3, seed=2, count=1)[0]
    updated = update_measurement_multi(f, model, "B", 1)
    updated.validate(sc)
    for before, after in zip(model.povms_b[1], updated.povms_b[1]):
        assert np.abs(before - after).max() < 1e-12


def test_multi_update_suppressed_outcome_reduces_to_binary():
    # Outcome 2 carries a strongly negative marginal, so the exchange never
    # gives it weight and the (0, 1) split must match the binary update.
    rng = np.random.default_rng(11)
    sc3 = BellScenario((3,), (2,))
    sc2 = BellScenario((2,), (2,))
    blk = rng.normal(size=(2, 2))
    joint3 = [[np.vstack([blk, np.zeros((1, 2))])]]
    marg3 = [np.array([0.0, 0.0, -50.0])]
    f3 = BellFunctional(sc3, joint3, marginal_a=marg3)
    f2 = BellFunctional(sc2, [[blk]])
    base = seeded_models(sc2, 2, 2, seed=8, count=1)[0]
    p = base.povms_a[0]
    model3 = type(base)(2, 2, base.state, ((p[0], p[1], np.zeros((2, 2), complex)),), base.povms_b)
    out3 = update_measurement_multi(f3, model3, "A", 0)
    out2 = update_measurement_binary(f2, base, "A", 0)
    assert np.abs(out3.povms_a[0][0] - out2.povms_a[0][0]).max() < 1e-12
    assert np.abs(out3.povms_a[0][2]).max() < 1e-12


def test_chsh_one_round_of_binary_updates_hits_tsirelson():
    f = catalog.chsh()
    psi = catalog.theta_state(math.pi / 4.0)
    model = seeded_models(f.scenario, 2, 2, seed=9, count=1)[0]
    model = type(model)(2, 2, psi, model.povms_a, model.povms_b)
    for x in range(2):
        model = update_measurement_binary(f, model, "A", x)
    for y in range(2):
        model = update_measurement_binary(f, model, "B", y)
    assert abs(model_value(f, model) - 2.0 * math.sqrt(2.0)) < 1e-9


def test_updates_monotone_and_feasible(rng):
    for i in range(10):
        f = random_functional(rng, BellScenario((2, 3), (2, 2)))
        d = int(rng.integers(2, 4))
        model = seeded_models(f.scenario, d, d, seed=300 + i, count=1)[0]
        value = model_value(f, model)
        for _ in range(3):
            model = update_state(f, model)
            new = model_value(f, model)
            assert new >= value - 1e-12
            value = new
            for party, n in (("A", 2), ("B", 2)):
                for setting in range(n):
                    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
                    if counts[setting] == 2:
                        model = update_measurement_binary(f, model, party, setting)
                    else:
                        model = update_measurement_multi(f, model, party, setting)
                    model.validate(f.scenario)
                    new = model_value(f, model)
                    assert new >= value - 1e-12
                    value = new


def _setting_by_setting(f, model, party):
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    for setting, v in enumerate(counts):
        if v == 2:
            model = update_measurement_binary(f, model, party, setting)
        else:
            model = update_measurement_multi(f, model, party, setting)
    return model


def test_party_step_equals_setting_by_setting_and_is_monotone(rng):
    """One party step, as ``refine`` runs it, equals the per-setting updates
    in index order, keeps the model feasible and never lowers the objective."""
    scenarios = (BellScenario((2, 3, 2), (3, 2)), BellScenario((3, 2), (2, 2, 3)))
    for i, sc in enumerate(scenarios * 2):
        for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
            f = random_functional(rng, sc)
            model = seeded_models(sc, d_a, d_b, seed=500 + i, count=1)[0]
            value = model_value(f, model)
            for _ in range(3):
                model = update_state(f, model)
                assert model_value(f, model) >= value - 1e-12
                value = model_value(f, model)
                for party, n in (("A", sc.settings_a), ("B", sc.settings_b)):
                    step = ss._update_party(f, model, party, range(n))
                    ref = _setting_by_setting(f, model, party)
                    for got, want in zip(step.povms_a + step.povms_b, ref.povms_a + ref.povms_b):
                        for m1, m2 in zip(got, want):
                            assert np.abs(m1 - m2).max() < 1e-12
                    new = model_value(f, step)
                    assert abs(new - model_value(f, ref)) < 1e-12
                    step.validate(sc)
                    assert new >= value - 1e-12
                    model, value = step, new


def test_seesaw_chsh_correlation_normalized():
    from dimwit.grothendieck import correlator_bell, normalize

    f = correlator_bell(normalize([[1.0, 1.0], [1.0, -1.0]]))
    result = seesaw(f, 2, 2, SeesawConfig(restarts=10, seed=12))
    assert abs(result.best_value - math.sqrt(2.0)) < 1e-6


def test_seesaw_result_invariants():
    f = catalog.chsh()
    result = seesaw(f, 2, 2, SeesawConfig(restarts=6, seed=1))
    assert result.best_value == max(result.per_restart_values)
    assert abs(model_value(f, result.best_model) - result.best_value) < 1e-9
    assert len(result.per_restart_values) == 6
    assert len(result.iterations_used) == 6
    assert len(result.converged_flags) == 6
    result.best_model.validate(f.scenario)
    t = table_of(result.best_model)
    assert signaling_deviation(t) < 1e-9


def test_seesaw_not_converged_flag():
    f = catalog.cglmp_C()
    result = seesaw(f, 3, 3, SeesawConfig(restarts=2, max_iterations=1, seed=5))
    assert result.converged_flags == [False, False]
    assert result.iterations_used == [1, 1]


def assert_same_model(m1, m2):
    assert np.array_equal(m1.state, m2.state)
    assert m1.outcome_counts() == m2.outcome_counts()
    for s1, s2 in zip(m1.povms_a + m1.povms_b, m2.povms_a + m2.povms_b):
        for e1, e2 in zip(s1, s2):
            assert np.array_equal(e1, e2)


def assert_same_result(r1, r2):
    assert r1.best_value == r2.best_value
    assert r1.per_restart_values == r2.per_restart_values
    assert r1.iterations_used == r2.iterations_used
    assert r1.converged_flags == r2.converged_flags
    assert r1.aborted == r2.aborted
    assert_same_model(r1.best_model, r2.best_model)


def test_seesaw_parallel_matches_serial():
    # Three batches, the last one partial, so the pool really runs.
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=2 * RESTART_BATCH + 3, seed=21)
    assert_same_result(seesaw(f, 2, 2, cfg, jobs=1), seesaw(f, 2, 2, cfg, jobs=2))


def test_seesaw_rejects_non_positive_jobs():
    for jobs in (0, -4):
        with pytest.raises(ConfigError):
            seesaw(catalog.chsh(), 2, 2, SeesawConfig(restarts=3), jobs=jobs)


def batch_functional(kind, seed):
    """A functional for the batch tests: random on a binary-only or a ragged
    multi-outcome scenario, or a catalog one whose multi-outcome exchanges
    take the non-projector (square-root) branch at d = 3."""
    scenarios = {
        "binary": BellScenario((2, 2, 2), (2, 2)),
        "ragged": BellScenario((2, 3), (4, 2, 3)),
    }
    if kind in scenarios:
        return random_functional(np.random.default_rng(seed), scenarios[kind])
    return catalog.by_name(kind)


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(("binary", "ragged", "E", "iphi:0.7")),
    d_a=st.sampled_from((2, 3)),
    d_b=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**16),
)
def test_restart_alone_equals_restart_in_full_batch(kind, d_a, d_b, seed):
    """A restart's value, iteration count, converged flag and model are
    bit-identical whether ``refine`` runs it alone or it runs in a batch."""
    f = batch_functional(kind, seed)
    cfg = SeesawConfig(seed=seed, max_iterations=60)
    batch = ss._batch_task((f, d_a, d_b, cfg, range(RESTART_BATCH)))
    starts = seeded_models(f.scenario, d_a, d_b, seed, RESTART_BATCH)
    for start, (index, value, model, iterations, converged, error) in zip(starts, batch):
        assert error is None
        alone = refine(f, start, cfg)
        assert alone[0] == value and alone[2] == iterations and alone[3] == converged
        assert_same_model(alone[1], model)


def test_lockstep_monotone_and_feasible_per_member():
    """Every member's objective never decreases from one iteration to the
    next, and every member's model stays a valid one."""
    for kind in ("ragged", "E", "iphi:0.7"):
        f = batch_functional(kind, 40)
        starts = seeded_models(f.scenario, 3, 3, seed=40, count=RESTART_BATCH)
        previous = [model_value(f, m) for m in starts]
        for k in range(1, 7):
            outcomes = ss._lockstep(f, starts, SeesawConfig(max_iterations=k))
            for i, (value, model, iterations, _, error) in enumerate(outcomes):
                assert error is None and iterations <= k
                model.validate(f.scenario)
                assert value >= previous[i] - 1e-12
                previous[i] = value


def test_seesaw_fixed_theta_quarter_pi():
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=10, seed=2, fixed_state=catalog.theta_state(math.pi / 4.0))
    result = seesaw(f, 2, 2, cfg)
    assert np.array_equal(result.best_model.state, cfg.fixed_state)
    assert abs(result.best_value - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-6


def test_dimension_monotonicity_by_embedding():
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=8, seed=14)
    small = seesaw(f, 2, 2, cfg)
    grown = embed_model(small.best_model, 3, 3)
    grown.validate(f.scenario)
    assert abs(model_value(f, grown) - small.best_value) < 1e-10
    value, _, _, _ = refine(f, grown, SeesawConfig(restarts=1, seed=0))
    assert value >= small.best_value - 1e-9


def test_soundness_against_certified_bounds():
    f = catalog.expression_E()
    result = seesaw(f, 2, 2, SeesawConfig(restarts=25, seed=3))
    certified = catalog.reference_bounds("E").certified_upper[2][0]
    assert result.best_value <= certified + 1e-6


def test_config_validation():
    with pytest.raises(ConfigError):
        SeesawConfig(restarts=0)
    with pytest.raises(ConfigError):
        SeesawConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        SeesawConfig(fixed_state=np.zeros(4))
    f = catalog.chsh()
    with pytest.raises(ConfigError):
        seesaw(f, 1, 2, SeesawConfig())
    with pytest.raises(ConfigError):
        seesaw(f, 2, 2, SeesawConfig(fixed_state=np.ones(9)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_non_finite_fixed_state(bad):
    with pytest.raises(ConfigError, match="non-finite"):
        SeesawConfig(fixed_state=[bad, 0.0, 0.0, 1.0])


def test_aborted_restart_is_recorded(monkeypatch):
    # Restart 0's first state step diagonalizes its start model's Bell operator.
    f = catalog.chsh()
    start = seeded_models(f.scenario, 2, 2, seed=4, count=1)[0]
    op = bell_operator(f, start.povms_a, start.povms_b)
    fail_eigh_on(monkeypatch, (op + op.conj().T) / 2.0, NotPSDError("synthetic failure"))
    with pytest.warns(UserWarning, match="restart 0 aborted"):
        result = ss.seesaw(f, 2, 2, SeesawConfig(restarts=3, seed=4))
    assert result.per_restart_values[0] == -np.inf
    assert result.converged_flags[0] is False
    assert result.aborted == {0: "NotPSDError: synthetic failure"}
    assert abs(result.best_value - 2.0 * math.sqrt(2.0)) < 1e-6


def test_refine_raises_the_linear_algebra_error(monkeypatch):
    f = catalog.chsh()
    start = seeded_models(f.scenario, 2, 2, seed=4, count=1)[0]
    op = bell_operator(f, start.povms_a, start.povms_b)
    fail_eigh_on(monkeypatch, (op + op.conj().T) / 2.0, NotPSDError("synthetic failure"))
    with pytest.raises(NotPSDError, match="synthetic failure"):
        refine(f, start, SeesawConfig())


def _unique_stacked_input(f, d, cfg, monkeypatch):
    """A matrix that ``np.linalg.eigh`` sees exactly once in a clean run, as
    one member of a stacked call from the middle of the run."""
    real = np.linalg.eigh
    seen = []

    def record(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", record)
        seesaw(f, d, d, cfg)
    ops = [a.reshape(-1, d * d, d * d) for a in seen if a.shape[-1] == d * d]
    later_stacks = [a for a in ops[len(ops) // 2 :] if len(a) > 1]
    for candidate in (m for a in later_stacks for m in a):
        if sum(int((a == candidate).all(axis=(-1, -2)).sum()) for a in ops) == 1:
            return candidate
    raise AssertionError("no unique stacked eigensolve input")


@pytest.mark.parametrize(
    "error, text",
    [
        (np.linalg.LinAlgError("Eigenvalues did not converge"), "NoConvergenceError: LAPACK eigh failed"),
        (NotPSDError("synthetic failure"), "NotPSDError: synthetic failure"),
    ],
)
def test_failure_inside_a_batch_aborts_only_its_member(monkeypatch, error, text):
    """A failure in one member's stacked state step aborts that restart alone;
    the other members finish bit-identical to a run without the failure."""
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=RESTART_BATCH, seed=8)
    clean = seesaw(f, 3, 3, cfg)
    fail_eigh_on(monkeypatch, _unique_stacked_input(f, 3, cfg, monkeypatch), error)
    with pytest.warns(UserWarning, match="aborted"):
        failed = seesaw(f, 3, 3, cfg)
    assert len(failed.aborted) == 1
    (index, message), = failed.aborted.items()
    assert message.startswith(text)
    assert failed.per_restart_values[index] == -np.inf and failed.iterations_used[index] == 0
    for i in range(cfg.restarts):
        if i != index:
            assert failed.per_restart_values[i] == clean.per_restart_values[i]
            assert failed.iterations_used[i] == clean.iterations_used[i]
            assert failed.converged_flags[i] == clean.converged_flags[i]
    if clean.per_restart_values.index(clean.best_value) != index:
        assert failed.best_value == clean.best_value
        assert_same_model(failed.best_model, clean.best_model)


def test_lapack_failure_aborts_only_its_restart(monkeypatch):
    real_eigh = np.linalg.eigh
    calls = [0]

    def flaky(a):
        calls[0] += 1
        if calls[0] == 1:  # restart 0 draws its start model first
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    with pytest.warns(UserWarning, match="restart 0 aborted: NoConvergenceError"):
        result = seesaw(catalog.chsh(), 2, 2, SeesawConfig(restarts=3, seed=4), jobs=1)
    assert result.per_restart_values[0] == -np.inf
    assert list(result.aborted) == [0]
    assert result.aborted[0].startswith("NoConvergenceError: LAPACK eigh failed")
    assert abs(result.best_value - 2.0 * math.sqrt(2.0)) < 1e-6


def test_cglmp_best_model_stays_projective():
    f = catalog.cglmp_C()
    result = seesaw(f, 3, 3, SeesawConfig(restarts=2, seed=6))
    for setting in result.best_model.povms_a + result.best_model.povms_b:
        for m in setting:
            assert np.abs(m @ m - m).max() < 1e-8


def test_spawn_rng_counter_streams():
    a = spawn_rng(5, 0).normal(size=3)
    b = spawn_rng(5, 1).normal(size=3)
    a2 = spawn_rng(5, 0).normal(size=3)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
