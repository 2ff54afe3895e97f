import concurrent.futures
import dataclasses
import importlib
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimwit import catalog, linalg

ss = importlib.import_module("dimwit.seesaw")
from dimwit.errors import ConfigError, InvalidFunctionalError, NoConvergenceError, NotHermitianError, NotPSDError
from dimwit.scenario import (
    BellFunctional,
    BellScenario,
    QuantumModel,
    bell_operator,
    bell_operators,
    contraction_matrix,
    model_value,
    povm_stack,
    table_of,
)
from dimwit.seesaw import (
    RESTART_BATCH,
    SeesawConfig,
    embed_model,
    refine,
    seeded_models,
    seesaw,
    spawn_rng,
)

from conftest import fail_eigh_on, party_step, random_functional, signaling_deviation, state_step


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


@pytest.mark.parametrize(
    "d_a, d_b, count, message",
    [
        (1, 2, 1, "d_a must be >= 2"),
        (2, 1, 1, "d_b must be >= 2"),
        (2.5, 2, 1, "d_a must be an integer"),
        (2, 2, 0, "count must be >= 1"),
        (2, 2, -1, "count must be >= 1"),
        (2, 2, 2.5, "count must be an integer"),
    ],
)
def test_seeded_models_check_their_counts(d_a, d_b, count, message):
    with pytest.raises(ConfigError, match=message):
        seeded_models(catalog.chsh().scenario, d_a, d_b, 0, count)


def test_embed_model_checks_its_dimensions():
    model = seeded_models(catalog.chsh().scenario, 2, 3, seed=0, count=1)[0]
    for d_a, d_b, message in ((2.5, 3, "d_a must be an integer"), (2, 1, "d_b must be >= 2"), (2, 2, "must not shrink")):
        with pytest.raises(ConfigError, match=message):
            embed_model(model, d_a, d_b)


def test_refine_checks_its_iteration_cap():
    """``refine`` takes the cap alone, checked as ``SeesawConfig`` checks it."""
    f = catalog.chsh()
    model = seeded_models(f.scenario, 2, 2, seed=0, count=1)[0]
    for cap, message in ((0, "max_iterations must be >= 1"), (2.5, "max_iterations must be an integer")):
        with pytest.raises(ConfigError, match=message):
            refine(f, model, cap)
    assert refine(f, model, 1)[2] == 1


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
    updated = state_step(f, model)
    value = model_value(f, updated)
    assert value >= model_value(f, model) - 1e-12
    again = state_step(f, updated)
    assert abs(model_value(f, again) - value) < 1e-12


def test_update_state_degenerate_keeps_previous():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc, constant=0.5)  # Bell operator is 0.5 * identity
    model = seeded_models(sc, 2, 2, seed=5, count=1)[0]
    updated = state_step(f, model)
    assert np.abs(updated.state - model.state).max() < 1e-12


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
    updated = party_step(f, model, "A")
    assert np.allclose(updated.povms_a[0][0], np.diag([1.0, 0.0]))
    assert np.allclose(updated.povms_a[0][1], np.diag([0.0, 1.0]))


def test_binary_update_tie_gives_zero_then_identity():
    sc = BellScenario((2,), (2,))
    f = BellFunctional(sc)  # all coefficients zero: F_0 = F_1
    model = seeded_models(sc, 2, 2, seed=4, count=1)[0]
    updated = party_step(f, model, "A")
    assert np.allclose(updated.povms_a[0][0], 0.0)
    assert np.allclose(updated.povms_a[0][1], np.eye(2))


def test_multi_update_degenerate_left_unchanged():
    # Identical reduced operators for every outcome: exchanges are ties and
    # must leave the POVM as it is.
    sc = BellScenario((3,), (2,))
    f = BellFunctional(sc, constant=1.0)
    model = seeded_models(sc, 3, 2, seed=6, count=1)[0]
    noisy = tuple(np.eye(3, dtype=complex) / 3.0 for _ in range(3))
    model = type(model)(3, 2, model.state, (noisy,), model.povms_b)
    updated = party_step(f, model, "A")
    for before, after in zip(model.povms_a[0], updated.povms_a[0]):
        assert np.abs(before - after).max() < 1e-12


def test_multi_update_ignores_padding_outcomes():
    # Bob's 3-outcome setting is padded to the width of his 4-outcome one.
    # Every F_b of it is -rho_B, so the real pairs tie, while an exchange
    # with a padding slot (F = 0) would move mass out of the POVM.
    sc = BellScenario((2,), (4, 3))
    f = BellFunctional(sc, marginal_b=[np.zeros(4), -np.ones(3)])
    model = seeded_models(sc, 3, 3, seed=2, count=1)[0]
    updated = party_step(f, model, "B", 1)
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
    out3 = party_step(f3, model3, "A")
    out2 = party_step(f2, base, "A")
    assert np.abs(out3.povms_a[0][0] - out2.povms_a[0][0]).max() < 1e-12
    assert np.abs(out3.povms_a[0][2]).max() < 1e-12


def test_chsh_one_round_of_binary_updates_hits_tsirelson():
    f = catalog.chsh()
    psi = catalog.theta_state(math.pi / 4.0)
    model = seeded_models(f.scenario, 2, 2, seed=9, count=1)[0]
    model = type(model)(2, 2, psi, model.povms_a, model.povms_b)
    model = party_step(f, party_step(f, model, "A"), "B")
    assert abs(model_value(f, model) - 2.0 * math.sqrt(2.0)) < 1e-9


def test_updates_monotone_and_feasible(rng):
    """The state step and every one-setting step never lower the objective
    and keep the model feasible."""
    for i in range(10):
        f = random_functional(rng, BellScenario((2, 3), (2, 2)))
        d = int(rng.integers(2, 4))
        model = seeded_models(f.scenario, d, d, seed=300 + i, count=1)[0]
        value = model_value(f, model)
        for _ in range(3):
            model = state_step(f, model)
            new = model_value(f, model)
            assert new >= value - 1e-12
            value = new
            for party in ("A", "B"):
                for setting in range(2):
                    model = party_step(f, model, party, setting)
                    model.validate(f.scenario)
                    new = model_value(f, model)
                    assert new >= value - 1e-12
                    value = new


def test_party_step_equals_setting_by_setting_and_is_monotone(rng):
    """One party step, as ``refine`` runs it, equals steps run on plans
    restricted to one setting, in index order; it keeps the model feasible
    and never lowers the objective."""
    scenarios = (BellScenario((2, 3, 2), (3, 2)), BellScenario((3, 2), (2, 2, 3)))
    for i, sc in enumerate(scenarios * 2):
        for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
            f = random_functional(rng, sc)
            model = seeded_models(sc, d_a, d_b, seed=500 + i, count=1)[0]
            value = model_value(f, model)
            for _ in range(3):
                model = state_step(f, model)
                assert model_value(f, model) >= value - 1e-12
                value = model_value(f, model)
                for party, counts in (("A", sc.outcomes_a), ("B", sc.outcomes_b)):
                    step = party_step(f, model, party)
                    ref = model
                    for setting in range(len(counts)):
                        ref = party_step(f, ref, party, setting)
                    for got, want in zip(step.povms_a + step.povms_b, ref.povms_a + ref.povms_b):
                        for m1, m2 in zip(got, want):
                            assert np.abs(m1 - m2).max() < 1e-12
                    new = model_value(f, step)
                    assert abs(new - model_value(f, ref)) < 1e-12
                    step.validate(sc)
                    assert new >= value - 1e-12
                    model, value = step, new


def test_steps_are_the_spanned_module_functions(monkeypatch):
    """``seesaw`` runs its state and measurement steps through the module
    attributes ``update_state``, ``update_measurement_binary`` and
    ``update_measurement_multi``, so a wrapper patched onto the module sees
    every call: all three on E, no state step with a fixed state, and no
    exchange on the binary-only CHSH."""
    names = ("update_state", "update_measurement_binary", "update_measurement_multi")
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(ss, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(ss, name, counting(name))

    def run(f, d, fixed_state=None):
        calls.update(dict.fromkeys(names, 0))
        seesaw(f, d, d, SeesawConfig(restarts=3, seed=1, max_iterations=20), fixed_state=fixed_state)
        return dict(calls)

    assert all(run(catalog.expression_E(), 3).values())
    fixed = run(catalog.expression_E(), 2, fixed_state=catalog.theta_state(0.4))
    assert fixed["update_state"] == 0 and fixed["update_measurement_binary"] and fixed["update_measurement_multi"]
    chsh = run(catalog.chsh(), 2)
    assert chsh["update_state"] and chsh["update_measurement_binary"] and chsh["update_measurement_multi"] == 0


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


def assert_model_has_rows(model, rows):
    """The model's state and POVM stacks equal a member's rows bit for bit."""
    state, stack_a, stack_b = rows
    assert np.array_equal(model.state, state)
    assert np.array_equal(model.stack_a, stack_a) and np.array_equal(model.stack_b, stack_b)


def member_rows(rows, member):
    """A member's (state, stack_a, stack_b) rows of a lockstep record."""
    return [a[member] for a in rows[:3]]


def started(scenario, d_a, d_b, seed, indices, fixed_state=None):
    """The working arrays [states, stacks_a, stacks_b] of the restarts
    ``indices`` right after their starts (an aborted one's rows zero), and
    {member: error}: ``drive_lockstep`` on their draws with no iteration."""
    draws, starts = ss._start_arrays(scenario, d_a, d_b, seed, indices, fixed_state)
    *_, rows, aborted = ss.drive_lockstep(draws, starts, [], lambda *a: np.zeros(len(a[0])), 0)
    return rows, aborted


def assert_same_result(r1, r2):
    assert r1.best_value == r2.best_value
    assert r1.per_restart_values == r2.per_restart_values
    assert r1.iterations_used == r2.iterations_used
    assert r1.converged_flags == r2.converged_flags
    assert r1.aborted == r2.aborted
    assert_same_model(r1.best_model, r2.best_model)


def test_seesaw_parallel_matches_serial():
    # 35 restarts give two workers uneven ranges, so the pool really runs.
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=2 * RESTART_BATCH + 3, seed=21)
    assert_same_result(seesaw(f, 2, 2, cfg, jobs=1), seesaw(f, 2, 2, cfg, jobs=2))


def test_pool_starts_only_with_two_or_more_workers(monkeypatch):
    """The pool starts only for two or more workers, at most one per
    ``RESTART_BATCH`` restarts, and gives each one near-equal contiguous
    range."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.ranges = []
            pools.append((max_workers, self.ranges))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            self.ranges.extend(task[-1] for task in tasks)
            return map(fn, tasks)

    # ``seesaw`` imports the pool class from here when it starts a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    f = catalog.chsh()
    for restarts in (4, RESTART_BATCH):
        seesaw(f, 2, 2, SeesawConfig(restarts=restarts, max_iterations=2), jobs=2)
    assert pools == []
    cfg = SeesawConfig(restarts=37, max_iterations=2)
    parallel = seesaw(f, 2, 2, cfg, jobs=3)
    (workers, ranges), = pools
    assert workers == 3 and sorted(map(len, ranges)) == [12, 12, 13]
    assert [i for r in ranges for i in r] == list(range(37))
    assert_same_result(parallel, seesaw(f, 2, 2, cfg, jobs=1))


def test_runs_without_a_pool_never_load_its_machinery():
    """A fresh interpreter that imports the package and the CLI and runs a
    serial see-saw and one at ``jobs=2`` with ``RESTART_BATCH`` restarts, which
    needs one worker, never loads ``multiprocessing``.  The test's own
    process may hold those modules already, hence the subprocess."""
    code = (
        "import sys\n"
        "import dimwit, dimwit.cli\n"
        "from dimwit import catalog\n"
        "from dimwit.seesaw import RESTART_BATCH, SeesawConfig, seesaw\n"
        "seesaw(catalog.chsh(), 2, 2, SeesawConfig(restarts=4, max_iterations=2))\n"
        "seesaw(catalog.chsh(), 2, 2, SeesawConfig(restarts=RESTART_BATCH, max_iterations=2), jobs=2)\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_out_of_memory_is_a_config_error(monkeypatch):
    """A batch that cannot allocate its arrays raises ``ConfigError`` naming
    the dimensions, not numpy's ``MemoryError``."""

    def exhausted(*args):
        raise MemoryError("synthetic")

    monkeypatch.setattr(ss, "bell_operators", exhausted)
    with pytest.raises(ConfigError, match=r"a \(3,4\) see-saw does not fit in memory: synthetic") as err:
        seesaw(catalog.chsh(), 3, 4, SeesawConfig(restarts=2))
    assert isinstance(err.value.__cause__, MemoryError)


def test_batches_stay_within_the_cell_bound(monkeypatch):
    """A serial run is one lockstep batch unless ``BATCH_CELLS`` caps it."""
    sizes = []
    real = ss._lockstep

    def recording(f, arrays, *rest, **kwargs):
        sizes.append(len(arrays[0]))
        return real(f, arrays, *rest, **kwargs)

    monkeypatch.setattr(ss, "_lockstep", recording)
    cfg = SeesawConfig(restarts=40, max_iterations=1)
    seesaw(catalog.chsh(), 3, 3, cfg)
    assert sizes == [40]
    sizes.clear()
    seesaw(catalog.chsh(), 8, 8, cfg)
    assert sum(sizes) == 40
    assert max(sizes) <= max(RESTART_BATCH, ss.BATCH_CELLS // 64**2)


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
    """A restart's value, iteration count, converged flag and final rows are
    bit-identical whether ``refine`` runs it alone or it runs in a batch
    more than twice ``RESTART_BATCH`` wide."""
    f = batch_functional(kind, seed)
    cfg = SeesawConfig(seed=seed, max_iterations=60)
    size = 2 * RESTART_BATCH + 5
    draws, starts = ss._start_arrays(f.scenario, d_a, d_b, seed, range(size))
    values, iterations, converged, rows, errors = ss._lockstep(f, draws, cfg.max_iterations, starts)
    assert errors == {}
    for i, start in enumerate(seeded_models(f.scenario, d_a, d_b, seed, size)):
        alone = refine(f, start, cfg.max_iterations)
        assert alone[0] == values[i] and alone[2] == iterations[i] and alone[3] == converged[i]
        assert_model_has_rows(alone[1], member_rows(rows, i))


@pytest.mark.parametrize(
    "kind, d_a, d_b, fixed",
    [("E", 3, 3, False), ("ragged", 3, 3, True), ("binary", 2, 2, True), ("E", 2, 2, True)],
    ids=["three-step-E", "two-step-ragged", "two-step-binary", "two-step-E"],
)
def test_members_stopping_at_different_iterations_equal_refine(kind, d_a, d_b, fixed):
    """On both schedules - with the state step, and with a fixed state, which
    skips it - a batch whose members stop at different iterations, so its
    working arrays shrink several times, gives each member exactly what it
    gets alone: from ``refine`` with the state step, and from a batch of one
    at the fixed state, which ``refine`` does not run."""
    seed = 7
    rng = np.random.default_rng(seed)
    state = ss._unit_state(rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b), d_a, d_b) if fixed else None
    f = batch_functional(kind, seed)
    cfg = SeesawConfig(seed=seed, max_iterations=60)
    draws, starts = ss._start_arrays(f.scenario, d_a, d_b, seed, range(RESTART_BATCH), state)
    values, iterations, converged, rows, errors = ss._lockstep(f, draws, cfg.max_iterations, starts, state_step=not fixed)
    assert errors == {} and len(set(iterations)) > 1
    arrays, _ = started(f.scenario, d_a, d_b, seed, range(RESTART_BATCH), state)
    for i, start in enumerate(zip(*arrays)):
        if fixed:
            one = ss._lockstep(f, [a[i : i + 1] for a in arrays], cfg.max_iterations, state_step=False)
            alone = (one[0][0], ss._model(f.scenario, *(a[0] for a in one[3][:3])), one[1][0], one[2][0])
        else:
            alone = refine(f, ss._model(f.scenario, *start), cfg.max_iterations)
        assert alone[0] == values[i] and alone[2] == iterations[i] and alone[3] == converged[i]
        assert_model_has_rows(alone[1], member_rows(rows, i))


def test_batch_reports_the_model_of_its_earliest_best_member():
    """A batch reports its members' values, counts and flags in restart
    order and builds one model: that of the first member with the highest
    value, from its final rows."""
    f = catalog.chsh()
    cfg = SeesawConfig(seed=3, max_iterations=60)
    indices = range(5, 5 + RESTART_BATCH)
    *found, aborted, best_model = ss._batch_task((f, 2, 2, cfg, None, indices))
    arrays, _ = started(f.scenario, 2, 2, cfg.seed, indices)
    *record, rows, errors = ss._lockstep(f, arrays, cfg.max_iterations)
    assert aborted == errors == {}
    for got, want in zip(found, record):
        assert got.tolist() == want.tolist()
    values = record[0].tolist()
    assert_model_has_rows(best_model, member_rows(rows, values.index(max(values))))


def test_batch_keeps_start_draw_aborts_at_minus_inf(monkeypatch):
    """A restart whose start draw raises reads -inf, 0 and False in its
    batch, which names its error; every other restart reads what it reads in
    a clean batch, and the model is that of the first best of them."""
    f = catalog.chsh()
    cfg = SeesawConfig(seed=3, max_iterations=60)
    indices = range(5, 5 + RESTART_BATCH)
    *clean, _, _ = ss._batch_task((f, 2, 2, cfg, None, indices))
    fail_eigh_on(monkeypatch, _drawn_matrix(cfg.seed, 7, 8, 2), NotPSDError("synthetic failure"))
    *found, aborted, best_model = ss._batch_task((f, 2, 2, cfg, None, indices))
    assert aborted == {7: "NotPSDError: synthetic failure"}
    for got, want, dropped in zip(found, clean, (-np.inf, 0, False)):
        assert got[2] == dropped and np.delete(got, 2).tolist() == np.delete(want, 2).tolist()
    arrays, errors = started(f.scenario, 2, 2, cfg.seed, indices)
    assert list(errors) == [2]  # restart 7, the batch's member 2
    *record, rows, _ = ss._lockstep(f, [np.delete(a, 2, axis=0) for a in arrays], cfg.max_iterations)
    values = record[0].tolist()
    assert_model_has_rows(best_model, member_rows(rows, values.index(max(values))))


def test_lockstep_monotone_and_feasible_per_member():
    """Every member's objective never decreases from one iteration to the
    next, and every member's model stays a valid one."""
    for kind in ("ragged", "E", "iphi:0.7"):
        f = batch_functional(kind, 40)
        arrays, _ = started(f.scenario, 3, 3, 40, range(RESTART_BATCH))
        previous = [model_value(f, ss._model(f.scenario, *rows)) for rows in zip(*arrays)]
        for k in range(1, 7):
            values, iterations, _, rows, errors = ss._lockstep(f, arrays, k)
            assert errors == {} and iterations.max() <= k
            for i, value in enumerate(values):
                ss._model(f.scenario, *member_rows(rows, i)).validate(f.scenario)
                assert value >= previous[i] - 1e-12
                previous[i] = value


def _halving(starts, max_iterations, poisoned=lambda x: False, start_halving=False):
    """A toy run of ``drive_lockstep`` that needs no eigensolve: x is halved,
    then y copies x, and the objective -(x² + y²) gains 1.5 x² an iteration,
    so a start of size s stops after about log2(s / 8e-6) iterations.  The
    halving raises ``NotPSDError`` on any row that ``poisoned`` marks; with
    ``start_halving`` it also runs once as the driver's start.  Returns what
    each step saw and the driver's record."""
    calls = []

    def halve(x, y):
        calls.append(("halve", len(x)))
        if any(poisoned(v) for v in x):
            raise NotPSDError("poisoned row")
        return x / 2.0

    def copy(x, y):
        calls.append(("copy", len(x)))
        return x.copy()

    def objective(x, y):
        calls.append(("objective", len(x)))
        return -(x * x + y * y)

    x = np.array(starts, dtype=float)
    steps = [(0, halve), (1, copy)]
    return calls, ss.drive_lockstep([x, x.copy()], steps[:1] if start_halving else [], steps, objective, max_iterations)


def _outcomes(record):
    """(value, x, y, iterations, converged) of each member of a toy record."""
    values, iterations, converged, (xs, ys), _ = record
    return list(zip(values.tolist(), xs.tolist(), ys.tolist(), iterations.tolist(), converged.tolist()))


def _halving_alone(start, max_iterations):
    """The toy run of one restart as a plain loop."""
    x = y = start
    value = -(x * x + y * y)
    for iteration in range(1, max_iterations + 1):
        x = x / 2.0
        y = x
        gain, value = -(x * x + y * y) - value, -(x * x + y * y)
        if gain < ss.CONVERGENCE_TOL:
            return value, x, y, iteration, True
    return value, x, y, max_iterations, False


HALVING_STARTS = [1.0, 1e-2, 3e-5, 0.5, 1e-4]


def test_driver_writes_each_restart_out_once_with_its_own_count():
    """Every member's slot of the record holds what it reaches alone, each
    with its own iteration count, converged or capped."""
    calls, record = _halving(HALVING_STARTS, 60)
    assert record[4] == {} and all(rows for _, rows in calls)
    assert len(set(record[1].tolist())) == len(HALVING_STARTS)
    assert _outcomes(record) == [_halving_alone(start, 60) for start in HALVING_STARTS]
    _, capped = _halving(HALVING_STARTS, 10)
    assert _outcomes(capped) == [_halving_alone(start, 10) for start in HALVING_STARTS]
    assert capped[2].tolist() == [False, False, True, False, True]


def test_driver_at_one_iteration_writes_every_member_out_unconverged():
    _, record = _halving(HALVING_STARTS, 1)
    assert record[1].tolist() == [1] * len(HALVING_STARTS)
    assert record[2].tolist() == [False] * len(HALVING_STARTS)


def test_driver_flags_a_member_converging_at_the_cap_as_converged():
    """A member whose gain falls below the tolerance in the last allowed
    iteration reads converged; one merely stopped by the cap does not."""
    cap = _halving_alone(1e-4, 60)[3]
    _, record = _halving([1.0, 1e-4], cap)
    assert _outcomes(record) == [_halving_alone(1.0, cap), _halving_alone(1e-4, cap)]
    assert record[1].tolist() == [cap, cap] and record[2].tolist() == [False, True]


def test_driver_aborts_only_the_row_that_raises():
    """Restart 1 raises on its third halving; it alone is aborted and reads
    -inf, 0 and False, and the other restarts finish bit-identical to a run
    without the failure."""
    poison = HALVING_STARTS[1] / 4.0
    calls, record = _halving(HALVING_STARTS, 60, lambda v: v == poison)
    aborted = record[4]
    assert list(aborted) == [1] and isinstance(aborted[1], NotPSDError)
    got, clean = _outcomes(record), _outcomes(_halving(HALVING_STARTS, 60)[1])
    assert (got[1][0], *got[1][3:]) == (-np.inf, 0, False)
    assert got[:1] + got[2:] == clean[:1] + clean[2:]
    # In the third iteration the stacked halving fails and is re-run row by
    # row; the rest of the iteration runs on the four rows left.
    assert calls[7:15] == [("halve", 5)] + [("halve", 1)] * 5 + [("copy", 4), ("objective", 4)]


def test_driver_runs_no_step_once_aborts_empty_the_batch():
    """Every row raises on its second halving: the copy step and the
    objective do not run again, and every member reads -inf, 0 and False."""
    calls, (values, iterations, converged, _, aborted) = _halving([0.7, 0.6], 60, lambda v: v < 0.4)
    assert sorted(aborted) == [0, 1]
    assert values.tolist() == [-np.inf] * 2
    assert iterations.tolist() == [0, 0] and converged.tolist() == [False] * 2
    assert calls == [("objective", 2), ("halve", 2), ("copy", 2), ("objective", 2), ("halve", 2)] + [("halve", 1)] * 2


def test_driver_aborts_only_the_row_whose_start_raises():
    """The halving also runs as the start and raises on restart 1's draw:
    restart 1 alone is aborted, reading -inf, 0 and False with its error, and
    every other restart ends bit-identical to a run without it, as a start
    of half its size does alone."""
    calls, record = _halving(HALVING_STARTS, 60, lambda v: v == HALVING_STARTS[1], start_halving=True)
    aborted = record[4]
    assert list(aborted) == [1] and isinstance(aborted[1], NotPSDError)
    got = _outcomes(record)
    assert (got[1][0], *got[1][3:]) == (-np.inf, 0, False)
    _, clean = _halving(HALVING_STARTS[:1] + HALVING_STARTS[2:], 60, start_halving=True)
    assert got[:1] + got[2:] == _outcomes(clean)
    assert _outcomes(clean) == [_halving_alone(s / 2.0, 60) for s in HALVING_STARTS[:1] + HALVING_STARTS[2:]]
    # The stacked start fails and is re-run row by row; the first objective
    # sees the four rows left.
    assert calls[:7] == [("halve", 5)] + [("halve", 1)] * 5 + [("objective", 4)]


def test_seesaw_fixed_theta_quarter_pi():
    f = catalog.expression_E()
    state = catalog.theta_state(math.pi / 4.0)
    result = seesaw(f, 2, 2, SeesawConfig(restarts=10, seed=2), fixed_state=state)
    assert np.array_equal(result.best_model.state, state / np.linalg.norm(state))
    assert abs(result.best_value - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-6


def test_dimension_monotonicity_by_embedding():
    f = catalog.expression_E()
    cfg = SeesawConfig(restarts=8, seed=14)
    small = seesaw(f, 2, 2, cfg)
    grown = embed_model(small.best_model, 3, 3)
    grown.validate(f.scenario)
    assert abs(model_value(f, grown) - small.best_value) < 1e-10
    value, _, _, _ = refine(f, grown)
    assert value >= small.best_value - 1e-9


def _embed_element_by_element(model, d_a, d_b):
    """Reference embedding: each element block-extended with zeros, the new
    identity block added to outcome 0."""

    def grow(setting, d_old, d_new):
        out = []
        for a, m in enumerate(setting):
            big = np.zeros((d_new, d_new), dtype=complex)
            big[:d_old, :d_old] = m
            if a == 0 and d_new > d_old:
                big[d_old:, d_old:] = np.eye(d_new - d_old)
            out.append(big)
        return tuple(out)

    state = np.zeros((d_a, d_b), dtype=complex)
    state[: model.d_a, : model.d_b] = model.state.reshape(model.d_a, model.d_b)
    povms_a = tuple(grow(s, model.d_a, d_a) for s in model.povms_a)
    povms_b = tuple(grow(s, model.d_b, d_b) for s in model.povms_b)
    return state.reshape(-1), povms_a, povms_b


def test_embed_model_pads_the_stacks_like_growing_each_element():
    sc = BellScenario((2, 3), (3, 2, 2))
    model = seeded_models(sc, 2, 3, seed=6, count=1)[0]
    for d_a, d_b in ((2, 3), (3, 3), (4, 3), (2, 5), (4, 4)):
        grown = embed_model(model, d_a, d_b)
        state, povms_a, povms_b = _embed_element_by_element(model, d_a, d_b)
        assert (grown.d_a, grown.d_b) == (d_a, d_b)
        assert np.array_equal(grown.state, state)
        for got, want in zip(grown.povms_a + grown.povms_b, povms_a + povms_b):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(grown.stack_a[-1, 0], np.eye(d_a))
        grown.validate(sc)
    with pytest.raises(ConfigError):
        embed_model(model, 1, 3)


def test_soundness_against_certified_bounds():
    f = catalog.expression_E()
    result = seesaw(f, 2, 2, SeesawConfig(restarts=25, seed=3))
    assert result.best_value <= catalog.E_QUBIT_MAX + 1e-6


def test_config_validation():
    with pytest.raises(ConfigError):
        SeesawConfig(restarts=0)
    with pytest.raises(ConfigError):
        SeesawConfig(max_iterations=0)
    assert [field.name for field in dataclasses.fields(SeesawConfig)] == ["restarts", "max_iterations", "seed"]
    f = catalog.chsh()
    with pytest.raises(ConfigError):
        seesaw(f, 1, 2, SeesawConfig())
    with pytest.raises(ConfigError, match="must be a nonzero vector"):
        seesaw(f, 2, 2, SeesawConfig(), fixed_state=np.zeros(4))
    with pytest.raises(ConfigError, match="has length 9, expected 4"):
        seesaw(f, 2, 2, SeesawConfig(), fixed_state=np.ones(9))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_rejects_non_finite_fixed_state(bad, no_restarts):
    """The fixed state is ``seesaw``'s argument, checked before any restart
    runs."""
    with pytest.raises(ConfigError, match="non-finite"):
        seesaw(catalog.chsh(), 2, 2, SeesawConfig(), fixed_state=[bad, 0.0, 0.0, 1.0])


def test_seesaw_checks_its_arguments_in_order(no_restarts):
    """jobs, d_a, d_b, then the fixed state's entries, length and norm, then
    the coefficients' reach: a call with several faults names the first."""
    f, huge = catalog.chsh(), 1e308 * catalog.chsh()
    cases = [
        (dict(jobs=0, d_a=1, fixed_state=[np.nan]), "jobs"),
        (dict(d_a=1, d_b=1, fixed_state=[np.nan]), "d_a"),
        (dict(d_b=1, fixed_state=[np.nan]), "d_b"),
        (dict(fixed_state=[np.nan]), "non-finite"),
        (dict(fixed_state=np.zeros(9)), "has length 9"),
        (dict(fixed_state=np.zeros(4), f=huge), "nonzero"),
    ]
    for override, message in cases:
        call = dict(f=f, d_a=2, d_b=2, cfg=SeesawConfig(), jobs=1, fixed_state=None) | override
        with pytest.raises(ConfigError, match=message):
            seesaw(**call)
    with pytest.raises(InvalidFunctionalError, match="beyond the float range"):
        seesaw(huge, 2, 2, fixed_state=[1, 0, 0, 1])


def test_seesaw_keeps_the_fixed_state_it_normalizes():
    """Every restart's state, and so the best model's, is v / ||v|| bit for
    bit, in and out of a process pool."""
    v = np.arange(1.0, 10.0) * (1 - 0.5j)
    want = v / np.linalg.norm(v)
    for jobs in (1, 2):
        result = seesaw(catalog.cglmp_C(), 3, 3, SeesawConfig(restarts=20, seed=1, max_iterations=5), jobs, v)
        assert result.best_model.state.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
def test_fixed_state_normalization_near_the_ends_of_the_float_range(scale):
    """A fixed state whose squared norm overflows, is subnormal or underflows
    to 0 is still scaled to norm 1, and pins the maximally entangled state's
    CHSH value, 2 sqrt(2), at most."""
    v = np.array([scale, 0.0, 0.0, scale])
    state = ss._unit_state(v, 2, 2)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-15
    f = catalog.chsh()
    result = seesaw(f, 2, 2, SeesawConfig(restarts=4, seed=0), fixed_state=v)
    assert np.array_equal(result.best_model.state, state)
    result.best_model.validate(f.scenario)
    assert 2.8 < result.best_value <= 2.0 * math.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_config_rejects_negative_seed(seed):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        SeesawConfig(seed=seed)


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
        refine(f, start)


def test_refine_rejects_a_non_hermitian_model_before_any_eigensolve(monkeypatch):
    """A model with a clearly non-Hermitian element makes ``refine`` raise
    ``NotHermitianError`` before any eigensolve, although the loop's own
    eigensolves test no Hermiticity: ``refine`` tests the model's POVM stacks
    once, by ``eig_hermitian``'s relative rule."""
    f = catalog.chsh()
    start = seeded_models(f.scenario, 2, 2, seed=0, count=1)[0]
    povms_a = [list(setting) for setting in start.povms_a]
    povms_a[0][0] = povms_a[0][0] + np.array([[0.0, 0.5], [0.0, 0.0]])
    bad = QuantumModel(2, 2, start.state, povms_a, start.povms_b)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    with pytest.raises(NotHermitianError, match="deviates from Hermiticity"):
        refine(f, bad)


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


def _drawn_matrix(seed, index, skip, d):
    """(g + g†)/2 of the d x d setting that restart ``index`` draws after
    its first ``skip`` normal values."""
    rng = spawn_rng(seed, index)
    rng.normal(size=skip)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def test_lapack_failure_aborts_only_its_restart(monkeypatch):
    """LAPACK fails on restart 0's first start draw: the stacked start
    eigensolve is re-run restart by restart, restart 0 alone aborts and the
    others finish as in a clean run."""
    cfg = SeesawConfig(restarts=3, seed=4)
    clean = seesaw(catalog.chsh(), 2, 2, cfg, jobs=1)
    target = _drawn_matrix(4, 0, 8, 2)  # after the state's 4 + 4 values
    fail_eigh_on(monkeypatch, target, np.linalg.LinAlgError("Eigenvalues did not converge"))
    with pytest.warns(UserWarning, match="restart 0 aborted: NoConvergenceError"):
        result = seesaw(catalog.chsh(), 2, 2, cfg, jobs=1)
    assert result.per_restart_values[0] == -np.inf
    assert list(result.aborted) == [0]
    assert result.aborted[0].startswith("NoConvergenceError: LAPACK eigh failed")
    assert result.per_restart_values[1:] == clean.per_restart_values[1:]
    assert result.iterations_used[1:] == clean.iterations_used[1:]
    assert abs(result.best_value - 2.0 * math.sqrt(2.0)) < 1e-6


def test_every_restart_aborting_raises(monkeypatch):
    real = np.linalg.eigh

    # LAPACK fails on every call; numpy answers an empty stack without calling it.
    def fail(a, *args, **kwargs):
        if np.size(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.warns(UserWarning) as caught:
        with pytest.raises(NoConvergenceError, match="every restart aborted"):
            seesaw(catalog.chsh(), 2, 2, SeesawConfig(restarts=3, seed=4), jobs=1)
    assert [str(w.message).split(": ")[:2] for w in caught] == [
        [f"restart {i} aborted", "NoConvergenceError"] for i in range(3)
    ]


def test_a_start_draw_that_aborts_every_restart_stops_there(monkeypatch):
    """With LAPACK failing on every call, empty ones included, Alice's start
    draw aborts every restart, stacked and then one by one, and Bob's empty
    batch is never drawn."""

    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    real, drawn = ss._random_povms, []

    def recording(counts, g):
        drawn.append((counts, len(g)))
        return real(counts, g)

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(ss, "_random_povms", recording)
    f = catalog.expression_E()
    draws, starts = ss._start_arrays(f.scenario, 3, 3, 0, range(3))
    values, iterations, _, rows, aborted = ss._lockstep(f, draws, SeesawConfig.max_iterations, starts)
    assert rows == [] and list(aborted) == [0, 1, 2]
    assert values.tolist() == [-np.inf] * 3 and iterations.tolist() == [0] * 3
    assert drawn == [(f.scenario.outcomes_a, 3)] + [(f.scenario.outcomes_a, 1)] * 3
    with pytest.warns(UserWarning) as caught:
        with pytest.raises(NoConvergenceError, match="every restart aborted"):
            seesaw(f, 3, 3, SeesawConfig(restarts=3))
    assert [str(w.message).split(": ")[:2] for w in caught] == [
        [f"restart {i} aborted", "NoConvergenceError"] for i in range(3)
    ]


def test_seeded_models_raise_a_failed_start_draw(monkeypatch):
    # Restart 1's first Alice setting, after its state's 4 + 4 values.
    fail_eigh_on(monkeypatch, _drawn_matrix(4, 1, 8, 2), NotPSDError("synthetic failure"))
    with pytest.raises(NotPSDError, match="synthetic failure"):
        seeded_models(catalog.chsh().scenario, 2, 2, seed=4, count=3)


@pytest.mark.parametrize("party", ["A", "B"])
def test_start_draw_failure_drops_only_its_row(monkeypatch, party):
    """A failure in one restart's stacked start eigensolve, on either
    party, leaves that restart out and every other row as in a clean draw."""
    sc = BellScenario((2, 3), (3, 2, 2))
    clean, aborted = started(sc, 2, 3, 11, range(5))
    assert aborted == {}
    # Restart 2's first setting of the party, after its state's 6 + 6 values
    # and, for Bob, Alice's two 2 x 2 settings.
    target = _drawn_matrix(11, 2, 12, 2) if party == "A" else _drawn_matrix(11, 2, 12 + 16, 3)
    fail_eigh_on(monkeypatch, target, NotPSDError("synthetic failure"))
    arrays, aborted = started(sc, 2, 3, 11, range(5))
    assert list(aborted) == [2] and str(aborted[2]) == "synthetic failure"
    for got, want in zip(arrays, clean):
        assert np.array_equal(got[[0, 1, 3, 4]], want[[0, 1, 3, 4]]) and not got[2].any()


def test_cglmp_best_model_stays_projective():
    f = catalog.cglmp_C()
    result = seesaw(f, 3, 3, SeesawConfig(restarts=2, seed=6))
    for setting in result.best_model.povms_a + result.best_model.povms_b:
        for m in setting:
            assert np.abs(m @ m - m).max() < 1e-8


@pytest.mark.parametrize(
    "draw",
    [
        lambda: spawn_rng(-3, 0),
        lambda: spawn_rng(-1),
        lambda: seeded_models(BellScenario((2, 2), (2, 2)), 2, 2, seed=-1, count=1),
    ],
    ids=["spawn_rng-keyed", "spawn_rng", "seeded_models"],
)
def test_negative_seed_is_a_config_error(draw):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        draw()


def test_spawn_rng_counter_streams():
    a = spawn_rng(5, 0).normal(size=3)
    b = spawn_rng(5, 1).normal(size=3)
    a2 = spawn_rng(5, 0).normal(size=3)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def _reference_exchange_pairs(ops, elements, counts):
    """Reference exchange loop: always ``PAIR_PASSES`` full passes, the gain
    as tr(P X) with P from ``positive_projector``, the new element as R P R."""
    n, m, width, d, _ = elements.shape
    elements = elements.copy().reshape(n * m, width, d, d)
    ops = ops.reshape(n * m, width, d, d)
    counts = np.tile(counts, n)
    for _ in range(ss.PAIR_PASSES):
        for a in range(width):
            for a2 in range(a + 1, width):
                s = elements[:, a] + elements[:, a2]
                live = (counts > a2) & (np.abs(s).max(axis=(-1, -2)) >= 1e-15)
                if not live.any():
                    continue
                rows = slice(None) if live.all() else np.flatnonzero(live)
                s = s[rows]
                delta = ops[rows, a] - ops[rows, a2]
                root = s
                drifted = np.abs(s @ s - s).max(axis=(-1, -2)) > ss.PROJECTOR_DRIFT_TOL
                if drifted.any():
                    root = s.copy()
                    root[drifted] = linalg.psd_pseudo_sqrt(s[drifted])
                sandwiched = root @ delta @ root
                pos = linalg.positive_projector(sandwiched)
                gain = np.trace(pos @ sandwiched, axis1=-2, axis2=-1).real
                current = np.trace(elements[rows, a] @ delta, axis1=-2, axis2=-1).real
                better = gain - current > 1e-13 * np.maximum(1.0, np.abs(current))
                if not better.any():
                    continue
                if not better.all():
                    rows = np.flatnonzero(live)[better]
                    root, pos, s = root[better], pos[better], s[better]
                new_a = root @ pos @ root
                new_a = (new_a + new_a.conj().swapaxes(-1, -2)) / 2.0
                elements[rows, a] = new_a
                elements[rows, a2] = s - new_a
    return elements.reshape(n, m, width, d, d)


def _reference_projective_povm(d, outcomes, rng):
    """A setting's start POVM drawn as it was, one setting at a time: the
    eigenbasis of a random Hermitian matrix, outcomes taking contiguous basis
    blocks with sizes as equal as possible, a zero element past d."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    basis = linalg.eig_hermitian((g + g.conj().T) / 2.0)[1]
    base, rem = divmod(d, outcomes)
    sizes = [base + 1] * rem + [base] * (outcomes - rem)
    elements = []
    start = 0
    for size in sizes:
        if size == 0:
            elements.append(np.zeros((d, d), dtype=complex))
            continue
        blk = basis[:, start : start + size]
        start += size
        p = blk @ blk.conj().T
        elements.append((p + p.conj().T) / 2.0)
    return tuple(elements)


def _reference_start(scenario, d_a, d_b, rng, fixed_state=None):
    """A restart's start rows drawn as they were: the state, then each of
    Alice's settings, then each of Bob's, from separate ``normal`` calls."""
    if fixed_state is None:
        v = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
        state = v / np.linalg.norm(v)
    else:
        state = np.array(fixed_state)
    stacks = [
        povm_stack([_reference_projective_povm(d, v, rng) for v in counts])
        for counts, d in ((scenario.outcomes_a, d_a), (scenario.outcomes_b, d_b))
    ]
    return state, *stacks


START_CASES = [
    (BellScenario((2, 2), (2, 2)), 2, 2),
    (catalog.expression_E().scenario, 2, 2),
    (catalog.expression_E().scenario, 3, 3),
    (catalog.cglmp_C().scenario, 3, 3),
    (catalog.by_name("iphi:0.7").scenario, 2, 3),
    (BellScenario((2, 3, 4), (3, 2)), 3, 2),
]


@pytest.mark.parametrize("scenario, d_a, d_b", START_CASES, ids=["qubit-correlator", "E-2", "E-3", "cglmp-c", "iphi", "ragged"])
def test_start_arrays_match_the_reference_draws(scenario, d_a, d_b):
    """The batched start draw gives every restart the rows that drawing it
    alone, one setting at a time, gives, bit for bit: batch sizes 1 to 7,
    with and without a fixed state, on ragged scenarios and outcomes past d."""
    fixed = ss._unit_state(np.arange(1.0, d_a * d_b + 1) * (1 - 0.5j), d_a, d_b)
    for seed in range(3):
        for size in range(1, 8):
            indices = range(seed, seed + size)
            for fixed_state in (None, fixed):
                arrays, aborted = started(scenario, d_a, d_b, seed, indices, fixed_state)
                assert aborted == {} and len(arrays[0]) == size
                for index, *rows in zip(indices, *arrays):
                    want = _reference_start(scenario, d_a, d_b, spawn_rng(seed, index), fixed_state)
                    for got, ref in zip(rows, want):
                        assert np.array_equal(got, ref)
    for model, index in zip(seeded_models(scenario, d_a, d_b, 5, 4), range(4)):
        assert_model_has_rows(model, _reference_start(scenario, d_a, d_b, spawn_rng(5, index)))


def test_unchecked_eigensolves_get_exactly_hermitian_matrices(monkeypatch):
    """Every matrix the see-saw hands to ``linalg._eigh_descending`` itself,
    past the Hermiticity check, equals its adjoint bit for bit, and its
    eigenpairs are those ``eig_hermitian`` gives: the start draws, the binary
    and exchange steps (d x d) and the state step's Bell operators (d² x d²)."""
    real_check, real_solve = linalg.eig_hermitian, linalg._eigh_descending
    inside, direct = [False], []

    def checked(*args, **kwargs):
        inside[0] = True
        try:
            return real_check(*args, **kwargs)
        finally:
            inside[0] = False

    def unchecked(m):
        if not inside[0]:
            direct.append(np.array(m))
        return real_solve(m)

    ragged = random_functional(np.random.default_rng(5), BellScenario((2, 3), (2, 4, 2)))
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "eig_hermitian", checked)
        patch.setattr(linalg, "_eigh_descending", unchecked)
        for f, d in ((catalog.chsh(), 2), (catalog.expression_E(), 3), (ragged, 2), (catalog.cglmp_C(), 3)):
            seesaw(f, d, d, SeesawConfig(restarts=4, seed=2, max_iterations=20))
    assert len(direct) > 20
    assert {m.shape[-1] for m in direct} == {2, 3, 4, 9}
    for m in direct:
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))
        got, want = real_solve(m), real_check(m)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize(
    "kind, d, fixed",
    [(kind, d, False) for kind in ("E", "cglmp-c", "chsh", "iphi:0.7", "random") for d in (2, 3)] + [("E", 3, True)],
)
def test_every_eigensolve_input_equals_its_adjoint(monkeypatch, kind, d, fixed):
    """Every matrix that reaches ``linalg._eigh_descending`` during a see-saw
    run, whether past ``eig_hermitian``'s check or handed to it directly,
    equals its adjoint bit for bit: catalog functionals, a random one with 2
    to 4 outcomes per setting, and a run at a fixed state."""
    real, seen = linalg._eigh_descending, []

    def recording(m):
        seen.append(np.array(m))
        return real(m)

    if kind == "random":
        f = random_functional(np.random.default_rng(d), BellScenario((2, 3, 4), (4, 2, 3)))
    else:
        f = catalog.by_name(kind)
    state = catalog.gamma_state(0.79) if fixed else None
    monkeypatch.setattr(linalg, "_eigh_descending", recording)
    seesaw(f, d, d, SeesawConfig(restarts=4, seed=2, max_iterations=20), fixed_state=state)
    assert sum(m[..., 0, 0].size for m in seen) > 20
    for m in seen:
        assert np.array_equal(m, m.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("kind, d", [("E", 3), ("ragged", 2), ("iphi:0.7", 3)])
def test_final_objective_is_the_stacked_value_of_the_final_rows(monkeypatch, kind, d):
    """The carried Bell operators' objective of every member agrees with
    ``model_value`` of the model of its final rows, in a batch whose arrays
    are compacted as members stop and after a member aborts row by row."""
    f = batch_functional(kind, 3)
    cfg = SeesawConfig(seed=3, max_iterations=60)
    arrays, _ = started(f.scenario, d, d, cfg.seed, range(RESTART_BATCH))
    ops = bell_operators(contraction_matrix(f), arrays[1], arrays[2])
    fail_eigh_on(monkeypatch, (ops[5] + ops[5].conj().T) / 2.0, NotPSDError("synthetic failure"))
    values, iterations, _, rows, errors = ss._lockstep(f, arrays, cfg.max_iterations)
    assert list(errors) == [5] and values[5] == -np.inf
    assert len(set(np.delete(iterations, 5).tolist())) > 1
    for i, value in enumerate(values):
        if i != 5:
            model = ss._model(f.scenario, *member_rows(rows, i))
            assert abs(value - model_value(f, model)) <= 1e-12


def _random_povm(rng, d, v, projective):
    """v PSD elements summing to the identity: a random projective split, or
    R^-1/2 G_k R^-1/2 for random PSD G_k with R their sum (no element, and
    no pair sum, a projector)."""
    if projective:
        return np.stack(_reference_projective_povm(d, v, rng))
    g = rng.normal(size=(v, d, d)) + 1j * rng.normal(size=(v, d, d))
    g = g @ g.conj().swapaxes(-1, -2)
    eig = np.linalg.eigh(g.sum(axis=0))
    inv_root = (eig.eigenvectors / np.sqrt(eig.eigenvalues)) @ eig.eigenvectors.conj().T
    m = inv_root @ g @ inv_root
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _exchange_inputs(rng, members, counts, d, projective):
    """Operators and POVMs in the (B, settings, width, d, d) layout of
    ``party_operators``: outcomes past a setting's count are zero."""
    width = max(counts)
    ops = np.zeros((members, len(counts), width, d, d), dtype=complex)
    povms = np.zeros_like(ops)
    for i in range(members):
        for x, v in enumerate(counts):
            g = rng.normal(size=(v, d, d)) + 1j * rng.normal(size=(v, d, d))
            ops[i, x, :v] = (g + g.conj().swapaxes(-1, -2)) / 2.0
            povms[i, x, :v] = _random_povm(rng, d, v, projective)
    return ops, povms, np.array(counts)


def _objective(ops, povms):
    return (povms * ops.conj()).real.sum(axis=(-1, -2, -3))


def _assert_feasible(povms, counts):
    d = povms.shape[-1]
    for x, v in enumerate(counts):
        assert np.abs(povms[:, x, v:]).max(initial=0.0) == 0.0
        assert np.abs(povms[:, x].sum(axis=1) - np.eye(d)).max() < 1e-10
        assert np.linalg.eigvalsh(povms[:, x, :v]).min() > -1e-10


EXCHANGE_CASES = [
    (101, (3, 4, 3), 2, True),
    (102, (4, 3), 3, True),
    (103, (3,), 3, False),
    (104, (3, 4), 3, False),
    (105, (4, 3, 4), 2, False),
]


@pytest.mark.parametrize("seed, counts, d, projective", EXCHANGE_CASES)
def test_exchange_pairs_match_the_reference_loop(seed, counts, d, projective):
    """On random ragged settings - padded outcomes, projective elements and
    non-projector pair sums that take the square-root branch - the exchange
    loop agrees with the loop that builds the positive projector."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        ops, povms, c = _exchange_inputs(rng, 5, counts, d, projective)
        got = ss.update_measurement_multi(ops, povms, c)
        want = _reference_exchange_pairs(ops, povms, c)
        assert np.abs(got - want).max() < 1e-10
        assert not np.array_equal(got, povms)


@pytest.mark.parametrize("seed, counts, d, projective", EXCHANGE_CASES)
def test_exchange_pass_is_monotone_and_feasible(monkeypatch, seed, counts, d, projective):
    """One pass at a time: every member's objective never decreases and its
    POVMs stay PSD, sum to the identity and keep padded outcomes zero."""
    monkeypatch.setattr(ss, "PAIR_PASSES", 1)
    rng = np.random.default_rng(seed + 100)
    ops, povms, c = _exchange_inputs(rng, 5, counts, d, projective)
    value = _objective(ops, povms)
    for _ in range(6):
        povms = ss.update_measurement_multi(ops, povms, c)
        _assert_feasible(povms, counts)
        new = _objective(ops, povms)
        assert (new >= value - 1e-12).all()
        value = new


@pytest.mark.parametrize("counts, d", [((3, 4, 3), 2), ((4, 3), 3)])
def test_exchange_fixed_point_is_returned_after_one_pass(monkeypatch, counts, d):
    """Repeated calls on fixed operators reach elements that a call returns
    bit for bit; fed back in, such a fixed point costs a single pass of
    eigensolves and comes back unchanged."""
    rng = np.random.default_rng(31)
    ops, povms, c = _exchange_inputs(rng, 4, counts, d, True)
    for _ in range(200):
        out = ss.update_measurement_multi(ops, povms, c)
        if np.array_equal(out, povms):
            break
        povms = out
    else:
        raise AssertionError("no fixed point within 200 calls")
    real = linalg._eigh_descending

    def eigensolves(passes):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_eigh_descending", counting)
            patch.setattr(ss, "PAIR_PASSES", passes)
            again = ss.update_measurement_multi(ops, out, c)
        assert np.array_equal(again, out)
        return len(calls)

    assert 0 < eigensolves(ss.PAIR_PASSES) == eigensolves(1)


@pytest.mark.parametrize(
    "name, scale",
    [("cglmp-c", 1e8), ("E", 1e8), ("cglmp-c", 1e15), ("E", 1e15)],
    ids=["cglmp-c", "E", "cglmp-c-1e15", "E-1e15"],
)
def test_large_coefficients_do_not_abort(name, scale):
    """The see-saw's own products drift from Hermitian by about 1e-16 |C|;
    the state and exchange steps take their Hermitian parts without a
    Hermiticity test, so no tolerance applies there, and a functional scaled
    by 1e8 or 1e15 runs without an abort and finds the unscaled value times
    the scale."""
    f = catalog.by_name(name)
    cfg = SeesawConfig(restarts=8, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = seesaw(f.scaled(scale), 3, 3, cfg)
    assert scaled.aborted == {}
    assert abs(scaled.best_value / scale - seesaw(f, 3, 3, cfg).best_value) < 1e-9
