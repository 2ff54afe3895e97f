import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dimwit.scenario import (
    BellFunctional,
    BellScenario,
    ProbabilityTable,
    bell_operators,
    contraction_matrix,
    model_stacks,
    povm_views,
)

ss = importlib.import_module("dimwit.seesaw")


@pytest.fixture
def no_restarts(monkeypatch):
    """Fail the test if a see-saw restart runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a see-saw restart ran")

    # "dimwit.seesaw" as a dotted path would resolve to the re-exported function.
    monkeypatch.setattr(importlib.import_module("dimwit.seesaw"), "_lockstep", refuse)


def state_step(f, model):
    """``seesaw.update_state`` on a batch of one model."""
    stacks = (s[None] for s in model_stacks(f, model))
    state = ss.update_state(model.state[None], bell_operators(contraction_matrix(f), *stacks))[0]
    return replace(model, state=state)


def party_step(f, model, party, setting=None):
    """``seesaw._party_step`` on a batch of one model: over all of the
    party's settings, or over ``setting`` alone through a ``_party_plan``
    restricted to it."""
    counts = f.scenario.outcomes_a if party == "A" else f.scenario.outcomes_b
    plan = ss._party_plan(f, party)
    if setting is not None:
        index = np.array([setting])
        v = counts[setting]
        plan = (party, index, None, None) if v == 2 else (party, None, index, np.array([v]))
    stack_a, stack_b = model_stacks(f, model)
    stack = ss._party_step(plan, contraction_matrix(f), model.state[None], stack_a[None], stack_b[None])[0]
    return replace(model, **{"povms_a" if party == "A" else "povms_b": povm_views(stack, counts)})


def random_scenario(rng, max_settings=3, max_outcomes=4) -> BellScenario:
    na = rng.integers(1, max_settings + 1)
    nb = rng.integers(1, max_settings + 1)
    return BellScenario(
        tuple(int(v) for v in rng.integers(2, max_outcomes + 1, size=na)),
        tuple(int(v) for v in rng.integers(2, max_outcomes + 1, size=nb)),
    )


def random_functional(rng, scenario=None, sparsity=0.3) -> BellFunctional:
    sc = scenario if scenario is not None else random_scenario(rng)
    joint = [
        [
            rng.normal(size=(va, vb)) * (rng.random(size=(va, vb)) > sparsity)
            for vb in sc.outcomes_b
        ]
        for va in sc.outcomes_a
    ]
    marg_a = [rng.normal(size=v) * (rng.random(size=v) > sparsity) for v in sc.outcomes_a]
    marg_b = [rng.normal(size=v) * (rng.random(size=v) > sparsity) for v in sc.outcomes_b]
    constant = float(rng.normal()) if rng.random() > sparsity else 0.0
    return BellFunctional(sc, joint, marg_a, marg_b, constant)


def random_table(rng, scenario) -> ProbabilityTable:
    blocks = []
    for va in scenario.outcomes_a:
        row = []
        for vb in scenario.outcomes_b:
            raw = rng.random(size=(va, vb)) + 1e-3
            row.append(raw / raw.sum())
            # per-block normalization only; such tables may signal
        blocks.append(row)
    return ProbabilityTable(scenario, blocks)


def uniform_table(scenario) -> ProbabilityTable:
    """The uniformly random table P(ab|xy) = 1/(v_A(x) v_B(y))."""
    blocks = [[np.full((va, vb), 1.0 / (va * vb)) for vb in scenario.outcomes_b] for va in scenario.outcomes_a]
    return ProbabilityTable(scenario, blocks)


def table_csv(t: ProbabilityTable) -> str:
    """The table as CSV text with header x,y,a,b,p, one row per entry in
    (x, y, a, b) order, each probability in 17 significant digits."""
    sc = t.scenario
    rows = [
        f"{x},{y},{a},{b},{t.p[x][y][a, b]:.17g}\n"
        for x, va in enumerate(sc.outcomes_a)
        for y, vb in enumerate(sc.outcomes_b)
        for a in range(va)
        for b in range(vb)
    ]
    return "x,y,a,b,p\n" + "".join(rows)


def theta_state_violation(theta: float) -> float:
    """Reference value: the best two-qubit violation of ``expression_E`` on
    ``theta_state(theta)``, (sqrt(1 + sin^2(2 theta)) - 1) / 2."""
    s = math.sin(2.0 * theta)
    return (math.sqrt(1.0 + s * s) - 1.0) / 2.0


def signaling_deviation(t: ProbabilityTable) -> float:
    """Largest spread of one party's marginals across the partner's settings."""
    sc = t.scenario
    worst = 0.0
    for x in range(sc.settings_a):
        stack = np.stack([t.p[x][y].sum(axis=1) for y in range(sc.settings_b)])
        worst = max(worst, float((stack.max(axis=0) - stack.min(axis=0)).max()))
    for y in range(sc.settings_b):
        stack = np.stack([t.p[x][y].sum(axis=0) for x in range(sc.settings_a)])
        worst = max(worst, float((stack.max(axis=0) - stack.min(axis=0)).max()))
    return worst


def random_hermitian(rng, n) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def fail_eigh_on(monkeypatch, target, error):
    """Make ``np.linalg.eigh`` raise ``error`` on every call, single or stacked,
    that has a member exactly equal to ``target``; other calls go through."""
    real = np.linalg.eigh

    def flaky(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2:] == target.shape and (a == target).all(axis=(-1, -2)).any():
            raise error
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", flaky)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
