import importlib

import numpy as np
import pytest

from dimwit.scenario import BellFunctional, BellScenario, ProbabilityTable


@pytest.fixture
def no_restarts(monkeypatch):
    """Fail the test if a see-saw restart runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a see-saw restart ran")

    # "dimwit.seesaw" as a dotted path would resolve to the re-exported function.
    monkeypatch.setattr(importlib.import_module("dimwit.seesaw"), "_lockstep", refuse)


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
