import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from dimwit import grothendieck as gk
from dimwit.errors import ConfigError, StrategySpaceTooLargeError, ZeroMatrixError
from dimwit.grothendieck import (
    CorrelationFunctional,
    correlator_bell,
    local_norm,
    normalize,
    vector_seesaw,
)
from dimwit.localbound import local_bound
from dimwit.seesaw import CONVERGENCE_TOL, SeesawConfig, seesaw, spawn_rng

CHSH_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]])


def naive_local_norm(matrix):
    """4^m oracle: score every pair of sign vectors."""
    m = matrix.shape[0]
    best = 0.0
    for xs in product((-1.0, 1.0), repeat=m):
        for ys in product((-1.0, 1.0), repeat=m):
            best = max(best, abs(float(np.array(xs) @ matrix @ np.array(ys))))
    return best


def unit_rows(vectors, fallback):
    norms = np.linalg.norm(vectors, axis=1)
    out = fallback.copy()
    good = norms > 0.0
    out[good] = vectors[good] / norms[good, None]
    return out


def loop_refine(matrix, xs, ys, max_iterations):
    """Oracle: one restart's alternating best responses, one iteration at a
    time; returns (value, xs, ys, iterations)."""
    value = float((matrix * (xs @ ys.T)).sum())
    for iterations in range(1, max_iterations + 1):
        xs = unit_rows(matrix @ ys, xs)
        ys = unit_rows(matrix.T @ xs, ys)
        new_value = float((matrix * (xs @ ys.T)).sum())
        improvement = new_value - value
        value = new_value
        if improvement < CONVERGENCE_TOL:
            break
    return value, xs, ys, iterations


def test_local_norm_examples():
    assert local_norm(CHSH_MATRIX) == 2.0
    for m in (1, 2, 3, 5):
        assert local_norm(np.eye(m)) == float(m)
    assert local_norm(np.zeros((3, 3))) == 0.0


def test_local_norm_matches_naive_enumeration(rng):
    for m in (1, 2, 3, 4):
        for _ in range(8):
            matrix = rng.normal(size=(m, m))
            assert abs(local_norm(matrix) - naive_local_norm(matrix)) < 1e-12


def test_local_norm_cap(monkeypatch):
    # m = 27 is refused before its correlator functional is built.
    def refuse(_):
        raise AssertionError("correlator_bell called")

    monkeypatch.setattr(gk, "correlator_bell", refuse)
    with pytest.raises(StrategySpaceTooLargeError):
        local_norm(np.eye(27))


def test_non_finite_matrix_rejected():
    for matrix in ([[np.nan, 1.0], [1.0, 1.0]], [[np.inf]], [[1.0, -np.inf], [0.0, 0.0]]):
        with pytest.raises(ConfigError):
            local_norm(matrix)
    with pytest.raises(ConfigError):
        normalize([[np.nan]])


def test_normalize():
    norm = normalize(CHSH_MATRIX)
    assert np.array_equal(norm.matrix, CHSH_MATRIX / 2.0)
    again = normalize(norm.matrix)
    assert np.abs(again.matrix - norm.matrix).max() < 1e-12
    # positive scaling is irrelevant (exactly so for power-of-two factors)
    assert np.array_equal(normalize(2.0 * CHSH_MATRIX).matrix, norm.matrix)
    assert np.abs(normalize(1.7 * CHSH_MATRIX).matrix - norm.matrix).max() < 1e-12
    with pytest.raises(ZeroMatrixError):
        normalize(np.zeros((2, 2)))


def test_vector_seesaw_chsh():
    norm = normalize(CHSH_MATRIX)
    cfg = SeesawConfig(restarts=20, seed=31)
    v1, s1 = vector_seesaw(norm, 1, cfg)
    assert v1 == 1.0  # classical signs: equals the local bound exactly
    assert s1.x_vectors.shape == (2, 1)
    v2, _ = vector_seesaw(norm, 2, cfg)
    assert abs(v2 - math.sqrt(2.0)) < 1e-8
    v3, strat = vector_seesaw(norm, 3, cfg)
    assert abs(v3 - math.sqrt(2.0)) < 1e-8  # the optimum is planar
    assert np.allclose(np.linalg.norm(strat.x_vectors, axis=1), 1.0, atol=1e-10)
    assert np.allclose(np.linalg.norm(strat.y_vectors, axis=1), 1.0, atol=1e-10)


@pytest.mark.parametrize("max_iterations", [1, 2, 500])
def test_vector_seesaw_is_the_best_of_single_restarts(rng, monkeypatch, max_iterations):
    # The lockstep batch against each restart run alone, as a plain loop and
    # as a batch of one whose one stream is the restart's, both from the
    # spawn_rng starts; results must agree bit for bit.
    for m, n, restarts in ((2, 1, 3), (5, 2, 4), (7, 3, 5), (16, 3, 6)):
        matrix = rng.normal(size=(m, m))
        if m > 2:
            matrix[1, :] = 0.0  # x_1 and y_2 have no best response: they keep
            matrix[:, 2] = 0.0  # their start vectors
        norm = normalize(matrix)
        cfg = SeesawConfig(restarts=restarts, max_iterations=max_iterations, seed=m)
        best_value, best, iterations = -np.inf, None, []
        for r in range(restarts):
            start = spawn_rng(cfg.seed, r)
            xs = unit_rows(start.normal(size=(m, n)), np.eye(m, n))
            ys = unit_rows(start.normal(size=(m, n)), np.eye(m, n))
            value, xs_r, ys_r, used = loop_refine(norm.matrix, xs, ys, max_iterations)
            with monkeypatch.context() as patch:
                patch.setattr(gk, "spawn_rng", lambda seed, _, r=r: spawn_rng(seed, r))
                single, alone = vector_seesaw(norm, n, dataclasses.replace(cfg, restarts=1))
            assert single == value
            assert alone.x_vectors.tobytes() == xs_r.tobytes() and alone.y_vectors.tobytes() == ys_r.tobytes()
            iterations.append(used)
            if value > best_value:
                best_value, best = value, (xs_r, ys_r)
        if max_iterations == 500 and m > 2:
            assert len(set(iterations)) > 1  # members leave the batch at different times
        value, strategy = vector_seesaw(norm, n, cfg)
        assert value == best_value
        assert strategy.x_vectors.tobytes() == best[0].tobytes()
        assert strategy.y_vectors.tobytes() == best[1].tobytes()
        if m > 2:
            assert (strategy.x_vectors[1] != 0.0).any() and (strategy.y_vectors[2] != 0.0).any()


def test_vector_seesaw_rejects_only_a_bad_n():
    assert [field.name for field in dataclasses.fields(CorrelationFunctional)] == ["matrix"]
    for n in (0, 1.5):
        with pytest.raises(ConfigError, match="vector dimension"):
            vector_seesaw(normalize(CHSH_MATRIX), n)


def test_vector_seesaw_searches_an_unnormalized_matrix():
    """Three times CHSH, never normalized: the best value is 6 sqrt(2), and
    it is the objective of the vectors returned."""
    matrix = 3.0 * CHSH_MATRIX
    for n in (2, 3):
        value, strategy = vector_seesaw(CorrelationFunctional(matrix), n, SeesawConfig(restarts=8, seed=5))
        assert abs(value - 6.0 * math.sqrt(2.0)) < 1e-9
        assert abs(value - np.sum(matrix * (strategy.x_vectors @ strategy.y_vectors.T))) < 1e-12


def test_vector_seesaw_at_least_classical(rng):
    cfg = SeesawConfig(restarts=12, seed=37)
    for _ in range(6):
        m = int(rng.integers(2, 5))
        norm = normalize(rng.normal(size=(m, m)))
        for n in (1, 2, 3):
            value, _ = vector_seesaw(norm, n, cfg)
            assert value >= 1.0 - 1e-9


def test_vector_value_nondecreasing_in_n_by_embedding(rng):
    cfg = SeesawConfig(restarts=10, seed=41)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        norm = normalize(rng.normal(size=(m, m)))
        value_n, strat = vector_seesaw(norm, 2, cfg)
        xs = np.hstack([strat.x_vectors, np.zeros((m, 1))])
        ys = np.hstack([strat.y_vectors, np.zeros((m, 1))])
        value_up = loop_refine(norm.matrix, xs, ys, cfg.max_iterations)[0]
        assert value_up >= value_n - 1e-9


def test_correlator_bell_structure_and_local_bound(rng):
    norm = normalize(CHSH_MATRIX)
    f = correlator_bell(norm)
    assert f.scenario.outcomes_a == (2, 2)
    assert abs(local_bound(f)[0] - 1.0) < 1e-12
    for _ in range(5):
        m = int(rng.integers(2, 4))
        g = correlator_bell(normalize(rng.normal(size=(m, m))))
        assert abs(local_bound(g)[0] - 1.0) < 1e-12


def test_correlator_bell_zero_matrix():
    f = correlator_bell(CorrelationFunctional(np.zeros((2, 2))))
    assert all(not f.joint[x][y].any() for x in range(2) for y in range(2))
    assert f.constant == 0.0


def test_qubit_seesaw_agrees_with_three_vector_search(rng):
    cfg = SeesawConfig(restarts=24, seed=43)
    for i in range(4):
        m = int(rng.integers(2, 4))
        norm = normalize(rng.normal(size=(m, m)))
        vec_value, _ = vector_seesaw(norm, 3, cfg)
        quantum = seesaw(correlator_bell(norm), 2, 2, cfg)
        assert abs(quantum.best_value - vec_value) < 1e-5, (i, m)


def test_correlation_functional_validation():
    with pytest.raises(ConfigError):
        CorrelationFunctional(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        CorrelationFunctional(np.array([[np.inf]]))
