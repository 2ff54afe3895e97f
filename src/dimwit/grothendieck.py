"""Correlation-matrix functionals: exact sign-enumeration normalization and
unit-vector see-saw lower bounds.

An m x m real matrix M defines I = sum_ij M_ij c_ij on binary-outcome
correlators c_ij in [-1, 1].  Its exact maximum over classical sign choices
(x_i, y_j = +-1) normalizes M so the local bound is 1; the maximum of the
normalized form over unit vectors in R^N (c_ij = x_i . y_j) is then a lower
bound on the order-N Grothendieck constant.  N = 3 corresponds to projective
qubit measurements on a maximally entangled pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MatrixTooLargeError, ZeroMatrixError
from .localbound import _best_strategy, strategy_value
from .scenario import BellFunctional, BellScenario
from .seesaw import CONVERGENCE_TOL, SeesawConfig, spawn_rng

#: 2^m sign vectors are enumerated exactly; beyond this the cost is unreasonable.
ENUMERATION_CAP = 26


@dataclass
class CorrelationFunctional:
    """An m x m correlator-coefficient matrix, optionally with its cached
    sign-enumeration norm (1.0 after ``normalize``)."""

    matrix: np.ndarray
    local_norm: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ConfigError(f"correlation matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigError("correlation matrix entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class VectorStrategy:
    """Rows are unit vectors in R^N, one per setting and party."""

    x_vectors: np.ndarray
    y_vectors: np.ndarray


def local_norm(matrix) -> float:
    """Exact max of |sum_ij M_ij x_i y_j| over sign vectors x, y: the
    ``strategy_value`` of the best strategy that ``local_bound``'s search finds
    on ``correlator_bell(M)``, over Alice's 2^m sign vectors with Bob's signs as
    his best response.  Requires m <= 26, not the search's strategy-space cap;
    non-square, empty or non-finite matrices raise ``ConfigError``."""
    cf = CorrelationFunctional(matrix)
    if cf.m > ENUMERATION_CAP:
        raise MatrixTooLargeError(
            f"m = {cf.m} exceeds the exact enumeration cap of {ENUMERATION_CAP}"
        )
    f = correlator_bell(cf)
    return strategy_value(f, _best_strategy(f, 1.0))


def normalize(matrix) -> CorrelationFunctional:
    """Scale a matrix so its exact sign-enumeration norm is 1."""
    return normalize_by(matrix, local_norm(matrix))


def normalize_by(matrix, norm: float) -> CorrelationFunctional:
    """``normalize`` with the matrix's ``local_norm`` already computed."""
    if norm == 0.0:
        raise ZeroMatrixError("all-zero correlation matrix cannot be normalized")
    return CorrelationFunctional(np.asarray(matrix, dtype=float) / norm, local_norm=1.0)


def _normalize_rows(vectors: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit-normalize rows; rows with zero target keep their previous vector."""
    norms = np.linalg.norm(vectors, axis=1)
    out = fallback.copy()
    good = norms > 0.0
    out[good] = vectors[good] / norms[good, None]
    return out


def _objective(matrix: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    return float((matrix * (xs @ ys.T)).sum())


def refine_vectors(matrix: np.ndarray, xs: np.ndarray, ys: np.ndarray, cfg: SeesawConfig):
    """Alternating exact best responses from a given strategy; monotone."""
    value = _objective(matrix, xs, ys)
    for _ in range(cfg.max_iterations):
        xs = _normalize_rows(matrix @ ys, xs)
        ys = _normalize_rows(matrix.T @ xs, ys)
        new_value = _objective(matrix, xs, ys)
        improvement = new_value - value
        value = new_value
        if improvement < CONVERGENCE_TOL:
            break
    return value, xs, ys


def vector_seesaw(f: CorrelationFunctional, n: int, cfg: SeesawConfig | None = None):
    """Best found value of sum_ij M_ij x_i . y_j over unit vectors in R^n.

    Alternating exact best responses (x_i follows sum_j M_ij y_j, then
    symmetrically) with the same restart and merge semantics as the quantum
    see-saw.  Returns (value, VectorStrategy).
    """
    cfg = SeesawConfig() if cfg is None else cfg
    if n < 1:
        raise ConfigError(f"vector dimension must be >= 1, got {n}")
    if f.local_norm is None:
        raise ConfigError("normalize the correlation functional before the search")
    matrix = f.matrix
    m = f.m
    best_value = -np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    for restart in range(cfg.restarts):
        rng = spawn_rng(cfg.seed, restart)
        xs = _normalize_rows(rng.normal(size=(m, n)), np.eye(m, n))
        ys = _normalize_rows(rng.normal(size=(m, n)), np.eye(m, n))
        value, xs, ys = refine_vectors(matrix, xs, ys, cfg)
        if value > best_value:
            best_value = value
            best = (xs, ys)
    assert best is not None
    return best_value, VectorStrategy(*best)


def correlator_bell(f: CorrelationFunctional) -> BellFunctional:
    """The correlation functional as an ordinary Bell functional on m binary
    settings per side: +M_ij on equal outcomes, -M_ij on unequal."""
    m = f.m
    sc = BellScenario((2,) * m, (2,) * m)
    pattern = np.array([[1.0, -1.0], [-1.0, 1.0]])
    joint = [[f.matrix[i, j] * pattern for j in range(m)] for i in range(m)]
    return BellFunctional(sc, joint)
