"""Correlation-matrix functionals: exact sign-enumeration normalization and
unit-vector see-saw lower bounds.

An m x m real matrix M defines I = sum_ij M_ij c_ij on binary-outcome
correlators c_ij in [-1, 1].  Its exact maximum over classical sign choices
(x_i, y_j = +-1) normalizes M so the local bound is 1; the maximum of the
normalized form over unit vectors in R^N (c_ij = x_i . y_j) is then a lower
bound on the order-N Grothendieck constant.  N = 3 corresponds to projective
qubit measurements on a maximally entangled pair.  The unit-vector search
itself runs on any matrix, normalized or not: ``search`` normalizes first.

The sign enumeration is ``localbound.local_bound`` on ``correlator_bell(M)``,
which flipping every sign leaves unchanged, so it scores only the 2^(m-1)
sign vectors x with x_0 fixed, under the search's one cap (m <= 26).  Bob's
two outcomes score exactly opposite, so per x it builds the m sums
sum_i M_ij x_i once and takes each y_j's best as their magnitude.  The
unit-vector search hands its raw draws, stacked (restarts, m, N) arrays, to
the quantum see-saw's restart loop, ``seesaw.drive_lockstep``, whose starts
normalize their rows, and reads the final values and vectors off the loop's
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, ZeroMatrixError, check_count
from .localbound import check_enumeration, local_bound
from .scenario import BellFunctional, BellScenario
from .seesaw import SeesawConfig, drive_lockstep, spawn_rng


@dataclass
class CorrelationFunctional:
    """An m x m correlator-coefficient matrix of finite reals."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ConfigError(f"correlation matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ConfigError("correlation matrix entries must be finite")
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
    ``local_bound`` of ``correlator_bell(M)``, whose cap is checked before
    the functional is built.  Non-square, empty or non-finite matrices raise
    ``ConfigError``."""
    cf = CorrelationFunctional(matrix)
    check_enumeration(BellScenario((2,) * cf.m, (2,) * cf.m), flip_symmetric=True)
    return local_bound(correlator_bell(cf))[0]


def normalize(matrix) -> CorrelationFunctional:
    """The matrix scaled so its exact sign-enumeration norm, ``local_norm``,
    is 1; an all-zero matrix raises ``ZeroMatrixError``."""
    return normalize_by(matrix, local_norm(matrix))


def normalize_by(matrix, norm: float) -> CorrelationFunctional:
    """``normalize`` with the matrix's ``local_norm`` already computed."""
    if norm == 0.0:
        raise ZeroMatrixError("all-zero correlation matrix cannot be normalized")
    return CorrelationFunctional(np.asarray(matrix, dtype=float) / norm)


def _normalize_rows(vectors: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Unit-normalize rows (along the last axis); rows with zero norm take
    the fallback's."""
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1, keepdims=True))
    return np.divide(vectors, norms, out=fallback.copy(), where=norms > 0.0)


def _objectives(matrix: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """sum_ij M_ij x_i . y_j for each member of (R, m, n) stacks."""
    return (matrix * (xs @ ys.transpose(0, 2, 1))).reshape(len(xs), -1).sum(axis=1)


def vector_seesaw(f: CorrelationFunctional, n: int, cfg: SeesawConfig | None = None):
    """Best found value of sum_ij M_ij x_i . y_j over unit vectors in R^n,
    for any matrix M; on a ``normalize``d one it bounds the order-n
    Grothendieck constant from below.

    Restart r draws its x vectors, then its y vectors, from
    ``spawn_rng(cfg.seed, r)``; all restarts run in lockstep as (R, m, n)
    stacks under ``drive_lockstep``, whose starts normalize the rows (a zero
    row takes e_i) and whose steps are alternating exact best responses (x_i
    follows sum_j M_ij y_j, then symmetrically).  The best value wins, the
    earliest restart on a tie, as in the quantum see-saw.  Returns (value,
    VectorStrategy).  Only an ``n`` that is not an integer >= 1 raises
    ``ConfigError``.
    """
    cfg = SeesawConfig() if cfg is None else cfg
    n = check_count(n, "vector dimension", 1)
    m, matrix, eye = f.m, f.matrix, np.eye(f.m, n)
    rngs = [spawn_rng(cfg.seed, restart) for restart in range(cfg.restarts)]
    draws = [np.array([rng.normal(size=(m, n)) for rng in rngs]) for _ in range(2)]
    starts = [
        (slot, lambda *v, slot=slot: _normalize_rows(v[slot], np.broadcast_to(eye, v[slot].shape))) for slot in (0, 1)
    ]
    steps = [(0, lambda x, y: _normalize_rows(matrix @ y, x)), (1, lambda x, y: _normalize_rows(matrix.T @ x, y))]
    values, _, _, (xs, ys), _ = drive_lockstep(draws, starts, steps, partial(_objectives, matrix), cfg.max_iterations)
    best = int(np.argmax(values))
    return float(values[best]), VectorStrategy(xs[best], ys[best])


def search(matrix, n: int, cfg: SeesawConfig):
    """``local_norm`` of a raw matrix, then ``vector_seesaw`` on the matrix
    normalized by it; ``n`` is checked before the 2^m enumeration.  Returns
    (local_norm, value, VectorStrategy)."""
    n = check_count(n, "vector dimension", 1)
    norm = local_norm(matrix)
    value, strategy = vector_seesaw(normalize_by(matrix, norm), n, cfg)
    return norm, value, strategy


def correlator_bell(f: CorrelationFunctional) -> BellFunctional:
    """The correlation functional as an ordinary Bell functional on m binary
    settings per side: +M_ij on equal outcomes, -M_ij on unequal."""
    m = f.m
    c = np.zeros((m + 1, m + 1, 2, 2))
    c[:m, :m] = f.matrix[:, :, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return BellFunctional._from_coefficients(BellScenario((2,) * m, (2,) * m), c)
