"""Dense complex Hermitian linear algebra sized for local dimensions up to ~16.

Everything here is a pure function on immutable inputs.  The eigensolver is
LAPACK's Hermitian driver (``numpy.linalg.eigh``), reordered so eigenvalues
come out descending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

HERMITICITY_TOL = 1e-9


@dataclass(frozen=True)
class HermitianEig:
    """Spectral decomposition A = V diag(w) V† with eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {np.shape(a)}")
    return m


def _require_hermitian(a, tol: float) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    # NaN compares False against every tolerance, so reject it up front.
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix has non-finite entries")
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > tol:
        raise NotHermitianError(
            f"matrix deviates from Hermiticity by {deviation:.3e} (tol {tol:.1e})"
        )
    # Symmetrize once the check passed so downstream math sees an exact Hermitian.
    return (m + m.conj().T) / 2.0


def eig_hermitian(a, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Diagonalize a complex Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns.  Raises ``NotHermitianError`` if the input has
    non-finite entries or deviates from A = A† by more than ``tol``, and
    ``NoConvergenceError`` if LAPACK reports that it did not converge.

    Eigenvectors within a degenerate cluster are solver-dependent; callers
    must only rely on spectral projectors.
    """
    m = _require_hermitian(a, tol)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(
            f"LAPACK eigh failed for a {m.shape[0]}x{m.shape[0]} matrix: {exc}"
        ) from exc
    return HermitianEig(w[::-1].copy(), np.ascontiguousarray(v[:, ::-1]))


def positive_projector(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Projector onto the strictly positive eigenspace (eigenvalues > tol)."""
    eig = eig_hermitian(a, tol)
    keep = eig.eigenvalues > tol
    if not np.any(keep):
        return np.zeros_like(np.asarray(a, dtype=complex))
    vecs = eig.eigenvectors[:, keep]
    p = vecs @ vecs.conj().T
    return (p + p.conj().T) / 2.0


def psd_pseudo_sqrt(a, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Square root of a PSD matrix together with its support projector.

    Eigenvalues in [-tol, 0] are clamped to zero; anything below -tol raises
    ``NotPSDError``.  The support projector spans eigenvalues > tol, so
    ``sqrt @ sqrt`` reproduces the input and ``support`` commutes with it.
    """
    eig = eig_hermitian(a, tol)
    w = eig.eigenvalues
    if w[-1] < -tol:
        raise NotPSDError(f"eigenvalue {w[-1]:.3e} below -tol ({-tol:.1e})")
    w = np.clip(w, 0.0, None)
    v = eig.eigenvectors
    root = (v * np.sqrt(w)) @ v.conj().T
    keep = w > tol
    if np.any(keep):
        vk = v[:, keep]
        support = vk @ vk.conj().T
        support = (support + support.conj().T) / 2.0
    else:
        support = np.zeros_like(root)
    return (root + root.conj().T) / 2.0, support
