"""Dense complex Hermitian linear algebra sized for local dimensions up to ~16.

Everything here is a pure function on immutable inputs.  The eigensolver is
LAPACK's Hermitian driver (``numpy.linalg.eigh``), reordered so eigenvalues
come out descending.  ``eig_hermitian``, ``positive_projector`` and
``psd_pseudo_sqrt`` accept a single (n, n) matrix or a (..., n, n) stack of
them and work on each member independently, so one call can serve every
setting of a batch of see-saw restarts.  They take no tolerance: the module
owns ``HERMITICITY_TOL``, which is also their eigenvalue cutoff and clamp.

Eigenpairs are a plain ``(w, v)`` pair: eigenvalues descending, as (..., n),
and matching orthonormal eigenvector columns, as (..., n, n).

The module also owns the adjoint and the exact-Hermitian rule the see-saw
leans on.  ``_eigh_descending`` is ``eig_hermitian`` after its Hermiticity
check, ``_check_hermitian``, and its input must equal its adjoint bit for
bit, where the check cannot fail and its symmetrization changes no bit.  An
output of ``_hermitian_part`` does, as does ``_gram``'s, and so does the
difference of two such outputs: floating-point addition commutes and
negation is exact.  Every eigensolve the see-saw loop makes itself takes
``_eigh_descending`` on such an input (start draws, Bell operators,
F_0 - F_1, R Δ R): they are its own products, where the check could only
abort on round-off at an extreme scale.  The checked path is for matrices
callers hand in: ``QuantumModel.validate``'s settings and the arguments of
``positive_projector`` and ``psd_pseudo_sqrt``, the exchange's drifted pair
sums among them; ``refine`` checks a caller's model once, before the loop.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

HERMITICITY_TOL = 1e-9


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2, equal to its adjoint bit for bit."""
    return (m + _adjoint(m)) / 2.0


def _gram(w: np.ndarray) -> np.ndarray:
    """The Hermitian part of w w†."""
    return _hermitian_part(w @ _adjoint(w))


def _check_hermitian(m: np.ndarray) -> None:
    """``eig_hermitian``'s Hermiticity check of a (..., n, n) stack, which
    ``seesaw.refine`` also runs on a caller's model."""
    # inf - inf gives NaN, which fails the NaN-safe test below without a warning.
    with np.errstate(invalid="ignore"):
        asymmetry = np.abs(m - _adjoint(m))
    # The test is relative, so the rounding of large products is no asymmetry;
    # only a stack that fails the absolute test pays for the per-member scales.
    if not asymmetry.max() <= HERMITICITY_TOL:
        if not np.isfinite(m).all():
            raise NotHermitianError("matrix has non-finite entries")
        deviations = asymmetry.max(axis=(-1, -2))
        excess = deviations / np.maximum(1.0, np.abs(m).max(axis=(-1, -2)))
        if excess.max() > HERMITICITY_TOL:
            deviation = float(deviations.flat[excess.argmax()])
            raise NotHermitianError(f"matrix deviates from Hermiticity by {deviation:.3e} (tol {HERMITICITY_TOL:.1e})")


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a complex Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Returns ``(w, v)``: eigenvalues in descending order with matching
    orthonormal eigenvector columns.  A (..., n, n) stack gives (..., n)
    eigenvalues and (..., n, n) eigenvectors, member by member as separate
    calls would.
    Raises ``NotHermitianError`` if any member has non-finite entries or
    deviates from A = A† by more than ``HERMITICITY_TOL * max(1, max |A|)``,
    and ``NoConvergenceError`` if LAPACK reports that it did not converge.

    Eigenvectors within a degenerate cluster are solver-dependent; callers
    must only rely on spectral projectors.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {np.shape(a)}")
    _check_hermitian(m)
    # Symmetrize once the check passed so downstream math sees an exact Hermitian.
    return _eigh_descending(_hermitian_part(m))


def _eigh_descending(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eig_hermitian`` without the Hermiticity check (see the module docstring)."""
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix has non-finite entries")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(
            f"LAPACK eigh failed for a {m.shape[-1]}x{m.shape[-1]} matrix: {exc}"
        ) from exc
    return w[..., ::-1].copy(), np.ascontiguousarray(v[..., ::-1])


def _projector(w: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto the eigenvectors ``v`` with eigenvalues ``w`` above ``tol``."""
    return _gram(v * (w > tol)[..., None, :])


def positive_projector(a) -> np.ndarray:
    """Projector onto the strictly positive eigenspace (eigenvalues above
    ``HERMITICITY_TOL``), of a matrix or of each member of a (..., n, n) stack."""
    return _projector(*eig_hermitian(a), HERMITICITY_TOL)


def psd_pseudo_sqrt(a) -> np.ndarray:
    """Square root of a PSD matrix, or of each member of a (..., n, n) stack.

    Eigenvalues in [-HERMITICITY_TOL, 0] are clamped to zero; anything lower
    in any member raises ``NotPSDError``.  ``sqrt @ sqrt`` reproduces the input.
    """
    w, v = eig_hermitian(a)
    low = float(w[..., -1].min())
    if low < -HERMITICITY_TOL:
        raise NotPSDError(f"eigenvalue {low:.3e} below -tol ({-HERMITICITY_TOL:.1e})")
    return _hermitian_part((v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v))
