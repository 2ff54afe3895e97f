import warnings

import numpy as np
import pytest

from dimwit import linalg
from dimwit.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

from conftest import random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_identity_eigenvalues():
    eig = linalg.eig_hermitian(np.eye(3))
    assert np.allclose(eig[0], [1.0, 1.0, 1.0])


def test_pauli_x_spectrum():
    eig = linalg.eig_hermitian(SX)
    assert np.allclose(eig[0], [1.0, -1.0])


def test_eigenvalues_descending_and_match_prescribed_spectrum(rng):
    """A = Q diag(w) Q† with w fixed in advance, so no second eigensolver is
    the oracle; w repeats one value to check the projector onto a cluster."""
    for n in (3, 5, 9, 12, 16):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        w = np.linspace(-1.0, 1.0, n)
        c = n // 2
        w[c + 1] = w[c]
        eig = linalg.eig_hermitian((q * w) @ q.conj().T)
        assert np.all(np.diff(eig[0]) <= 0)
        assert np.abs(eig[0] - np.sort(w)[::-1]).max() < 1e-11
        cluster = np.abs(eig[0] - w[c]) < 1e-8
        assert cluster.sum() == 2
        v = eig[1][:, cluster]
        q_c = q[:, [c, c + 1]]
        assert np.abs(v @ v.conj().T - q_c @ q_c.conj().T).max() < 1e-10


def test_reconstruction_and_orthonormality(rng):
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a = random_hermitian(rng, n)
        eig = linalg.eig_hermitian(a)
        rebuilt = (eig[1] * eig[0]) @ eig[1].conj().T
        assert np.abs(a - rebuilt).max() < 1e-10
        gram = eig[1].conj().T @ eig[1]
        assert np.abs(gram - np.eye(n)).max() < 1e-10


def test_large_norm_input_still_converges(rng):
    a = 1e8 * random_hermitian(rng, 6)
    eig = linalg.eig_hermitian(a)
    rebuilt = (eig[1] * eig[0]) @ eig[1].conj().T
    assert np.abs(a - rebuilt).max() < 1e-10 * np.linalg.norm(a)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        linalg.eig_hermitian(np.zeros((2, 3)))


def test_non_finite_input_rejected():
    with pytest.raises(NotHermitianError):
        linalg.eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitianError):
        linalg.positive_projector(np.diag([np.inf, 1.0]))


def test_unchecked_eigensolve_rejects_a_non_finite_stack(monkeypatch):
    def refuse(a):
        raise AssertionError("LAPACK ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    stack = np.stack([np.eye(2), np.diag([np.nan, 1.0])])
    with pytest.raises(NotHermitianError, match="^matrix has non-finite entries$"):
        linalg._eigh_descending(stack)


def test_lapack_failure_raises_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError):
        linalg.eig_hermitian(SX)


def test_positive_projector_examples():
    assert np.allclose(linalg.positive_projector(SZ), np.diag([1.0, 0.0]))
    assert np.allclose(linalg.positive_projector(-np.eye(2)), np.zeros((2, 2)))
    assert np.allclose(linalg.positive_projector(SX), np.full((2, 2), 0.5))


def test_positive_projector_idempotent_and_commutes(rng):
    for _ in range(25):
        a = random_hermitian(rng, int(rng.integers(2, 7)))
        p = linalg.positive_projector(a)
        assert np.abs(p @ p - p).max() < 1e-9
        assert np.abs(a @ p - p @ a).max() < 1e-9


def test_psd_pseudo_sqrt_examples():
    assert np.allclose(linalg.psd_pseudo_sqrt(np.eye(4)), np.eye(4))
    assert np.allclose(linalg.psd_pseudo_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))
    p = np.full((2, 2), 0.5)  # rank-1 projector is its own root
    assert np.abs(linalg.psd_pseudo_sqrt(p) - p).max() < 1e-12


def test_psd_pseudo_sqrt_squares_back(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g @ g.conj().T  # PSD by construction
        root = linalg.psd_pseudo_sqrt(a)
        assert np.abs(root @ root - a).max() < 1e-9


def test_psd_pseudo_sqrt_clamps_and_rejects():
    root = linalg.psd_pseudo_sqrt(np.diag([1.0, -5e-10]))
    assert np.allclose(root, np.diag([1.0, 0.0]))
    with pytest.raises(NotPSDError):
        linalg.psd_pseudo_sqrt(np.diag([1.0, -1e-6]))


def _stack(rng, k, n):
    s = np.stack([random_hermitian(rng, n) for _ in range(k)])
    s[1] = -np.eye(n) - s[1] @ s[1]  # negative definite: an empty positive part
    return s


def test_stack_matches_per_matrix_calls(rng):
    for n in (2, 3, 4):
        stack = _stack(rng, 5, n)
        eig = linalg.eig_hermitian(stack)
        proj = linalg.positive_projector(stack)
        assert eig[0].shape == (5, n) and eig[1].shape == (5, n, n)
        assert proj.shape == (5, n, n)
        for member, w, v, p in zip(stack, eig[0], eig[1], proj):
            single = linalg.eig_hermitian(member)
            assert np.abs(w - single[0]).max() < 1e-12
            assert np.abs(v - single[1]).max() < 1e-12
            assert np.abs(p - linalg.positive_projector(member)).max() < 1e-12
        assert not proj[1].any()
        psd = stack @ stack
        roots = linalg.psd_pseudo_sqrt(psd)
        for member, root in zip(psd, roots):
            assert np.abs(root - linalg.psd_pseudo_sqrt(member)).max() < 1e-12


def test_stack_rejects_one_bad_member(rng):
    for bad in (np.nan, 1.0):  # non-finite, then non-Hermitian
        stack = _stack(rng, 4, 3)
        stack[2, 0, 1] += bad
        with pytest.raises(NotHermitianError):
            linalg.eig_hermitian(stack)
        with pytest.raises(NotHermitianError):
            linalg.positive_projector(stack)
    with pytest.raises(DimensionMismatchError):
        linalg.eig_hermitian(np.zeros((3, 2, 3)))
    with pytest.raises(NotPSDError):  # one member below -tol rejects the stack
        linalg.psd_pseudo_sqrt(np.stack([np.eye(2), np.diag([1.0, -1e-6])]))


def test_stack_lapack_failure_raises_no_convergence(rng, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergenceError):
        linalg.positive_projector(_stack(rng, 3, 2))


def _non_finite_cases():
    inf = np.inf
    cases = {
        "nan-off-diagonal": [[0.0, np.nan], [0.0, 1.0]],
        "inf-off-diagonal": [[0.0, inf], [0.0, 1.0]],
        "minus-inf-off-diagonal": [[0.0, -inf], [0.0, 1.0]],
        "inf-both-off-diagonals": [[0.0, inf], [inf, 1.0]],
        "inf-diagonal": [[inf, 0.0], [0.0, 1.0]],
        "complex-inf": [[0.0, complex(inf, inf)], [complex(inf, -inf), 1.0]],
    }
    return {k: np.array(v, dtype=complex) for k, v in cases.items()}


@pytest.mark.parametrize("name", sorted(_non_finite_cases()))
def test_non_finite_entries_raise_without_a_warning(name):
    """Each non-finite pattern, alone or inside a stack, is rejected with the
    non-finite message and no ``RuntimeWarning`` (inf - inf is NaN)."""
    m = _non_finite_cases()[name]
    stack = np.stack([np.eye(2, dtype=complex), m])
    for a in (m, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="^matrix has non-finite entries$"):
                linalg.eig_hermitian(a)


def test_deviation_just_above_tol_rejected_at_unit_scale():
    tol = linalg.HERMITICITY_TOL
    for scale in (1.0, 0.5, 1e-6):  # max |m| <= 1: the tolerance is absolute
        for offset, ok in ((0.9 * tol, True), (1.1 * tol, False)):
            m = np.array([[0.0, scale], [scale + offset, 0.0]], dtype=complex)
            if ok:
                linalg.eig_hermitian(m)
            else:
                with pytest.raises(NotHermitianError, match="deviates from Hermiticity by 1.100e-09"):
                    linalg.eig_hermitian(m)


def test_tolerance_is_relative_to_each_members_largest_entry(rng):
    """Above unit scale the tolerance grows with max |m|, so a product of
    large entries passes; a large member does not loosen a small one."""
    tol = linalg.HERMITICITY_TOL
    big = 1e8 * random_hermitian(rng, 3)
    top = np.abs(big).max()
    for factor, ok in ((0.9, True), (1.1, False)):
        m = big.copy()
        m[0, 1] += factor * tol * top
        if ok:
            linalg.eig_hermitian(m)
        else:
            with pytest.raises(NotHermitianError, match="deviates from Hermiticity"):
                linalg.eig_hermitian(m)
    small = np.zeros((3, 3), dtype=complex)
    small[0, 1] = 2 * tol
    with pytest.raises(NotHermitianError, match="deviates from Hermiticity by 2.000e-09"):
        linalg.eig_hermitian(np.stack([big, small]))


def test_guard_output_is_the_exact_symmetrization(rng):
    """A nearly Hermitian input is diagonalized as its exact symmetrization."""
    for shape in ((3, 3), (5, 4, 4), (2, 3, 2, 2)):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = (g + g.conj().swapaxes(-1, -2)) / 2.0 + 1e-12 * g
        got = linalg.eig_hermitian(m)
        want = linalg._eigh_descending((m + m.conj().swapaxes(-1, -2)) / 2.0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
