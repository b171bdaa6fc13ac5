"""Dense small-matrix primitives: eigenvalues and norms.

Every routine checks its input (square, finite, symmetric where required)
and hands the numerics to NumPy's LAPACK bindings.  Eigenvalues and norms
take one matrix (a float out) or a ``(..., n, n)`` stack (one value per
matrix, from one check and one LAPACK call for the whole stack).  The 1x1
case is read from the entries: exact, and the hot path of scalar certificates.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, NonSymmetricError

__all__ = [
    "symmetric_part",
    "symmetric_eigenvalues",
    "max_eigenvalue",
    "spectral_norm",
    "log_norm_2",
]

SYMMETRY_TOL = 1e-12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix has non-finite entries")
    return a


def _float_if_scalar(out: np.ndarray):
    """A 0-d result as a Python float, any other array as it is."""
    return float(out) if out.ndim == 0 else out


def symmetric_part(a) -> np.ndarray:
    """(A + A^T)/2.  Callers symmetrize explicitly; nothing here is silent."""
    a = _as_square(a)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def symmetric_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix of a stack, ascending (LAPACK ``syevd``).

    Asymmetry beyond ``SYMMETRY_TOL`` is an error; roundoff-level asymmetry
    below it is scrubbed by symmetrizing before the call.
    """
    a = _as_square(a)
    if a.shape[-1] == 1:  # symmetric by construction
        return a[..., 0, :1].copy()
    at = np.swapaxes(a, -1, -2)
    skew = np.max(np.abs(a - at)) if a.size else 0.0
    if skew > SYMMETRY_TOL:
        raise NonSymmetricError(f"asymmetry {skew:.3e} exceeds tolerance {SYMMETRY_TOL:.3e}")
    return np.linalg.eigvalsh((a + at) / 2.0)


def max_eigenvalue(a) -> float | np.ndarray:
    """Largest eigenvalue of a symmetric matrix, or of each matrix of a stack."""
    return _float_if_scalar(symmetric_eigenvalues(a)[..., -1])


def spectral_norm(a) -> float | np.ndarray:
    """Euclidean-induced matrix norm sqrt(lambda_max(A^T A)), or one per matrix of a stack."""
    a = _as_square(a)
    gram = symmetric_part(np.swapaxes(a, -1, -2) @ a)
    return _float_if_scalar(np.sqrt(np.maximum(max_eigenvalue(gram), 0.0)))


def log_norm_2(a) -> float:
    """Logarithmic norm: largest eigenvalue of the symmetric part of A."""
    return max_eigenvalue(symmetric_part(a))


def vector_norms(v) -> np.ndarray:
    """Euclidean norm along the last axis, equal to the last bit to ``np.linalg.norm`` of each vector."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.vecdot(v, v))
