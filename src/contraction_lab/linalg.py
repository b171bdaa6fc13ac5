"""Dense small-matrix primitives: eigenvalues, norms, definiteness tests.

Every routine checks its input (square, finite, symmetric where required)
and hands the numerics to NumPy's LAPACK bindings.  The 1x1 case is
answered directly: it is exact, and it is the hot path of the scalar grid
certificates, where a LAPACK call would cost several microseconds a point.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, NonSymmetricError

SYMMETRY_TOL = 1e-12


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix has non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > tol:
        raise NonSymmetricError(f"asymmetry {skew:.3e} exceeds tolerance {tol:.3e}")


def symmetric_part(a) -> np.ndarray:
    """(A + A^T)/2.  Callers symmetrize explicitly; nothing here is silent."""
    a = _as_square(a)
    return (a + a.T) / 2.0


def symmetric_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``syevd``).

    Asymmetry beyond ``SYMMETRY_TOL`` is an error; roundoff-level asymmetry
    below it is scrubbed by symmetrizing before the call.
    """
    a = _as_square(a)
    if a.shape[0] == 1:  # symmetric by construction
        return a[0, :1].copy()
    _require_symmetric(a)
    return np.linalg.eigvalsh((a + a.T) / 2.0)


def max_eigenvalue(a) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(symmetric_eigenvalues(a)[-1])


def spectral_norm(a) -> float:
    """Euclidean-induced matrix norm, computed as sqrt(lambda_max(A^T A))."""
    a = _as_square(a)
    gram = symmetric_part(a.T @ a)
    return float(np.sqrt(max(max_eigenvalue(gram), 0.0)))


def log_norm_2(a) -> float:
    """Logarithmic norm: largest eigenvalue of the symmetric part of A."""
    a = _as_square(a)
    return max_eigenvalue(symmetric_part(a))


def vector_norms(v) -> np.ndarray:
    """Euclidean norm along the last axis, equal to the last bit to ``np.linalg.norm`` of each vector."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.vecdot(v, v))


def is_negative_definite(a, margin: float = 0.0) -> bool:
    """True iff lambda_max(A) <= -margin (strict < 0 when margin == 0)."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    lam = max_eigenvalue(a)
    if margin == 0.0:
        return lam < 0.0
    return lam <= -margin
