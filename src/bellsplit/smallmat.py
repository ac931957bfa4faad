"""Exact-size complex linear algebra for the 2x2, 3x3 and 4x4 matrices used everywhere else.

Matrices are plain complex numpy arrays validated by :func:`as_cmat`. All
functions are pure; the seeded random generator is always constructed from an
explicit integer seed (PCG64), never a global, so every sample is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConsistencyError",
    "NotHermitian",
    "Tolerances",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_IN",
    "PAULIS",
    "as_cmat",
    "dagger",
    "det2",
    "tilde2",
    "max_abs",
    "first_where",
    "is_unitary",
    "haar_unitary",
    "HermEigen",
    "herm_eigen",
    "sqrt_psd",
    "svd2",
    "mat_to_json",
    "mat_from_json",
]


class NotHermitian(ValueError):
    """Raised when a Hermitian eigensolve is requested for a non-Hermitian matrix."""


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed beyond tolerance.

    This is a bug trap, not a user error: the closed forms and their numeric
    oracles must agree for every valid input.
    """


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance ladder; every check accepts an explicit override."""

    construction: float = 1e-12
    identity: float = 1e-10
    oracle: float = 1e-8

    @classmethod
    def from_profile(cls, profile: str) -> "Tolerances":
        if profile == "default":
            return cls()
        if profile == "strict":
            return cls(construction=1e-12, identity=1e-11, oracle=1e-9)
        raise ValueError(f"unknown tolerance profile {profile!r}")

    def as_dict(self) -> dict:
        return {
            "construction": self.construction,
            "identity": self.identity,
            "oracle": self.oracle,
        }


DEFAULT_TOLERANCES = Tolerances()

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
#: Rank-1 polarization matrix of one horizontal and one vertical input photon.
SIGMA_IN = (SIGMA_X + 1j * SIGMA_Y) / 2
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

def as_cmat(a, n: int) -> np.ndarray:
    """Validate ``a`` as an n x n complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m.copy()


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def det2(a: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix: diagonal product minus cross product."""
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def tilde2(a: np.ndarray) -> np.ndarray:
    """Spin-flip conjugate sigma_y a* sigma_y of a 2x2 matrix.

    Single shared definition; used by the scattering, state, bell and decomp
    layers.
    """
    return SIGMA_Y @ a.conj() @ SIGMA_Y


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def first_where(mask, *values) -> tuple[float, ...]:
    """The ``values`` at the first True cell of ``mask``, each broadcast to its shape.

    Array-wide gates use it to name the inputs of the first cell that failed.
    """
    mask = np.asarray(mask)
    at = np.unravel_index(np.argmax(mask), mask.shape)
    return tuple(float(np.broadcast_to(v, mask.shape)[at]) for v in values)


def is_unitary(a, tol: float = DEFAULT_TOLERANCES.identity) -> bool:
    """True iff max-norm of (a† a - 1) is at most ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return max_abs(dagger(m) @ m - np.eye(m.shape[0])) <= tol


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure, deterministically from ``seed``.

    Generator: numpy PCG64. Method: QR of an i.i.d. complex standard-Gaussian
    (Ginibre) matrix, with each Q column rephased by the unit phase of the
    matching R diagonal entry, which makes the distribution exactly Haar.
    Supported sizes are 2 and 4, the two unitary groups of the model.
    """
    if n not in (2, 4):
        raise ValueError(f"haar_unitary supports n in (2, 4), got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return _haar_from(n, rng)


def _haar_from(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class HermEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def herm_eigen(a, tol: float | None = None) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    Raises NotHermitian if the max-norm defect of (a - a†) exceeds
    ``tol`` (default 1e-10 relative to the matrix scale).
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(max_abs(m), 1e-300)
    limit = (1e-10 if tol is None else tol) * scale
    defect = max_abs(m - dagger(m))
    if defect > limit:
        raise NotHermitian(f"matrix is not Hermitian: defect {defect:.3e} > {limit:.3e}")
    evals, evecs = np.linalg.eigh((m + dagger(m)) / 2)
    return HermEigen(evals[::-1].copy(), evecs[:, ::-1].copy())


def sqrt_psd(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues that rounding pushed below zero are clipped to 0 first.
    """
    e = herm_eigen(a)
    return e.eigenvectors @ np.diag(np.sqrt(np.clip(e.eigenvalues, 0.0, None))) @ dagger(e.eigenvectors)


def svd2(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = u @ diag(s) @ v of a 2x2 matrix.

    ``v`` is returned so that the product above reconstructs ``a`` directly
    (it is the conjugate-transposed right factor of the usual convention).
    Singular values descend. Phases are normalized so the largest-magnitude
    entry of each ``u`` column is real positive, making the output
    deterministic for non-degenerate spectra.
    """
    m = as_cmat(a, 2)
    u, s, vh = np.linalg.svd(m)
    for j in range(2):
        i = int(np.argmax(np.abs(u[:, j])))
        z = u[i, j]
        if abs(z) > 0:
            phase = z / abs(z)
            u[:, j] /= phase
            vh[j, :] *= phase
    return u, s, vh


def mat_to_json(a) -> dict:
    """Serialize a complex matrix to the row-major re/im JSON object."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def mat_from_json(obj: dict) -> np.ndarray:
    """Read a matrix from the JSON object form, rejecting malformed payloads."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from None
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError(
            f"matrix payload length mismatch: expected {rows * cols} entries, "
            f"got re={len(re)}, im={len(im)}"
        )
    m = np.array(re, dtype=float).reshape(rows, cols) + 1j * np.array(im, dtype=float).reshape(rows, cols)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m
