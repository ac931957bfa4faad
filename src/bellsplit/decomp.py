"""Joint factorization of the amplitude pair and the sparse correlation tensor.

The antisymmetric amplitude matrix factors as u sqrt(xi) v through its
singular values; the symmetric one shares the same side unitaries up to a
real traceless coefficient matrix q. Rotating the correlation tensor into
this basis leaves five nonzero entries whose squares reproduce the closed
eigenvalue formulas, which is the capstone cross-check of the bell module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scattering import GammaPair
from .smallmat import DEFAULT_TOLERANCES, ConsistencyError, dagger, max_abs, svd2, tilde2

__all__ = [
    "DegenerateXi",
    "SemiPolar",
    "RPrime",
    "semi_polar",
    "r_prime",
]

#: Below this modulus an off-diagonal entry of the rotated gamma1 carries no phase.
_PHASE_FLOOR = 1e-14

#: Smallest xi gap (4.4e-6) the identity-rung reconstruction gate can certify: the SVD of gamma2
#: fixes u and v only to about eps / gap, and the rebuilt pair errs by 1.1-1.6 eps / gap near xi1 = xi2.
_XI_GAP_FLOOR = 2.0 * np.finfo(float).eps / DEFAULT_TOLERANCES.identity


class DegenerateXi(ValueError):
    """Squared singular values coincide, lie too close to certify, or the smaller one vanishes.

    The coefficient matrix of the joint factorization is singular there and
    no convention is fabricated for it; scan drivers perturb inputs off the
    degenerate surface instead.
    """


@dataclass(frozen=True, eq=False)
class SemiPolar:
    """gamma2 = u sqrt(xi) v and gamma1 = u q sqrt(xi) v with real traceless q."""

    u: np.ndarray
    v: np.ndarray
    xi: np.ndarray  # (xi1, xi2), descending, nonnegative
    q: np.ndarray  # real 2x2, rows (c1, c2), (c3, -c1)

    @property
    def c1(self) -> float:
        return float(self.q[0, 0])

    @property
    def c2(self) -> float:
        return float(self.q[0, 1])

    @property
    def c3(self) -> float:
        return float(self.q[1, 0])

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        sq = np.diag(np.sqrt(self.xi)).astype(complex)
        return self.u @ self.q @ sq @ self.v, self.u @ sq @ self.v


def semi_polar(g: GammaPair) -> SemiPolar:
    """Jointly factor (gamma1, gamma2) with shared side unitaries.

    Steps: svd2 of gamma2 fixes u, v and xi (cross-checked against the trace
    formulas); the rotated gamma1 has real diagonal c1 * (sqrt(xi1), -sqrt(xi2))
    with c1 = Tr gamma1† gamma2 / (xi1 - xi2); the residual off-diagonal phase
    is pulled out as a diagonal phase pair and absorbed into u and v. The sign
    freedom left in the off-diagonal couple is fixed by c2 >= 0. A failed
    cross-check raises ConsistencyError.
    """
    tol, oracle = DEFAULT_TOLERANCES.identity, DEFAULT_TOLERANCES.oracle
    g1, g2 = g.gamma1, g.gamma2
    u0, s, v0 = svd2(g2)
    xi = s**2
    t2 = g.invariants.t2
    tt2 = abs(np.trace(dagger(g2) @ tilde2(g2)))
    if abs((xi[0] + xi[1]) - t2) > tol * max(1.0, t2):
        raise ConsistencyError("singular values inconsistent with the norm of gamma2")
    if abs(2.0 * np.sqrt(xi[0] * xi[1]) - tt2) > tol * max(1.0, t2):
        raise ConsistencyError("singular values inconsistent with the spin-flip trace of gamma2")
    if xi[0] - xi[1] < tol:
        raise DegenerateXi(f"xi values {xi[0]:.3e}, {xi[1]:.3e} coincide within {tol:.1e}")
    if xi[1] < tol:
        raise DegenerateXi(f"smaller xi value {xi[1]:.3e} vanishes within {tol:.1e}")
    if xi[0] - xi[1] < _XI_GAP_FLOOR:
        raise DegenerateXi(f"xi gap {xi[0] - xi[1]:.3e} is below {_XI_GAP_FLOOR:.1e}, the reconstruction gate's floor")

    inner = g.invariants.c
    if abs(inner.imag) > oracle:
        raise ConsistencyError(f"Tr gamma1† gamma2 = {inner} is not real; invalid amplitude pair")
    c1 = inner.real / (xi[0] - xi[1])

    a = dagger(u0) @ g1 @ dagger(v0)
    if abs(a[0, 0] - c1 * np.sqrt(xi[0])) > oracle or abs(a[1, 1] + c1 * np.sqrt(xi[1])) > oracle:
        raise ConsistencyError("rotated gamma1 diagonal violates the joint-factorization structure")

    if abs(a[0, 1]) > _PHASE_FLOOR:
        phi = float(np.angle(a[0, 1]))
    elif abs(a[1, 0]) > _PHASE_FLOOR:
        phi = -float(np.angle(a[1, 0]))
    else:
        phi = 0.0
    a12 = a[0, 1] * np.exp(-1j * phi)
    a21 = a[1, 0] * np.exp(1j * phi)
    if abs(a12.imag) > oracle or abs(a21.imag) > oracle:
        raise ConsistencyError("off-diagonal couple fails to reduce to a single phase")
    a12, a21 = a12.real, a21.real
    if a12 < 0.0:  # c2 >= 0 convention; shifting the phase by pi flips both couplings
        a12, a21, phi = -a12, -a21, phi + np.pi

    d1 = np.diag([np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)])
    u = u0 @ d1
    v = d1.conj() @ v0
    q = np.array([[c1, a12 / np.sqrt(xi[1])], [a21 / np.sqrt(xi[0]), -c1]], dtype=float)

    sp = SemiPolar(u=u, v=v, xi=xi.astype(float), q=q)
    r1, r2 = sp.reconstruct()
    if max_abs(g1 - r1) > tol or max_abs(g2 - r2) > tol:
        raise ConsistencyError("joint factorization failed to reconstruct the amplitude pair")
    return sp


@dataclass(frozen=True, eq=False)
class RPrime:
    """Correlation tensor in the joint-factorization basis; five nonzero entries."""

    matrix: np.ndarray  # 3x3 real

    def eigenvalues_squared(self) -> tuple[float, float, float]:
        """Eigenvalues of matrixᵀ matrix: the closed pair from the interior block plus r22²."""
        m = self.matrix
        trace = m[0, 0] ** 2 + m[2, 0] ** 2 + m[0, 2] ** 2 + m[2, 2] ** 2
        det = (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]) ** 2
        disc = np.sqrt(max(0.0, trace**2 - 4.0 * det))
        return ((trace + disc) / 2.0, (trace - disc) / 2.0, float(m[1, 1] ** 2))


def r_prime(sp: SemiPolar, alpha_sq: float, n: float) -> RPrime:
    """Correlation tensor entries in the joint-factorization basis.

    ``n`` is the mixture normalization (twice the coincidence probability).
    """
    a = alpha_sq
    c1, c2, c3 = sp.c1, sp.c2, sp.c3
    xi1, xi2 = float(sp.xi[0]), float(sp.xi[1])
    sq12 = np.sqrt(xi1 * xi2)
    m = np.zeros((3, 3))
    m[0, 0] = 2.0 / n * (1.0 - a - (1.0 + a) * (c1**2 - c2 * c3)) * sq12
    m[0, 2] = 2.0 / n * (1.0 + a) * c1 * (c2 * xi2 + c3 * xi1)
    m[1, 1] = 2.0 / n * (-1.0 + a + (1.0 + a) * (c1**2 + c2 * c3)) * sq12
    m[2, 0] = 2.0 / n * (1.0 + a) * c1 * (c2 + c3) * sq12
    m[2, 2] = 1.0 / n * (
        ((1.0 - a) + (1.0 + a) * c1**2) * (xi1 + xi2)
        - (1.0 + a) * (c2**2 * xi2 + c3**2 * xi1)
    )
    return RPrime(m)
