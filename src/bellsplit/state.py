"""Two-qubit polarization state of the coincidence-postselected photon pair.

The density matrix is the rank-<=2 mixture of the symmetric and antisymmetric
amplitude matrices weighted by (1 +- |alpha|^2). Basis order of the flattened
two-qubit indices is (HH, HV, VH, VV), shared with the bell module so the
Pauli tensor indexing agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scattering import GammaPair, GramInvariants, HybridMatrix
from .smallmat import SIGMA_Y, as_cmat, dagger, herm_eigen, max_abs, sqrt_psd, tilde2

__all__ = [
    "ZeroCoincidence",
    "check_alpha_sq",
    "PolarizationState",
    "ConcurrenceReport",
    "MandelDip",
    "vec",
    "build_rho",
    "normalization",
    "require_coincidences",
    "empty_ensemble",
    "mixture_norm",
    "closed_form_inputs",
    "concurrence_from_invariants",
    "coincidence_denominator",
    "concurrence_closed",
    "concurrence_gamma",
    "concurrence_wootters",
    "mandel_dip",
    "concurrence_report",
]

#: Mixture norm (twice the coincidence probability) at or below which the
#: postselected ensemble counts as empty.
_N_FLOOR = 2e-14
_YY = np.kron(SIGMA_Y, SIGMA_Y)  # the spin flip of Wootters' rho~


class ZeroCoincidence(ValueError):
    """The coincidence-postselected ensemble is empty; the state is undefined."""


def empty_ensemble(norm):
    """Whether a mixture norm leaves the postselected ensemble empty; broadcasts over arrays."""
    return norm <= _N_FLOOR


def require_coincidences(norm: float) -> float:
    """Pass a mixture norm through, raising ZeroCoincidence when the ensemble is empty.

    Every scalar route to the state and to its closed forms applies this one
    test; array routes mask the cells where ``empty_ensemble`` holds.
    """
    if empty_ensemble(norm):
        raise ZeroCoincidence(f"no coincidence events survive postselection (norm {norm:.3e})")
    return norm


def check_alpha_sq(alpha_sq: float) -> None:
    """Reject a temporal overlap |alpha|^2 outside [0, 1] (NaN included)."""
    if not 0.0 <= alpha_sq <= 1.0:
        raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")


def vec(gamma) -> np.ndarray:
    """Flatten a 2x2 amplitude matrix to the (HH, HV, VH, VV) vector."""
    return as_cmat(gamma, 2).reshape(4)


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """4x4 Hermitian unit-trace density matrix with optional build provenance."""

    rho: np.ndarray
    alpha_sq: float | None = None
    gammas: GammaPair | None = None

    @classmethod
    def from_matrix(cls, rho, tol: float = 1e-10) -> "PolarizationState":
        """Wrap an externally supplied density matrix (no rank restriction)."""
        m = as_cmat(rho, 4)
        _validate_density(m, tol, check_rank=False)
        return cls(m)


def _validate_density(rho: np.ndarray, tol: float, check_rank: bool) -> None:
    if max_abs(rho - dagger(rho)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace {np.trace(rho).real!r} is not 1")
    evals = herm_eigen(rho).eigenvalues
    if evals[-1] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {evals[-1]:.3e}")
    if check_rank and evals[2] > tol:
        raise ValueError(f"density matrix rank exceeds 2 (third eigenvalue {evals[2]:.3e})")


def normalization(g: GammaPair, alpha_sq: float) -> float:
    """Weighted norm of the two-term mixture (twice the coincidence probability)."""
    t1 = float(np.trace(dagger(g.gamma1) @ g.gamma1).real)
    t2 = float(np.trace(dagger(g.gamma2) @ g.gamma2).real)
    return (1.0 + alpha_sq) * t1 + (1.0 - alpha_sq) * t2


def build_rho(g: GammaPair, alpha_sq: float) -> PolarizationState:
    """Build the postselected polarization density matrix from (gamma1, gamma2, |alpha|^2)."""
    check_alpha_sq(alpha_sq)
    norm = require_coincidences(normalization(g, alpha_sq))
    v1, v2 = vec(g.gamma1), vec(g.gamma2)
    rho = (
        (1.0 + alpha_sq) * np.outer(v1, v1.conj()) + (1.0 - alpha_sq) * np.outer(v2, v2.conj())
    ) / norm
    _validate_density(rho, 1e-10, check_rank=True)
    return PolarizationState(rho, alpha_sq=alpha_sq, gammas=g)


def mixture_norm(inv: GramInvariants, alpha_sq):
    """(1 + a) t1 + (1 - a) t2, twice the coincidence probability; broadcasts over arrays."""
    return (1.0 + alpha_sq) * inv.t1 + (1.0 - alpha_sq) * inv.t2


def closed_form_inputs(X: HybridMatrix, alpha_sq: float, statistics: str) -> tuple[GramInvariants, float]:
    """The Gram invariants of ``X`` and the mixture norm, past the alpha and empty-ensemble checks."""
    check_alpha_sq(alpha_sq)
    inv = X.invariants(statistics)
    return inv, require_coincidences(mixture_norm(inv, alpha_sq))


def concurrence_from_invariants(inv: GramInvariants, alpha_sq, norm):
    """Closed-form concurrence 2 |alpha|^2 |Tr g1† g1~| / norm, clamped to [0, 1]; broadcasts.

    Cells with a NaN norm (empty ensembles an array caller masked) give NaN.
    """
    c = 2.0 * alpha_sq * inv.tt / norm
    return np.where(c < 0.0, 0.0, np.where(c > 1.0, 1.0, c))


def coincidence_denominator(X: HybridMatrix, alpha_sq: float, statistics: str = "bosonic") -> float:
    """Probability of one photon on each side, expressed through the hybrid Gram matrix.

    For fermions the permanent and determinant trade places (the amplitude
    matrices swap), turning the bunching dip into an antibunching peak.
    """
    return float(mixture_norm(X.invariants(statistics), alpha_sq) / 2.0)


def concurrence_closed(X: HybridMatrix, alpha_sq: float, statistics: str = "bosonic") -> float:
    """Concurrence in closed form from the hybrid Gram matrix and |alpha|^2."""
    inv, norm = closed_form_inputs(X, alpha_sq, statistics)
    return float(concurrence_from_invariants(inv, alpha_sq, norm))


def concurrence_gamma(g: GammaPair, alpha_sq: float) -> float:
    """Concurrence from the amplitude matrices: 2 |alpha|^2 |Tr g1† g1~| / norm."""
    norm = require_coincidences(normalization(g, alpha_sq))
    tt = abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma1)))
    c = 2.0 * alpha_sq * tt / norm
    return float(min(max(c, 0.0), 1.0))


def concurrence_wootters(state: PolarizationState) -> float:
    """Generic two-qubit concurrence of an arbitrary density matrix.

    The four sqrt-eigenvalues of rho rho~ are obtained as the singular values
    of sqrt(rho) (sy x sy) sqrt(rho)^T, a numerically benign Hermitian-route
    equivalent of the non-Hermitian product.
    """
    sqrt_rho = sqrt_psd(state.rho)
    a = sqrt_rho @ _YY @ sqrt_rho.T
    s = np.linalg.svd(a, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


class MandelDip(NamedTuple):
    """Coincidence probability split into its classical part and the bunching dip."""

    dip: float
    classical_prob: float
    coincidence_prob: float


def mandel_dip(X: HybridMatrix, alpha_sq: float) -> MandelDip:
    """Two-photon bunching reduction of the coincidence probability (bosonic)."""
    gram = X.gram
    g_hh = gram[0, 0].real
    g_vv = gram[1, 1].real
    classical = g_hh + g_vv - 2.0 * g_hh * g_vv
    dip = -2.0 * alpha_sq * abs(gram[0, 1]) ** 2
    return MandelDip(dip=float(dip), classical_prob=float(classical), coincidence_prob=float(classical + dip))


class ConcurrenceReport(NamedTuple):
    """Concurrence via all three routes plus the coincidence bookkeeping."""

    c_closed: float
    c_gamma: float
    c_wootters: float
    mandel_dip: float
    coincidence_prob: float
    classical_prob: float


def concurrence_report(g: GammaPair, X: HybridMatrix, alpha_sq: float) -> ConcurrenceReport:
    """Evaluate the closed form, the amplitude-trace form and the generic formula."""
    state = build_rho(g, alpha_sq)
    coincidence = coincidence_denominator(X, alpha_sq, g.statistics)
    # For fermions the interference term flips sign (antibunching); report the
    # deviation from the classical probability consistently in both cases.
    classical = mandel_dip(X, alpha_sq).classical_prob
    return ConcurrenceReport(
        c_closed=concurrence_closed(X, alpha_sq, g.statistics),
        c_gamma=concurrence_gamma(g, alpha_sq),
        c_wootters=concurrence_wootters(state),
        mandel_dip=coincidence - classical,
        coincidence_prob=coincidence,
        classical_prob=classical,
    )
