"""Bell-CHSH correlators, the correlation tensor and the maximal violation.

Two independent routes are kept side by side throughout: closed-form
eigenvalues of the correlation tensor square versus its numerically
diagonalized spectrum (the Horodecki criterion), and a derivative-free
analyzer-angle search as the optimizer oracle. Their agreement is the
standing consistency test of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import state as state_mod
from .scattering import GammaPair, HybridMatrix, gammas, gram_invariants, realize_hybrid
from .smallmat import ConsistencyError, PAULIS, SIGMA_Z, as_cmat, dagger, is_unitary
from .state import PolarizationState, check_alpha_sq, normalization, require_coincidences

__all__ = [
    "AnalyzerSetting",
    "CorrelationMatrix",
    "BellReport",
    "coincidence_probs",
    "correlator_e",
    "correlation_matrix",
    "u_eigen_closed",
    "emax_and_branch",
    "emax",
    "chsh_bruteforce",
]

TSIRELSON = 2.0 * np.sqrt(2.0)

#: Polar points of the analyzer search's coarse axis grid; twice as many
#: azimuthal points make 288 axes, and pi / _N_THETA is the first descent step.
_N_THETA = 12


@dataclass(frozen=True, eq=False)
class AnalyzerSetting:
    """Local polarization mixer in front of a detector."""

    rotation: np.ndarray

    def __post_init__(self):
        m = as_cmat(self.rotation, 2)
        if not is_unitary(m, 1e-12):
            raise ValueError("analyzer rotation must be unitary within 1e-12")
        object.__setattr__(self, "rotation", m)

    @classmethod
    def from_angles(cls, theta: float, phi: float, lam: float) -> "AnalyzerSetting":
        """Three-angle unitary (global phase dropped): Rz(phi) Ry(theta) Rz(lam)."""
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        m = np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
        return cls(m)

    @classmethod
    def from_axis(cls, axis) -> "AnalyzerSetting":
        """Rotation measuring the Bloch axis ``axis``: rotation† sigma_z rotation = axis . sigma."""
        v = np.asarray(axis, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("axis must be nonzero")
        v = v / n
        theta = np.arccos(np.clip(v[2], -1.0, 1.0))
        phi = np.arctan2(v[1], v[0])
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        plus = np.array([c, np.exp(1j * phi) * s])
        minus = np.array([-np.exp(-1j * phi) * s, c])
        return cls(np.vstack([plus.conj(), minus.conj()]))

    def observable(self) -> np.ndarray:
        """The measured dichotomic observable rotation† sigma_z rotation."""
        return dagger(self.rotation) @ SIGMA_Z @ self.rotation

    def bloch_axis(self) -> np.ndarray:
        obs = self.observable()
        return np.array([np.trace(obs @ p).real / 2.0 for p in PAULIS])


def coincidence_probs(state: PolarizationState, rl: AnalyzerSetting, rr: AnalyzerSetting) -> np.ndarray:
    """Joint outcome probabilities (p_HH, p_HV, p_VH, p_VV) after local mixing."""
    u = np.kron(rl.rotation, rr.rotation)
    rotated = u @ state.rho @ dagger(u)
    return np.diag(rotated).real.copy()


def correlator_e(state: PolarizationState, rl: AnalyzerSetting, rr: AnalyzerSetting) -> float:
    """Correlator E from coincidence counts (the postselected-ratio form)."""
    p = coincidence_probs(state, rl, rr)
    total = p.sum()
    return float((p[0] + p[3] - p[1] - p[2]) / total)


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """3x3 real correlation tensor R_kl = Tr rho sigma_k x sigma_l."""

    r: np.ndarray


def correlation_matrix(state: PolarizationState, tol: float = 1e-10) -> CorrelationMatrix:
    """Correlation tensor by direct traces, cross-checked against the amplitude form.

    When the state carries its build provenance the gamma-route expression is
    evaluated too; disagreement beyond ``tol`` raises ConsistencyError.
    """
    rho = state.rho
    r = np.empty((3, 3))
    for k in range(3):
        for l in range(3):
            r[k, l] = np.trace(rho @ np.kron(PAULIS[k], PAULIS[l])).real
    if np.abs(r).max() > 1.0 + tol:
        raise ConsistencyError(f"correlation tensor entry exceeds 1: max |R_kl| = {np.abs(r).max()}")
    if state.gammas is not None and state.alpha_sq is not None:
        g1, g2 = state.gammas.gamma1, state.gammas.gamma2
        a = state.alpha_sq
        norm = normalization(state.gammas, a)
        rg = np.empty((3, 3))
        for k in range(3):
            for l in range(3):
                rg[k, l] = (
                    (1.0 + a) * np.trace(dagger(g1) @ PAULIS[k] @ g1 @ PAULIS[l].T)
                    + (1.0 - a) * np.trace(dagger(g2) @ PAULIS[k] @ g2 @ PAULIS[l].T)
                ).real / norm
        defect = np.abs(r - rg).max()
        if defect > tol:
            raise ConsistencyError(
                f"correlation tensor routes disagree: max deviation {defect:.3e} > {tol:.1e}"
            )
    return CorrelationMatrix(r)


def u_eigen_closed(
    X: HybridMatrix, alpha_sq: float, statistics: str = "bosonic"
) -> tuple[float, float, float]:
    """Closed-form eigenvalues (u1, u2, u3) of the squared correlation tensor.

    Everything enters through the hybrid Gram matrix and |alpha|^2; u1 >= u2
    by the branch choice while u3 carries the interference weight |alpha|^4.
    """
    check_alpha_sq(alpha_sq)
    a = alpha_sq
    t1, t2, tt, c = gram_invariants(X.gram, statistics)
    norm = require_coincidences((1.0 + a) * t1 + (1.0 - a) * t2)
    # u1, u2 = (T +- sqrt(T^2 - 4D)) / (2 norm^2) with T = A + B. Where u1 = u2,
    # T^2 - 4D cancels to ~1e-16 and its root to ~1e-8; the equal sum of squares
    # (A - B)^2 + 64 (1 - a^2) c^2 tt^2 keeps full precision.
    big_a = norm**2 - 4.0 * (1.0 - a**2) * (t1 * t2 - c**2)
    big_b = 4.0 * tt**2
    disc = math.hypot(big_a - big_b, 8.0 * math.sqrt(1.0 - a**2) * c * tt)
    u1 = (big_a + big_b + disc) / (2.0 * norm**2)
    u2 = (big_a + big_b - disc) / (2.0 * norm**2)
    u3 = 4.0 * a**2 * tt**2 / norm**2
    for u in (u1, u2, u3):
        if not -1e-8 <= u <= 1.0 + 1e-6:
            raise ConsistencyError(f"correlation eigenvalue {u} escapes [0, 1]")
    return float(max(u1, 0.0)), float(max(u2, 0.0)), float(max(u3, 0.0))


def emax_and_branch(u: tuple[float, float, float]) -> tuple[float, str]:
    """CHSH maximum 2 sqrt(u1 + max(u2, u3)) from the closed-form spectrum, and its active branch."""
    u1, u2, u3 = u
    return float(2.0 * np.sqrt(u1 + max(u2, u3))), "u3_active" if u3 >= u2 else "u2_active"


class BellReport(NamedTuple):
    """Maximal CHSH value via the closed form, the Horodecki spectrum and the optimizer."""

    u1: float
    u2: float
    u3: float
    emax_closed: float
    emax_horodecki: float
    emax_bruteforce: float
    violating: bool
    branch: str  # 'u3_active' or 'u2_active'

    def to_json(self) -> dict:
        return {
            "u1": self.u1,
            "u2": self.u2,
            "u3": self.u3,
            "emax_closed": self.emax_closed,
            "emax_horodecki": self.emax_horodecki,
            "emax_bruteforce": self.emax_bruteforce,
            "violating": self.violating,
            "branch": self.branch,
        }


def emax(
    X: HybridMatrix,
    alpha_sq: float,
    gamma_pair: GammaPair | None = None,
    statistics: str = "bosonic",
    tol: float = 1e-8,
) -> BellReport:
    """Maximal CHSH value of the postselected state, all three routes.

    If no amplitude pair is supplied, a scattering matrix realizing the
    hybrid matrix is constructed for the numeric routes; the result depends
    only on the Gram matrix, which the closed/numeric agreement check
    (tolerance ``tol``) re-verifies on every call.
    """
    if gamma_pair is not None:
        statistics = gamma_pair.statistics
    u = u_eigen_closed(X, alpha_sq, statistics)
    emax_closed, branch = emax_and_branch(u)

    if gamma_pair is None:
        gamma_pair = gammas(realize_hybrid(X.gram), statistics)
    rho = state_mod.build_rho(gamma_pair, alpha_sq)
    corr = correlation_matrix(rho).r
    spectrum = np.linalg.eigvalsh(corr.T @ corr)
    emax_h = 2.0 * np.sqrt(max(0.0, spectrum[-1] + spectrum[-2]))
    if abs(emax_h - emax_closed) > tol:
        raise ConsistencyError(
            f"closed-form and Horodecki maxima disagree: {emax_closed} vs {emax_h}"
        )
    emax_bf = chsh_bruteforce(rho, corr)
    if emax_closed > TSIRELSON + 1e-8 or emax_h > TSIRELSON + 1e-8:
        raise ConsistencyError("CHSH maximum exceeds the quantum bound")
    return BellReport(
        *u,
        emax_closed=emax_closed,
        emax_horodecki=float(emax_h),
        emax_bruteforce=float(emax_bf),
        violating=emax_closed > 2.0,
        branch=branch,
    )


def _sphere_axes() -> np.ndarray:
    n_phi = 2 * _N_THETA
    theta = np.pi * (np.arange(_N_THETA) + 0.5) / _N_THETA
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    return np.stack(
        [np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg), np.cos(tg)], axis=-1
    ).reshape(-1, 3)


def _axis(theta: float, phi: float) -> np.ndarray:
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def chsh_bruteforce(state: PolarizationState, corr: np.ndarray) -> float:
    """Best CHSH value found by direct search over analyzer settings.

    ``corr`` is the correlation tensor R of ``state`` (``correlation_matrix(state).r``).
    Global phases drop out of the measured observables, so each analyzer is
    searched as a Bloch axis. For fixed right-hand axes (b, b') the optimal
    left-hand pair is analytic in R, leaving a coarse 288 x 288 grid over
    (b, b') followed by deterministic coordinate descent. The final value
    re-evaluates the four correlators from coincidence probabilities at the
    best settings found.
    """
    axes = _sphere_axes()
    ra = axes @ corr.T
    plus = np.linalg.norm(ra[:, None, :] + ra[None, :, :], axis=-1)
    minus = np.linalg.norm(ra[:, None, :] - ra[None, :, :], axis=-1)
    h = plus + minus

    def objective(p):
        b = _axis(p[0], p[1])
        bp = _axis(p[2], p[3])
        return np.linalg.norm(corr @ (b + bp)) + np.linalg.norm(corr @ (b - bp))

    flat = np.argsort(h.reshape(-1))[::-1][:5]
    best_val, best_p = -np.inf, None
    thetas = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
    phis = np.arctan2(axes[:, 1], axes[:, 0])
    for idx in flat:
        i, j = divmod(int(idx), axes.shape[0])
        p = np.array([thetas[i], phis[i], thetas[j], phis[j]])
        val = objective(p)
        step = np.pi / _N_THETA
        while step > 1e-8:
            moved = False
            for k in range(4):
                for sign in (1.0, -1.0):
                    q = p.copy()
                    q[k] += sign * step
                    v = objective(q)
                    if v > val + 1e-15:
                        val, p, moved = v, q, True
            if not moved:
                step /= 2.0
        if val > best_val:
            best_val, best_p = val, p

    b = _axis(best_p[0], best_p[1])
    bp = _axis(best_p[2], best_p[3])
    va, vap = corr @ (b + bp), corr @ (b - bp)
    a_axis = va / np.linalg.norm(va) if np.linalg.norm(va) > 1e-14 else np.array([0.0, 0.0, 1.0])
    ap_axis = vap / np.linalg.norm(vap) if np.linalg.norm(vap) > 1e-14 else np.array([0.0, 0.0, 1.0])
    rl = AnalyzerSetting.from_axis(a_axis)
    rlp = AnalyzerSetting.from_axis(ap_axis)
    rr = AnalyzerSetting.from_axis(b)
    rrp = AnalyzerSetting.from_axis(bp)
    value = abs(
        correlator_e(state, rl, rr)
        + correlator_e(state, rlp, rr)
        + correlator_e(state, rl, rrp)
        - correlator_e(state, rlp, rrp)
    )
    return float(value)
