"""Bell-CHSH correlators, the correlation tensor and the maximal violation.

Independent routes are kept side by side throughout: closed-form
eigenvalues of the correlation tensor square versus its numerically
diagonalized spectrum (the Horodecki criterion), and an oracle that builds
explicit analyzer settings from the plane-normal reduction and measures CHSH
from coincidence probabilities. Their agreement is the standing consistency
test of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import state as state_mod
from .scattering import GammaPair, GramInvariants, HybridMatrix, gammas, realize_hybrid
from .smallmat import ConsistencyError, PAULIS, as_cmat, dagger, first_where, is_unitary
from .state import PolarizationState, closed_form_inputs, normalization

__all__ = [
    "AnalyzerSetting",
    "BellReport",
    "coincidence_probs",
    "correlator_e",
    "correlation_matrix",
    "u_eigen_closed",
    "u_from_invariants",
    "emax_and_branch",
    "emax",
    "chsh_bruteforce",
]

TSIRELSON = 2.0 * np.sqrt(2.0)

#: Squarings of adj(M + I) in the CHSH oracle: with l2 >= l3 the two smallest
#: eigenvalues of M, k squarings shrink the rest by ((1 + l3) / (1 + l2)) ** (2 ** k).
_SQUARINGS = 60


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


def coincidence_probs(state: PolarizationState, rl: AnalyzerSetting, rr: AnalyzerSetting) -> np.ndarray:
    """Joint outcome probabilities (p_HH, p_HV, p_VH, p_VV) after local mixing."""
    u = (rl.rotation[:, None, :, None] * rr.rotation[None, :, None, :]).reshape(4, 4)  # rl x rr
    rotated = u @ state.rho @ dagger(u)
    return np.diag(rotated).real.copy()


def correlator_e(state: PolarizationState, rl: AnalyzerSetting, rr: AnalyzerSetting) -> float:
    """Correlator E from coincidence counts (the postselected-ratio form)."""
    p = coincidence_probs(state, rl, rr)
    total = p.sum()
    return float((p[0] + p[3] - p[1] - p[2]) / total)


_SIGMAS = np.array(PAULIS)
#: Row 3k + l is (sigma_k x sigma_l)^T flattened: Tr rho (sigma_k x sigma_l) is its dot with rho flattened.
_PAULI_PAIRS = np.array([np.kron(pk, pl).T.ravel() for pk in PAULIS for pl in PAULIS])


def correlation_matrix(state: PolarizationState, tol: float = 1e-10) -> np.ndarray:
    """3x3 real correlation tensor R_kl = Tr rho sigma_k x sigma_l by direct traces.

    When the state carries its build provenance the amplitude-form expression
    is evaluated too; disagreement beyond ``tol`` raises ConsistencyError.
    """
    # Bit-equal to the 4x4 traces (same pairwise sums); copied, as matmuls round by memory layout.
    r = (_PAULI_PAIRS * state.rho.ravel()).sum(axis=1).real.reshape(3, 3).copy()
    if np.abs(r).max() > 1.0 + tol:
        raise ConsistencyError(f"correlation tensor entry exceeds 1: max |R_kl| = {np.abs(r).max()}")
    if state.gammas is not None and state.alpha_sq is not None:
        defect = np.abs(r - _correlation_from_gammas(state.gammas, state.alpha_sq)).max()
        if defect > tol:
            raise ConsistencyError(
                f"correlation tensor routes disagree: max deviation {defect:.3e} > {tol:.1e}"
            )
    return r


def _correlation_from_gammas(g: GammaPair, a: float) -> np.ndarray:
    """R_kl in amplitude form: (1 + a) Tr(g1† sigma_k g1 sigma_l^T) + (1 - a) (same of g2), over the norm."""
    t1, t2 = (np.einsum("ba,kbc,cd,lad->kl", gm.conj(), _SIGMAS, gm, _SIGMAS) for gm in (g.gamma1, g.gamma2))
    return ((1.0 + a) * t1 + (1.0 - a) * t2).real / normalization(g, a)


#: math.hypot entry by entry: np.hypot rounds otherwise on a fraction of a
#: percent of inputs, and analyze and verify print the scalar route's bits.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def u_from_invariants(inv: GramInvariants, alpha_sq, norm, live=True):
    """Closed-form eigenvalues (u1, u2, u3) of the squared correlation tensor; broadcasts.

    u1 >= u2 by the branch choice while u3 carries the interference weight
    |alpha|^4. Every ``live`` cell must lie in [-1e-8, 1 + 1e-6], or
    ConsistencyError names the inputs of the first that does not; callers
    pass ``live=False`` (and a NaN norm) where the ensemble is empty. On
    Python floats ``x**2`` goes through libm pow, on arrays it squares
    exactly, so an array cell can differ from the scalar route by an ulp.
    """
    a = alpha_sq
    t1, t2, tt, c = inv
    # u1, u2 = (T +- sqrt(T^2 - 4D)) / (2 norm^2) with T = A + B. Where u1 = u2,
    # T^2 - 4D cancels to ~1e-16 and its root to ~1e-8; the equal sum of squares
    # (A - B)^2 + 64 (1 - a^2) c^2 tt^2 keeps full precision.
    big_a = norm**2 - 4.0 * (1.0 - a**2) * (t1 * t2 - c**2)
    big_b = 4.0 * tt**2
    disc = np.asarray(_hypot(big_a - big_b, 8.0 * np.sqrt(1.0 - a**2) * c * tt), dtype=float)
    u1 = (big_a + big_b + disc) / (2.0 * norm**2)
    u2 = (big_a + big_b - disc) / (2.0 * norm**2)
    u3 = 4.0 * a**2 * tt**2 / norm**2
    u = np.array([u1, u2, u3])
    escaped = live & ~((u >= -1e-8) & (u <= 1.0 + 1e-6))
    if escaped.any():
        value, a_at, *inv_at = first_where(escaped, u, a, *inv)
        raise ConsistencyError(
            f"correlation eigenvalue {value} escapes [0, 1] at alpha_sq={a_at!r}, "
            f"(t1, t2, tt, c)={tuple(inv_at)!r}"
        )
    return tuple(np.where(u < 0.0, 0.0, u))


def u_eigen_closed(
    X: HybridMatrix, alpha_sq: float, statistics: str = "bosonic"
) -> tuple[float, float, float]:
    """Closed-form eigenvalues (u1, u2, u3) of the squared correlation tensor.

    Everything enters through the hybrid Gram matrix and |alpha|^2.
    """
    inv, norm = closed_form_inputs(X, alpha_sq, statistics)
    u1, u2, u3 = u_from_invariants(inv, alpha_sq, norm)
    return float(u1), float(u2), float(u3)


_BRANCHES = np.array(["u2_active", "u3_active"], dtype=object)


def emax_and_branch(u):
    """CHSH maximum 2 sqrt(u1 + max(u2, u3)) from the closed-form spectrum, and its active branch.

    Broadcasts: arrays of (u1, u2, u3) give an array of maxima and one of labels.
    """
    u1, u2, u3 = u
    e = 2.0 * np.sqrt(u1 + np.where(u3 > u2, u3, u2))
    branch = _BRANCHES[np.asarray(u3 >= u2, dtype=np.intp)]
    return (float(e), branch) if np.ndim(e) == 0 else (e, branch)


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
    corr = correlation_matrix(rho)
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


def chsh_bruteforce(state: PolarizationState, corr: np.ndarray) -> float:
    """CHSH value measured at analyzer settings built from the plane-normal reduction.

    ``corr`` is the correlation tensor R of ``state`` (``correlation_matrix(state)``).
    For right-hand axes b, b' spanning a plane with unit normal n, the best
    left-hand axes are R(b + b') and R(b - b') normalized, and the best CHSH
    value over that plane is 2 sqrt(Tr M - n^T M n) with M = R^T R. The normal
    is therefore M's eigenvector of smallest eigenvalue, taken as the dominant
    eigenvector of adj(M + I) by normalized repeated squaring: no solve and no
    eigensolver, and where the two smallest eigenvalues nearly tie, the value
    no longer depends on which normal is reached. The returned value is
    re-measured from coincidence probabilities by four correlators at the
    settings so built, so it stays a physical lower bound on E_max.
    """
    m = corr.T @ corr + np.eye(3)
    p = np.cross(m[[1, 2, 0]], m[[2, 0, 1]])  # adj(M + I), positive definite
    for _ in range(_SQUARINGS):
        p = p @ p
        p /= p.max()
    n = p[np.argmax(np.linalg.norm(p, axis=1))]
    _, c, d = np.linalg.qr(n[:, None], mode="complete")[0].T  # an orthonormal basis of the plane normal to n
    t = math.atan2(np.linalg.norm(corr @ d), np.linalg.norm(corr @ c))
    b = math.cos(t) * c + math.sin(t) * d
    bp = math.cos(t) * c - math.sin(t) * d
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
