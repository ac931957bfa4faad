"""Bell-CHSH correlators, the correlation tensor and the maximal violation.

Independent routes are kept side by side throughout: closed-form
eigenvalues of the correlation tensor square versus its numerically
diagonalized spectrum (the Horodecki criterion), and an oracle that builds
explicit analyzer settings from the plane-normal reduction and measures CHSH
from coincidence probabilities. Their agreement is the standing consistency
test of the whole pipeline: ``evaluate`` takes every route once at one point
and compares nothing; ``ROUTE_CHECKS`` names each point-level comparison once,
and ``emax`` and the verify campaign both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import state as state_mod
from .scattering import GammaPair, GramInvariants, HybridMatrix, gammas, realize_hybrid
from .smallmat import DEFAULT_TOLERANCES, PAULIS, ConsistencyError, Tolerances, as_cmat, dagger, first_where
from .smallmat import is_unitary
from .state import ConcurrenceReport, PolarizationState, closed_form_inputs, mixture_norm

__all__ = [
    "AnalyzerSetting",
    "BellReport",
    "coincidence_probs",
    "correlator_e",
    "correlation_matrix",
    "u_eigen_closed",
    "u_from_invariants",
    "emax_and_branch",
    "RouteCheck",
    "ROUTE_CHECKS",
    "emax",
    "chsh_bruteforce",
]

TSIRELSON = 2.0 * np.sqrt(2.0)

#: Squarings of adj(M + I) in the CHSH oracle: with l2 >= l3 the two smallest
#: eigenvalues of M, k squarings shrink the rest by ((1 + l3) / (1 + l2)) ** (2 ** k).
_SQUARINGS = 60

#: How far a closed eigenvalue u may pass 1 before the range gate fires; below 0 it may pass by the oracle rung.
_U_CEILING_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class AnalyzerSetting:
    """Local polarization mixer in front of a detector."""

    rotation: np.ndarray

    def __post_init__(self):
        m, tol = as_cmat(self.rotation, 2), DEFAULT_TOLERANCES.construction
        if not is_unitary(m, tol):
            raise ValueError(f"analyzer rotation must be unitary within {tol:g}")
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


def correlation_matrix(state: PolarizationState) -> np.ndarray:
    """3x3 real correlation tensor R_kl = Tr rho sigma_k x sigma_l by direct traces.

    When the state carries its build provenance the amplitude-form expression
    is evaluated too; disagreement beyond the identity rung raises ConsistencyError.
    """
    tol = DEFAULT_TOLERANCES.identity
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
    return ((1.0 + a) * t1 + (1.0 - a) * t2).real / mixture_norm(g.invariants, a)


#: math.hypot entry by entry: np.hypot rounds otherwise on a fraction of a
#: percent of inputs, and analyze and verify print the scalar route's bits.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def u_from_invariants(inv: GramInvariants, alpha_sq, norm, live=True):
    """Closed-form eigenvalues (u1, u2, u3) of the squared correlation tensor; broadcasts.

    u1 >= u2 by the branch choice while u3 carries the interference weight
    |alpha|^4. Every ``live`` cell must lie in [-oracle, 1 + _U_CEILING_SLACK], or
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
    escaped = live & ~((u >= -DEFAULT_TOLERANCES.oracle) & (u <= 1.0 + _U_CEILING_SLACK))
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


class Evaluation(NamedTuple):
    """Every route's value at one (amplitude pair, |alpha|^2), each taken once."""

    state: PolarizationState  # rho, with the eigenvalues its validation found
    concurrence: ConcurrenceReport  # C three ways and the Mandel numbers
    u: tuple[float, float, float]  # closed-form spectrum of R^T R
    emax_closed: float
    branch: str
    corr: np.ndarray  # R by direct traces, past its own two-route gate
    spectrum: np.ndarray  # eigvalsh(R^T R), ascending
    emax_horodecki: float


def evaluate(X: HybridMatrix, alpha_sq: float, g: GammaPair) -> Evaluation:
    """Build rho from the amplitude pair ``g`` once and take every route on it and on ``X`` once.

    ``X`` is the same splitter's hybrid matrix. Nothing is compared here and no
    oracle runs: ``emax`` and the verify campaign do both.
    """
    rho = state_mod.build_rho(g, alpha_sq)
    concurrence = state_mod.concurrence_report(rho, X)
    u = u_eigen_closed(X, alpha_sq, g.statistics)
    corr = correlation_matrix(rho)
    spectrum = np.linalg.eigvalsh(corr.T @ corr)
    emax_h = float(2.0 * np.sqrt(max(0.0, spectrum[-1] + spectrum[-2])))
    return Evaluation(rho, concurrence, u, *emax_and_branch(u), corr, spectrum, emax_h)


class BellReport(NamedTuple):
    """Maximal CHSH value via the closed form, the Horodecki spectrum and the optimizer."""

    evaluation: Evaluation  # every route behind the closed and Horodecki values
    emax_bruteforce: float

    def to_json(self) -> dict:
        ev = self.evaluation
        u1, u2, u3 = ev.u
        return dict(u1=u1, u2=u2, u3=u3, emax_closed=ev.emax_closed, emax_horodecki=ev.emax_horodecki,
                    emax_bruteforce=self.emax_bruteforce, violating=ev.emax_closed > 2.0, branch=ev.branch)


class RouteCheck(NamedTuple):
    """Two routes to one value at a point, as ``emax`` gates them and the verify campaign absorbs them."""

    suite: str  # the verify suite
    rung: str  # the field of ``Tolerances`` that bounds the deviation
    values: Callable[[Evaluation], tuple[float, float]]  # the two routes' values
    message: str  # emax's ConsistencyError text, formatted with the two values

    def deviation(self, ev: Evaluation) -> float:
        first, second = self.values(ev)
        return abs(first - second)


#: The point-level comparisons, in the order ``emax`` raises them.
ROUTE_CHECKS = (
    RouteCheck("concurrence_wootters", "oracle", attrgetter("concurrence.c_closed", "concurrence.c_wootters"),
               "concurrence routes disagree: closed {} vs generic {}"),
    RouteCheck("concurrence_gamma", "identity", attrgetter("concurrence.c_closed", "concurrence.c_gamma"),
               "concurrence routes disagree: closed {} vs amplitude form {}"),
    RouteCheck("horodecki_vs_closed", "oracle", attrgetter("emax_closed", "emax_horodecki"),
               "closed-form and Horodecki maxima disagree: {} vs {}"),
)


def emax(
    X: HybridMatrix,
    alpha_sq: float,
    gamma_pair: GammaPair | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> BellReport:
    """Maximal CHSH value of the postselected state: one ``evaluate``, its gates and the oracle.

    Each ``ROUTE_CHECKS`` row raises ConsistencyError past its rung of ``tolerances``;
    so do both maxima past Tsirelson's bound (by the default oracle rung, whatever
    ``tolerances``). Without ``gamma_pair``, a bosonic splitter realizing ``X`` supplies one.
    """
    g = gammas(realize_hybrid(X.gram)) if gamma_pair is None else gamma_pair
    ev = evaluate(X, alpha_sq, g)
    for check in ROUTE_CHECKS:
        if check.deviation(ev) > getattr(tolerances, check.rung):
            raise ConsistencyError(check.message.format(*check.values(ev)))
    emax_bf = chsh_bruteforce(ev.state, ev.corr)
    bound = TSIRELSON + DEFAULT_TOLERANCES.oracle
    if ev.emax_closed > bound or ev.emax_horodecki > bound:
        raise ConsistencyError("CHSH maximum exceeds the quantum bound")
    return BellReport(ev, float(emax_bf))


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
    rl, rlp = (AnalyzerSetting.from_axis(_left_axis(corr @ v)) for v in (b + bp, b - bp))
    rr = AnalyzerSetting.from_axis(b)
    rrp = AnalyzerSetting.from_axis(bp)
    value = abs(
        correlator_e(state, rl, rr)
        + correlator_e(state, rlp, rr)
        + correlator_e(state, rl, rrp)
        - correlator_e(state, rlp, rrp)
    )
    return float(value)


def _left_axis(v: np.ndarray) -> np.ndarray:
    """``v`` normalized; sigma_z's axis where ``v`` is too short to give a direction."""
    n = np.linalg.norm(v)
    return v / n if n > 1e-14 else np.array([0.0, 0.0, 1.0])
