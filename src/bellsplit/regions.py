"""Balanced-splitter slice of parameter space and its region map.

For a splitter with both diagonal Gram entries equal to 1/2 the plane is
spanned by the temporal indistinguishability |alpha|^2 and the polarization
indistinguishability |gram_HV|^2 <= 1/4. Two curves organize it: f marks the
crossover between the active eigenvalue branches of the CHSH maximum, and g
marks the contour where the maximum equals the classical bound 2. Between g
and the concurrence zeros lies the region of entangled states that cannot
violate the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scattering import HybridMatrix, ScatteringMatrix, realize_hybrid
from .smallmat import ConsistencyError
from .state import ZeroCoincidence, check_alpha_sq, concurrence_closed, require_coincidences
from .bell import emax_and_branch, u_eigen_closed

__all__ = [
    "BalancedPoint",
    "RegionReport",
    "ScanRow",
    "f_boundary",
    "g_boundary",
    "balanced_gram",
    "realize_balanced",
    "balanced_concurrence",
    "balanced_emax",
    "no_mixing_case",
    "NoMixingResult",
    "scan_grid",
    "scan_to_csv",
    "BOUNDARY_BAND",
]

#: Cells closer than this to the f or g curve are tagged instead of classified.
BOUNDARY_BAND = 1e-6


@dataclass(frozen=True)
class BalancedPoint:
    """Point of the balanced slice: |alpha|^2 in [0, 1], |gram_HV|^2 in [0, 1/4]."""

    alpha_sq: float
    hv_sq: float

    def __post_init__(self):
        check_alpha_sq(self.alpha_sq)
        if not 0.0 <= self.hv_sq <= 0.25 + 1e-12:
            raise ValueError(f"hv_sq must lie in [0, 1/4], got {self.hv_sq}")


@dataclass(frozen=True)
class RegionReport:
    concurrence: float
    emax: float
    branch: str  # 'u3_active' or 'u2_active'
    region: str  # 'violating', 'entangled_nonviolating' or 'unentangled'


def f_boundary(alpha_sq: float) -> float:
    """Branch crossover: below this hv_sq the interference eigenvalue is active."""
    check_alpha_sq(alpha_sq)
    return float(alpha_sq / (2.0 * (1.0 + alpha_sq)))


def g_boundary(alpha_sq: float) -> float:
    """Contour where the maximal CHSH value equals the classical bound 2."""
    check_alpha_sq(alpha_sq)
    a = alpha_sq
    return float(0.25 * (1.0 - a + a**2 - (1.0 - a) * np.sqrt(1.0 + a**2)))


def balanced_gram(hv_sq: float) -> np.ndarray:
    """Hermitian Gram matrix with diagonal 1/2 and real off-diagonal sqrt(hv_sq)."""
    h = np.sqrt(hv_sq)
    return np.array([[0.5, h], [h, 0.5]], dtype=complex)


def realize_balanced(p: BalancedPoint) -> ScatteringMatrix:
    """An explicit unitary splitter realizing the balanced Gram matrix of ``p``."""
    return realize_hybrid(balanced_gram(p.hv_sq))


def balanced_concurrence(p: BalancedPoint, statistics: str = "bosonic") -> float:
    """Concurrence on the balanced slice.

    Bosonic case uses the slice formula a (1 - 4 h) / (1 - 4 a h); the
    fermionic case falls back to the general closed form on the balanced Gram
    matrix (the slice formula is specific to bunching statistics).
    """
    a, h = p.alpha_sq, p.hv_sq
    if statistics == "bosonic":
        # On the slice the mixture norm is 1 - 4 a h.
        return float(a * (1.0 - 4.0 * h) / require_coincidences(1.0 - 4.0 * a * h))
    return concurrence_closed(HybridMatrix(_sqrt_gram(p.hv_sq)), a, statistics)


def _sqrt_gram(hv_sq: float) -> np.ndarray:
    # Hermitian square root of the balanced Gram matrix: eigenvalues 1/2 +- h
    # on the (1, +-1)/sqrt(2) eigenvectors.
    h = np.sqrt(hv_sq)
    plus = np.sqrt(max(0.0, 0.5 + h))
    minus = np.sqrt(max(0.0, 0.5 - h))
    return np.array(
        [[(plus + minus) / 2.0, (plus - minus) / 2.0], [(plus - minus) / 2.0, (plus + minus) / 2.0]],
        dtype=complex,
    )


def balanced_emax(p: BalancedPoint, statistics: str = "bosonic") -> RegionReport:
    """CHSH maximum and region classification at a balanced point."""
    a, h = p.alpha_sq, p.hv_sq
    c = balanced_concurrence(p, statistics)
    x = HybridMatrix(_sqrt_gram(h))
    u = u_eigen_closed(x, a, statistics)
    _, u2, u3 = u
    if statistics == "bosonic" and a > 0.0 and abs(u2 - u3) > 1e-12:
        # The branch predicted by the crossover curve must match the actual
        # ordering; at a tie either branch is acceptable.
        predicted_u3 = h <= f_boundary(a)
        if predicted_u3 != (u3 >= u2) and abs(h - f_boundary(a)) > 1e-9:
            raise ConsistencyError(
                f"branch crossover prediction failed at ({a}, {h}): u2={u2}, u3={u3}"
            )
    e, branch = emax_and_branch(u)
    if e > 2.0 + 1e-12:
        region = "violating"
    elif c <= 1e-12:
        region = "unentangled"
    else:
        region = "entangled_nonviolating"
    return RegionReport(concurrence=c, emax=e, branch=branch, region=region)


class NoMixingResult(NamedTuple):
    c: float
    emax: float


def no_mixing_case(X: HybridMatrix, alpha_sq: float) -> NoMixingResult:
    """Special case of a diagonal Gram matrix: no polarization which-path mixing.

    The concurrence reduces to the product of the diagonal fluctuation terms
    and the CHSH maximum to the pure-state-like relation 2 sqrt(1 + C^2);
    both are cross-checked against the general pipeline.
    """
    gram = X.gram
    if abs(gram[0, 1]) > 1e-12:
        raise ValueError(f"no-mixing case requires a diagonal Gram matrix, off-diagonal {gram[0, 1]}")
    g_hh, g_vv = gram[0, 0].real, gram[1, 1].real
    den = g_hh + g_vv - 2.0 * g_hh * g_vv
    require_coincidences(2.0 * den)
    c = 2.0 * alpha_sq * np.sqrt(max(0.0, g_hh * (1.0 - g_hh) * g_vv * (1.0 - g_vv))) / den
    e = 2.0 * np.sqrt(1.0 + c**2)
    c_general = concurrence_closed(X, alpha_sq)
    e_general, _ = emax_and_branch(u_eigen_closed(X, alpha_sq))
    if abs(c - c_general) > 1e-10 or abs(e - e_general) > 1e-10:
        raise ConsistencyError(
            f"no-mixing formulas disagree with the general pipeline: "
            f"C {c} vs {c_general}, E {e} vs {e_general}"
        )
    return NoMixingResult(c=float(c), emax=float(e))


@dataclass(frozen=True)
class ScanRow:
    alpha_sq: float
    hv_sq: float
    concurrence: float
    emax: float
    branch: str
    region: str


def scan_grid(n_alpha: int, n_hv: int, statistics: str = "bosonic") -> list[ScanRow]:
    """Classify an n_alpha x n_hv grid of the balanced slice, row order lexicographic.

    Cells within BOUNDARY_BAND of the f or g curve are tagged 'boundary_f' /
    'boundary_g' instead of force-classified (bosonic case, where the curves
    apply). Points whose postselected ensemble is empty are tagged
    'zero_coincidence' with NaN observables.
    """
    if n_alpha < 2 or n_hv < 2:
        raise ValueError("grid needs at least 2 points per axis")
    rows = []
    for a in np.linspace(0.0, 1.0, n_alpha):
        for h in np.linspace(0.0, 0.25, n_hv):
            point = BalancedPoint(float(a), float(h))
            try:
                rep = balanced_emax(point, statistics)
            except ZeroCoincidence:
                rows.append(ScanRow(float(a), float(h), float("nan"), float("nan"), "none", "zero_coincidence"))
                continue
            branch, region = rep.branch, rep.region
            if statistics == "bosonic":
                if abs(h - f_boundary(float(a))) < BOUNDARY_BAND:
                    branch = "boundary_f"
                if abs(h - g_boundary(float(a))) < BOUNDARY_BAND:
                    region = "boundary_g"
            rows.append(ScanRow(float(a), float(h), rep.concurrence, rep.emax, branch, region))
    return rows


def scan_to_csv(rows: list[ScanRow]) -> str:
    """Render scan rows as the stable CSV format (header plus one line per cell)."""
    lines = ["alpha_sq,hv_sq,concurrence,emax,branch,region"]
    for row in rows:
        lines.append(
            f"{row.alpha_sq!r},{row.hv_sq!r},{row.concurrence!r},{row.emax!r},{row.branch},{row.region}"
        )
    return "\n".join(lines) + "\n"
