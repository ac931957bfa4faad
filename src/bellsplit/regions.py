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

from .scattering import HybridMatrix, gram_invariants
from .smallmat import DEFAULT_TOLERANCES, ConsistencyError, first_where
from .state import check_alpha_sq, concurrence_closed, concurrence_from_invariants, empty_ensemble, mixture_norm
from .bell import emax_and_branch, u_eigen_closed, u_from_invariants

__all__ = [
    "BalancedPoint",
    "ScanRow",
    "f_boundary",
    "g_boundary",
    "balanced_gram",
    "balanced_emax",
    "scan_grid",
    "scan_to_csv",
    "BOUNDARY_BAND",
]

#: Cells closer than this to the f or g curve are tagged instead of classified.
BOUNDARY_BAND = 1e-6

#: The branch check skips cells this close to f: there u2 - u3 is of order |h - f|, and rounding can flip its sign.
_CROSSOVER_BAND = 1e-9


@dataclass(frozen=True)
class BalancedPoint:
    """Point of the balanced slice: |alpha|^2 in [0, 1], |gram_HV|^2 in [0, 1/4]."""

    alpha_sq: float
    hv_sq: float

    def __post_init__(self):
        check_alpha_sq(self.alpha_sq)
        if not 0.0 <= self.hv_sq <= 0.25 + DEFAULT_TOLERANCES.construction:
            raise ValueError(f"hv_sq must lie in [0, 1/4], got {self.hv_sq}")


class ScanRow(NamedTuple):
    """The balanced slice at one cell as floats (``balanced_emax``), or over a grid as columns (``scan_grid``).

    A grid's alpha_sq has shape (n_alpha, 1), hv_sq (n_hv,) and the rest, tags included, (n_alpha, n_hv).
    """

    alpha_sq: float
    hv_sq: float
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


def balanced_gram(hv_sq) -> np.ndarray:
    """Hermitian Gram matrix with diagonal 1/2 and real off-diagonal sqrt(hv_sq).

    An array of hv_sq gives the stack of matrices, shape hv_sq.shape + (2, 2).
    """
    h = np.sqrt(hv_sq)
    gram = np.empty(np.shape(h) + (2, 2), dtype=complex)
    gram[..., 0, 0] = gram[..., 1, 1] = 0.5
    gram[..., 0, 1] = gram[..., 1, 0] = h
    return gram


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


def _check_branch(a, h, f, u2, u3) -> None:
    # Bosonic slice: the crossover curve f must predict the active branch
    # wherever u2 and u3 differ, away from a thin band around f; broadcasts.
    tie = DEFAULT_TOLERANCES.construction
    wrong = (a > 0.0) & (np.abs(u2 - u3) > tie) & ((h <= f) != (u3 >= u2)) & (np.abs(h - f) > _CROSSOVER_BAND)
    if np.any(wrong):
        a, h, u2, u3 = first_where(wrong, a, h, u2, u3)
        raise ConsistencyError(f"branch crossover prediction failed at ({a}, {h}): u2={u2}, u3={u3}")


_REGIONS = np.array(["entangled_nonviolating", "unentangled", "violating"], dtype=object)


def _region(c, e):
    """Region label from the concurrence and the CHSH maximum; broadcasts."""
    slack = DEFAULT_TOLERANCES.construction
    return _REGIONS[np.where(e > 2.0 + slack, 2, np.where(c <= slack, 1, 0))]


def balanced_emax(p: BalancedPoint, statistics: str = "bosonic") -> ScanRow:
    """Concurrence, CHSH maximum and region classification at a balanced point.

    The scan row of ``p`` without the boundary tags, through the same closed
    forms that ``scan_grid`` evaluates as arrays.
    """
    a, h = p.alpha_sq, p.hv_sq
    x = HybridMatrix(_sqrt_gram(h))
    c = concurrence_closed(x, a, statistics)
    u = u_eigen_closed(x, a, statistics)
    if statistics == "bosonic":
        _check_branch(a, h, f_boundary(a), u[1], u[2])
    e, branch = emax_and_branch(u)
    return ScanRow(a, h, c, e, branch, _region(c, e))


def scan_grid(n_alpha: int, n_hv: int, statistics: str = "bosonic") -> ScanRow:
    """Classify an n_alpha x n_hv grid of the balanced slice, as columns.

    Cells within BOUNDARY_BAND of the f or g curve are tagged 'boundary_f' /
    'boundary_g' instead of force-classified (bosonic case, where the curves
    apply). Points whose postselected ensemble is empty are tagged
    'zero_coincidence' with NaN observables.

    The grid goes through the closed forms as arrays, alpha_sq down the rows
    and hv_sq across, with every gate of ``balanced_emax`` applied to all cells.
    """
    if n_alpha < 2 or n_hv < 2:
        raise ValueError("grid needs at least 2 points per axis")
    alphas, hvs = np.linspace(0.0, 1.0, n_alpha), np.linspace(0.0, 0.25, n_hv)
    a = alphas[:, None]
    inv = gram_invariants(balanced_gram(hvs), statistics)
    norm = mixture_norm(inv, a)
    live = ~empty_ensemble(norm)
    norm = np.where(live, norm, np.nan)
    c = concurrence_from_invariants(inv, a, norm)
    with np.errstate(invalid="ignore"):  # math.hypot flags the NaN of the empty cells
        u = u_from_invariants(inv, a, norm, live)
    e, branch = emax_and_branch(u)
    region = _region(c, e)
    if statistics == "bosonic":
        f = np.array([f_boundary(x) for x in alphas.tolist()])[:, None]
        g = np.array([g_boundary(x) for x in alphas.tolist()])[:, None]
        _check_branch(a, hvs, f, u[1], u[2])
        branch = np.where(np.abs(hvs - f) < BOUNDARY_BAND, "boundary_f", branch)
        region = np.where(np.abs(hvs - g) < BOUNDARY_BAND, "boundary_g", region)
    branch = np.where(live, branch, "none")
    region = np.where(live, region, "zero_coincidence")
    return ScanRow(a, hvs, c, e, branch, region)


def scan_to_csv(grid: ScanRow) -> str:
    """Render a scan grid as the stable CSV format: a header, then one line per cell, alpha_sq major."""
    lines = ["alpha_sq,hv_sq,concurrence,emax,branch,region"]
    hvs = [f"{h!r}," for h in grid.hv_sq.tolist()]  # each coordinate's repr is formed once
    alphas = [f"{a!r}," for a in grid.alpha_sq.ravel().tolist()]
    for a, cs, es, bs, rs in zip(alphas, *(column.tolist() for column in grid[2:])):
        lines.extend(f"{a}{h}{c!r},{e!r},{b},{r}" for h, c, e, b, r in zip(hvs, cs, es, bs, rs))
    return "\n".join(lines) + "\n"
