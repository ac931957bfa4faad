import numpy as np
import pytest

from bellsplit.regions import ScanRow
from bellsplit.scattering import preset
from bellsplit.smallmat import haar_unitary


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(202406))


def haar_ensemble(n, count, base_seed=1000):
    """Deterministic list of Haar unitaries for property loops."""
    return [haar_unitary(n, base_seed + i) for i in range(count)]


def mixing_times_drift(theta, seed, steps):
    """Splitters balanced_mixing(theta) exp(i d H), one per d in ``steps``.

    H is the Hermitian part of a complex Gaussian 4x4 matrix drawn from
    ``default_rng(seed)``. Under fermionic statistics small d brings the two
    xi values of gamma2 together, so the family probes the joint
    factorization near its degenerate surface.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    base = preset("balanced_mixing", theta).s
    return [base @ v @ np.diag(np.exp(1j * d * w)) @ v.conj().T for d in steps]


def scan_cells(grid):
    """A scan grid's columns as one ScanRow of floats and labels per cell, alpha_sq major.

    The per-cell reference for the column writer, and the row view the scan tests read.
    """
    alphas, hvs = grid.alpha_sq.ravel().tolist(), grid.hv_sq.tolist()
    columns = zip(*(column.ravel().tolist() for column in grid[2:]))
    coords = ((a, h) for a in alphas for h in hvs)
    return [ScanRow(a, h, *cell) for (a, h), cell in zip(coords, columns)]


def scan_cells_to_csv(cells):
    """The scan CSV written one cell at a time, from ``scan_cells``: the reference for ``scan_to_csv``."""
    lines = ["alpha_sq,hv_sq,concurrence,emax,branch,region"]
    lines.extend(f"{a!r},{h!r},{c!r},{e!r},{branch},{region}" for a, h, c, e, branch, region in cells)
    return "\n".join(lines) + "\n"
