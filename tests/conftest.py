import math

import numpy as np
import pytest

from bellsplit.regions import ScanRow
from bellsplit.scattering import preset
from bellsplit.smallmat import haar_unitary
from bellsplit.wavepacket import _gauss_legendre


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


def per_packet_alpha_infinite(psi, phi):
    """Infinite-window alpha of two tabulated packets, each amplitude taken anew for every integral.

    The reference for the shared-grid path: the overlap on the union of the two
    grids and each norm on its packet's own grid, by the library's 4-point
    Gauss-Legendre panels with every grid node an edge.
    """

    def integral(fn, lo, hi, packets):
        edges = [np.array([lo, hi])] + [p.omega[(lo < p.omega) & (p.omega < hi)] for p in packets]
        edges = np.unique(np.concatenate(edges))
        nodes, weights = _gauss_legendre(4)
        half = np.diff(edges)[:, None] / 2.0
        return np.sum(weights * half * fn(edges[:-1, None] + half * (nodes + 1.0)))

    lo, hi = max(psi.omega[0], phi.omega[0]), min(psi.omega[-1], phi.omega[-1])
    num = integral(lambda w: phi.amplitude(w) * np.conj(psi.amplitude(w)), lo, hi, (psi, phi))
    norms = [integral(lambda w, p=p: np.abs(p.amplitude(w)) ** 2, *p.support(), (p,)) for p in (psi, phi)]
    return complex(num) / np.sqrt(norms[0].real * norms[1].real)


def per_packet_alpha_finite(psi, phi, t, tau):
    """Finite-window alpha with each packet's own ``time_amplitude`` per block of 64 time nodes.

    The reference for the shared-grid path: ceil(Omega tau / 16) panels of 24
    Gauss-Legendre nodes, Omega the span of the union of the supports.
    """
    beat = max(psi.support()[1], phi.support()[1]) - min(psi.support()[0], phi.support()[0])
    n = max(1, math.ceil(beat * tau / 16.0))
    nodes, weights = _gauss_legendre(24)
    s = (t - tau / 2.0 + tau / n * (np.arange(n)[:, None] + (nodes + 1.0) / 2.0)).ravel()
    w = np.tile(weights * (tau / n / 2.0), n)
    num, d_psi, d_phi = 0j, 0.0, 0.0
    for i in range(0, s.size, 64):
        f_psi, f_phi = psi.time_amplitude(s[i : i + 64]), phi.time_amplitude(s[i : i + 64])
        num += w[i : i + 64] @ (f_phi * np.conj(f_psi))
        d_psi += w[i : i + 64] @ (f_psi.real**2 + f_psi.imag**2)
        d_phi += w[i : i + 64] @ (f_phi.real**2 + f_phi.imag**2)
    return complex(num) / np.sqrt(d_psi * d_phi)
