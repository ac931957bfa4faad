"""Reference physics written independently of bellsplit.

The benchmark uses these to pick inputs and to check the program's outputs.
Nothing here imports bellsplit: a check that ran through the program's own
routes could not catch a bug shared by those routes.
"""

from __future__ import annotations

import math

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: One horizontal photon in the left port and one vertical photon in the right.
SIGMA_IN = np.array([[0, 1], [0, 0]], dtype=complex)


def haar_unitary(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Haar unitary by QR of a complex Ginibre matrix, columns rephased by diag(R)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def verify_instances(seed: int, count: int) -> list[tuple[np.ndarray, float]]:
    """The (splitter, brute-force alpha) pairs that ``bellsplit verify --count --seed`` draws.

    Mirrors the documented generator: instance i is the Haar unitary of seed
    ``seed + i`` (PCG64), and the alphas are ``count`` uniform draws of a
    PCG64 stream seeded with ``seed``.
    """
    alphas = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 1.0, size=count)
    return [
        (haar_unitary(np.random.Generator(np.random.PCG64(seed + i))), float(alphas[i]))
        for i in range(count)
    ]


def amplitude_pair(s: np.ndarray, statistics: str) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric two-photon amplitude matrices behind the splitter."""
    r, t, tp, rp = s[:2, :2], s[2:, :2], s[:2, 2:], s[2:, 2:]
    direct = r @ SIGMA_IN @ rp.T
    exchange = tp @ SIGMA_IN.T @ t.T
    g1, g2 = direct + exchange, direct - exchange
    return (g2, g1) if statistics == "fermionic" else (g1, g2)


def correlation_tensor(s: np.ndarray, alpha_sq: float, statistics: str) -> np.ndarray:
    """R_kl = Tr rho sigma_k x sigma_l of the coincidence-postselected pair."""
    g1, g2 = amplitude_pair(s, statistics)
    v1, v2 = g1.reshape(4), g2.reshape(4)
    rho = (1.0 + alpha_sq) * np.outer(v1, v1.conj()) + (1.0 - alpha_sq) * np.outer(v2, v2.conj())
    rho /= np.trace(rho).real
    return np.array(
        [[np.trace(rho @ np.kron(pk, pl)).real for pl in PAULIS] for pk in PAULIS]
    )


def correlation_spectrum(s: np.ndarray, alpha_sq: float, statistics: str) -> np.ndarray:
    """Singular values sigma_1 >= sigma_2 >= sigma_3 of the correlation tensor.

    The analyzer search of the CHSH oracle slows on a near-flat ridge of
    optimal settings, which opens as sigma_2 - sigma_3 closes or as sigma_2
    and sigma_3 both vanish; the benchmark uses the spectrum to pick its
    random splitters.
    """
    return np.linalg.svd(correlation_tensor(s, alpha_sq, statistics), compute_uv=False)


def emax_horodecki(s: np.ndarray, alpha_sq: float, statistics: str) -> float:
    """Maximal CHSH value 2 sqrt(u1 + u2) from the two largest eigenvalues of R^T R."""
    r = correlation_tensor(s, alpha_sq, statistics)
    u = np.linalg.eigvalsh(r.T @ r)
    return 2.0 * math.sqrt(max(0.0, u[-1] + u[-2]))


def preset_matrix(name: str, theta: float = 0.0) -> np.ndarray:
    """The documented presets: fully reflecting, or 50/50 with the transmission rotated by theta."""
    if name == "identity":
        return np.eye(4, dtype=complex)
    c, si = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -si], [si, c]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    return np.block([[eye, 1j * rot], [1j * rot.T, eye]]) / math.sqrt(2.0)


def hybrid_gram(s: np.ndarray) -> np.ndarray:
    """Gram matrix X^dagger X of the reflected-H / transmitted-V hybrid columns."""
    x = np.array([[s[0, 0], s[0, 3]], [s[1, 0], s[1, 3]]])
    return x.conj().T @ x


def slice_concurrence(alpha_sq: float, hv_sq: float, statistics: str) -> float:
    """Concurrence on the balanced slice: a(1 - 4h) / (1 -+ 4ah), minus sign for bosons."""
    sign = -1.0 if statistics == "bosonic" else 1.0
    return alpha_sq * (1.0 - 4.0 * hv_sq) / (1.0 + sign * 4.0 * alpha_sq * hv_sq)


def g_boundary(alpha_sq: float) -> float:
    """Balanced-slice contour E_max = 2 (bosonic): violation iff hv_sq lies below it."""
    a = alpha_sq
    return 0.25 * (1.0 - a + a * a - (1.0 - a) * math.sqrt(1.0 + a * a))


def f_boundary(alpha_sq: float) -> float:
    """Balanced-slice branch crossover: the interference eigenvalue is active below it."""
    return alpha_sq / (2.0 * (1.0 + alpha_sq))


def vw_band(c: float, emax: float, tol: float) -> bool:
    """Verstraete-Wolf band 2 sqrt2 C <= E_max <= 2 sqrt(1 + C^2) (PRL 89, 170401)."""
    return 2.0 * math.sqrt(2.0) * c - tol <= emax <= 2.0 * math.sqrt(1.0 + c * c) + tol


def gaussian_alpha_sq(sigma: float, delay: float, window: tuple[float, float] | None = None) -> float:
    """|alpha|^2 of two equal Gaussian packets ``delay`` apart, analytic.

    Infinite window: exp(-sigma^2 delay^2). Finite window (t, tau): the time
    envelopes are Gaussians of variance 1/(4 sigma^2), so every windowed
    integral is a difference of error functions.
    """
    if window is None:
        return math.exp(-((sigma * delay) ** 2))
    t, tau = window
    lo, hi = t - tau / 2.0, t + tau / 2.0
    k = math.sqrt(2.0) * sigma

    def mass(center):
        return math.erf(k * (hi - center)) - math.erf(k * (lo - center))

    return math.exp(-((sigma * delay) ** 2)) * mass(delay / 2.0) ** 2 / (mass(0.0) * mass(delay))


def delay_for_alpha_sq(target: float, sigma: float, tau: float) -> float:
    """Delay giving ``target`` = |alpha|^2 in a window of width tau centred between the packets."""
    lo, hi = 0.0, 1.0 / sigma
    while gaussian_alpha_sq(sigma, hi, (hi / 2.0, tau)) > target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_alpha_sq(sigma, mid, (mid / 2.0, tau)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_samples(sigma: float, delay: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral samples of a centred Gaussian packet on +-8 sigma (a tabulated copy)."""
    w = np.linspace(-8.0 * sigma, 8.0 * sigma, n)
    amp = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-(w**2) / (4.0 * sigma**2))
    return w, amp * np.exp(-1j * w * delay)
