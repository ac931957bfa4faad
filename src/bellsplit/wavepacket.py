"""Temporal indistinguishability of the two incident photons.

The overlap parameter alpha is computed either in the infinite coincidence
window limit (plain overlap of the spectral amplitudes) or for a finite
window of width tau around detection time t. In the finite case the double
time integrals reduce to one-dimensional integrals of the time-domain
transforms

    packet~(t) = integral dw packet(w) exp(i w t),

which is what this module evaluates: analytically for Gaussian packets, as a
sum over the stored grid for tabulated ones. Both windows integrate with one
composite Gauss-Legendre rule on panels fixed before any evaluation: over
frequency in the infinite window, over the window's time span in the finite
one. Two tabulated packets on equal grids share one exp(i w s) kernel per
block of time nodes and one amplitude evaluation per frequency node.
Everything dimensionful is SI (rad/s and seconds), but only dimensionless
products enter the results, so natural units (width = 1) work unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .smallmat import DEFAULT_TOLERANCES

__all__ = [
    "QuadratureNotConverged",
    "EmptyWindow",
    "GaussianPacket",
    "TabulatedPacket",
    "Wavepacket",
    "OverlapAlpha",
    "read_packet_csv",
    "alpha_infinite_window",
    "alpha_finite_window",
    "temporal_distinguishability",
    "simpson_weights",
]

_DENOM_FLOOR = 1e-14
_SQ_SLACK = DEFAULT_TOLERANCES.identity  # rounding allowed past |alpha|^2 = 1


class QuadratureNotConverged(RuntimeError):
    """Quadrature would need more nodes than its cap to reach its target error."""


class EmptyWindow(ValueError):
    """No wavepacket amplitude inside the coincidence window; alpha is undefined."""


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for a strictly increasing grid.

    Handles non-uniform spacing by fitting a quadratic through each
    consecutive point triple; a trailing odd interval is closed with the
    trapezoid rule. Reduces to the classic h/3 (1, 4, 2, ..., 4, 1) pattern
    on uniform grids.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("grid needs at least two points")
    w = np.zeros(n)
    h = np.diff(x)
    end = n - 1 - (n - 1) % 2  # last node of the Simpson pairs
    h0, h1 = h[0:end:2], h[1:end:2]
    s = h0 + h1
    w[0:end:2] += s * (2.0 - h1 / h0) / 6.0
    w[1:end:2] += s**3 / (6.0 * h0 * h1)
    w[2 : end + 1 : 2] += s * (2.0 - h0 / h1) / 6.0
    if end == n - 2:  # odd number of intervals: close the last one with a trapezoid
        w[-2:] += h[-1] / 2.0
    return w


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized Gaussian spectral amplitude.

    center : carrier frequency (rad/s)
    width  : spectral standard deviation of the intensity profile (rad/s)
    delay  : arrival time of the temporal envelope peak (s)
    """

    center: float
    width: float
    delay: float = 0.0

    def __post_init__(self):
        # The normalization (2 pi width^2)^(-1/4) needs width^2 in (0, inf).
        if not (self.width > 0.0 and 0.0 < self.width * self.width < math.inf):
            raise ValueError(f"width must be positive with a finite nonzero square, got {self.width}")
        if not (math.isfinite(self.center) and math.isfinite(self.delay)):
            raise ValueError("center and delay must be finite")

    def support(self) -> tuple[float, float]:
        # +-8 sigma: the neglected tail of the intensity is below 1e-14.
        return (self.center - 8.0 * self.width, self.center + 8.0 * self.width)

    def envelope(self, omega) -> np.ndarray:
        """The real spectral amplitude without the delay's phase."""
        w = np.asarray(omega, dtype=float)
        return (2.0 * np.pi * self.width**2) ** (-0.25) * np.exp(-((w - self.center) ** 2) / (4.0 * self.width**2))

    def amplitude(self, omega) -> np.ndarray:
        return self.envelope(omega) * np.exp(-1j * np.asarray(omega, dtype=float) * self.delay)

    def time_amplitude(self, t) -> np.ndarray:
        u = np.asarray(t, dtype=float) - self.delay
        scale = (2.0 * np.pi * self.width**2) ** (-0.25) * 2.0 * self.width * np.sqrt(np.pi)
        return scale * np.exp(1j * self.center * u - self.width**2 * u**2)


def _checked_samples(omega, amp) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated samples as arrays, past the grid rules; checked before any weight is formed."""
    omega = np.asarray(omega, dtype=float)
    amp = np.asarray(amp, dtype=complex)
    if omega.ndim != 1 or omega.size < 2 or amp.shape != omega.shape:
        raise ValueError("omega and amp must be matching 1-d arrays with >= 2 samples")
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))):
        raise ValueError("samples must be finite")
    if not np.all(np.diff(omega) > 0.0):
        raise ValueError("frequency grid must be strictly increasing")
    return omega, amp


@dataclass(frozen=True, eq=False)
class TabulatedPacket:
    """Spectral amplitude sampled on a strictly increasing frequency grid.

    Linear interpolation between samples, zero outside the grid. The samples
    are scaled to unit Simpson norm at construction; ``_factor`` is the
    amplitude factor applied.
    """

    omega: np.ndarray
    amp: np.ndarray
    _weights: np.ndarray = field(init=False, repr=False)
    _factor: float = field(init=False, repr=False)

    def __post_init__(self):
        omega, amp = _checked_samples(self.omega, self.amp)
        weights = simpson_weights(omega)
        with np.errstate(over="ignore"):  # an overflowing |amp|^2 is rejected below, not warned about
            norm = float(np.sum(weights * np.abs(amp) ** 2))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a packet whose integral |amp|^2 is {norm}")
        factor = 1.0 / np.sqrt(norm)
        object.__setattr__(self, "omega", omega.copy())
        object.__setattr__(self, "amp", amp * factor)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_factor", factor)

    def support(self) -> tuple[float, float]:
        return (float(self.omega[0]), float(self.omega[-1]))

    def amplitude(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        re = np.interp(w, self.omega, self.amp.real, left=0.0, right=0.0)
        im = np.interp(w, self.omega, self.amp.imag, left=0.0, right=0.0)
        return re + 1j * im

    def time_amplitude(self, t) -> np.ndarray:
        return self._kernel(t) @ (self._weights * self.amp)

    def _kernel(self, t) -> np.ndarray:  # exp(i omega t), one row per t
        phase = np.asarray(t, dtype=float)[..., None] * self.omega
        kernel = np.empty(phase.shape, dtype=complex)  # exp(1j * phase), 2.5x faster in place
        np.cos(phase, out=kernel.real)
        np.sin(phase, out=kernel.imag)
        return kernel


def _same_grid(psi, phi) -> bool:  # both tabulated on equal grids: one kernel and one rule serve both
    return type(psi) is type(phi) is TabulatedPacket and np.array_equal(psi.omega, phi.omega)


Wavepacket = GaussianPacket | TabulatedPacket


@dataclass(frozen=True)
class OverlapAlpha:
    """Complex overlap alpha with its modulus squared in [0, 1]."""

    alpha: complex
    alpha_sq: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        sq = abs(self.alpha) ** 2
        if not sq <= 1.0 + _SQ_SLACK:
            raise ValueError(f"|alpha|^2 = {sq} exceeds 1")
        object.__setattr__(self, "alpha_sq", float(min(max(sq, 0.0), 1.0)))

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> "OverlapAlpha":
        """Overlap of known magnitude and irrelevant (unknown) phase."""
        if not 0.0 <= alpha_sq <= 1.0 + _SQ_SLACK:
            raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
        out = cls(complex(np.sqrt(min(alpha_sq, 1.0))))
        # Keep the caller's value exactly; the sqrt round trip can wobble the
        # last bit.
        object.__setattr__(out, "alpha_sq", float(min(alpha_sq, 1.0)))
        return out


def read_packet_csv(path) -> tuple[TabulatedPacket, float]:
    """Read a packet from CSV columns omega, re, im (header row required).

    Plain comma-separated numbers, one sample per line; blank lines are
    skipped. The samples are normalized on read; the applied amplitude factor
    is returned alongside the packet.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if [h.strip().lower() for h in header] != ["omega", "re", "im"]:
        raise ValueError(f"{path}: expected header 'omega,re,im', got {header}")
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line]
    for lineno, line in body:
        if line.count(",") != 2:
            raise ValueError(f"{path}:{lineno}: expected 3 columns, got {line.count(',') + 1}")
    if len(body) < 2:
        raise ValueError(f"{path}: need at least two samples")
    try:
        samples = np.array(",".join(line for _, line in body).split(","), dtype=float).reshape(-1, 3)
    except ValueError:
        for lineno, line in body:  # find the line, for the message
            try:
                [float(x) for x in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise
    packet = TabulatedPacket(samples[:, 0], samples[:, 1] + 1j * samples[:, 2])
    return packet, packet._factor


@functools.cache  # on first use, not at import: its eigh would map LAPACK workspace in every process
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch, symmetrized to halve its rounding."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)  # the Jacobi matrix of the Legendre recurrence
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * v[0] ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


_MAX_SPECTRAL_PANELS = 2**14  # sigma * |delay| = 100 needs 16,000 Gaussian panels


def _spectral_rule(lo: float, hi: float, packets) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a 4-point Gauss-Legendre rule over [lo, hi], on panels fixed before any evaluation.

    Every grid node of a tabulated packet is a panel edge: the packet is linear
    between nodes, so each integrand is a quadratic there, which the rule
    integrates exactly. Gaussian packets add equal panels no wider than a tenth
    of the narrowest width and of 1 / beat, where beat is the packets' relative
    delay (a tabulated packet counts as delay 0), so a common delay adds none.
    """
    edges = [np.array([lo, hi])]
    edges += [p.omega[(lo < p.omega) & (p.omega < hi)] for p in packets if isinstance(p, TabulatedPacket)]
    widths = [p.width for p in packets if isinstance(p, GaussianPacket)]
    if widths:
        delays = [p.delay if isinstance(p, GaussianPacket) else 0.0 for p in packets]
        beat = max(delays) - min(delays)
        panels = 10.0 * (hi - lo) * max(1.0 / min(widths), beat)
        if not panels <= _MAX_SPECTRAL_PANELS:
            raise QuadratureNotConverged(
                f"integral over [{lo:g}, {hi:g}] is out of reach: its {beat:g} s delay beat "
                f"needs more than {_MAX_SPECTRAL_PANELS} panels of 4 Gauss-Legendre nodes"
            )
        edges.append(np.linspace(lo, hi, math.ceil(panels) + 1))
    edges = np.unique(np.concatenate(edges))
    nodes, weights = _gauss_legendre(4)
    half = np.diff(edges)[:, None] / 2.0
    return edges[:-1, None] + half * (nodes + 1.0), weights * half


def alpha_infinite_window(psi: Wavepacket, phi: Wavepacket) -> OverlapAlpha:
    """Overlap alpha = integral dw phi(w) psi*(w) in the infinite-window limit.

    The packets' own numerically evaluated norms divide the result, so the
    Cauchy-Schwarz bound |alpha| <= 1 holds to rounding whatever the rule's
    error in each norm. On equal tabulated grids the norms take the overlap's
    rule and amplitudes. Raises QuadratureNotConverged when the packets'
    relative delay needs more than 16,384 panels.
    """
    lo = max(psi.support()[0], phi.support()[0])
    hi = min(psi.support()[1], phi.support()[1])
    if hi <= lo:
        return OverlapAlpha(0.0)
    x, wh = _spectral_rule(lo, hi, (psi, phi))
    # A Gaussian pair takes one phase, from the relative delay: each packet's own loses |w D| eps to a common D.
    if isinstance(psi, GaussianPacket) and isinstance(phi, GaussianPacket):
        overlap = phi.envelope(x) * psi.envelope(x) * np.exp(-1j * x * (phi.delay - psi.delay))
    else:
        a_psi, a_phi = psi.amplitude(x), phi.amplitude(x)
        overlap = a_phi * np.conj(a_psi)
    num = np.sum(wh * overlap)
    if _same_grid(psi, phi):  # each norm's rule is the overlap's, so its amplitude is the one just taken
        norms = [np.sum(wh * np.abs(a) ** 2) for a in (a_psi, a_phi)]
    else:
        rules = [(p, *_spectral_rule(*p.support(), (p,))) for p in (psi, phi)]
        norms = [np.sum(wh * np.abs(p.amplitude(x)) ** 2) for p, x, wh in rules]
    return OverlapAlpha(complex(num) / np.sqrt(norms[0].real * norms[1].real))


_MAX_PANELS = (2**14 + 1) // 24  # at most 2^14 + 1 nodes per window
_BLOCK = 64  # nodes per kernel: its (nodes x samples) complex matrix is 0.8 MB at 801 samples


def alpha_finite_window(psi: Wavepacket, phi: Wavepacket, t: float, tau: float) -> OverlapAlpha:
    """Overlap alpha for a coincidence window of width tau centered on time t.

    Ratio of the windowed time-domain cross integral to the geometric mean of
    the windowed intensities. The integrands' frequencies lie within Omega, the
    span of the union of the packets' supports, so one composite 24-point
    Gauss-Legendre rule on ceil(Omega tau / 16) equal panels integrates all
    three far below rounding. Raises QuadratureNotConverged above 682 panels,
    and EmptyWindow when either intensity factor is below 1e-14 or not a
    number (no amplitude in the window). Two tabulated packets on equal grids
    share each block's exp(i omega s) kernel.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    lo, hi = t - tau / 2.0, t + tau / 2.0
    (a_psi, b_psi), (a_phi, b_phi) = psi.support(), phi.support()
    beat = max(b_psi, b_phi) - min(a_psi, a_phi)
    panels = beat * tau / 16.0  # the fastest beat turns through at most 16 rad per panel
    if not panels <= _MAX_PANELS:
        raise QuadratureNotConverged(
            f"integral over [{lo:g}, {hi:g}] is out of reach: its {beat:g} rad/s beat "
            f"needs more than {_MAX_PANELS} panels of 24 Gauss-Legendre nodes"
        )
    n = max(1, math.ceil(panels))
    nodes, weights = _gauss_legendre(24)
    s = (lo + tau / n * (np.arange(n)[:, None] + (nodes + 1.0) / 2.0)).ravel()
    w = np.tile(weights * (tau / n / 2.0), n)
    if _same_grid(psi, phi):  # one kernel per block, two products: a (samples, 2) gemm could round otherwise
        pair = lambda ts: ((kernel := psi._kernel(ts)) @ (psi._weights * psi.amp), kernel @ (phi._weights * phi.amp))
    else:
        pair = lambda ts: (psi.time_amplitude(ts), phi.time_amplitude(ts))
    num, d_psi, d_phi = 0j, 0.0, 0.0
    for i in range(0, s.size, _BLOCK):
        f_psi, f_phi = pair(s[i : i + _BLOCK])
        num += w[i : i + _BLOCK] @ (f_phi * np.conj(f_psi))
        d_psi += w[i : i + _BLOCK] @ (f_psi.real**2 + f_psi.imag**2)
        d_phi += w[i : i + _BLOCK] @ (f_phi.real**2 + f_phi.imag**2)
    if not (d_psi >= _DENOM_FLOOR and d_phi >= _DENOM_FLOOR):
        raise EmptyWindow(
            f"window [{lo:g}, {hi:g}] holds no amplitude (factors {d_psi:.3e}, {d_phi:.3e})"
        )
    return OverlapAlpha(complex(num) / np.sqrt(d_psi * d_phi))


def temporal_distinguishability(a) -> float:
    """Amount of temporal which-path information, 1 - |alpha|^2."""
    alpha_sq = a.alpha_sq if isinstance(a, OverlapAlpha) else float(a)
    return 1.0 - alpha_sq
