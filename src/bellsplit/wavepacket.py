"""Temporal indistinguishability of the two incident photons.

The overlap parameter alpha is computed either in the infinite coincidence
window limit (plain overlap of the spectral amplitudes) or for a finite
window of width tau around detection time t. In the finite case the double
time integrals reduce to one-dimensional integrals of the time-domain
transforms

    packet~(t) = integral dw packet(w) exp(i w t),

which is what this module evaluates: analytically for Gaussian packets,
as a sum over the stored grid for tabulated ones; a fixed Gauss-Legendre
rule integrates them over the window. Everything
dimensionful is SI (rad/s and seconds), but only dimensionless products
enter the results, so natural units (width = 1) work unchanged.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

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

_NORM_TOL = 1e-8
_QUAD_TOL = 1e-9
_DENOM_FLOOR = 1e-14


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

    def amplitude(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        envelope = (2.0 * np.pi * self.width**2) ** (-0.25) * np.exp(
            -((w - self.center) ** 2) / (4.0 * self.width**2)
        )
        return envelope * np.exp(-1j * w * self.delay)

    def time_amplitude(self, t) -> np.ndarray:
        u = np.asarray(t, dtype=float) - self.delay
        scale = (2.0 * np.pi * self.width**2) ** (-0.25) * 2.0 * self.width * np.sqrt(np.pi)
        return scale * np.exp(1j * self.center * u - self.width**2 * u**2)


@dataclass(frozen=True, eq=False)
class TabulatedPacket:
    """Spectral amplitude sampled on a strictly increasing frequency grid.

    Linear interpolation between samples, zero outside the grid. The samples
    must already be unit-normalized; use :func:`read_packet_csv` or
    :meth:`normalized` to normalize raw data.
    """

    omega: np.ndarray
    amp: np.ndarray
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        amp = np.asarray(self.amp, dtype=complex)
        if omega.ndim != 1 or omega.size < 2 or amp.shape != omega.shape:
            raise ValueError("omega and amp must be matching 1-d arrays with >= 2 samples")
        if not np.all(np.diff(omega) > 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "omega", omega.copy())
        object.__setattr__(self, "amp", amp.copy())
        object.__setattr__(self, "_weights", simpson_weights(omega))
        norm = float(np.sum(self._weights * np.abs(amp) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"packet is not normalized: integral |amp|^2 = {norm:.10f}")

    @classmethod
    def normalized(cls, omega, amp) -> tuple["TabulatedPacket", float]:
        """Normalize raw samples; returns the packet and the applied factor."""
        omega = np.asarray(omega, dtype=float)
        amp = np.asarray(amp, dtype=complex)
        norm = float(np.sum(simpson_weights(omega) * np.abs(amp) ** 2))
        if norm <= 0.0:
            raise ValueError("cannot normalize a zero packet")
        factor = 1.0 / np.sqrt(norm)
        return cls(omega, amp * factor), factor

    def support(self) -> tuple[float, float]:
        return (float(self.omega[0]), float(self.omega[-1]))

    def amplitude(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        re = np.interp(w, self.omega, self.amp.real, left=0.0, right=0.0)
        im = np.interp(w, self.omega, self.amp.imag, left=0.0, right=0.0)
        return re + 1j * im

    def time_amplitude(self, t) -> np.ndarray:
        phase = np.asarray(t, dtype=float)[..., None] * self.omega
        kernel = np.empty(phase.shape, dtype=complex)  # exp(1j * phase), 2.5x faster in place
        np.cos(phase, out=kernel.real)
        np.sin(phase, out=kernel.imag)
        return kernel @ (self._weights * self.amp)


Wavepacket = GaussianPacket | TabulatedPacket


@dataclass(frozen=True)
class OverlapAlpha:
    """Complex overlap alpha with its modulus squared in [0, 1]."""

    alpha: complex
    alpha_sq: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        sq = abs(self.alpha) ** 2
        if not sq <= 1.0 + 1e-10:
            raise ValueError(f"|alpha|^2 = {sq} exceeds 1")
        object.__setattr__(self, "alpha_sq", float(min(max(sq, 0.0), 1.0)))

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> "OverlapAlpha":
        """Overlap of known magnitude and irrelevant (unknown) phase."""
        if not 0.0 <= alpha_sq <= 1.0 + 1e-10:
            raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq}")
        out = cls(complex(np.sqrt(min(alpha_sq, 1.0))))
        # Keep the caller's value exactly; the sqrt round trip can wobble the
        # last bit.
        object.__setattr__(out, "alpha_sq", float(min(alpha_sq, 1.0)))
        return out


def read_packet_csv(path) -> tuple[TabulatedPacket, float]:
    """Read a packet from CSV columns omega, re, im (header row required).

    The samples are normalized on read; the applied amplitude factor is
    returned alongside the packet.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["omega", "re", "im"]:
            raise ValueError(f"{path}: expected header 'omega,re,im', got {header}")
        omega, re, im = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            omega.append(float(row[0]))
            re.append(float(row[1]))
            im.append(float(row[2]))
    if len(omega) < 2:
        raise ValueError(f"{path}: need at least two samples")
    return TabulatedPacket.normalized(np.array(omega), np.array(re) + 1j * np.array(im))


def _breakpoints(packet) -> np.ndarray:
    if isinstance(packet, TabulatedPacket):
        return packet.omega
    return np.empty(0)


def _refined_integral(fn, lo: float, hi: float, breaks, tol: float, max_level: int = 14):
    """Integrate fn over [lo, hi] by per-segment composite Simpson with doubling.

    ``breaks`` lists interior points where the integrand may have kinks
    (tabulated-grid nodes); segments between them are smooth, so Simpson
    refinement converges fast. ``fn`` maps a (segments, nodes) array to the
    integrand. An empty interval gives zero. Raises QuadratureNotConverged if
    doubling stalls above ``tol``.
    """
    inner = np.asarray(breaks, dtype=float)
    pts = np.sort(np.concatenate(([lo, max(lo, hi)], inner[(lo < inner) & (inner < hi)])))
    pts = pts[np.diff(pts, prepend=-np.inf) > 0]  # drop repeated breaks
    a, width = pts[:-1], np.diff(pts)
    # With many tabulated segments each one is already short; start shallow.
    start_level = 3 if a.size < 64 else 1
    n_sub = 2**start_level

    def nodes(j):  # as np.linspace places them: doubling keeps every old node bitwise
        return j * (width / n_sub)[:, None] + a[:, None]

    x = nodes(np.arange(n_sub + 1))
    x[:, -1] = pts[1:]
    y = fn(x)
    ends, odd, even = y[:, 0] + y[:, -1], y[:, 1::2].sum(-1), y[:, 2:-1:2].sum(-1)
    prev = (ends + 4.0 * odd + 2.0 * even) @ (width / n_sub / 3.0)
    for level in range(start_level + 1, max_level + 1):
        n_sub *= 2
        # The old interior nodes all become even ones; only the odd ones are new.
        even, odd = even + odd, fn(nodes(np.arange(1, n_sub, 2))).sum(-1)
        cur = (ends + 4.0 * odd + 2.0 * even) @ (width / n_sub / 3.0)
        step = abs(cur - prev)
        if step <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"integral over [{lo:g}, {hi:g}] did not stabilize below {tol:g} "
        f"(last refinement step {step:.3e})"
    )


def alpha_infinite_window(psi: Wavepacket, phi: Wavepacket) -> OverlapAlpha:
    """Overlap alpha = integral dw phi(w) psi*(w) in the infinite-window limit.

    The packets' own numerically evaluated norms divide the result, so the
    Cauchy-Schwarz bound |alpha| <= 1 holds to rounding even when the inputs
    carry the permitted 1e-8 normalization slack.
    """
    lo = max(psi.support()[0], phi.support()[0])
    hi = min(psi.support()[1], phi.support()[1])
    if hi <= lo:
        return OverlapAlpha(0.0)
    breaks = np.concatenate([_breakpoints(psi), _breakpoints(phi)])
    num = _refined_integral(
        lambda w: phi.amplitude(w) * np.conj(psi.amplitude(w)), lo, hi, breaks, _QUAD_TOL
    )
    norms = []
    for packet in (psi, phi):
        a, b = packet.support()
        val = _refined_integral(
            lambda w, p=packet: np.abs(p.amplitude(w)) ** 2, a, b, _breakpoints(packet), _QUAD_TOL
        )
        norms.append(val.real)
    return OverlapAlpha(complex(num) / np.sqrt(norms[0] * norms[1]))


@functools.cache  # on first use, not at import: its eigh would map LAPACK workspace in every process
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch, symmetrized to halve its rounding."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)  # the Jacobi matrix of the Legendre recurrence
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * v[0] ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


_MAX_PANELS = (2**14 + 1) // 24  # the old Simpson doubling's deepest node count per window
_BLOCK = 64  # nodes per time_amplitude call, so its (nodes x samples) matrix stays under the old peak


def alpha_finite_window(psi: Wavepacket, phi: Wavepacket, t: float, tau: float) -> OverlapAlpha:
    """Overlap alpha for a coincidence window of width tau centered on time t.

    Ratio of the windowed time-domain cross integral to the geometric mean of
    the windowed intensities. The integrands' frequencies lie within Omega, the
    span of the union of the packets' supports, so one composite 24-point
    Gauss-Legendre rule on ceil(Omega tau / 16) equal panels integrates all
    three far below rounding. Raises QuadratureNotConverged above 682 panels,
    and EmptyWindow when either intensity factor is below 1e-14 or not a
    number (no amplitude in the window).
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    lo, hi = t - tau / 2.0, t + tau / 2.0
    (a_psi, b_psi), (a_phi, b_phi) = psi.support(), phi.support()
    beat = max(b_psi, b_phi) - min(a_psi, a_phi)
    panels = beat * tau / 16.0  # the fastest beat turns through at most 16 rad per panel
    if not panels <= _MAX_PANELS:
        raise QuadratureNotConverged(
            f"integral over [{lo:g}, {hi:g}] did not stabilize: its {beat:g} rad/s beat "
            f"needs more than {_MAX_PANELS} panels of 24 Gauss-Legendre nodes"
        )
    n = max(1, math.ceil(panels))
    nodes, weights = _gauss_legendre(24)
    s = (lo + tau / n * (np.arange(n)[:, None] + (nodes + 1.0) / 2.0)).ravel()
    w = np.tile(weights * (tau / n / 2.0), n)
    num, d_psi, d_phi = 0j, 0.0, 0.0
    for i in range(0, s.size, _BLOCK):
        f_psi, f_phi = psi.time_amplitude(s[i : i + _BLOCK]), phi.time_amplitude(s[i : i + _BLOCK])
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
