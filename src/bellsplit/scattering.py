"""Beam-splitter model: the 4x4 unitary scattering matrix and everything derived from it.

Block convention (fixed, worked example in the README): incoming polarization
vectors (a_H, a_V) on the left and (b_H, b_V) on the right map to outgoing
(c_H, c_V), (d_H, d_V) through

    [c]   [r  t'] [a]
    [d] = [t  r'] [b]

so r = S[0:2, 0:2], t' = S[0:2, 2:4], t = S[2:4, 0:2], r' = S[2:4, 2:4].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .smallmat import (
    DEFAULT_TOLERANCES,
    SIGMA_IN,
    as_cmat,
    dagger,
    det2,
    herm_eigen,
    max_abs,
    sqrt_psd,
    svd2,
    tilde2,
)

__all__ = [
    "NotUnitary",
    "DegenerateTransmission",
    "NotRankOne",
    "ScatteringMatrix",
    "HybridMatrix",
    "GammaPair",
    "STATISTICS",
    "PolarFactors",
    "make_scattering",
    "preset",
    "PRESET_NAMES",
    "hybrid",
    "gammas",
    "check_statistics",
    "GramInvariants",
    "gram_invariants",
    "trace_identities",
    "outgoing_matrix",
    "polar_decompose_s",
    "assemble_polar",
    "canonicalize_input",
    "realize_hybrid",
]


class NotUnitary(ValueError):
    """Scattering matrix fails the unitarity test; carries the measured defect."""

    def __init__(self, defect: float):
        self.defect = defect
        tol = DEFAULT_TOLERANCES.identity
        super().__init__(f"scattering matrix is not unitary: defect {defect:.3e} > tol {tol:.3e}")


class DegenerateTransmission(ValueError):
    """Transmission eigenvalues are degenerate or at the boundary of (0, 1).

    The polar factorization of the scattering matrix is not unique in this
    case and no convention is fabricated for it.
    """


class NotRankOne(ValueError):
    """Input polarization matrix must be rank 1 (an unentangled photon pair)."""


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Validated 4x4 unitary scattering matrix with its 2x2 blocks."""

    s: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.s[0:2, 0:2]

    @property
    def t(self) -> np.ndarray:
        return self.s[2:4, 0:2]

    @property
    def t_prime(self) -> np.ndarray:
        return self.s[0:2, 2:4]

    @property
    def r_prime(self) -> np.ndarray:
        return self.s[2:4, 2:4]


class GramInvariants(NamedTuple):
    """(Tr g1† g1, Tr g2† g2, |Tr g1† g1~|, Tr g1† g2), as floats or as arrays over a Gram stack."""

    t1: float
    t2: float
    tt: float
    #: G_HH - G_VV on the Gram route. Complex on the amplitude route
    #: (``GammaPair.invariants``): semi_polar checks its imaginary part.
    c: float


@dataclass(frozen=True, eq=False)
class HybridMatrix:
    """2x2 matrix pairing the reflected-H and transmitted-V amplitudes on one side.

    Rows are (r_HH, t'_HV) and (r_VH, t'_VV); its Gram matrix x† x carries all
    the polarization which-path information of the scattered pair.
    """

    x: np.ndarray
    gram: np.ndarray = field(init=False)
    _invariants: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gram", dagger(self.x) @ self.x)

    def invariants(self, statistics: str = "bosonic") -> GramInvariants:
        """``gram_invariants(self.gram, statistics)``, derived once per statistics and kept."""
        if statistics not in self._invariants:
            self._invariants[statistics] = gram_invariants(self.gram, statistics)
        return self._invariants[statistics]


@dataclass(frozen=True, eq=False)
class GammaPair:
    """Symmetric / antisymmetric amplitude matrices of the scattered pair.

    ``invariants`` holds the four traces taken from gamma1 and gamma2 alone,
    formed once at construction; every reader of the amplitude route uses it.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    statistics: str = "bosonic"
    invariants: GramInvariants = field(init=False)

    def __post_init__(self):
        g1, g2 = self.gamma1, self.gamma2
        inv = GramInvariants(
            float(np.trace(dagger(g1) @ g1).real),
            float(np.trace(dagger(g2) @ g2).real),
            abs(np.trace(dagger(g1) @ tilde2(g1))),
            complex(np.trace(dagger(g1) @ g2)),
        )
        object.__setattr__(self, "invariants", inv)


def make_scattering(s) -> ScatteringMatrix:
    """Validate a 4x4 matrix as unitary (to the identity rung) and wrap it with its block structure."""
    m = as_cmat(s, 4)
    defect = max_abs(dagger(m) @ m - np.eye(4))
    if defect > DEFAULT_TOLERANCES.identity:
        raise NotUnitary(defect)
    return ScatteringMatrix(m)


PRESET_NAMES = ("identity", "balanced_pc", "balanced_mixing")


def preset(name: str, theta: float | None = None) -> ScatteringMatrix:
    """Named scattering matrices.

    identity          -- fully reflecting, no mode coupling.
    balanced_pc       -- 50/50 polarization-conserving splitter.
    balanced_mixing   -- 50/50 splitter whose transmitted amplitudes rotate
                         the polarization by ``theta``; the reflected ones do
                         not, so the off-diagonal Gram entry is sin(theta)/2.
    """
    if theta is not None and name in ("identity", "balanced_pc"):
        raise ValueError(f"preset {name!r} takes no angle, got {theta!r}")
    if name == "identity":
        return ScatteringMatrix(np.eye(4, dtype=complex))
    if name == "balanced_pc":
        eye = np.eye(2)
        s = np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2.0)
        return ScatteringMatrix(s.astype(complex))
    if name == "balanced_mixing":
        if theta is None:
            raise ValueError("balanced_mixing preset requires a rotation angle")
        c, si = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -si], [si, c]], dtype=complex)
        eye = np.eye(2)
        s = np.block([[eye, 1j * rot], [1j * rot.T, eye]]) / np.sqrt(2.0)
        return make_scattering(s)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def hybrid(sm: ScatteringMatrix) -> HybridMatrix:
    """Form the hybrid matrix from the reflected-H and transmitted-V columns."""
    r, tp = sm.r, sm.t_prime
    x = np.array([[r[0, 0], tp[0, 1]], [r[1, 0], tp[1, 1]]])
    return HybridMatrix(x)


STATISTICS = ("bosonic", "fermionic")


def check_statistics(statistics: str) -> None:
    """Reject any particle statistics other than the two in STATISTICS."""
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be 'bosonic' or 'fermionic', got {statistics!r}")


def gammas(sm: ScatteringMatrix, statistics: str = "bosonic") -> GammaPair:
    """Amplitude matrices of the scattered pair, swapped for fermions."""
    check_statistics(statistics)
    direct = sm.r @ SIGMA_IN @ sm.r_prime.T
    exchange = sm.t_prime @ SIGMA_IN.T @ sm.t.T
    g1 = direct + exchange
    g2 = direct - exchange
    if statistics == "fermionic":
        g1, g2 = g2, g1
    return GammaPair(g1, g2, statistics)


def _cmul(p, q):
    # Complex product of (re, im) pairs. numpy's complex scalar product rounds
    # exactly like this; its array loop may fuse into FMA and round otherwise.
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _det2_parts(m):
    # det and Re per of a 2x2 matrix of (re, im) pairs.
    diag, cross = _cmul(m[0][0], m[1][1]), _cmul(m[0][1], m[1][0])
    return (diag[0] - cross[0], diag[1] - cross[1]), diag[0] + cross[0]


def gram_invariants(gram, statistics: str) -> GramInvariants:
    """The four scalar invariants of the amplitude pair, from the hybrid Gram matrix alone.

    Returns (Tr g1† g1, Tr g2† g2, |Tr g1† g1~|, Tr g1† g2). The permanent and
    the determinant of the Gram matrix give the two norms; for fermions the
    amplitude matrices, and with them the two norms, trade places. The last
    invariant is Tr sigma_z G = G_HH - G_VV for either statistics.

    ``gram`` is one 2x2 matrix, giving floats, or a stack of shape (..., 2, 2),
    giving arrays of shape (...). Both round alike, entry by entry.
    """
    check_statistics(statistics)
    gram = np.asarray(gram)
    m = gram.transpose(gram.ndim - 2, gram.ndim - 1, *range(gram.ndim - 2))
    g = [[(m[i, j].real, m[i, j].imag) for j in range(2)] for i in range(2)]
    # I - G, rounded as the complex matrix difference rounds it.
    k = [[(float(i == j) - re, 0.0 - im) for j, (re, im) in enumerate(row)] for i, row in enumerate(g)]
    g_hh, g_vv = g[0][0][0], g[1][1][0]
    det_g, per_g = _det2_parts(g)
    det_k, _ = _det2_parts(k)
    t1 = g_hh + g_vv - 2.0 * per_g
    t2 = g_hh + g_vv - 2.0 * det_g[0]
    if statistics == "fermionic":
        t1, t2 = t2, t1
    span = _cmul(det_g, det_k)[0]
    tt = 2.0 * np.sqrt(np.where(span > 0.0, span, 0.0))
    inv = GramInvariants(t1, t2, tt, g_hh - g_vv)
    return GramInvariants(*map(float, inv)) if gram.ndim == 2 else inv


def trace_identities(sm: ScatteringMatrix) -> tuple[GramInvariants, GramInvariants]:
    """The four scalar invariants by both routes: (from gamma1/gamma2, from the hybrid Gram matrix).

    The two routes share no arithmetic; callers assert their equality.
    """
    g = gammas(sm)
    return g.invariants, hybrid(sm).invariants(g.statistics)


def outgoing_matrix(sm: ScatteringMatrix, sigma) -> np.ndarray:
    """4x4 amplitude matrix of the scattered two-photon state for input polarization ``sigma``."""
    sg = as_cmat(sigma, 2)
    r, t, tp, rp = sm.r, sm.t, sm.t_prime, sm.r_prime
    return np.block(
        [
            [r @ sg @ tp.T, r @ sg @ rp.T],
            [t @ sg @ tp.T, t @ sg @ rp.T],
        ]
    )


class PolarFactors(NamedTuple):
    """Polar factorization S = diag(k_out, l_out) . mix(T) . diag(k_in, l_in)."""

    k_out: np.ndarray
    l_out: np.ndarray
    k_in: np.ndarray
    l_in: np.ndarray
    transmission: np.ndarray  # (T_H, T_V), descending, strictly inside (0, 1)


def polar_decompose_s(sm: ScatteringMatrix) -> PolarFactors:
    """Factor S into side unitaries around the canonical transmission mixer.

    The transmission eigenvalues are those of t† t. Raises
    DegenerateTransmission when they coincide within the identity rung or
    touch the boundary of (0, 1), where the factorization is not unique.
    """
    tol = DEFAULT_TOLERANCES.identity
    t = sm.t
    eig = herm_eigen(dagger(t) @ t)
    tr = np.clip(eig.eigenvalues, 0.0, 1.0)
    if tr[0] - tr[1] < tol:
        raise DegenerateTransmission(
            f"transmission eigenvalues {tr[0]:.6f}, {tr[1]:.6f} are degenerate within {tol:.1e}"
        )
    if tr[1] < tol or 1.0 - tr[0] < tol:
        raise DegenerateTransmission(
            f"transmission eigenvalues {tr[0]:.6f}, {tr[1]:.6f} touch the boundary of (0, 1)"
        )
    k_in = dagger(eig.eigenvectors)
    # r k_in† = k_out sqrt(1 - T), t k_in† = i l_out sqrt(T) and k_out† t' =
    # i sqrt(T) l_in, so each side factor is the unitary polar factor of its
    # product. Dividing by sqrt(1 - T) or sqrt(T) instead loses unitarity as
    # rounding / (1 - T_H) or / T_V near the boundary.
    k_out = _unitary_factor(sm.r @ dagger(k_in))
    l_out = _unitary_factor(-1j * t @ dagger(k_in))
    l_in = _unitary_factor(-1j * dagger(k_out) @ sm.t_prime)
    return PolarFactors(k_out, l_out, k_in, l_in, tr)


def _unitary_factor(a: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def assemble_polar(k_out, l_out, k_in, l_in, transmission) -> ScatteringMatrix:
    """Build the scattering matrix from polar factors (inverse of polar_decompose_s)."""
    tr = np.asarray(transmission, dtype=float)
    if tr.shape != (2,) or np.any(tr <= 0.0) or np.any(tr >= 1.0):
        raise ValueError("transmission must be two eigenvalues strictly inside (0, 1)")
    sq_t = np.diag(np.sqrt(tr)).astype(complex)
    sq_c = np.diag(np.sqrt(1.0 - tr)).astype(complex)
    z = np.zeros((2, 2), dtype=complex)
    left = np.block([[as_cmat(k_out, 2), z], [z, as_cmat(l_out, 2)]])
    mid = np.block([[sq_c, 1j * sq_t], [1j * sq_t, sq_c]])
    right = np.block([[as_cmat(k_in, 2), z], [z, as_cmat(l_in, 2)]])
    return make_scattering(left @ mid @ right)


def canonicalize_input(sm: ScatteringMatrix, sigma_general) -> ScatteringMatrix:
    """Absorb an arbitrary rank-1 input polarization into the scattering matrix.

    Factors sigma_general = k2 . sigma_in . l2^T through svd2 (phases land in
    the left factor by the svd2 convention) and returns S' = S diag(k2, l2),
    whose outgoing matrix for the canonical input equals the original one up
    to overall normalization. This realizes the free choice of the canonical
    input polarization.
    """
    sg = as_cmat(sigma_general, 2)
    scale = max_abs(sg)
    if scale == 0.0:
        raise NotRankOne("input polarization matrix is zero")
    if abs(det2(sg)) > DEFAULT_TOLERANCES.identity * scale**2:
        raise NotRankOne(
            f"input polarization must be rank 1: |det| {abs(det2(sg)):.3e} exceeds tolerance"
        )
    u, _, v = svd2(sg)
    # Only the leading singular direction matters; complete each side factor
    # with a phase-normalized perpendicular so the null-space sign ambiguity
    # of the SVD cannot leak into the result.
    k0 = u[:, 0]
    l1 = v[0, :]
    k2 = np.column_stack([k0, _perp(k0)])
    l2 = np.column_stack([_perp(l1), l1])
    z = np.zeros((2, 2), dtype=complex)
    return make_scattering(sm.s @ np.block([[k2, z], [z, l2]]))


def _perp(vec: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to a unit 2-vector, largest entry real positive."""
    p = np.array([-np.conj(vec[1]), np.conj(vec[0])])
    pivot = p[int(np.argmax(np.abs(p)))]
    return p / (pivot / abs(pivot))


def realize_hybrid(gram) -> ScatteringMatrix:
    """Construct a scattering matrix whose hybrid Gram matrix equals ``gram``.

    Takes the Hermitian square root of the target Gram matrix as the hybrid
    block, fills the complementary rows with the square root of (1 - gram) so
    the two embedded columns are orthonormal, and completes the remaining two
    columns from a Householder QR of [columns | 1]. The completion is not
    unique; every derived entanglement quantity depends only on the Gram
    matrix.
    """
    g, tol = as_cmat(gram, 2), DEFAULT_TOLERANCES.identity
    if max_abs(g - dagger(g)) > tol:
        raise ValueError("target Gram matrix must be Hermitian")
    eig = herm_eigen(g)
    if eig.eigenvalues[0] > 1.0 + tol or eig.eigenvalues[1] < -tol:
        raise ValueError("target Gram matrix must have spectrum inside [0, 1]")
    cols = np.vstack([sqrt_psd(g), sqrt_psd(np.eye(2) - g)])
    # The last two Householder columns span the orthogonal complement of the
    # embedded pair to machine precision, however close g is to singular.
    q, _ = np.linalg.qr(np.hstack([cols, np.eye(4)]))
    return make_scattering(np.column_stack([cols[:, 0], q[:, 2], q[:, 3], cols[:, 1]]))
