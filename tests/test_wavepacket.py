import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsplit import wavepacket
from bellsplit.wavepacket import (
    EmptyWindow,
    GaussianPacket,
    OverlapAlpha,
    QuadratureNotConverged,
    TabulatedPacket,
    alpha_finite_window,
    alpha_infinite_window,
    read_packet_csv,
    simpson_weights,
    temporal_distinguishability,
)

# Frozen overlap values for identical unit-width Gaussians delayed by dt,
# computed with a 2^20-point trapezoid oracle over a 24-sigma span; they match
# the analytic decay exp(-dt^2) to 14 digits.
FROZEN_GAUSSIAN_OVERLAPS = {
    0.3: 0.9139311852712282,
    0.7: 0.6126263941844161,
    1.5: 0.10539922456186433,
}


def loop_simpson_weights(x):
    """Triple-at-a-time loop that the sliced weights replaced; their oracle."""
    n = x.size
    w = np.zeros(n)
    i = 0
    while i + 2 <= n - 1:
        h0 = x[i + 1] - x[i]
        h1 = x[i + 2] - x[i + 1]
        s = h0 + h1
        w[i] += s * (2.0 - h1 / h0) / 6.0
        w[i + 1] += s**3 / (6.0 * h0 * h1)
        w[i + 2] += s * (2.0 - h0 / h1) / 6.0
        i += 2
    if i == n - 2:
        h = x[-1] - x[-2]
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


def tabulated_gaussian(center=0.0, width=1.0, delay=0.0, n=801, span=8.0):
    grid = np.linspace(center - span * width, center + span * width, n)
    amp = GaussianPacket(center, width, delay).amplitude(grid)
    return TabulatedPacket.normalized(grid, amp)[0]


class TestSimpsonWeights:
    def test_uniform_matches_classic_pattern(self):
        x = np.linspace(0.0, 1.0, 5)
        w = simpson_weights(x)
        h = 0.25
        assert np.allclose(w, h / 3.0 * np.array([1, 4, 2, 4, 1]))

    def test_integrates_cubics_exactly(self):
        x = np.array([0.0, 0.3, 0.55, 1.1, 1.4])  # non-uniform, even interval count
        w = simpson_weights(x)
        for k in range(3):
            assert np.sum(w * x**k) == pytest.approx(1.4 ** (k + 1) / (k + 1), abs=1e-12)

    def test_odd_interval_count_converges(self):
        x = np.linspace(0.0, np.pi, 1002)  # odd number of intervals
        assert np.sum(simpson_weights(x) * np.sin(x)) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 100, 101])
    def test_matches_pointwise_loop(self, n):
        x = np.cumsum(np.random.default_rng(n).uniform(0.01, 1.0, n))
        assert np.max(np.abs(simpson_weights(x) - loop_simpson_weights(x))) <= 2e-15


class TestPackets:
    def test_gaussian_requires_positive_width(self):
        with pytest.raises(ValueError):
            GaussianPacket(0.0, -1.0)

    @pytest.mark.parametrize("width", [1e-300, 1e200, float("inf"), float("nan")])
    def test_gaussian_width_square_must_be_finite_and_nonzero(self, width):
        # 1e-300 squared underflows to 0, 1e200 overflows: the normalization breaks.
        with pytest.raises(ValueError, match="width"):
            GaussianPacket(0.0, width)

    @pytest.mark.parametrize("center, delay", [(float("inf"), 0.0), (0.0, float("nan"))])
    def test_gaussian_center_and_delay_must_be_finite(self, center, delay):
        with pytest.raises(ValueError, match="finite"):
            GaussianPacket(center, 1.0, delay)

    def test_gaussian_unit_norm(self):
        p = GaussianPacket(2.0, 0.5, delay=1.0)
        grid = np.linspace(*p.support(), 4001)
        norm = np.sum(simpson_weights(grid) * np.abs(p.amplitude(grid)) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_time_amplitude_matches_numeric_transform(self):
        # Truncating the transform at the 8-sigma support cuts an amplitude
        # tail of order exp(-16); the comparison tolerance reflects that.
        p = GaussianPacket(3.0, 1.2, delay=0.4)
        grid = np.linspace(*p.support(), 20001)
        w = simpson_weights(grid)
        for t in (-0.5, 0.0, 0.4, 1.3):
            numeric = np.sum(w * p.amplitude(grid) * np.exp(1j * grid * t))
            assert abs(p.time_amplitude(t) - numeric) <= 1e-6

    def test_tabulated_rejects_unnormalized(self):
        grid = np.linspace(-4, 4, 101)
        with pytest.raises(ValueError):
            TabulatedPacket(grid, np.exp(-(grid**2)))

    def test_tabulated_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            TabulatedPacket(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]))

    def test_non_finite_grid_is_reported_before_its_order(self):
        # A nan frequency read "frequency grid must be strictly increasing".
        with pytest.raises(ValueError, match="samples must be finite"):
            TabulatedPacket.normalized(np.array([0.0, np.nan, 1.0]), np.ones(3))

    def test_tabulated_normalized_factor(self):
        grid = np.linspace(-5, 5, 201)
        raw = np.exp(-(grid**2) / 2.0) * (1 + 0j)
        packet, factor = TabulatedPacket.normalized(grid, raw)
        norm = np.sum(simpson_weights(grid) * np.abs(packet.amp) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-12)
        raw_norm = np.sum(simpson_weights(grid) * np.abs(raw) ** 2)
        assert factor == pytest.approx(1.0 / np.sqrt(raw_norm), abs=1e-12)

    def test_tabulated_zero_outside_support(self):
        p = tabulated_gaussian()
        assert p.amplitude(np.array([100.0]))[0] == 0.0


class TestAlphaInfinite:
    def test_self_overlap_is_one(self):
        p = GaussianPacket(1.0, 0.7, delay=0.2)
        a = alpha_infinite_window(p, p)
        assert abs(a.alpha - 1.0) <= 1e-12
        assert a.alpha_sq == pytest.approx(1.0, abs=1e-10)

    def test_self_overlap_tabulated(self):
        p = tabulated_gaussian(n=1201)
        assert alpha_infinite_window(p, p).alpha_sq == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_supports_give_zero(self):
        p1 = tabulated_gaussian(center=-30.0, n=401)
        p2 = tabulated_gaussian(center=30.0, n=401)
        assert alpha_infinite_window(p1, p2).alpha == 0.0

    @pytest.mark.parametrize("dt", sorted(FROZEN_GAUSSIAN_OVERLAPS))
    def test_delayed_gaussian_frozen_values(self, dt):
        psi = GaussianPacket(0.0, 1.0, delay=0.0)
        phi = GaussianPacket(0.0, 1.0, delay=dt)
        a = alpha_infinite_window(psi, phi)
        assert a.alpha_sq == pytest.approx(FROZEN_GAUSSIAN_OVERLAPS[dt], abs=1e-10)

    def test_against_dense_quadrature_oracle(self):
        # Independent oracle: plain trapezoid at ten times the span resolution.
        psi = GaussianPacket(0.5, 1.3, delay=-0.2)
        phi = GaussianPacket(-0.1, 0.8, delay=0.5)
        lo = min(psi.support()[0], phi.support()[0])
        hi = max(psi.support()[1], phi.support()[1])
        grid = np.linspace(lo, hi, 2**18 + 1)
        oracle = np.trapezoid(phi.amplitude(grid) * np.conj(psi.amplitude(grid)), grid)
        a = alpha_infinite_window(psi, phi)
        assert abs(a.alpha - oracle) <= 1e-9

    def test_monotone_decay_in_delay(self):
        psi = GaussianPacket(0.0, 1.0)
        values = [
            alpha_infinite_window(psi, GaussianPacket(0.0, 1.0, delay=dt)).alpha_sq
            for dt in np.linspace(0.0, 3.0, 16)
        ]
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert all(a > b - 1e-12 for a, b in zip(values, values[1:]))

    def test_exchange_conjugation(self):
        psi = GaussianPacket(0.4, 1.0, delay=0.1)
        phi = GaussianPacket(-0.3, 1.5, delay=0.6)
        ab = alpha_infinite_window(psi, phi).alpha
        ba = alpha_infinite_window(phi, psi).alpha
        assert abs(ab - np.conj(ba)) <= 1e-10

    def test_mixed_kind_pair(self):
        # Piecewise-linear tabulation limits the agreement to the h^2 scale of
        # its own grid; 12001 points over 16 widths put that below 1e-6.
        g = GaussianPacket(0.0, 1.0)
        t = tabulated_gaussian(delay=0.7, n=12001)
        a = alpha_infinite_window(g, t)
        assert a.alpha_sq == pytest.approx(np.exp(-0.49), abs=1e-6)

    @pytest.mark.parametrize("k", range(1, 400))
    def test_delay_sweep_matches_analytic(self, k):
        # Unit widths 0.25k apart, out to 100 widths. The Simpson doubling's
        # stop test was fooled by aliasing at 53 of these delays by more than
        # 1e-9 (0.932 for exp(-2500) at 50).
        d = 0.25 * k
        a = alpha_infinite_window(GaussianPacket(0.0, 1.0), GaussianPacket(0.0, 1.0, d))
        assert abs(a.alpha_sq - np.exp(-d * d)) <= 1e-14

    def test_gaussian_times_csv_matches_30_digit_reference(self, tmp_path):
        # The packets_infinite entry of tools/cli_outputs.py, 3.9e-11 off by the doubling.
        omega = np.linspace(-6.0, 6.0, 201).tolist()
        amp = [np.exp(-w * w / 2.0).item() for w in omega]
        path = tmp_path / "packet.csv"
        path.write_text("omega,re,im\n" + "".join(f"{w!r},{a!r},0.0\n" for w, a in zip(omega, amp)))
        a = alpha_infinite_window(GaussianPacket(0.0, 1.0, 0.3), read_packet_csv(path)[0])
        exact = mpmath_linear_gaussian_alpha(omega, amp, 0.3)
        assert abs(a.alpha - exact) <= 1e-15
        assert abs(a.alpha_sq - abs(exact) ** 2) <= 1e-15

    @pytest.mark.parametrize("width, other", [(1.0, 1.0), (0.5, 0.5), (0.25, 2.0)])
    def test_every_beat_up_to_100_widths_is_answered(self, width, other):
        # sigma_min * |delay| = 100 needs 16,000 panels, under the cap of 16,384.
        psi, phi = GaussianPacket(0.3, width, 5.0), GaussianPacket(0.3, other, 5.0 + 100.0 / width)
        assert alpha_infinite_window(psi, phi).alpha_sq <= 1e-14

    def test_beat_past_the_cap_raises(self):
        psi = GaussianPacket(0.0, 1.0)
        with pytest.raises(QuadratureNotConverged, match="its 103 s delay beat needs more than 16384 panels"):
            alpha_infinite_window(psi, GaussianPacket(0.0, 1.0, 103.0))
        with pytest.raises(QuadratureNotConverged, match="its inf s delay beat"):
            alpha_infinite_window(GaussianPacket(0.0, 1.0, -1e308), GaussianPacket(0.0, 1.0, 1e308))

    def test_common_delay_adds_no_panels(self):
        # Only the relative delay beats: counted, a shared delay of 1e4 widths
        # would ask for 1.6e6 panels and raise.
        psi, phi = GaussianPacket(0.0, 1.0, 1e4), GaussianPacket(0.0, 1.0, 1e4 + 0.5)
        assert alpha_infinite_window(psi, phi).alpha_sq == pytest.approx(np.exp(-0.25), abs=1e-11)

    @pytest.mark.parametrize("common", [0.0] + [10.0**k for k in range(2, 16, 2)])
    def test_common_delay_keeps_the_phase(self, common):
        # Each packet's own phase exp(-i w D) lost |w D| eps: 2.1e-14 at D = 1e4, 3.5e-4 at 1e14.
        psi, phi = GaussianPacket(0.0, 1.0, common), GaussianPacket(0.0, 1.0, common + 0.5)
        assert abs(alpha_infinite_window(psi, phi).alpha_sq - np.exp(-0.25)) <= 1e-14

    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=20, deadline=None)
    def test_global_phase_invariance(self, phase):
        grid = np.linspace(-8.0, 8.0, 1001)
        base = GaussianPacket(0.0, 1.0).amplitude(grid)
        p1 = TabulatedPacket.normalized(grid, base)[0]
        p2 = TabulatedPacket.normalized(grid, base * np.exp(1j * phase))[0]
        ref = GaussianPacket(0.0, 1.0, delay=0.4)
        a1 = alpha_infinite_window(ref, p1).alpha_sq
        a2 = alpha_infinite_window(ref, p2).alpha_sq
        assert a1 == pytest.approx(a2, abs=1e-12)


def nested_window_oracle(psi, phi, t, tau, n_t=129, n_w=1500):
    """Coarse triple-quadrature of the raw windowed double-time integrals."""

    def transform(packet, ts):
        lo, hi = packet.support()
        grid = np.linspace(lo, hi, n_w)
        amps = packet.amplitude(grid)
        out = np.empty(ts.size, dtype=complex)
        for i, tv in enumerate(ts):
            out[i] = np.trapezoid(amps * np.exp(1j * grid * tv), grid)
        return out

    ts = np.linspace(t - tau / 2.0, t + tau / 2.0, n_t)
    f_phi = transform(phi, ts)
    f_psi = transform(psi, ts)
    num = np.trapezoid(f_phi * np.conj(f_psi), ts)
    d_phi = np.trapezoid(np.abs(f_phi) ** 2, ts)
    d_psi = np.trapezoid(np.abs(f_psi) ** 2, ts)
    return num / np.sqrt(d_phi * d_psi)


class TestAlphaFiniteWindow:
    def test_identical_packets_any_window(self):
        p = GaussianPacket(2.0, 1.0, delay=0.3)
        for tau in (0.01, 1.0, 40.0):
            a = alpha_finite_window(p, p, t=0.3, tau=tau)
            assert a.alpha_sq == pytest.approx(1.0, abs=1e-12)

    def test_requires_positive_tau(self):
        p = GaussianPacket(0.0, 1.0)
        with pytest.raises(ValueError):
            alpha_finite_window(p, p, 0.0, 0.0)

    def test_wide_window_matches_infinite(self):
        psi = GaussianPacket(0.0, 1.0, delay=-0.25)
        phi = GaussianPacket(0.0, 1.0, delay=0.25)
        finite = alpha_finite_window(psi, phi, t=0.0, tau=50.0)
        infinite = alpha_infinite_window(psi, phi)
        assert abs(finite.alpha - infinite.alpha) <= 1e-6
        assert finite.alpha_sq == pytest.approx(infinite.alpha_sq, abs=1e-6)

    def test_ultrashort_window_erases_distinguishability(self):
        psi = GaussianPacket(0.0, 1.0, delay=-0.5)
        phi = GaussianPacket(0.0, 1.0, delay=0.5)
        a = alpha_finite_window(psi, phi, t=0.0, tau=1e-3)
        assert a.alpha_sq >= 1.0 - 1e-4

    def test_against_nested_oracle(self):
        psi = GaussianPacket(0.6, 1.0, delay=-0.3)
        phi = GaussianPacket(-0.4, 1.2, delay=0.5)
        a = alpha_finite_window(psi, phi, t=0.1, tau=3.0)
        oracle = nested_window_oracle(psi, phi, t=0.1, tau=3.0)
        assert abs(a.alpha - oracle) <= 1e-5

    def test_against_nested_oracle_tabulated(self):
        psi = tabulated_gaussian(n=901)
        phi = GaussianPacket(0.0, 1.0, delay=0.8)
        a = alpha_finite_window(psi, phi, t=0.4, tau=2.0)
        oracle = nested_window_oracle(psi, phi, t=0.4, tau=2.0)
        assert abs(a.alpha - oracle) <= 1e-5

    def test_monotone_in_delay_for_symmetric_window(self):
        values = []
        for dt in np.linspace(0.0, 2.0, 9):
            psi = GaussianPacket(0.0, 1.0, delay=-dt / 2.0)
            phi = GaussianPacket(0.0, 1.0, delay=dt / 2.0)
            values.append(alpha_finite_window(psi, phi, t=0.0, tau=8.0).alpha_sq)
        assert all(a > b - 1e-10 for a, b in zip(values, values[1:]))

    def test_exchange_conjugation_finite(self):
        psi = GaussianPacket(0.2, 1.0, delay=-0.3)
        phi = GaussianPacket(-0.1, 1.4, delay=0.4)
        ab = alpha_finite_window(psi, phi, t=0.0, tau=3.0).alpha
        ba = alpha_finite_window(phi, psi, t=0.0, tau=3.0).alpha
        assert abs(ab - np.conj(ba)) <= 1e-10

    def test_empty_window(self):
        psi = GaussianPacket(0.0, 1.0, delay=0.0)
        phi = GaussianPacket(0.0, 1.0, delay=0.1)
        with pytest.raises(EmptyWindow):
            alpha_finite_window(psi, phi, t=500.0, tau=1.0)

    def test_one_sided_support_is_empty(self):
        psi = GaussianPacket(0.0, 1.0, delay=0.0)
        phi = GaussianPacket(0.0, 1.0, delay=60.0)
        with pytest.raises(EmptyWindow):
            alpha_finite_window(psi, phi, t=60.0, tau=2.0)


class TestOverlapAlpha:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            OverlapAlpha(1.1)
        with pytest.raises(ValueError):
            OverlapAlpha.from_alpha_sq(1.5)

    def test_clamps_rounding_overshoot(self):
        a = OverlapAlpha(1.0 + 4e-11)
        assert a.alpha_sq == 1.0

    def test_distinguishability(self):
        assert temporal_distinguishability(OverlapAlpha(1.0)) == 0.0
        assert temporal_distinguishability(OverlapAlpha(0.0)) == 1.0
        assert temporal_distinguishability(0.5) == pytest.approx(0.5)


class TestCsvReader:
    def test_round_trip(self, tmp_path):
        grid = np.linspace(-6, 6, 301)
        amp = np.exp(-(grid**2) / 4.0) * np.exp(0.3j * grid)
        path = tmp_path / "packet.csv"
        lines = ["omega,re,im"] + [f"{w},{a.real},{a.imag}" for w, a in zip(grid, amp)]
        path.write_text("\n".join(lines) + "\n")
        packet, factor = read_packet_csv(path)
        assert factor > 0.0
        norm = np.sum(simpson_weights(packet.omega) * np.abs(packet.amp) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_samples_checked_and_weighted_once_per_read(self, tmp_path, monkeypatch):
        grid = np.linspace(-6, 6, 201)
        path = tmp_path / "packet.csv"
        path.write_text("omega,re,im\n" + "".join(f"{w},{np.exp(-w * w / 2)},0.0\n" for w in grid))
        calls = []
        for name in ("_checked_samples", "simpson_weights"):
            original = getattr(wavepacket, name)
            monkeypatch.setattr(wavepacket, name, lambda *a, name=name, fn=original: calls.append(name) or fn(*a))
        packet, _ = read_packet_csv(path)
        assert sorted(calls) == ["_checked_samples", "simpson_weights"]
        assert np.array_equal(packet.omega, grid)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0,0.0\n1.0,1.0,0.0\n")
        with pytest.raises(ValueError):
            read_packet_csv(path)

    def test_short_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,re,im\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_packet_csv(path)


def loop_refined_integral(fn, lo, hi, breaks, tol, max_level=14):
    """The per-segment Simpson doubling loop the infinite window once ran.

    Kept as an independent oracle: one fn call per segment and level, every
    node re-evaluated, segments summed in order.
    """
    if hi <= lo:
        return 0.0 + 0.0j
    pts = [lo] + [float(b) for b in np.asarray(breaks, dtype=float) if lo < b < hi] + [hi]
    pts = sorted(set(pts))
    segments = list(zip(pts[:-1], pts[1:]))
    start_level = 3 if len(segments) < 64 else 1

    def total(level):
        n_sub = 2**level
        acc = 0.0 + 0.0j
        for a, b in segments:
            x = np.linspace(a, b, n_sub + 1)
            y = fn(x)
            h = (b - a) / n_sub
            acc += h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        return acc

    prev = total(start_level)
    for level in range(start_level + 1, max_level + 1):
        cur = total(level)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureNotConverged("oracle did not converge")


def loop_breakpoints(packet):
    return packet.omega if isinstance(packet, TabulatedPacket) else np.empty(0)


def loop_alpha(psi, phi):
    """Infinite-window alpha from three separate oracle integrals, each doubled to a 1e-9 step."""
    tol = 1e-9
    lo = max(psi.support()[0], phi.support()[0])
    hi = min(psi.support()[1], phi.support()[1])
    breaks = np.concatenate([loop_breakpoints(psi), loop_breakpoints(phi)])
    num = loop_refined_integral(lambda w: phi.amplitude(w) * np.conj(psi.amplitude(w)), lo, hi, breaks, tol)
    norms = [
        loop_refined_integral(lambda w, p=p: np.abs(p.amplitude(w)) ** 2, *p.support(), loop_breakpoints(p), tol).real
        for p in (psi, phi)
    ]
    return OverlapAlpha(complex(num) / np.sqrt(norms[0] * norms[1]))


def sinc_kernel_alpha(psi, phi, t, tau):
    """Exact finite-window alpha of two tabulated packets, as a double sum.

    time_amplitude is the discrete sum f(s) = sum_k c_k exp(i w_k s), so each
    window integral is sum_kl c_k conj(c_l) tau exp(i D t) sinc(D tau / 2)
    with D = w_k - w_l. Well conditioned only where the window holds a fair
    share of the intensity: the terms are O(1) whatever the result.
    """

    def cross(p, q):
        d = p.omega[:, None] - q.omega[None, :]
        kernel = tau * np.exp(1j * d * t) * np.sinc(d * tau / (2.0 * np.pi))
        return (p._weights * p.amp) @ kernel @ np.conj(q._weights * q.amp)

    return cross(phi, psi) / np.sqrt(cross(psi, psi).real * cross(phi, phi).real)


def mpmath_gaussian_alpha(psi, phi, t, tau):
    """Finite-window alpha of two Gaussian packets by mpmath.quad at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def f(p, s):
        u, w = s - p.delay, mpmath.mpf(p.width)
        scale = (2 * mpmath.pi * w**2) ** -0.25 * 2 * w * mpmath.sqrt(mpmath.pi)
        return scale * mpmath.exp(1j * p.center * u - w**2 * u**2)

    span = [t - tau / 2.0, t, t + tau / 2.0]
    num = mpmath.quad(lambda s: f(phi, s) * mpmath.conj(f(psi, s)), span)
    d_psi, d_phi = (mpmath.quad(lambda s, p=p: abs(f(p, s)) ** 2, span) for p in (psi, phi))
    return complex(num / mpmath.sqrt(d_psi * d_phi))


def mpmath_linear_gaussian_alpha(omega, amp, delay):
    """Infinite-window alpha of a unit-width Gaussian and a real linear interpolant, at 30 digits.

    On each grid segment the cross integrand is (c0 + c1 w) exp(-w^2 / 4 + i delay w),
    whose integral is closed in erf; the interpolant's norm is exact per segment.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    a, b = mpmath.mpf(1) / 4, 1j * mpmath.mpf(delay)

    def moment0(w):  # an antiderivative of exp(-a w^2 + b w)
        return mpmath.sqrt(mpmath.pi / a) / 2 * mpmath.exp(b * b / (4 * a)) * mpmath.erf(
            mpmath.sqrt(a) * w - b / (2 * mpmath.sqrt(a))
        )

    def moment1(w):  # an antiderivative of w exp(-a w^2 + b w)
        return -mpmath.exp(-a * w * w + b * w) / (2 * a) + b / (2 * a) * moment0(w)

    x, y = [mpmath.mpf(w) for w in omega], [mpmath.mpf(v) for v in amp]
    m0, m1 = [moment0(w) for w in x], [moment1(w) for w in x]
    num = norm = 0
    for i in range(len(x) - 1):
        h = x[i + 1] - x[i]
        c1 = (y[i + 1] - y[i]) / h
        num += (y[i] - c1 * x[i]) * (m0[i + 1] - m0[i]) + c1 * (m1[i + 1] - m1[i])
        norm += h * (y[i] ** 2 + y[i] * y[i + 1] + y[i + 1] ** 2) / 3
    num *= (2 * mpmath.pi) ** mpmath.mpf(-0.25)
    gaussian_norm = mpmath.erf(8 / mpmath.sqrt(2))  # over its +-8 sigma support
    return complex(num / mpmath.sqrt(norm * gaussian_norm))


def quadrature_pairs():
    """Tabulated pairs at the benchmark's sample counts, and Gaussian pairs."""
    for n in (201, 401, 801):
        for sigma, delay in ((0.5, 1.1), (1.0, 0.4), (1.7, 0.9)):
            psi = tabulated_gaussian(width=sigma, n=n)
            phi = tabulated_gaussian(width=sigma, delay=delay / sigma, n=n)
            yield f"tab{n}-s{sigma}", psi, phi, (0.5 * delay / sigma, 2.5 / sigma)
    for sigma, delay in ((0.5, 1.1), (1.3, 0.7)):
        psi = GaussianPacket(0.2, sigma)
        phi = GaussianPacket(-0.1, sigma * 1.1, delay / sigma)
        yield f"gauss-s{sigma}", psi, phi, (0.5 * delay / sigma, 2.5 / sigma)


class TestArrayQuadrature:
    @pytest.mark.parametrize("case", list(quadrature_pairs()), ids=lambda c: c[0])
    def test_alpha_matches_loop_oracle(self, case):
        # Infinite window: the loop adds ~800 segment terms in order, which
        # alone moves alpha by up to ~2e-15; the array sums are closer to an
        # exact sum. Finite window: exact references, against which the old
        # Simpson doubling was off by up to ~5e-11.
        name, psi, phi, window = case
        new, old = alpha_infinite_window(psi, phi), loop_alpha(psi, phi)
        assert abs(new.alpha_sq - old.alpha_sq) <= 2e-15
        assert abs(new.alpha - old.alpha) <= 2e-15
        exact = (mpmath_gaussian_alpha if name.startswith("gauss") else sinc_kernel_alpha)(psi, phi, *window)
        new = alpha_finite_window(psi, phi, *window)
        assert abs(new.alpha_sq - abs(exact) ** 2) <= 1e-13
        assert abs(new.alpha - exact) <= 1e-13

    def test_unresolvable_window_raises(self):
        # Carriers 1e6 apart beat faster than 2^14 nodes per window resolve.
        psi, phi = GaussianPacket(0.0, 1.0), GaussianPacket(1e6, 1.0)
        with pytest.raises(QuadratureNotConverged):
            alpha_finite_window(psi, phi, 0.0, 2.0)

    def test_time_amplitude_keeps_the_input_shape(self):
        p = tabulated_gaussian(n=201)
        s = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert p.time_amplitude(s).shape == (3, 4)
        assert np.all(p.time_amplitude(s) == p.time_amplitude(s.ravel()).reshape(3, 4))
        assert np.ndim(p.time_amplitude(0.3)) == 0


class CountingPacket:
    """Wraps a packet and records the size of every time_amplitude call."""

    def __init__(self, packet):
        self.packet, self.sizes = packet, []

    def support(self):
        return self.packet.support()

    def time_amplitude(self, s):
        self.sizes.append(np.size(s))
        return self.packet.time_amplitude(s)


def dense_window_alphas(psi, phi, ts, tau, per_window=1000):
    """Finite-window alpha by composite Simpson on a dense grid, per window in ts.

    The same pointwise integrands as the library, so faint windows keep their
    conditioning; ts and tau / 2 must be multiples of tau / per_window.
    Returns the alphas and the two intensity factors of every window.
    """
    h = tau / per_window
    start = np.round((ts - tau / 2.0) / h).astype(int)
    grid = np.arange(start.min(), start.max() + per_window + 1) * h
    f_psi, f_phi = (
        np.concatenate([p.time_amplitude(grid[i : i + 1024]) for i in range(0, grid.size, 1024)])
        for p in (psi, phi)
    )
    w = simpson_weights(np.arange(per_window + 1) * h)
    out = []
    for i in start - start.min():
        a, b = f_psi[i : i + per_window + 1], f_phi[i : i + per_window + 1]
        d_psi, d_phi = w @ np.abs(a) ** 2, w @ np.abs(b) ** 2
        out.append((w @ (b * np.conj(a)) / np.sqrt(d_psi * d_phi), d_psi, d_phi))
    return out


class TestGaussLegendreWindow:
    def test_rule_matches_numpy_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        for n in (4, 24):  # the infinite and the finite window's rule
            x, w = leggauss(n)
            nodes, weights = wavepacket._gauss_legendre(n)
            assert np.max(np.abs(nodes - x)) <= 1e-15
            assert np.max(np.abs(weights - w)) <= 2e-15
            assert np.all(np.diff(nodes) > 0.0)

    @pytest.mark.parametrize("delay", [0.05, 0.7])
    def test_faint_windows_match_dense_oracle(self, delay):
        # 801-sample unit-width packets; from t ~ 2.5 the window holds under
        # 1e-4 of the intensity and from t = 4.2 under the 1e-14 floor. The
        # old doubling stopped on an absolute 1e-9 step and was off by up to
        # 7e-5 here.
        psi = tabulated_gaussian(width=1.0, n=801)
        phi = tabulated_gaussian(width=1.0, delay=delay, n=801)
        ts = np.round(np.arange(0.0, 4.5 + 1e-9, 0.05), 10)
        empty = []
        for t, (alpha, d_psi, d_phi) in zip(ts, dense_window_alphas(psi, phi, ts, 0.5)):
            if min(d_psi, d_phi) < wavepacket._DENOM_FLOOR:
                empty.append(t)
                with pytest.raises(EmptyWindow):
                    alpha_finite_window(psi, phi, t, 0.5)
            else:
                assert abs(alpha_finite_window(psi, phi, t, 0.5).alpha_sq - abs(alpha) ** 2) <= 1e-10, t
        assert empty == [4.2, 4.25, 4.3, 4.35, 4.4, 4.45, 4.5]

    @pytest.mark.parametrize(
        "center, width, delay, t, tau",
        [
            (1.8837681774823682, 1.5113290581775096, 0.6714351319387211, 0.33571756596936053, 1.783601209355017),
            (-1.5873174161802084, 1.3159222360782856, 0.2824886727845235, 0.14124433639226175, 1.412974689269509),
        ],
        ids=["analyze-seed311-op1182", "analyze-seed312-op2169"],
    )
    def test_benchmark_gaussian_windows(self, center, width, delay, t, tau):
        # Two analyze benchmark ops where the old doubling passed its step
        # test early and missed the analytic |alpha|^2 by 3.5e-8 and 1.3e-8.
        psi, phi = GaussianPacket(center, width), GaussianPacket(center, width, delay)
        exact = mpmath_gaussian_alpha(psi, phi, t, tau)
        assert abs(alpha_finite_window(psi, phi, t, tau).alpha_sq - abs(exact) ** 2) <= 1e-13

    def test_panel_count_follows_the_widest_beat(self):
        # Supports +-8: the widest beat is 16 rad/s, so a window of 2 s gets
        # ceil(16 * 2 / 16) = 2 panels of 24 nodes, in one call per packet.
        psi, phi = CountingPacket(GaussianPacket(0.0, 1.0)), CountingPacket(GaussianPacket(0.0, 1.0, 0.3))
        alpha_finite_window(psi, phi, 0.1, 2.0)
        assert psi.sizes == phi.sizes == [48]
        # Carriers 10 apart widen the beat to 26 rad/s: ceil(26 * 2 / 16) = 4 panels.
        far = CountingPacket(GaussianPacket(10.0, 1.0))
        alpha_finite_window(psi, far, 0.1, 2.0)
        assert sum(far.sizes) == 96
        tiny = CountingPacket(GaussianPacket(0.0, 1.0))
        alpha_finite_window(tiny, tiny, 0.0, 1e-3)
        assert tiny.sizes == [24, 24]

    def test_long_windows_are_evaluated_in_blocks(self):
        # 600 panels, 14,400 nodes: under the 2^14 + 1 cap, in many blocks.
        psi = CountingPacket(GaussianPacket(0.0, 1.0, -0.4))
        phi = CountingPacket(GaussianPacket(0.0, 1.0, 0.4))
        a = alpha_finite_window(psi, phi, 0.0, 600.0)
        assert sum(psi.sizes) == 14400 and max(psi.sizes) <= wavepacket._BLOCK
        assert a.alpha_sq == pytest.approx(np.exp(-0.64), abs=1e-13)

    def test_node_cap(self):
        psi = GaussianPacket(0.0, 1.0)
        # Widest beat 16 rad/s: 682 panels (16,368 nodes) fit, 682.5 and 683 do not.
        alpha_finite_window(psi, psi, 0.0, 682.0)
        for tau in (682.5, 683.0, np.inf):
            with pytest.raises(QuadratureNotConverged, match="16 rad/s beat needs more than 682 panels"):
                alpha_finite_window(psi, psi, 0.0, tau)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["gaussian", "tabulated"])
    def test_non_finite_window_is_empty(self, t, kind):
        p = GaussianPacket(0.0, 1.0) if kind == "gaussian" else tabulated_gaussian(n=201)
        with pytest.raises(EmptyWindow), np.errstate(invalid="ignore"):
            alpha_finite_window(p, p, t, 1.0)
