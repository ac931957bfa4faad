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
    """The per-segment Simpson doubling loop the array quadrature replaced.

    Kept verbatim as the oracle: one fn call per segment and level, every
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


def loop_alpha(psi, phi, window=None):
    """alpha from three separate oracle integrals, as before the stacked form."""
    tol = wavepacket._QUAD_TOL
    if window is None:
        lo = max(psi.support()[0], phi.support()[0])
        hi = min(psi.support()[1], phi.support()[1])
        breaks = np.concatenate([wavepacket._breakpoints(psi), wavepacket._breakpoints(phi)])
        num = loop_refined_integral(
            lambda w: phi.amplitude(w) * np.conj(psi.amplitude(w)), lo, hi, breaks, tol
        )
        norms = [
            loop_refined_integral(
                lambda w, p=p: np.abs(p.amplitude(w)) ** 2, *p.support(), wavepacket._breakpoints(p), tol
            ).real
            for p in (psi, phi)
        ]
    else:
        t, tau = window
        lo, hi = t - tau / 2.0, t + tau / 2.0
        num = loop_refined_integral(
            lambda s: phi.time_amplitude(s) * np.conj(psi.time_amplitude(s)), lo, hi, (), tol
        )
        norms = [
            loop_refined_integral(lambda s, p=p: np.abs(p.time_amplitude(s)) ** 2, lo, hi, (), tol).real
            for p in (psi, phi)
        ]
    return OverlapAlpha(complex(num) / np.sqrt(norms[0] * norms[1]))


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
        # The loop adds ~800 segment terms in order, which alone moves alpha
        # by up to ~2e-15; the array sums are closer to an exact sum.
        _, psi, phi, window = case
        for new, old in (
            (alpha_infinite_window(psi, phi), loop_alpha(psi, phi)),
            (alpha_finite_window(psi, phi, *window), loop_alpha(psi, phi, window)),
        ):
            assert abs(new.alpha_sq - old.alpha_sq) <= 2e-15
            assert abs(new.alpha - old.alpha) <= 2e-15

    def test_scalar_integral_matches_loop_oracle(self):
        fn = lambda x: np.exp(1j * 3.0 * x) / (1.0 + x**2)  # noqa: E731
        breaks = np.linspace(-2.0, 3.0, 90)  # enough segments for the shallow start
        for lo, hi, br in ((-1.0, 2.0, ()), (-2.5, 3.5, breaks)):
            new = wavepacket._refined_integral(fn, lo, hi, br, 1e-12)
            assert abs(new - loop_refined_integral(fn, lo, hi, br, 1e-12)) <= 1e-15

    def test_stacked_integrands_stop_at_their_own_level(self):
        smooth = lambda x: np.exp(-x)  # noqa: E731
        wiggly = lambda x: np.cos(40.0 * x) * x  # noqa: E731
        calls = {}

        def counted(name, f):
            def g(x):
                calls[name] = calls.get(name, 0) + 1
                return f(x)

            return g

        for br in ((), (0.5, 1.2)):
            calls.clear()
            a = wavepacket._refined_integral(counted("smooth", smooth), 0.0, 2.0, br, 1e-9)
            b = wavepacket._refined_integral(counted("wiggly", wiggly), 0.0, 2.0, br, 1e-9)
            assert calls["smooth"] < calls["wiggly"]  # one stops at a shallower level
            both = wavepacket._refined_integral(
                lambda x: np.stack([smooth(x), wiggly(x)]), 0.0, 2.0, br, 1e-9
            )
            assert both.shape == (2,)
            assert both[0] == a and both[1] == b

    def test_empty_interval_is_zero(self):
        assert wavepacket._refined_integral(np.cos, 1.0, 1.0, (), 1e-9) == 0.0
        stacked = lambda x: np.stack([np.cos(x), np.sin(x)])  # noqa: E731
        both = wavepacket._refined_integral(stacked, 2.0, 1.0, (), 1e-9)
        assert both.shape == (2,) and not both.any()

    def test_stalled_doubling_raises(self):
        with pytest.raises(QuadratureNotConverged, match=r"last refinement step [1-9]"):
            wavepacket._refined_integral(lambda x: np.cos(1e4 * x), 0.0, 1.0, (), 1e-9, max_level=4)
        # A stacked call fails when any one integrand stalls.
        with pytest.raises(QuadratureNotConverged):
            wavepacket._refined_integral(
                lambda x: np.stack([np.ones_like(x), np.cos(1e4 * x)]), 0.0, 1.0, (), 1e-9, max_level=6
            )

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
