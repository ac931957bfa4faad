import numpy as np
import pytest

from bellsplit import bell
from bellsplit.bell import (
    AnalyzerSetting,
    TSIRELSON,
    chsh_bruteforce,
    coincidence_probs,
    correlation_matrix,
    correlator_e,
    emax,
    u_eigen_closed,
)
from bellsplit.scattering import gammas, hybrid, make_scattering, preset
from bellsplit.smallmat import dagger, haar_unitary, max_abs
from bellsplit.state import PolarizationState, ZeroCoincidence, build_rho

BELL_PHI_PLUS = np.zeros((4, 4), complex)
BELL_PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

MAXIMALLY_MIXED = np.eye(4, dtype=complex) / 4.0

PRODUCT_HH = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def correlator_e_trace(state, rl, rr):
    """Trace oracle for the count-ratio correlator: Tr rho (O_l x O_r) with O = rotation† sigma_z rotation."""
    obs = np.kron(rl.observable(), rr.observable())
    return float(np.trace(state.rho @ obs).real)


def pipeline(seed, alpha_sq):
    sm = make_scattering(haar_unitary(4, seed))
    g = gammas(sm)
    return hybrid(sm), g, build_rho(g, alpha_sq)


class TestAnalyzerSetting:
    def test_requires_unitary(self):
        with pytest.raises(ValueError):
            AnalyzerSetting(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_from_angles_unitary(self):
        s = AnalyzerSetting.from_angles(0.3, 1.1, -0.4)
        assert max_abs(dagger(s.rotation) @ s.rotation - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize(
        "axis", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, -0.64, 0.48)]
    )
    def test_from_axis_round_trip(self, axis):
        s = AnalyzerSetting.from_axis(axis)
        v = np.asarray(axis) / np.linalg.norm(axis)
        assert np.allclose(s.bloch_axis(), v, atol=1e-12)


class TestCoincidenceProbs:
    def test_product_state_identity_settings(self):
        state = PolarizationState.from_matrix(PRODUCT_HH)
        ident = AnalyzerSetting(np.eye(2))
        assert np.allclose(coincidence_probs(state, ident, ident), [1, 0, 0, 0], atol=1e-14)

    def test_maximally_mixed_flat(self):
        state = PolarizationState.from_matrix(MAXIMALLY_MIXED)
        for seed in range(5):
            rl = AnalyzerSetting(haar_unitary(2, 400 + seed))
            rr = AnalyzerSetting(haar_unitary(2, 500 + seed))
            assert np.allclose(coincidence_probs(state, rl, rr), 0.25, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        _, _, rho = pipeline(410_000, 0.6)
        for seed in range(10):
            rl = AnalyzerSetting(haar_unitary(2, 600 + seed))
            rr = AnalyzerSetting(haar_unitary(2, 700 + seed))
            p = coincidence_probs(rho, rl, rr)
            assert p.min() >= -1e-12
            assert p.sum() == pytest.approx(1.0, abs=1e-10)


class TestCorrelator:
    def test_bell_state_perfect_correlation(self):
        state = PolarizationState.from_matrix(BELL_PHI_PLUS)
        ident = AnalyzerSetting(np.eye(2))
        assert correlator_e(state, ident, ident) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_uncorrelated(self):
        state = PolarizationState.from_matrix(MAXIMALLY_MIXED)
        rl = AnalyzerSetting(haar_unitary(2, 42))
        rr = AnalyzerSetting(haar_unitary(2, 43))
        assert abs(correlator_e(state, rl, rr)) <= 1e-12

    def test_ratio_equals_trace_form(self):
        _, _, rho = pipeline(420_000, 0.55)
        for seed in range(20):
            rl = AnalyzerSetting(haar_unitary(2, 800 + seed))
            rr = AnalyzerSetting(haar_unitary(2, 900 + seed))
            assert abs(correlator_e(rho, rl, rr) - correlator_e_trace(rho, rl, rr)) <= 1e-10

    def test_equals_tensor_contraction(self):
        _, _, rho = pipeline(430_000, 0.8)
        r = correlation_matrix(rho).r
        for seed in range(20):
            rl = AnalyzerSetting(haar_unitary(2, 1000 + seed))
            rr = AnalyzerSetting(haar_unitary(2, 1100 + seed))
            contraction = rl.bloch_axis() @ r @ rr.bloch_axis()
            assert abs(correlator_e(rho, rl, rr) - contraction) <= 1e-10


class TestCorrelationMatrix:
    def test_maximally_mixed_zero(self):
        assert max_abs(correlation_matrix(PolarizationState.from_matrix(MAXIMALLY_MIXED)).r) <= 1e-12

    def test_bell_state_tensor(self):
        r = correlation_matrix(PolarizationState.from_matrix(BELL_PHI_PLUS)).r
        assert np.allclose(r, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_entries_bounded(self):
        for i in range(50):
            _, _, rho = pipeline(440_000 + i, 0.5)
            assert np.abs(correlation_matrix(rho).r).max() <= 1.0 + 1e-10

    def test_gamma_route_cross_check_runs(self):
        # States built from amplitude pairs carry provenance: both routes run
        # and must agree (a disagreement raises).
        for i in range(100):
            _, _, rho = pipeline(450_000 + i, 0.71)
            correlation_matrix(rho)


class TestClosedEigenvalues:
    def test_balanced_pure_point(self):
        x = hybrid(preset("balanced_pc"))
        u1, u2, u3 = u_eigen_closed(x, 1.0)
        assert (u1, u2, u3) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_no_overlap_kills_u3(self):
        x = hybrid(preset("balanced_pc"))
        _, _, u3 = u_eigen_closed(x, 0.0)
        assert u3 == 0.0

    def test_spectrum_identity(self):
        # Central oracle: closed (u1, u2, u3) equals the spectrum of R^T R.
        for i in range(200):
            x, g, rho = pipeline(460_000 + i, float(np.linspace(0.05, 0.95, 200)[i]))
            r = correlation_matrix(rho).r
            numeric = np.sort(np.linalg.eigvalsh(r.T @ r))
            closed = np.sort(u_eigen_closed(x, rho.alpha_sq))
            assert np.abs(numeric - closed).max() <= 1e-8

    def test_degenerate_u1_u2_matches_horodecki(self):
        # Pure states of the mixing splitter have u1 = u2 = 1 for every theta,
        # where the discriminant of the closed form vanishes.
        for theta in np.linspace(0.01, 1.56, 2000):
            sm = preset("balanced_mixing", float(theta))
            u1, u2, u3 = u_eigen_closed(hybrid(sm), 1.0)
            r = correlation_matrix(build_rho(gammas(sm), 1.0)).r
            w = np.linalg.eigvalsh(r.T @ r)
            e_h = 2.0 * np.sqrt(max(0.0, w[-1] + w[-2]))
            assert abs(2.0 * np.sqrt(u1 + max(u2, u3)) - e_h) <= 1e-8, theta

    def test_zero_coincidence_raises(self):
        x = hybrid(preset("balanced_mixing", np.pi / 2.0))
        with pytest.raises(ZeroCoincidence):
            u_eigen_closed(x, 1.0)


class TestEmax:
    def test_balanced_pure_tsirelson(self):
        x = hybrid(preset("balanced_pc"))
        rep = emax(x, 1.0)
        assert rep.emax_closed == pytest.approx(TSIRELSON, abs=1e-10)
        assert rep.violating

    def test_gisin_relation_pure_states(self):
        from bellsplit.state import concurrence_closed

        for i in range(50):
            x, g, _ = pipeline(470_000 + i, 1.0)
            rep = emax(x, 1.0, gamma_pair=g)
            c = concurrence_closed(x, 1.0)
            assert rep.emax_closed == pytest.approx(2.0 * np.sqrt(1.0 + c * c), abs=1e-8)
            assert rep.emax_horodecki == pytest.approx(2.0 * np.sqrt(1.0 + c * c), abs=1e-8)

    def test_no_mixing_violation_iff_entangled(self):
        from bellsplit.state import concurrence_closed

        x = hybrid(preset("balanced_pc"))
        for a in (0.2, 0.5, 0.9):
            rep = emax(x, a)
            c = concurrence_closed(x, a)
            assert c > 0.0
            assert rep.emax_closed == pytest.approx(2.0 * np.sqrt(1.0 + c * c), abs=1e-8)
            assert rep.violating

    def test_mixed_state_band(self):
        from bellsplit.state import concurrence_closed

        for i in range(100):
            a = float(np.linspace(0.1, 0.95, 100)[i])
            x, g, _ = pipeline(480_000 + i, a)
            rep = emax(x, a, gamma_pair=g)
            c = concurrence_closed(x, a)
            assert 2.0 * c * np.sqrt(2.0) - 1e-8 <= rep.emax_closed <= 2.0 * np.sqrt(1.0 + c * c) + 1e-8

    def test_closed_matches_horodecki_and_bruteforce(self):
        for i in range(20):
            a = float(np.linspace(0.15, 0.9, 20)[i])
            x, g, _ = pipeline(490_000 + i, a)
            rep = emax(x, a, gamma_pair=g)
            assert abs(rep.emax_closed - rep.emax_horodecki) <= 1e-8
            assert rep.emax_bruteforce <= rep.emax_horodecki + 1e-6
            assert rep.emax_bruteforce >= rep.emax_horodecki - 1e-4

    def test_representative_construction_matches_supplied_gammas(self):
        # Without amplitudes the numeric route runs on a rebuilt splitter
        # sharing the hybrid matrix; the report must be unchanged.
        x, g, _ = pipeline(495_000, 0.6)
        with_g = emax(x, 0.6, gamma_pair=g)
        without_g = emax(x, 0.6)
        assert with_g.emax_closed == without_g.emax_closed
        assert abs(with_g.emax_horodecki - without_g.emax_horodecki) <= 1e-8

    def test_correlation_tensor_computed_once(self, monkeypatch):
        # The oracle reuses the tensor of the Horodecki route.
        calls = []
        original = bell.correlation_matrix

        def counting(state, *args, **kwargs):
            calls.append(state)
            return original(state, *args, **kwargs)

        monkeypatch.setattr(bell, "correlation_matrix", counting)
        x, g, _ = pipeline(495_500, 0.6)
        emax(x, 0.6, gamma_pair=g)
        assert len(calls) == 1


class TestBruteforce:
    def test_bell_state_reaches_tsirelson(self):
        state = PolarizationState.from_matrix(BELL_PHI_PLUS)
        value = chsh_bruteforce(state, correlation_matrix(state).r)
        assert value == pytest.approx(TSIRELSON, abs=1e-4)

    def test_product_state_reaches_classical_bound(self):
        state = PolarizationState.from_matrix(PRODUCT_HH)
        value = chsh_bruteforce(state, correlation_matrix(state).r)
        assert value == pytest.approx(2.0, abs=1e-4)

    def test_deterministic(self):
        _, _, rho = pipeline(496_000, 0.45)
        r = correlation_matrix(rho).r
        assert chsh_bruteforce(rho, r) == chsh_bruteforce(rho, r)

    def test_local_unitary_invariance(self):
        _, _, rho = pipeline(497_000, 0.66)
        vl = haar_unitary(2, 11)
        vr = haar_unitary(2, 12)
        u = np.kron(vl, vr)
        rotated = PolarizationState.from_matrix(u @ rho.rho @ dagger(u))
        r0 = correlation_matrix(rho).r
        r1 = correlation_matrix(rotated).r
        w0 = np.sort(np.linalg.eigvalsh(r0.T @ r0))
        w1 = np.sort(np.linalg.eigvalsh(r1.T @ r1))
        assert np.abs(w0 - w1).max() <= 1e-8
        e0 = 2.0 * np.sqrt(w0[2] + w0[1])
        e1 = 2.0 * np.sqrt(w1[2] + w1[1])
        assert abs(e0 - e1) <= 1e-8


def test_bell_report_json_round_trip():
    import json

    x = hybrid(preset("balanced_pc"))
    rep = emax(x, 1.0)
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["branch"] == "u3_active"
    assert payload["violating"] is True
    assert payload["emax_closed"] == pytest.approx(TSIRELSON, abs=1e-10)
