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
from bellsplit.scattering import STATISTICS, gammas, hybrid, make_scattering, preset
from bellsplit.smallmat import PAULIS, SIGMA_Z, ConsistencyError, dagger, haar_unitary, max_abs
from bellsplit.state import PolarizationState, ZeroCoincidence, build_rho, normalization
from bellsplit.verify import ALPHA_LADDER

BELL_PHI_PLUS = np.zeros((4, 4), complex)
BELL_PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5

MAXIMALLY_MIXED = np.eye(4, dtype=complex) / 4.0

PRODUCT_HH = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def observable(setting):
    """The dichotomic observable rotation† sigma_z rotation that an analyzer setting measures."""
    return dagger(setting.rotation) @ SIGMA_Z @ setting.rotation


def bloch_axis(setting):
    obs = observable(setting)
    return np.array([np.trace(obs @ p).real / 2.0 for p in PAULIS])


def correlator_e_trace(state, rl, rr):
    """Trace oracle for the count-ratio correlator: Tr rho (O_l x O_r) with O = rotation† sigma_z rotation."""
    obs = np.kron(observable(rl), observable(rr))
    return float(np.trace(state.rho @ obs).real)


def correlation_traces(state):
    """Trace oracle for both routes of the correlation tensor, 18 Python-level traces.

    Returns (direct, amplitude): R_kl = Tr rho (sigma_k x sigma_l), and the same tensor as
    (1 + a) Tr(g1† sigma_k g1 sigma_l^T) + (1 - a) Tr(g2† sigma_k g2 sigma_l^T) over the norm.
    """
    r = np.empty((3, 3))
    rg = np.empty((3, 3))
    g1, g2, a = state.gammas.gamma1, state.gammas.gamma2, state.alpha_sq
    norm = normalization(state.gammas, a)
    for k in range(3):
        for l in range(3):
            r[k, l] = np.trace(state.rho @ np.kron(PAULIS[k], PAULIS[l])).real
            rg[k, l] = (
                (1.0 + a) * np.trace(dagger(g1) @ PAULIS[k] @ g1 @ PAULIS[l].T)
                + (1.0 - a) * np.trace(dagger(g2) @ PAULIS[k] @ g2 @ PAULIS[l].T)
            ).real / norm
    return r, rg


def coincidence_probs_kron(state, rl, rr):
    """coincidence_probs with the joint rotation formed by np.kron."""
    u = np.kron(rl.rotation, rr.rotation)
    return np.diag(u @ state.rho @ dagger(u)).real.copy()


def pipeline(seed, alpha_sq, statistics="bosonic"):
    sm = make_scattering(haar_unitary(4, seed))
    g = gammas(sm, statistics)
    return hybrid(sm), g, build_rho(g, alpha_sq)


def _bloch(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def chsh_grid_search(state, corr):
    """Search oracle for CHSH that does not use the plane-normal reduction.

    For fixed right-hand axes (b, b') the best left-hand pair is analytic in R;
    (b, b') themselves come from a 288 x 288 grid of Bloch axes followed by
    coordinate descent on their polar angles. The value is re-measured from
    coincidence probabilities at the best settings found.
    """
    n_theta = 12
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(2 * n_theta) / (2 * n_theta)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    angles = np.stack([tg.ravel(), pg.ravel()], axis=-1)
    axes = np.array([_bloch(*ang) for ang in angles])
    ra = axes @ corr.T
    h = np.linalg.norm(ra[:, None, :] + ra[None, :, :], axis=-1)
    h += np.linalg.norm(ra[:, None, :] - ra[None, :, :], axis=-1)

    def objective(p):
        b, bp = _bloch(p[0], p[1]), _bloch(p[2], p[3])
        return np.linalg.norm(corr @ (b + bp)) + np.linalg.norm(corr @ (b - bp))

    best_val, best_p = -np.inf, None
    for idx in np.argsort(h.reshape(-1))[::-1][:5]:
        i, j = divmod(int(idx), len(axes))
        p = np.concatenate([angles[i], angles[j]])
        val = objective(p)
        step = np.pi / n_theta
        while step > 1e-8:
            moved = False
            for k in range(4):
                for sign in (1.0, -1.0):
                    q = p.copy()
                    q[k] += sign * step
                    v = objective(q)
                    if v > val + 1e-15:
                        val, p, moved = v, q, True
            if not moved:
                step /= 2.0
        if val > best_val:
            best_val, best_p = val, p

    b, bp = _bloch(best_p[0], best_p[1]), _bloch(best_p[2], best_p[3])
    rl = AnalyzerSetting.from_axis(corr @ (b + bp))
    rlp = AnalyzerSetting.from_axis(corr @ (b - bp))
    rr, rrp = AnalyzerSetting.from_axis(b), AnalyzerSetting.from_axis(bp)
    return abs(
        correlator_e(state, rl, rr)
        + correlator_e(state, rlp, rr)
        + correlator_e(state, rl, rrp)
        - correlator_e(state, rlp, rrp)
    )


def horodecki(corr):
    w = np.linalg.eigvalsh(corr.T @ corr)
    return 2.0 * np.sqrt(w[2] + w[1])


class TestAnalyzerSetting:
    def test_requires_unitary(self):
        with pytest.raises(ValueError):
            AnalyzerSetting(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "axis", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, -0.64, 0.48)]
    )
    def test_from_axis_round_trip(self, axis):
        s = AnalyzerSetting.from_axis(axis)
        v = np.asarray(axis) / np.linalg.norm(axis)
        assert np.allclose(bloch_axis(s), v, atol=1e-12)


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
        r = correlation_matrix(rho)
        for seed in range(20):
            rl = AnalyzerSetting(haar_unitary(2, 1000 + seed))
            rr = AnalyzerSetting(haar_unitary(2, 1100 + seed))
            contraction = bloch_axis(rl) @ r @ bloch_axis(rr)
            assert abs(correlator_e(rho, rl, rr) - contraction) <= 1e-10


class TestCorrelationMatrix:
    def test_maximally_mixed_zero(self):
        assert max_abs(correlation_matrix(PolarizationState.from_matrix(MAXIMALLY_MIXED))) <= 1e-12

    def test_bell_state_tensor(self):
        r = correlation_matrix(PolarizationState.from_matrix(BELL_PHI_PLUS))
        assert np.allclose(r, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_entries_bounded(self):
        for i in range(50):
            _, _, rho = pipeline(440_000 + i, 0.5)
            assert np.abs(correlation_matrix(rho)).max() <= 1.0 + 1e-10

    def test_gamma_route_cross_check_runs(self):
        # States built from amplitude pairs carry provenance: both routes run
        # and must agree (a disagreement raises).
        for i in range(100):
            _, _, rho = pipeline(450_000 + i, 0.71)
            correlation_matrix(rho)

    def test_route_gate_fires(self):
        # rho from one amplitude pair, provenance from another: the amplitude route
        # reads only the provenance, so the two routes must disagree.
        _, _, built = pipeline(451_000, 0.4)
        _, other, _ = pipeline(451_001, 0.4)
        state = PolarizationState(built.rho, alpha_sq=0.4, gammas=other)
        with pytest.raises(ConsistencyError, match="correlation tensor routes disagree"):
            correlation_matrix(state)

    def test_entry_gate_fires(self):
        # Trace 2: R = diag(2, -2, 2), which no density matrix reaches.
        state = PolarizationState(2.0 * BELL_PHI_PLUS)
        with pytest.raises(ConsistencyError, match="correlation tensor entry exceeds 1"):
            correlation_matrix(state)

    def test_routes_match_trace_oracle(self):
        # 300 Haar splitters x both statistics x the verify ladder and one random alpha.
        alphas = np.random.Generator(np.random.PCG64(452)).uniform(0.0, 1.0, size=300)
        for i, extra in enumerate(alphas):
            sm = make_scattering(haar_unitary(4, 452_000 + i))
            rl = AnalyzerSetting(haar_unitary(2, 2 * i))
            rr = AnalyzerSetting(haar_unitary(2, 2 * i + 1))
            for statistics in STATISTICS:
                g = gammas(sm, statistics)
                for a in (*ALPHA_LADDER, float(extra)):
                    state = build_rho(g, a)
                    r, rg = correlation_traces(state)
                    assert np.array_equal(correlation_matrix(state), r)  # bit for bit, see correlation_matrix
                    assert max_abs(bell._correlation_from_gammas(g, a) - rg) <= 1e-15
                    assert np.array_equal(coincidence_probs(state, rl, rr), coincidence_probs_kron(state, rl, rr))


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
            r = correlation_matrix(rho)
            numeric = np.sort(np.linalg.eigvalsh(r.T @ r))
            closed = np.sort(u_eigen_closed(x, rho.alpha_sq))
            assert np.abs(numeric - closed).max() <= 1e-8

    def test_degenerate_u1_u2_matches_horodecki(self):
        # Pure states of the mixing splitter have u1 = u2 = 1 for every theta,
        # where the discriminant of the closed form vanishes.
        for theta in np.linspace(0.01, 1.56, 2000):
            sm = preset("balanced_mixing", float(theta))
            u1, u2, u3 = u_eigen_closed(hybrid(sm), 1.0)
            r = correlation_matrix(build_rho(gammas(sm), 1.0))
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
        value = chsh_bruteforce(state, correlation_matrix(state))
        assert value == pytest.approx(TSIRELSON, abs=1e-4)

    def test_product_state_reaches_classical_bound(self):
        state = PolarizationState.from_matrix(PRODUCT_HH)
        value = chsh_bruteforce(state, correlation_matrix(state))
        assert value == pytest.approx(2.0, abs=1e-4)

    def test_deterministic(self):
        _, _, rho = pipeline(496_000, 0.45)
        r = correlation_matrix(rho)
        assert chsh_bruteforce(rho, r) == chsh_bruteforce(rho, r)

    # The u2 ~ u3 ridge: the two smallest eigenvalues of R^T R nearly tie, where
    # the former grid search took from 14 s to over two minutes.
    # 50222 is where Rayleigh-quotient iteration from a coarse axis finds the
    # middle eigenvector instead of the smallest.
    @pytest.mark.parametrize(
        "seed, statistics, alpha_sq",
        [
            (50009, "bosonic", 0.9992),
            (50009, "fermionic", 0.9992),
            (51877, "bosonic", 0.7490),
            (51877, "fermionic", 0.7490),
            (50919, "bosonic", 0.8089),
            (50919, "fermionic", 0.8089),
            (50222, "fermionic", 0.454),
        ],
    )
    def test_ridge_reaches_horodecki(self, seed, statistics, alpha_sq):
        _, _, rho = pipeline(seed, alpha_sq, statistics)
        r = correlation_matrix(rho)
        value = chsh_bruteforce(rho, r)
        assert horodecki(r) - value <= 1e-4
        assert value - horodecki(r) <= 1e-6

    @pytest.mark.parametrize(
        "seed, statistics, alpha_sq",
        [
            (498_001, "bosonic", 0.35),
            (498_003, "fermionic", 0.45),
            (498_004, "fermionic", 0.5),
            (498_006, "bosonic", 0.6),
            (498_010, "fermionic", 0.8),
        ],
    )
    def test_matches_grid_search(self, seed, statistics, alpha_sq):
        # The grid search knows nothing of the plane reduction, so agreement on
        # well-separated spectra checks the reduction itself.
        _, _, rho = pipeline(seed, alpha_sq, statistics)
        r = correlation_matrix(rho)
        sigma = np.linalg.svd(r, compute_uv=False)
        assert sigma[1] - sigma[2] >= 0.05
        value = chsh_bruteforce(rho, r)
        assert abs(value - chsh_grid_search(rho, r)) <= 1e-6
        assert horodecki(r) - value <= 1e-4

    def test_four_correlators_per_call(self, monkeypatch):
        calls = []
        original = bell.correlator_e
        monkeypatch.setattr(bell, "correlator_e", lambda *a: calls.append(a) or original(*a))
        _, _, rho = pipeline(496_500, 0.3)
        chsh_bruteforce(rho, correlation_matrix(rho))
        assert len(calls) == 4
        assert not hasattr(bell, "_sphere_axes")
        assert not hasattr(bell, "_N_THETA")

    def test_maximally_mixed_reads_zero(self):
        state = PolarizationState.from_matrix(MAXIMALLY_MIXED)
        assert chsh_bruteforce(state, correlation_matrix(state)) == pytest.approx(0.0, abs=1e-12)

    def test_local_unitary_invariance(self):
        _, _, rho = pipeline(497_000, 0.66)
        vl = haar_unitary(2, 11)
        vr = haar_unitary(2, 12)
        u = np.kron(vl, vr)
        rotated = PolarizationState.from_matrix(u @ rho.rho @ dagger(u))
        r0 = correlation_matrix(rho)
        r1 = correlation_matrix(rotated)
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
