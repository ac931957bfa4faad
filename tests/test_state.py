import numpy as np
import pytest

from bellsplit.bell import u_eigen_closed
from bellsplit.regions import BalancedPoint, f_boundary, g_boundary
from bellsplit.scattering import gammas, hybrid, make_scattering, preset
from bellsplit.smallmat import SIGMA_Y, dagger, haar_unitary, herm_eigen, max_abs
from bellsplit.state import (
    PolarizationState,
    ZeroCoincidence,
    build_rho,
    check_alpha_sq,
    concurrence_closed,
    concurrence_gamma,
    concurrence_report,
    concurrence_wootters,
    mandel_dip,
    mixture_norm,
    require_coincidences,
    vec,
)
# Permutation splitter sending both photons to the same side: the
# coincidence-postselected ensemble is empty.
NO_COINCIDENCE_S = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

BELL_PHI_PLUS = np.zeros((4, 4), complex)
BELL_PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


def pipeline(seed):
    sm = make_scattering(haar_unitary(4, seed))
    return gammas(sm), hybrid(sm)


_BALANCED_PC = preset("balanced_pc")

ALPHA_SQ_ENTRY_POINTS = {
    "build_rho": lambda a: build_rho(gammas(_BALANCED_PC), a),
    "concurrence_closed": lambda a: concurrence_closed(hybrid(_BALANCED_PC), a),
    "u_eigen_closed": lambda a: u_eigen_closed(hybrid(_BALANCED_PC), a),
    "f_boundary": f_boundary,
    "g_boundary": g_boundary,
    "BalancedPoint": lambda a: BalancedPoint(a, 0.1),
}


@pytest.mark.parametrize("bad", [-0.1, 1.2, float("nan")])
@pytest.mark.parametrize("entry", ALPHA_SQ_ENTRY_POINTS.values(), ids=ALPHA_SQ_ENTRY_POINTS.keys())
def test_alpha_sq_domain_is_one_rule(entry, bad):
    with pytest.raises(ValueError) as home:
        check_alpha_sq(bad)
    with pytest.raises(ValueError) as caught:
        entry(bad)
    assert str(caught.value) == str(home.value) == f"alpha_sq must lie in [0, 1], got {bad}"


class TestBuildRho:
    def test_balanced_pure_at_full_overlap(self):
        g = gammas(preset("balanced_pc"))
        rho = build_rho(g, 1.0).rho
        evals = herm_eigen(rho).eigenvalues
        assert evals[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(evals[1]) <= 1e-12
        v = vec(g.gamma1)
        proj = np.outer(v, v.conj()) / np.vdot(v, v).real
        assert max_abs(rho - proj) <= 1e-12

    def test_zero_overlap_equal_weights(self):
        g = gammas(preset("balanced_pc"))
        t1 = np.trace(dagger(g.gamma1) @ g.gamma1).real
        t2 = np.trace(dagger(g.gamma2) @ g.gamma2).real
        assert t1 == pytest.approx(t2, abs=1e-12)  # symmetric point
        rho = build_rho(g, 0.0).rho
        v1, v2 = vec(g.gamma1), vec(g.gamma2)
        expected = (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())) / (t1 + t2)
        assert max_abs(rho - expected) <= 1e-12

    def test_invariants_over_ensemble(self):
        for i in range(300):
            g, _ = pipeline(300_000 + i)
            rho = build_rho(g, 0.37).rho
            assert max_abs(rho - dagger(rho)) <= 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            evals = herm_eigen(rho).eigenvalues
            assert evals[-1] >= -1e-10
            assert evals[2] <= 1e-10  # rank <= 2

    def test_rejects_bad_alpha(self):
        g = gammas(preset("balanced_pc"))
        with pytest.raises(ValueError):
            build_rho(g, 1.5)

    def test_zero_coincidence(self):
        g = gammas(make_scattering(NO_COINCIDENCE_S))
        assert max_abs(g.gamma1) <= 1e-15 and max_abs(g.gamma2) <= 1e-15
        with pytest.raises(ZeroCoincidence):
            build_rho(g, 0.5)

    def test_empty_ensemble_floor(self):
        # Mixture norm 2e-14 is a coincidence probability of 1e-14.
        assert require_coincidences(2.5e-14) == 2.5e-14
        for norm in (2e-14, 0.0, -1e-16):
            with pytest.raises(ZeroCoincidence):
                require_coincidences(norm)

    def test_records_provenance(self):
        g, _ = pipeline(399_000)
        state = build_rho(g, 0.25)
        assert state.alpha_sq == 0.25 and state.gammas is g

    def test_from_matrix_allows_full_rank(self):
        state = PolarizationState.from_matrix(np.eye(4) / 4.0)
        assert state.gammas is None and state.alpha_sq is None

    def test_from_matrix_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PolarizationState.from_matrix(np.diag([0.75, 0.5, -0.25, 0.0]))


class TestConcurrenceClosed:
    def test_balanced_full_overlap_is_maximal(self):
        x = hybrid(preset("balanced_pc"))
        assert concurrence_closed(x, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_overlap_is_separable(self):
        for i in range(25):
            _, x = pipeline(310_000 + i)
            assert concurrence_closed(x, 0.0) == 0.0

    def test_balanced_quarter_mixing_vanishes(self):
        # Full polarization which-path information: |gram_HV|^2 = 1/4.
        x = hybrid(preset("balanced_mixing", np.pi / 2.0))
        assert abs(x.gram[0, 1]) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert concurrence_closed(x, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_identity_splitter_separable(self):
        x = hybrid(make_scattering(np.eye(4)))
        assert concurrence_closed(x, 0.9) == 0.0

    def test_monotone_in_alpha_sq(self):
        for i in range(25):
            _, x = pipeline(320_000 + i)
            values = [concurrence_closed(x, a) for a in np.linspace(0.0, 1.0, 21)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_conditions(self):
        # C vanishes iff the overlap does or either span determinant does.
        for i in range(50):
            g, x = pipeline(330_000 + i)
            c = concurrence_closed(x, 0.8)
            from bellsplit.smallmat import det2

            d = det2(x.gram).real
            dc = det2(np.eye(2) - x.gram).real
            if c <= 1e-12:
                assert min(abs(d), abs(dc)) <= 1e-10
            else:
                assert d > 1e-12 and dc > 1e-12


class TestConcurrenceWootters:
    def test_bell_state(self):
        assert concurrence_wootters(PolarizationState.from_matrix(BELL_PHI_PLUS)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_state(self):
        rho = np.zeros((4, 4), complex)
        rho[0, 0] = 1.0
        assert concurrence_wootters(PolarizationState.from_matrix(rho)) == 0.0

    def test_maximally_mixed(self):
        assert concurrence_wootters(PolarizationState.from_matrix(np.eye(4) / 4.0)) == 0.0

    def test_werner_family(self):
        # Werner state p |Phi+><Phi+| + (1-p)/4 I has concurrence max(0, (3p-1)/2).
        for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
            rho = p * BELL_PHI_PLUS + (1.0 - p) * np.eye(4) / 4.0
            c = concurrence_wootters(PolarizationState.from_matrix(rho))
            assert c == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12)

    def test_matches_closed_form(self):
        for i in range(200):
            g, x = pipeline(340_000 + i)
            for a in (0.2, 0.5, 0.9):
                closed = concurrence_closed(x, a)
                wootters = concurrence_wootters(build_rho(g, a))
                assert abs(closed - wootters) <= 1e-8

    def test_spectrum_matches_dense_nonhermitian_solver(self):
        # The Hermitian-route sqrt-eigenvalues must agree with a general dense
        # eigensolve of the non-Hermitian product rho rho~ (test-suite only).
        yy = np.kron(SIGMA_Y, SIGMA_Y)
        for i in range(100):
            g, _ = pipeline(350_000 + i)
            rho = build_rho(g, 0.63).rho
            rho_tilde = yy @ rho.conj() @ yy
            dense = np.sort(np.abs(np.linalg.eigvals(rho @ rho_tilde)))[::-1]
            eig = herm_eigen(rho)
            sqrt_rho = eig.eigenvectors @ np.diag(np.sqrt(np.clip(eig.eigenvalues, 0, None))) @ dagger(eig.eigenvectors)
            s = np.linalg.svd(sqrt_rho @ yy @ sqrt_rho.T, compute_uv=False)
            assert np.abs(np.sort(s**2)[::-1] - dense).max() <= 1e-8
            assert np.max(dense[2:]) <= 1e-10  # rank-2 mixture


class TestGammaRoute:
    def test_matches_closed_everywhere(self):
        for i in range(200):
            g, x = pipeline(360_000 + i)
            for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert abs(concurrence_closed(x, a) - concurrence_gamma(g, a)) <= 1e-10

    def test_fermionic_swap_consistency(self):
        # Swapped amplitudes must reproduce the permanent/determinant swap in
        # the closed form, and match the generic formula.
        for i in range(50):
            sm = make_scattering(haar_unitary(4, 370_000 + i))
            g = gammas(sm, "fermionic")
            x = hybrid(sm)
            for a in (0.3, 0.8):
                closed = concurrence_closed(x, a, statistics="fermionic")
                assert abs(closed - concurrence_gamma(g, a)) <= 1e-10
                assert abs(closed - concurrence_wootters(build_rho(g, a))) <= 1e-8


class TestMandelDip:
    def test_no_mixing_no_dip(self):
        x = hybrid(preset("balanced_pc"))
        md = mandel_dip(x, 1.0)
        assert md.dip == 0.0
        assert md.coincidence_prob == pytest.approx(0.5, abs=1e-12)

    def test_balanced_full_dip_closes_the_output(self):
        x = hybrid(preset("balanced_mixing", np.pi / 2.0))
        md = mandel_dip(x, 1.0)
        assert md.classical_prob == pytest.approx(0.5, abs=1e-12)
        assert md.dip == pytest.approx(-0.5, abs=1e-12)
        assert md.coincidence_prob == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ZeroCoincidence):
            concurrence_closed(x, 1.0)

    def test_equals_concurrence_denominator(self):
        for i in range(200):
            g, x = pipeline(380_000 + i)
            for a in (0.0, 0.4, 1.0):
                md = mandel_dip(x, a)
                assert abs(md.coincidence_prob - mixture_norm(x.invariants(), a) / 2) <= 1e-12
                assert abs(md.coincidence_prob - mixture_norm(g.invariants, a) / 2.0) <= 1e-10


class TestReport:
    def test_three_routes_agree(self):
        g, x = pipeline(390_000)
        rep = concurrence_report(build_rho(g, 0.42), x)
        assert abs(rep.c_closed - rep.c_wootters) <= 1e-8
        assert abs(rep.c_closed - rep.c_gamma) <= 1e-10
        assert rep.coincidence_prob > 0.0

    def test_fermionic_report_dip_sign(self):
        sm = preset("balanced_mixing", 0.8)
        g = gammas(sm, "fermionic")
        x = hybrid(sm)
        rep = concurrence_report(build_rho(g, 0.9), x)
        assert rep.mandel_dip > 0.0  # antibunching raises the coincidence rate

    def test_report_carries_the_classical_probability(self):
        g, x = pipeline(390_001)
        for a in (0.0, 0.42, 1.0):
            rep = concurrence_report(build_rho(g, a), x)
            assert rep.mandel == mandel_dip(x, a)
            assert rep.mandel_dip == rep.coincidence_prob - rep.mandel.classical_prob

    def test_report_of_a_wrapped_matrix_is_a_typed_error(self):
        # A from_matrix state keeps no amplitude pair, so no closed or amplitude route exists.
        with pytest.raises(ValueError, match="needs a build_rho state"):
            concurrence_report(PolarizationState.from_matrix(BELL_PHI_PLUS), hybrid(preset("balanced_pc")))
