import numpy as np
import pytest

from bellsplit.scattering import (
    DegenerateTransmission,
    NotRankOne,
    NotUnitary,
    assemble_polar,
    canonicalize_input,
    gammas,
    gram_invariants,
    hybrid,
    make_scattering,
    outgoing_matrix,
    polar_decompose_s,
    preset,
    realize_hybrid,
    trace_identities,
)
from bellsplit.smallmat import (
    SIGMA_IN,
    SIGMA_X,
    dagger,
    det2,
    haar_unitary,
    herm_eigen,
    is_unitary,
    max_abs,
    tilde2,
)
from conftest import haar_ensemble


class TestMakeScattering:
    def test_identity_blocks(self):
        sm = make_scattering(np.eye(4))
        assert np.array_equal(sm.r, np.eye(2))
        assert np.array_equal(sm.r_prime, np.eye(2))
        assert max_abs(sm.t) == 0.0
        assert max_abs(sm.t_prime) == 0.0

    def test_balanced_preset_accepted(self):
        sm = preset("balanced_pc")
        assert np.allclose(sm.r, np.eye(2) / np.sqrt(2))
        assert np.allclose(sm.t, 1j * np.eye(2) / np.sqrt(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary) as err:
            make_scattering(np.diag([1.0, 1.0, 1.0, 2.0]))
        assert err.value.defect > 1.0

    def test_haar_samples_accepted(self):
        for i in range(1000):
            make_scattering(haar_unitary(4, 90_000 + i))

    def test_block_unitarity_relations(self):
        # Consequences of S†S = 1 on the 2x2 blocks.
        for u in haar_ensemble(4, 200, base_seed=89_000):
            sm = make_scattering(u)
            eye = np.eye(2)
            assert max_abs(dagger(sm.r) @ sm.r + dagger(sm.t) @ sm.t - eye) <= 1e-10
            assert max_abs(dagger(sm.r_prime) @ sm.r_prime + dagger(sm.t_prime) @ sm.t_prime - eye) <= 1e-10

    def test_accepts_shared_json_format(self):
        from bellsplit.smallmat import mat_from_json, mat_to_json

        u = haar_unitary(4, 12345)
        sm = make_scattering(mat_from_json(mat_to_json(u)))
        assert max_abs(sm.s - u) == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("nonsense")

    def test_balanced_mixing_needs_theta(self):
        with pytest.raises(ValueError):
            preset("balanced_mixing")

    def test_balanced_mixing_gram(self):
        theta = 0.7
        g = hybrid(preset("balanced_mixing", theta)).gram
        assert np.allclose(np.diag(g).real, 0.5, atol=1e-12)
        assert abs(g[0, 1]) ** 2 == pytest.approx(np.sin(theta) ** 2 / 4.0, abs=1e-12)


class TestHybrid:
    def test_balanced_gram_is_half_identity(self):
        g = hybrid(preset("balanced_pc")).gram
        assert max_abs(g - np.eye(2) / 2.0) <= 1e-12

    def test_identity_hybrid(self):
        x = hybrid(make_scattering(np.eye(4)))
        assert np.array_equal(x.x, np.array([[1, 0], [0, 0]], complex))
        assert det2(x.gram) == 0.0

    def test_gram_spectrum_in_unit_interval(self):
        for u in haar_ensemble(4, 1000, base_seed=91_000):
            lam = herm_eigen(hybrid(make_scattering(u)).gram).eigenvalues
            assert -1e-10 <= lam[1] and lam[0] <= 1.0 + 1e-10

    def test_gram_cauchy_schwarz(self):
        for u in haar_ensemble(4, 200, base_seed=92_000):
            g = hybrid(make_scattering(u)).gram
            assert abs(g[0, 1]) ** 2 <= g[0, 0].real * g[1, 1].real + 1e-12


class TestGammas:
    def test_identity_splitter(self):
        g = gammas(make_scattering(np.eye(4)))
        assert max_abs(g.gamma1 - SIGMA_IN) <= 1e-15
        assert max_abs(g.gamma2 - SIGMA_IN) <= 1e-15

    def test_balanced_gamma2_is_half_sigma_x(self):
        g = gammas(preset("balanced_pc"))
        assert max_abs(g.gamma2 - SIGMA_X / 2.0) <= 1e-15

    def test_fermionic_swap_exact(self):
        sm = make_scattering(haar_unitary(4, 555))
        bos = gammas(sm, "bosonic")
        fer = gammas(sm, "fermionic")
        assert np.array_equal(bos.gamma1, fer.gamma2)
        assert np.array_equal(bos.gamma2, fer.gamma1)

    def test_bad_statistics(self):
        with pytest.raises(ValueError):
            gammas(preset("balanced_pc"), "anyonic")

    def test_tilde_orthogonality(self):
        for u in haar_ensemble(4, 1000, base_seed=93_000):
            g = gammas(make_scattering(u))
            assert abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma2))) <= 1e-10
            assert abs(np.trace(dagger(g.gamma2) @ tilde2(g.gamma1))) <= 1e-10
            s = np.trace(dagger(g.gamma1) @ tilde2(g.gamma1)) + np.trace(dagger(g.gamma2) @ tilde2(g.gamma2))
            assert abs(s) <= 1e-10


class TestGramInvariants:
    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_match_gamma_traces(self, statistics):
        # The Gram route carries the fermionic swap: compare with the traces
        # of the amplitude matrices built for the same statistics.
        for u in haar_ensemble(4, 200, base_seed=96_000):
            sm = make_scattering(u)
            g = gammas(sm, statistics)
            direct = (
                np.trace(dagger(g.gamma1) @ g.gamma1).real,
                np.trace(dagger(g.gamma2) @ g.gamma2).real,
                abs(np.trace(dagger(g.gamma1) @ tilde2(g.gamma1))),
                np.trace(dagger(g.gamma1) @ g.gamma2),
            )
            got = gram_invariants(hybrid(sm).gram, statistics)
            assert max(abs(x - y) for x, y in zip(got, direct)) <= 1e-10

    def test_bad_statistics(self):
        with pytest.raises(ValueError, match="statistics must be"):
            gram_invariants(hybrid(preset("balanced_pc")).gram, "anyonic")

    @pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
    def test_stack_rounds_as_each_matrix(self, statistics):
        # numpy's array complex product may fuse into FMA; the invariants of a
        # stack must still equal those of its matrices one by one, bit for bit.
        grams = np.array([hybrid(make_scattering(u)).gram for u in haar_ensemble(4, 300, base_seed=97_000)])
        stacked = gram_invariants(grams.reshape(20, 15, 2, 2), statistics)
        assert all(v.shape == (20, 15) for v in stacked)
        for k, gram in enumerate(grams):
            one = gram_invariants(gram, statistics)
            assert all(type(x) is float for x in one)
            assert tuple(v[divmod(k, 15)] for v in stacked) == one

    def test_hybrid_matrix_keeps_its_invariants(self):
        x = hybrid(preset("balanced_mixing", 0.4))
        assert x.invariants("fermionic") is x.invariants("fermionic")
        assert x.invariants() == gram_invariants(x.gram, "bosonic")
        assert x.invariants("fermionic") == gram_invariants(x.gram, "fermionic")


class TestTraceIdentities:
    def test_balanced_point_values(self):
        by_gammas, by_gram = trace_identities(preset("balanced_pc"))
        assert by_gram.tt == pytest.approx(0.5, abs=1e-12)
        assert by_gammas.tt == pytest.approx(0.5, abs=1e-12)

    def test_identity_point_values(self):
        _, by_gram = trace_identities(make_scattering(np.eye(4)))
        assert tuple(by_gram) == pytest.approx((1.0, 1.0, 0.0, 1.0), abs=1e-12)

    def test_routes_agree(self):
        for u in haar_ensemble(4, 1000, base_seed=94_000):
            by_gammas, by_gram = trace_identities(make_scattering(u))
            assert abs(by_gammas.tt - by_gram.tt) <= 1e-10
            assert abs(by_gammas.t1 - by_gram.t1) <= 1e-10
            assert abs(by_gammas.t2 - by_gram.t2) <= 1e-10
            assert abs(by_gammas.c - by_gram.c) <= 1e-10

    def test_gamma_pair_keeps_the_amplitude_traces(self):
        g = gammas(preset("balanced_mixing", 0.4), "fermionic")
        g1, g2 = g.gamma1, g.gamma2
        assert g.invariants == (
            float(np.trace(dagger(g1) @ g1).real),
            float(np.trace(dagger(g2) @ g2).real),
            abs(np.trace(dagger(g1) @ tilde2(g1))),
            complex(np.trace(dagger(g1) @ g2)),
        )
        assert isinstance(g.invariants.c, complex)

    def test_span_formula(self):
        # det of the Gram matrix equals the joint-span measure of the
        # reflected-H and transmitted-V state vectors.
        for u in haar_ensemble(4, 300, base_seed=95_000):
            sm = make_scattering(u)
            g = hybrid(sm).gram
            r_h = sm.s[0:2, 0]
            tp_v = sm.s[0:2, 3]
            span = (np.vdot(r_h, r_h) * np.vdot(tp_v, tp_v) - abs(np.vdot(r_h, tp_v)) ** 2).real
            assert abs(det2(g).real - span) <= 1e-12


class TestOutgoingMatrix:
    def test_identity_upper_right_only(self):
        m = outgoing_matrix(make_scattering(np.eye(4)), SIGMA_IN)
        assert max_abs(m[0:2, 2:4] - SIGMA_IN) <= 1e-15
        m[0:2, 2:4] = 0.0
        assert max_abs(m) == 0.0

    def test_zero_sigma(self):
        m = outgoing_matrix(preset("balanced_pc"), np.zeros((2, 2)))
        assert max_abs(m) == 0.0

    def test_congruence_oracle(self):
        # The block formula equals S [[0, sigma], [0, 0]] S^T by direct multiplication.
        z = np.zeros((2, 2), complex)
        for u in haar_ensemble(4, 300, base_seed=96_000):
            sm = make_scattering(u)
            direct = sm.s @ np.block([[z, SIGMA_IN], [z, z]]) @ sm.s.T
            assert max_abs(outgoing_matrix(sm, SIGMA_IN) - direct) <= 1e-12


class TestPolarDecomposition:
    def test_balanced_is_degenerate(self):
        with pytest.raises(DegenerateTransmission):
            polar_decompose_s(preset("balanced_pc"))

    def test_identity_is_degenerate(self):
        with pytest.raises(DegenerateTransmission):
            polar_decompose_s(make_scattering(np.eye(4)))

    def test_known_transmission_round_trip(self):
        sm = assemble_polar(
            haar_unitary(2, 1), haar_unitary(2, 2), haar_unitary(2, 3), haar_unitary(2, 4), (0.7, 0.3)
        )
        factors = polar_decompose_s(sm)
        assert np.allclose(factors.transmission, [0.7, 0.3], atol=1e-10)
        rebuilt = assemble_polar(*factors)
        assert max_abs(rebuilt.s - sm.s) <= 1e-10

    def test_haar_round_trip(self):
        done = 0
        for u in haar_ensemble(4, 300, base_seed=97_000):
            sm = make_scattering(u)
            try:
                factors = polar_decompose_s(sm)
            except DegenerateTransmission:
                continue
            done += 1
            for f in (factors.k_out, factors.l_out, factors.k_in, factors.l_in):
                assert is_unitary(f, 1e-10)
            rebuilt = assemble_polar(*factors)
            assert max_abs(rebuilt.s - sm.s) <= 1e-10
        assert done > 250  # degeneracy has measure zero

    @pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_round_trip_near_the_boundary(self, d):
        # Dividing by sqrt(1 - T_H) or sqrt(T_V) lost unitarity as rounding / d.
        sides = [haar_unitary(2, 5), haar_unitary(2, 6), haar_unitary(2, 7), haar_unitary(2, 8)]
        for tr in ((1.0 - d, 0.3), (0.7, d)):
            sm = assemble_polar(*sides, tr)
            factors = polar_decompose_s(sm)
            for f in factors[:4]:
                assert is_unitary(f, 1e-12)
            assert max_abs(assemble_polar(*factors).s - sm.s) <= 1e-10

    def test_haar_instance_with_transmission_near_one(self):
        # 1 - T_H = 8.3e-7: k_out and l_in missed unitarity by 1.6e-10 and
        # 1.2e-10, and assemble_polar raised NotUnitary inside a verify campaign.
        sm = make_scattering(haar_unitary(4, 1285630259))
        factors = polar_decompose_s(sm)
        assert 1.0 - factors.transmission[0] < 1e-6
        assert max_abs(assemble_polar(*factors).s - sm.s) <= 1e-10

    def test_assemble_validates_transmission(self):
        with pytest.raises(ValueError):
            assemble_polar(np.eye(2), np.eye(2), np.eye(2), np.eye(2), (1.0, 0.3))


class TestCanonicalizeInput:
    def test_sigma_in_is_fixed_point(self):
        sm = make_scattering(haar_unitary(4, 777))
        out = canonicalize_input(sm, SIGMA_IN)
        assert max_abs(out.s - sm.s) <= 1e-12

    def test_transposed_sigma_swaps_columns(self):
        sm = make_scattering(haar_unitary(4, 778))
        out = canonicalize_input(sm, SIGMA_IN.T)
        swap = SIGMA_X
        z = np.zeros((2, 2), complex)
        expected = sm.s @ np.block([[swap, z], [z, swap]])
        assert max_abs(out.s - expected) <= 1e-12
        a = outgoing_matrix(out, SIGMA_IN)
        b = outgoing_matrix(sm, SIGMA_IN.T)
        assert max_abs(a - b) <= 1e-12

    def test_random_rank_one(self, rng):
        for i in range(300):
            sm = make_scattering(haar_unitary(4, 98_000 + i))
            sigma = np.outer(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
            )
            out = canonicalize_input(sm, sigma)
            scale = np.linalg.svd(sigma, compute_uv=False)[0]
            a = outgoing_matrix(out, SIGMA_IN)
            b = outgoing_matrix(sm, sigma) / scale
            assert max_abs(a - b) <= 1e-10

    def test_rejects_rank_two(self):
        with pytest.raises(NotRankOne):
            canonicalize_input(preset("balanced_pc"), np.eye(2))

    def test_rejects_zero(self):
        with pytest.raises(NotRankOne):
            canonicalize_input(preset("balanced_pc"), np.zeros((2, 2)))


class TestRealizeHybrid:
    @pytest.mark.parametrize("hv_sq", [0.0, 0.03, 0.2, 0.25])
    def test_balanced_targets(self, hv_sq):
        g = np.array([[0.5, np.sqrt(hv_sq)], [np.sqrt(hv_sq), 0.5]], complex)
        sm = realize_hybrid(g)
        assert max_abs(hybrid(sm).gram - g) <= 1e-10

    def test_random_psd_targets(self, rng):
        for i in range(100):
            u = haar_unitary(2, 99_000 + i)
            lam = np.sort(rng.uniform(0.0, 1.0, 2))[::-1]
            g = u @ np.diag(lam) @ dagger(u)
            sm = realize_hybrid(g)
            assert max_abs(hybrid(sm).gram - g) <= 1e-10

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            realize_hybrid(np.diag([1.5, 0.2]))

    def test_spectrum_near_zero_and_one(self):
        # hv_sq = 1/4 - d puts the Gram spectrum at (1 - d', d') with d' ~ d.
        # Single-pass Gram-Schmidt completion raised NotUnitary at d = 1e-12.
        for d in np.logspace(-16, -1, 60):
            h = np.sqrt(0.25 - d)
            g = np.array([[0.5, h], [h, 0.5]], complex)
            sm = realize_hybrid(g)
            assert max_abs(hybrid(sm).gram - g) <= 1e-14, d
