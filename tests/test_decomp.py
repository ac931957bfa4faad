from typing import NamedTuple

import numpy as np
import pytest

from bellsplit.bell import correlation_matrix, u_eigen_closed
from bellsplit.decomp import DegenerateXi, SemiPolar, r_prime, semi_polar
from bellsplit.scattering import GammaPair, HybridMatrix, gammas, hybrid, make_scattering, preset
from bellsplit.smallmat import SIGMA_Y, SIGMA_Z, ConsistencyError, dagger, haar_unitary, herm_eigen, max_abs, tilde2
from bellsplit.state import build_rho, mixture_norm


def pipeline(seed):
    sm = make_scattering(haar_unitary(4, seed))
    return gammas(sm), hybrid(sm)


def make_q(c1, c2):
    c3 = (1.0 - c1**2) / c2
    return np.array([[c1, c2], [c3, -c1]])


class ConsistencyRecord(NamedTuple):
    """Spectral-route quantities of the hybrid Gram matrix and a real coupling solution."""

    lambdas: np.ndarray  # eigenvalues of the Gram matrix, descending
    xi: np.ndarray  # (lam1 (1 - lam2), lam2 (1 - lam1))
    inner: float  # Tr gamma1† gamma2 via the eigenbasis weights
    c1: float  # cos(2 eta) from the eigenvector overlaps
    couple_product: float
    couple_square_sum: float
    a12: float
    a21: float


def consistency_check(X: HybridMatrix) -> ConsistencyRecord:
    """Verify the spectral route to xi and c1 and solve for the real couplings.

    Diagonalizing the hybrid Gram matrix gives xi and c1 = cos 2 eta directly,
    where cos eta is the modulus of the eigenbasis overlap. The two quadratic
    constraints on the off-diagonal couplings always admit a real solution
    (their discriminant is the arithmetic-geometric mean gap); one solution is
    returned.
    """
    eig = herm_eigen(X.gram)
    lam = np.clip(eig.eigenvalues, 0.0, 1.0)
    w = dagger(eig.eigenvectors)  # rows indexed by eigenvalue
    xi = np.array([lam[0] * (1.0 - lam[1]), lam[1] * (1.0 - lam[0])])

    if abs(abs(w[0, 0]) - abs(w[1, 1])) > 1e-10 or abs(abs(w[0, 1]) - abs(w[1, 0])) > 1e-10:
        raise ValueError("eigenbasis moduli violate 2x2 unitarity")
    inner = float(
        lam[0] * (abs(w[0, 0]) ** 2 - abs(w[0, 1]) ** 2)
        + lam[1] * (abs(w[1, 0]) ** 2 - abs(w[1, 1]) ** 2)
    )
    inner_direct = float(np.trace(SIGMA_Z @ X.gram).real)
    if abs(inner - inner_direct) > 1e-10:
        raise ValueError("eigenbasis route to the inner product disagrees with the direct trace")
    c1 = 2.0 * min(abs(w[0, 0]), 1.0) ** 2 - 1.0  # cos 2 eta

    sin_sq_2eta = 1.0 - c1**2
    geo = np.sqrt(max(0.0, lam[0] * lam[1] * (1.0 - lam[0]) * (1.0 - lam[1])))
    ari = lam[0] * (1.0 - lam[0]) + lam[1] * (1.0 - lam[1])
    if 2.0 * geo > ari + 1e-12:
        raise ValueError("arithmetic-geometric mean inequality violated")
    product = sin_sq_2eta * geo
    square_sum = sin_sq_2eta * ari
    disc = np.sqrt(max(0.0, square_sum**2 - 4.0 * product**2))
    y_plus = (square_sum + disc) / 2.0
    a12 = np.sqrt(max(0.0, y_plus))
    a21 = product / a12 if a12 > 0.0 else 0.0
    return ConsistencyRecord(
        lambdas=lam,
        xi=xi,
        inner=inner,
        c1=c1,
        couple_product=product,
        couple_square_sum=square_sum,
        a12=float(a12),
        a21=float(a21),
    )


class TestSemiPolar:
    def test_round_trip_known_q(self):
        # gamma2 diagonal positive with gamma1 = Q gamma2 for a known valid Q:
        # the factorization must recover Q with identity-equivalent unitaries.
        xi = np.array([0.8, 0.3])
        q = make_q(c1=0.6, c2=0.5)
        g2 = np.diag(np.sqrt(xi)).astype(complex)
        g1 = q @ g2
        sp = semi_polar(GammaPair(g1, g2))
        assert np.allclose(sp.xi, xi, atol=1e-12)
        assert np.allclose(sp.q, q, atol=1e-10)
        r1, r2 = sp.reconstruct()
        assert max_abs(r1 - g1) <= 1e-12 and max_abs(r2 - g2) <= 1e-12

    def test_round_trip_negative_c2_respects_sign_convention(self):
        xi = np.array([0.9, 0.2])
        q = make_q(c1=0.3, c2=-0.7)
        g2 = np.diag(np.sqrt(xi)).astype(complex)
        g1 = q @ g2
        sp = semi_polar(GammaPair(g1, g2))
        assert sp.c2 >= 0.0
        assert np.allclose(np.abs(sp.q), np.abs(q), atol=1e-10)
        r1, r2 = sp.reconstruct()
        assert max_abs(r1 - g1) <= 1e-10 and max_abs(r2 - g2) <= 1e-10

    def test_balanced_point_c1_vanishes(self):
        # Symmetric Gram matrix: the inner product of the amplitude pair is
        # the Pauli-z weighted trace, which vanishes on the balanced slice.
        g = gammas(preset("balanced_mixing", 0.7))
        sp = semi_polar(g)
        assert abs(sp.c1) <= 1e-12

    def test_balanced_pc_is_degenerate(self):
        with pytest.raises(DegenerateXi):
            semi_polar(gammas(preset("balanced_pc")))

    def test_vanishing_xi2_is_degenerate(self):
        with pytest.raises(DegenerateXi):
            semi_polar(gammas(make_scattering(np.eye(4))))

    @pytest.mark.parametrize("gap, degenerate", [(1e-7, True), (4e-6, True), (5e-6, False), (1e-3, False)])
    def test_xi_gap_floor(self, gap, degenerate):
        # The floor sits at 2 eps / 1e-10 = 4.4e-6, under the 1e-10 reconstruction gate.
        xi = np.array([0.3 + gap, 0.3])
        g2 = np.diag(np.sqrt(xi)).astype(complex)
        pair = GammaPair(make_q(c1=0.6, c2=0.5) @ g2, g2)
        if degenerate:
            with pytest.raises(DegenerateXi, match=r"^xi gap \S+ is below 4\.4e-06, "):
                semi_polar(pair)
        else:
            r1, r2 = semi_polar(pair).reconstruct()
            assert max_abs(r1 - pair.gamma1) <= 1e-10 and max_abs(r2 - pair.gamma2) <= 1e-10

    def test_invalid_pair_is_a_consistency_failure(self):
        # A non-real Tr gamma1† gamma2 is no amplitude pair of a splitter.
        xi = np.array([0.8, 0.3])
        g2 = np.diag(np.sqrt(xi)).astype(complex)
        with pytest.raises(ConsistencyError, match="is not real; invalid amplitude pair"):
            semi_polar(GammaPair(1j * make_q(c1=0.6, c2=0.5) @ g2, g2))

    def test_property_suite(self):
        done = 0
        for i in range(500):
            g, x = pipeline(500_000 + i)
            try:
                sp = semi_polar(g)
            except DegenerateXi:
                continue
            done += 1
            r1, r2 = sp.reconstruct()
            assert max_abs(r1 - g.gamma1) <= 1e-10
            assert max_abs(r2 - g.gamma2) <= 1e-10
            # Q strictly real and traceless by construction; the constraints hold.
            assert sp.q.dtype == float
            assert sp.q[0, 0] + sp.q[1, 1] == 0.0
            assert abs(sp.c1**2 + sp.c2 * sp.c3 - 1.0) <= 1e-10
            t1 = np.trace(dagger(g.gamma1) @ g.gamma1).real
            norm_form = sp.c1**2 * (sp.xi[0] + sp.xi[1]) + sp.c2**2 * sp.xi[1] + sp.c3**2 * sp.xi[0]
            assert abs(norm_form - t1) <= 1e-10
            # xi from singular values equals the trace route.
            t2 = np.trace(dagger(g.gamma2) @ g.gamma2).real
            tt2 = abs(np.trace(dagger(g.gamma2) @ tilde2(g.gamma2)))
            assert abs(sp.xi.sum() - t2) <= 1e-10
            assert abs(2.0 * np.sqrt(sp.xi[0] * sp.xi[1]) - tt2) <= 1e-10
            # inner-product preservation through the factorization
            inner = np.trace(dagger(g.gamma1) @ g.gamma2)
            a_mat = sp.q @ np.diag(np.sqrt(sp.xi))
            inner_form = np.sqrt(sp.xi[0]) * np.conj(a_mat[0, 0]) + np.sqrt(sp.xi[1]) * np.conj(a_mat[1, 1])
            assert abs(inner - inner_form) <= 1e-10
            # determinant constraint and transported spin-flip orthogonality
            assert abs(np.linalg.det(a_mat) + np.sqrt(sp.xi[0] * sp.xi[1])) <= 1e-10
            transported = np.trace(dagger(a_mat) @ SIGMA_Y @ np.diag(np.sqrt(sp.xi)) @ SIGMA_Y)
            assert abs(transported) <= 1e-10
        assert done > 450


class TestConsistencyCheck:
    def test_degenerate_gram_hits_equality(self):
        x = hybrid(preset("balanced_pc"))  # Gram = I/2, equal eigenvalues
        rec = consistency_check(x)
        geo = 2.0 * np.sqrt(np.prod(rec.lambdas * (1.0 - rec.lambdas)))
        ari = np.sum(rec.lambdas * (1.0 - rec.lambdas))
        assert geo == pytest.approx(ari, abs=1e-12)

    def test_diagonal_gram_trivial_couplings(self):
        from bellsplit.scattering import realize_hybrid

        x = hybrid(realize_hybrid(np.diag([0.9, 0.2])))
        rec = consistency_check(x)
        assert rec.c1 == pytest.approx(1.0, abs=1e-12)
        assert rec.a12 == pytest.approx(0.0, abs=1e-12)
        assert rec.a21 == pytest.approx(0.0, abs=1e-12)

    def test_property_suite(self):
        for i in range(300):
            g, x = pipeline(510_000 + i)
            rec = consistency_check(x)
            # xi route agrees with the singular values of gamma2
            try:
                sp = semi_polar(g)
            except DegenerateXi:
                continue
            assert np.allclose(rec.xi, sp.xi, atol=1e-10)
            assert rec.c1 == pytest.approx(sp.c1, abs=1e-8)
            # the coupling solution matches the factorization up to the
            # residual swap/sign freedom
            got = sorted([abs(rec.a12), abs(rec.a21)])
            want = sorted([abs(sp.c2) * np.sqrt(sp.xi[1]), abs(sp.c3) * np.sqrt(sp.xi[0])])
            assert np.allclose(got, want, atol=1e-8)
            assert rec.a12 * rec.a21 == pytest.approx(rec.couple_product, abs=1e-12)
            assert rec.a12**2 + rec.a21**2 == pytest.approx(rec.couple_square_sum, abs=1e-10)


class TestRPrime:
    def test_decoupled_substitution(self):
        # c1 = 0 with equal xi: the cross entries vanish identically.
        sp = SemiPolar(
            u=np.eye(2, dtype=complex),
            v=np.eye(2, dtype=complex),
            xi=np.array([0.5, 0.5]),
            q=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        rp = r_prime(sp, 0.5, 1.0)
        assert rp.matrix[0, 2] == 0.0
        assert rp.matrix[2, 0] == 0.0

    def test_balanced_pure_interference_entry(self):
        g = gammas(preset("balanced_mixing", 0.4))
        sp = semi_polar(g)
        n = mixture_norm(g.invariants, 1.0)
        rp = r_prime(sp, 1.0, n)
        u3 = u_eigen_closed(hybrid(preset("balanced_mixing", 0.4)), 1.0)[2]
        assert rp.matrix[1, 1] ** 2 == pytest.approx(u3, abs=1e-10)

    def test_three_way_spectrum(self):
        # Capstone: closed eigenvalues, the direct tensor spectrum and the
        # sparse-basis construction agree as multisets.
        done = 0
        for i in range(200):
            g, x = pipeline(520_000 + i)
            try:
                sp = semi_polar(g)
            except DegenerateXi:
                continue
            done += 1
            a = float(np.linspace(0.05, 0.95, 200)[i])
            closed = np.sort(u_eigen_closed(x, a))
            rho = build_rho(g, a)
            r = correlation_matrix(rho)
            direct = np.sort(np.linalg.eigvalsh(r.T @ r))
            rp = r_prime(sp, a, mixture_norm(g.invariants, a))
            sparse = np.sort(np.asarray(rp.eigenvalues_squared()))
            assert np.abs(closed - direct).max() <= 1e-8
            assert np.abs(closed - sparse).max() <= 1e-8
            full_sparse = np.sort(np.linalg.eigvalsh(rp.matrix.T @ rp.matrix))
            assert np.abs(full_sparse - sparse).max() <= 1e-10
        assert done > 180

