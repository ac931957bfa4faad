import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsplit.smallmat import (
    NotHermitian,
    SIGMA_IN,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Tolerances,
    as_cmat,
    dagger,
    det2,
    haar_unitary,
    herm_eigen,
    is_unitary,
    mat_from_json,
    mat_to_json,
    max_abs,
    sqrt_psd,
    svd2,
)
from conftest import haar_ensemble


def random_cmat(rng, n=2, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


class TestPauli:
    def test_values(self):
        assert np.array_equal(SIGMA_Z, np.diag([1, -1]).astype(complex))
        assert np.array_equal(SIGMA_X, np.array([[0, 1], [1, 0]], complex))
        assert np.array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]]))

    def test_sigma_in(self):
        assert np.array_equal(SIGMA_IN, np.array([[0, 1], [0, 0]], complex))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involution(self, axis):
        p = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
        assert max_abs(p @ p - np.eye(2)) == 0.0


class TestAsCmat:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            as_cmat(np.zeros((2, 3)), 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            as_cmat([[np.nan, 0], [0, 0]], 2)
        with pytest.raises(ValueError):
            as_cmat([[1j * np.inf, 0], [0, 0]], 2)

    def test_copies(self):
        src = np.eye(2, dtype=complex)
        out = as_cmat(src, 2)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(3), 1e-12)

    def test_non_isometry(self):
        assert not is_unitary(np.diag([1.0, 2.0]), 1e-12)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            is_unitary(np.eye(2), 0.0)

    def test_haar_samples_are_unitary(self):
        for n in (2, 4):
            for u in haar_ensemble(n, 1000, base_seed=50 * n):
                assert is_unitary(u, 1e-10)


class TestHaarUnitary:
    def test_deterministic(self):
        assert np.array_equal(haar_unitary(2, 99), haar_unitary(2, 99))
        assert not np.array_equal(haar_unitary(2, 99), haar_unitary(2, 100))

    def test_column_norms(self):
        u = haar_unitary(4, 3)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_size_restriction(self):
        with pytest.raises(ValueError):
            haar_unitary(3, 0)

    def test_entry_moment(self):
        # |U_00|^2 of a Haar 4x4 follows Beta(1, 3): mean 1/4, variance 3/80.
        samples = np.array([abs(haar_unitary(4, 10_000 + i)[0, 0]) ** 2 for i in range(10_000)])
        se = np.sqrt(3.0 / 80.0 / samples.size)
        assert abs(samples.mean() - 0.25) < 3.0 * se

    def test_left_invariance_of_first_column_phase(self):
        # The first-column entries should have uniform phases; crude sanity check
        # that the diagonal-phase correction was applied (raw QR is biased).
        phases = np.array([np.angle(haar_unitary(2, 5000 + i)[0, 0]) for i in range(2000)])
        assert abs(np.mean(np.exp(1j * phases))) < 0.1


class TestHermEigen:
    def test_diagonal_sorted(self):
        eig = herm_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 2.0, 1.0])

    def test_sigma_x(self):
        eig = herm_eigen(SIGMA_X)
        assert np.allclose(eig.eigenvalues, [1.0, -1.0])
        assert np.allclose(np.abs(eig.eigenvectors), 1.0 / np.sqrt(2.0), atol=1e-12)

    def test_reconstruction(self, rng):
        for n in (2, 3, 4):
            for _ in range(200):
                g = random_cmat(rng, n)
                a = g + dagger(g)
                eig = herm_eigen(a)
                recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ dagger(eig.eigenvectors)
                assert max_abs(a - recon) <= 1e-12 * max(1.0, max_abs(a))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_invariance(self):
        for i in range(100):
            g = random_cmat(np.random.Generator(np.random.PCG64(i)), 4)
            a = g + dagger(g)
            q = haar_unitary(4, 7000 + i)
            ev_a = herm_eigen(a).eigenvalues
            ev_b = herm_eigen(q @ a @ dagger(q)).eigenvalues
            assert np.abs(ev_a - ev_b).max() <= 1e-10 * max(1.0, max_abs(a))


class TestSqrtPsd:
    def test_squares_back(self, rng):
        for n in (2, 4):
            for _ in range(20):
                a = random_cmat(rng, n)
                m = a @ dagger(a)
                r = sqrt_psd(m)
                assert max_abs(r - dagger(r)) <= 1e-14
                assert max_abs(r @ r - m) <= 1e-12 * max(1.0, max_abs(m))
                assert herm_eigen(r).eigenvalues[-1] >= -1e-12

    def test_clips_negative_rounding_to_zero(self):
        r = sqrt_psd(np.diag([0.25, -1e-17]))
        assert np.all(np.isfinite(r))
        assert max_abs(r - np.diag([0.5, 0.0])) == 0.0


class TestSvd2:
    def test_identity(self):
        _, s, _ = svd2(np.eye(2))
        assert np.allclose(s, [1.0, 1.0])

    def test_nilpotent(self):
        _, s, _ = svd2(np.array([[0, 1], [0, 0]], complex))
        assert np.allclose(s, [1.0, 0.0], atol=1e-15)

    def test_reconstruction(self, rng):
        for _ in range(300):
            a = random_cmat(rng, 2)
            u, s, v = svd2(a)
            assert max_abs(a - u @ np.diag(s) @ v) <= 1e-12 * max(1.0, max_abs(a))
            assert is_unitary(u, 1e-12) and is_unitary(v, 1e-12)
            assert s[0] >= s[1] >= 0.0


class TestAlgebraIdentities:
    def test_det_per_split(self, rng):
        # Determinant and permanent split 2x2 products: their sum is twice the
        # diagonal product, their difference twice the cross product.
        for _ in range(100):
            a = random_cmat(rng, 2)
            per = a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0]
            assert det2(a) == pytest.approx(np.linalg.det(a))
            assert det2(a) + per == pytest.approx(2.0 * a[0, 0] * a[1, 1])
            assert per - det2(a) == pytest.approx(2.0 * a[0, 1] * a[1, 0])

    def test_sigma_y_conjugation_identity(self, rng):
        # M sigma_y M^T = det(M) sigma_y for any 2x2 M (unitary or not).
        for _ in range(100):
            m = random_cmat(rng, 2)
            assert max_abs(m @ SIGMA_Y @ m.T - det2(m) * SIGMA_Y) <= 1e-12 * max(1.0, max_abs(m) ** 2)
        for i in range(100):
            u = haar_unitary(2, 31_000 + i)
            assert max_abs(u @ SIGMA_Y @ u.T - det2(u) * SIGMA_Y) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_det_unitary_modulus(self, seed):
        u = haar_unitary(2, seed)
        assert abs(abs(det2(u)) - 1.0) <= 1e-12


class TestJson:
    def test_round_trip(self, rng):
        a = random_cmat(rng, 4)
        b = mat_from_json(json.loads(json.dumps(mat_to_json(a))))
        assert max_abs(a - b) == 0.0

    def test_rejects_wrong_lengths(self):
        obj = mat_to_json(np.eye(2))
        obj["re"] = obj["re"][:-1]
        with pytest.raises(ValueError):
            mat_from_json(obj)

    def test_rejects_missing_field(self):
        obj = mat_to_json(np.eye(2))
        del obj["im"]
        with pytest.raises(ValueError):
            mat_from_json(obj)


def test_tolerance_profiles():
    assert Tolerances.from_profile("default") == Tolerances()
    strict = Tolerances.from_profile("strict")
    assert strict.oracle < Tolerances().oracle
    with pytest.raises(ValueError):
        Tolerances.from_profile("sloppy")
