import math

import numpy as np
import pytest

from szegolab import (
    BlockHessianSpec,
    build_block_matrix,
    det_closed_form,
    det_direct,
    det_via_polynomial,
    random_metric_pair,
    ring_determinant_polynomial,
    scalar_block_factor,
    skew_half_spectrum,
    sqrt_det_from_spectrum,
)
from szegolab.errors import DomainError, UnsupportedClassError


def cofactor_det(a):
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def prescribed_skew_adjoint(lambdas, d, rng):
    """W similar to the canonical skew form with pairs +-i*lambda_k."""
    canon = np.zeros((d, d))
    for k, lam in enumerate(lambdas):
        canon[2 * k, 2 * k + 1] = lam
        canon[2 * k + 1, 2 * k] = -lam
    while True:
        s = rng.uniform(-1.0, 1.0, size=(d, d))
        if abs(np.linalg.det(s)) > 0.1:
            break
    return s @ canon @ np.linalg.inv(s)


class TestBuildBlockMatrix:
    def test_single_block(self):
        spec = BlockHessianSpec(m=2, W=np.array([[0.0, 0.3], [-0.3, 0.0]]))
        assert np.array_equal(build_block_matrix(spec), 2.0 * np.eye(2))

    def test_scalar_pattern(self):
        spec = BlockHessianSpec(m=3, W=np.array([[0.7]]))
        want = np.array([[2.0, -1.0 - 0.7j], [-1.0 + 0.7j, 2.0]])
        assert np.allclose(build_block_matrix(spec), want, atol=0)

    def test_complex_symmetry_for_skew_w(self):
        # With W skew-symmetric the block matrix is complex symmetric
        # (transpose-invariant); it is not Hermitian unless W = 0.
        rng = np.random.default_rng(40)
        b = rng.normal(size=(2, 2))
        spec = BlockHessianSpec(m=4, W=b - b.T)
        mat = build_block_matrix(spec)
        assert np.allclose(mat, mat.T, atol=1e-15)

    def test_m_validation(self):
        with pytest.raises(DomainError):
            BlockHessianSpec(m=1, W=np.eye(2))

    def test_order_cap(self):
        # Order (m - 1) d above 4096 is refused before the matrix exists.
        for m, d in ((4098, 1), (2049, 3)):
            with pytest.raises(DomainError, match="cap"):
                build_block_matrix(BlockHessianSpec(m=m, W=np.zeros((d, d))))


class TestDetDirect:
    def test_identity(self):
        assert det_direct(np.eye(5)) == pytest.approx(1.0)

    def test_scaled_identity(self):
        for k in (1, 3, 6):
            assert det_direct(2.0 * np.eye(k)) == pytest.approx(2.0 ** k, rel=1e-14)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        got = det_direct(a)
        want = cofactor_det(a)
        assert abs(got - want) < 1e-10 * abs(want)

    def test_singular(self):
        a = np.ones((3, 3))
        assert det_direct(a) == 0


class TestRingPolynomial:
    def test_m2_gives_twice_identity(self):
        w = np.array([[0.0, 0.4], [-0.4, 0.0]])
        assert np.allclose(ring_determinant_polynomial(2, w), 2.0 * np.eye(2))
        assert det_via_polynomial(BlockHessianSpec(m=2, W=w)) == pytest.approx(4.0)

    def test_m3_eigenvalue_images(self):
        # The scalar factor at a +-i*lambda pair for m = 3 is 3 + lambda^2.
        lam = 0.6
        rng = np.random.default_rng(42)
        w = prescribed_skew_adjoint([lam], 2, rng)
        p = ring_determinant_polynomial(3, w)
        eigs = np.linalg.eigvals(p)
        assert np.allclose(sorted(eigs.real), [3 + lam ** 2] * 2, atol=1e-10)
        assert np.allclose(eigs.imag, 0.0, atol=1e-10)
        assert scalar_block_factor(3, lam) == pytest.approx(3 + lam ** 2)
        assert scalar_block_factor(5, 0.0) == 5.0

    def test_binomials_past_float_range(self):
        # C(1029, 514) ~ 1.4e308 is the last m whose odd binomials are floats.
        w = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
        assert np.all(np.isfinite(ring_determinant_polynomial(1029, w)))
        assert scalar_block_factor(1029, 0.0) == 1029.0
        with pytest.raises(DomainError, match="float range"):
            ring_determinant_polynomial(1030, w)
        with pytest.raises(DomainError, match="float range"):
            scalar_block_factor(1030, 0.0)

    def test_ring_polynomial_past_float_range(self):
        # W^2 = -25 I: the terms C(1000, 2l+1) 25^l pass the float range
        # long before the last one, and the entries go to inf and NaN.
        w = np.array([[0.0, 5.0], [-5.0, 0.0]])
        with pytest.raises(DomainError, match="float range"):
            ring_determinant_polynomial(1000, w)

    def test_direct_determinant_past_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            det_direct(np.diag([1e200, 1e200]))

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(43)
        for d in (1, 2, 3, 4):
            for m in (2, 3, 4, 5, 6):
                g, h = random_metric_pair(d, rng)
                spec = BlockHessianSpec(m=m, W=np.linalg.solve(g, h))
                direct = det_direct(build_block_matrix(spec))
                poly = det_via_polynomial(spec)
                assert abs(direct - poly) <= 1e-9 * abs(direct)


class TestSpectralForms:
    def test_determinant_real_positive_for_skew_adjoint(self):
        rng = np.random.default_rng(44)
        for d in (1, 2, 3, 4):
            for m in (2, 4, 6):
                g, h = random_metric_pair(d, rng)
                spec = BlockHessianSpec(m=m, W=np.linalg.solve(g, h))
                val = det_direct(build_block_matrix(spec))
                assert abs(val.imag) < 1e-9 * abs(val)
                assert val.real > 0

    def test_eigenvalue_product_random_spectra(self):
        rng = np.random.default_rng(45)
        for d, pairs in ((2, 1), (4, 2), (3, 1)):
            for m in (2, 3, 4, 5, 6):
                lambdas = rng.uniform(0.05, 1.95, size=pairs)
                w = prescribed_skew_adjoint(lambdas, d, rng)
                direct = det_direct(build_block_matrix(BlockHessianSpec(m=m, W=w)))
                from_spec = sqrt_det_from_spectrum(m, d, lambdas) ** 2
                assert abs(direct - from_spec) <= 1e-9 * abs(from_spec)

    def test_eigenvalue_product_from_metric_pair(self):
        rng = np.random.default_rng(46)
        for d in (2, 3, 4):
            g, h = random_metric_pair(d, rng)
            lams = skew_half_spectrum(g, h)
            spec = BlockHessianSpec(m=5, W=np.linalg.solve(g, h))
            direct = det_direct(build_block_matrix(spec))
            from_spec = sqrt_det_from_spectrum(5, d, lams) ** 2
            assert abs(direct - from_spec) <= 1e-9 * abs(direct)

    def test_past_float_range(self):
        # m^(d/2) past the float range overflows in the power, and a product
        # of large factors reaches inf; both are refused, small cases kept.
        with pytest.raises(DomainError, match="float range"):
            sqrt_det_from_spectrum(1000, 300, [])
        with pytest.raises(DomainError, match="float range"):
            sqrt_det_from_spectrum(100, 2, [1e200])
        assert sqrt_det_from_spectrum(3, 3, [0.5]) == pytest.approx(3.25 * math.sqrt(3.0),
                                                                    rel=1e-15)
        assert sqrt_det_from_spectrum(4, 4, []) == 16.0


class TestClosedForms:
    def test_isotropic_m2(self):
        for d in (1, 2, 3):
            cf = det_closed_form(2, n=3, d=d, cls="isotropic")
            assert cf.sqrt_det == pytest.approx(2.0 ** (d / 2.0), rel=1e-15)

    def test_coisotropic_full_dimension(self):
        # d = 2n, m = 2: all rotation eigenvalues are 1 and the block matrix
        # is 2I of size 2n.
        for n in (1, 2):
            d = 2 * n
            cf = det_closed_form(2, n=n, d=d, cls="co-isotropic")
            assert cf.sqrt_det == pytest.approx(2.0 ** n, rel=1e-15)
            rng = np.random.default_rng(47 + n)
            w = prescribed_skew_adjoint([1.0] * n, d, rng)
            direct = det_direct(build_block_matrix(BlockHessianSpec(m=2, W=w)))
            assert abs(direct - cf.sqrt_det ** 2) < 1e-10 * cf.sqrt_det ** 2

    def test_curve_m5_unified(self):
        cf = det_closed_form(5, n=1, d=1, cls="isotropic")
        assert cf.sqrt_det == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert cf.unified == pytest.approx(4.0 / math.sqrt(5.0), rel=1e-15)

    def test_closed_matches_direct_for_constructed_spectra(self):
        rng = np.random.default_rng(48)
        # isotropic: W = 0
        for d in (1, 2, 3):
            for m in (2, 3, 5):
                direct = det_direct(build_block_matrix(
                    BlockHessianSpec(m=m, W=np.zeros((d, d)))))
                want = det_closed_form(m, n=3, d=d, cls="isotropic").sqrt_det ** 2
                assert abs(direct - want) <= 1e-10 * abs(want)
        # co-isotropic: unit rotation spectrum with multiplicity d - n
        for n, d in ((1, 2), (2, 3), (2, 4)):
            for m in (2, 3, 4):
                w = prescribed_skew_adjoint([1.0] * (d - n), d, rng)
                direct = det_direct(build_block_matrix(BlockHessianSpec(m=m, W=w)))
                want = det_closed_form(m, n=n, d=d, cls="co-isotropic").sqrt_det ** 2
                assert abs(direct - want) <= 1e-10 * abs(want)

    def test_past_float_range(self):
        # 2^(d(m-1)/2) is the largest power: 2^1023.5 at m = 2048, d = 1,
        # past the float range from m = 2049.
        cf = det_closed_form(2048, n=1, d=1, cls="isotropic")
        assert cf.unified == pytest.approx(2.0 ** 1023.5 / math.sqrt(2048.0), rel=1e-15)
        for m, n, d, cls in ((2049, 1, 1, "isotropic"), (10 ** 6, 1, 1, "isotropic"),
                             (3000, 20, 20, "isotropic"), (3000, 10, 15, "co-isotropic")):
            with pytest.raises(DomainError, match="float range"):
                det_closed_form(m, n=n, d=d, cls=cls)

    def test_dimension_must_fit_the_class(self):
        for n, d, cls in ((1, 5, "co-isotropic"), (1, 5, "isotropic"), (2, 1, "lagrangian")):
            with pytest.raises(DomainError, match="needs"):
                det_closed_form(3, n=n, d=d, cls=cls)

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedClassError):
            det_closed_form(3, n=2, d=2, cls="neither")
