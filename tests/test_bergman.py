import math

import numpy as np
import pytest
from scipy import integrate

from szegolab import (
    BallPoint,
    WeightedModel,
    basis_constant,
    kernel,
    normalized_kernel,
)
from szegolab.errors import DomainError


def kernel_series(model, z, w, terms=200):
    # Independent oracle: the binomial series of (1-u)^(-(n+1+alpha)).
    u = sum(a * b.conjugate() for a, b in zip(z.coords, w.coords))
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    expo = model.kernel_exponent
    for j in range(terms):
        total += term
        term *= u * (expo + j) / (j + 1)
    return total


class TestBallPoint:
    def test_cached_norm(self):
        p = BallPoint.of(0.3 + 0.1j, -0.2j)
        assert p.norm_sq == pytest.approx(0.09 + 0.01 + 0.04, abs=1e-16)

    def test_rejects_outside_points(self):
        with pytest.raises(DomainError):
            BallPoint.of(1.0)
        with pytest.raises(DomainError):
            BallPoint.of(0.9, 0.9)


class TestKernel:
    def test_at_origin(self):
        model = WeightedModel(n=2, alpha=3.7)
        z = BallPoint.of(0.4, 0.2j)
        assert kernel(model, z, BallPoint.of(0, 0)) == pytest.approx(1.0)

    def test_disc_value(self):
        model = WeightedModel(n=1, alpha=0.0)
        z = BallPoint.of(0.5)
        assert kernel(model, z, z) == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_series_oracle(self):
        model = WeightedModel(n=2, alpha=1.5)
        z = BallPoint.of(0.3, 0.1j)
        w = BallPoint.of(0.2j, -0.4)
        got = kernel(model, z, w)
        want = kernel_series(model, z, w)
        assert got == pytest.approx(want, rel=1e-10)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        model = WeightedModel(n=2, alpha=2.3)
        for _ in range(50):
            raw = rng.uniform(-0.4, 0.4, size=(2, 2, 2))
            z = BallPoint.of(*(raw[0, :, 0] + 1j * raw[0, :, 1]))
            w = BallPoint.of(*(raw[1, :, 0] + 1j * raw[1, :, 1]))
            a = kernel(model, z, w)
            b = kernel(model, w, z)
            assert a == pytest.approx(b.conjugate(), rel=1e-14)

    def test_diagonal_positivity(self):
        rng = np.random.default_rng(6)
        model = WeightedModel(n=1, alpha=4.0)
        for _ in range(25):
            z = BallPoint.of(complex(*rng.uniform(-0.6, 0.6, size=2)))
            val = kernel(model, z, z)
            assert abs(val.imag) < 1e-14 * abs(val)
            assert val.real >= 1.0
            assert val.real == pytest.approx(
                (1.0 - z.norm_sq) ** -model.kernel_exponent, rel=1e-13)


class TestNormalizedKernel:
    def test_diagonal(self):
        model = WeightedModel(n=1, alpha=2.0)
        w = BallPoint.of(0.3 + 0.4j)
        want = (1.0 - w.norm_sq) ** (-model.kernel_exponent / 2.0)
        assert normalized_kernel(model, w, w) == pytest.approx(want, rel=1e-13)

    def test_at_origin_section(self):
        model = WeightedModel(n=2, alpha=7.0)
        z = BallPoint.of(0.1, 0.5j)
        assert normalized_kernel(model, z, BallPoint.of(0, 0)) == pytest.approx(1.0)

    def test_contraction_bound(self):
        # (1-|z|^2)^(n+1+alpha) |k_w(z)|^2 <= 1, equality only at z = w:
        # the left side is a power of one minus the squared pseudo-hyperbolic
        # distance.
        rng = np.random.default_rng(7)
        model = WeightedModel(n=2, alpha=3.0)
        for _ in range(100):
            raw = rng.uniform(-0.45, 0.45, size=(2, 2, 2))
            z = BallPoint.of(*(raw[0, :, 0] + 1j * raw[0, :, 1]))
            w = BallPoint.of(*(raw[1, :, 0] + 1j * raw[1, :, 1]))
            lhs = ((1.0 - z.norm_sq) ** model.kernel_exponent
                   * abs(normalized_kernel(model, z, w)) ** 2)
            assert lhs <= 1.0 + 1e-12
        w = BallPoint.of(0.2, 0.3j)
        diag = ((1.0 - w.norm_sq) ** model.kernel_exponent
                * abs(normalized_kernel(model, w, w)) ** 2)
        assert diag == pytest.approx(1.0, rel=1e-12)


class TestBasisConstant:
    def test_first_values(self):
        model = WeightedModel(n=1, alpha=0.0)
        assert basis_constant(model, 0).delta == pytest.approx(1.0)
        assert basis_constant(model, 1).delta == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_norm_by_radial_quadrature(self):
        # ||delta_m z^m||^2 under the weighted measure is
        # c_alpha * 2 * delta_m^2 * int_0^1 rho^(2m+1) (1-rho^2)^alpha drho.
        model = WeightedModel(n=1, alpha=100.0)
        m = 50
        bc = basis_constant(model, m)
        log_d2 = 2.0 * bc.log_delta

        def integrand(rho):
            return math.exp(log_d2 + model.alpha * math.log1p(-rho * rho)
                            + (2 * m + 1) * math.log(rho))

        val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        norm_sq = model.c_alpha * 2.0 * val
        assert norm_sq == pytest.approx(1.0, abs=1e-8)
        assert math.isfinite(bc.delta) and bc.delta > 0

    def test_only_disc_supported(self):
        with pytest.raises(DomainError):
            basis_constant(WeightedModel(n=2, alpha=0.0), 3)
        with pytest.raises(DomainError):
            basis_constant(WeightedModel(n=1, alpha=0.0), -1)


class TestReproducingProperty:
    @pytest.mark.parametrize("alpha", [2.0, 10.0])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_monomials_reproduced(self, alpha, k):
        # c_alpha-weighted polar quadrature of K(z, .) e_k over the disc
        # returns e_k(z).
        model = WeightedModel(n=1, alpha=alpha)
        delta = basis_constant(model, k).delta
        z = BallPoint.of(0.35 + 0.25j)

        nodes, weights = np.polynomial.legendre.leggauss(120)
        rho = 0.5 * (nodes + 1.0)
        wr = 0.5 * weights
        n_theta = 256
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        w_pts = rho[:, None] * np.exp(1j * theta)[None, :]

        kern = (1.0 - complex(z.coords[0]) * np.conj(w_pts)) ** -model.kernel_exponent
        f_vals = delta * w_pts ** k
        weight = (1.0 - rho ** 2) ** alpha * rho
        integrand = kern * f_vals * weight[:, None]
        # normalized area measure: dv = (1/pi) rho drho dtheta
        total = model.c_alpha / math.pi * (2.0 * math.pi / n_theta) * np.sum(
            integrand * wr[:, None])
        want = delta * complex(z.coords[0]) ** k
        assert abs(total - want) < 1e-6
