import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import gammaln_spectrum
from szegolab import (
    ChartedSubmanifold,
    CircleSymbolModel,
    PhiFunction,
    WeightedModel,
    convergence_scan,
    count_prediction,
    eigen_count,
    explicit_trace,
    largest_eigenvalue_index,
    make_chart,
    monomial_rhs_circle,
    poly_phi,
    power_phi,
    q_transform,
    schatten_limit,
    szego_rhs,
    szego_rhs_chart,
)
from szegolab import szego
from szegolab.errors import AccuracyError, ContractViolation, DomainError, RankError
from szegolab.quadrature import (adaptive_integral, fejer2, nested_integral, panel_integral,
                                 trapezoid)

R_HALF = CircleSymbolModel(r=0.5, alpha=100.0)


class TestQTransform:
    def test_monomial_rule_grid(self):
        worst = 0.0
        for p in (0.3, 1.0, 2.0, 5.0):
            for eps in (0.5, 1.0, 1.5):
                for t in (0.1, 1.0, 7.0):
                    got = q_transform(eps, power_phi(p), t)
                    want = t ** p / p ** eps
                    worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-8

    def test_identity_at_zero_order(self):
        phi = poly_phi([2.0, -0.5, 1.0])
        for t in (0.3, 1.7):
            assert q_transform(0.0, phi, t) == float(phi(np.array([t]))[0])

    def test_linearity(self):
        t = 1.3
        combo = q_transform(0.5, poly_phi([2.0, 3.0]), t)
        parts = (2.0 * q_transform(0.5, power_phi(1.0), t)
                 + 3.0 * q_transform(0.5, power_phi(2.0), t))
        assert combo == pytest.approx(parts, rel=1e-10)

    @pytest.mark.parametrize("order", [-0.5, math.nan, math.inf])
    def test_order_not_finite_and_nonnegative_rejected(self, order):
        # NaN and inf used to pass to the tail cut and be refused as "past the float range"
        with pytest.raises(DomainError, match=r"transform order must be finite and >= 0"):
            q_transform(order, power_phi(1.0), 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            q_transform(0.5, power_phi(1.0), 0.0)
        with pytest.raises(DomainError):
            power_phi(-1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_phi_parameters_rejected(self, bad):
        with pytest.raises(DomainError):
            power_phi(bad)
        with pytest.raises(DomainError):
            poly_phi([1.0, bad])

    def test_poly_phi_past_the_float_range_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = poly_phi([1e308, 1e308, -1e308])(np.array([0.5, 2.0]))
        assert math.isfinite(vals[0]) and math.isnan(vals[1])

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0,
                                   np.array([1.0, 0.0]), np.array([2.0, math.inf]),
                                   np.ones((2, 2))])
    def test_bad_points_rejected_before_the_ladder(self, t, monkeypatch):
        def ladder(*args, **kwargs):
            raise AssertionError("reached the Gauss ladder")

        monkeypatch.setattr(szego, "adaptive_integral", ladder)
        with pytest.raises(DomainError):
            q_transform(0.5, power_phi(1.0), t)

    def test_array_matches_scalar_calls(self):
        ts = np.geomspace(1e-3, 1e4, 9)
        cases = [(eps, power_phi(p))
                 for eps in (0.5, 1.0, 1.5, 2.5) for p in (0.05, 0.3, 1.0, 2.0, 3.0)]
        cases += [(eps, poly_phi([1.5, -0.25, 0.75])) for eps in (0.5, 1.5)]
        for eps, phi in cases:
            got = q_transform(eps, phi, ts)
            want = np.array([q_transform(eps, phi, float(t)) for t in ts])
            assert got.shape == ts.shape
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    def test_scalar_call_returns_float(self):
        for eps in (0.0, 0.5):
            assert type(q_transform(eps, power_phi(2.0), 1.5)) is float

    def test_zero_order_array_is_phi(self):
        phi = poly_phi([2.0, -0.5, 1.0])
        ts = np.array([0.3, 1.7, 12.0])
        assert np.array_equal(q_transform(0.0, phi, ts), phi(ts))

    def test_exhausted_element_is_named(self):
        # A jump in phi at s = 1 leaves the integrand discontinuous only for
        # t > 1: t = 2 exhausts the ladder, its neighbours converge.
        step = PhiFunction(fn=lambda s: np.where(s < 1.0, s, 0.0), p_exponent=1.0)
        with pytest.raises(AccuracyError) as exc:
            q_transform(1.0, step, np.array([0.5, 2.0, 0.25]))
        assert str(exc.value).startswith("q_transform(eps=1, t=2): Gauss ladder exhausted")

    def test_tail_cut_past_the_float_range_rejected(self):
        # ((710 + |ln t|)/min(p, 1))^eps overflows at a tiny p or a large eps
        for eps, p in ((0.5, 1e-308), (0.5, 1e-320), (200.0, 1.0)):
            with pytest.raises(DomainError, match=r"t=2\): the tail cut is past the float"):
                q_transform(eps, power_phi(p), 2.0)

    @pytest.mark.parametrize("n", [9, 96, 300])
    def test_chunked_array_equals_scalar_calls_bit_for_bit(self, n):
        # 300 points span two chunks of 256 rows
        ts = np.geomspace(1e-3, 1e4, n)
        for eps in (0.5, 1.5):
            for phi in (power_phi(0.3), poly_phi([1.5, -0.25, 0.75])):
                want = np.array([q_transform(eps, phi, float(t)) for t in ts])
                assert np.array_equal(q_transform(eps, phi, ts), want)

    def test_one_ladder_per_256_points(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return adaptive_integral(*args, **kwargs)

        monkeypatch.setattr(szego, "adaptive_integral", counting)
        for n in (1, 96, 256, 257, 600):
            calls.clear()
            q_transform(0.5, power_phi(1.0), np.linspace(0.5, 3.0, n))
            assert len(calls) == math.ceil(n / 256)

    def test_exhausted_element_among_300_is_named_alone(self):
        # The first chunk of 256 points converges; t = 2 drags the other 43
        # points of the second up the ladder, and only t = 2 is named.
        step = PhiFunction(fn=lambda s: np.where(s < 1.0, s, 0.0), p_exponent=1.0)
        ts = np.append(np.geomspace(0.05, 0.95, 299), 2.0)
        with pytest.raises(AccuracyError) as exc:
            q_transform(1.0, step, ts)
        assert str(exc.value).startswith("q_transform(eps=1, t=2): Gauss ladder exhausted")


class TestVectorLadder:
    def test_components_accepted_on_their_own(self):
        # x^3 is exact at order 16, so its first agreeing order is 32;
        # cos(200 x) needs order 128.  Each keeps the value of its own order.
        edges = [0.0, 0.5, 1.0]
        rows = (lambda x: x ** 3, lambda x: np.cos(200.0 * x))
        got = adaptive_integral(lambda x: np.vstack([g(x) for g in rows]), edges, 1e-10)
        assert got[0] == panel_integral(rows[0], edges, 32)
        assert got[1] == panel_integral(rows[1], edges, 128)
        assert panel_integral(rows[1], edges, 64) != got[1]
        for value, g in zip(got, rows):
            assert value == adaptive_integral(g, edges, 1e-10)


class TestNestedRules:
    LEVELS = (2, 4, 8, 16, 32, 64, 128, 256)

    @pytest.mark.parametrize("rule", [fejer2, trapezoid])
    @pytest.mark.parametrize("n", LEVELS)
    def test_weights_sum_to_two(self, rule, n):
        assert abs(np.sum(rule(n)[1]) - 2.0) <= 1e-15

    @pytest.mark.parametrize("n", LEVELS)
    def test_fejer_monomials_exact_to_degree_n_minus_2(self, n):
        x, w = fejer2(n)
        for deg in range(n - 1):
            want = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(x ** deg @ w - want) <= 1e-15

    @pytest.mark.parametrize("rule", [fejer2, trapezoid])
    @pytest.mark.parametrize("n", LEVELS[:-1])
    def test_levels_nest_bit_for_bit(self, rule, n):
        # The even-k nodes of 2n steps are the nodes of n, and lead in order.
        coarse, fine = rule(n)[0], rule(2 * n)[0]
        first = 0 if rule is trapezoid else 1
        assert np.array_equal(np.sort(fine)[first::2], np.sort(coarse))
        assert np.array_equal(fine[:coarse.size], coarse)

    def test_converging_curve_transforms_56_then_64_nodes(self, monkeypatch):
        # Two levels of Fejer's rule on 8 panels: 7 nodes per panel, then 8
        # new ones; a Gauss ladder of orders 8 and 16 took 64 and 128.
        seen = []

        def counting(epsilon, phi, t):
            seen.append(np.size(t))
            return q_transform(epsilon, phi, t)

        monkeypatch.setattr(szego, "q_transform", counting)
        szego_rhs_chart(WeightedModel(n=1, alpha=0.0), make_chart("circle", 0.5),
                        lambda t: 1.0 + 0.2 * t[0], power_phi(1.5), dprime=1.0)
        assert seen == [56, 64]


class TestSzegoRhs:
    def test_monomial_closed_form(self):
        for m in (1, 2, 3):
            got = szego_rhs(R_HALF, power_phi(float(m)))
            assert got == pytest.approx(monomial_rhs_circle(0.5, m), rel=1e-9)

    def test_monomial_past_the_float_range_refused(self):
        # The limit, about 1e1249, is past the largest float, and
        # (1 - r^2)^(2m) underflows to 0 here.
        with pytest.raises(DomainError, match="float range"):
            monomial_rhs_circle(0.5, 5000)

    def test_hand_value_linear(self):
        want = (1.0 / math.sqrt(2.0)) * (16.0 / 9.0) * (4.0 * math.pi / 3.0)
        assert szego_rhs(R_HALF, power_phi(1.0)) == pytest.approx(want, rel=1e-10)

    def test_small_power_matches_schatten_structure(self):
        # Q_{1/2}(s^p)(x) = x^p p^{-1/2}: the limit is the integral of x^p
        # over sqrt(2p), for the constant and a Fourier symbol
        for model in (R_HALF, CircleSymbolModel(r=0.5, alpha=100.0, fourier=(1.0, 0.2))):
            got = szego_rhs(model, power_phi(0.5))
            assert math.isfinite(got) and got > 0
            assert got == pytest.approx(power_integral(model, 0.5), rel=1e-9)

    def test_polynomial_is_linear_combination(self):
        coeffs = (1.5, -0.25, 0.75)
        got = szego_rhs(R_HALF, poly_phi(coeffs))
        want = sum(c * monomial_rhs_circle(0.5, k + 1) for k, c in enumerate(coeffs))
        assert got == pytest.approx(want, rel=1e-10)

    def test_chart_route_matches_circle_fast_path(self):
        model = WeightedModel(n=1, alpha=0.0)
        chart = make_chart("circle", 0.5)
        got = szego_rhs_chart(model, chart, lambda t: 1.0, power_phi(2.0), dprime=1.0)
        assert got == pytest.approx(monomial_rhs_circle(0.5, 2), rel=1e-6)

    def test_chart_route_seeded_curves_against_quad(self):
        # Radial segments and arcs in the ranges of the benchmark's
        # chart-limits curves, symbols c0 + c1 t + c2 t^2, phi = s^p with
        # p in [0.5, 2]: Q_{1/2}(s^p)(x) = x^p p^(-1/2), so the limit is
        # 2^(-1/2) int (a/(1-rho^2)^2)^p p^(-1/2) |gamma'|/(1-rho^2) dt.
        rng = np.random.default_rng(27)
        for k in range(24):
            theta0 = rng.uniform(0.0, 2.0 * math.pi)
            if k % 2:
                rho0, rho1 = rng.uniform(0.0, 0.3), rng.uniform(0.5, 0.85)
                chart, radius, speed = radial_segment(theta0, rho0, rho1)
            else:
                rho, dtheta = rng.uniform(0.2, 0.8), rng.uniform(0.5, 2.0 * math.pi)
                chart, radius, speed = circle_arc(rho, theta0, dtheta)
            c0, c1, c2 = rng.uniform(0.8, 1.5), *rng.uniform(-0.3, 0.3, 2)
            p = rng.uniform(0.5, 2.0)
            got = szego_rhs_chart(WeightedModel(n=1, alpha=0.0), chart,
                                  lambda t: c0 + c1 * t[0] + c2 * t[0] ** 2,
                                  power_phi(p), dprime=1.0)

            def f(t):
                s = 1.0 - radius(t) ** 2
                return ((c0 + c1 * t + c2 * t * t) / s ** 2) ** p / math.sqrt(p) * speed / s

            want = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert got == pytest.approx(want / math.sqrt(2.0), rel=1e-9, abs=0.0)

    def test_chart_route_rejects_higher_dimensions(self):
        with pytest.raises(DomainError):
            szego_rhs_chart(WeightedModel(n=2, alpha=0.0), make_chart("sphere3"),
                            lambda t: 1.0, power_phi(1.0), dprime=1.0)

    def test_chart_route_radial_segment_frozen_oracle(self):
        # Curve gamma(t) = 0.2 + 0.4 t in the disc, symbol 0.3 t (1 - t),
        # phi = s^2: the limit integral reduces to
        # (1/2) int (a/(1-gamma^2)^2)^2 * 0.4/(1-gamma^2) dt, evaluated to
        # 20 digits with mpmath and frozen here.
        from szegolab import ChartedSubmanifold
        import numpy as np

        def seg(t):
            return np.array([0.2 + 0.4 * t[0] + 0j])

        chart = ChartedSubmanifold("radial-segment", n=1, d=1, chart=seg)

        def symbol(t):
            return 0.3 * t[0] * (1.0 - t[0])

        got = szego_rhs_chart(WeightedModel(n=1, alpha=0.0), chart, symbol,
                              power_phi(2.0), dprime=1.0)
        assert got == pytest.approx(0.0016191555560150957, rel=1e-6)

    def test_fourier_symbol_route(self):
        # a(theta) = 1 + cos(2 pi theta), phi = s^2: the limit integral is
        # computable by direct quadrature of the transformed values.
        model = CircleSymbolModel(r=0.5, alpha=10.0, fourier=(1.0, 0.5))
        got = szego_rhs(model, power_phi(2.0))
        scale = (1.0 - 0.25) ** -2
        circumference = 2.0 * math.pi * 0.5 / 0.75

        def integrand(theta):
            val = (1.0 + math.cos(2 * math.pi * theta)) * scale
            return val ** 2 / math.sqrt(2.0 * 2.0) if val > 0 else 0.0

        want, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        assert got == pytest.approx(circumference * want, rel=1e-6)

    def test_each_grid_node_transformed_once(self, monkeypatch):
        # Doubling reuses the even nodes: the transform sees each node of
        # the final grid once, one call per grid.
        seen = []

        def counting(epsilon, phi, t):
            seen.append(np.size(t))
            return q_transform(epsilon, phi, t)

        monkeypatch.setattr(szego, "q_transform", counting)
        model = CircleSymbolModel(r=0.5, alpha=10.0, fourier=(1.0, 0.3))
        szego_rhs(model, power_phi(0.5))
        assert len(seen) >= 2
        assert seen == [32] + [32 * 2 ** k for k in range(len(seen) - 1)]

    def test_symbol_zero_fails_fast(self):
        # a = 1 + cos(2 pi theta) vanishes at theta = 1/2, where a^0.3 is not
        # smooth: the periodic grid stops at 2048 nodes without settling.
        model = CircleSymbolModel(r=0.5, alpha=50.0, fourier=(1.0, 0.5))
        with pytest.raises(AccuracyError, match="2048 nodes"):
            szego_rhs(model, power_phi(0.3))


def radial_segment(theta0, rho0, rho1):
    """Chart of e^(i theta0) (rho0 + (rho1 - rho0) t), its |gamma| and |gamma'|."""
    e = complex(np.exp(1j * theta0))
    chart = ChartedSubmanifold(
        "radial", n=1, d=1, chart=lambda t: np.array([e * (rho0 + (rho1 - rho0) * t[0])]),
        jacobian=lambda t: np.array([[e * (rho1 - rho0)]]))
    return chart, (lambda t: rho0 + (rho1 - rho0) * t), rho1 - rho0


def circle_arc(rho, theta0, dtheta):
    """Chart of rho e^(i (theta0 + dtheta t)), its |gamma| and |gamma'|."""
    chart = ChartedSubmanifold(
        "arc", n=1, d=1, chart=lambda t: np.array([rho * np.exp(1j * (theta0 + dtheta * t[0]))]),
        jacobian=lambda t: np.array([[1j * dtheta * rho * np.exp(1j * (theta0 + dtheta * t[0]))]]))
    return chart, (lambda t: rho), rho * dtheta


class TestChartRoute:
    """The batched chart route: node-array calls, contracts and symbol checks."""

    DISC = WeightedModel(n=1, alpha=0.0)

    @staticmethod
    def segment(a, b, jacobian=True):
        return ChartedSubmanifold(
            "segment", n=1, d=1, chart=lambda t: np.array([a + b * t[0] + 0j]),
            jacobian=(lambda t: np.array([[b + 0j]])) if jacobian else None)

    def rhs(self, chart, symbol):
        return szego_rhs_chart(self.DISC, chart, symbol, power_phi(2.0), dprime=1.0)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_one_chart_call_per_integrand_call(self, monkeypatch, analytic):
        # One chart, one Jacobian and one symbol call per level's new nodes;
        # finite differences add 2d chart calls.
        calls = {"chart": [], "jacobian": [], "symbol": [], "integrand": []}

        def counted(key, fn):
            def wrapped(t):
                calls[key].append(np.shape(t))
                return fn(t)
            return wrapped

        base = make_chart("circle", 0.5)
        chart = ChartedSubmanifold(
            "circle-counted", n=1, d=1, chart=counted("chart", base.chart),
            jacobian=counted("jacobian", base.jacobian) if analytic else None)

        def counting_nested(f, *args, **kwargs):
            def g(x):
                if np.size(x):
                    calls["integrand"].append(np.size(x))
                return f(x)
            return nested_integral(g, *args, **kwargs)

        monkeypatch.setattr(szego, "nested_integral", counting_nested)
        got = self.rhs(chart, counted("symbol", lambda t: 1.0 + 0.0 * t[0]))
        assert got == pytest.approx(monomial_rhs_circle(0.5, 2), rel=1e-6)
        n_calls = len(calls["integrand"])
        assert 1 <= n_calls <= 6
        assert [s[1] for s in calls["symbol"]] == calls["integrand"]
        assert len(calls["chart"]) == (1 if analytic else 3) * n_calls
        assert len(calls["jacobian"]) == (n_calls if analytic else 0)
        assert all(s == (1, n) for s, n in zip(calls["symbol"], calls["integrand"]))

    @pytest.mark.parametrize("dprime", [0.0, 2.0, 3.0, math.nan])
    def test_dprime_other_than_one_refused(self, dprime):
        # On the r = 0.5 circle dprime = 0 once returned 13.24 and dprime = 3
        # returned 1.65; neither is the limit.
        with pytest.raises(DomainError, match="d' = 1"):
            szego_rhs_chart(self.DISC, make_chart("circle", 0.5), lambda t: 1.0,
                            power_phi(2.0), dprime=dprime)

    def test_unbroadcastable_chart_raises_contract_violation(self):
        def two_rows(t):
            return np.full((2, np.size(t[0])), 0.3 + 0j)

        chart = ChartedSubmanifold("two-rows", n=1, d=1, chart=two_rows)
        with pytest.raises(ContractViolation, match="two_rows"):
            self.rhs(chart, lambda t: 1.0)

    def test_unbroadcastable_symbol_raises_contract_violation(self):
        def pair(t):
            return np.ones(2)

        with pytest.raises(ContractViolation, match="pair"):
            self.rhs(self.segment(0.1, 0.5), pair)

    def test_segment_leaving_ball_names_t(self):
        with pytest.raises(DomainError, match=r"t=\[0\.7[2-9]\d*\]"):
            self.rhs(self.segment(0.5, 0.7), lambda t: 1.0)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_constant_chart_raises_rank_error(self, analytic):
        with pytest.raises(RankError):
            self.rhs(self.segment(0.3, 0.0, jacobian=analytic), lambda t: 1.0)

    def test_negative_symbol_raises(self):
        # Once quietly integrated over the nodes where a > 0 (0.658).
        with pytest.raises(DomainError, match=r"-0\.4\d* at t=0\.0"):
            self.rhs(make_chart("circle", 0.5), lambda t: t[0] - 0.5)

    def test_nan_symbol_raises(self):
        # Once quietly 0.0.
        with pytest.raises(DomainError, match="nan at t="):
            self.rhs(make_chart("circle", 0.5), lambda t: np.full_like(t[0], np.nan))

    def test_zeros_and_tiny_negatives_allowed(self):
        # a vanishes on t < 1/2, a panel edge; -1e-14 counts as zero there.
        chart = make_chart("circle", 0.5)
        half = self.rhs(chart, lambda t: np.where(t[0] < 0.5, 0.0, 1.0))
        tiny = self.rhs(chart, lambda t: np.where(t[0] < 0.5, -1e-14, 1.0))
        assert half == tiny
        assert half == pytest.approx(0.5 * monomial_rhs_circle(0.5, 2), rel=1e-12)


class TestCountPrediction:
    def test_reference_limits(self):
        assert count_prediction(0.5, 16 / 15, 16 / 9) == pytest.approx(
            2.3887, abs=5e-4)
        assert count_prediction(1 / math.sqrt(2), 0.4, 0.6) == pytest.approx(
            0.9930, abs=5e-4)

    def test_degenerate_interval(self):
        assert count_prediction(0.5, 1.0, 1.0) == 0.0

    def test_rejects_endpoint_above_bound(self):
        with pytest.raises(DomainError):
            count_prediction(0.5, 1.0, 2.0)  # 2 > 16/9
        with pytest.raises(DomainError):
            count_prediction(0.5, 0.0, 1.0)


def power_integral(model, p, n_nodes=4096):
    """(2p)^(-1/2) int (a(xi)(1-r^2)^-2)^p dsigma over the circle: its length
    times the mean of the integrand on a periodic grid, which is exact for a
    trigonometric polynomial of degree below n_nodes and spectrally accurate
    for a positive symbol's power."""
    r = model.r
    x = model.symbol_values(np.arange(n_nodes) / n_nodes) / (1.0 - r * r) ** 2
    return 2.0 * math.pi * r / (1.0 - r * r) * float(np.mean(x ** p)) / math.sqrt(2.0 * p)


def gammaln_truncation(r, alpha):
    # The gammaln spectrum down to the smallest normal float, as the
    # container eigen_count reads.
    lam = np.exp(gammaln_spectrum.log_spectrum(r, alpha))
    return gammaln_spectrum.truncation(lam, CircleSymbolModel(r=r, alpha=alpha))


class TestEigenCount:
    # On the gammaln spectrum: its values lie at least 2.7e-6 (relative)
    # from every end used here, far above its 3.3e-9 error at alpha = 1e5.
    def test_reference_counts(self):
        spec100 = gammaln_truncation(0.5, 100.0)
        assert eigen_count(spec100, 16 / 15, 16 / 9) == 14
        spec1e5 = gammaln_truncation(0.5, 1e5)
        assert eigen_count(spec1e5, 16 / 15, 16 / 9) == 426
        spec2 = gammaln_truncation(1 / math.sqrt(2), 1e4)
        assert eigen_count(spec2, 0.4, 0.6) == 56

    def test_interior_interval_is_closed_two_sided(self):
        spec = gammaln_truncation(0.5, 100.0)
        inside = eigen_count(spec, 0.5, 1.0)
        manual = int(np.sum((spec.eigenvalues >= 0.5) & (spec.eigenvalues <= 1.0)))
        assert inside == manual

    def test_boundary_convention_at_norm_bound(self):
        # With the upper endpoint at the norm bound, the finite-alpha
        # overshoot eigenvalues count as inside.
        spec = gammaln_truncation(0.5, 100.0)
        assert spec.eigenvalues.max() > 16 / 9  # the overshoot exists
        assert eigen_count(spec, 16 / 15, 16 / 9) == int(
            np.sum(spec.eigenvalues >= 16 / 15))


def eigenvalue_density(r, s):
    """Density of the limiting scaled eigenvalue distribution, symbol 1.

    (2 pi r/(1-r^2)) / (sqrt(pi) s) * ln(1/((1-r^2)^2 s))^{-1/2} on
    (0, (1-r^2)^{-2}).
    """
    circumference = 2.0 * math.pi * r / (1.0 - r * r)
    return circumference / (math.sqrt(math.pi) * s * math.sqrt(-math.log((1.0 - r * r) ** 2 * s)))


class TestDensity:
    def test_antiderivative_consistency(self):
        # Integrating the closed-form density over the counting interval
        # (with its inverse-sqrt endpoint singularity) and dividing by
        # sqrt(2) reproduces the counting limit; pins the antiderivative
        # convention.
        for r, t1, t2 in ((0.5, 16 / 15, 16 / 9), (1 / math.sqrt(2), 0.4, 0.6)):
            val, err = integrate.quad(
                lambda s: eigenvalue_density(r, s), t1,
                min(t2, (1 - r * r) ** -2 * (1 - 1e-14)), limit=300)
            want = count_prediction(r, t1, t2)
            assert val / math.sqrt(2.0) == pytest.approx(want, rel=1e-6)


class TestSchatten:
    def test_trace_norm_hand_value(self):
        want = (1.0 / math.sqrt(2.0)) * (2.0 * math.pi * 0.5 / 0.75) * (16.0 / 9.0)
        assert schatten_limit(R_HALF, 1.0) == pytest.approx(want, rel=1e-12)

    def test_p2_matches_quadratic_rhs(self):
        # the constant symbol's closed form, (C (1-r^2)^-4 / 2)^(1/2) with C the
        # circle length, and a Fourier symbol's mean of a^2
        want = math.sqrt((2.0 * math.pi * 0.5 / 0.75) * (16.0 / 9.0) ** 2 / 2.0)
        assert schatten_limit(R_HALF, 2.0) == pytest.approx(want, rel=1e-9)
        fourier = CircleSymbolModel(r=0.5, alpha=100.0, fourier=(1.0, 0.2 + 0.1j, 0.1))
        assert schatten_limit(fourier, 2.0) == pytest.approx(
            math.sqrt(power_integral(fourier, 2.0)), rel=1e-9)

    def test_float_range_is_a_domain_error(self):
        # (a (1-r^2)^-2)^1000 overflows: the transform's Gauss ladder stops
        # at its first order, with no numpy warning, rather than returning inf.
        model = CircleSymbolModel(r=0.5, alpha=100.0, fourier=(1.0, 0.2))
        with pytest.raises(DomainError, match=r"q_transform\(eps=0.5, t=2.48889, .*"
                                              r"at Gauss order 16 is past the float range"):
            schatten_limit(model, 1000.0)

    def test_finite_positive_across_p(self):
        for p in (0.5, 1.0, 2.0, 4.0):
            val = schatten_limit(R_HALF, p)
            assert math.isfinite(val) and val > 0

    def test_scaled_norms_converge(self):
        for p in (0.5, 1.0, 2.0):
            limit = schatten_limit(R_HALF, p)
            trace = explicit_trace(CircleSymbolModel(r=0.5, alpha=1e5), power_phi(p))
            scaled = (math.pi / 1e5) ** (1 / (2 * p)) * trace ** (1 / p)
            assert abs(scaled / limit - 1.0) < 0.01


class TestBoundednessScan:
    # sqrt(pi/alpha) sum lambda^p for small p: the lhs column of a power scan.
    @staticmethod
    def _scan(p, grid):
        return [row.lhs_scaled for row in convergence_scan(R_HALF, grid, phi=power_phi(p))]

    def test_small_power_bounded_and_settled(self):
        vals = self._scan(0.5, (1e2, 1e3, 1e4, 1e5))
        closed = (2.0 * math.pi * 0.5 / 0.75) * (16.0 / 9.0) ** 0.5 / math.sqrt(2 * 0.5)
        assert max(vals) <= 1.1 * vals[-1]
        assert abs(vals[-1] / closed - 1.0) < 0.02

    def test_p09_same_shape(self):
        vals = self._scan(0.9, (1e2, 1e3, 1e4))
        assert max(vals) <= 1.1 * vals[-1]


class TestConvergenceScan:
    def test_quadratic_phi_converges_within_one_percent(self):
        rows = convergence_scan(R_HALF, (1e3, 1e5), phi=power_phi(2.0))
        assert abs(rows[-1].lhs_scaled / rows[-1].rhs_limit - 1.0) < 0.01
        assert rows[0].rhs_limit == rows[1].rhs_limit  # computed once per scan

    def test_interval_rows_have_count_fields(self):
        rows = convergence_scan(R_HALF, (100.0, 500.0), interval=(16 / 15, 16 / 9))
        assert [r.count_n for r in rows] == [14, 30]
        assert rows[0].rhs_asymptotic_count == pytest.approx(13.4769, abs=1e-3)

    def test_count_convergence_trend(self):
        # |scaled - limit| trends down: the reference data show two
        # inversions on the r=1/2 grid and one on the r=1/sqrt(2) grid.
        cases = [
            (CircleSymbolModel(r=0.5, alpha=100.0), (16 / 15, 16 / 9), 2),
            (CircleSymbolModel(r=1 / math.sqrt(2), alpha=100.0), (0.4, 0.6), 1),
        ]
        grid = (100.0, 500.0, 1e3, 5e3, 1e4, 5e4, 1e5)
        for template, interval, allowed in cases:
            rows = convergence_scan(template, grid, interval=interval)
            diffs = [abs(r.lhs_scaled - r.rhs_limit) for r in rows]
            inversions = sum(1 for i in range(len(diffs) - 1)
                             if diffs[i + 1] > diffs[i] + 1e-12)
            assert inversions <= allowed
            assert diffs[-1] < diffs[0]

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_trace_row_refuses_non_positive_alpha(self, alpha):
        # The trace is taken before sqrt(pi/alpha): DomainError, not ZeroDivisionError.
        with pytest.raises(DomainError, match="alpha > 0"):
            convergence_scan(R_HALF, (100.0, alpha), phi=power_phi(1.0))

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            convergence_scan(R_HALF, (100.0,))
        with pytest.raises(DomainError):
            convergence_scan(R_HALF, (100.0,), phi=power_phi(1.0),
                             interval=(0.1, 0.2))


class TestNormAsymptote:
    # The largest eigenvalue's limit is the norm bound 1/(1-r^2)^2, and
    # largest_eigenvalue_index gives the index where it occurs.
    def test_sqrt_half_radius(self):
        model = CircleSymbolModel(r=1 / math.sqrt(2), alpha=100.0)
        assert model.norm_bound == pytest.approx(4.0, rel=1e-12)
        assert largest_eigenvalue_index(model.r, 1e5) == 100001
        assert largest_eigenvalue_index(model.r, 100.0) == 101

    def test_half_radius(self):
        assert R_HALF.norm_bound == pytest.approx(16.0 / 9.0, rel=1e-14)
        assert largest_eigenvalue_index(0.5, 100.0) == 33  # floor(101/3)

    def test_peak_value_converges(self):
        peak = math.exp(gammaln_spectrum.log_spectrum(1 / math.sqrt(2), 1e5).max())
        assert abs(peak / 4.0 - 1.0) < 0.01
