import math

import numpy as np
import pytest

from szegolab import (
    WeightedModel,
    classify,
    make_chart,
    pullback_forms,
    skew_half_spectrum,
)
from szegolab.geometry import ChartedSubmanifold, _ambient_batch
from szegolab.errors import ContractViolation, DomainError, RankError

DISC = WeightedModel(n=1, alpha=0.0)
BALL2 = WeightedModel(n=2, alpha=0.0)


def closed_form_metric(p):
    """I/s + conj(p) p^T / s^2 with s = 1 - |p|^2, written out apart from the library."""
    p = np.asarray(p, dtype=complex)
    s = 1.0 - float(np.sum(np.abs(p) ** 2))
    return np.eye(p.size) / s + np.outer(p.conj(), p) / s ** 2


def fd_complex_hessian(n, p, h=1e-4):
    """Central-difference mixed Hessian of -log(1 - |z|^2) in Wirtinger form.

    d^2/(dz_j dzbar_k) = ((dx_j dx_k + dy_j dy_k) + i (dx_j dy_k - dy_j dx_k)) / 4
    for a real-valued function.
    """
    p = np.asarray(p, dtype=complex)

    def f(q):
        return -math.log(1.0 - float(np.sum(np.abs(q) ** 2)))

    def second(j_dir, k_dir):
        # j_dir, k_dir: (index, 1) for x-direction or (index, 1j) for y
        jq, ju = j_dir
        kq, ku = k_dir
        vals = 0.0
        for sj in (+1, -1):
            for sk in (+1, -1):
                q = p.copy()
                q[jq] += sj * h * ju
                q[kq] += sk * h * ku
                vals += sj * sk * f(q)
        return vals / (4.0 * h * h)

    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            real = second((j, 1), (k, 1)) + second((j, 1j), (k, 1j))
            imag = second((j, 1), (k, 1j)) - second((j, 1j), (k, 1))
            out[j, k] = 0.25 * (real + 1j * imag)
    return out


class TestAmbientMetric:
    # _ambient_batch takes points (n, N) and returns gaps (N,) and metrics (N, n, n).
    def test_identity_at_origin(self):
        got = _ambient_batch(BALL2, np.zeros((2, 1), dtype=complex))[1][0]
        assert np.allclose(got, np.eye(2), atol=1e-15)

    def test_disc_closed_form(self):
        s, got = _ambient_batch(DISC, np.array([[0.5 + 0j]]))
        want = 1.0 / 0.75 + 0.25 / 0.75 ** 2
        assert s[0] == 0.75
        assert got[0, 0, 0] == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(16.0 / 9.0)

    def test_matches_finite_difference_hessian(self):
        rng = np.random.default_rng(21)
        for n, model in ((1, DISC), (2, BALL2)):
            p = rng.uniform(-0.4, 0.4, size=(n, 4)) + 1j * rng.uniform(-0.4, 0.4, size=(n, 4))
            got = _ambient_batch(model, p)[1]
            for i in range(4):
                want = fd_complex_hessian(n, p[:, i])
                assert float(np.max(np.abs(got[i] - want))) < 1e-6

    def test_positive_definite(self):
        rng = np.random.default_rng(22)
        p = rng.uniform(-0.5, 0.5, size=(2, 10)) + 1j * rng.uniform(-0.5, 0.5, size=(2, 10))
        assert np.all(np.linalg.eigvalsh(_ambient_batch(BALL2, p)[1]) > 0)

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            _ambient_batch(DISC, np.array([[0.3 + 0j, 1.2 + 0j]]))


class TestPullbackForms:
    def test_circle_closed_form(self):
        r = 0.5
        chart = make_chart("circle", r)
        pair = pullback_forms(DISC, chart, [0.3])
        want = (2.0 * math.pi * r) ** 2 / (1.0 - r * r) ** 2
        assert pair.G[0, 0] == pytest.approx(want, rel=1e-12)
        assert pair.H[0, 0] == 0.0
        assert pair.density == pytest.approx(2.0 * math.pi * r / (1.0 - r * r), rel=1e-12)

    def test_circle_finite_difference_agrees_with_analytic(self):
        chart = make_chart("circle", 0.5)
        fd_chart = ChartedSubmanifold("circle-fd", n=1, d=1, chart=chart.chart)
        got = pullback_forms(DISC, fd_chart, [0.27])
        want = pullback_forms(DISC, chart, [0.27])
        assert got.G[0, 0] == pytest.approx(want.G[0, 0], rel=1e-7)

    def test_skew_adjointness_all_charts(self):
        # G W + W^T G = 0 follows from H being skew.
        cases = [("circle", DISC, 1), ("open-ball", DISC, 2),
                 ("sphere3", BALL2, 3), ("generic2d", BALL2, 2)]
        for name, model, d in cases:
            chart = make_chart(name, 0.5)
            t = np.linspace(0.3, 0.7, d)
            pair = pullback_forms(model, chart, t)
            w = np.linalg.solve(pair.G, pair.H)
            resid = pair.G @ w + w.T @ pair.G
            assert float(np.max(np.abs(resid))) < 1e-9

    def test_full_dimensional_chart_unit_spectrum(self):
        # d = 2n charts: the rotation spectrum is 1 with multiplicity n.
        pair = pullback_forms(DISC, make_chart("open-ball"), [0.3, 0.6])
        lams = skew_half_spectrum(pair.G, pair.H)
        assert np.allclose(lams, [1.0], atol=1e-9)

        def chart4(t):
            return np.array([
                0.5 * (t[0] - 0.5) + 0.5j * (t[1] - 0.5),
                0.5 * (t[2] - 0.5) + 0.5j * (t[3] - 0.5),
            ])

        flat4 = ChartedSubmanifold("flat4", n=2, d=4, chart=chart4)
        pair4 = pullback_forms(BALL2, flat4, [0.3, 0.6, 0.45, 0.7])
        lams4 = skew_half_spectrum(pair4.G, pair4.H)
        assert np.allclose(lams4, [1.0, 1.0], atol=1e-8)

    @pytest.mark.parametrize("small", [1e-9, 1e-12])
    def test_small_lambda_keeps_its_digits(self, small):
        # H = Q diag(J, small J) Q^T with G = I and Q a random rotation: the
        # values are 1 and small, each within about 1e-16 absolute.  K^2
        # holds small^2 below the rounding of 1, so a square root of its
        # eigenvalue would keep at most half the digits of small.
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = np.zeros((4, 4))
        h[:2, :2], h[2:, 2:] = j, small * j
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        lams = skew_half_spectrum(np.eye(4), q @ h @ q.T)
        assert lams.shape == (2,)
        assert abs(lams[0] - 1.0) < 1e-15 and abs(lams[1] - small) < 1e-15

    def test_degenerate_chart_raises(self):
        def collapsed(t):
            return np.array([0.25 * (t[0] + t[1]) + 0j])

        bad = ChartedSubmanifold("collapsed", n=1, d=2, chart=collapsed)
        with pytest.raises(RankError):
            pullback_forms(DISC, bad, [0.4, 0.5])

    def test_real_coordinate_route_oracle(self):
        # Independent derivation of (G, H): assemble the real 2n x 2n
        # metric [[Re b, Im b], [-Im b, Re b]], push chart vectors through
        # the real Jacobian, and pair them directly (with the complex
        # structure (vx, vy) -> (-vy, vx) for the skew form).  Must agree
        # with the complex-shortcut pullback.
        cases = [("sphere3", BALL2, 3), ("generic2d", BALL2, 2),
                 ("open-ball", DISC, 2)]
        for name, model, d in cases:
            chart = make_chart(name, 0.5)
            t = np.linspace(0.35, 0.65, d)
            n = model.n
            jac_c = chart.jacobian_at(t)
            b = closed_form_metric(chart.point(t))
            b_real = np.block([[b.real, b.imag], [-b.imag, b.real]])
            jac_real = np.vstack([jac_c.real, jac_c.imag])
            g_want = jac_real.T @ b_real @ jac_real
            j_rot = np.block([
                [np.zeros((n, n)), -np.eye(n)],
                [np.eye(n), np.zeros((n, n))],
            ])
            h_want = jac_real.T @ b_real @ (j_rot @ jac_real)
            pair = pullback_forms(model, chart, t)
            assert np.max(np.abs(pair.G - g_want)) < 1e-9 * np.max(np.abs(g_want))
            assert np.max(np.abs(pair.H - h_want)) < 1e-9 * max(np.max(np.abs(h_want)), 1e-6)

    def test_reparametrization_invariance(self):
        # W transforms by similarity under chart changes, so the rotation
        # spectrum is chart-independent.
        base = make_chart("generic2d")
        amat = np.array([[1.3, 0.4], [-0.2, 0.9]])
        shift = np.array([0.05, -0.1])

        def rechart(t):
            return base.chart(amat @ np.asarray(t) + shift)

        reparam = ChartedSubmanifold("generic2d-re", n=2, d=2, chart=rechart)
        t0 = np.array([0.3, 0.4])
        s0 = np.linalg.solve(amat, t0 - shift)
        lam_a = skew_half_spectrum(*_gh(pullback_forms(BALL2, base, t0)))
        lam_b = skew_half_spectrum(*_gh(pullback_forms(BALL2, reparam, s0)))
        assert np.allclose(lam_a, lam_b, atol=1e-8)


def _gh(pair):
    return pair.G, pair.H


class TestClassify:
    def probe_points(self, d):
        return [np.full(d, 0.37), np.full(d, 0.61), np.linspace(0.25, 0.75, d)]

    def test_circle_is_lagrangian(self):
        chart = make_chart("circle", 0.5)
        for t in self.probe_points(1):
            cls = classify(pullback_forms(DISC, chart, t), 1, 1)
            assert cls.tag == "lagrangian"
            assert cls.lambda_spectrum == ()
            assert cls.half_rank == 0
            assert "isotropic (lagrangian)" in cls.describe()

    def test_sphere_is_coisotropic(self):
        chart = make_chart("sphere3", 0.5)
        for t in self.probe_points(3):
            cls = classify(pullback_forms(BALL2, chart, t), 2, 3)
            assert cls.tag == "co-isotropic"
            assert len(cls.lambda_spectrum) == 1
            assert abs(cls.lambda_spectrum[0] - 1.0) < 1e-4
            assert cls.half_rank == 1 == chart.d - chart.n
            assert cls.zero_multiplicity == 2 * chart.n - chart.d == 1

    def test_generic_chart_is_neither(self):
        chart = make_chart("generic2d")
        for t in self.probe_points(2):
            for tol in (1e-6, 1e-4):
                cls = classify(pullback_forms(BALL2, chart, t), 2, 2, tol=tol)
                assert cls.tag == "neither"

    def test_open_ball_is_coisotropic(self):
        cls = classify(pullback_forms(DISC, make_chart("open-ball"), [0.4, 0.3]), 1, 2)
        assert cls.tag == "co-isotropic"
        assert cls.zero_multiplicity == 0

    def test_result_is_slotted(self):
        cls = classify(pullback_forms(DISC, make_chart("circle", 0.5), [0.37]), 1, 1)
        assert not hasattr(cls, "__dict__")
        assert type(cls).__slots__ == ("tag", "lambda_spectrum", "half_rank", "d")

    def test_dimension_check(self):
        pair = pullback_forms(DISC, make_chart("open-ball"), [0.4, 0.3])
        with pytest.raises(DomainError):
            classify(pair, n=0.5, d=2)  # d > 2n

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-4])
    def test_tolerance_checked(self, tol):
        pair = pullback_forms(DISC, make_chart("circle", 0.5), [0.37])
        with pytest.raises(DomainError, match="tolerance"):
            classify(pair, 1, 1, tol=tol)

    def test_unknown_chart_name(self):
        with pytest.raises(DomainError):
            make_chart("helix")

    def test_positive_definite_metric_on_registry(self):
        cases = [("circle", DISC), ("open-ball", DISC),
                 ("sphere3", BALL2), ("generic2d", BALL2)]
        rng = np.random.default_rng(33)
        for name, model in cases:
            chart = make_chart(name, 0.5)
            for _ in range(5):
                t = rng.uniform(0.15, 0.85, size=chart.d)
                pair = pullback_forms(model, chart, t)
                assert np.all(np.linalg.eigvalsh(pair.G) > 1e-10)


def _radial(theta0=0.7, r0=0.1, r1=0.8):
    # Written like the benchmark's curves: coordinate-first node arrays.
    e = complex(np.exp(1j * theta0))
    return ChartedSubmanifold(
        "radial", n=1, d=1, chart=lambda t: np.array([e * (r0 + (r1 - r0) * t[0])]),
        jacobian=lambda t: np.array([[e * (r1 - r0)]]))


def _arc(rho=0.6, th0=1.1, dth=4.0):
    return ChartedSubmanifold(
        "arc", n=1, d=1, chart=lambda t: np.array([rho * np.exp(1j * (th0 + dth * t[0]))]),
        jacobian=lambda t: np.array([[1j * dth * rho * np.exp(1j * (th0 + dth * t[0]))]]))


BATCH_CASES = [(make_chart("circle", 0.5), DISC), (make_chart("open-ball"), DISC),
               (make_chart("sphere3", 0.4), BALL2), (make_chart("generic2d"), BALL2),
               (_radial(), DISC), (_arc(), DISC)]


class TestBatchPullback:
    @pytest.mark.parametrize("chart, model", BATCH_CASES, ids=lambda c: getattr(c, "name", ""))
    def test_batch_equals_one_point(self, chart, model):
        # pullback_forms on (d, N) against pullback_forms at every node.
        ts = np.random.default_rng(41).uniform(0.05, 0.95, size=(chart.d, 40))
        batch = pullback_forms(model, chart, ts)
        for i in range(ts.shape[1]):
            pair = pullback_forms(model, chart, ts[:, i])
            assert isinstance(pair.s, float) and isinstance(pair.density, float)
            scale = np.max(np.abs(pair.G))
            assert np.max(np.abs(batch.G[i] - pair.G)) <= 1e-14 * scale
            assert np.max(np.abs(batch.H[i] - pair.H)) <= 1e-14 * scale
            assert batch.density[i] == pytest.approx(pair.density, rel=1e-14, abs=0.0)
            assert batch.s[i] == pytest.approx(pair.s, rel=1e-14, abs=0.0)
            assert pair.s == pytest.approx(
                1.0 - np.sum(np.abs(chart.point(ts[:, i])) ** 2), rel=1e-14, abs=0.0)

    def test_density_is_sqrt_det(self):
        ts = np.random.default_rng(42).uniform(0.1, 0.9, size=(3, 12))
        chart = make_chart("sphere3", 0.6)
        batch = pullback_forms(BALL2, chart, ts)
        assert np.allclose(batch.density, np.sqrt(np.linalg.det(batch.G)), rtol=1e-13, atol=0.0)
        assert np.all(batch.density > 0.0)

    def test_outside_ball_names_t(self):
        # 0.5 + 0.7 t leaves the disc at t = 5/7.
        chart = _radial(theta0=0.0, r0=0.5, r1=1.2)
        ts = np.linspace(0.1, 0.9, 9)[None, :]
        with pytest.raises(DomainError, match=r"t=\[0\.8\]"):
            pullback_forms(DISC, chart, ts)

    def test_singular_node_names_t(self):
        # gamma'(t) = 0 at t = 0.5 only.
        chart = ChartedSubmanifold("cusp", n=1, d=1, chart=lambda t: 0.4 * (t[0] - 0.5) ** 2 + 0j,
                                   jacobian=lambda t: np.array([[0.8 * (t[0] - 0.5) + 0j]]))
        ts = np.array([[0.2, 0.5, 0.7]])
        with pytest.raises(RankError, match=r"t=\[0\.5\]"):
            pullback_forms(DISC, chart, ts)

    def test_unbroadcastable_output_names_callable(self):
        def three_values(t):
            return np.zeros(3, dtype=complex)

        chart = ChartedSubmanifold("bad", n=1, d=1, chart=three_values)
        with pytest.raises(ContractViolation, match="three_values"):
            chart.point(np.full((1, 5), 0.5))

    def test_one_point_output_read_in_order(self):
        # A curve in the 2-ball whose one-point Jacobian is a flat (n,) vector.
        def chart(t):
            return np.array([0.3 * t[0], 0.2j * t[0]])

        def flat(t):
            return np.array([0.3, 0.2j])

        got = pullback_forms(BALL2, ChartedSubmanifold("flat", n=2, d=1, chart=chart, jacobian=flat), [0.5])
        want = pullback_forms(BALL2, ChartedSubmanifold("fd", n=2, d=1, chart=chart), [0.5])
        assert got.G[0, 0] == pytest.approx(want.G[0, 0], rel=1e-9)

    def test_parameter_shape_checked(self):
        # (d, N) gives N entries; a wrong d or a 3-D t is refused.
        chart = make_chart("generic2d")
        batch = pullback_forms(BALL2, chart, np.full((2, 4), 0.5))
        assert batch.s.shape == batch.density.shape == (4,)
        assert batch.G.shape == batch.H.shape == (4, 2, 2)
        for bad in (np.full((3, 4), 0.5), np.full(3, 0.5), np.full((2, 4, 1), 0.5)):
            with pytest.raises(DomainError):
                chart.point(bad)
            with pytest.raises(DomainError):
                pullback_forms(BALL2, chart, bad)


ANALYTIC = [("sphere3", BALL2), ("open-ball", DISC), ("generic2d", BALL2)]


class TestAnalyticJacobians:
    @pytest.mark.parametrize("name, model", ANALYTIC)
    def test_matches_finite_differences(self, name, model):
        chart = make_chart(name, 0.45)
        assert chart.jacobian is not None
        fd = ChartedSubmanifold(name + "-fd", n=chart.n, d=chart.d, chart=chart.chart)
        ts = np.random.default_rng(43).uniform(0.05, 0.95, size=(chart.d, 30))
        got, want = chart.jacobian_at(ts), fd.jacobian_at(ts)
        assert got.shape == (chart.n, chart.d, 30)
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))
        for i in range(ts.shape[1]):
            assert np.max(np.abs(chart.jacobian_at(ts[:, i]) - got[..., i])) \
                <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, model", ANALYTIC)
    def test_matches_real_coordinate_route(self, name, model):
        # The construction of test_real_coordinate_route_oracle, now at 1e-12.
        chart = make_chart(name, 0.5)
        n = model.n
        for t in np.random.default_rng(44).uniform(0.1, 0.9, size=(4, chart.d)):
            jac_c = chart.jacobian_at(t)
            b = closed_form_metric(chart.point(t))
            b_real = np.block([[b.real, b.imag], [-b.imag, b.real]])
            jac_real = np.vstack([jac_c.real, jac_c.imag])
            j_rot = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
            g_want = jac_real.T @ b_real @ jac_real
            h_want = jac_real.T @ b_real @ (j_rot @ jac_real)
            pair = pullback_forms(model, chart, t)
            scale = np.max(np.abs(g_want))
            assert np.max(np.abs(pair.G - g_want)) < 1e-12 * scale
            assert np.max(np.abs(pair.H - h_want)) < 1e-12 * scale
