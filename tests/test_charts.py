import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from spectral_embed import charts
from spectral_embed.charts import (
    ChartSpec, bump_chart, closeness_report, constant_chart,
    convergence_study, ellipticity_sweep, euclidean_kernel,
    euclidean_kernel_gradient, evaluate_on_grid, frozen_kernel,
    frozen_kernel_hessian, holder_seminorm, identity_chart, mollifier,
    parametrix_kernel, solve_fd_kernel)


class TestEuclideanKernel:
    def test_at_source(self):
        for n, t in ((1, 0.3), (2, 0.07)):
            x = np.zeros((1, n))
            val = euclidean_kernel(x, t, np.zeros(n))
            assert val[0] == pytest.approx((4 * np.pi * t) ** (-n / 2))

    def test_reference_value(self):
        # (4 pi)^(-1/2) e^(-1), evaluated independently
        val = euclidean_kernel(np.array([[2.0]]), 1.0, [0.0])
        assert val[0] == pytest.approx(
            np.exp(-1.0) / np.sqrt(4 * np.pi), rel=1e-14)

    def test_unit_mass_by_quadrature(self):
        total, _ = scipy.integrate.quad(
            lambda x: euclidean_kernel(np.array([[x]]), 0.37, [0.2])[0],
            -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_gradient_formula(self):
        x = np.array([[0.7, -0.3]])
        y = np.array([0.1, 0.2])
        g = euclidean_kernel_gradient(x, 0.25, y)
        k = euclidean_kernel(x, 0.25, y)
        assert np.allclose(g, -(x - y) / 0.5 * k[:, None])


class TestFrozenKernel:
    def test_identity_coefficients_reduce_to_euclidean(self):
        spec = identity_chart(1)
        x = np.linspace(-3, 3, 101)[:, None]
        z = frozen_kernel(x, 0.2, [0.0], spec)
        assert np.allclose(z, euclidean_kernel(x, 0.2, [0.0]), atol=1e-15)

    def test_scalar_coefficient_rescales_time(self):
        c = 2.7
        spec = constant_chart([[c]])
        x = np.linspace(-4, 4, 101)[:, None]
        t = 0.3
        z = frozen_kernel(x, t, [0.0], spec)
        ref = c ** -0.5 * (4 * np.pi * t) ** -0.5 \
            * np.exp(-x[:, 0] ** 2 / (4 * c * t))
        assert np.allclose(z, ref, rtol=1e-13)

    def test_unit_mass(self):
        spec = constant_chart([[1.2, 0.3], [0.3, 0.8]])
        total, _ = scipy.integrate.dblquad(
            lambda y, x: frozen_kernel(np.array([[x, y]]), 0.15,
                                       [0.0, 0.0], spec)[0],
            -6, 6, -6, 6)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_hessian_matches_finite_differences(self):
        spec = constant_chart([[1.3, 0.2], [0.2, 0.9]])
        y = np.array([0.1, -0.2])
        x0 = np.array([0.6, 0.4])
        t, h = 0.2, 1e-5
        hess = frozen_kernel_hessian(x0[None, :], t, y, spec)[0]

        def f(p):
            return frozen_kernel(p[None, :], t, y, spec)[0]

        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i], np.eye(2)[j]
                fd = (f(x0 + h * ei + h * ej) - f(x0 + h * ei - h * ej)
                      - f(x0 - h * ei + h * ej)
                      + f(x0 - h * ei - h * ej)) / (4 * h * h)
                assert hess[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_singular_coefficients_rejected(self):
        def coeff(x):
            x = np.atleast_2d(x)
            return np.zeros((len(x), 1, 1))
        spec = ChartSpec(1, coeff, 2.0, 0.5, 0.0)
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            frozen_kernel(np.array([[1.0]]), 0.1, [0.0], spec)


class TestChartSpec:
    def test_bump_respects_ellipticity_and_seminorm(self):
        for q in (1.02, 1.08):
            spec = bump_chart(1, q, width=2.0)
            pts = np.linspace(-6, 6, 801)[:, None]
            lo, hi = spec.validate_on(pts)
            assert lo >= 1.0 / q - 1e-12
            assert hi <= q + 1e-12
            vals = spec.coeff(pts)[:, 0, 0]
            measured = holder_seminorm(vals, pts, 0.5)
            assert measured <= (q - 1.0) + 1e-8

    def test_non_elliptic_rejected(self):
        def coeff(x):
            x = np.atleast_2d(x)
            return np.full((len(x), 1, 1), -1.0)
        spec = ChartSpec(1, coeff, 1.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="ellipticity"):
            spec.validate_on(np.zeros((1, 1)))

    def test_mollifier_support(self):
        assert mollifier(np.array([0.0]))[0] == pytest.approx(1.0)
        assert mollifier(np.array([1.0]))[0] == 0.0
        assert mollifier(np.array([2.0]))[0] == 0.0


def dense_holder_seminorm(values, points, alpha):
    """The all-pairs reference: full (n, n) difference and distance matrices."""
    values = np.asarray(values, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] != len(values):
        points = points.T
    diff = np.abs(values[:, None] - values[None, :])
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    mask = dist > 0
    return float((diff[mask] / dist[mask] ** alpha).max())


class TestHolderSeminorm:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, charts.HOLDER_BLOCK + 1])
    def test_blocks_equal_dense_pairs(self, dim, extra):
        n = charts.HOLDER_BLOCK + extra
        rng = np.random.default_rng(100 * dim + extra)
        pts = rng.normal(size=(n, dim))
        # repeated points: pairs at distance 0 are masked out
        pts[n // 2] = pts[0]
        pts[-1] = pts[1]
        vals = rng.normal(size=n)
        for alpha in (0.3, 0.5, 1.0):
            got = holder_seminorm(vals, pts, alpha)
            assert got == dense_holder_seminorm(vals, pts, alpha)
            assert got == holder_seminorm(vals[::-1], pts[::-1], alpha)

    def test_transposed_points(self):
        xs = np.linspace(-1.0, 1.0, charts.HOLDER_BLOCK + 7)
        vals = np.sin(3.0 * xs)
        assert holder_seminorm(vals, xs, 0.5) == \
            dense_holder_seminorm(vals, xs[:, None], 0.5)

    def test_no_pair_at_positive_distance_raises(self):
        with pytest.raises(ValueError):
            holder_seminorm([1.0, 2.0, 3.0], np.zeros((3, 2)), 0.5)

    def test_bump_profile_memory(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        ref = mollifier(xs / 2.0)
        tracemalloc.start()
        try:
            value = holder_seminorm(ref, xs[:, None], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == dense_holder_seminorm(ref, xs[:, None], 0.5)
        assert peak <= 16 * 2 ** 20

    def test_sweep_scans_pairs_at_most_twice(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return holder_seminorm(*args)

        monkeypatch.setattr(charts, "holder_seminorm", counted)
        charts._bump_profile.cache_clear()
        try:
            ellipticity_sweep([0.02, 0.04, 0.08], nodes=81, steps=32)
        finally:
            charts._bump_profile.cache_clear()
        assert 1 <= len(calls) <= 2
        assert calls[0] == 2001

    # [a]_alpha of bump_chart(1, q) as computed with dense pair matrices
    @pytest.mark.parametrize("q, seminorm", [
        (1.02, "0x1.0b600d134a090p-6"),
        (1.04, "0x1.0b600d134a090p-5"),
        (1.08, "0x1.0b600d134a090p-4"),
    ])
    def test_bump_seminorm_unchanged(self, q, seminorm):
        charts._bump_profile.cache_clear()
        assert bump_chart(1, q).seminorm == float.fromhex(seminorm)


@pytest.fixture(scope="module")
def const_kernel():
    return solve_fd_kernel(identity_chart(1), 6.0, 81, 0.0, 0.25,
                           steps=1024, store_every=64)


class TestFiniteDifferenceKernel:
    def test_second_order_convergence(self):
        errors, ratios = convergence_study([41, 81, 161])
        for r in ratios:
            assert 3.0 <= r <= 5.0

    def test_scalar_coefficient_matches_closed_form(self):
        c = 1.5
        spec = constant_chart([[c]])
        gk = solve_fd_kernel(spec, 6.0, 161, 0.0, 0.25, steps=1024,
                             store_every=1024)
        ti = len(gk.times) - 1
        pts = gk.points()
        ref = frozen_kernel(pts, gk.times[ti], gk.source, spec)
        mask = np.abs(pts[:, 0]) <= 4.0
        err_var = np.abs(gk.field(ti)[mask] - ref[mask]).max()
        # same accuracy class as the identity-coefficient solve
        gk_i = solve_fd_kernel(identity_chart(1), 6.0, 161, 0.0, 0.25,
                               steps=1024, store_every=1024)
        ref_i = euclidean_kernel(pts, gk.times[ti], gk_i.source)
        err_id = np.abs(gk_i.field(ti)[mask] - ref_i[mask]).max()
        assert err_var <= 3.0 * err_id + 1e-12

    def test_mass_conserved_before_boundary_contact(self, const_kernel):
        for ti in range(1, len(const_kernel.times)):
            if const_kernel.boundary_contact(ti) > 1e-8:
                break
            assert const_kernel.mass(ti) == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self, const_kernel):
        assert const_kernel.values.min() >= -1e-8

    def test_2d_constant_anisotropic_matches_frozen(self):
        spec = constant_chart([[1.2, 0.15], [0.15, 0.9]])
        gk = solve_fd_kernel(spec, 4.0, 81, (0.0, 0.0), 0.25, steps=256,
                             store_every=256)
        ti = len(gk.times) - 1
        ref = frozen_kernel(gk.points(), gk.times[ti], gk.source, spec)
        err = np.abs(gk.field(ti) - ref).max()
        assert err < 0.01 * ref.max()
        assert gk.mass(ti) == pytest.approx(1.0, abs=1e-6)

    def test_2d_stencil_exact_on_quadratics(self):
        # centered differences with the 9-point cross term reproduce
        # a^{ij} d_i d_j exactly for quadratic polynomials
        from spectral_embed.charts import _laplacian_operator
        a = np.array([[1.3, 0.4], [0.4, 0.8]])
        spec = constant_chart(a)
        axes = (np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
        h = axes[0][1] - axes[0][0]
        A = _laplacian_operator(spec, axes, h)
        xs, ys = axes[0][1:-1], axes[1][1:-1]
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        u = 2 * gx ** 2 + 3 * gx * gy - gy ** 2
        lap_true = -(a[0, 0] * 4 + 2 * a[0, 1] * 3 + a[1, 1] * (-2.0))
        applied = (A @ u.ravel()).reshape(u.shape)
        inner = applied[1:-1, 1:-1]
        assert np.allclose(inner, lap_true, atol=1e-9)


class TestParametrix:
    def test_depth_zero_is_frozen_kernel(self):
        spec = bump_chart(1, 1.05)
        pts, vals = parametrix_kernel(spec, 0.0, 0.25, depth=0, nodes=101)
        assert np.array_equal(vals, frozen_kernel(pts, 0.25, [0.0], spec))

    def test_identity_coefficients_give_euclidean_at_any_depth(self):
        spec = identity_chart(1)
        for depth in (0, 1, 2):
            pts, vals = parametrix_kernel(spec, 0.0, 0.2, depth=depth,
                                          nodes=81, time_nodes=8)
            assert np.allclose(vals, euclidean_kernel(pts, 0.2, [0.0]),
                               atol=1e-14)

    def test_first_correction_improves_on_frozen(self):
        spec = bump_chart(1, 1.05, width=2.0)
        t = 0.25
        gk = solve_fd_kernel(spec, 6.0, 241, 0.0, t, steps=1024,
                             store_every=1024)
        pts, gamma1 = parametrix_kernel(spec, 0.0, t, depth=1, nodes=241,
                                        time_nodes=64)
        z = frozen_kernel(pts, t, gk.source, spec)
        fd = gk.field(len(gk.times) - 1)
        mask = np.abs(pts[:, 0]) <= 4.0
        err_z = np.abs(z[mask] - fd[mask]).max()
        err_1 = np.abs(gamma1[mask] - fd[mask]).max()
        assert err_1 < err_z

    def test_budget_guard(self):
        spec = bump_chart(1, 1.05)
        from spectral_embed.charts import QuadratureBudgetError
        with pytest.raises(QuadratureBudgetError):
            parametrix_kernel(spec, 0.0, 0.2, depth=1, nodes=401,
                              time_nodes=64, budget=1000)


class TestCloseness:
    def test_identical_kernels(self, const_kernel):
        rep = closeness_report(const_kernel.points(), const_kernel.times,
                               const_kernel.values, const_kernel.values,
                               const_kernel.source, t_window=(0.05, 0.25),
                               spacing=const_kernel.spacing)
        assert rep.sup_value == 0.0
        assert rep.sup_gradient == 0.0

    def test_euclidean_vs_identity_frozen(self):
        spec = identity_chart(1)
        pts = np.linspace(-4, 4, 81)[:, None]
        times = np.array([0.1, 0.2])
        a = np.stack([euclidean_kernel(pts, t, [0.0]) for t in times])
        b = np.stack([frozen_kernel(pts, t, [0.0], spec) for t in times])
        rep = closeness_report(pts, times, a, b, [0.0], t_window=(0.0, 1.0))
        assert rep.sup_value <= 1e-15  # same Gaussian, two float paths

    def test_ellipticity_linear_scaling(self):
        sups, grads, slope = ellipticity_sweep([0.02, 0.04, 0.08],
                                               nodes=401, steps=512)
        assert 0.7 <= slope <= 1.3
        for s0, s1 in zip(sups, sups[1:]):
            assert 1.5 <= s1 / s0 <= 2.5

    def test_exponential_decay_in_space(self, const_kernel):
        # values beyond |x-y|^2 > 16 t log(1/tol) stay below tol t^(-n/2) C_d
        tol = 1e-6
        pts = const_kernel.points()
        measured_cd = 0.0
        for ti, t in enumerate(const_kernel.times):
            if t <= 0:
                continue
            cutoff = np.sqrt(16 * t * np.log(1 / tol))
            far = np.abs(pts[:, 0] - const_kernel.source[0]) > cutoff
            if far.any():
                measured_cd = max(measured_cd,
                                  const_kernel.field(ti)[far].max()
                                  * np.sqrt(t) / tol)
        assert measured_cd <= 1.0

    def test_excluding_parabolic_neighborhood_matters(self):
        # near the source at small times the gradient difference blows up
        # as t^(-(n+1)/2); the excluded-region sup stays bounded
        spec = bump_chart(1, 1.08, width=2.0)
        gk = solve_fd_kernel(spec, 6.0, 401, 0.0, 0.2, steps=512,
                             store_every=8)
        exact = evaluate_on_grid(
            lambda p, t: euclidean_kernel(p, t, gk.source), gk)
        window = (0.004, 0.05)
        incl = closeness_report(gk.points(), gk.times, gk.values, exact,
                                gk.source, t_window=window, x_max=4.0,
                                exclude_radius=0.0, spacing=gk.spacing)
        excl = closeness_report(gk.points(), gk.times, gk.values, exact,
                                gk.source, t_window=window, x_max=4.0,
                                spacing=gk.spacing)
        assert incl.sup_gradient > 5.0 * excl.sup_gradient


def test_grid_dimension_guard():
    with pytest.raises(ValueError, match="two dimensions"):
        solve_fd_kernel(identity_chart(3), 2.0, 11, (0, 0, 0), 0.1, steps=4)


def test_2d_variable_bump_close_to_euclidean():
    # end-to-end 2D run: the kernel of a gently varying operator stays
    # within the ellipticity-proportional distance of the Gaussian
    spec = bump_chart(2, 1.06, width=1.5)
    gk = solve_fd_kernel(spec, 4.0, 81, (0.0, 0.0), 0.4, steps=256,
                         store_every=32)
    exact = evaluate_on_grid(
        lambda p, t: euclidean_kernel(p, t, gk.source), gk)
    rep = closeness_report(gk.points(), gk.times, gk.values, exact,
                           gk.source, t_window=(0.1, 0.4), x_max=2.5,
                           spacing=gk.spacing)
    peak = euclidean_kernel(gk.source[None, :], 0.1, gk.source)[0]
    assert rep.sup_value < 0.06 * peak  # order (Q-1), far below the peak
    assert rep.sup_value > 0            # the coefficients do perturb it
