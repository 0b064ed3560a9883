import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sparse

from spectral_embed import charts
from spectral_embed.charts import (
    ChartSpec, bump_chart, closeness_report, convergence_study,
    ellipticity_sweep, euclidean_kernel, evaluate_on_grid, holder_seminorm,
    identity_chart, mollifier, solve_fd_kernel)


def constant_chart(matrix, alpha=0.5):
    """Constant coefficients a^{ij} = matrix, with Q its ellipticity."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[0]
    eigs = np.linalg.eigvalsh(matrix)
    q = max(eigs.max(), 1.0 / eigs.min())

    def coeff(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(matrix, (len(x), n, n)).copy()
    return ChartSpec(n, coeff, float(q), alpha, 0.0)


def frozen_kernel(x, t, y, spec):
    """Gaussian of the operator with coefficients frozen at the source y:
    the exact fundamental solution when the coefficients are constant.

    Uses the matrix inverse of a^{ij}(y) in the quadratic form, the index
    placement required for the kernel to solve the frozen equation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    a_up = spec.coeff(y[None, :])[0]
    a_low = np.linalg.inv(a_up)
    det = np.linalg.det(a_low)
    if not np.isfinite(det) or det <= 0:
        raise ValueError("coefficient matrix at the source is singular")
    d = x - y
    quad = np.einsum("mi,ij,mj->m", d, a_low, d)
    n = spec.dim
    return math.sqrt(det) / ((2 * math.sqrt(math.pi)) ** n * t ** (n / 2.0)) \
        * np.exp(-quad / (4.0 * t))


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


def dense_holder_seminorm(values, points, alpha, wrap=None):
    """The all-pairs reference: full (n, n) difference and distance matrices."""
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    diff = np.abs(values[:, None] - values[None, :])
    disp = points[:, None, :] - points[None, :, :]
    if wrap is not None:
        disp = wrap(disp)
    dist = np.linalg.norm(disp, axis=-1)
    mask = dist > 0
    return float((diff[mask] / dist[mask] ** alpha).max())


def minimal_image(period):
    """The displacement to the nearest periodic copy, as TriMesh.wrap takes
    it on a grid torus of this period along every axis."""
    return lambda disp: disp - period * np.round(disp / period)


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
        # periodic: the points in one cell [0, 1) of a unit period, with the
        # steepest pair on either side of the seam, close in the minimal
        # image and far apart without it
        cell = pts % 1.0
        cell[2], cell[3] = 1e-3, 1.0 - 1e-3
        seam_vals = vals.copy()
        seam_vals[2], seam_vals[3] = 10.0, -10.0
        wrap = minimal_image(1.0)
        for alpha in (0.3, 0.5, 1.0):
            got = holder_seminorm(vals, pts, alpha)
            assert got == dense_holder_seminorm(vals, pts, alpha)
            assert got == holder_seminorm(vals[::-1], pts[::-1], alpha)
            got = holder_seminorm(seam_vals, cell, alpha, wrap)
            assert got == dense_holder_seminorm(seam_vals, cell, alpha, wrap)
            assert got == holder_seminorm(seam_vals[::-1], cell[::-1], alpha,
                                          wrap)
            assert got > dense_holder_seminorm(seam_vals, cell, alpha)

    def test_one_dimensional_distances_are_exact(self):
        # |x - x'| where norm() would square a spacing of 1e-200 to 0 and
        # drop the pair
        xs = np.array([[0.0], [1e-200], [1.0]])
        assert holder_seminorm([0.0, 1.0, 1.0], xs, 1.0) == 1e200

    def test_no_pair_at_positive_distance_raises(self):
        with pytest.raises(ValueError):
            holder_seminorm([1.0, 2.0, 3.0], np.zeros((3, 2)), 0.5)

    def test_bump_profile_memory(self, traced_peak):
        xs = np.linspace(-8.0, 8.0, 2001)
        ref = mollifier(xs / 2.0)
        value, peak = traced_peak(holder_seminorm, ref, xs[:, None], 0.5)
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


def tridiagonal_operator(spec, axes, h):
    """The 1-D operator -a d^2 as three diagonals."""
    x = axes[0][1:-1]
    a = spec.coeff(x[:, None])[:, 0, 0]
    main = 2.0 * a / h ** 2
    off = -a / h ** 2
    return sparse.diags([off[1:], main, off[:-1]], [-1, 0, 1], format="csr")


def kronecker_operator(spec, axes, h):
    """The 2-D operator -a^{ij} d_i d_j from Kronecker products of shifts."""
    xs, ys = axes[0][1:-1], axes[1][1:-1]
    mx, my = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    a = spec.coeff(np.column_stack([gx.ravel(), gy.ravel()]))
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]

    def shift(dx, dy):
        # maps u to u shifted by (dx, dy) grid cells, zero off the interior
        sx = sparse.diags([np.ones(mx - abs(dx))], [dx], shape=(mx, mx))
        sy = sparse.diags([np.ones(my - abs(dy))], [dy], shape=(my, my))
        return sparse.kron(sx, sy, format="csr")

    D = sparse.diags
    A = D(2.0 * (a11 + a22) / h ** 2)
    A = A - D(a11 / h ** 2) @ (shift(1, 0) + shift(-1, 0))
    A = A - D(a22 / h ** 2) @ (shift(0, 1) + shift(0, -1))
    cross = shift(1, 1) + shift(-1, -1) - shift(1, -1) - shift(-1, 1)
    A = A - D(2.0 * a12 / (4.0 * h ** 2)) @ cross
    return A.tocsr()


def skewed_chart():
    """2-D coefficients whose three entries all vary from node to node."""
    def coeff(x):
        x = np.atleast_2d(x)
        a = np.empty((len(x), 2, 2))
        a[:, 0, 0] = 1.0 + 0.1 * np.sin(x[:, 0])
        a[:, 1, 1] = 1.0 + 0.1 * np.cos(x[:, 1])
        a[:, 0, 1] = a[:, 1, 0] = 0.2 * np.cos(x[:, 0] + 2.0 * x[:, 1])
        return a
    return ChartSpec(2, coeff, 2.0, 0.5, 0.0)


class TestOperator:
    @pytest.mark.parametrize("spec, nodes, reference", [
        (identity_chart(1), 41, tridiagonal_operator),
        (bump_chart(1, 1.08), 41, tridiagonal_operator),
        (identity_chart(2), 21, kronecker_operator),
        (bump_chart(2, 1.06, width=1.5), 21, kronecker_operator),
        (constant_chart([[1.3, 0.4], [0.4, 0.8]]), 21, kronecker_operator),
        (skewed_chart(), 21, kronecker_operator),
        # one and two interior nodes per axis: stencil offsets that share
        # a flat offset
        (skewed_chart(), 3, kronecker_operator),
        (skewed_chart(), 4, kronecker_operator),
    ])
    def test_stencil_equals_reference_construction(self, spec, nodes,
                                                   reference):
        axes = tuple(np.linspace(-3.0, 3.0, nodes) for _ in range(spec.dim))
        h = axes[0][1] - axes[0][0]
        A = charts._laplacian_operator(spec, axes, h)
        ref = reference(spec, axes, h)
        assert A.shape == ref.shape
        assert (A != ref).nnz == 0
        # no stored zeros: a vanishing cross coefficient adds no entry
        assert A.nnz == ref.nnz


def boundary_contact(gk, ti):
    """Largest kernel magnitude on the box boundary at a stored time."""
    v = gk.values[ti]
    if gk.dim == 1:
        return float(max(abs(v[0]), abs(v[-1])))
    return float(max(np.abs(v[0, :]).max(), np.abs(v[-1, :]).max(),
                     np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max()))


def mass(gk, ti):
    """Grid sum of the kernel at a stored time, the integral over the box."""
    return float(gk.values[ti].sum() * gk.spacing ** gk.dim)


@pytest.fixture(scope="module")
def const_kernel():
    return solve_fd_kernel(identity_chart(1), 6.0, 81, 0.0, 0.25,
                           steps=1024, store_every=64)


class TestFiniteDifferenceKernel:
    def test_second_order_convergence(self):
        errors, ratios, _ = convergence_study([41, 81, 161])
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
            if boundary_contact(const_kernel, ti) > 1e-8:
                break
            assert mass(const_kernel, ti) == pytest.approx(1.0, abs=1e-6)

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
        assert mass(gk, ti) == pytest.approx(1.0, abs=1e-6)

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


class TestCloseness:
    def test_identical_kernels(self, const_kernel):
        rep = closeness_report(const_kernel.points(), const_kernel.times,
                               const_kernel.values, const_kernel.values,
                               const_kernel.source, t_window=(0.05, 0.25),
                               x_max=6.0, spacing=const_kernel.spacing)
        assert rep.sup_value == 0.0
        assert rep.sup_gradient == 0.0

    def test_euclidean_vs_identity_frozen(self):
        spec = identity_chart(1)
        pts = np.linspace(-4, 4, 81)[:, None]
        times = np.array([0.1, 0.2])
        a = np.stack([euclidean_kernel(pts, t, [0.0]) for t in times])
        b = np.stack([frozen_kernel(pts, t, [0.0], spec) for t in times])
        rep = closeness_report(pts, times, a, b, [0.0], t_window=(0.0, 1.0),
                               x_max=4.0, spacing=0.1)
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
        exact = evaluate_on_grid(gk)
        window = (0.004, 0.05)
        excl = closeness_report(gk.points(), gk.times, gk.values, exact,
                                gk.source, t_window=window, x_max=4.0,
                                spacing=gk.spacing)
        # the same sup over the interior of |x| <= 4 with nothing excluded
        shape = gk.values.shape[1:]
        inner = charts._interior_mask(shape) & (np.abs(gk.axes[0]) <= 4.0)
        incl = max(
            np.abs(charts._grid_gradient(gk.values[ti], shape, gk.spacing)
                   - charts._grid_gradient(exact[ti], shape, gk.spacing))
            [inner].max()
            for ti, t in enumerate(gk.times) if window[0] <= t <= window[1])
        assert incl > 5.0 * excl.sup_gradient


def test_grid_dimension_guard():
    with pytest.raises(ValueError, match="two dimensions"):
        solve_fd_kernel(identity_chart(3), 2.0, 11, (0, 0, 0), 0.1, steps=4)


@pytest.mark.parametrize("dim, source", [
    (1, -100.0), (1, 100.0),
    (2, (-100.0, 0.0)), (2, (100.0, 0.0)),
    (2, (0.0, -100.0)), (2, (0.0, 100.0)),
])
def test_source_outside_the_box_is_rejected(dim, source):
    # the nearest node of such a source is on the Dirichlet boundary, where
    # no unit mass can be placed
    with pytest.raises(ValueError) as err:
        solve_fd_kernel(identity_chart(dim), 6.0, 41, source, 0.1, steps=4)
    assert str(err.value) == (
        f"source {source!r} is not inside the box [-6.0, 6.0]^{dim}: its "
        "nearest grid node is on the boundary")


def test_2d_variable_bump_close_to_euclidean():
    # end-to-end 2D run: the kernel of a gently varying operator stays
    # within the ellipticity-proportional distance of the Gaussian
    spec = bump_chart(2, 1.06, width=1.5)
    gk = solve_fd_kernel(spec, 4.0, 81, (0.0, 0.0), 0.4, steps=256,
                         store_every=32)
    exact = evaluate_on_grid(gk)
    rep = closeness_report(gk.points(), gk.times, gk.values, exact,
                           gk.source, t_window=(0.1, 0.4), x_max=2.5,
                           spacing=gk.spacing)
    peak = euclidean_kernel(gk.source[None, :], 0.1, gk.source)[0]
    assert rep.sup_value < 0.06 * peak  # order (Q-1), far below the peak
    assert rep.sup_value > 0            # the coefficients do perturb it
