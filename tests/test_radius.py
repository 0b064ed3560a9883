import math
import warnings

import numpy as np
import pytest

from spectral_embed import manifold, radius
from spectral_embed.manifold import TriMesh, make_sphere, make_torus_mesh
from spectral_embed.radius import (
    abresch_gromoll, constants_sweep, coordinate_radius,
    distance_coordinates_experiment, harmonic_coordinates_experiment,
    hessian_bound, holder_constant, model_volumes, segment_constant,
    solid_angle)


def mp_holder_constant(n, lam_r, lam_iota):
    """Independent re-implementation of the Holder constant with mpmath."""
    import mpmath as mp
    mp.mp.dps = 40
    lam_r = mp.mpf(lam_r)
    lam_iota = mp.mpf(lam_iota)
    omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)

    def ball(x):
        return omega * mp.quad(lambda s: mp.sinh(s) ** (n - 1), [0, x])

    vol_ratio = ball(4 * lam_r) / ball(lam_r)
    c = 2 ** (n - 1) * mp.cosh(3 * lam_r / 2) ** (n - 1)
    coth = mp.coth(lam_iota / 16)
    three = 3 * lam_r
    ratio_term = three * (omega * mp.sinh(three) ** (n - 1)) / ball(three)
    f = (n - 1) * three + (n - 1) ** 2 * three * coth ** 2 \
        + ratio_term * (n - 1) * coth
    return float(6 * mp.sqrt(12 * vol_ratio * c * f))


def mp_ball_volume(n, x):
    """Omega_n times the integral of sinh^(n-1) over [0, x], from the
    exponential sum 2^-k sum_j C(k, j) (-1)^j (e^((k-2j) x) - 1) / (k-2j),
    whose k = 2j term is x, at 320 digits (mp.quad loses digits here)."""
    import mpmath as mp
    with mp.workdps(320):
        k, x = n - 1, mp.mpf(x)
        total = mp.fsum((-1) ** j * mp.binomial(k, j)
                        * (x if k == 2 * j else mp.expm1((k - 2 * j) * x)
                           / (k - 2 * j)) for j in range(k + 1))
        return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2) \
            * total / mp.mpf(2) ** k


def model_ball_lower_bound(n, lam, r):
    """Jensen lower bound Omega_n r sinh^(n-1)(lam r / 2) / lam^(n-1)."""
    return solid_angle(n) * r * math.sinh(lam * r / 2.0) ** (n - 1) \
        / lam ** (n - 1)


class TestModelVolumes:
    # both sides of x = 1, where the power series hands over to the
    # reduction formula, and up to lam r = 40
    LAM_R = (1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99,
             1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.01, 1.2, 1.5, 1.9, 2.0, 2.5,
             4.0, 7.0, 15.0, 40.0)

    @pytest.mark.parametrize("n", list(range(1, 12)) + [20, 40, 60, 80, 99])
    def test_ball_matches_exponential_sum(self, n):
        checked = 0
        for x in self.LAM_R:
            ref = mp_ball_volume(n, x)
            if not 1e-300 < ref < 1e300:
                continue  # beyond the double range
            ball, _ = model_volumes(n, 1.0, x)
            assert abs(ball - ref) <= 1e-13 * ref, (n, x)
            checked += 1
        assert checked >= 8

    def test_scales_with_lam(self):
        for n, lam, r in ((2, 2.0, 0.3), (3, 0.5, 3.0), (7, 4.0, 0.5)):
            assert model_volumes(n, lam, r)[0] == pytest.approx(
                float(mp_ball_volume(n, lam * r)) / lam ** n, rel=1e-13)

    def test_underflowed_ball_is_a_python_zero(self):
        # so a volume ratio fails with ZeroDivisionError (exit 1 through the
        # CLI) instead of writing nan, as with quadrature
        ball, boundary = model_volumes(100, 1.0, np.float64(1e-4))
        assert type(ball) is float and type(boundary) is float
        assert ball == 0.0
        with pytest.raises(ZeroDivisionError), np.errstate(all="ignore"):
            constants_sweep(100, 1.0, 1.0, np.array([1e-4]))

    def test_dimension_must_be_a_positive_integer(self):
        for n in (0, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                model_volumes(n, 1.0, 1.0)

    def test_boundary_closed_form(self):
        ball, boundary = model_volumes(2, 1.0, 1.0)
        assert boundary == pytest.approx(2 * np.pi * np.sinh(1.0), rel=1e-12)

    def test_solid_angles(self):
        assert solid_angle(2) == pytest.approx(2 * np.pi)
        assert solid_angle(3) == pytest.approx(4 * np.pi)

    def test_flat_limit_scaling(self):
        for n in (2, 3):
            small = 1e-3
            b1, _ = model_volumes(n, 1.0, small)
            b4, _ = model_volumes(n, 1.0, 4 * small)
            assert b4 / b1 == pytest.approx(4.0 ** n, rel=0.01)

    def test_jensen_lower_bound(self):
        for lam in (0.5, 1.0, 2.0):
            for r in (0.1, 1.0, 3.0):
                ball, _ = model_volumes(2, lam, r)
                assert ball >= model_ball_lower_bound(2, lam, r) * (1 - 1e-12)

    def test_ball_consistent_with_boundary_derivative(self):
        h = 1e-6
        b1, _ = model_volumes(3, 1.0, 1.0 - h)
        b2, boundary = model_volumes(3, 1.0, 1.0)
        assert (b2 - b1) / h == pytest.approx(boundary, rel=1e-4)


class TestSegmentConstant:
    def test_zero_argument(self):
        assert segment_constant(2, 0.0) == 2.0
        assert segment_constant(4, 0.0) == 8.0

    def test_reference_value(self):
        assert segment_constant(3, 2.0) == pytest.approx(
            4 * np.cosh(1.0) ** 2, rel=1e-14)

    def test_monotone(self):
        vals = [segment_constant(3, x) for x in np.linspace(0, 4, 30)]
        assert np.all(np.diff(vals) >= 0)


def crude_hessian_bound(n, lam_r, coth_bound):
    """F with the model volume ratio replaced by its explicit upper
    estimate 2^(n-1) cosh^(n-1)(lam r / 2)."""
    base = (n - 1) * lam_r + (n - 1) ** 2 * lam_r * coth_bound ** 2
    ratio_term = 2.0 ** (n - 1) * math.cosh(lam_r / 2.0) ** (n - 1)
    return base + ratio_term * (n - 1) * coth_bound


class TestHessianBound:
    def test_flat_limit_crude(self):
        assert crude_hessian_bound(2, 1e-12, 2.0) == pytest.approx(
            4.0, rel=1e-9)

    def test_exact_below_crude(self):
        for lam_r in (0.1, 0.5, 2.0):
            exact = hessian_bound(2, lam_r, 3.0)
            crude = crude_hessian_bound(2, lam_r, 3.0)
            assert exact <= crude * (1 + 1e-12)

    def test_nondecreasing_in_each_argument(self):
        xs = np.linspace(0.05, 2.0, 15)
        vals = [hessian_bound(2, x, 2.0) for x in xs]
        assert np.all(np.diff(vals) >= 0)
        cs = np.linspace(1.0, 5.0, 15)
        vals = [hessian_bound(2, 0.5, c) for c in cs]
        assert np.all(np.diff(vals) >= 0)

    def test_coth_wiring_limit(self):
        # coth(lam iota / 16) -> 1 as iota -> infinity
        assert 1.0 / math.tanh(1e6 / 16.0) == pytest.approx(1.0)


class TestHolderConstant:
    def test_composition_identity(self):
        for lam_r in (0.01, 0.2):
            c_big = holder_constant(2, lam_r, 1.0)
            ball_r, _ = model_volumes(2, 1.0, lam_r)
            ball_4r, _ = model_volumes(2, 1.0, 4 * lam_r)
            c_seg = segment_constant(2, 3 * lam_r)
            f = hessian_bound(2, 3 * lam_r, 1.0 / math.tanh(1.0 / 16.0))
            assert c_big ** 2 / 36.0 == pytest.approx(
                12.0 * (ball_4r / ball_r) * c_seg * f, rel=1e-12)

    def test_against_duplicate_implementation(self):
        assert holder_constant(2, 1e-4, 1.0) == pytest.approx(
            mp_holder_constant(2, 1e-4, 1.0), rel=1e-10)

    def test_strictly_increasing_in_r(self):
        rs = np.geomspace(1e-4, 0.5, 25)
        vals = [holder_constant(2, r, 1.0) for r in rs]
        assert np.all(np.diff(vals) > 0)

    def test_scale_invariance(self):
        # evaluating at (lam, r) equals (lam/k, k r): only products enter
        lam, r, iota, k = 2.0, 0.05, 1.5, 7.0
        scaled = ((lam / k) * (k * r), (lam / k) * (k * iota))
        assert holder_constant(3, lam * r, lam * iota) \
            == holder_constant(3, *scaled)
        assert segment_constant(3, lam * r) == segment_constant(3, scaled[0])
        assert hessian_bound(3, lam * r, 2.0) \
            == hessian_bound(3, scaled[0], 2.0)


class TestCoordinateRadius:
    def test_condition_binds_generically(self):
        res = coordinate_radius(2, 1.0, 1.0)
        assert res.binding == "condition"
        assert res.r > 0
        lhs = holder_constant(2, res.r, 1.0) * math.sqrt(res.r)
        assert lhs <= 1.0 / 4.0 + 1e-9

    def test_large_iota_still_positive(self):
        res = coordinate_radius(2, 1.0, 1e6)
        assert res.r > 0

    def test_bisection_matches_grid_scan(self):
        res = coordinate_radius(2, 1.0, 1.0)
        cap = 1.0 / 64.0
        grid = np.linspace(res.r * 0.5, cap, 20000)
        ok = [holder_constant(2, r, 1.0) * math.sqrt(r) < 0.25 for r in grid]
        last_ok = grid[np.nonzero(ok)[0][-1]]
        assert abs(last_ok - res.r) < (grid[1] - grid[0]) + 1e-12


class TestAbreschGromoll:
    def test_vanishes_at_outer_radius(self):
        assert abresch_gromoll(3, 1.0, 2.0, 2.0) == 0.0

    def test_one_dimensional_closed_form(self):
        for (big_r, r) in ((2.0, 0.5), (1.0, 0.25), (3.0, 2.9)):
            val = abresch_gromoll(1, 1.3, big_r, r)
            assert val == pytest.approx((big_r - r) ** 2 / 2.0, abs=1e-10)

    def test_strictly_decreasing_in_r(self):
        vals = [abresch_gromoll(2, 1.0, 2.0, r)
                for r in np.linspace(0.2, 1.8, 12)]
        assert np.all(np.diff(vals) < 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            abresch_gromoll(2, 1.0, 1.0, 2.0)


class TestConstantsSweep:
    def test_row_layout_and_flags(self):
        rows = constants_sweep(2, 1.0, 1.0, [1e-8, 1e-2])
        assert len(rows) == 2
        n, lam, iota, r, volratio, c, f, big_c, cond_d, cond_h = rows[0]
        assert (n, lam, iota) == (2, 1.0, 1.0)
        assert cond_d in (0, 1) and cond_h in (0, 1)
        # tiny radius satisfies the conditions, large does not
        assert rows[0][8] == 1
        assert rows[1][8] == 0

    def test_underflowed_ball_raises_without_a_numpy_warning(self):
        # at n = 100 the ball of radius 1/6400 is 0.0: a Python division
        # error, not a numpy RuntimeWarning and nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                constants_sweep(100, 1.0, 1.0, np.geomspace(1 / 6400, 0.01, 4))

    @pytest.mark.parametrize("n", [2, 3])
    def test_columns_are_the_pieces_of_the_holder_constant(self, n):
        # volratio, c and F are taken at 4 (lam r) and 3 (lam r), the radii
        # holder_constant builds C from; at lam = 1.7, 3 (lam r) differs
        # from (3 lam) r in 14 of these 32 radii
        lam, iota = 1.7, 1.0
        coth = 1.0 / math.tanh(lam * iota / 16.0)
        for row in constants_sweep(n, lam, iota,
                                   np.geomspace(1 / 6400, 0.999 / 64, 32)):
            lam_r = lam * row[3]
            assert row[4] == model_volumes(n, 1.0, 4.0 * lam_r)[0] \
                / model_volumes(n, 1.0, lam_r)[0]
            assert row[5] == segment_constant(n, 3.0 * lam_r)
            assert row[6] == hessian_bound(n, 3.0 * lam_r, coth)
            assert row[7] == holder_constant(n, lam_r, lam * iota)


@pytest.fixture(scope="module")
def torus_mesh():
    return make_torus_mesh((2 * np.pi, 2 * np.pi), (256, 256))


@pytest.fixture(scope="module")
def sphere_mesh():
    return make_sphere(1.0, 4)


class TestMeshExperiments:
    def test_face_gradients_linear_field(self, torus_mesh):
        # gradient of a linear function of the plane is exact; the chart
        # function x is single-valued only off the periodic seam, so only
        # non-straddling faces are compared
        values = 2.0 * torus_mesh.vertices[:, 0]
        g = torus_mesh.face_gradients(values)
        corners = torus_mesh.vertices[torus_mesh.faces]
        spans = corners.max(axis=1) - corners.min(axis=1)
        inner = (spans[:, 0] < 1.0) & (spans[:, 1] < 1.0)
        assert np.allclose(g[inner], [2.0, 0.0, 0.0], atol=1e-10)

    def test_flat_torus_gram_near_identity(self, torus_mesh):
        rep, _ = distance_coordinates_experiment(torus_mesh, 0, 0.05,
                                                 iota=np.pi)
        assert 0.9 <= rep.gram_eigen_min <= rep.gram_eigen_max <= 1.1

    def test_sphere_gram_at_base(self, sphere_mesh):
        rep, _ = distance_coordinates_experiment(sphere_mesh, 0, 0.25,
                                                 iota=np.pi)
        assert np.abs(rep.gram_at_base - np.eye(2)).max() < 0.05

    def test_holder_report_against_constant(self, sphere_mesh):
        # report-only comparison: record the slack against the closed-form
        # constant for a sweep of curvature scales
        rep, _ = distance_coordinates_experiment(sphere_mesh, 0, 0.25,
                                                 iota=np.pi)
        for lam in (0.5, 1.0, 2.0):
            bound = holder_constant(2, lam * rep.radius, lam * np.pi) \
                * math.sqrt(lam)
            slack = bound * math.sqrt(rep.radius) - rep.holder_scaled
            assert np.isfinite(slack)

    def test_harmonic_coordinates_flat(self, torus_mesh):
        rep, _ = harmonic_coordinates_experiment(torus_mesh, 0, 0.05,
                                                 iota=np.pi)
        assert rep.max_principle_ok
        assert rep.sup_deviation <= 0.05
        assert rep.interior_vertices > 0

    def test_harmonic_gram_consistent_with_distance_gram(self, torus_mesh):
        drep, fields = distance_coordinates_experiment(torus_mesh, 0, 0.05,
                                                       iota=np.pi)
        hrep, _ = harmonic_coordinates_experiment(torus_mesh, 0, 0.05,
                                                  iota=np.pi, fields=fields)
        widen = 3.0 * hrep.sup_deviation + 0.02
        assert hrep.gram_eigen_min >= drep.gram_eigen_min - widen
        assert hrep.gram_eigen_max <= drep.gram_eigen_max + widen


def _hex(*values):
    return [float.fromhex(v) for v in values]


def test_torus_experiment_reports_are_pinned():
    # figures of the whole-mesh gradients and stiffness, bit for bit; the
    # ball of radius 0.16 on the 96^2 grid straddles the periodic seam
    mesh = make_torus_mesh((2 * np.pi, 2 * np.pi), (96, 96))
    drep, fields = distance_coordinates_experiment(mesh, 0, 0.16,
                                                   iota=np.pi)
    hrep, _ = harmonic_coordinates_experiment(mesh, 0, 0.16, iota=np.pi,
                                              fields=fields)
    assert [drep.gram_eigen_min, drep.gram_eigen_max,
            drep.holder_scaled] == _hex(
        "0x1.a45401e4f813cp-1", "0x1.2e80b06efae16p+0",
        "0x1.403f8d4d4aad2p-2")
    assert np.array_equal(drep.gram_at_base.ravel(), _hex(
        "0x1.ffb4f5b8871bbp-1", "-0x1.2dcf1a7d5ae4bp-9",
        "-0x1.2dcf1a7d5ae4bp-9", "0x1.ffb4f5b8871bcp-1"))
    assert (drep.ball_faces, drep.ball_vertices) == (26, 21)
    assert (drep.radius, drep.frame_distance) == (0.16, np.pi / 4)
    assert [hrep.sup_deviation, hrep.gram_eigen_min, hrep.gram_eigen_max,
            hrep.holder_half, hrep.holder_09] == _hex(
        "0x1.3ac1cd1c6122ep-4", "0x1.a72847c47811dp-1",
        "0x1.2d83f360f12fbp+0", "0x1.eb7b0b7dfeac8p-3",
        "0x1.49ee2ba32d915p-2")
    assert hrep.max_principle_ok
    assert (hrep.interior_vertices, hrep.radius) == (21, 0.16)


def test_experiments_work_on_the_ball_not_the_mesh(monkeypatch):
    mesh = make_torus_mesh((2 * np.pi, 2 * np.pi), (192, 192))
    seen = []
    gradients = TriMesh.face_gradients
    assemble = manifold.assemble_laplacian

    def counting_gradients(self, values, faces=None):
        seen.append(("gradients", len(self.faces if faces is None
                                       else faces)))
        return gradients(self, values, faces)

    def counting_assembly(mesh, faces=None):
        seen.append(("stiffness", len(mesh.faces if faces is None
                                      else faces)))
        return assemble(mesh, faces)

    monkeypatch.setattr(TriMesh, "face_gradients", counting_gradients)
    monkeypatch.setattr(manifold, "assemble_laplacian", counting_assembly)
    monkeypatch.setattr(radius, "assemble_laplacian", counting_assembly)
    drep, fields = distance_coordinates_experiment(mesh, 0, 0.08,
                                                   iota=np.pi)
    harmonic_coordinates_experiment(mesh, 0, 0.08, iota=np.pi,
                                    fields=fields)
    assert drep.ball_faces == 26
    assert {kind for kind, _ in seen} == {"gradients", "stiffness"}
    assert max(count for _, count in seen) <= 200, seen
