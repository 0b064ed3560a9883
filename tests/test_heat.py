import math
import warnings

import numpy as np
import pytest

from spectral_embed.manifold import Circle, Sphere, make_sphere
from spectral_embed.spectrum import (GeometryBounds, TruncationError,
                                     compute_spectrum)
from spectral_embed.heat import (HeatEvaluator, decay_check, decay_value_bound,
                                 unbounded_decay_time, varadhan_check,
                                 varadhan_time_grid)


CIRCLE = Circle(2 * np.pi)

CALIBRATED = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                            a=2 * math.e * np.pi ** 2, C=1.0, r_h=1.0)


def circle_kernel_oracle(d, t, images=30):
    """Image-sum (Poisson) representation of the circle heat kernel."""
    ms = np.arange(-images, images + 1)
    return np.sum(np.exp(-(d + 2 * np.pi * ms) ** 2 / (4 * t))) \
        / np.sqrt(4 * np.pi * t)


def integrate_from(ev, p, t):
    """Quadrature of K_N(p,t;.) against the volume measure."""
    man = ev.manifold
    Q = man.sample_points()
    row = ev.kernel_matrix(ev._points(p), t, Q)
    return float((row @ man.sample_weights(Q)).ravel()[0])


# K_N, its gradient and their roundoff floors between matched point
# batches, written out term by term: the independent reference for the
# evaluator's single path through pair_at.
def reference_kernel(ev, P, t, Q):
    vp, vq = ev.truncated_values(P), ev.truncated_values(Q)
    return np.sum(ev.weights(t) * vp * vq, axis=1)


def reference_gradient(ev, P, t, Q):
    gp = ev.spectrum.gradients(ev._points(P))[:, : ev.n_trunc + 1]
    return np.einsum("k,pkd,pk->pd", ev.weights(t), gp,
                     ev.truncated_values(Q))


def reference_floors(ev, p, t, q):
    kpp = float(reference_kernel(ev, p, t, p)[0])
    kqq = float(reference_kernel(ev, q, t, q)[0])
    gp = ev.spectrum.gradients(ev._points(p))[:, : ev.n_trunc + 1]
    gpp = float(np.einsum("k,pkd,pkd->p", ev.weights(t), gp, gp)[0])
    eps = np.finfo(float).eps
    return (eps * math.sqrt(max(kpp * kqq, 0.0)),
            eps * math.sqrt(max(gpp * kqq, 0.0)))


@pytest.fixture(scope="module")
def circle_spec():
    return compute_spectrum(CIRCLE, 300)


@pytest.fixture(scope="module")
def circle_ev(circle_spec):
    return HeatEvaluator(circle_spec, circle_spec.count - 1)


class TestKernel:
    def test_constant_mode_only(self, circle_spec):
        ev = HeatEvaluator(circle_spec, 0)
        for t in (0.1, 1.0, 10.0):
            val = ev.kernel(np.array([0.3]), t, np.array([2.0]))
            assert val == pytest.approx(1 / (2 * np.pi), rel=1e-14)

    def test_diagonal_against_image_sum(self, circle_ev):
        val = circle_ev.kernel(np.array([0.4]), 1.0, np.array([0.4]))
        assert val == pytest.approx(circle_kernel_oracle(0.0, 1.0), rel=1e-10)

    def test_off_diagonal_against_image_sum(self, circle_ev):
        for d in (0.5, 1.5, np.pi):
            val = circle_ev.kernel(np.array([0.2]), 0.3, np.array([0.2 + d]))
            assert val == pytest.approx(circle_kernel_oracle(d, 0.3),
                                        rel=1e-9)

    def test_long_time_limit(self, circle_spec):
        ev = HeatEvaluator(circle_spec, 50)
        lam1 = circle_spec.eigenvalues[1]
        sup_sq = circle_spec.sup_norms()[1:51].max() ** 2
        t = 30.0
        val = ev.kernel(np.array([1.0]), t, np.array([4.0]))
        assert abs(val - 1 / (2 * np.pi)) <= np.exp(-lam1 * t) * 50 * sup_sq

    def test_symmetry_to_roundoff(self, circle_ev):
        # (w phi(p)) phi(q) and (w phi(q)) phi(p) round apart: about a third
        # of the pairs differ, each by under one unit of the floor
        sphere = Sphere(1.0)
        rng = np.random.default_rng(0)
        for ev in (circle_ev, HeatEvaluator(compute_spectrum(sphere, 225),
                                            224)):
            P = ev.manifold.sample_points()
            for _ in range(300):
                i, j = rng.choice(len(P), 2, replace=False)
                t = float(rng.uniform(0.01, 1.0))
                floor, _ = ev.roundoff_floor(P[i], t, P[j])
                assert abs(ev.kernel(P[i], t, P[j])
                           - ev.kernel(P[j], t, P[i])) <= 4.0 * floor

    def test_truncation_bounds_index(self, circle_spec):
        with pytest.raises(ValueError):
            HeatEvaluator(circle_spec, circle_spec.count)

    def test_unit_mass(self, circle_ev):
        assert integrate_from(circle_ev, np.array([0.7]), 0.4) \
            == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass_on_mesh(self):
        spec = compute_spectrum(make_sphere(1.0, 2), 10)
        ev = HeatEvaluator(spec, 9)
        # only the constant mode integrates to a nonzero value, exactly in
        # the mesh quadrature
        assert integrate_from(ev, 3, 0.2) == pytest.approx(1.0, abs=1e-12)

    def test_positivity_up_to_tail(self, circle_spec):
        from spectral_embed.spectrum import (_tail_terms,
                                             eigenfunction_sup_bounds)
        ev = HeatEvaluator(circle_spec, 40)
        # the certified tail past index 40, as truncation_index sums it
        terms, remainder = _tail_terms(
            circle_spec, 0.05, CALIBRATED,
            eigenfunction_sup_bounds(circle_spec).empirical_constant)
        eps = terms[40:].sum() + remainder
        P = CIRCLE.sample_points(256)
        vals = ev.kernel_matrix(P, 0.05, P)
        assert vals.min() >= -eps

    def test_semigroup_in_coefficient_space(self, circle_spec):
        ev = HeatEvaluator(circle_spec, 60)
        P = CIRCLE.sample_points(1024)
        w = CIRCLE.sample_weights(P)
        t, s = 0.3, 0.5
        lhs = ev.kernel_matrix(P[:8], t + s, P[:8])
        mid_a = ev.kernel_matrix(P[:8], t, P)
        mid_b = ev.kernel_matrix(P, s, P[:8])
        rhs = (mid_a * w) @ mid_b
        assert np.abs(lhs - rhs).max() < 1e-6


class TestGradient:
    def test_zero_at_coincident_points(self, circle_ev):
        g = circle_ev.gradient(np.array([1.3]), 0.5, np.array([1.3]))
        assert np.abs(g).max() < 1e-10

    def test_zero_for_constant_mode(self, circle_spec):
        ev = HeatEvaluator(circle_spec, 0)
        g = ev.gradient(np.array([1.0]), 0.5, np.array([2.0]))
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self, circle_ev):
        t, h = 0.2, 1e-5
        for theta in (0.3, 1.1, 2.5):
            g = circle_ev.gradient(np.array([theta]), t, np.array([0.0]))[0]
            up = circle_ev.kernel(np.array([theta + h]), t, np.array([0.0]))
            dn = circle_ev.kernel(np.array([theta - h]), t, np.array([0.0]))
            assert g == pytest.approx((up - dn) / (2 * h), abs=1e-6)

    def test_mesh_gradient_matches_analytic_backend(self):
        # K_N is basis independent once a degenerate band is complete, so
        # the mesh kernel gradient must match the closed-form backend
        mesh = make_sphere(1.0, 3)
        spec = compute_spectrum(mesh, 9)       # bands l <= 2 complete
        ev = HeatEvaluator(spec, 8)
        sphere = mesh.reference
        exact = HeatEvaluator(compute_spectrum(sphere, 9), 8)
        P = sphere.mesh_points(mesh)
        t = 0.5
        for p, q in ((17, 400), (3, 77)):
            g_mesh = ev.gradient(p, t, q)
            g_true = exact.gradient(P[p], t, P[q])
            scale = max(np.linalg.norm(g_true), 0.05)
            assert np.linalg.norm(g_mesh - g_true) < 0.08 * scale


class TestDecay:
    def test_circle_flags_pass(self, circle_ev):
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi, r_h=1.0)
        pairs = [(np.array([0.0]), np.array([0.5])),
                 (np.array([0.0]), np.array([np.pi]))]
        ts = [0.01, 0.05, 0.1, 0.5, 1.0]
        rep = decay_check(circle_ev, bounds, pairs, ts, 2.0)
        assert rep.all_pass()
        assert all(r.grad_flag == "pass" for r in rep.rows)

    def test_bound_at_zero_distance(self):
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi, r_h=1.0)
        t = 0.3
        expected = bounds.C / (bounds.a * min(t, 1.0)) ** 0.5
        assert decay_value_bound(0.0, t, bounds) == pytest.approx(expected)

    def test_inflated_kernel_fails(self, circle_spec):
        # decay_check reads K_N through pair_at
        class Inflated(HeatEvaluator):
            def pair_at(self, terms, t):
                value, grad, floors = super().pair_at(terms, t)
                return value * 1e6, grad, floors

        ev = Inflated(circle_spec, circle_spec.count - 1)
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi, r_h=1.0)
        rep = decay_check(ev, bounds, [(np.array([0.0]), np.array([0.5]))],
                          [0.1], 2.0)
        assert not rep.all_pass()
        assert not rep.rows[0].value_pass

    @pytest.mark.parametrize("ts", [[0.05, 1.0], [0.2]])
    def test_pair_at_matches_the_single_point_methods(self, circle_ev, ts):
        sphere = Sphere(1.0)
        sphere_ev = HeatEvaluator(compute_spectrum(sphere, 40), 39)
        P = sphere.sample_points()
        for ev, p, q in ((circle_ev, np.array([0.3]), np.array([2.0])),
                         (sphere_ev, P[0], P[17])):
            terms = ev.pair_terms(p, q)
            for t in ts:
                value, grad, floors = ev.pair_at(terms, t)
                assert value == ev.kernel(p, t, q) \
                    == reference_kernel(ev, p, t, q)[0]
                assert grad.tobytes() == ev.gradient(p, t, q).tobytes() \
                    == reference_gradient(ev, p, t, q)[0].tobytes()
                assert floors == ev.roundoff_floor(p, t, q) \
                    == reference_floors(ev, p, t, q)

    def test_rows_match_the_single_point_methods(self):
        # one basis evaluation per pair gives the kernel and gradient
        # values the per-pair batch formulas give, bit for bit
        sphere = Sphere(1.0)
        ev = HeatEvaluator(compute_spectrum(sphere, 40), 39)
        bounds = GeometryBounds(dim=2, iota=np.pi, volume=4 * np.pi, r_h=1.0)
        P = sphere.sample_points()
        rep = decay_check(ev, bounds, [(P[0], P[17]), (P[5], P[3])],
                          [0.1, 0.5], 4.0)
        for row in rep.rows:
            assert row.value == reference_kernel(ev, row.p, row.t, row.q)[0]
            assert row.grad_value == float(np.linalg.norm(
                reference_gradient(ev, row.p, row.t, row.q)[0]))

    @pytest.mark.parametrize("t, index", [(5e-324, 1), (1e300, 1),
                                          (1e-300, 1), (0.5, None)])
    def test_unbounded_decay_time(self, t, index):
        # a time at which a bound is nan, inf or overflows a Python float
        # power is named before any evaluation, with no numpy warning
        bounds = GeometryBounds(dim=2, iota=np.pi, volume=4 * np.pi, r_h=1.0)
        sphere = Sphere(1.0)
        P = sphere.sample_points()
        ts = [0.1, t, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unbounded_decay_time(sphere, bounds, [(P[0], P[9])], ts,
                                       4.0)
        assert got == (None if index is None else ts[index])

    def test_outside_gradient_regime_marked(self, circle_ev):
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi, r_h=0.1)
        rep = decay_check(circle_ev, bounds,
                          [(np.array([0.0]), np.array([1.0]))], [0.005, 1.0],
                          2.0)
        flags = {r.t: r.grad_flag for r in rep.rows}
        assert flags[0.005] in ("pass", "fail")
        assert flags[1.0] == "outside_range"


@pytest.fixture(scope="module")
def big_ev():
    spec = compute_spectrum(CIRCLE, 700)
    return HeatEvaluator(spec, 699)


class TestVaradhan:

    def test_unit_distance(self, big_ev):
        pairs = [(np.array([0.0]), np.array([1.0]))]
        rep = varadhan_check(big_ev, pairs, [(0.05, 0.02, 0.01)],
                             bounds=CALIBRATED)
        assert rep.rows[0].rel_error < 0.05

    def test_antipodal(self, big_ev):
        pairs = [(np.array([0.0]), np.array([np.pi]))]
        rep = varadhan_check(big_ev, pairs,
                             [varadhan_time_grid(np.pi)], bounds=CALIBRATED)
        assert rep.rows[0].extrapolated == pytest.approx(np.pi ** 2, rel=0.05)

    def test_coincident_pair_limit(self):
        # t = 1e-5 is certified at 1e-12 from N = 4274 on
        spec = compute_spectrum(CIRCLE, 5000)
        ev = HeatEvaluator(spec, 4999)
        rep = varadhan_check(ev, [(np.array([1.0]), np.array([1.0]))],
                             [varadhan_time_grid(0.0)], CALIBRATED)
        assert abs(rep.rows[0].extrapolated) < 1e-3

    def test_underflow_dropped_with_warning(self, big_ev):
        # at t = 0.005 the antipodal kernel is ~1e-215, far below the
        # floating-point resolution of the spectral sum
        pairs = [(np.array([0.0]), np.array([np.pi]))]
        with pytest.warns(RuntimeWarning, match="underflow"):
            rep = varadhan_check(big_ev, pairs, [(0.15, 0.1, 0.005)],
                                 CALIBRATED)
        assert rep.rows[0].dropped == (0.005,)
        assert rep.rows[0].used_ts == (0.15, 0.1)

    def test_truncation_precondition(self, circle_spec):
        ev = HeatEvaluator(circle_spec, 10)
        with pytest.raises(ValueError, match="truncation"):
            varadhan_check(ev, [(np.array([0.0]), np.array([1.0]))],
                           [(0.05, 0.02, 0.01)], bounds=CALIBRATED)

    def test_uncertified_pair_is_named(self, big_ev):
        pairs = [(np.array([0.0]), np.array([1.0])),
                 (np.array([1.0]), np.array([1.0]))]
        with pytest.raises(TruncationError,
                           match=r"^cannot certify the pair at distance 0 "
                                 r"down to t=1e-05: tolerance 1e-12 "
                                 r"unreachable within the bound window$"):
            varadhan_check(big_ev, pairs, [varadhan_time_grid(1.0),
                                           varadhan_time_grid(0.0)],
                           CALIBRATED)

    def test_default_grid_scales_with_distance(self):
        g1 = varadhan_time_grid(0.5)
        g2 = varadhan_time_grid(1.0)
        assert np.allclose(np.asarray(g2) / np.asarray(g1), 4.0)
        assert varadhan_time_grid(0.0) == (1e-4, 3e-5, 1e-5)


def test_semigroup_exact_on_mesh():
    # mass-orthonormality makes the composition exact in coefficient space
    mesh = make_sphere(1.0, 2)
    spec = compute_spectrum(mesh, 12)
    ev = HeatEvaluator(spec, 11)
    verts = np.arange(len(mesh.vertices))
    lhs = ev.kernel_matrix(verts[:6], 0.7, verts[:6])
    mid_a = ev.kernel_matrix(verts[:6], 0.3, verts)
    mid_b = ev.kernel_matrix(verts, 0.4, verts[:6])
    rhs = (mid_a * mesh.masses) @ mid_b
    assert np.abs(lhs - rhs).max() < 1e-8


def test_one_pair_evaluation_path(tmp_path, monkeypatch):
    # verify varadhan evaluates the basis once per pair and reweights it per
    # time; kernel, gradient and roundoff_floor read the same pair_at
    from spectral_embed.cli import main
    terms, at = [], []
    pair_terms, pair_at = HeatEvaluator.pair_terms, HeatEvaluator.pair_at

    def counted_terms(self, p, q):
        terms.append((p, q))
        return pair_terms(self, p, q)

    def counted_at(self, pair, t):
        at.append(t)
        return pair_at(self, pair, t)

    monkeypatch.setattr(HeatEvaluator, "pair_terms", counted_terms)
    monkeypatch.setattr(HeatEvaluator, "pair_at", counted_at)
    cfg = tmp_path / "varadhan.cfg"
    cfg.write_text(f"manifold.kind = circle\nbounds.iota = {np.pi!r}\n"
                   f"bounds.volume = {2 * np.pi!r}\n"
                   f"bounds.a = {2 * math.e * np.pi ** 2!r}\n"
                   "bounds.c = 1.0\nbounds.r_h = 1.0\n"
                   "verify.distances = 0.5,1.0\n")
    assert main(["verify", "varadhan", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(terms) == 2 and len(at) == 2 * 3

    ev = HeatEvaluator(compute_spectrum(CIRCLE, 20), 19)
    p, q = np.array([0.3]), np.array([1.0])
    for method in (ev.kernel, ev.gradient, ev.roundoff_floor):
        del terms[:], at[:]
        method(p, 0.5, q)
        assert (len(terms), at) == (1, [0.5])


def test_uncertified_varadhan_run_names_the_pair(tmp_path, capsys):
    # a coincident pair gets the fixed grid down to t = 1e-5, which the
    # default bounds cannot certify from 700 circle modes
    from spectral_embed.cli import main
    cfg = tmp_path / "varadhan.cfg"
    cfg.write_text("manifold.kind = circle\nbounds.r_h = 1.0\n"
                   "verify.distances = 0.0,1.0\n")
    assert main(["verify", "varadhan", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "check failed: cannot certify the pair at distance 0 down to "
        "t=1e-05: tolerance 1e-12 unreachable within the bound window\n")
