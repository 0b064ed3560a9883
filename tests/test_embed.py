import math

import numpy as np
import pytest

from spectral_embed.manifold import (Circle, FlatTorus, Sphere, make_sphere,
                                     make_torus_mesh)
from spectral_embed.spectrum import Spectrum, compute_spectrum
from spectral_embed.heat import HeatEvaluator
from spectral_embed.embed import (
    Net, _dilatation, _injectivity, build_net, continuous_dilatation,
    dilatation_report, evaluate_map, image_distance, injectivity_report,
    make_map, map_features, map_scale, sample_far_pairs, sample_near_pairs,
    scan_embedding)


CIRCLE = Circle(2 * np.pi, samples=4096)


def voronoi_weights(manifold, net):
    """Cell masses |A_i| of the nearest-point partition induced by the net:
    every sample point's weight goes to its nearest net point, ties to the
    lowest index, found from the full distance matrix."""
    fields = manifold.distance_between(net.points, manifold.sample_points())
    weights = np.zeros(len(fields))
    np.add.at(weights, np.argmin(fields, axis=0),
              manifold.sample_weights(manifold.sample_points()))
    return weights


@pytest.fixture(scope="module")
def circle_ev():
    return HeatEvaluator(compute_spectrum(CIRCLE, 300), 299)


@pytest.fixture(scope="module")
def fine_net():
    return build_net(CIRCLE, 0.05)


class TestBuildNet:
    def test_single_point_when_coarse(self):
        net = build_net(CIRCLE, 1.5 * CIRCLE.diameter())
        assert len(net) == 1
        assert net.weights[0] == pytest.approx(2 * np.pi)

    def test_circle_equidistributes(self):
        net = build_net(CIRCLE, np.pi / 4)
        assert len(net) == 8
        gaps = np.diff(np.sort(net.points.ravel()))
        assert np.allclose(gaps, 2 * np.pi / 8, atol=1e-9)

    def test_covering_on_icosphere(self):
        mesh = make_sphere(1.0, 4)
        net = build_net(mesh, 0.5)
        fields = np.stack([mesh.graph_distance_from(i) for i in net.points])
        assert fields.min(axis=0).max() <= 0.5

    @pytest.mark.parametrize("manifold, delta", [
        (make_sphere(1.0, 3), 0.4),
        (make_torus_mesh((2 * np.pi, 2 * np.pi), (24, 20)), 0.9),
        (CIRCLE, 0.05)], ids=["icosphere3", "grid_torus", "circle"])
    def test_bounded_searches_give_the_same_net(self, manifold, delta):
        full = build_net(manifold, delta)
        bounded = build_net(manifold, delta, fields=False)
        assert bounded.fields is None
        assert bounded.points.tobytes() == full.points.tobytes()
        assert bounded.weights.tobytes() == full.weights.tobytes()
        # nearest net point by argmin over the full fields: ties go low
        assert full.weights.tobytes() == \
            voronoi_weights(manifold, full).tobytes()
        # the covering radius of the kept fields, and measured again
        covering = full.fields.min(axis=0).max()
        P = manifold.sample_points()
        again = manifold.distance_between(bounded.points, P).min(axis=0)
        assert again.max() == covering < delta

    def test_net_finer_than_discretization(self):
        mesh = make_sphere(1.0, 2)
        with pytest.raises(ValueError, match="finer than discretization"):
            build_net(mesh, 0.01)

    def test_weights_sum_to_volume(self, fine_net):
        assert fine_net.weights.sum() == pytest.approx(2 * np.pi, rel=1e-8)

    def test_cells_inside_delta_balls(self, fine_net):
        samples = CIRCLE.sample_points()
        dists = CIRCLE.distance_between(fine_net.points, samples)
        assert dists.min(axis=0).max() <= fine_net.delta


class TestVoronoi:
    def test_equispaced_circle_weights(self):
        net = build_net(CIRCLE, np.pi / 4)
        w = voronoi_weights(CIRCLE, net)
        # equal up to the mass of one candidate sample (boundary ties)
        cell = 2 * np.pi / len(CIRCLE.sample_points())
        assert np.allclose(w, 2 * np.pi / 8, atol=2 * cell)
        assert w.sum() == pytest.approx(2 * np.pi, rel=1e-12)

    def test_mesh_weights_partition_area(self):
        mesh = make_sphere(1.0, 3)
        net = build_net(mesh, 0.7)
        w = voronoi_weights(mesh, net)
        assert w.sum() == pytest.approx(mesh.volume, rel=1e-10)
        assert np.all(w >= 0)


class TestReplicate:
    # replicating each net point ceil(|A_i| / lam) times, each copy of
    # weight lam, turns the Voronoi-weighted H map into a uniform one

    def test_uniform_weight_composition_matches(self, circle_ev):
        # each cell split into 4 equal copies reproduces distances exactly
        points8 = (np.arange(8) * (2 * np.pi / 8))[:, None]
        net = Net(points8, np.pi / 4, np.full(8, 2 * np.pi / 8))
        lam = (2 * np.pi / 8) / 4
        counts = np.ceil(net.weights / lam).astype(int)
        points = np.repeat(net.points, counts, axis=0)
        assert np.all(counts == 4)
        t = 0.1
        h_map = make_map("H", evaluator=circle_ev, net=net, t=t)
        rep_net = Net(points, net.delta, np.full(len(points), lam))
        h_rep = make_map("H", evaluator=circle_ev, net=rep_net, t=t)
        X = CIRCLE.sample_points(32)
        for i in (0, 5, 17):
            dx = image_distance(h_map, evaluate_map(h_map, X[i:i + 1]),
                                evaluate_map(h_map, X[(i + 9):(i + 10)]))
            dr = image_distance(h_rep, evaluate_map(h_rep, X[i:i + 1]),
                                evaluate_map(h_rep, X[(i + 9):(i + 10)]))
            assert dx[0] == pytest.approx(dr[0], rel=1e-12)

    def test_replication_converges_to_weighted_map(self, circle_ev):
        # uniform-weight distances approach the Voronoi-weighted ones as
        # the replication weight shrinks; the error obeys the monotone
        # bound lam * sum (Delta K_i)^2 (cells mis-weighted by < lam each)
        net = build_net(CIRCLE, 0.3)
        t = 0.1
        h_map = make_map("H", evaluator=circle_ev, net=net, t=t)
        x, y = CIRCLE.sample_points(64)[3:4], CIRCLE.sample_points(64)[11:12]
        fx, fy = evaluate_map(h_map, x), evaluate_map(h_map, y)
        target = image_distance(h_map, fx, fy)[0]
        # squared component differences per unit cell weight
        comp_sq = (fx - fy)[0] ** 2 / net.weights
        for lam in (0.2, 0.09, 0.013, 0.0017):
            counts = np.ceil(net.weights / lam).astype(int)
            points = np.repeat(net.points, counts, axis=0)
            rep_net = Net(points, net.delta, np.full(len(points), lam))
            h_rep = make_map("H", evaluator=circle_ev, net=rep_net, t=t)
            d = image_distance(h_rep, evaluate_map(h_rep, x),
                               evaluate_map(h_rep, y))[0]
            assert abs(d ** 2 - target ** 2) <= lam * comp_sq.sum() + 1e-14
        assert d == pytest.approx(target, rel=0.01)


class TestEvaluateMap:
    def test_scales_match_stated_normalizations(self):
        t, n = 0.07, 2
        assert map_scale("G", n, t) == pytest.approx(
            (2 * t) ** ((n + 1) / 2) * (2 * np.pi) ** (n / 2) * np.e ** 0.5)
        v_e = 1.0 / (math.sqrt(2.0) * (4 * math.pi) ** (n / 4.0))
        assert map_scale("H", n, t) == pytest.approx(
            (2 * t) ** ((n + 2) / 4) / v_e)
        assert map_scale("F", n, t) == pytest.approx(
            (2 * t) ** ((n + 2) / 4) * math.sqrt(2) * (4 * math.pi) ** (n / 4))

    def test_eigenmap_on_sphere_is_round(self):
        sphere = Sphere(1.0)
        ev = HeatEvaluator(compute_spectrum(sphere, 4), 3)
        t = 0.25
        fmap = make_map("F", evaluator=ev, eigencount=3, t=t)
        P = sphere.sample_points(200)
        image = evaluate_map(fmap, P)
        radii = np.linalg.norm(image, axis=1)
        expected = map_scale("F", 2, t) * np.exp(-2 * t) * np.sqrt(3 / (4 * np.pi))
        assert np.allclose(radii, expected, rtol=1e-10)

    def test_g_single_point_diagonal_positive(self, circle_ev):
        q = np.array([[1.0]])
        net = Net(q, 0.1, np.array([2 * np.pi]))
        g = make_map("G", evaluator=circle_ev, net=net, t=0.05)
        val = evaluate_map(g, q)
        assert val.shape == (1, 1)
        assert val[0, 0] > 0

    def test_kuratowski_components_are_distances(self):
        net = Net(np.array([[0.0], [np.pi]]), np.pi, np.array([np.pi, np.pi]))
        k = make_map("kuratowski", manifold=CIRCLE, net=net)
        img = evaluate_map(k, np.array([[0.0]]))
        assert np.allclose(img, [[0.0, np.pi]])

    @pytest.mark.parametrize("mesh, delta", [
        (make_sphere(1.0, 3), 0.4),
        (make_torus_mesh((2 * np.pi, 2 * np.pi), (24, 20)), 0.9)],
        ids=["icosphere3", "grid_torus"])
    def test_mesh_kuratowski_features_are_the_net_fields(self, mesh, delta):
        # a mesh net keeps its distance fields and the map reads them
        net = build_net(mesh, delta)
        P = mesh.sample_points()
        assert np.array_equal(net.fields, mesh.distance_between(net.points, P))
        k = make_map("kuratowski", manifold=mesh, net=net)
        pts = np.random.default_rng(4).permutation(P)[:100]
        want = mesh.distance_between(net.points, pts).T
        got = map_features(k, pts)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # a net built without fields falls back to the distance query
        bare = make_map("kuratowski", manifold=mesh,
                        net=Net(net.points, net.delta, net.weights))
        assert map_features(bare, pts).tobytes() == want.tobytes()

    def test_map_kind_validation(self, circle_ev):
        with pytest.raises(ValueError):
            make_map("X", evaluator=circle_ev)
        with pytest.raises(ValueError):
            make_map("G", evaluator=circle_ev, net=None, t=-1.0)
        with pytest.raises(ValueError):
            make_map("F", evaluator=circle_ev, eigencount=0, t=0.1)


class TestDilatation:
    def test_kuratowski_ratio_band(self, fine_net):
        k = make_map("kuratowski", manifold=CIRCLE, net=fine_net)
        h_near = 0.3
        rep = dilatation_report(k, CIRCLE, h_near, count=400, seed=3)
        assert rep.dil_max <= 1.0 + 1e-12
        assert rep.dil_max >= 1.0 - 2 * fine_net.delta / h_near

    def test_h_map_band_on_circle(self, circle_ev, fine_net):
        h = make_map("H", evaluator=circle_ev, net=fine_net, t=0.05)
        rep = dilatation_report(h, CIRCLE, 0.02, count=400, seed=3)
        assert 0.9 <= rep.dil_min and rep.dil_max <= 1.1

    def test_identity_scaled_ratios_are_one(self):
        # calibration: images displaced by exactly the geodesic distance
        ds = np.linspace(0.01, 0.1, 20)
        fx = np.zeros((20, 3))
        fy = np.column_stack([ds, np.zeros((20, 2))])
        emap = make_map("kuratowski", manifold=CIRCLE,
                        net=Net(np.array([[0.0]]), 1.0, np.array([1.0])))
        object.__setattr__(emap, "norm", "euclidean")
        ratios = image_distance(emap, fx, fy) / ds
        assert np.allclose(ratios, 1.0, atol=1e-14)

    def test_image_distance_below_the_squared_range(self, circle_ev,
                                                    fine_net):
        emap = make_map("H", evaluator=circle_ev, net=fine_net, t=0.1)
        rng = np.random.default_rng(4)
        fx, fy = (rng.normal(size=(50, 7)) * 10.0 ** rng.uniform(
            -140, 140, (50, 1)) for _ in range(2))
        # differences whose squares underflow: scaled by 2^-700 exactly
        tiny = rng.normal(size=7)
        fx[:3], fy[:3] = [1e-160, 1e-160, 0, 0, 0, 0, 0], 0.0
        fx[3] = fy[3]
        fx[4], fy[4] = tiny * 2.0 ** -700, 0.0
        got = image_distance(emap, fx, fy)
        assert got[0] == pytest.approx(math.sqrt(2) * 1e-160, rel=1e-15)
        assert got[3] == 0.0
        assert got[4] == pytest.approx(np.linalg.norm(tiny) * 2.0 ** -700,
                                       rel=1e-15)
        plain = np.linalg.norm(fx - fy, axis=-1)
        normal = plain >= 1e-150
        assert normal.sum() == 45
        assert got[normal].tobytes() == plain[normal].tobytes()

    def test_no_pairs_error(self, fine_net):
        k = make_map("kuratowski", manifold=CIRCLE, net=fine_net)
        with pytest.raises(ValueError):
            dilatation_report(k, CIRCLE, -1.0)

    def test_report_invariant_under_net_permutation(self, circle_ev, fine_net):
        perm = np.random.default_rng(5).permutation(len(fine_net))
        shuffled = Net(fine_net.points[perm], fine_net.delta,
                       fine_net.weights[perm])
        for kind in ("G", "H"):
            a = make_map(kind, evaluator=circle_ev, net=fine_net, t=0.05)
            b = make_map(kind, evaluator=circle_ev, net=shuffled, t=0.05)
            ra = dilatation_report(a, CIRCLE, 0.02, count=100, seed=11)
            rb = dilatation_report(b, CIRCLE, 0.02, count=100, seed=11)
            assert ra.dil_min == pytest.approx(rb.dil_min, rel=1e-12)
            assert ra.dil_max == pytest.approx(rb.dil_max, rel=1e-12)


class TestInjectivity:
    def test_kuratowski_margin(self, fine_net):
        k = make_map("kuratowski", manifold=CIRCLE, net=fine_net)
        inj = injectivity_report(k, CIRCLE, 0.5, count=300, seed=2)
        assert inj["margin"] >= 0.5 - 2 * fine_net.delta

    def test_thin_torus_collapse_and_recovery(self):
        torus = FlatTorus((2 * np.pi, 0.2 * np.pi))
        ev = HeatEvaluator(compute_spectrum(torus, 30), 29)
        rng = np.random.default_rng(0)
        x1 = rng.uniform(0, 2 * np.pi, 16)
        x2 = rng.uniform(0, 0.2 * np.pi, 16)
        a = np.column_stack([x1, x2])
        b = np.column_stack([x1, (x2 + 0.1 * np.pi) % (0.2 * np.pi)])
        d = torus.distance(a, b)
        assert d.min() >= 0.1 * np.pi - 1e-9
        # modes below the fiber gap are constant along the fiber
        f_lo = make_map("F", evaluator=ev, eigencount=18, t=0.01)
        lo = _injectivity(image_distance(f_lo, evaluate_map(f_lo, a),
                                         evaluate_map(f_lo, b)), 0.1)
        assert lo["margin"] <= 1e-8
        f_hi = make_map("F", evaluator=ev, eigencount=22, t=0.01)
        hi = _injectivity(image_distance(f_hi, evaluate_map(f_hi, a),
                                         evaluate_map(f_hi, b)), 0.1)
        assert hi["margin"] > 1e-3


class TestContinuousDilatation:
    def test_circle_near_one(self, circle_ev):
        for theta in (0.3, 2.0, 5.1):
            val = continuous_dilatation(circle_ev, np.array([theta]), 0.01)
            assert 0.95 <= val <= 1.05

    def test_vanishes_for_large_time(self, circle_ev):
        val = continuous_dilatation(circle_ev, np.array([0.5]), 50.0)
        assert val < 1e-6

    def test_matches_h_map_at_fine_net(self, circle_ev, fine_net):
        t = 0.05
        p = np.array([1.0])
        cont = continuous_dilatation(circle_ev, p, t)
        h = make_map("H", evaluator=circle_ev, net=fine_net, t=t)
        xs, ys, ds = sample_near_pairs(CIRCLE, 0.02, 60,
                                       np.random.default_rng(4))
        rep = _dilatation(h, image_distance(h, evaluate_map(h, xs),
                                            evaluate_map(h, ys)), ds, 0.02)
        coarseness = fine_net.delta / math.sqrt(2 * t)
        assert abs(rep.quantile(0.5) - cont) <= 3 * coarseness

    def test_requires_positive_time(self, circle_ev):
        with pytest.raises(ValueError):
            continuous_dilatation(circle_ev, np.array([0.0]), 0.0)


class TestBasisInvariance:
    @staticmethod
    def _rotated_circle_spectrum(angle):
        """Circle spectrum with the k=1 eigenspace basis rotated."""
        spec = compute_spectrum(CIRCLE, 12)
        basis = CIRCLE.eigenbasis(12)

        class Rotated:
            eigenvalues = basis.eigenvalues

            def values(self, P):
                v = basis.values(P)
                c, s = np.cos(angle), np.sin(angle)
                out = v.copy()
                out[:, 1] = c * v[:, 1] + s * v[:, 2]
                out[:, 2] = -s * v[:, 1] + c * v[:, 2]
                return out

            def gradients(self, P):
                g = basis.gradients(P)
                c, s = np.cos(angle), np.sin(angle)
                out = g.copy()
                out[:, 1] = c * g[:, 1] + s * g[:, 2]
                out[:, 2] = -s * g[:, 1] + c * g[:, 2]
                return out

            def sup_norms(self):
                return basis.sup_norms()

            def grad_sup_norms(self):
                return basis.grad_sup_norms()

        return Spectrum(basis.eigenvalues, CIRCLE, basis=Rotated())

    def test_kernel_maps_invariant_under_rebasing(self, fine_net):
        ev_a = HeatEvaluator(compute_spectrum(CIRCLE, 12), 11)
        ev_b = HeatEvaluator(self._rotated_circle_spectrum(0.83), 11)
        X = CIRCLE.sample_points(16)
        for kind in ("G", "H"):
            ma = make_map(kind, evaluator=ev_a, net=fine_net, t=0.2)
            mb = make_map(kind, evaluator=ev_b, net=fine_net, t=0.2)
            assert np.allclose(evaluate_map(ma, X), evaluate_map(mb, X),
                               atol=1e-12)

    def test_eigenmap_distances_invariant_under_rebasing(self):
        ev_a = HeatEvaluator(compute_spectrum(CIRCLE, 12), 11)
        ev_b = HeatEvaluator(self._rotated_circle_spectrum(1.2), 11)
        fa = make_map("F", evaluator=ev_a, eigencount=4, t=0.3)
        fb = make_map("F", evaluator=ev_b, eigencount=4, t=0.3)
        X = CIRCLE.sample_points(24)
        da = np.linalg.norm(evaluate_map(fa, X)[:, None]
                            - evaluate_map(fa, X)[None, :], axis=-1)
        db = np.linalg.norm(evaluate_map(fb, X)[:, None]
                            - evaluate_map(fb, X)[None, :], axis=-1)
        assert np.abs(da - db).max() < 1e-10

    def test_sign_flip_invariance(self, fine_net):
        spec = compute_spectrum(CIRCLE, 12)
        flipped = compute_spectrum(CIRCLE, 12)

        class SignFlipped:
            eigenvalues = flipped.basis.eigenvalues

            def values(self, P):
                v = flipped.basis.values(P)
                v[:, 3] *= -1
                return v

            def gradients(self, P):
                g = flipped.basis.gradients(P)
                g[:, 3] *= -1
                return g

            def sup_norms(self):
                return flipped.basis.sup_norms()

            def grad_sup_norms(self):
                return flipped.basis.grad_sup_norms()

        ev_a = HeatEvaluator(spec, 11)
        ev_b = HeatEvaluator(Spectrum(flipped.eigenvalues, CIRCLE,
                                      basis=SignFlipped()), 11)
        X = CIRCLE.sample_points(16)
        g_a = make_map("G", evaluator=ev_a, net=fine_net, t=0.2)
        g_b = make_map("G", evaluator=ev_b, net=fine_net, t=0.2)
        assert np.allclose(evaluate_map(g_a, X), evaluate_map(g_b, X),
                           atol=1e-13)


class TestScan:
    def test_g_band_degrades_for_small_t(self, circle_ev, fine_net):
        # fixed net, shrinking t: the max-norm dilatation rises toward 1
        # and then collapses once the kernel scale falls below the net gap
        results, best = scan_embedding("G", evaluator=circle_ev, net=fine_net,
                                       t_max=0.8, levels=13, h_near=0.02,
                                       h_far=0.5, count=150, seed=9)
        mins = [r["report"].dil_min for r in results]
        peak = int(np.argmax(mins))
        assert 0 < peak < len(mins) - 1
        assert mins[-1] < 0.6 * mins[peak]
        assert best["t"] == results[peak]["t"] or abs(
            max(abs(results[peak]["report"].dil_max - 1),
                abs(1 - results[peak]["report"].dil_min))
            - max(abs(best["report"].dil_max - 1),
                  abs(1 - best["report"].dil_min))) < 0.05


def test_mesh_h_near_resolution_guard():
    mesh = make_sphere(1.0, 2)
    ev = HeatEvaluator(compute_spectrum(mesh, 10), 9)
    net = build_net(mesh, 1.0)
    emap = make_map("G", evaluator=ev, net=net, t=0.1)
    with pytest.raises(ValueError, match="edge lengths"):
        dilatation_report(emap, mesh, 0.5 * mesh.mean_edge_length())


@pytest.fixture(scope="module")
def ico2_setup():
    mesh = make_sphere(1.0, 2)
    return mesh, HeatEvaluator(compute_spectrum(mesh, 40), 39), \
        build_net(mesh, 0.6)


@pytest.mark.parametrize("backend", ["circle", "icosphere2"])
@pytest.mark.parametrize("kind", ["G", "H", "F", "kuratowski"])
def test_scan_equals_level_by_level_reports(backend, kind, circle_ev,
                                            ico2_setup):
    if backend == "circle":
        man, ev, net = CIRCLE, circle_ev, build_net(CIRCLE, 0.3)
        h_near, h_far = 0.05, 1.0
    else:
        man, ev, net = ico2_setup
        h_near, h_far = 3.5 * man.mean_edge_length(), 1.0
    opts = dict(evaluator=ev, net=net, manifold=man, eigencount=5)
    results, best = scan_embedding(kind, t_max=0.4, levels=3, h_near=h_near,
                                   h_far=h_far, count=60, seed=4, **opts)
    assert [r["t"] for r in results] == [0.4, 0.2, 0.1]
    for r in results:
        emap = make_map(kind, t=r["t"], **opts)
        rep = dilatation_report(emap, man, h_near, count=60, seed=4)
        inj = injectivity_report(emap, man, h_far, count=60, seed=4)
        assert r["report"].ratios.tobytes() == rep.ratios.tobytes()
        assert np.array_equal(r["report"].distances, rep.distances)
        assert r["report"].summary() == rep.summary()
        assert r["injectivity"] == inj
    assert any(best is r for r in results)


def test_scan_mesh_h_near_guard_fires_before_sampling(monkeypatch):
    from spectral_embed import embed
    mesh = make_sphere(1.0, 2)
    ev = HeatEvaluator(compute_spectrum(mesh, 10), 9)
    net = build_net(mesh, 1.0)

    def no_sampling(*args, **kwargs):
        raise AssertionError("pairs sampled before the h_near guard")

    monkeypatch.setattr(embed, "sample_near_pairs", no_sampling)
    monkeypatch.setattr(embed, "sample_far_pairs", no_sampling)
    h_near = 0.5 * mesh.mean_edge_length()
    with pytest.raises(ValueError, match="^h_near below 3 mesh edge lengths: "
                       "difference quotients would be dominated by graph "
                       "error$"):
        scan_embedding("G", evaluator=ev, net=net, h_near=h_near, h_far=1.0,
                       levels=2)
    emap = make_map("G", evaluator=ev, net=net, t=0.1)
    with pytest.raises(ValueError, match="edge lengths"):
        dilatation_report(emap, mesh, h_near)


def test_scan_needs_a_level(circle_ev, fine_net):
    with pytest.raises(ValueError, match="at least one level"):
        scan_embedding("G", evaluator=circle_ev, net=fine_net, levels=0,
                       h_near=0.02, h_far=0.5)


ICOSPHERE3 = make_sphere(1.0, 3)
GRID_TORUS_24X20 = make_torus_mesh((2 * np.pi, np.pi), (24, 20))


@pytest.mark.parametrize(
    "mesh, seed",
    [(make_sphere(1.0, 2), 5),
     (make_torus_mesh((2 * np.pi, 2 * np.pi), (16, 16)), 5)]
    + [(ICOSPHERE3, seed) for seed in (0, 3, 11)]
    + [(GRID_TORUS_24X20, seed) for seed in (1, 7)],
    ids=["icosphere2", "grid_torus", "icosphere3-0", "icosphere3-3",
         "icosphere3-11", "grid_torus_24x20-1", "grid_torus_24x20-7"])
def test_mesh_pairs_match_one_field_per_source(mesh, seed):
    # one unbounded graph_distance_from per source, vertices appended one
    # at a time; the near sampler's search stops at h_near
    def near_reference(h_near, count, rng):
        nv = len(mesh.vertices)
        xs, ys, ds = [], [], []
        for s in rng.choice(nv, size=min(64, nv), replace=False):
            field = mesh.graph_distance_from(s)
            for v in np.nonzero((field > 0) & (field <= h_near))[0]:
                xs.append(s)
                ys.append(int(v))
                ds.append(field[v])
        idx = rng.permutation(len(xs))[:count]
        return np.asarray(xs)[idx], np.asarray(ys)[idx], np.asarray(ds)[idx]

    def far_reference(h_far, count, rng):
        nv = len(mesh.vertices)
        sources = rng.choice(nv, size=min(32, nv), replace=False)
        per = max(4, count // len(sources))
        xs, ys, ds = [], [], []
        for s in sources:
            field = mesh.graph_distance_from(s)
            far = np.nonzero(field >= h_far)[0]
            if far.size:
                for v in rng.choice(far, size=min(per, far.size),
                                    replace=False):
                    xs.append(s)
                    ys.append(int(v))
                    ds.append(field[v])
        idx = rng.permutation(len(xs))[:count]
        return np.asarray(xs)[idx], np.asarray(ys)[idx], np.asarray(ds)[idx]

    h_near = 4 * mesh.resolution()
    # a threshold most vertices miss, so some sources keep fewer than `per`
    h_far = 0.8 * mesh.diameter()
    for count in (1, 37, 400):
        for sampler, reference, h in ((sample_near_pairs, near_reference,
                                       h_near),
                                      (sample_far_pairs, far_reference,
                                       h_far)):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            got = sampler(mesh, h, count, rng_a)
            ref = reference(h, count, rng_b)
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
            assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


@pytest.mark.parametrize("man", [CIRCLE, Sphere(1.0),
                                 FlatTorus((2 * np.pi, 0.5))],
                         ids=["circle", "sphere", "torus"])
def test_closed_form_pairs_are_sample_points(man):
    P = man.sample_points()
    rows = {p.tobytes(): i for i, p in enumerate(P)}
    h_near, h_far = 4 * man.resolution(), man.diameter() / 8
    rng = np.random.default_rng(3)
    near = sample_near_pairs(man, h_near, 400, rng)
    far = sample_far_pairs(man, h_far, 400, rng)
    assert len(near[0]) == 400 and len(far[0]) == 384
    for xs, ys, ds in (near, far):
        assert all(p.tobytes() in rows for p in np.vstack([xs, ys]))
        assert np.array_equal(ds, man.distance(xs, ys))
    assert np.all((near[2] > 0) & (near[2] <= h_near))
    assert np.all(far[2] >= h_far)


_BLOCK_BACKENDS = {
    "circle": lambda: CIRCLE, "torus": lambda: FlatTorus((2 * np.pi, 0.5)),
    "sphere": lambda: Sphere(1.0), "icosphere3": lambda: ICOSPHERE3,
    "grid_torus": lambda: GRID_TORUS_24X20}


def _scale(man, sampler):
    """The near pairs' default h_near, or the far pairs' default h_far."""
    return (4 * man.resolution() if sampler is sample_near_pairs
            else man.diameter() / 8)


@pytest.mark.parametrize("name", sorted(_BLOCK_BACKENDS))
@pytest.mark.parametrize("sampler", [sample_near_pairs, sample_far_pairs])
def test_source_blocks_match_one_block(name, sampler, monkeypatch):
    # blocks of 8, 3 and 1 sources, the last of 3 short, against one block
    from spectral_embed import embed
    man = _BLOCK_BACKENDS[name]()
    h = _scale(man, sampler)
    got = [sampler(man, h, 400, np.random.default_rng(5))]
    for block in (3, 1, 1 << 20):
        monkeypatch.setattr(embed, "SOURCE_BLOCK", block)
        got.append(sampler(man, h, 400, np.random.default_rng(5)))
    *got, ref = got
    for pairs in got:
        for a, b in zip(pairs, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_BLOCK_BACKENDS))
@pytest.mark.parametrize("sampler", [sample_near_pairs, sample_far_pairs])
def test_no_pair_joins_a_point_to_itself(name, sampler):
    # the sampler keeps d > 0 or d >= h_far > 0, and every backend's
    # distance from a point to itself is exactly 0
    man = _BLOCK_BACKENDS[name]()
    P = man.sample_points()
    rows = {p.tobytes(): i for i, p in enumerate(P)}
    h = _scale(man, sampler)
    xs, ys, ds = sampler(man, h, 400, np.random.default_rng(3))
    ix = [rows[p.tobytes()] for p in xs]
    iy = [rows[p.tobytes()] for p in ys]
    assert len(ix) and not np.any(np.equal(ix, iy))
    assert np.all(ds > 0)


@pytest.mark.parametrize("man", [CIRCLE, FlatTorus((2 * np.pi, 2 * np.pi))],
                         ids=["circle", "torus"])
@pytest.mark.parametrize("sampler", [sample_near_pairs, sample_far_pairs])
def test_pair_sampling_peak_memory(man, sampler, traced_peak):
    # 4096 samples: fields of 8 sources at a time peak near 1.2 MiB; one
    # (64, 4096) array of every near source's field took 4.0 MiB on the
    # circle and 6.1 on the torus, one (32, 4096) of the far ones 2.0 and 3.1
    h = _scale(man, sampler)
    _, peak = traced_peak(sampler, man, h, 400, np.random.default_rng(0))
    assert peak <= 1.5 * 2 ** 20


@pytest.mark.parametrize("kind", ["G", "H", "F", "kuratowski"])
def test_scan_matches_per_endpoint_images(kind, circle_ev):
    # a scan maps the feature difference of each pair; mapping both ends
    # and subtracting the images agrees to roundoff
    net = build_net(CIRCLE, 0.3)
    opts = dict(evaluator=circle_ev, net=net, manifold=CIRCLE, eigencount=9)
    results, _ = scan_embedding(kind, t_max=0.4, levels=4, h_near=0.05,
                                h_far=1.0, count=200, seed=6, **opts)
    near = sample_near_pairs(CIRCLE, 0.05, 200, np.random.default_rng(6))
    far = sample_far_pairs(CIRCLE, 1.0, 200, np.random.default_rng(6))
    for r in results:
        emap = make_map(kind, t=r["t"], **opts)
        xs, ys, ds = near
        ratios = image_distance(emap, evaluate_map(emap, xs),
                                evaluate_map(emap, ys)) / ds
        np.testing.assert_allclose(r["report"].ratios, ratios, rtol=1e-12,
                                   atol=0)
        seps = image_distance(emap, evaluate_map(emap, far[0]),
                              evaluate_map(emap, far[1]))
        assert r["injectivity"]["margin"] == pytest.approx(seps.min(),
                                                           rel=1e-12)
