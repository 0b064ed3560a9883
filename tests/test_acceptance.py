"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

from spectral_embed.manifold import Circle, FlatTorus, make_sphere, \
    make_torus_mesh
from spectral_embed.spectrum import (GeometryBounds, compute_spectrum,
                                     truncation_index)
from spectral_embed.heat import HeatEvaluator, varadhan_check, \
    varadhan_time_grid
from spectral_embed.embed import (build_net, continuous_dilatation,
                                  evaluate_map, image_distance, make_map,
                                  scan_embedding)
from spectral_embed.charts import convergence_study, ellipticity_sweep
from spectral_embed.radius import (abresch_gromoll, coordinate_radius,
                                   distance_coordinates_experiment,
                                   harmonic_coordinates_experiment,
                                   holder_constant, segment_constant)

from test_radius import mp_holder_constant


CIRCLE = Circle(2 * np.pi, samples=4096)

# circle-calibrated growth constants: the lower bound becomes k^2/4,
# which the true spectrum ceil(k/2)^2 dominates
CIRCLE_BOUNDS = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                               a=2 * math.e * np.pi ** 2, C=1.0, r_h=1.0)


@pytest.fixture(scope="module")
def circle_spec():
    return compute_spectrum(CIRCLE, 700)


@pytest.fixture(scope="module")
def circle_ev(circle_spec):
    return HeatEvaluator(circle_spec, circle_spec.count - 1)


@pytest.fixture(scope="module")
def sphere_mesh():
    return make_sphere(1.0, 4)


def test_criterion_01_spectrum_fidelity(sphere_mesh):
    start = time.perf_counter()
    spec = compute_spectrum(sphere_mesh, 17)
    elapsed = time.perf_counter() - start
    lam = spec.eigenvalues
    assert lam[0] == 0.0
    assert np.allclose(lam[1:4], 2.0, rtol=0.02)      # multiplicity 3
    assert np.allclose(lam[4:9], 6.0, rtol=0.02)      # multiplicity 5
    assert np.allclose(lam[9:16], 12.0, rtol=0.02)    # multiplicity 7
    assert lam[16] > 12.0 * 1.02                       # band really ends
    assert elapsed < 60.0
    print(f"\nPASS 1 spectrum fidelity: icosphere bands within 2% "
          f"({elapsed:.1f}s)")


def test_criterion_02_kernel_truncation(circle_spec):
    t, eps = 0.5, 1e-6
    n0 = truncation_index(circle_spec, t, eps, CIRCLE_BOUNDS)
    P = CIRCLE.sample_points(512)
    V = circle_spec.values(P)
    G = circle_spec.gradients(P)[:, :, 0]
    w = np.exp(-circle_spec.eigenvalues * t)

    def sup_diffs(n):
        hi = min(2 * n + 1, circle_spec.count)
        kv = (V[:, n + 1:hi] * w[n + 1:hi]) @ V[:, n + 1:hi].T
        kg = (G[:, n + 1:hi] * w[n + 1:hi]) @ V[:, n + 1:hi].T
        return np.abs(kv).max(), np.abs(kg).max()

    for n in range(n0, 41):
        dv, dg = sup_diffs(n)
        assert dv < eps, f"kernel tail {dv} at N={n}"
        assert dg < eps, f"gradient tail {dg} at N={n}"

    # never under-reports against the brute-force oracle
    rng = np.random.default_rng(42)
    full = (V * w) @ V.T
    for _ in range(20):
        tt = float(rng.uniform(0.3, 2.0))
        ee = float(10.0 ** rng.uniform(-8, -3))
        n_bound = truncation_index(circle_spec, tt, ee, CIRCLE_BOUNDS)
        ww = np.exp(-circle_spec.eigenvalues * tt)
        ffull = (V * ww) @ V.T
        gfull = (G * ww) @ V.T
        n_true = circle_spec.count - 1
        for n in range(circle_spec.count - 1):
            part = (V[:, :n + 1] * ww[:n + 1]) @ V[:, :n + 1].T
            gpart = (G[:, :n + 1] * ww[:n + 1]) @ V[:, :n + 1].T
            if (np.abs(part - ffull).max() < ee
                    and np.abs(gpart - gfull).max() < ee):
                n_true = n
                break
        assert n_bound >= n_true, (tt, ee, n_bound, n_true)
    print(f"\nPASS 2 kernel truncation: N0={n0} certified, 20 random pairs "
          f"never under-reported")


def test_criterion_03_varadhan(circle_ev):
    start = time.perf_counter()
    distances = [0.5, 1.0, np.pi]
    pairs = [(np.array([0.0]), np.array([d])) for d in distances]
    grids = [varadhan_time_grid(d) for d in distances]
    rep = varadhan_check(circle_ev, pairs, grids, bounds=CIRCLE_BOUNDS)
    elapsed = time.perf_counter() - start
    for row in rep.rows:
        assert row.rel_error < 0.05, (row.distance, row.rel_error)
    assert elapsed < 10.0
    print(f"\nPASS 3 varadhan: max rel error "
          f"{rep.max_rel_error():.4f} < 0.05 ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def circle_net():
    return build_net(CIRCLE, 0.05)


def test_criterion_04_max_norm_isometry(circle_ev, circle_net):
    results, best = scan_embedding("G", evaluator=circle_ev, net=circle_net,
                                   t_max=0.8, levels=8, h_near=0.02,
                                   h_far=0.5, count=400, seed=0)
    rep = best["report"]
    assert rep.dil_min >= 0.85 and rep.dil_max <= 1.15
    assert best["injectivity"]["margin"] > 0
    print(f"\nPASS 4 max-norm isometry: t={best['t']} band "
          f"[{rep.dil_min:.3f}, {rep.dil_max:.3f}], margin "
          f"{best['injectivity']['margin']:.3f}")


def test_criterion_05_euclidean_isometry(circle_ev, circle_net):
    results, best = scan_embedding("H", evaluator=circle_ev, net=circle_net,
                                   t_max=0.8, levels=8, h_near=0.02,
                                   h_far=0.5, count=400, seed=0)
    rep = best["report"]
    assert rep.dil_min >= 0.85 and rep.dil_max <= 1.15

    rng = np.random.default_rng(1)
    thetas = rng.uniform(0, 2 * np.pi, 10)
    vals = [continuous_dilatation(circle_ev, np.array([th]), 0.01)
            for th in thetas]
    assert all(0.95 <= v <= 1.05 for v in vals)
    print(f"\nPASS 5 euclidean isometry: t={best['t']} band "
          f"[{rep.dil_min:.3f}, {rep.dil_max:.3f}], continuous dilatation "
          f"[{min(vals):.3f}, {max(vals):.3f}]")


def test_criterion_06_eigenmap(sphere_mesh):
    spec = compute_spectrum(sphere_mesh, 5)
    ev = HeatEvaluator(spec, 4)
    fmap = make_map("F", evaluator=ev, eigencount=3, t=0.5)
    image = evaluate_map(fmap, sphere_mesh.sample_points())
    radii = np.linalg.norm(image, axis=1)
    roundness = radii.max() / radii.min() - 1.0
    assert roundness < 0.05

    results, best = scan_embedding("F", evaluator=ev, eigencount=3,
                                   t_max=2.0, levels=6,
                                   h_near=4 * sphere_mesh.mean_edge_length(),
                                   h_far=1.0, count=400, seed=0)
    rep = best["report"]
    assert rep.within_band(0.8, 1.2) >= 0.95
    print(f"\nPASS 6 eigenmap: roundness {roundness:.4f} < 0.05, "
          f"{100 * rep.within_band(0.8, 1.2):.1f}% of ratios in [0.8, 1.2] "
          f"at t={best['t']}")


def test_criterion_07_thin_torus_counterexample():
    torus = FlatTorus((2 * np.pi, 0.2 * np.pi))
    spec = compute_spectrum(torus, 30)
    ev = HeatEvaluator(spec, 29)
    below_gap = int(np.sum(spec.eigenvalues < 100.0 - 1e-9)) - 1
    with_gap = int(np.sum(spec.eigenvalues <= 100.0 + 1e-9)) - 1
    rng = np.random.default_rng(3)
    x1 = rng.uniform(0, 2 * np.pi, 24)
    x2 = rng.uniform(0, 0.2 * np.pi, 24)
    a = np.column_stack([x1, x2])
    b = np.column_stack([x1, (x2 + 0.1 * np.pi) % (0.2 * np.pi)])
    seps = torus.distance(a, b)
    assert seps.min() >= 0.1 * np.pi - 1e-12

    f_lo = make_map("F", evaluator=ev, eigencount=below_gap, t=0.01)
    margin_lo = float(image_distance(
        f_lo, evaluate_map(f_lo, a), evaluate_map(f_lo, b)).min())
    f_hi = make_map("F", evaluator=ev, eigencount=with_gap, t=0.01)
    margin_hi = float(image_distance(
        f_hi, evaluate_map(f_hi, a), evaluate_map(f_hi, b)).min())
    assert margin_lo <= 1e-8
    assert margin_hi > 1e-3
    print(f"\nPASS 7 thin-torus counterexample: margin {margin_lo:.2e} "
          f"below the gap, {margin_hi:.2e} with the lambda=100 band")


def test_criterion_08_charts():
    start = time.perf_counter()
    errors, ratios, _ = convergence_study([41, 81, 161])
    for r in ratios:
        assert 3.0 <= r <= 5.0, ratios
    sups, grads, slope = ellipticity_sweep([0.02, 0.04, 0.08],
                                           nodes=401, steps=512)
    assert 0.7 <= slope <= 1.3
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS 8 charts: convergence ratios "
          f"{[round(r, 2) for r in ratios]} in [3,5], sweep slope "
          f"{slope:.3f} in [0.7,1.3] ({elapsed:.1f}s)")


def test_criterion_09_appendix_constants():
    for n in (1, 2, 3, 4):
        assert segment_constant(n, 0.0) == 2.0 ** (n - 1)

    for (big_r, r) in ((2.0, 0.5), (5.0, 1.0), (1.0, 0.999)):
        assert abresch_gromoll(1, 0.7, big_r, r) == pytest.approx(
            (big_r - r) ** 2 / 2.0, abs=1e-10)

    rs = np.geomspace(1e-5, 0.05, 100)
    for r in rs:
        mine = holder_constant(2, r, 1.0)
        other = mp_holder_constant(2, r, 1.0)
        assert abs(mine - other) <= 1e-10 * other

    res = coordinate_radius(2, 1.0, 1.0)
    cap = 1.0 / 64.0
    grid = np.linspace(res.r * 0.5, cap, 20000)
    ok = [holder_constant(2, g, 1.0) * math.sqrt(g) < 0.25 for g in grid]
    last_ok = grid[np.nonzero(ok)[0][-1]]
    assert abs(last_ok - res.r) <= (grid[1] - grid[0]) + 1e-12
    print("\nPASS 9 appendix constants: segment constant exact, "
          "comparison barrier 1e-10, duplicate-path Holder constant 1e-10, "
          "bisection matches grid scan")


def test_criterion_10_appendix_mesh_experiments():
    mesh = make_torus_mesh((2 * np.pi, 2 * np.pi), (768, 768))
    iota = np.pi
    r = 0.02
    drep, fields = distance_coordinates_experiment(mesh, 0, r, iota=iota)
    assert 0.95 <= drep.gram_eigen_min <= drep.gram_eigen_max <= 1.05
    hrep, _ = harmonic_coordinates_experiment(mesh, 0, r, iota=iota,
                                              fields=fields)
    assert hrep.max_principle_ok
    assert hrep.sup_deviation <= 0.05
    print(f"\nPASS 10 appendix mesh experiments: gram eigenvalues "
          f"[{drep.gram_eigen_min:.3f}, {drep.gram_eigen_max:.3f}], "
          f"max principle holds at {hrep.interior_vertices} interior "
          f"vertices, deviation {hrep.sup_deviation:.4f} <= 0.05")
