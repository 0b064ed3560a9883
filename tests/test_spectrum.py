import math

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from hypothesis import given, settings, strategies as st

from spectral_embed import spectrum
from spectral_embed.manifold import (Circle, FlatTorus, OperatorPair,
                                     make_sphere, make_torus_mesh,
                                     assemble_laplacian)
from spectral_embed.spectrum import (
    EigensolverError, GeometryBounds, TruncationError, compute_spectrum,
    eigen_growth_check, eigenfunction_sup_bounds, truncation_index,
    default_faber_krahn, default_trace_constant)
from spectral_embed.spectrum import (_band_shift_invert, _canonical_basis,
                                     _lowest_off_span, _multiplets,
                                     _tail_terms, _upper_gamma)


CIRCLE = Circle(2 * np.pi)

# constants making the growth lower bound coincide with the circle's
# even-index eigenvalues: a = 2 e pi^2, C = 1 give bound(k) = k^2 / 4
CALIBRATED = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                            a=2 * math.e * np.pi ** 2, C=1.0, r_h=1.0)


@pytest.fixture(scope="module")
def circle200():
    return compute_spectrum(CIRCLE, 200)


@pytest.fixture(scope="module")
def sphere_mesh_spec():
    return compute_spectrum(make_sphere(1.0, 3), 17)


class TestComputeSpectrum:
    def test_circle_first_five(self):
        spec = compute_spectrum(CIRCLE, 5)
        assert np.allclose(spec.eigenvalues, [0, 1, 1, 4, 4])
        sups = spec.sup_norms()
        assert np.allclose(sups[1:], 1 / np.sqrt(np.pi))

    def test_single_mode(self):
        spec = compute_spectrum(CIRCLE, 1)
        assert spec.eigenvalues[0] == 0.0
        vals = spec.values(CIRCLE.sample_points(16))
        assert np.allclose(vals[:, 0], 1 / np.sqrt(2 * np.pi))

    def test_sphere_mesh_bands(self, sphere_mesh_spec):
        lam = sphere_mesh_spec.eigenvalues
        assert lam[0] == 0.0
        assert np.allclose(lam[1:4], 2.0, rtol=0.02)
        assert np.allclose(lam[4:9], 6.0, rtol=0.02)
        assert np.allclose(lam[9:16], 12.0, rtol=0.02)

    def test_mesh_orthonormality_and_rayleigh(self, sphere_mesh_spec):
        spec = sphere_mesh_spec
        ops = spec.operator_pair
        gram = spec.vectors.T @ (ops.mass @ spec.vectors)
        assert np.abs(gram - np.eye(spec.count)).max() < 1e-8
        for k in (1, 4, 11):
            phi = spec.vectors[:, k]
            rq = (phi @ (ops.stiffness @ phi)) / (phi @ (ops.mass @ phi))
            assert rq == pytest.approx(spec.eigenvalues[k], rel=1e-8)

    def test_sign_convention(self, sphere_mesh_spec):
        for k in range(sphere_mesh_spec.count):
            col = sphere_mesh_spec.vectors[:, k]
            idx = np.nonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0][0]
            assert col[idx] > 0

    def test_mesh_values_are_vertex_fields(self, sphere_mesh_spec):
        spec = sphere_mesh_spec
        nv = len(spec.manifold.vertices)
        assert np.array_equal(spec.values(np.arange(nv)), spec.vectors)
        assert np.array_equal(spec.basis.vectors, spec.vectors)

    def test_mesh_grad_sup_norms_match_single_fields(self, sphere_mesh_spec):
        # the batched (V, K) gradient path sums in the same order as (V,)
        spec = sphere_mesh_spec
        mesh = spec.manifold
        single = [np.linalg.norm(mesh.face_gradients(spec.vectors[:, k]),
                                 axis=1).max() for k in range(spec.count)]
        assert np.array_equal(spec.grad_sup_norms(), single)

    def test_flat_frames_give_the_tiled_vertex_gradients(self):
        # the read-only frame view projects as the (V, 2, 3) copy did
        mesh = make_torus_mesh((2 * np.pi, 3.0), (24, 20))
        vectors = np.random.default_rng(2).normal(size=(len(mesh.vertices),
                                                        9))
        got = spectrum._VertexBasis(mesh, vectors)._vertex_gradients
        mesh._frames = np.tile(np.eye(2, 3), (len(mesh.vertices), 1, 1))
        want = spectrum._VertexBasis(mesh, vectors)._vertex_gradients
        assert got.tobytes() == want.tobytes()

    def test_constant_mode(self, sphere_mesh_spec):
        phi0 = sphere_mesh_spec.vectors[:, 0]
        assert np.allclose(np.abs(phi0),
                           1 / np.sqrt(sphere_mesh_spec.volume), rtol=1e-6)

    def test_mesh_constant_mode_checked(self, monkeypatch):
        # mass-orthonormal for twice the lumped mass: the constant is
        # 1/sqrt(2V), not 1/sqrt(V)
        mesh = make_sphere(1.0, 2)

        def doubled(mesh):
            ops = assemble_laplacian(mesh)
            return OperatorPair(ops.stiffness, 2 * ops.mass)

        monkeypatch.setattr(spectrum, "assemble_laplacian", doubled)
        with pytest.raises(ValueError,
                           match=r"constant eigenfunction is not \+-1/sqrt"):
            compute_spectrum(mesh, 5)

    def test_grid_torus_matches_lattice(self):
        mesh = make_torus_mesh((2 * np.pi, 2 * np.pi), (48, 48))
        spec = compute_spectrum(mesh, 17)
        exact = compute_spectrum(FlatTorus((2 * np.pi, 2 * np.pi)), 17)
        assert np.allclose(spec.eigenvalues, exact.eigenvalues, rtol=0.02,
                           atol=1e-9)

    def test_mesh_refinement_improves_eigenvalues(self):
        analytic = [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7
        errs = []
        for s in (2, 3):
            lam = compute_spectrum(make_sphere(1.0, s), 16).eigenvalues
            errs.append(np.abs(lam - analytic[:16]).max())
        assert errs[1] < errs[0]

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            compute_spectrum(CIRCLE, 0)
        mesh = make_sphere(1.0, 0)
        with pytest.raises(ValueError):
            compute_spectrum(mesh, 12)


ICOSPHERE3 = make_sphere(1.0, 3)


@pytest.fixture(scope="module")
def ico3_spec39():
    # 39 modes end a multiplet: the 40th starts a 5-fold one
    return compute_spectrum(ICOSPHERE3, 39)


def _generalized_solve(mesh, count):
    """The generalized shift-invert solve of K and M, a second solver."""
    ops = assemble_laplacian(mesh)
    sigma = -1e-2 * (ops.stiffness.diagonal().mean()
                     / ops.mass.diagonal().mean())
    return spla.eigsh(ops.stiffness, k=count, M=ops.mass, sigma=sigma,
                      which="LM", v0=np.ones(len(mesh.vertices)), tol=0)


class TestEigenspaceBasis:
    def test_icosahedral_multiplets(self, ico3_spec39):
        sizes = [j - k for k, j in _multiplets(ico3_spec39.eigenvalues)]
        assert sizes == [1, 3, 5, 4, 3, 4, 5, 5, 3, 3, 3]

    def test_rotation_invariant(self, ico3_spec39):
        spec, rng = ico3_spec39, np.random.default_rng(7)
        rotated = spec.vectors.copy()
        for k, j in _multiplets(spec.eigenvalues):
            q = np.linalg.qr(rng.standard_normal((j - k, j - k)))[0]
            rotated[:, k:j] = rotated[:, k:j] @ q
        assert np.abs(rotated - spec.vectors).max() > 0.1
        lams, vectors = _canonical_basis(spec.eigenvalues.copy(), rotated,
                                         ICOSPHERE3.masses)
        assert np.array_equal(lams, spec.eigenvalues)
        assert np.abs(vectors - spec.vectors).max() <= 1e-12

    def test_generalized_solver_agrees(self, ico3_spec39):
        spec = ico3_spec39
        lams, vectors = _canonical_basis(*_generalized_solve(ICOSPHERE3, 39),
                                         ICOSPHERE3.masses)
        assert np.allclose(lams, spec.eigenvalues, rtol=1e-10, atol=1e-12)
        assert np.abs(vectors - spec.vectors).max() <= 1e-9

    def test_mass_orthonormal_with_signs_fixed(self, ico3_spec39):
        spec = ico3_spec39
        gram = spec.vectors.T @ (ICOSPHERE3.masses[:, None] * spec.vectors)
        assert np.abs(gram - np.eye(spec.count)).max() < 1e-12
        for col in spec.vectors.T:
            idx = np.nonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0][0]
            assert col[idx] > 0


def _standard_form(mesh):
    """D K D with D = M^(-1/2), its shift and D, as compute_spectrum forms
    them."""
    ops = assemble_laplacian(mesh)
    masses = ops.mass.diagonal()
    d = sparse.diags(1.0 / np.sqrt(masses))
    sigma = -1e-2 * ops.stiffness.diagonal().mean() / masses.mean()
    return d @ ops.stiffness @ d, sigma, d


def _superlu(a, sigma):
    """SuperLU of a - sigma I, the default shift-invert factor of eigsh."""
    return spla.splu((a - sigma * sparse.identity(a.shape[0])).tocsc())


@pytest.fixture(scope="module")
def icosphere5():
    return make_sphere(1.0, 5)


class TestBandShiftInvert:
    @pytest.mark.parametrize("mesh", [
        ICOSPHERE3, make_torus_mesh((2 * np.pi, np.pi), (24, 20))],
        ids=["icosphere3", "grid_torus_24x20"])
    def test_solve_matches_superlu(self, mesh):
        a, sigma, _ = _standard_form(mesh)
        op, lu = _band_shift_invert(a, sigma), _superlu(a, sigma)
        for x in np.random.default_rng(3).standard_normal((4, a.shape[0])):
            ref = lu.solve(x)
            err = np.abs(op.matvec(x) - ref).max()
            assert err <= 1e-12 * np.abs(ref).max()

    def test_spectrum_matches_default_operator(self):
        mesh = make_sphere(1.0, 4)
        a, sigma, d = _standard_form(mesh)
        lams, vecs = spla.eigsh(a, k=64, sigma=sigma, which="LM",
                                v0=np.ones(a.shape[0]), tol=0)
        lams[0] = 0.0  # zeroed by compute_spectrum as well
        lams, vecs = _canonical_basis(lams, d @ vecs, mesh.masses)
        spec = compute_spectrum(mesh, 64)
        assert spec.eigenvalues[0] == 0.0
        assert np.abs(spec.eigenvalues[1:] / lams[1:] - 1.0).max() <= 1e-12
        assert np.abs(spec.vectors - vecs).max() <= 1e-9

    def test_shift_above_first_eigenvalue_fails(self):
        # lambda_1 = 2 on the unit sphere: a - 3 I is indefinite
        a, _, _ = _standard_form(ICOSPHERE3)
        with pytest.raises(EigensolverError, match="not positive definite"):
            _band_shift_invert(a, 3.0)

    def test_failed_factor_fails_the_run(self, tmp_path, capsys, monkeypatch):
        from spectral_embed.cli import main
        monkeypatch.setattr(lapack, "dpbtrf", lambda band, **kw: (band, 1))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifold.kind = icosphere\n"
                       "manifold.subdivisions = 2\nspectrum.count = 10\n")
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "check failed: shifted operator is not positive definite "
            "(dpbtrf info 1)\n")

    def test_band_not_much_larger_than_superlu(self, monkeypatch,
                                               icosphere5):
        # the band replaces SuperLU at every size; reverse Cuthill-McKee
        # keeps its (w + 1) n entries near the fill of SuperLU's L + U
        # (1.66M against 1.35M on icosphere-5)
        shapes, dpbtrf = [], lapack.dpbtrf

        def recorded(band, **kw):
            shapes.append(band.shape)
            return dpbtrf(band, **kw)

        monkeypatch.setattr(lapack, "dpbtrf", recorded)
        a, sigma, _ = _standard_form(icosphere5)
        _band_shift_invert(a, sigma)
        lu = _superlu(a, sigma)
        [(rows, n)] = shapes
        assert n == a.shape[0]
        assert rows * n <= 1.5 * (lu.L.nnz + lu.U.nnz)

    def test_band_is_factored_in_place(self, monkeypatch, traced_peak,
                                       icosphere5):
        # the band is built in Fortran order and dpbtrf overwrites it; a
        # factor into a second array reaches 2.1 times its bytes
        factors, dpbtrf = [], lapack.dpbtrf

        def recorded(band, **kw):
            chol, info = dpbtrf(band, **kw)
            factors.append(chol)
            return chol, info

        monkeypatch.setattr(lapack, "dpbtrf", recorded)
        a, sigma, _ = _standard_form(icosphere5)
        _, peak = traced_peak(_band_shift_invert, a, sigma)
        [chol] = factors
        assert peak <= 1.3 * chol.nbytes


def _torus(side_x, side_y, periods=(2 * np.pi, 2 * np.pi)):
    return make_torus_mesh(periods, (side_x, side_y))


def _recording_eigsh(monkeypatch):
    """Patch spla.eigsh to record the keyword arguments of each call."""
    calls, eigsh = [], spla.eigsh

    def recorded(A, **kw):
        calls.append(kw)
        return eigsh(A, **kw)

    monkeypatch.setattr(spla, "eigsh", recorded)
    return calls


class TestMissedEigenvalues:
    # Lanczos from the constant start skips members of a multiplet on each
    # of these meshes, at a Krylov basis of 1.5 count or of 2 count + 1,
    # and fills the count from the next eigenvalue, every residual small
    @pytest.mark.parametrize("mesh, count", [
        (_torus(24, 48, (2 * np.pi, 4 * np.pi)), 37),
        (_torus(12, 12), 64),
        (_torus(24, 24), 128),
        (make_sphere(1.0, 2), 20), (make_sphere(1.0, 2), 30),
        (ICOSPHERE3, 30),
        (_torus(8, 8), 20), (_torus(8, 8), 36), (_torus(8, 8), 37),
        (_torus(8, 8), 40),
        (_torus(12, 12), 81),
        (_torus(20, 20), 36),
        (_torus(24, 24), 36),
        (_torus(24, 48, (2 * np.pi, 4 * np.pi)), 49),
        (_torus(24, 48, (2 * np.pi, 4 * np.pi)), 50),
        (_torus(24, 48, (2 * np.pi, 4 * np.pi)), 64),
        (_torus(32, 32), 25), (_torus(32, 32), 30),
        (_torus(30, 15, (2 * np.pi, np.pi)), 36),
        (_torus(30, 15, (2 * np.pi, np.pi)), 37)],
        ids=["24x48-37", "12x12-64", "24x24-128", "ico2-20", "ico2-30",
             "ico3-30", "8x8-20", "8x8-36", "8x8-37", "8x8-40", "12x12-81",
             "20x20-36", "24x24-36", "24x48-49", "24x48-50", "24x48-64",
             "32x32-25", "32x32-30", "30x15-36", "30x15-37"])
    def test_skipped_multiplet_members_are_recovered(self, mesh, count):
        a, _, _ = _standard_form(mesh)
        dense = np.linalg.eigvalsh(a.toarray())
        spec = compute_spectrum(mesh, count)
        assert spec.eigenvalues[0] == 0.0
        assert np.abs(spec.eigenvalues[1:] / dense[1:count] - 1.0).max() \
            <= 1e-9
        assert spec.next_eigenvalue == pytest.approx(dense[count], rel=1e-9)
        ops = spec.operator_pair
        residual = ops.stiffness @ spec.vectors \
            - ops.mass @ spec.vectors * spec.eigenvalues
        assert np.all(np.linalg.norm(residual, axis=0)
                      <= 1e-10 * (1.0 + spec.eigenvalues))

    def test_dropped_multiplet_member_is_recovered(self, monkeypatch):
        reference = compute_spectrum(ICOSPHERE3, 16)
        eigsh, calls = spla.eigsh, []

        def drop_one(A, k, **kw):
            calls.append(k)
            if len(calls) > 1:
                return eigsh(A, k=k, **kw)
            # the first solve returns one l = 4 mode in place of an l = 2 one
            lams, vecs = eigsh(A, k=k + 1, **kw)
            keep = np.arange(k + 1) != 5
            return lams[keep], vecs[:, keep]

        monkeypatch.setattr(spla, "eigsh", drop_one)
        spec = compute_spectrum(ICOSPHERE3, 16)
        # the solve, a check that finds the l = 2 mode, its solve, a check
        assert calls == [16, 1, 1, 1]
        assert spec.eigenvalues[0] == reference.eigenvalues[0] == 0.0
        assert np.abs(spec.eigenvalues[1:] / reference.eigenvalues[1:]
                      - 1.0).max() <= 1e-12
        assert np.abs(spec.vectors - reference.vectors).max() <= 1e-9
        assert spec.next_eigenvalue == pytest.approx(
            reference.next_eigenvalue, rel=1e-9)

    def test_complete_solve_makes_one_check_without_a_vector(
            self, monkeypatch):
        calls = _recording_eigsh(monkeypatch)
        compute_spectrum(ICOSPHERE3, 16)
        assert [kw["k"] for kw in calls] == [16, 1]
        assert calls[1]["return_eigenvectors"] is False

    @pytest.mark.parametrize("mesh, count, ncv", [
        (ICOSPHERE3, 16, 24), (ICOSPHERE3, 41, 62), (ICOSPHERE3, 7, 20),
        (make_sphere(1.0, 0), 5, 12), (make_sphere(1.0, 0), 11, 12)])
    def test_krylov_basis_is_one_and_a_half_count(self, monkeypatch, mesh,
                                                  count, ncv):
        # min(n, max(20, ceil(3 count / 2))); eigsh's default is 2 count + 1
        calls = _recording_eigsh(monkeypatch)
        compute_spectrum(mesh, count)
        assert calls[0]["k"] == count and calls[0]["ncv"] == ncv

    @pytest.mark.parametrize("mesh, count", [
        (ICOSPHERE3, 16), (ICOSPHERE3, 40)], ids=["l0-3", "cut-l6"])
    def test_lowest_left_out_is_the_next_eigenvalue(self, mesh, count):
        # at 40 the truncation cuts the l = 6 multiplet, so the lowest
        # eigenvalue left out equals the largest returned, and passes
        a, sigma, _ = _standard_form(mesh)
        op = _band_shift_invert(a, sigma)
        lams, vecs = spla.eigsh(a, k=count, sigma=sigma, which="LM",
                                v0=np.ones(a.shape[0]), tol=0, OPinv=op)
        dense = np.linalg.eigvalsh(a.toarray())
        rest = _lowest_off_span(op, sigma, vecs)
        assert rest == pytest.approx(dense[count], rel=1e-9)
        assert compute_spectrum(mesh, count).count == count

    def test_cli_recovers_the_skipped_eigenvalues(self, tmp_path):
        from spectral_embed.cli import main
        mesh = _torus(24, 48, (2 * np.pi, 4 * np.pi))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifold.kind = grid_torus\n"
                       f"manifold.periods = {2 * np.pi}, {4 * np.pi}\n"
                       "manifold.divisions = 24, 48\nspectrum.count = 37\n")
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "spectrum" / "eigenvalues.csv") \
            .read_text().split()[1:]
        lams = np.array([float(row.split(",")[1]) for row in rows])
        dense = np.linalg.eigvalsh(_standard_form(mesh)[0].toarray())
        assert len(lams) == 37 and lams[0] == 0.0
        assert np.abs(lams[1:] / dense[1:37] - 1.0).max() <= 1e-9

    def test_deflated_solve_that_does_not_converge_fails_the_run(
            self, tmp_path, capsys, monkeypatch):
        from spectral_embed.cli import main
        eigsh = spla.eigsh

        def stalled(A, k, **kw):
            if k == 1:
                raise spla.ArpackNoConvergence("No convergence", [], [])
            return eigsh(A, k=k, **kw)

        monkeypatch.setattr(spla, "eigsh", stalled)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifold.kind = icosphere\n"
                       "manifold.subdivisions = 2\nspectrum.count = 10\n")
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "check failed: eigensolver did not converge within the "
            "iteration budget: ARPACK error -1: No convergence\n")
        assert not (tmp_path / "out").exists()


NEAR_SQUARE = ("manifold.kind = torus\n"
               f"manifold.periods = {2 * np.pi}, {2 * np.pi * 1.00001}\n")


class TestNextEigenvalue:
    # the eigenvalue after the last kept, and whether `count` cuts its
    # multiplet, on a mesh and on the closed forms
    @pytest.mark.parametrize("config, count, lam_next, split", [
        ("manifold.kind = icosphere\nmanifold.subdivisions = 3\n", 16,
         19.47012, 0),
        ("manifold.kind = icosphere\nmanifold.subdivisions = 3\n", 40,
         39.64889, 1),
        ("manifold.kind = sphere\n", 225, 240.0, 0),
        ("manifold.kind = sphere\n", 224, 210.0, 1),
        ("manifold.kind = circle\n", 11, 36.0, 0),
        ("manifold.kind = circle\n", 10, 25.0, 1),
        # eigenvalues 1 / 1.00001^2 (twice), then 1: 2e-5 apart
        (NEAR_SQUARE, 3, 1.0, 0), (NEAR_SQUARE, 4, 1.0, 1)],
        ids=["ico3-16", "ico3-40", "sphere-225", "sphere-224", "circle-11",
             "circle-10", "near-square-3", "near-square-4"])
    def test_report_names_the_next_eigenvalue_and_the_split(
            self, tmp_path, config, count, lam_next, split):
        from spectral_embed.cli import main
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + f"spectrum.count = {count}\n")
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        report = dict(line.split("=", 1) for line in (
            tmp_path / "out" / "spectrum_report.txt").read_text()
            .splitlines())
        assert float(report["lambda_next"]) == pytest.approx(lam_next,
                                                             rel=1e-6)
        assert report["multiplet_split"] == str(split)

    def test_closed_form_next_is_read_lazily(self):
        spec = compute_spectrum(CIRCLE, 11)
        assert "next_eigenvalue" not in vars(spec)
        assert spec.next_eigenvalue == 36.0
        assert not spec.multiplet_split


class TestGrowthCheck:
    def test_circle_with_example_constants(self):
        spec = compute_spectrum(CIRCLE, 50)
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                                a=np.pi ** 2, C=1.0, r_h=1.0)
        rep = eigen_growth_check(spec, bounds)
        assert rep.applicable.sum() > 40
        assert rep.all_pass()

    def test_zeroed_eigenvalue_fails(self):
        spec = compute_spectrum(CIRCLE, 12)
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                                a=np.pi ** 2, C=1.0, r_h=1.0)
        spec.eigenvalues[5] = 0.0
        rep = eigen_growth_check(spec, bounds)
        assert rep.applicable[5]
        assert not rep.passed[5]
        assert not rep.all_pass()

    def test_below_threshold_not_applicable(self):
        spec = compute_spectrum(CIRCLE, 50)
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi,
                                a=np.pi ** 2, C=1.0, r_h=1.0)
        rep = eigen_growth_check(spec, bounds)
        below = np.nonzero(~rep.applicable)[0]
        assert below.size >= 1
        assert np.all(below < rep.threshold)

    def test_missing_harmonic_radius(self):
        spec = compute_spectrum(CIRCLE, 8)
        bounds = GeometryBounds(dim=1, iota=np.pi, volume=2 * np.pi)
        with pytest.raises(ValueError, match="harmonic radius"):
            eigen_growth_check(spec, bounds)

    def test_default_constants_pass_on_analytic_backends(self):
        manifolds = [
            (CIRCLE, np.pi),
            (FlatTorus((2 * np.pi, 2 * np.pi * 0.1)), 0.1 * np.pi),
        ]
        for man, iota in manifolds:
            spec = compute_spectrum(man, 40)
            bounds = GeometryBounds(dim=man.dim, iota=iota,
                                    volume=man.volume, r_h=iota)
            assert eigen_growth_check(spec, bounds).all_pass()
        sphere_spec = compute_spectrum(make_sphere(1.0, 3), 16)
        bounds = GeometryBounds(dim=2, iota=np.pi, volume=4 * np.pi,
                                r_h=np.pi)
        assert eigen_growth_check(sphere_spec, bounds).all_pass()


class TestSupBounds:
    def test_circle_ratios(self, circle200):
        rep = eigenfunction_sup_bounds(circle200)
        # ratio (1/sqrt(pi)) lambda^(-1/4) decreases in k; max at k = 1
        assert rep.empirical_sup_constant == pytest.approx(
            1 / np.sqrt(np.pi), rel=1e-12)
        assert np.all(np.diff(rep.sup_ratios) <= 1e-12)
        assert rep.empirical_constant == pytest.approx(1 / np.sqrt(np.pi),
                                                       rel=1e-12)

    def test_constant_mode_excluded(self, circle200):
        rep = eigenfunction_sup_bounds(circle200)
        assert rep.ks[0] == 1
        assert len(rep.ks) == circle200.count - 1

    def test_sphere_ratio_bounded(self):
        spec = compute_spectrum(make_sphere(1.0, 3), 17)
        rep = eigenfunction_sup_bounds(spec)
        first = rep.sup_ratios[0]
        assert np.isfinite(rep.sup_ratios).all()
        assert rep.sup_ratios.max() <= 2 * first


class TestTruncationIndex:
    def test_huge_tolerance(self, circle200):
        assert truncation_index(circle200, 0.5, 1e6, CALIBRATED) == 0

    def test_matches_brute_force(self, circle200):
        n0 = truncation_index(circle200, 0.5, 1e-6, CALIBRATED)
        brute = self._brute_force(circle200, 0.5, 1e-6)
        assert n0 >= brute
        assert n0 <= brute * 1.2 + 2

    @staticmethod
    def _brute_force(spec, t, eps, grid=512):
        # independent tail oracle: dense-grid sup of |K_N - K_max| and the
        # gradient analogue
        P = CIRCLE.sample_points(grid)
        V = spec.values(P)
        G = spec.gradients(P)[:, :, 0]
        w = np.exp(-spec.eigenvalues * t)
        full = (V * w) @ V.T
        gfull = (G * w) @ V.T
        for n in range(spec.count):
            part = (V[:, :n + 1] * w[:n + 1]) @ V[:, :n + 1].T
            gpart = (G[:, :n + 1] * w[:n + 1]) @ V[:, :n + 1].T
            if (np.abs(part - full).max() < eps
                    and np.abs(gpart - gfull).max() < eps):
                return n
        return spec.count

    def test_never_under_reports(self, circle200):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = float(rng.uniform(0.3, 2.0))
            eps = float(10.0 ** rng.uniform(-8, -3))
            n0 = truncation_index(circle200, t, eps, CALIBRATED)
            assert n0 >= self._brute_force(circle200, t, eps)

    def test_tail_bound_covers_true_tail(self, circle200):
        P = CIRCLE.sample_points(512)
        V = circle200.values(P)
        w = np.exp(-circle200.eigenvalues * 0.5)
        full = (V * w) @ V.T
        # the certified tail past index n, as truncation_index sums it
        terms, remainder = _tail_terms(
            circle200, 0.5, CALIBRATED,
            eigenfunction_sup_bounds(circle200).empirical_constant)
        for n in (5, 10, 20):
            part = (V[:, :n + 1] * w[:n + 1]) @ V[:, :n + 1].T
            true_tail = np.abs(part - full).max()
            assert terms[n:].sum() + remainder >= true_tail

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.2, 3.0), factor=st.floats(1.1, 8.0),
           eps=st.floats(min_value=1e-8, max_value=1e-2))
    def test_antitone_in_t_and_eps(self, circle200, t, factor, eps):
        n_base = truncation_index(circle200, t, eps, CALIBRATED)
        assert truncation_index(circle200, t * factor, eps,
                                CALIBRATED) <= n_base
        assert truncation_index(circle200, t, eps * factor,
                                CALIBRATED) <= n_base

    def test_unreachable_tolerance(self):
        spec = compute_spectrum(CIRCLE, 10)
        with pytest.raises(TruncationError) as err:
            truncation_index(spec, 0.05, 1e-12, CALIBRATED)
        assert err.value.partial_tail > 0


class TestUpperGamma:
    # the tail's s = n and n + 1/2 against 40-digit mpmath: y = 0 is
    # Gamma(s), 1e-300 is tiny, and e^(-y) alone is subnormal past 708 and
    # 0 past 745.  The relative error grows like y eps, the conditioning of
    # e^(-y): measured at most 125 eps at y = 300 and 270 at y = 740.  A
    # subnormal result is off by at most two roundings per step, each an
    # ulp of 5e-324, at most 16 for the 6 steps up to s = 6.5.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_mpmath(self, n):
        import mpmath
        eps = np.finfo(float).eps
        for s in (n, n + 0.5):
            for y in (0.0, 1e-300, 1e-3, 0.5, 1.0, 7.0, 40.0, 300.0, 740.0,
                      800.0):
                with mpmath.workdps(40):
                    ref = float(mpmath.gammainc(s, y))
                got = _upper_gamma(s, y)
                assert abs(got - ref) <= (8 + y) * eps * ref \
                    + 16 * math.ulp(0.0), (s, y, got, ref)

    def test_y_zero_and_infinity(self):
        for s in (0.5, 1.0, 2.5, 4.0):
            assert _upper_gamma(s, 0.0) == pytest.approx(math.gamma(s),
                                                        rel=1e-15)
            assert _upper_gamma(s, math.inf) == 0.0


class TestDefaults:
    def test_faber_krahn_defaults(self):
        assert default_faber_krahn(1) == pytest.approx(4.0)  # 1 * (2)^2
        assert default_faber_krahn(2) == pytest.approx(2 * np.pi)
        assert default_trace_constant(3) == 8.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            GeometryBounds(dim=0)
        with pytest.raises(ValueError):
            GeometryBounds(dim=2, iota=-1.0)
        with pytest.raises(ValueError):
            GeometryBounds(dim=2, a=-3.0)
