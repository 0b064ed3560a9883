import inspect

import numpy as np
import pytest

from spectral_embed import manifold, radius
from spectral_embed.manifold import (
    Circle, FlatTorus, MeshError, TriMesh, assemble_laplacian,
    load_mesh, make_analytic, make_sphere, make_torus_mesh, save_mesh)


OCTAHEDRON = """OFF
6 8 0
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


def write(tmp_path, text, name="mesh.off"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadMesh:
    def test_octahedron_area(self, tmp_path):
        mesh = load_mesh(write(tmp_path, OCTAHEDRON))
        assert len(mesh.vertices) == 6
        assert len(mesh.faces) == 8
        # eight equilateral triangles with side sqrt(2)
        expected = 8 * (np.sqrt(3) / 4.0) * 2.0
        assert mesh.volume == pytest.approx(expected, rel=1e-12)

    def test_vertex_order_preserved(self, tmp_path):
        mesh = load_mesh(write(tmp_path, OCTAHEDRON))
        assert np.allclose(mesh.vertices[0], [1, 0, 0])
        assert np.allclose(mesh.vertices[5], [0, 0, -1])

    def test_open_mesh_rejected(self, tmp_path):
        # tetrahedron with one face removed
        text = ("OFF\n4 3 0\n"
                "1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
                "3 0 1 2\n3 0 3 1\n3 0 2 3\n")
        with pytest.raises(MeshError, match="non-closed"):
            load_mesh(write(tmp_path, text))

    def test_out_of_range_face_index(self, tmp_path):
        text = ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        with pytest.raises(MeshError, match="out of range"):
            load_mesh(write(tmp_path, text))

    def test_missing_header(self, tmp_path):
        with pytest.raises(MeshError, match="OFF header"):
            load_mesh(write(tmp_path, "NOFF\n1 0 0\n"))

    def test_disconnected_mesh_rejected(self, tmp_path):
        ico = make_sphere(1.0, 1)
        verts = np.vstack([ico.vertices, ico.vertices + 3.0])
        faces = np.vstack([ico.faces, ico.faces + len(ico.vertices)])
        text = "".join([f"OFF\n{len(verts)} {len(faces)} 0\n"]
                       + [f"{x:.17g} {y:.17g} {z:.17g}\n"
                          for x, y, z in verts]
                       + [f"3 {a} {b} {c}\n" for a, b, c in faces])
        with pytest.raises(MeshError,
                           match="^disconnected mesh: 2 components$"):
            load_mesh(write(tmp_path, text))

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1e-16]])
        faces = np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3],
                          [1, 0, 2]])  # last one has collinear corners
        with pytest.raises(MeshError):
            TriMesh(verts, faces)

    @pytest.mark.parametrize("line, bad, message", [
        (3, "1 1 x", "bad vertex line"),
        (4, "0 nan 0", "bad vertex line"),
        (10, "3 0 1 y", "bad face line"),
        (11, "3 0 1", "bad face line"),
        (16, "3.0 0 1 2", "bad face line"),
    ])
    def test_parse_errors_name_the_line(self, tmp_path, line, bad, message):
        lines = OCTAHEDRON.splitlines()
        lines[line - 1] = bad
        path = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(MeshError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_roundtrip(self, tmp_path):
        mesh = make_sphere(1.0, 1)
        path = tmp_path / "ico.off"
        save_mesh(mesh, str(path))
        back = load_mesh(str(path))
        assert np.array_equal(back.faces, mesh.faces)
        assert np.allclose(back.vertices, mesh.vertices)


def _broken_meshes():
    """The three ways an oriented mesh stops being closed, per mesh."""
    for name, mesh in (("icosphere2", make_sphere(1.0, 2)),
                       ("grid8", make_torus_mesh((1.0, 1.0), (8, 8)))):
        f = mesh.faces
        flipped = f.copy()
        flipped[5] = flipped[5, ::-1]
        for case, faces in (("dropped", f[1:]), ("flipped", flipped),
                            ("duplicated", np.vstack([f, f[:1]]))):
            yield f"{name}-{case}", mesh, faces


REPEATED = " repeated (inconsistent orientation or non-manifold edge)"
CLOSEDNESS_MESSAGES = {
    "icosphere2-dropped": "non-closed mesh: boundary edge (0,44)",
    "icosphere2-flipped": "non-closed mesh: directed edge (13,45)" + REPEATED,
    "icosphere2-duplicated": "non-closed mesh: directed edge (0,42)" + REPEATED,
    "grid8-dropped": "non-closed mesh: boundary edge (0,9)",
    "grid8-flipped": "non-closed mesh: directed edge (5,14)" + REPEATED,
    "grid8-duplicated": "non-closed mesh: directed edge (0,8)" + REPEATED,
}


def test_closedness_messages_name_the_smallest_bad_edge():
    # each message names the smallest repeated directed edge, else the
    # smallest directed edge whose reverse is missing
    seen = {}
    for name, mesh, faces in _broken_meshes():
        with pytest.raises(MeshError) as info:
            TriMesh(mesh.vertices, faces, period=mesh.period)
        seen[name] = str(info.value)
    assert seen == CLOSEDNESS_MESSAGES


# Two closed tetrahedra glued along the edge (0,1), so each direction of
# that edge is used twice.  Rotating a face's corners moves its half-edges
# around without changing the mesh.  A check that sorts the half-edges by
# undirected edge alone and then only compares them in pairs (same edge,
# opposite directions) accepts all but the first of these rotations.
GLUED_VERTICES = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                           [0.5, -1, 0.2], [0.3, 0.2, -1]], dtype=float)
GLUED_FACES = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2],
                        [0, 4, 1], [0, 1, 5], [0, 5, 4], [1, 4, 5]])


@pytest.mark.parametrize("rotations", [
    (0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0),
    (1, 1, 2, 2, 0, 2, 1, 1), (2, 2, 2, 2, 1, 2, 2, 2)])
def test_glued_edge_is_a_repeated_directed_edge(rotations):
    faces = np.array([np.roll(f, r) for f, r in zip(GLUED_FACES, rotations)])
    with pytest.raises(MeshError) as info:
        TriMesh(GLUED_VERTICES, faces)
    assert str(info.value) == ("non-closed mesh: directed edge (0,1)"
                               + REPEATED)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(value):
    mesh = make_sphere(1.0, 2)
    vertices = mesh.vertices.copy()
    vertices[[17, 40], 1] = value
    with pytest.raises(MeshError,
                       match="^non-finite coordinate at vertex 17$"):
        TriMesh(vertices, mesh.faces)


def test_repeated_corner_is_a_degenerate_triangle():
    mesh = make_sphere(1.0, 1)
    faces = mesh.faces.copy()
    faces[7, 2] = faces[7, 0]
    with pytest.raises(MeshError, match=(
            r"^degenerate \(zero-area\) triangle at face 7$")):
        TriMesh(mesh.vertices, faces)


def test_edge_structure_is_derived_once(monkeypatch):
    builds = []
    build = TriMesh._build_edge_table

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(TriMesh, "_build_edge_table", counted)
    mesh = make_sphere(1.0, 2)
    mesh.edges()
    mesh.edge_adjacency()
    mesh.mean_edge_length()
    mesh.tangent_frames()
    mesh.distance_between([0, 3], [1, 2, 5])
    radius.laplacian_bound_check(mesh, mesh.graph_distance_from(0), 1.0,
                                 min_distance=0.2)
    assert builds == [mesh]
    assert "np.unique" not in inspect.getsource(manifold)


class TestFaceSubsets:
    """A face subset gives exactly the matching rows of the full result."""

    @pytest.fixture(params=["icosphere2", "grid_torus"])
    def mesh(self, request):
        if request.param == "icosphere2":
            return make_sphere(1.0, 2)
        return make_torus_mesh((2 * np.pi, 3.0), (12, 10))

    def test_face_gradients(self, mesh):
        rng = np.random.default_rng(0)
        faces = rng.choice(len(mesh.faces), 40, replace=False)
        for values in (rng.normal(size=len(mesh.vertices)),
                       rng.normal(size=(len(mesh.vertices), 3))):
            full = mesh.face_gradients(values)
            assert np.array_equal(mesh.face_gradients(values, faces),
                                  full[faces])

    def test_stiffness_rows_of_the_star(self, mesh):
        interior = np.nonzero(mesh.graph_distance_from(0) < 0.5)[0]
        star = np.nonzero(np.any(np.isin(mesh.faces, interior), axis=1))[0]
        assert 0 < len(star) < len(mesh.faces)
        full = assemble_laplacian(mesh).stiffness[interior]
        sub = assemble_laplacian(mesh, faces=star).stiffness[interior]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sub, attr), getattr(full, attr))

    def test_degenerate_warning_names_the_mesh_face(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-5, 0],
                          [0.5, 0, 1e-5]], dtype=float)
        faces = np.array([[0, 1, 2], [1, 0, 3], [0, 2, 3], [2, 1, 3]])
        mesh = TriMesh(verts, faces)
        with pytest.warns(RuntimeWarning, match="^triangle 2 is"):
            assemble_laplacian(mesh, faces=np.array([2]))


class TestMakeSphere:
    def test_icosahedron(self):
        mesh = make_sphere(1.0, 0)
        assert len(mesh.vertices) == 12

    def test_vertex_count_formula(self):
        for s in range(4):
            assert len(make_sphere(1.0, s).vertices) == 10 * 4 ** s + 2

    def test_area_converges(self):
        mesh = make_sphere(1.0, 4)
        assert abs(mesh.volume - 4 * np.pi) / (4 * np.pi) < 0.005

    def test_area_scaling(self):
        mesh = make_sphere(2.0, 4)
        assert abs(mesh.volume - 16 * np.pi) / (16 * np.pi) < 0.005

    def test_second_order_area_convergence(self):
        errs = [4 * np.pi - make_sphere(1.0, s).volume for s in (2, 3, 4)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.0 <= e0 / e1 <= 5.0

    def test_masses_sum_to_area(self):
        mesh = make_sphere(1.0, 3)
        assert mesh.masses.sum() == pytest.approx(mesh.volume, rel=1e-10)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            make_sphere(-1.0, 2)
        with pytest.raises(ValueError):
            make_sphere(1.0, -1)


class TestAnalytic:
    def test_circle(self):
        c = make_analytic("circle", length=2 * np.pi)
        assert c.volume == pytest.approx(2 * np.pi)
        basis = c.eigenbasis(5)
        assert np.allclose(basis.eigenvalues, [0, 1, 1, 4, 4])

    def test_thin_torus_gap(self):
        t = make_analytic("torus", periods=(2 * np.pi, 2 * np.pi * 0.1))
        lams = t.eigenbasis(25).eigenvalues
        nonzero = lams[lams > 1e-12]
        assert nonzero[0] == pytest.approx(1.0)
        # first mode oscillating along the thin fiber
        fiber = [l for l in lams if abs(l - 100.0) < 1e-9]
        assert len(fiber) >= 2

    def test_sphere_bands(self):
        s = make_analytic("sphere", radius=1.0)
        lams = s.eigenbasis(16).eigenvalues
        expected = [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7
        assert np.allclose(lams, expected)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            make_analytic("circle", length=-1.0)
        with pytest.raises(ValueError):
            make_analytic("torus", periods=(1.0, 0.0))
        with pytest.raises(ValueError):
            make_analytic("sphere", radius=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_analytic("klein_bottle")

    @pytest.mark.parametrize("kind, params", [
        ("torus", {"periods": (1.0, np.nan)}),
        ("torus", {"periods": (np.inf, 1.0)}),
        ("circle", {"length": np.nan}),
        ("sphere", {"radius": np.inf}),
        ("sphere", {"radius": np.nan}),
    ])
    def test_non_finite_params_rejected(self, kind, params):
        with pytest.raises(ValueError, match="finite"):
            make_analytic(kind, **params)

    def test_circle_is_one_dimensional_torus(self):
        circle = Circle(2 * np.pi)
        torus = FlatTorus((2 * np.pi,), samples=circle.samples)
        assert isinstance(circle, FlatTorus)
        assert np.array_equal(circle.sample_points(), torus.sample_points())
        a, b = circle.eigenbasis(41), torus.eigenbasis(41)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        P = circle.sample_points(257)
        assert np.abs(a.values(P) - b.values(P)).max() < 1e-12
        assert np.abs(a.gradients(P) - b.gradients(P)).max() < 1e-12
        assert np.abs(a.sup_norms() - b.sup_norms()).max() < 1e-12
        assert np.abs(a.grad_sup_norms() - b.grad_sup_norms()).max() < 1e-12
        assert circle.diameter() == torus.diameter() == np.pi


_PROTOCOL_BACKENDS = {
    "icosphere2": lambda: make_sphere(1.0, 2),
    "sphere": lambda: make_analytic("sphere", radius=1.3),
    "torus": lambda: make_analytic("torus", periods=(2.0, 3.0)),
    "circle": lambda: Circle(5.0),
}


class TestPointSetProtocol:
    """Meshes and closed-form backends answer the same point-set calls."""

    @pytest.mark.parametrize("name", sorted(_PROTOCOL_BACKENDS))
    def test_distances_and_weights(self, name):
        man = _PROTOCOL_BACKENDS[name]()
        samples = man.sample_points()
        P = samples[[0, 7, 31]]
        rows = man.distance_between(P, samples)
        assert rows.shape == (3, len(samples))
        for p, row in zip(P, rows):
            assert np.allclose(row, man.distance_from(p), rtol=0, atol=1e-12)
        weights = man.sample_weights(samples)
        assert weights.sum() == pytest.approx(man.volume, rel=1e-10)
        assert man.tangent_frame(P[1]).shape[0] == man.dim
        assert man.resolution() > 0

    def test_mesh_distance_between_is_stacked_dijkstra(self):
        mesh = make_sphere(1.0, 2)
        P, Q = np.array([3, 0, 41, 3]), np.array([5, 9, 0, 100, 2])
        stacked = np.stack([mesh.graph_distance_from(p) for p in P])
        assert np.array_equal(mesh.distance_between(P, Q), stacked[:, Q])
        assert np.array_equal(mesh.distance_from(41), stacked[2])

    def test_mesh_edge_adjacency(self):
        for mesh in (make_sphere(1.0, 2),
                     make_torus_mesh((1.0, 2.0), (12, 10))):
            f = mesh.faces
            directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]],
                                       f[:, [2, 0]]])
            reference = np.unique(np.sort(directed, axis=1), axis=0)
            edges, faces, opposite = mesh.edge_adjacency()
            assert np.array_equal(edges, reference)
            assert np.array_equal(mesh.edges(), reference)
            for (i, j), fpair, opair in zip(edges, faces, opposite):
                for face, o in zip(fpair, opair):
                    assert sorted(f[face]) == sorted([i, j, o])
            # the half-edge opposite corner c of face i is c*F + i; the two
            # halves of each edge come in increasing order
            corner = np.argmax(f[faces] == opposite[..., None], axis=2)
            half = corner * len(f) + faces
            assert np.all(half[:, 0] < half[:, 1])


class TestGeodesics:
    def test_circle_antipodal(self):
        c = Circle(2 * np.pi)
        d = c.distance(np.array([[0.0]]), np.array([[np.pi]]))
        assert d[0] == pytest.approx(np.pi)

    def test_distance_to_self(self):
        c = Circle(2 * np.pi)
        assert c.distance(np.array([[1.2]]), np.array([[1.2]]))[0] == 0.0
        mesh = make_sphere(1.0, 2)
        assert mesh.graph_distance_from(5)[5] == 0.0

    def test_sphere_antipodal_on_mesh(self):
        mesh = make_sphere(1.0, 4)
        field = mesh.graph_distance_from(0)
        v_anti = int(np.argmax(field))
        exact = mesh.exact_distance_from(0)[v_anti]
        assert abs(field[v_anti] - exact) / exact < 0.01

    def test_graph_distance_ratio_band(self):
        # graph over-approximates the round metric by < 10%; chordal edges
        # can undercut it by O(h^2), hence the tiny lower slack
        mesh = make_sphere(1.0, 3)
        for src in (0, 7, 100):
            graph = mesh.graph_distance_from(src)
            exact = mesh.exact_distance_from(src)
            keep = exact > 0
            ratio = graph[keep] / exact[keep]
            assert ratio.min() > 1.0 - 3e-3
            assert ratio.max() < 1.1

    def test_torus_wrap_distance(self):
        t = FlatTorus((4.0, 2.0))
        d = t.distance(np.array([[3.9, 0.1]]), np.array([[0.1, 1.9]]))
        assert d[0] == pytest.approx(np.hypot(0.2, 0.2))

    def test_triangle_inequality_sampled(self):
        mesh = make_sphere(1.0, 2)
        rng = np.random.default_rng(0)
        d0 = mesh.graph_distance_from(0)
        for v in rng.integers(1, len(mesh.vertices), size=5):
            dv = mesh.graph_distance_from(int(v))
            assert np.all(d0 <= d0[int(v)] + dv + 1e-12)


class TestLaplacian:
    def test_constants_harmonic(self):
        mesh = make_sphere(1.0, 2)
        ops = assemble_laplacian(mesh)
        ones = np.ones(len(mesh.vertices))
        assert np.abs(ops.stiffness @ ones).max() < 1e-10

    def test_mass_positive_and_consistent(self):
        mesh = make_torus_mesh((1.0, 1.0), (8, 8))
        ops = assemble_laplacian(mesh)
        diag = ops.mass.diagonal()
        assert np.all(diag > 0)
        assert diag.sum() == pytest.approx(1.0, rel=1e-12)

    def test_stiffness_symmetric_psd(self):
        mesh = make_sphere(1.0, 2)
        S = assemble_laplacian(mesh).stiffness
        assert np.abs((S - S.T).data).max() < 1e-12 if (S - S.T).nnz else True
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = rng.normal(size=S.shape[0])
            assert f @ (S @ f) > -1e-10

    def test_green_identity(self):
        # integral of the Laplacian of any field vanishes on a closed mesh
        mesh = make_sphere(1.0, 3)
        S = assemble_laplacian(mesh).stiffness
        rng = np.random.default_rng(2)
        f = rng.normal(size=S.shape[0])
        assert abs(np.ones(S.shape[0]) @ (S @ f)) < 1e-9 * np.abs(S @ f).sum()

    def test_degenerate_warning(self):
        # squashed tetrahedron-like sliver: high aspect ratio but valid
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-5, 0],
                          [0.5, 0, 1e-5]], dtype=float)
        faces = np.array([[0, 1, 2], [1, 0, 3], [0, 2, 3], [2, 1, 3]])
        mesh = TriMesh(verts, faces)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assemble_laplacian(mesh)

    def test_grid_torus_is_five_point_stencil(self):
        mesh = make_torus_mesh((1.0, 1.0), (8, 8))
        S = assemble_laplacian(mesh).stiffness.tocoo()
        # diagonal-edge cotangent weights vanish: at most 5 entries per row
        counts = np.bincount(S.row[np.abs(S.data) > 1e-12],
                             minlength=S.shape[0])
        assert counts.max() <= 5


class TestSphereHarmonics:
    def test_orthonormal_on_sample(self):
        s = make_analytic("sphere", radius=1.0)
        basis = s.eigenbasis(9)
        P = s.sample_points(4000)
        w = s.sample_weights(P)
        V = basis.values(P)
        gram = (V * w[:, None]).T @ V
        assert np.abs(gram - np.eye(9)).max() < 0.01

    def test_gradients_match_finite_differences(self):
        s = make_analytic("sphere", radius=1.0)
        basis = s.eigenbasis(9)
        rng = np.random.default_rng(0)
        P = s.sample_points(500)[rng.integers(0, 500, size=4)]
        G = basis.gradients(P)
        h = 1e-5
        for i, p in enumerate(P):
            frame = s.tangent_frame(p)
            for v in frame:
                plus = basis.values(s.exp(p, h * v))
                minus = basis.values(s.exp(p, -h * v))
                fd = (plus - minus)[0] / (2 * h)
                assert np.allclose(G[i] @ v, fd, atol=1e-5)

    def test_gradients_tangent(self):
        s = make_analytic("sphere", radius=2.0)
        basis = s.eigenbasis(16)
        P = s.sample_points(64)
        G = basis.gradients(P)
        radial = np.einsum("mkd,md->mk", G, P / 2.0)
        assert np.abs(radial).max() < 1e-8


def _sph_reference(basis, P, gradients):
    """One scipy.special.sph_harm_y call per label, the per-label form the
    all-degree evaluation must reproduce bit for bit."""
    vals, grads = _sph_reference_fields(basis, P)
    return grads if gradients else vals


def _sph_reference_fields(basis, P):
    """Values (points, K) and gradients (points, K, 3) of `_sph_reference`."""
    import scipy.special
    R = basis.manifold.radius
    theta, phi = basis._angles(P)
    sin_t = np.maximum(np.sin(theta), 1e-12)
    theta_hat = np.column_stack([np.cos(theta) * np.cos(phi),
                                 np.cos(theta) * np.sin(phi), -np.sin(theta)])
    phi_hat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    vals = np.empty((len(theta), len(basis.labels)))
    grads = np.zeros((len(theta), len(basis.labels), 3))
    for k, (ell, m) in enumerate(basis.labels):
        y, dy = scipy.special.sph_harm_y(ell, abs(m), theta, phi, diff_n=1)
        pick = np.imag if m < 0 else np.real
        s = 1.0 if m == 0 else np.sqrt(2.0) * (-1.0) ** abs(m)
        vals[:, k] = s * pick(y) / R
        if ell == 0:
            continue
        dth, dph = s * pick(dy[..., 0]), s * pick(dy[..., 1])
        grads[:, k, :] = (dth[:, None] * theta_hat
                          + (dph / sin_t)[:, None] * phi_hat) / R ** 2
    return vals, grads


class TestSphereAllDegrees:
    # 1: the constant alone; 40: splits the l = 6 band; 225: l = 0..14;
    # 400: l = 0..19, the benchmark's sphere_sup_bounds basis
    @pytest.mark.parametrize("count", [1, 40, 225, 400])
    def test_values_and_gradients_match_per_label_calls(self, count):
        s = make_analytic("sphere", radius=1.3)
        basis = s.eigenbasis(count)
        # more points than one evaluation block, plus both poles and the
        # phi = +-pi seam
        P = np.vstack([s.sample_points(600),
                       [[0, 0, 1.3], [0, 0, -1.3], [-1.3, 0, 0],
                        [-1.3, -1e-300, 0]]])
        assert np.array_equal(basis.values(P), _sph_reference(basis, P, False))
        got = basis.gradients(P)
        ref = _sph_reference(basis, P, True)
        assert got.tobytes() == ref.tobytes()

    def test_sup_norms_match_per_label_calls(self):
        s = make_analytic("sphere", radius=1.0)
        basis = s.eigenbasis(400)
        P = s.sample_points()
        assert len(P) == 2000
        vals, grads = _sph_reference_fields(basis, P)
        sup = np.abs(vals).max(axis=0)
        gsup = np.linalg.norm(grads, axis=2).max(axis=0)
        assert basis.sup_norms().tobytes() == sup.tobytes()
        assert basis.grad_sup_norms().tobytes() == gsup.tobytes()

    def test_sup_norms_computed_once(self):
        s = make_analytic("sphere", radius=1.0, samples=300)
        basis = s.eigenbasis(16)
        sup, gsup = basis.sup_norms(), basis.grad_sup_norms()
        assert basis.sup_norms() is sup and basis.grad_sup_norms() is gsup
        P = s.sample_points()
        assert np.array_equal(sup, np.abs(basis.values(P)).max(axis=0))
        assert np.array_equal(
            gsup, np.linalg.norm(basis.gradients(P), axis=2).max(axis=0))
        with pytest.raises(ValueError):
            sup[0] = 0.0


@pytest.mark.parametrize("name", ["sphere", "torus", "circle"])
def test_elementwise_distance_matches_pairwise_rows(name):
    man = _PROTOCOL_BACKENDS[name]()
    S = man.sample_points()
    rng = np.random.default_rng(1)
    P, Q = S[rng.integers(0, len(S), 500)], S[rng.integers(0, len(S), 500)]
    Q[:3] = P[:3]
    # the per-pair form: one 1x1 distance_between per row
    ref = np.array([man.distance_between(p[None], q[None])[0, 0]
                    for p, q in zip(P, Q)])
    assert np.array_equal(man.distance(P, Q), ref)
    assert np.all(man.distance(P[:3], Q[:3]) == 0.0)
