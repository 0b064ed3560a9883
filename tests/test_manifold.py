import copy
import inspect
import itertools
import warnings

import numpy as np
import pytest

from spectral_embed import manifold, reporting
from spectral_embed.manifold import (
    Circle, FlatTorus, MeshError, Sphere, TriMesh, assemble_laplacian,
    load_mesh, make_sphere, make_torus_mesh)


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


def save_mesh(mesh, path):
    """Write an OFF file atomically, coordinates in shortest round-trip
    text; the lines are built column by column."""
    x, y, z = (map(repr, c) for c in mesh.vertices.T.tolist())
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    lines += map(" ".join, zip(x, y, z))
    lines += map("3 {} {} {}".format, *mesh.faces.T.tolist())
    reporting.atomic_write(path, "\n".join(lines) + "\n")


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

    @pytest.mark.parametrize("build", [
        lambda: make_sphere(1.0, 3),
        lambda: make_torus_mesh((2.0, 3.0), (24, 20))])
    def test_save_matches_line_loop_bytes(self, tmp_path, build):
        mesh = build()
        path = tmp_path / "m.off"
        save_mesh(mesh, str(path))
        # the former writer: one formatted line per vertex and per face
        lines = ["OFF\n", f"{len(mesh.vertices)} {len(mesh.faces)} 0\n"]
        lines += [f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n"
                  for v in mesh.vertices]
        lines += [f"3 {f[0]} {f[1]} {f[2]}\n" for f in mesh.faces]
        assert path.read_bytes() == "".join(lines).encode()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.off"
        path.write_text("previous\n")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(reporting.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_mesh(make_sphere(1.0, 1), str(path))
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.off"]


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


@pytest.mark.parametrize("build", [
    lambda: make_sphere(5e-324, 1),  # the squared diagonal underflows to 0
    lambda: make_torus_mesh((5e-324, 5e-324), (4, 4)),
    lambda: make_torus_mesh((1e300, 1.0), (4, 4)),  # it overflows to inf
], ids=["icosphere-5e-324", "grid-5e-324", "grid-1e300"])
def test_degenerate_bounding_box_rejected(build):
    with pytest.raises(MeshError, match="^degenerate bounding box: squared "
                       "diagonal (0.0|inf) is zero or not finite$"):
        build()


def test_repeated_corner_is_a_degenerate_triangle():
    mesh = make_sphere(1.0, 1)
    faces = mesh.faces.copy()
    faces[7, 2] = faces[7, 0]
    with pytest.raises(MeshError, match=(
            r"^degenerate \(zero-area\) triangle at face 7$")):
        TriMesh(mesh.vertices, faces)


def test_edge_structure_is_derived_once(monkeypatch):
    builds, sorts = [], []
    build, argsort = TriMesh._build_edge_table, np.argsort

    def counted(self):
        builds.append(self)
        return build(self)

    def counted_argsort(a, *args, **kwargs):
        sorts.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(TriMesh, "_build_edge_table", counted)
    monkeypatch.setattr(manifold.np, "argsort", counted_argsort)
    mesh = make_sphere(1.0, 2)
    half_edges = 3 * len(mesh.faces)
    # validation sorts the keys in place: no half-edge order yet
    assert half_edges not in sorts
    mesh.edges()
    mesh.edge_adjacency()
    mesh.mean_edge_length()
    mesh.tangent_frames()
    mesh.distance_between([0, 3], [1, 2, 5])
    assert builds == [mesh]
    assert sorts.count(half_edges) == 1
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

    def test_corner_vectors(self, mesh):
        faces = np.random.default_rng(3).choice(len(mesh.faces), 40,
                                                replace=False)
        for got, full in zip(mesh.corner_vectors(faces),
                             mesh.corner_vectors()):
            assert got.tobytes() == full[faces].tobytes()

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


def _icosphere_reference(radius, subdivisions):
    """The per-edge dict walk `make_sphere` replaced: each face in turn
    takes the midpoints of ab, bc and ca, new ones at the next index."""
    verts = list(manifold._ICO_VERTS / np.linalg.norm(manifold._ICO_VERTS[0]))
    faces = manifold._ICO_FACES
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                cache[key] = len(verts)
                verts.append(m / np.linalg.norm(m))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.array(new_faces, dtype=np.int64)
    vertices = np.array(verts)
    vertices *= radius / np.linalg.norm(vertices, axis=1, keepdims=True)
    return vertices, faces


class TestMakeSphere:
    @pytest.mark.parametrize("subdivisions", range(6))
    def test_matches_dict_walk_bytes(self, subdivisions):
        mesh = make_sphere(1.0, subdivisions)
        vertices, faces = _icosphere_reference(1.0, subdivisions)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.faces.dtype == faces.dtype
        assert mesh.faces.tobytes() == faces.tobytes()

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

    @pytest.mark.parametrize("radius", [1e300, 1e155])
    def test_area_overflow_rejected(self, radius):
        with pytest.raises(ValueError, match="overflows the area 4 pi r"):
            make_sphere(radius, 1)


def _torus_mesh_reference(periods, divisions):
    """The meshgrid construction `make_torus_mesh` replaced."""
    (a1, a2), (n1, n2) = periods, divisions
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    vertices = np.column_stack([
        (ii.ravel() * a1) / n1, (jj.ravel() * a2) / n2, np.zeros(n1 * n2)])
    i, j = ii.ravel(), jj.ravel()
    v00 = i * n2 + j
    v10 = ((i + 1) % n1) * n2 + j
    v01 = i * n2 + (j + 1) % n2
    v11 = ((i + 1) % n1) * n2 + (j + 1) % n2
    faces = np.concatenate([np.column_stack([v00, v10, v11]),
                            np.column_stack([v00, v11, v01])])
    return vertices, faces.astype(np.int64)


def _build_reference(mesh):
    """What `TriMesh` derived on (F, 3) rows before it worked per column:
    fancy-gathered corner vectors, np.cross and norm(axis=1) areas, np.add.at
    masses, and the edge table split by divmod with its half-edge pairs
    ordered by a swap."""
    v, f, nv = mesh.vertices, mesh.faces, len(mesh.vertices)
    x0 = v[f[:, 0]]
    e1, e2 = mesh.wrap(v[f[:, 1]] - x0), mesh.wrap(v[f[:, 2]] - x0)
    areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    masses = np.zeros(nv)
    np.add.at(masses, f.ravel(), np.repeat(areas / 3.0, 3))
    tail, head = f.T[[1, 2, 0]].ravel(), f.T[[2, 0, 1]].ravel()
    key = ((np.minimum(tail, head) * nv + np.maximum(tail, head)) * 2
           + (tail < head))
    order = np.argsort(key, kind="stable")
    edges = np.column_stack(np.divmod(key[order][1::2] >> 1, nv))
    halves = order.reshape(-1, 2)
    swap = halves[:, 0] > halves[:, 1]
    halves[swap] = halves[swap, ::-1]
    return e1, e2, areas, masses, edges, halves


def _off_mesh(tmp_path):
    mesh = make_sphere(1.0, 2)
    rng = np.random.default_rng(5)
    path = str(tmp_path / "bumpy.off")
    save_mesh(TriMesh(mesh.vertices * rng.uniform(0.9, 1.1, (len(
        mesh.vertices), 1)), mesh.faces), path)
    return load_mesh(path)


def _shifted_grid(tmp_path):
    # the grid moved off its lattice, so triangles straddle the seam
    mesh = make_torus_mesh((2.0, 3.0), (24, 20))
    shifted = (mesh.vertices + [0.93, 1.41, 0.0]) % [2.0, 3.0, np.inf]
    return TriMesh(shifted, mesh.faces, period=mesh.period)


_BUILD_MESHES = {
    **{f"icosphere{k}": lambda _, k=k: make_sphere(1.0, k) for k in range(5)},
    "grid24x20": lambda _: make_torus_mesh((2.0, 3.0), (24, 20)),
    "grid24x20-shifted": _shifted_grid,
    "grid-anisotropic": lambda _: make_torus_mesh((1e3, 1.0), (40, 6)),
    "off": _off_mesh,
}


class TestPerColumnBuild:
    """The build works per column and per corner; each derived array has
    the bytes the (F, 3)-row expressions gave."""

    @pytest.mark.parametrize("name", sorted(_BUILD_MESHES))
    def test_matches_row_expressions_bytes(self, name, tmp_path):
        mesh = _BUILD_MESHES[name](tmp_path)
        twin = copy.copy(mesh)  # shares everything but what it derives
        e1, e2, areas, masses, edges, halves = _build_reference(mesh)
        for got, want in zip(mesh.corner_vectors() + mesh._edge_table
                             + (mesh.face_areas, mesh.masses),
                             (e1, e2, edges, halves, areas, masses)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert mesh.volume == float(areas.sum())
        # the Dijkstra graph read from the former edge table
        twin._edge_table = (edges, halves)
        for part in ("data", "indices", "indptr"):
            assert (getattr(mesh._distance_graph, part).tobytes()
                    == getattr(twin._distance_graph, part).tobytes())

    @pytest.mark.parametrize("periods, divisions", [
        ((2.0, 3.0), (24, 20)), ((1e3, 1.0), (40, 6)), ((1, 2), (3, 5))])
    def test_grid_torus_matches_meshgrid_bytes(self, periods, divisions):
        mesh = make_torus_mesh(periods, divisions)
        vertices, faces = _torus_mesh_reference(periods, divisions)
        assert mesh.vertices.tobytes() == vertices.tobytes()
        assert mesh.faces.dtype == faces.dtype
        assert mesh.faces.tobytes() == faces.tobytes()

    def test_components_are_counted(self):
        parts = [make_sphere(1.0, 0), make_sphere(1.0, 1),
                 make_torus_mesh((1.0, 1.0), (4, 3)), make_sphere(2.0, 0)]
        for count in (2, 3, 4):
            offsets = np.cumsum([0] + [len(m.vertices) for m in parts])
            vertices = np.vstack([m.vertices + 5.0 * k
                                  for k, m in enumerate(parts[:count])])
            faces = np.vstack([m.faces + offsets[k]
                               for k, m in enumerate(parts[:count])])
            with pytest.raises(MeshError, match=(
                    f"^disconnected mesh: {count} components$")):
                TriMesh(vertices, faces)


class TestLeanBuild:
    """A mesh keeps its vertices, faces, face areas and lumped masses.
    Validation sorts the edge keys in place; the half-edge order is derived
    on the first adjacency read, and corners and face gradients are
    computed on demand."""

    def test_build_peak_memory(self, traced_peak):
        # 3.27 face arrays: the inputs (1.5), the int32 CSR graph of the
        # i->j halves and the copies connected_components makes of it; the
        # stable sort's merge buffer is allocated outside tracemalloc and
        # not counted.  An int64 graph, which connected_components converts,
        # reaches 3.43, and an argsort of the keys with a gathered copy, as
        # validation once took, 4.5
        mesh, peak = traced_peak(make_torus_mesh, (2 * np.pi, 2 * np.pi),
                                 (192, 192))
        assert peak <= 3.35 * mesh.faces.nbytes

    def test_no_half_edge_array_is_kept(self):
        mesh = make_sphere(1.0, 3)
        # the faces themselves are (F, 3); a half-edge array is (3F,)
        assert not [v for v in vars(mesh).values()
                    if isinstance(v, np.ndarray) and v.dtype.kind in "iu"
                    and v.shape == (3 * len(mesh.faces),)]

    def test_adjacency_is_derived_on_first_read(self):
        mesh = make_sphere(1.0, 2)
        assert "_edge_table" not in vars(mesh)
        edges = mesh.edges()
        table = vars(mesh)["_edge_table"]
        assert table[0] is edges
        assert mesh.edge_adjacency()[0] is edges
        assert mesh.edges() is edges and vars(mesh)["_edge_table"] is table

    def test_no_per_face_float_array_is_kept(self):
        mesh = make_torus_mesh((2 * np.pi, 3.0), (12, 10))
        mesh.corner_vectors()
        mesh.face_gradients(np.arange(len(mesh.vertices), dtype=float))
        assemble_laplacian(mesh)
        kept = [a for v in vars(mesh).values()
                for a in (v if isinstance(v, tuple) else (v,))]
        assert not [a for a in kept if isinstance(a, np.ndarray)
                    and a.dtype.kind == "f" and a.shape == mesh.faces.shape]

    @pytest.mark.parametrize("build", [
        lambda: make_torus_mesh((2 * np.pi, 2 * np.pi), (192, 192)),
        lambda: make_sphere(1.0, 5)], ids=["grid192", "icosphere5"])
    def test_areas_across_blocks(self, build):
        mesh = build()
        assert len(mesh.faces) > manifold._AREA_BLOCK
        assert len(mesh.faces) % manifold._AREA_BLOCK
        _, _, areas, *_ = _build_reference(mesh)
        assert mesh.face_areas.tobytes() == areas.tobytes()

    def test_flat_frames_are_one_read_only_frame(self):
        mesh = make_torus_mesh((2 * np.pi, 3.0), (12, 10))
        frames = mesh.tangent_frames()
        assert frames.shape == (len(mesh.vertices), 2, 3)
        assert not frames.flags.writeable and frames.strides[0] == 0
        assert np.array_equal(mesh.tangent_frame(7), np.eye(2, 3))


@pytest.mark.parametrize("torus", [
    Circle(2.5), FlatTorus((2.0, 3.0)), FlatTorus((1.0, 2.0, 0.5))],
    ids=["circle", "torus2", "torus3"])
def test_flat_torus_distance_matches_broadcast_norm(torus):
    per = torus.periods
    rng = np.random.default_rng(7)
    P = rng.uniform(-1.5, 2.5, (6, torus.dim)) * per
    P[0] = 0.0
    # points exactly half a period (or one and a half) away from P[0], on
    # one axis and on all of them, where the minimal image is a tie
    Q = np.vstack([torus.sample_points()[::7], P, P[0] + per / 2,
                   P[0] - 1.5 * per, P[0] + np.diag(per) / 2])
    want = np.linalg.norm(torus.wrap(P[:, None, :] - Q[None, :, :]),
                          axis=-1)
    assert torus.distance_between(P, Q).tobytes() == want.tobytes()
    R = Q[rng.integers(0, len(Q), len(P))]
    want = np.linalg.norm(torus.wrap(P - R), axis=-1)
    assert torus.distance(P, R).tobytes() == want.tobytes()


class TestAnalytic:
    def test_circle(self):
        c = Circle(2 * np.pi)
        assert c.volume == pytest.approx(2 * np.pi)
        basis = c.eigenbasis(5)
        assert np.allclose(basis.eigenvalues, [0, 1, 1, 4, 4])

    def test_thin_torus_gap(self):
        t = FlatTorus((2 * np.pi, 2 * np.pi * 0.1))
        lams = t.eigenbasis(25).eigenvalues
        nonzero = lams[lams > 1e-12]
        assert nonzero[0] == pytest.approx(1.0)
        # first mode oscillating along the thin fiber
        fiber = [l for l in lams if abs(l - 100.0) < 1e-9]
        assert len(fiber) >= 2

    def test_sphere_bands(self):
        s = Sphere(1.0)
        lams = s.eigenbasis(16).eigenvalues
        expected = [0.0] + [2.0] * 3 + [6.0] * 5 + [12.0] * 7
        assert np.allclose(lams, expected)

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            Circle(-1.0)
        with pytest.raises(ValueError):
            FlatTorus((1.0, 0.0))
        with pytest.raises(ValueError):
            Sphere(0.0)

    @pytest.mark.parametrize("kind, params", [
        ("torus", {"periods": (1.0, np.nan)}),
        ("torus", {"periods": (np.inf, 1.0)}),
        ("circle", {"length": np.nan}),
        ("sphere", {"radius": np.inf}),
        ("sphere", {"radius": np.nan}),
    ])
    def test_non_finite_params_rejected(self, kind, params):
        with pytest.raises(ValueError, match="finite"):
            {"circle": Circle, "sphere": Sphere, "torus": FlatTorus}[kind](
                **params)

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
    "sphere": lambda: Sphere(1.3),
    "torus": lambda: FlatTorus((2.0, 3.0)),
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
        s = Sphere(1.0)
        basis = s.eigenbasis(9)
        P = s.sample_points(4000)
        w = s.sample_weights(P)
        V = basis.values(P)
        gram = (V * w[:, None]).T @ V
        assert np.abs(gram - np.eye(9)).max() < 0.01

    def test_gradients_match_finite_differences(self):
        s = Sphere(1.0)
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
        s = Sphere(2.0)
        basis = s.eigenbasis(16)
        P = s.sample_points(64)
        G = basis.gradients(P)
        radial = np.einsum("mkd,md->mk", G, P / 2.0)
        assert np.abs(radial).max() < 1e-8


def _real_fields(basis, P, harmonic, keep=None):
    """Values (points, len(keep)) and gradients (points, len(keep), 3) of
    the labels `keep` (all by default) from `harmonic(l, m, theta, phi)`,
    m >= 0, which returns the complex Y_l^m and its theta and phi
    derivatives at the points; each (l, |m|) is asked for once."""
    keep = range(len(basis.labels)) if keep is None else keep
    R = basis.manifold.radius
    theta, phi = basis._angles(P)
    sin_t = np.maximum(np.sin(theta), 1e-12)
    theta_hat = np.column_stack([np.cos(theta) * np.cos(phi),
                                 np.cos(theta) * np.sin(phi), -np.sin(theta)])
    phi_hat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    vals = np.empty((len(theta), len(keep)))
    grads = np.zeros((len(theta), len(keep), 3))
    known = {}
    for j, k in enumerate(keep):
        ell, m = basis.labels[k]
        if (ell, abs(m)) not in known:
            known[ell, abs(m)] = harmonic(ell, abs(m), theta, phi)
        y, dth, dph = known[ell, abs(m)]
        pick = np.imag if m < 0 else np.real
        s = 1.0 if m == 0 else np.sqrt(2.0) * (-1.0) ** abs(m)
        vals[:, j] = s * pick(y) / R
        if ell == 0:
            continue
        grads[:, j, :] = (s * pick(dth)[:, None] * theta_hat
                          + (s * pick(dph) / sin_t)[:, None] * phi_hat) / R ** 2
    return vals, grads


def _scipy_harmonic(ell, m, theta, phi):
    """Y_l^m and its derivatives from one scipy.special.sph_harm_y call."""
    import scipy.special
    y, dy = scipy.special.sph_harm_y(ell, m, theta, phi, diff_n=1)
    return y, dy[..., 0], dy[..., 1]


def _mp_harmonic(ell, m, theta, phi):
    """40-digit Y_l^m by mpmath.spherharm, dY/dtheta by mpmath.diff
    (one-sided at the poles, where spherharm is even in theta) and
    dY/dphi = i m Y."""
    import mpmath
    out = np.empty((3, len(theta)), dtype=complex)
    with mpmath.workdps(40):
        for i, (th, ph) in enumerate(zip(theta.tolist(), phi.tolist())):
            def f(t):
                return mpmath.spherharm(ell, m, t, ph)
            side = 1 if th == 0.0 else -1 if th == np.pi else 0
            y = f(th)
            out[:, i] = [complex(y), complex(mpmath.diff(f, th, direction=side)),
                         complex(1j * m * y)]
    return out


def _sphere_eps(degree, reference):
    """The sphere basis error bound up to `degree` against a `reference`,
    "mpmath" (40 digits) or "scipy" (sph_harm_y, whose own error counts),
    in eps times each label's sup norm: of |Y| for values and of |grad Y|
    for gradients.  Near cos(theta) = +-1 the recurrence has a double root,
    so errors grow with the degree there.  Largest errors measured (values,
    gradients; R = 1.0 and 1.3, poles, near-pole points and the seam
    included): against mpmath 28 and 28 eps at degree 19, 64 and 66 at
    60, 83 and 78 at 80; against scipy 32 and 44, 123 and 228, 232 and
    1036, where scipy's own error reaches 955."""
    return max(64.0, degree * degree / (32.0 if reference == "mpmath"
                                        else 4.0))


def _assert_within(got, ref, scale, bound):
    """|got - ref| <= bound eps scale per label (the last axis of values,
    the middle one of gradients, measured by the gradient length)."""
    err = np.abs(got - ref) if got.ndim == 2 else np.linalg.norm(
        got - ref, axis=2)
    limit = bound * np.finfo(float).eps * scale
    assert np.all(err <= limit), (err / np.where(scale > 0, scale, 1)).max()


def _sup_scales(vals, grads):
    return np.abs(vals).max(axis=0), np.linalg.norm(grads, axis=2).max(axis=0)


def _former_sphere_gradients(basis, P):
    """The sphere gradients as built before the one-sweep sup norms: whole
    (block, K, 3) products per block, the constant mode left at zero."""
    theta, phi = basis._angles(P)
    R = basis.manifold.radius
    sin_t = np.maximum(np.sin(theta), 1e-12)
    theta_hat = np.column_stack([np.cos(theta) * np.cos(phi),
                                 np.cos(theta) * np.sin(phi), -np.sin(theta)])
    phi_hat = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    out = np.zeros((len(theta), len(basis.labels), 3))
    live = basis._ell > 0
    for b in basis._blocks(len(theta)):
        _, dth, dph = basis._real_parts(theta[b], phi[b], diff=True)
        dth, dph = dth[live].T, dph[live].T
        out[b, live] = (dth[:, :, None] * theta_hat[b, None, :]
                        + (dph / sin_t[b, None])[:, :, None]
                        * phi_hat[b, None, :]) / R ** 2
    return out


class TestSphereAllDegrees:
    # more points than one evaluation block, both poles and the phi = +-pi
    # seam; the mpmath reference takes the specials and six others
    @staticmethod
    def _points(s, n=600):
        R = s.radius
        special = [[0, 0, R], [0, 0, -R], [-R, 0, 0], [-R, -1e-300, 0]]
        return np.vstack([special, s.sample_points(n)])

    # 1: the constant alone; 40: splits the l = 6 band; 225: l = 0..14;
    # 400: l = 0..19, the benchmark's sphere_sup_bounds basis
    @pytest.mark.parametrize("count", [1, 40, 225, 400])
    def test_values_and_gradients_match_per_label_calls(self, count):
        s = Sphere(1.3)
        basis = s.eigenbasis(count)
        P = self._points(s)
        vals, grads = basis.values(P), basis.gradients(P)
        ref_vals, ref_grads = _real_fields(basis, P, _scipy_harmonic)
        scale, gscale = _sup_scales(ref_vals, ref_grads)
        bound = _sphere_eps(19, "scipy")
        _assert_within(vals, ref_vals, scale, bound)
        _assert_within(grads, ref_grads, gscale, bound)
        few = np.r_[0:4, 4:600:100]
        mp_vals, mp_grads = _real_fields(basis, P[few], _mp_harmonic)
        bound = _sphere_eps(19, "mpmath")
        _assert_within(vals[few], mp_vals, scale, bound)
        _assert_within(grads[few], mp_grads, gscale, bound)

    @pytest.mark.parametrize("count", [40, 400])
    def test_block_size_changes_no_bit(self, count, monkeypatch):
        s = Sphere(1.3)
        P = self._points(s)

        def fields():
            basis = s.eigenbasis(count)
            return (basis.values(P), basis.gradients(P), basis.sup_norms(),
                    basis.grad_sup_norms())

        ours = fields()
        monkeypatch.setattr(manifold._SphereBasis, "BLOCK", 256)
        for got, ref in zip(ours, fields()):
            assert got.tobytes() == ref.tobytes()

    def test_sup_norms_peak_memory(self, traced_peak):
        # the benchmark's 400 harmonics over 2000 samples: blocks of 64
        # points peak at 3.3 MiB, blocks of 256 at 12.0
        basis = Sphere(1.0).eigenbasis(400)
        _, peak = traced_peak(basis.sup_norms)
        assert peak <= 5 * 2 ** 20

    def test_degree_60(self):
        # l = 0..60 against sph_harm_y, and degrees 59 and 60 against mpmath
        s = Sphere(1.3)
        basis = s.eigenbasis(61 ** 2)
        P = self._points(s, 300)
        vals, grads = basis.values(P), basis.gradients(P)
        ref_vals, ref_grads = _real_fields(basis, P, _scipy_harmonic)
        scale, gscale = _sup_scales(ref_vals, ref_grads)
        bound = _sphere_eps(60, "scipy")
        _assert_within(vals, ref_vals, scale, bound)
        _assert_within(grads, ref_grads, gscale, bound)
        few = np.r_[0:4, 4:300:50]
        top = np.flatnonzero(basis._ell >= 59)
        mp_vals, mp_grads = _real_fields(basis, P[few], _mp_harmonic, top)
        bound = _sphere_eps(60, "mpmath")
        _assert_within(vals[few][:, top], mp_vals, scale[top], bound)
        _assert_within(grads[few][:, top], mp_grads, gscale[top], bound)

    def test_sectoral_underflow_near_the_poles(self):
        # sin(theta)^m leaves the doubles near a pole: at 1.5e-8 past
        # m = 40, at 1e-5 past m = 62; the table holds 0 there, with no nan
        # and no warning
        s = Sphere(1.0)
        basis = s.eigenbasis(81 ** 2)
        theta = np.array([1.5e-8, 1e-5, 1e-3, np.pi - 1.5e-8, np.pi - 1e-5])
        phi = np.array([0.3, -2.0, 3.1, 1.0, -0.5])
        P = np.column_stack([np.sin(theta) * np.cos(phi),
                             np.sin(theta) * np.sin(phi), np.cos(theta)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = basis._legendre(basis._angles(P)[0], False)[0]
            vals, grads = basis.values(P), basis.gradients(P)
        assert np.all(table[80, 80, [0, 1, 3, 4]] == 0.0)
        assert np.isfinite(vals).all() and np.isfinite(grads).all()
        ref_vals, ref_grads = _real_fields(basis, P, _scipy_harmonic)
        # the labels of order 0 peak at the poles, past the sampled sup
        scale, gscale = _sup_scales(ref_vals, ref_grads)
        scale = np.maximum(scale, basis.sup_norms())
        gscale = np.maximum(gscale, basis.grad_sup_norms())
        _assert_within(vals, ref_vals, scale, _sphere_eps(80, "scipy"))
        _assert_within(grads, ref_grads, gscale, _sphere_eps(80, "scipy"))
        # degree 80, where rounding cos(theta) near a pole costs most
        top = np.flatnonzero(basis._ell == 80)
        mp_vals, mp_grads = _real_fields(basis, P, _mp_harmonic, top)
        _assert_within(vals[:, top], mp_vals, scale[top],
                       _sphere_eps(80, "mpmath"))
        _assert_within(grads[:, top], mp_grads, gscale[top],
                       _sphere_eps(80, "mpmath"))

    def test_sup_norms_match_per_label_calls(self):
        # the sampled sup norms against sph_harm_y's over the same sample,
        # and each against 40-digit mpmath at the point that attains it
        s = Sphere(1.0)
        basis = s.eigenbasis(400)
        P = s.sample_points()
        assert len(P) == 2000
        sup, gsup = _sup_scales(*_real_fields(basis, P, _scipy_harmonic))
        bound = _sphere_eps(19, "scipy") * np.finfo(float).eps
        assert np.all(np.abs(basis.sup_norms() - sup) <= bound * sup)
        assert np.all(np.abs(basis.grad_sup_norms() - gsup) <= bound * gsup)
        bound = _sphere_eps(19, "mpmath") * np.finfo(float).eps
        vals, grads = basis.values(P), basis.gradients(P)
        at = np.abs(vals).argmax(axis=0)
        gat = np.linalg.norm(grads, axis=2).argmax(axis=0)
        for k in range(len(basis.labels)):
            mp_val, mp_grad = _real_fields(
                basis, P[[at[k], gat[k]]], _mp_harmonic, [k])
            assert abs(basis.sup_norms()[k] - abs(mp_val[0, 0])) \
                <= bound * sup[k]
            assert abs(basis.grad_sup_norms()[k]
                       - np.linalg.norm(mp_grad[1, 0])) <= bound * gsup[k]

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("count", [1, 4, 225, 400])
    def test_sup_norms_match_full_arrays(self, count, radius):
        # the one-sweep sup norms against the (points, K) values and the
        # (points, K, 3) gradients reduced whole, the former path
        s = Sphere(radius)
        basis = s.eigenbasis(count)
        P = s.sample_points()
        sup = np.abs(basis.values(P)).max(axis=0)
        gsup = np.linalg.norm(_former_sphere_gradients(basis, P),
                              axis=2).max(axis=0)
        assert basis.sup_norms().tobytes() == sup.tobytes()
        assert basis.grad_sup_norms().tobytes() == gsup.tobytes()

    def test_sup_norms_computed_once(self):
        s = Sphere(1.0)
        basis = s.eigenbasis(16)
        sup, gsup = basis.sup_norms(), basis.grad_sup_norms()
        assert basis.sup_norms() is sup and basis.grad_sup_norms() is gsup
        P = s.sample_points()
        assert np.array_equal(sup, np.abs(basis.values(P)).max(axis=0))
        assert np.array_equal(
            gsup, np.linalg.norm(basis.gradients(P), axis=2).max(axis=0))
        with pytest.raises(ValueError):
            sup[0] = 0.0


def _torus_labels(torus, count):
    """Brute force: (m, "const"|"cos"|"sin") labels of the first `count`
    modes, one lattice vector per +/- pair, ordered by eigenvalue, then
    lexicographically by m, the cosine before the sine, with their
    eigenvalues and the eigenvalue of the next mode."""
    r = 1
    while True:
        mm = np.array(list(itertools.product(range(-r, r + 1),
                                             repeat=torus.dim)))
        lam = np.sum((2 * np.pi * mm / torus.periods) ** 2, axis=1)
        modes = []
        for m, l in zip(mm, lam):
            if not m.any():
                modes.append((l, (), 0, (m, "const")))
            elif tuple(m) > tuple(-m):
                modes += [(l, tuple(m), 0, (m, "cos")),
                          (l, tuple(m), 1, (m, "sin"))]
        modes.sort(key=lambda mode: mode[:3])
        # a vector outside the cube has a component of size r + 1
        outside = np.min((2 * np.pi * (r + 1) / torus.periods) ** 2)
        if len(modes) > count and modes[count][0] < outside:
            return ([mode[3] for mode in modes[:count]],
                    np.array([mode[0] for mode in modes[:count]]),
                    modes[count][0])
        r += 1


def _torus_reference(torus, labels, P):
    """The per-label loops the array basis must reproduce bit for bit:
    values, gradients, sup norms and gradient sup norms."""
    V = torus.volume
    freq = np.array([2 * np.pi * m / torus.periods for m, _ in labels])
    theta = np.atleast_2d(P) @ freq.T
    amp = np.sqrt(2.0 / V)
    vals = np.empty_like(theta)
    grads = np.zeros(theta.shape + (torus.dim,))
    sup, gsup = [], []
    for k, (m, trig) in enumerate(labels):
        if trig == "const":
            vals[:, k] = 1.0 / np.sqrt(V)
            sup.append(1.0 / np.sqrt(V))
            gsup.append(0.0)
            continue
        f = np.cos if trig == "cos" else np.sin
        vals[:, k] = amp * f(theta[:, k])
        d = -np.sin(theta[:, k]) if trig == "cos" else np.cos(theta[:, k])
        grads[:, k, :] = amp * d[:, None] * freq[k][None, :]
        sup.append(amp)
        gsup.append(amp * np.linalg.norm(
            2 * np.pi * np.asarray(m, float) / torus.periods))
    return vals, grads, np.array(sup), np.array(gsup)


THIN = (2 * np.pi, 0.2 * np.pi)


class TestTorusBasis:
    # (periods, count, whether the count ends an eigenvalue shell)
    @pytest.mark.parametrize("periods, count, ends_shell", [
        ((2 * np.pi,), 1, True), ((2 * np.pi,), 2, False),
        ((2 * np.pi,), 40, False), ((2 * np.pi,), 41, True),
        ((2.0, 3.0), 7, False), ((2.0, 3.0), 9, True),
        ((2.0, 3.0), 39, False), ((2.0, 3.0), 41, True),
        (THIN, 21, False), (THIN, 23, True), (THIN, 40, False),
        (THIN, 41, True),
        ((1.0, 2.0, 3.0), 25, False), ((1.0, 2.0, 3.0), 29, True),
        ((1.0, 2.0, 3.0), 70, False), ((1.0, 2.0, 3.0), 75, True),
    ])
    def test_matches_per_label_reference(self, periods, count, ends_shell):
        torus = Circle(*periods) if len(periods) == 1 else FlatTorus(periods)
        labels, lams, next_lam = _torus_labels(torus, count)
        assert (lams[-1] < next_lam) == ends_shell
        basis = torus.eigenbasis(count)
        # the first `count` modes of the brute-force order
        assert np.array_equal(basis.eigenvalues, lams)
        assert np.array_equal(basis.freq, np.array(
            [2 * np.pi * m / torus.periods for m, _ in labels]))
        assert np.array_equal(basis.sine, [t == "sin" for _, t in labels])
        rng = np.random.default_rng(count)
        P = np.vstack([torus.sample_points(),
                       rng.uniform(-20.0, 20.0, (200, torus.dim))])
        vals, grads, sup, gsup = _torus_reference(torus, labels, P)
        assert np.array_equal(basis.values(P), vals)
        assert basis.gradients(P).tobytes() == grads.tobytes()
        assert np.array_equal(basis.sup_norms(), sup)
        assert np.array_equal(basis.grad_sup_norms(), gsup)

    @pytest.mark.parametrize("torus, count", [
        (Circle(2 * np.pi), 41), (FlatTorus(THIN), 41),
        (FlatTorus((2.0, 3.0)), 60)])
    def test_matches_the_both_phases_form(self, torus, count):
        # each mode takes only its own of cos and sin, in place; the
        # former form took both for every mode and picked with np.where
        basis = torus.eigenbasis(count)
        rng = np.random.default_rng(count)
        P = np.vstack([torus.sample_points(),
                       rng.uniform(-20.0, 20.0, (200, torus.dim))])
        theta = P @ basis.freq.T
        vals = basis.amp * np.where(basis.sine, np.sin(theta), np.cos(theta))
        slope = basis.amp * np.where(basis.sine, np.cos(theta),
                                     -np.sin(theta))
        grads = slope[:, :, None] * basis.freq
        grads[:, basis._const] = 0.0
        assert basis.values(P).tobytes() == vals.tobytes()
        assert basis.gradients(P).tobytes() == grads.tobytes()

    @pytest.mark.parametrize("torus, count", [
        (Circle(1e300), 16), (Circle(5e-324), 16),
        (FlatTorus((1.0, 1e300)), 16),
        # the search doubles past the largest double before it holds
        # `count` modes
        (Circle(1e-150), 10 ** 5)])
    def test_eigenvalues_outside_the_double_range(self, torus, count):
        with pytest.raises(ValueError, match=r"periods \[.*\] put the "
                           "eigenvalues outside the double range"):
            torus.eigenbasis(count)

    @pytest.mark.parametrize("torus", [
        Circle(5e-324), FlatTorus((5e-324, 1.0)), FlatTorus((1e-200, 1.0))])
    def test_sample_grid_outside_the_integers(self, torus):
        # the volume underflows, or one axis needs more than 2^63 points
        with pytest.raises(ValueError, match=r"periods \[.*\] give a grid "
                           r"of \[.*\] points per axis"):
            torus.sample_points()

    def test_anisotropic_search_stays_small(self):
        # starting at (2 pi / max period)^2 enumerates a few vectors along
        # the long axis, not about 1e10 / pi of them
        lams = FlatTorus((1e10, 1.0)).eigenbasis(16).eigenvalues
        k = (2 * np.pi / 1e10) ** 2
        assert np.allclose(lams, k * np.repeat(np.arange(9), 2)[1:17] ** 2)


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
