"""Closed-manifold backends: triangle meshes and closed-form analytic manifolds.

Meshes carry a cotangent Laplace-Beltrami discretization with lumped
(barycentric) masses.  Analytic backends (circle, round sphere, flat torus)
expose exact geodesic distance, volume, and eigenpairs in closed form.
"""

import functools
import warnings

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph


# faces per block of the area pass: its columns stay a few hundred KiB
_AREA_BLOCK = 1 << 14


class MeshError(ValueError):
    """Raised for structurally invalid meshes (non-closed, degenerate, ...)."""


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------

class TriMesh:
    """A closed, oriented triangle mesh.

    Parameters
    ----------
    vertices : (V, 3) float array
        Vertex positions.
    faces : (F, 3) int array
        Triangle corner indices, consistently oriented (counter-clockwise
        seen from outside).
    period : length-3 sequence or None
        Optional coordinate periods for flat periodic meshes (0 disables
        wrapping on that axis).  Displacements are then taken with the
        minimal-image convention, so triangles straddling the seam keep
        their intrinsic shape.
    reference : analytic manifold or None
        Closed-form geometry this mesh discretizes, when known.  Enables
        exact geodesic distances in experiments on test manifolds.

    Raises
    ------
    MeshError
        If a vertex is not finite, the mesh is not closed/oriented or not
        connected, or its bounding box or a triangle is degenerate.
    """

    def __init__(self, vertices, faces, period=None, reference=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be a (V, 3) array")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be a (F, 3) array")
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise MeshError("face references vertex index out of range")
        if not np.isfinite(self.vertices).all():
            bad = np.nonzero(~np.isfinite(self.vertices).all(axis=1))[0][0]
            raise MeshError(f"non-finite coordinate at vertex {bad}")
        f0, f1, f2 = self.faces.T
        bad = np.nonzero((f0 == f1) | (f1 == f2) | (f2 == f0))[0]
        if bad.size:  # a repeated corner has zero area whatever the vertices
            raise MeshError(f"degenerate (zero-area) triangle at face {bad[0]}")
        self.period = None if period is None else np.asarray(period, dtype=float)
        self.reference = reference
        self.dim = 2
        self._frames = None
        self._build_edge_table()

        # per column: an axis-0 reduction over (V, 3) rows is far slower
        columns = np.ascontiguousarray(self.vertices.T)
        bbox = np.array([np.ptp(x) for x in columns])
        if self.period is not None:
            bbox = np.maximum(bbox, self.period)
        with np.errstate(over="ignore"):
            diag2 = float(bbox @ bbox)
        if not 0 < diag2 < np.inf:  # areas are compared with it below
            raise MeshError(f"degenerate bounding box: squared diagonal "
                            f"{diag2!r} is zero or not finite")
        self.face_areas = np.empty(len(self.faces))
        for start in range(0, len(self.faces), _AREA_BLOCK):
            block = slice(start, start + _AREA_BLOCK)
            self.face_areas[block] = self._block_areas(columns, block)
        del columns
        bad = np.nonzero(self.face_areas < 1e-12 * diag2)[0]
        if bad.size:
            raise MeshError(f"degenerate (zero-area) triangle at face {bad[0]}")

        # barycentric lumped mass: a third of each incident triangle area,
        # summed in face order
        self.masses = np.bincount(self.faces.ravel(),
                                  np.repeat(self.face_areas / 3.0, 3),
                                  minlength=len(self.vertices))
        self.volume = float(self.face_areas.sum())

    # -- geometry helpers ---------------------------------------------------

    def wrap(self, disp):
        """Minimal-image displacement for periodic meshes (identity otherwise)."""
        disp = np.asarray(disp, dtype=float)
        if self.period is None:
            return disp
        out = disp.copy()
        for ax, per in enumerate(self.period):
            if per > 0:
                out[..., ax] -= per * np.round(out[..., ax] / per)
        return out

    def corner_vectors(self, faces=None):
        """Edge vectors (x1-x0, x2-x0) per face, period-aware.

        `faces` is an index array that picks a subset of the faces (all
        faces by default).  Each row depends only on its own face, so a
        subset gives the rows of the full result bit for bit.  Computed on
        demand, as face gradients are: a mesh keeps its vertices, faces,
        face areas and lumped masses, and no other per-face array.
        """
        f0, f1, f2 = (self.faces if faces is None else self.faces[faces]).T
        # np.take copies whole rows; V[F[:, k]] is several times slower
        x0 = np.take(self.vertices, f0, axis=0)
        return (self.wrap(np.take(self.vertices, f1, axis=0) - x0),
                self.wrap(np.take(self.vertices, f2, axis=0) - x0))

    def _block_areas(self, columns, block):
        """|e1 x e2| / 2 of the faces in `block` from the (3, V) vertex
        columns: the products np.cross forms, their squares summed in the
        order of norm(axis=1), one corner-vector component at a time."""
        f0, f1, f2 = self.faces[block].T
        periods = np.zeros(3) if self.period is None else self.period
        a, b = [], []
        for x, per in zip(columns, periods, strict=True):
            x0 = x[f0]
            for e, fk in ((a, f1), (b, f2)):
                d = x[fk] - x0
                if per > 0:  # the minimal image, as wrap() takes it
                    d -= per * np.round(d / per)
                e.append(d)
        (ax, ay, az), (bx, by, bz) = a, b
        nx = ay * bz
        nx -= az * by
        ny = az * bx
        ny -= ax * bz
        nz = ax * by
        nz -= ay * bx
        nx *= nx
        nx += np.square(ny, out=ny)
        nx += np.square(nz, out=nz)
        return 0.5 * np.sqrt(nx, out=nx)

    def _edge_keys(self):
        """The key of each half-edge, indexed by half-edge.

        Half-edge ``c*F + i`` is the directed edge opposite corner c of face
        i; its key is 2 (lo nv + hi) + (tail < head).  Sorted stably, the
        keys put repeated directed edges side by side and, on a closed
        oriented mesh, the two halves of each edge in one row, the lower
        index first.
        """
        f, nv, nf = self.faces.T, len(self.vertices), len(self.faces)
        # written corner by corner into one array
        key = np.empty(3 * nf, dtype=np.int64)
        for c in range(3):
            tail, head = f[(c + 1) % 3], f[(c + 2) % 3]
            part = np.minimum(tail, head, out=key[c * nf:(c + 1) * nf])
            part *= nv
            part += np.maximum(tail, head)
            part <<= 1
            part += tail < head
        return key

    def _build_edge_table(self):
        """Check that the mesh is closed, oriented and connected.

        Only the sorted key values are needed, so the keys are sorted in
        place and nothing is kept: `_edge_table` derives the half-edge
        order when adjacency is first read.
        """
        nv = len(self.vertices)
        key = self._edge_keys()
        key.sort(kind="stable")

        def smallest(keys):  # the smallest directed edge among sorted keys
            lo, hi = np.divmod(keys >> 1, nv)
            least = np.where(keys & 1, keys >> 1, hi * nv + lo).min()
            return "({},{})".format(*divmod(int(least), nv))

        same = key[1:] == key[:-1]
        if same.any():
            raise MeshError(
                f"non-closed mesh: directed edge {smallest(key[1:][same])} "
                "repeated (inconsistent orientation or non-manifold edge)")
        del same
        # no repeats: closed iff keys pair up as 2e (j->i) then 2e + 1 (i->j)
        if not np.array_equal(key[0::2] | 1, key[1::2]):
            starts = np.diff(key >> 1, prepend=-1, append=-1) != 0
            raise MeshError("non-closed mesh: boundary edge "
                            + smallest(key[starts[:-1] & starts[1:]]))
        i = key[1::2] >> 1  # i nv + j of the i->j halves
        del key
        # int32 indices, as csgraph takes them, spare it a converted copy
        index = np.int32 if len(i) <= np.iinfo(np.int32).max else np.int64
        i, j = np.divmod(i, nv, out=(i, np.empty(len(i), dtype=index)))
        # the edges are sorted by (i, j): row counts give the CSR row starts
        indptr = np.zeros(nv + 1, dtype=index)
        np.cumsum(np.bincount(i, minlength=nv), out=indptr[1:])
        del i
        graph = sparse.csr_matrix((np.ones(len(j)), j, indptr),
                                  shape=(nv, nv))
        del j
        components = csgraph.connected_components(graph, directed=False)[0]
        if components > 1:
            raise MeshError(f"disconnected mesh: {components} components")

    @functools.cached_property
    def _edge_table(self):
        """The (E, 2) edges (i < j, sorted) and the (E, 2) half-edges of
        each, lower first."""
        order = np.argsort(self._edge_keys(), kind="stable")
        first, second = order[0::2], order[1::2]  # the j->i, i->j halves
        # half-edge c*F + f runs from corner c + 1 to corner c + 2 of face f
        corner, face = np.divmod(second, len(self.faces))
        edges = np.column_stack([self.faces[face, (corner + 1) % 3],
                                 self.faces[face, (corner + 2) % 3]])
        return (_frozen(edges),
                _frozen(np.column_stack([np.minimum(first, second),
                                         np.maximum(first, second)])))

    def edges(self):
        """Undirected edges as an (E, 2) array with i < j, in sorted order."""
        return self._edge_table[0]

    def edge_adjacency(self):
        """The two triangles across each undirected edge.

        Returns ``(edges, faces, opposite)``: the (E, 2) edges with i < j in
        the order of :meth:`edges`, and (E, 2) arrays of the two incident
        faces and of their corners opposite the edge.
        """
        edges, halves = self._edge_table
        corner, faces = np.divmod(halves, len(self.faces))
        return edges, faces, self.faces[faces, corner]

    def mean_edge_length(self):
        e = self.edges()
        d = self.wrap(self.vertices[e[:, 1]] - self.vertices[e[:, 0]])
        return float(np.linalg.norm(d, axis=1).mean())

    def resolution(self):
        """Discretization scale: the mean edge length."""
        return self.mean_edge_length()

    def face_gradients(self, values, faces=None):
        """Per-triangle gradients of vertex fields as ambient vectors.

        `values` is (V,) or (V, K); the result is (F, 3) or (F, K, 3), with
        F the number of `faces` (all faces by default).  Each row depends
        only on its own face, so a subset gives the rows of the full result
        bit for bit.  Not cached: a cache here would keep per-face arrays
        alive as long as the mesh, which dominates peak memory on large
        grids.
        """
        e1, e2 = self.corner_vectors(faces)
        tri = self.faces if faces is None else self.faces[faces]
        normals = np.cross(e1, e2)
        dbl_area = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = normals / dbl_area
        # rotated opposite-edge vectors: grad f = sum_c f_c (n x e_opp_c)/(2A)
        corners = np.stack([np.zeros_like(e1), e1, e2], axis=1)
        values = np.asarray(values)
        shape = (len(tri),) + (1,) * (values.ndim - 1) + (3,)
        grads = np.zeros((len(tri),) + values.shape[1:] + (3,))
        for c in range(3):
            e_opp = corners[:, (c + 2) % 3] - corners[:, (c + 1) % 3]
            gvec = np.cross(normals, e_opp) / dbl_area
            grads += values[tri[:, c]][..., None] * gvec.reshape(shape)
        return grads

    # -- tangent frames -----------------------------------------------------

    def vertex_normals(self):
        fn = np.cross(*self.corner_vectors())
        fn = fn / np.linalg.norm(fn, axis=1, keepdims=True) \
            * self.face_areas[:, None]
        nrm = np.zeros_like(self.vertices)
        for c in range(3):
            np.add.at(nrm, self.faces[:, c], fn)
        return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)

    def tangent_frames(self):
        """Per-vertex orthonormal tangent pairs from the one-ring LSQ plane.

        Returns an (V, 2, 3) array; rows span the least-squares tangent
        plane of the one-ring neighborhood.  On a flat periodic mesh it is
        a read-only view of one frame.
        """
        if self._frames is not None:
            return self._frames
        v = len(self.vertices)
        if self.period is not None and np.ptp(self.vertices[:, 2]) == 0.0:
            # flat periodic mesh in the plane: the frame is the plane itself,
            # one read-only (2, 3) block seen from every vertex
            self._frames = np.broadcast_to(np.eye(2, 3), (v, 2, 3))
            return self._frames
        e = self.edges()
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        disp = self.wrap(self.vertices[cols] - self.vertices[rows])
        # covariance of one-ring displacements, 3x3 per vertex
        cov = np.zeros((v, 3, 3))
        np.add.at(cov, rows, disp[:, :, None] * disp[:, None, :])
        _, eigvecs = np.linalg.eigh(cov)
        # smallest-eigenvalue direction is the LSQ plane normal
        normals = eigvecs[:, :, 0]
        flip = np.sum(normals * self.vertex_normals(), axis=1) < 0
        normals[flip] *= -1.0
        e1 = eigvecs[:, :, 2]
        e1 -= np.sum(e1 * normals, axis=1, keepdims=True) * normals
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        frames = np.stack([e1, np.cross(normals, e1)], axis=1)
        self._frames = frames
        return frames

    # -- geodesic distance --------------------------------------------------

    @functools.cached_property
    def _distance_graph(self):
        """Edge graph plus one-ring unfolding shortcuts, as a sparse matrix.

        Shortcut edges connect the two vertices opposite a shared edge at
        their unfolded planar distance, added only when the straight
        unfolded segment crosses the shared edge (so every graph path maps
        to an on-surface path of the same length).
        """
        nv = len(self.vertices)
        e, _, opp = self.edge_adjacency()
        a, b = e[:, 0], e[:, 1]
        c, d = opp[:, 0], opp[:, 1]
        xa = self.vertices[a]
        ab = self.wrap(self.vertices[b] - xa)
        ac = self.wrap(self.vertices[c] - xa)
        ad = self.wrap(self.vertices[d] - xa)
        lab = np.linalg.norm(ab, axis=1)
        u = ab / lab[:, None]
        cu = np.sum(ac * u, axis=1)
        cv = np.linalg.norm(ac - cu[:, None] * u, axis=1)
        du = np.sum(ad * u, axis=1)
        dv = -np.linalg.norm(ad - du[:, None] * u, axis=1)  # unfold to far side
        span = cv - dv
        s = np.where(span > 0, cv / np.where(span > 0, span, 1.0), 0.0)
        xcross = cu + s * (du - cu)
        ok = (span > 0) & (xcross >= 0.0) & (xcross <= lab)
        short_w = np.hypot(cu - du, cv - dv)

        rows = np.concatenate([a, c[ok]])
        cols = np.concatenate([b, d[ok]])
        data = np.concatenate([lab, short_w[ok]])
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        key = lo * nv + hi
        # keep the shortest parallel connection per vertex pair
        order = np.lexsort((data, key))
        key, lo, hi, data = key[order], lo[order], hi[order], data[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        g = sparse.csr_matrix((data[first], (lo[first], hi[first])),
                              shape=(nv, nv))
        return g + g.T  # symmetric, so searches run it as a directed graph

    def graph_distance_from(self, source):
        """Dijkstra distance field from a vertex over the shortcut graph."""
        g = self._distance_graph
        return csgraph.dijkstra(g, directed=True, indices=int(source))

    def exact_distance_from(self, source):
        """Distance field from the reference geometry, when available."""
        if self.reference is None:
            raise ValueError("mesh has no reference geometry for exact distances")
        P = self.reference.mesh_points(self)
        return self.reference.distance_from(P[int(source)], P)

    # -- point-set protocol shared with the analytic backends -------------
    # Points are vertex indices; the canonical sample is every vertex.

    def distance_from(self, source):
        return self.graph_distance_from(source)

    def distance_between(self, P, Q, limit=np.inf):
        """Graph distances, (len(P), len(Q)), from one multi-source search.

        The search stops at `limit`: entries beyond it are inf.
        """
        fields = csgraph.dijkstra(self._distance_graph, directed=True,
                                  indices=np.atleast_1d(np.asarray(P, int)),
                                  limit=limit)
        return fields[:, np.asarray(Q, dtype=int)]

    def sample_points(self):
        return np.arange(len(self.vertices))

    def sample_weights(self, P):
        """Lumped vertex masses."""
        return self.masses[np.asarray(P, dtype=int)]

    def tangent_frame(self, p):
        return self.tangent_frames()[int(p)]

    def diameter(self):
        """Double-sweep estimate: the eccentricity of the vertex farthest
        from vertex 0, a lower bound on the graph diameter."""
        field = self.graph_distance_from(0)
        far = int(np.argmax(field))
        return float(self.graph_distance_from(far).max())

    # the former name; perfbench/tracer.py still wraps the method by it
    diameter_estimate = diameter


# ---------------------------------------------------------------------------
# OFF files
# ---------------------------------------------------------------------------

def load_mesh(path):
    """Read an ASCII OFF file into a TriMesh.

    Only triangular faces are accepted.  Parse failures, non-closed
    connectivity and degenerate triangles raise :class:`MeshError` with the
    offending location.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not a text OFF file ({exc.reason})") from exc

    def content(idx):
        return lines[idx].split("#", 1)[0].strip()

    pos = 0
    while pos < len(lines) and not content(pos):
        pos += 1
    if pos >= len(lines) or content(pos) != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    pos += 1
    while pos < len(lines) and not content(pos):
        pos += 1
    try:
        nv, nf, _ = (int(x) for x in content(pos).split())
    except Exception as exc:
        raise MeshError(f"{path}:{pos + 1}: bad counts line") from exc
    pos += 1

    vertices = np.empty((nv, 3))
    faces = np.empty((nf, 3), dtype=np.int64)
    got = 0
    while got < nv:
        if pos >= len(lines):
            raise MeshError(f"{path}: truncated vertex list")
        text = content(pos)
        pos += 1
        if not text:
            continue
        try:
            xyz = [float(x) for x in text.split()[:3]]
        except ValueError:
            xyz = []
        if len(xyz) < 3 or not np.all(np.isfinite(xyz)):
            raise MeshError(f"{path}:{pos}: bad vertex line")
        vertices[got] = xyz
        got += 1
    got = 0
    while got < nf:
        if pos >= len(lines):
            raise MeshError(f"{path}: truncated face list")
        text = content(pos)
        pos += 1
        if not text:
            continue
        try:
            corners, *idx = (int(x) for x in text.split()[:4])
        except ValueError as exc:
            raise MeshError(f"{path}:{pos}: bad face line") from exc
        if corners != 3:
            raise MeshError(f"{path}:{pos}: only triangular faces supported")
        if len(idx) < 3:
            raise MeshError(f"{path}:{pos}: bad face line")
        if min(idx) < 0 or max(idx) >= nv:
            raise MeshError(f"{path}:{pos}: face references vertex index out of range")
        faces[got] = idx
        got += 1

    return TriMesh(vertices, faces)


# ---------------------------------------------------------------------------
# Mesh generators
# ---------------------------------------------------------------------------

_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=float)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def make_sphere(radius, subdivisions):
    """Icosphere: subdivided icosahedron with vertices projected to `radius`."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    reference = Sphere(radius)  # validates the radius
    vertices = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES
    for _ in range(subdivisions):
        # edges ab, bc, ca of each face in turn; each new midpoint takes the
        # next index at its edge's first occurrence
        a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        key = np.minimum(a, b) * len(vertices) + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        new = np.diff(key[order], prepend=-1) != 0
        group = np.cumsum(new) - 1  # edge id of each sorted occurrence
        first = order[new]  # first occurrence of each edge
        rank = np.argsort(np.argsort(first))
        mid = np.empty(len(key), dtype=np.int64)
        mid[order] = len(vertices) + rank[group]
        first.sort()
        m = vertices[a[first]] + vertices[b[first]]
        # vecdot rounds each row as the 1-D norm's dot product does
        m /= np.sqrt(np.vecdot(m, m))[:, None]
        vertices = np.concatenate([vertices, m])
        (a, b, c), (ab, bc, ca) = faces.T, mid.reshape(-1, 3).T
        faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc,
                                 ab, bc, ca]).reshape(-1, 3)
    vertices *= radius / np.linalg.norm(vertices, axis=1, keepdims=True)
    return TriMesh(vertices, faces, reference=reference)


def make_torus_mesh(periods, divisions):
    """Flat torus as a periodic regular grid in the plane.

    Each grid cell is split along one diagonal; the cotangent Laplacian of
    the resulting mesh is the classical 5-point stencil.
    """
    (a1, a2), (n1, n2) = periods, divisions
    reference = FlatTorus((a1, a2))  # validates the periods
    # vertex i * n2 + j sits at (i a1 / n1, j a2 / n2, 0)
    i, j = np.arange(n1), np.arange(n2)
    vertices = np.zeros((n1 * n2, 3))
    grid = vertices.reshape(n1, n2, 3)
    grid[:, :, 0] = ((i * a1) / n1)[:, None]
    grid[:, :, 1] = (j * a2) / n2

    row, next_row = i[:, None] * n2, ((i + 1) % n1)[:, None] * n2
    col, next_col = j, (j + 1) % n2
    faces = np.empty((2, n1, n2, 3), dtype=np.int64)
    faces[0, :, :, 0] = faces[1, :, :, 0] = row + col
    faces[0, :, :, 1] = next_row + col
    faces[0, :, :, 2] = faces[1, :, :, 1] = next_row + next_col
    faces[1, :, :, 2] = row + next_col
    return TriMesh(vertices, faces.reshape(-1, 3),
                   period=(a1, a2, 0.0), reference=reference)


# ---------------------------------------------------------------------------
# Analytic manifolds
# ---------------------------------------------------------------------------

class AnalyticManifold:
    """Base for closed-form backends; subclasses fix kind and geometry."""

    kind = None

    def distance_between(self, P, Q, limit=np.inf):
        """Pairwise geodesic distances, (len(P), len(Q)).

        `limit` is accepted for the point-set protocol and ignored: exact
        distances cost the same at any range, so every entry is finite.
        """
        raise NotImplementedError

    def distance(self, P, Q):
        """Elementwise geodesic distance between matched point arrays."""
        return self._paired_distance(np.atleast_2d(P), np.atleast_2d(Q))

    def _paired_distance(self, P, Q):
        """Row-by-row distance, equal to the diagonal of `distance_between`."""
        raise NotImplementedError

    def distance_from(self, p, P=None):
        if P is None:
            P = self.sample_points()
        return self.distance_between(np.atleast_2d(p), P).ravel()

    def sample_weights(self, P):
        """Quadrature weights of a canonical sample (uniform by default)."""
        return np.full(len(P), self.volume / len(P))

    def resolution(self):
        """Spacing of the canonical sample, (volume / samples)^(1/dim)."""
        return (self.volume / len(self.sample_points())) ** (1.0 / self.dim)


class FlatTorus(AnalyticManifold):
    """Flat torus with the given periods; points are (m, n) coordinates."""

    kind = "torus"

    def __init__(self, periods, samples=4096):
        self.periods = np.asarray(periods, dtype=float)
        if not np.all(np.isfinite(self.periods)) or np.any(self.periods <= 0):
            raise ValueError("periods must be positive and finite")
        self.dim = len(self.periods)
        self.volume = float(np.prod(self.periods))
        self.samples = samples

    def diameter(self):
        return float(np.linalg.norm(self.periods / 2.0))

    def sample_points(self, m=None):
        m = m or self.samples
        # grid with per-axis resolution proportional to the period
        c = (m / self.volume) ** (1.0 / self.dim)
        counts = np.maximum(2, np.round(c * self.periods))
        if not np.all(counts < 2.0 ** 63):  # inf once the volume underflows
            raise ValueError(f"periods {self.periods.tolist()} give a grid of "
                             f"{counts.tolist()} points per axis for {m} "
                             "samples")
        counts = counts.astype(int)
        axes = [np.arange(k) * (p / k) for k, p in zip(counts, self.periods)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def wrap(self, disp):
        return disp - self.periods * np.round(disp / self.periods)

    def distance_between(self, P, Q, limit=np.inf):
        P, Q = np.atleast_2d(P), np.atleast_2d(Q)
        return self._length(p[:, None] - q
                            for p, q in zip(P.T, Q.T, strict=True))

    def _paired_distance(self, P, Q):
        return self._length(p - q for p, q in zip(P.T, Q.T, strict=True))

    def _length(self, displacements):
        """|wrap(d)| from the per-axis components of d, one contiguous pass
        per axis.  The squares are summed in axis order, as norm(axis=-1)
        sums up to seven of them (numpy sums more pairwise)."""
        total = None
        for d, per in zip(displacements, self.periods, strict=True):
            w = d / per
            np.round(w, out=w)
            w *= per
            w = np.subtract(d, w, out=w)
            w *= w
            if total is None:
                total = w
            else:
                total += w
        return np.sqrt(total, out=total)

    def tangent_frame(self, p):
        return np.eye(self.dim)

    def exp(self, p, v):
        return (np.atleast_2d(p) + np.atleast_2d(v)) % self.periods

    def mesh_points(self, mesh):
        return mesh.vertices[:, :self.dim]

    def lattice_modes(self, lam_max):
        """Lattice vectors (one per +/- pair) with eigenvalue <= lam_max, in
        lexicographic order, and their eigenvalues."""
        bounds = np.floor(np.sqrt(lam_max) * self.periods / (2 * np.pi)).astype(int)
        axes = [np.arange(-b, b + 1) for b in bounds]
        grids = np.meshgrid(*axes, indexing="ij")
        mm = np.column_stack([g.ravel() for g in grids])
        lam = np.sum((2 * np.pi * mm / self.periods) ** 2, axis=1)
        # canonical representative: first nonzero component positive
        first = mm[np.arange(len(mm)), np.argmax(mm != 0, axis=1)]
        keep = (lam <= lam_max + 1e-12) & (first >= 0)
        return mm[keep], lam[keep]

    def eigenbasis(self, count):
        # start at the smallest nonzero eigenvalue, which does not change the
        # chosen modes; Python floats overflow to inf without a warning
        k1 = 2 * np.pi / float(self.periods.max())
        lam_max = k1 * k1
        while True:
            if not 0 < lam_max < np.inf:
                raise ValueError(f"periods {self.periods.tolist()} put the "
                                 "eigenvalues outside the double range")
            mm, lam = self.lattice_modes(lam_max)
            if 2 * len(mm) - 1 >= count:
                break
            lam_max *= 2.0
        # row k is vector k // 2: a cosine, then a sine row per vector, but
        # only the cosine (the constant) for the zero vector, which sorts first
        k = np.arange(1, 2 * len(mm))
        k = k[np.argsort(lam[k // 2], kind="stable")[:count]]
        return _TorusBasis(self, lam[k // 2], mm[k // 2],
                           sine=(k % 2 == 1) & (k > 1))


class Circle(FlatTorus):
    """Circle of circumference L: the flat torus with periods (L,)."""

    kind = "circle"

    def __init__(self, length, samples=2048):
        super().__init__((length,), samples=samples)

    # bound in this class too, so per-class profiling sees circle queries
    distance_between = FlatTorus.distance_between


class _TorusBasis:
    """Mode k is amp_k cos(freq_k . x), or amp_k sin(freq_k . x) where
    `sine[k]`; the constant is the cosine of the zero frequency."""

    def __init__(self, torus, lams, mm, sine):
        self.manifold = torus
        self.eigenvalues = lams
        self.freq = 2 * np.pi * mm / torus.periods
        self.sine = sine
        self._const = ~np.any(mm, axis=1)
        V = torus.volume
        self.amp = _frozen(
            np.where(self._const, 1.0 / np.sqrt(V), np.sqrt(2.0 / V)))

    # Each mode takes only its own of cos and sin, in place over the
    # phases, so no second (points, K) table is built.

    def values(self, P):
        theta = np.atleast_2d(P) @ self.freq.T
        np.cos(theta, out=theta, where=~self.sine)
        np.sin(theta, out=theta, where=self.sine)
        theta *= self.amp
        return theta

    def gradients(self, P):
        theta = np.atleast_2d(P) @ self.freq.T
        cosine = ~self.sine
        np.sin(theta, out=theta, where=cosine)
        np.negative(theta, out=theta, where=cosine)
        np.cos(theta, out=theta, where=self.sine)
        theta *= self.amp
        out = theta[:, :, None] * self.freq
        out[:, self._const] = 0.0  # +0.0, where -sin(0) * 0 gives -0.0
        return out

    def sup_norms(self):
        return self.amp

    def grad_sup_norms(self):
        # vecdot rounds each row as the 1-D norm's dot product does
        return self.amp * np.sqrt(np.vecdot(self.freq, self.freq))


class Sphere(AnalyticManifold):
    """Round sphere of radius R in R^3; points are ambient (m, 3) vectors."""

    kind = "sphere"

    def __init__(self, radius, samples=2000):
        if not (np.isfinite(radius) and radius > 0):
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)
        self.dim = 2
        self.volume = 4 * np.pi * (self.radius * self.radius)
        if self.volume == np.inf:
            raise ValueError(f"radius {self.radius!r} overflows the area "
                             "4 pi r^2")
        self.samples = samples

    def diameter(self):
        return np.pi * self.radius

    def sample_points(self, m=None):
        m = m or self.samples
        # Fibonacci sphere, deterministic and nearly uniform
        i = np.arange(m) + 0.5
        phi = np.pi * (1 + np.sqrt(5.0)) * i
        z = 1 - 2 * i / m
        r = np.sqrt(1 - z ** 2)
        return self.radius * np.column_stack([r * np.cos(phi),
                                              r * np.sin(phi), z])

    def distance_between(self, P, Q, limit=np.inf):
        P, Q = np.atleast_2d(P), np.atleast_2d(Q)
        cosang = (P @ Q.T) / self.radius ** 2
        return self.radius * np.arccos(np.clip(cosang, -1.0, 1.0))

    def _paired_distance(self, P, Q):
        # vecdot rounds each 3-term product as the 1x3 @ 3x1 matmul does
        cosang = np.vecdot(P, Q) / self.radius ** 2
        return self.radius * np.arccos(np.clip(cosang, -1.0, 1.0))

    def tangent_frame(self, p):
        p = np.asarray(p, dtype=float).ravel()
        n = p / np.linalg.norm(p)
        h = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(h, n)
        e1 /= np.linalg.norm(e1)
        return np.vstack([e1, np.cross(n, e1)])

    def exp(self, p, v):
        P, V = np.atleast_2d(p).astype(float), np.atleast_2d(v).astype(float)
        out = np.empty_like(P)
        for i in range(len(P)):
            n = P[i] / np.linalg.norm(P[i])
            vt = V[i] - n * (n @ V[i])  # project to the true tangent plane
            nv = np.linalg.norm(vt)
            if nv == 0:
                out[i] = P[i]
                continue
            ang = nv / self.radius
            out[i] = np.cos(ang) * P[i] + np.sin(ang) * self.radius * vt / nv
        return out

    def mesh_points(self, mesh):
        v = mesh.vertices
        return self.radius * v / np.linalg.norm(v, axis=1, keepdims=True)

    def eigenbasis(self, count):
        lams, labels = [], []
        ell = 0
        while len(lams) < count:
            lam = ell * (ell + 1) / self.radius ** 2
            for m in range(-ell, ell + 1):
                lams.append(lam)
                labels.append((ell, m))
            ell += 1
        return _SphereBasis(self, np.array(lams[:count]), labels[:count])


class _SphereBasis:
    """Real spherical harmonics, unit L2 norm on the radius-R sphere.

    Every evaluation factors the complex harmonics as
    Y_l^m(theta, phi) = P_l^m(theta) e^{i m phi}, with P_l^m the fully
    normalized associated Legendre functions (Condon-Shortley phase), for
    m = 0..L only: per block of points, one table of P_l^m and dP_l^m/dtheta
    from the three-term recurrence in l (Holmes & Featherstone 2002,
    J. Geodesy 76:279; DLMF 14.10), one step per degree for all orders at
    once, and real cos(m phi), sin(m phi) tables.  Each label (l, m) picks
    its entries.  Against 40-digit mpmath, values and gradients are within
    28 eps of each label's sup norm at degree 19, 66 at degree 60 and 83
    at degree 80, the poles and points near them included (measured).  Near
    the poles the sectoral P_m^m underflow to 0 at large m, where the true
    values are below the smallest double times the sup norm.
    """

    # points per evaluation block; the Legendre tables are (L+1, L+2, block).
    # The sup norms of 400 harmonics peak at 3.3 MiB with 64 points, 12.0
    # MiB with 256; with 32 the per-block steps start to cost time.
    BLOCK = 64

    def __init__(self, sphere, lams, labels):
        self.manifold = sphere
        self.eigenvalues = lams
        self.labels = labels
        ell, m = np.array(labels).reshape(-1, 2).T
        self._ell, self._order = ell, np.abs(m)
        L = self._degree = int(ell.max())
        # m > 0: sqrt(2) (-1)^m Re Y_l^m = sqrt(2) (-1)^m P_l^m cos(m phi);
        # m < 0: the same with Im Y_l^|m|, so sin(|m| phi)
        self._sign = np.where(m == 0, 1.0,
                              np.sqrt(2.0) * (-1.0) ** self._order)
        # rows of the stacked [cos; sin] table: the label's own, and the one
        # its phi derivative is a multiple of, -m sin(m phi) or m cos(m phi)
        self._trig = self._order + (L + 1) * (m < 0)
        self._dtrig = self._order + (L + 1) * (m >= 0)
        self._dsign = self._sign * np.where(m < 0, 1.0, -1.0) * self._order
        # per degree l, the columns over m < l of a_lm and a_lm b_lm in
        # P_l^m = a_lm cos(theta) P_{l-1}^m - a_lm b_lm P_{l-2}^m
        self._steps = []
        for deg in range(1, L + 1):
            k = np.arange(deg, dtype=float)[:, None]
            a = np.sqrt((4 * deg * deg - 1) / ((deg - k) * (deg + k)))
            b = np.sqrt(np.maximum((deg - 1) ** 2 - k * k, 0.0)
                        / max(4 * (deg - 1) ** 2 - 1, 1))
            self._steps.append((a, a * b))
        # P_m^m = -sqrt((2m+1)/(2m)) sin(theta) P_{m-1}^{m-1}
        k = np.arange(1, L + 1, dtype=float)[:, None]
        self._sectoral = -np.sqrt((2 * k + 1) / (2 * k))
        # dP_l^m/dtheta = up_lm P_l^{m+1} - down_lm P_l^{m-1}: for m = 0,
        # sqrt(l(l+1)) P_l^1, otherwise half of sqrt((l-m)(l+m+1)) P_l^{m+1}
        # and of sqrt((l+m)(l-m+1)) P_l^{m-1}; both are 0 past m = l
        deg, k = (x.astype(float) for x in np.ogrid[:L + 1, :L + 1])
        half = np.where(k == 0, 1.0, 0.5)
        up = half * np.sqrt(np.maximum((deg - k) * (deg + k + 1), 0.0))
        down = half * np.sqrt(np.maximum((deg + k) * (deg - k + 1), 0.0))
        self._up, self._down = up[:, :, None], down[:, 1:, None]

    def _angles(self, P):
        X = np.atleast_2d(P) / self.manifold.radius
        theta = np.arccos(np.clip(X[:, 2], -1.0, 1.0))
        phi = np.arctan2(X[:, 1], X[:, 0])
        return theta, phi

    def _blocks(self, n):
        return (slice(s, s + self.BLOCK) for s in range(0, n, self.BLOCK))

    def _legendre(self, theta, diff):
        """P_l^m(theta), (L+1, L+2, points) with a zero column m = L+1, and
        with `diff` also dP_l^m/dtheta, (L+1, L+1, points).  One step per
        degree, vectorized over the orders and the points."""
        L = self._degree
        # cos(theta) = pole + r, pole = +-1 the nearer pole and r from the
        # half angle, exact where cos(theta) rounds away the distance to the
        # pole; each step adds its small r term last
        north = theta <= np.pi / 2
        pole = np.where(north, 1.0, -1.0)
        r = np.where(north, -2.0 * np.sin(theta / 2) ** 2,
                     2.0 * np.cos(theta / 2) ** 2)
        P = np.zeros((L + 1, L + 2, len(theta)))
        sectoral = np.empty((L + 1, len(theta)))
        sectoral[0] = 1.0 / np.sqrt(4.0 * np.pi)
        np.multiply(self._sectoral, np.sin(theta), out=sectoral[1:])
        np.cumprod(sectoral, axis=0, out=sectoral)
        P[np.arange(L + 1), np.arange(L + 1)] = sectoral
        for deg, (a, ab) in enumerate(self._steps, start=1):
            row = P[deg, :deg]
            np.multiply(a, P[deg - 1, :deg], out=row)
            small = r * row
            row *= pole
            if deg > 1:
                row -= ab * P[deg - 2, :deg]
            row += small
        if not diff:
            return P, None
        dP = self._up * P[:, 1:]
        dP[:, 1:] -= self._down * P[:, :L]
        return P, dP

    def _real_parts(self, theta, phi, diff=False):
        """Real harmonics per label, (K, points); with `diff`, also their
        theta and phi derivatives."""
        P, dP = self._legendre(theta, diff)
        mphi = np.arange(self._degree + 1)[:, None] * phi
        trig = np.concatenate([np.cos(mphi), np.sin(mphi)])
        plm = P[self._ell, self._order]
        own = trig[self._trig]
        fields = [self._sign[:, None] * plm * own]
        if diff:
            fields += [self._sign[:, None] * dP[self._ell, self._order] * own,
                       self._dsign[:, None] * plm * trig[self._dtrig]]
        return fields

    def values(self, P):
        theta, phi = self._angles(P)
        R = self.manifold.radius
        out = np.empty((len(theta), len(self.labels)))
        for b in self._blocks(len(theta)):
            out[b] = self._real_parts(theta[b], phi[b])[0].T / R
        return out

    def _sweep(self, P):
        """Per block of points: its slice, the real harmonics (K, block)
        before the 1/R scale of `values`, and the x, y and z components of
        the gradients, (K, block) each."""
        theta, phi = self._angles(P)
        R = self.manifold.radius
        for b in self._blocks(len(theta)):
            t, f = theta[b], phi[b]
            vals, dth, dph = self._real_parts(t, f, diff=True)
            dph = dph / np.maximum(np.sin(t), 1e-12)
            theta_hat = (np.cos(t) * np.cos(f), np.cos(t) * np.sin(f),
                         -np.sin(t))
            phi_hat = (-np.sin(f), np.cos(f), np.zeros_like(f))
            yield b, vals, [(dth * th + dph * ph) / R ** 2
                            for th, ph in zip(theta_hat, phi_hat)]

    def gradients(self, P):
        out = np.empty((len(np.atleast_2d(P)), len(self.labels), 3))
        for b, _, axes in self._sweep(P):
            for a, comp in enumerate(axes):
                out[b, :, a] = comp.T
        out[:, self._ell == 0] = 0.0  # the products can give it as -0.0
        return out

    # The basis is immutable, so its sampled sup norms are computed once,
    # both in one sweep over the sample points.
    def sup_norms(self):
        return self._sup_norms[0]

    def grad_sup_norms(self):
        return self._sup_norms[1]

    @functools.cached_property
    def _sup_norms(self):
        """Value and gradient sup norms.  Division by R > 0 keeps order, so
        the values are scaled once, at the end.  The squared gradient
        lengths are summed x, then y, then z, the order of norm(axis=-1)
        over three components, so no (points, K, 3) array is built; sqrt
        keeps order too, so it is taken of the largest square."""
        K = len(self.labels)
        sup, grad_sq = np.zeros(K), np.zeros(K)
        for _, vals, (gx, gy, gz) in self._sweep(self.manifold.sample_points()):
            np.maximum(sup, np.abs(vals).max(axis=1), out=sup)
            sq = gx * gx
            sq += gy * gy
            sq += gz * gz
            np.maximum(grad_sq, sq.max(axis=1), out=grad_sq)
        return _frozen(sup / self.manifold.radius), _frozen(np.sqrt(grad_sq))


def _frozen(array):
    array.flags.writeable = False
    return array


# ---------------------------------------------------------------------------
# Laplace-Beltrami assembly
# ---------------------------------------------------------------------------

class OperatorPair:
    """Stiffness/mass pair discretizing the (negative) Laplace-Beltrami operator.

    stiffness is symmetric positive semidefinite with zero row sums
    (constants are harmonic); mass is diagonal with the lumped vertex areas.
    """

    def __init__(self, stiffness, mass):
        self.stiffness = stiffness.tocsr()
        self.mass = mass.tocsr()


def assemble_laplacian(mesh, faces=None):
    """Cotangent stiffness + lumped barycentric mass for a TriMesh.

    `faces` restricts the stiffness to the contributions of those faces
    (all faces by default).  A row whose vertex has all its incident faces
    in the subset gets the same entries, summed in the same order, as in
    the full assembly.  The mass is always the full lumped mass.
    """
    if faces is None:
        tri, areas = mesh.faces, mesh.face_areas
    else:
        tri, areas = mesh.faces[faces], mesh.face_areas[faces]
    e1, e2 = mesh.corner_vectors(faces)
    corners = np.stack([np.zeros_like(e1), e1, e2], axis=1)  # (F, 3, 3)

    edge_len = np.stack([
        np.linalg.norm(corners[:, 2] - corners[:, 1], axis=1),
        np.linalg.norm(corners[:, 2] - corners[:, 0], axis=1),
        np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)], axis=1)
    aspect = edge_len.max(axis=1) ** 2 / (2 * areas)
    ids = np.arange(len(tri)) if faces is None else np.asarray(faces)
    # past 1e4 the cotangent weights of a triangle are unreliable
    for k in np.nonzero(aspect > 1e4)[0]:
        warnings.warn(f"triangle {ids[k]} is numerically degenerate "
                      f"(aspect {aspect[k]:.2e})", RuntimeWarning)

    nv = len(mesh.vertices)
    rows, cols, vals = [], [], []
    for c in range(3):
        i = tri[:, (c + 1) % 3]
        j = tri[:, (c + 2) % 3]
        u = corners[:, (c + 1) % 3] - corners[:, c]
        v = corners[:, (c + 2) % 3] - corners[:, c]
        # cot of the angle at corner c, opposite edge (i, j)
        cot = np.sum(u * v, axis=1) / (2 * areas)
        w = 0.5 * cot
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-w, -w, w, w]
    stiffness = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nv, nv))
    mass = sparse.diags(mesh.masses).tocsr()
    return OperatorPair(stiffness, mass)
