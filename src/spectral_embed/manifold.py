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
import scipy.special


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
        If a vertex is not finite, or the mesh is not closed/oriented, not
        connected or contains a degenerate (near zero area) triangle.
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
        a, b, c = self.faces.T
        bad = np.nonzero((a == b) | (b == c) | (c == a))[0]
        if bad.size:  # a repeated corner has zero area whatever the vertices
            raise MeshError(f"degenerate (zero-area) triangle at face {bad[0]}")
        self.period = None if period is None else np.asarray(period, dtype=float)
        self.reference = reference
        self.dim = 2
        self._frames = None
        self._edge_table = self._build_edge_table()

        bbox = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        if self.period is not None:
            bbox = np.maximum(bbox, self.period)
        diag2 = float(bbox @ bbox)
        self.face_areas = 0.5 * np.linalg.norm(
            np.cross(*self.corner_vectors()), axis=1)
        bad = np.nonzero(self.face_areas < 1e-12 * diag2)[0]
        if bad.size:
            raise MeshError(f"degenerate (zero-area) triangle at face {bad[0]}")

        # barycentric lumped mass: a third of each incident triangle area
        masses = np.zeros(len(self.vertices))
        np.add.at(masses, self.faces.ravel(),
                  np.repeat(self.face_areas / 3.0, 3))
        self.masses = masses
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
        faces by default).
        """
        e1, e2 = self._corners
        return (e1, e2) if faces is None else (e1[faces], e2[faces])

    @functools.cached_property
    def _corners(self):
        x0 = self.vertices[self.faces[:, 0]]
        return (self.wrap(self.vertices[self.faces[:, 1]] - x0),
                self.wrap(self.vertices[self.faces[:, 2]] - x0))

    def _build_edge_table(self):
        """Check that the mesh is closed, oriented and connected; return the
        (E, 2) edges (i < j, sorted) and the (E, 2) half-edges of each.

        Half-edge ``c*F + i`` is the directed edge opposite corner c of face
        i.  One stable sort by undirected key, then direction, puts repeated
        directed edges side by side and, on a closed oriented mesh, the two
        halves of each edge in one row, the lower index first.
        """
        f, nv = self.faces, len(self.vertices)
        tail, head = f.T[[1, 2, 0]].ravel(), f.T[[2, 0, 1]].ravel()
        key = np.minimum(tail, head)
        key *= nv
        key += np.maximum(tail, head, out=head)
        key *= 2
        key += tail < head  # head now holds the larger end
        del tail, head
        order = np.argsort(key, kind="stable")
        key = key[order]

        def smallest(keys):  # the smallest directed edge among sorted keys
            lo, hi = np.divmod(keys >> 1, nv)
            least = np.where(keys & 1, keys >> 1, hi * nv + lo).min()
            return "({},{})".format(*divmod(int(least), nv))

        same = key[1:] == key[:-1]
        if same.any():
            raise MeshError(
                f"non-closed mesh: directed edge {smallest(key[1:][same])} "
                "repeated (inconsistent orientation or non-manifold edge)")
        # no repeats: closed iff keys pair up as 2e (j->i) then 2e + 1 (i->j)
        if not np.array_equal(key[0::2] | 1, key[1::2]):
            starts = np.diff(key >> 1, prepend=-1, append=-1) != 0
            raise MeshError("non-closed mesh: boundary edge "
                            + smallest(key[starts[:-1] & starts[1:]]))
        edges = np.column_stack(np.divmod(key[1::2] >> 1, nv))
        del key
        graph = sparse.csr_matrix(
            (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
            shape=(nv, nv))
        components = csgraph.connected_components(graph, directed=False)[0]
        if components > 1:
            raise MeshError(f"disconnected mesh: {components} components")
        order = order.reshape(-1, 2)
        swap = order[:, 0] > order[:, 1]
        order[swap] = order[swap, ::-1]
        return _frozen(edges), _frozen(order)

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
        plane of the one-ring neighborhood.
        """
        if self._frames is not None:
            return self._frames
        v = len(self.vertices)
        if self.period is not None and np.ptp(self.vertices[:, 2]) == 0.0:
            # flat periodic mesh in the plane: the frame is the plane itself
            self._frames = np.tile(np.eye(2, 3), (v, 1, 1))
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
        return g + g.T

    def graph_distance_from(self, source):
        """Dijkstra distance field from a vertex over the shortcut graph."""
        g = self._distance_graph
        return csgraph.dijkstra(g, directed=False, indices=int(source))

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
        fields = csgraph.dijkstra(self._distance_graph, directed=False,
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
    with open(path) as fh:
        lines = fh.readlines()

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


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


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
    verts = [v for v in _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])]
    faces = _ICO_FACES
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m = m / np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.array(new_faces, dtype=np.int64)
    vertices = np.array(verts)
    vertices *= radius / np.linalg.norm(vertices, axis=1, keepdims=True)
    return TriMesh(vertices, faces, reference=reference)


def make_torus_mesh(periods, divisions):
    """Flat torus as a periodic regular grid in the plane.

    Each grid cell is split along one diagonal; the cotangent Laplacian of
    the resulting mesh is the classical 5-point stencil.
    """
    (a1, a2), (n1, n2) = periods, divisions
    reference = FlatTorus((a1, a2))  # validates the periods
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
    return TriMesh(vertices, faces.astype(np.int64),
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
        counts = np.maximum(2, np.round(c * self.periods)).astype(int)
        axes = [np.arange(k) * (p / k) for k, p in zip(counts, self.periods)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    def wrap(self, disp):
        return disp - self.periods * np.round(disp / self.periods)

    def distance_between(self, P, Q, limit=np.inf):
        disp = np.atleast_2d(P)[:, None, :] - np.atleast_2d(Q)[None, :, :]
        return np.linalg.norm(self.wrap(disp), axis=-1)

    def _paired_distance(self, P, Q):
        return np.linalg.norm(self.wrap(P - Q), axis=-1)

    def tangent_frame(self, p):
        return np.eye(self.dim)

    def exp(self, p, v):
        return (np.atleast_2d(p) + np.atleast_2d(v)) % self.periods

    def mesh_points(self, mesh):
        return mesh.vertices[:, :self.dim]

    def lattice_modes(self, lam_max):
        """Lattice vectors (one per +/- pair) with eigenvalue <= lam_max."""
        bounds = np.floor(np.sqrt(lam_max) * self.periods / (2 * np.pi)).astype(int)
        axes = [np.arange(-b, b + 1) for b in bounds]
        grids = np.meshgrid(*axes, indexing="ij")
        mm = np.column_stack([g.ravel() for g in grids])
        lam = np.sum((2 * np.pi * mm / self.periods) ** 2, axis=1)
        keep = lam <= lam_max + 1e-12
        mm, lam = mm[keep], lam[keep]
        # canonical representative: first nonzero component positive
        canon = np.ones(len(mm), dtype=bool)
        for i, m in enumerate(mm):
            nz = m[m != 0]
            canon[i] = (len(nz) == 0) or (nz[0] > 0)
        mm, lam = mm[canon], lam[canon]
        order = np.lexsort(tuple(mm[:, ax] for ax in range(self.dim - 1, -1, -1))
                           + (lam,))
        return mm[order], lam[order]

    def eigenbasis(self, count):
        lam_max = 4.0
        while True:
            mm, lam = self.lattice_modes(lam_max)
            total = 1 + 2 * (len(mm) - 1)
            if total >= count:
                break
            lam_max *= 2.0
        lams, labels = [], []
        for m, l in zip(mm, lam):
            if np.all(m == 0):
                lams.append(0.0)
                labels.append((m, "const"))
            else:
                lams += [l, l]
                labels += [(m, "cos"), (m, "sin")]
        order = np.argsort(np.array(lams), kind="stable")[:count]
        return _TorusBasis(self, np.array(lams)[order],
                           [labels[i] for i in order])


class Circle(FlatTorus):
    """Circle of circumference L: the flat torus with periods (L,)."""

    kind = "circle"

    def __init__(self, length, samples=2048):
        super().__init__((length,), samples=samples)

    # bound in this class too, so per-class profiling sees circle queries
    distance_between = FlatTorus.distance_between


class _TorusBasis:
    def __init__(self, torus, lams, labels):
        self.manifold = torus
        self.eigenvalues = lams
        self.labels = labels

    def _phase(self, P):
        X = np.atleast_2d(P)
        freq = np.array([2 * np.pi * m / self.manifold.periods
                         for m, _ in self.labels])
        return X @ freq.T, freq

    def values(self, P):
        theta, _ = self._phase(P)
        amp = np.sqrt(2.0 / self.manifold.volume)
        out = np.empty_like(theta)
        for k, (_, trig) in enumerate(self.labels):
            if trig == "const":
                out[:, k] = 1.0 / np.sqrt(self.manifold.volume)
            else:
                f = np.cos if trig == "cos" else np.sin
                out[:, k] = amp * f(theta[:, k])
        return out

    def gradients(self, P):
        theta, freq = self._phase(P)
        amp = np.sqrt(2.0 / self.manifold.volume)
        out = np.zeros((theta.shape[0], theta.shape[1], self.manifold.dim))
        for k, (_, trig) in enumerate(self.labels):
            if trig == "const":
                continue
            d = (-np.sin(theta[:, k]) if trig == "cos" else np.cos(theta[:, k]))
            out[:, k, :] = amp * d[:, None] * freq[k][None, :]
        return out

    def sup_norms(self):
        V = self.manifold.volume
        return np.array([1.0 / np.sqrt(V) if trig == "const"
                         else np.sqrt(2.0 / V) for _, trig in self.labels])

    def grad_sup_norms(self):
        V = self.manifold.volume
        out = []
        for m, trig in self.labels:
            if trig == "const":
                out.append(0.0)
            else:
                out.append(np.sqrt(2.0 / V) * np.linalg.norm(
                    2 * np.pi * np.asarray(m, float) / self.manifold.periods))
        return np.array(out)


class Sphere(AnalyticManifold):
    """Round sphere of radius R in R^3; points are ambient (m, 3) vectors."""

    kind = "sphere"

    def __init__(self, radius, samples=2000):
        if not (np.isfinite(radius) and radius > 0):
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)
        self.dim = 2
        self.volume = 4 * np.pi * radius ** 2
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
    Y_l^m(theta, phi) = P_l^m(theta) e^{i m phi}: per block of points, one
    real `sph_legendre_p_all` call up to the largest degree and one
    e^{i m phi} table for m = 0..L, whose product gives Y_l^m for m >= 0.
    Each label (l, m) picks Y_l^|m| from it.  The values and derivatives
    are bit for bit those of `scipy.special.sph_harm_y`, with one caveat:
    from degree 23 on (seen up to 29), a zero derivative at an exact pole
    can come out as -0.0 where scipy has +0.0, or the reverse.  Norms and
    sup norms do not see the sign.
    """

    # points per sph_legendre_p_all call, which returns (L+1, 2L+1, block)
    # arrays per derivative order
    BLOCK = 256

    def __init__(self, sphere, lams, labels):
        self.manifold = sphere
        self.eigenvalues = lams
        self.labels = labels
        ell, m = np.array(labels).reshape(-1, 2).T
        self._ell, self._order, self._imag = ell, np.abs(m), m < 0
        # m > 0: sqrt(2) (-1)^m Re Y_l^m; m < 0: the same with Im Y_l^|m|
        self._sign = np.where(m == 0, 1.0,
                              np.sqrt(2.0) * (-1.0) ** self._order)

    def _angles(self, P):
        X = np.atleast_2d(P) / self.manifold.radius
        theta = np.arccos(np.clip(X[:, 2], -1.0, 1.0))
        phi = np.arctan2(X[:, 1], X[:, 0])
        return theta, phi

    def _blocks(self, n):
        return (slice(s, s + self.BLOCK) for s in range(0, n, self.BLOCK))

    def _real_parts(self, theta, phi, diff=False):
        """Real harmonics per label, (K, points); with `diff`, also their
        theta and phi derivatives."""
        L = int(self._ell.max())
        m = np.arange(L + 1)[:, None]
        # orders 0..L of every degree; the negative orders are never read
        plm = scipy.special.sph_legendre_p_all(L, L, theta, diff_n=int(diff))
        plm = plm[:, :, :L + 1]
        e = np.exp(1j * m * phi)
        fields = [plm[0] * e]
        if diff:
            # d/dphi written as plm (i m e) and `+ 0.0` on both derivatives
            # reproduce scipy's rounding and its +0.0 at the poles
            fields += [plm[1] * e + 0.0, plm[0] * (1j * m * e) + 0.0]
        imag, sign = self._imag[:, None], self._sign[:, None]
        picked = (f[self._ell, self._order] for f in fields)
        return [sign * np.where(imag, f.imag, f.real) for f in picked]

    def values(self, P):
        theta, phi = self._angles(P)
        R = self.manifold.radius
        out = np.empty((len(theta), len(self.labels)))
        for b in self._blocks(len(theta)):
            out[b] = self._real_parts(theta[b], phi[b])[0].T / R
        return out

    def gradients(self, P):
        theta, phi = self._angles(P)
        R = self.manifold.radius
        sin_t = np.maximum(np.sin(theta), 1e-12)
        theta_hat = np.column_stack([np.cos(theta) * np.cos(phi),
                                     np.cos(theta) * np.sin(phi),
                                     -np.sin(theta)])
        phi_hat = np.column_stack([-np.sin(phi), np.cos(phi),
                                   np.zeros_like(phi)])
        out = np.zeros((len(theta), len(self.labels), 3))
        live = self._ell > 0
        for b in self._blocks(len(theta)):
            _, dth, dph = self._real_parts(theta[b], phi[b], diff=True)
            dth, dph = dth[live].T, dph[live].T
            out[b, live] = (dth[:, :, None] * theta_hat[b, None, :]
                            + (dph / sin_t[b, None])[:, :, None]
                            * phi_hat[b, None, :]) / R ** 2
        return out

    # The basis is immutable, so its sampled sup norms are computed once.
    def sup_norms(self):
        return self._sup_norms

    def grad_sup_norms(self):
        return self._grad_sup_norms

    @functools.cached_property
    def _sup_norms(self):
        vals = self.values(self.manifold.sample_points())
        return _frozen(np.abs(vals).max(axis=0))

    @functools.cached_property
    def _grad_sup_norms(self):
        grads = self.gradients(self.manifold.sample_points())
        return _frozen(np.linalg.norm(grads, axis=2).max(axis=0))


def _frozen(array):
    array.flags.writeable = False
    return array


def make_analytic(kind, **params):
    """Closed-form backend by name: circle(length), sphere(radius), torus(periods)."""
    if kind == "circle":
        return Circle(params["length"])
    if kind == "sphere":
        return Sphere(params["radius"])
    if kind == "torus":
        return FlatTorus(params["periods"])
    raise ValueError(f"unknown analytic manifold kind {kind!r}")


def export_distance_field(field, path):
    with open(path, "w") as fh:
        fh.write("vertex,distance\n")
        for i, d in enumerate(field):
            fh.write(f"{i},{float(d)!r}\n")


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


def assemble_laplacian(mesh, aspect_warn=1e4, faces=None):
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
    for k in np.nonzero(aspect > aspect_warn)[0]:
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
