"""Quantitative harmonic-radius machinery.

Closed-form model-space constants (volumes, segment constant, averaged
Hessian bound, Holder constant of distance-gradient inner products), the
radius-condition solver, and desk-scale mesh experiments with distance
and harmonic coordinates.

Conventions: `lam` is the curvature scale with Ricci >= -(n-1) lam^2;
all constants depend on the dimensionless products lam*r and lam*iota.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .manifold import assemble_laplacian

# scipy.integrate is imported inside model_volumes and abresch_gromoll, its
# only users: imported here it would load scipy.optimize into every CLI run.


@dataclass(frozen=True)
class RadiusParams:
    dim: int
    lam: float
    iota: float
    r: float

    def __post_init__(self):
        if self.lam <= 0 or self.iota <= 0 or self.r <= 0:
            raise ValueError("lam, iota and r must be positive")


def solid_angle(n):
    """Total solid angle in n dimensions (area of the unit (n-1)-sphere)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def model_volumes(n, lam, r):
    """(ball, boundary) volumes in the model of curvature -lam^2.

    The boundary volume is closed form; the ball volume integrates it with
    tight quadrature.
    """
    import scipy.integrate as integrate
    if lam <= 0 or r <= 0:
        raise ValueError("lam and r must be positive")
    omega = solid_angle(n)
    boundary = omega * math.sinh(lam * r) ** (n - 1) / lam ** (n - 1)
    ball, _ = integrate.quad(
        lambda s: omega * math.sinh(lam * s) ** (n - 1) / lam ** (n - 1),
        0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)
    return ball, boundary


def model_ball_lower_bound(n, lam, r):
    """Jensen lower bound Omega_n r sinh^(n-1)(lam r / 2) / lam^(n-1)."""
    return solid_angle(n) * r * math.sinh(lam * r / 2.0) ** (n - 1) \
        / lam ** (n - 1)


def segment_constant(n, lam_s):
    """Segment-inequality constant 2^(n-1) cosh^(n-1)(lam s / 2)."""
    if lam_s < 0:
        raise ValueError("lam_s must be nonnegative")
    return 2.0 ** (n - 1) * math.cosh(lam_s / 2.0) ** (n - 1)


def _boundary_to_ball(n, lam_r):
    """r Vol(dB_r)/Vol(B_r) in the model space; depends only on lam*r."""
    ball, boundary = model_volumes(n, 1.0, lam_r)
    return lam_r * boundary / ball


def hessian_bound(n, lam_r, coth_bound, form="exact"):
    """Averaged-squared-Hessian bound F(n, lam r, coth bound).

    `form="exact"` uses the true model volume ratio; `form="crude"` replaces
    it with 2^(n-1) cosh^(n-1)(lam r / 2), the explicit estimate.  Both are
    nondecreasing in lam_r and in the coth bound.
    """
    if lam_r <= 0:
        raise ValueError("lam_r must be positive")
    if coth_bound < 1:
        raise ValueError("coth bound is at least 1")
    base = (n - 1) * lam_r + (n - 1) ** 2 * lam_r * coth_bound ** 2
    if form == "crude":
        ratio_term = 2.0 ** (n - 1) * math.cosh(lam_r / 2.0) ** (n - 1)
    elif form == "exact":
        # r Vol(dB_r)/Vol(B_r) in the model space, a dimensionless function
        # of lam*r with flat limit n; the crude form is its upper bound
        ratio_term = _boundary_to_ball(n, lam_r)
    else:
        raise ValueError(f"unknown form {form!r}")
    return base + ratio_term * (n - 1) * coth_bound


def holder_constant(n, lam_r, lam_iota, form="exact"):
    """Holder constant of distance-gradient inner products.

    C = 6 (12 VolRatio(4r, r) c(n, 3 lam r) F(n, 3 lam r, coth(lam iota/16)))^(1/2).
    """
    ball_r, _ = model_volumes(n, 1.0, lam_r)
    ball_4r, _ = model_volumes(n, 1.0, 4.0 * lam_r)
    vol_ratio = ball_4r / ball_r
    c = segment_constant(n, 3.0 * lam_r)
    f = hessian_bound(n, 3.0 * lam_r, 1.0 / math.tanh(lam_iota / 16.0),
                      form=form)
    return 6.0 * math.sqrt(12.0 * vol_ratio * c * f)


CONDITION_THRESHOLDS = {
    # the three explicit smallness conditions under which the coordinate
    # constructions work; the harmonic-case constant has no closed form,
    # so the solver exposes the threshold as a preset
    "distance": lambda n: 1.0 / (2.0 * n),
    "harmonic_pre": lambda n: 1.0 / (4.0 * n),
    "harmonic": lambda n: 1.0 / n,
}


@dataclass(frozen=True)
class CoordinateRadius:
    r: float
    binding: str           # "cap" | "condition"
    condition: str
    threshold: float


def coordinate_radius(n, lam, iota, condition="distance", form="exact"):
    """Largest r below iota/64 satisfying the selected smallness condition.

    Bisected to 1e-12 relative; reports whether the iota/64 cap or the
    Holder condition binds.
    """
    if condition not in CONDITION_THRESHOLDS:
        raise ValueError(f"unknown condition {condition!r}")
    threshold = CONDITION_THRESHOLDS[condition](n)
    cap = iota / 64.0

    def ok(r):
        try:
            return holder_constant(n, lam * r, lam * iota, form=form) \
                * math.sqrt(lam * r) < threshold
        except OverflowError:
            # the constant grows like sinh of the radius; overflow means
            # the condition is violated by an astronomical margin
            return False

    r_hi = cap * (1.0 - 1e-15)
    if ok(r_hi):
        return CoordinateRadius(r_hi, "cap", condition, threshold)
    lo, hi = 0.0, r_hi
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return CoordinateRadius(lo, "condition", condition, threshold)


def abresch_gromoll(n, lam, big_r, r):
    """Comparison barrier: the double integral of sinh^(n-1) ratios.

    In the model space its Laplacian is identically one; it decreases in r
    and vanishes at r = R.
    """
    import scipy.integrate as integrate
    if not (0.0 <= r <= big_r):
        raise ValueError("need 0 <= r <= R")
    if r == big_r:
        return 0.0

    def inner(s):
        val, _ = integrate.quad(
            lambda tau: math.sinh(lam * tau) ** (n - 1), s, big_r,
            epsabs=0.0, epsrel=1e-10, limit=200)
        return val / math.sinh(lam * s) ** (n - 1)

    val, _ = integrate.quad(inner, r, big_r, epsabs=0.0, epsrel=1e-9,
                            limit=200)
    return val


def constants_sweep(n, lam, iota, radii, form="exact"):
    """Rows (n, lam, iota, r, volratio, c, F, C, cond_dist, cond_harm)."""
    rows = []
    for r in radii:
        ball_r, _ = model_volumes(n, 1.0, lam * r)
        ball_4r, _ = model_volumes(n, 1.0, 4.0 * lam * r)
        c = segment_constant(n, 3.0 * lam * r)
        f = hessian_bound(n, 3.0 * lam * r,
                          1.0 / math.tanh(lam * iota / 16.0), form=form)
        big_c = holder_constant(n, lam * r, lam * iota, form=form)
        lhs = big_c * math.sqrt(lam * r)
        rows.append((n, lam, iota, r, ball_4r / ball_r, c, f, big_c,
                     int(lhs < 1.0 / (2 * n)), int(lhs < 1.0 / n)))
    return rows


# ---------------------------------------------------------------------------
# Mesh experiments
# ---------------------------------------------------------------------------

def frame_points(mesh, base, distance):
    """Points at the given geodesic distance from `base` along the frame.

    Uses the reference geometry's exponential map; the returned points are
    exact manifold points (not snapped to vertices).
    """
    if mesh.reference is None:
        raise ValueError("experiment needs a mesh with reference geometry")
    ref = mesh.reference
    P = ref.mesh_points(mesh)
    p = P[int(base)]
    frame = mesh.tangent_frame(base)
    pts = []
    for e in frame:
        tangent = e[: P.shape[1]] if P.shape[1] < 3 else e
        pts.append(ref.exp(p, -distance * tangent)[0])
    return np.vstack(pts)


def _distance_fields(mesh, sources):
    ref = mesh.reference
    P = ref.mesh_points(mesh)
    return ref.distance_between(np.atleast_2d(sources), P)


@dataclass
class DistanceCoordinateReport:
    gram_eigen_min: float
    gram_eigen_max: float
    gram_at_base: np.ndarray
    holder_scaled: float     # r^(1/2) [g^{ij}]_{C^{1/2}} over the ball
    ball_faces: int
    ball_vertices: int
    radius: float
    frame_distance: float


def _ball_faces(mesh, dist_to_base, r):
    inside = dist_to_base <= r
    return np.nonzero(np.all(inside[mesh.faces], axis=1))[0]


def _gram_fields(mesh, fields, faces):
    sub = [mesh.face_gradients(f, faces) for f in fields]
    n = len(sub)
    gram = np.empty((len(faces), n, n))
    for i in range(n):
        for j in range(n):
            gram[:, i, j] = np.sum(sub[i] * sub[j], axis=1)
    return gram


def _face_centroids(mesh, faces):
    x0 = mesh.vertices[mesh.faces[faces, 0]]
    e1, e2 = mesh.corner_vectors(faces)
    return x0 + (e1 + e2) / 3.0


def _holder_over_faces(mesh, gram, faces, alpha=0.5):
    cent = _face_centroids(mesh, faces)
    best = 0.0
    n = gram.shape[1]
    diff = mesh.wrap(cent[:, None, :] - cent[None, :, :])
    dist = np.linalg.norm(diff, axis=-1)
    mask = dist > 0
    for i in range(n):
        for j in range(i, n):
            dg = np.abs(gram[:, None, i, j] - gram[None, :, i, j])
            best = max(best, float((dg[mask] / dist[mask] ** alpha).max()))
    return best


def distance_coordinates_experiment(mesh, base, r, *, iota, frame_factor=0.25):
    """Distance-function coordinates around a base vertex.

    Places one source per tangent-frame direction at distance
    `frame_factor * iota`, computes exact distance fields, per-triangle
    gradients, and the gram matrix field over the ball of radius r.
    """
    if mesh.reference is None:
        raise ValueError("experiment needs a mesh with reference geometry")
    d_frame = frame_factor * iota
    sources = frame_points(mesh, base, d_frame)
    fields = _distance_fields(mesh, sources)
    base_field = mesh.exact_distance_from(base)
    faces = _ball_faces(mesh, base_field, r)
    if faces.size == 0:
        raise ValueError("ball radius below mesh resolution")
    gram = _gram_fields(mesh, fields, faces)
    eigs = np.linalg.eigvalsh(gram)
    touching = np.nonzero(np.any(mesh.faces == int(base), axis=1))[0]
    gram_base = _gram_fields(mesh, fields, touching).mean(axis=0)
    holder = _holder_over_faces(mesh, gram, faces) * math.sqrt(r)
    return DistanceCoordinateReport(
        float(eigs.min()), float(eigs.max()), gram_base, float(holder),
        int(faces.size), int(np.sum(base_field <= r)), float(r),
        float(d_frame)), fields


@dataclass
class HarmonicCoordinateReport:
    sup_deviation: float          # sup |b_i - rho_i| / r
    max_principle_ok: bool
    gram_eigen_min: float
    gram_eigen_max: float
    holder_half: float
    holder_09: float
    interior_vertices: int
    radius: float


def harmonic_coordinates_experiment(mesh, base, r, *, iota,
                                    frame_factor=0.25, fields=None):
    """Harmonic coordinates by a Dirichlet solve with distance boundary data.

    Solves Laplace(b_i) = 0 on the ball interior with b_i = rho_i on the
    boundary ring, then reports the deviation from rho_i, the discrete
    maximum principle, and the gram field of the harmonic gradients.
    The stiffness is assembled from the faces touching the interior only:
    its interior rows are those of the full assembly, bit for bit, so the
    cost scales with the ball and not with the mesh.
    """
    if fields is None:
        sources = frame_points(mesh, base, frame_factor * iota)
        fields = _distance_fields(mesh, sources)
    base_field = mesh.exact_distance_from(base)
    inside = base_field < r
    interior = np.nonzero(inside)[0]
    if interior.size == 0:
        raise ValueError("no interior vertices at this radius")
    corner_inside = inside[mesh.faces]
    star = np.nonzero(np.any(corner_inside, axis=1))[0]
    stiffness = assemble_laplacian(mesh, faces=star).stiffness
    neighbor_mask = np.zeros(len(mesh.vertices), dtype=bool)
    sub = stiffness[interior]
    neighbor_mask[sub.indices] = True
    neighbor_mask[interior] = False
    ring = np.nonzero(neighbor_mask)[0]

    s_ii = stiffness[np.ix_(interior, interior)].tocsc()
    s_ib = stiffness[np.ix_(interior, ring)]
    try:
        lu = spla.splu(s_ii)
    except RuntimeError as exc:
        raise ValueError(f"singular Dirichlet system: {exc}") from exc

    harmonics = []
    sup_dev = 0.0
    max_ok = True
    for rho in fields:
        b_interior = lu.solve(-s_ib @ rho[ring])
        sup_dev = max(sup_dev,
                      float(np.abs(b_interior - rho[interior]).max()) / r)
        lo, hi = rho[ring].min(), rho[ring].max()
        if b_interior.min() < lo - 1e-10 or b_interior.max() > hi + 1e-10:
            max_ok = False
        b = rho.copy()
        b[interior] = b_interior
        harmonics.append(b)

    # gram over faces with every corner interior (solved values there)
    faces = np.nonzero(np.all(corner_inside, axis=1))[0]
    if faces.size == 0:
        faces = _ball_faces(mesh, base_field, r)
    gram = _gram_fields(mesh, harmonics, faces)
    eigs = np.linalg.eigvalsh(gram)
    return HarmonicCoordinateReport(
        sup_dev, max_ok, float(eigs.min()), float(eigs.max()),
        float(_holder_over_faces(mesh, gram, faces, 0.5) * math.sqrt(r)),
        float(_holder_over_faces(mesh, gram, faces, 0.9) * r ** 0.9),
        int(interior.size), float(r)), harmonics


# ---------------------------------------------------------------------------
# Comparison-geometry checks on meshes
# ---------------------------------------------------------------------------

def ball_volume_profile(mesh, base, radii):
    """Mesh volume of metric balls, faces weighted by inside-corner fraction."""
    field = mesh.exact_distance_from(base) if mesh.reference is not None \
        else mesh.graph_distance_from(base)
    corner_d = field[mesh.faces]
    vols = []
    for r in radii:
        inside = np.mean(corner_d <= r, axis=1)
        vols.append(float(np.sum(mesh.face_areas * inside)))
    return np.asarray(vols)


def bishop_gromov_ratios(mesh, base, lam, radii):
    """Vol(B_r(p)) / Vol_model(B_r) over the radii grid."""
    vols = ball_volume_profile(mesh, base, radii)
    model = np.array([model_volumes(mesh.dim, lam, r)[0] for r in radii])
    return vols / model


def laplacian_bound_check(mesh, field, lam, *, slack=0.2, min_distance,
                          max_distance=None, ridge_angle=1.0):
    """|Laplacian rho| <= (n-1) lam coth(lam rho) (1 + slack), off ridges.

    Ridge vertices (gradient direction jumps across an edge beyond
    `ridge_angle` radians) and their 2-ring are excluded, as is the region
    within `min_distance` of the source: the distributional part of the
    Laplacian lives there.  The comparison bound holds for distances up to
    half the injectivity radius, so callers pass `max_distance = iota / 2`;
    beyond it the two-sided estimate has no basis.
    """
    ops = assemble_laplacian(mesh)
    lap = -(ops.stiffness @ field) / mesh.masses
    grads = mesh.face_gradients(field)
    gnorm = np.linalg.norm(grads, axis=1, keepdims=True)
    gdir = grads / np.maximum(gnorm, 1e-30)

    e, fpairs, _ = mesh.edge_adjacency()
    cosang = np.sum(gdir[fpairs[:, 0]] * gdir[fpairs[:, 1]], axis=1)
    ridge = np.zeros(len(mesh.vertices), dtype=bool)
    ridge[e[cosang < math.cos(ridge_angle)].ravel()] = True
    # grow twice along edges
    for _ in range(2):
        grown = ridge.copy()
        grown[e[:, 0]] |= ridge[e[:, 1]]
        grown[e[:, 1]] |= ridge[e[:, 0]]
        ridge = grown

    keep = (~ridge) & (field > min_distance)
    if max_distance is not None:
        keep &= field <= max_distance
    n = mesh.dim
    bound = (n - 1) * lam / np.tanh(lam * np.maximum(field, 1e-30)) \
        * (1.0 + slack)
    ok = np.abs(lap[keep]) <= bound[keep]
    return bool(np.all(ok)), {
        "checked": int(keep.sum()),
        "violations": int(np.sum(~ok)),
        "worst_ratio": float((np.abs(lap[keep]) / bound[keep]).max()),
    }
