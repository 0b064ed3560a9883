"""Quantitative harmonic-radius machinery.

Closed-form model-space constants (volumes, segment constant, averaged
Hessian bound, Holder constant of distance-gradient inner products), the
radius-condition solver, and desk-scale mesh experiments with distance
and harmonic coordinates.

Conventions: `lam` is the curvature scale with Ricci >= -(n-1) lam^2;
all constants depend on the dimensionless products lam*r and lam*iota.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .charts import holder_seminorm
from .manifold import assemble_laplacian

# scipy.integrate is imported inside abresch_gromoll, its only user: imported
# here it would load scipy.optimize into every CLI run.  The model volumes
# are closed form and need no quadrature.


def solid_angle(n):
    """Total solid angle in n dimensions (area of the unit (n-1)-sphere)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.lru_cache(maxsize=None)
def _sinh_power_series(k):
    """Coefficients a_m of I_k(x) = x^(k+1) sum_m a_m x^(2m), highest first.

    sinh^k s = 2^-k sum_j (-1)^j C(k, j) e^((k-2j) s), so the coefficient
    of x^(p+1) in I_k, p = k + 2m, is 2^-k sum_j (-1)^j C(k, j) (k-2j)^p
    / (p+1)!: summed in integers and rounded once.  Every a_m is positive,
    so for x <= 1 a term is at most its value at x = 1; the series stops
    past its peak, at a term below 2^-60 of the sum so far.
    """
    terms = [(-1) ** j * math.comb(k, j) * (k - 2 * j) ** k
             for j in range(k + 1)]
    steps = [(k - 2 * j) ** 2 for j in range(k + 1)]
    den = 2 ** k * math.factorial(k + 1)
    coeffs = [sum(terms) / den]
    total = coeffs[0]
    while len(coeffs) < 2 or coeffs[-1] >= coeffs[-2] / 2 \
            or coeffs[-1] >= total * 2.0 ** -60:
        terms = list(map(int.__mul__, terms, steps))
        p = k + 2 * len(coeffs)
        den *= p * (p + 1)
        coeffs.append(sum(terms) / den)
        total += coeffs[-1]
    return tuple(reversed(coeffs))


def _sinh_power_integral(k, x):
    """I_k(x), the integral of sinh^k over [0, x], for integer k >= 0.

    Below x = 1 the positive power series, summed by Horner in x^2.  From
    x = 1 on the reduction I_k = (sinh^(k-1) x cosh x - (k-1) I_(k-2)) / k
    from I_0 = x and I_1 = 2 sinh^2(x/2): there the subtracted term is at
    most 0.56 of the first, and an error carried from I_(k-2) shrinks by
    about 1/sinh^2 x per step; below x = 1 it would grow instead.
    """
    if x < 1.0:
        y = x * x
        acc = 0.0
        for a in _sinh_power_series(k):
            acc = acc * y + a
        return x ** (k + 1) * acc
    s, c = math.sinh(x), math.cosh(x)
    first, val = (1, 2.0 * math.sinh(x / 2.0) ** 2) if k % 2 else (0, x)
    for j in range(first + 2, k + 1, 2):
        val = (s ** (j - 1) * c - (j - 1) * val) / j
    return val


def model_volumes(n, lam, r):
    """(ball, boundary) volumes in the model of curvature -lam^2.

    Both are closed form: the ball volume is Omega_n I_(n-1)(lam r) / lam^n,
    with I_k the integral of sinh^k from 0 (`_sinh_power_integral`).
    """
    if lam <= 0 or r <= 0:
        raise ValueError("lam and r must be positive")
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    omega = solid_angle(n)
    boundary = omega * math.sinh(lam * r) ** (n - 1) / lam ** (n - 1)
    # a Python float, so an underflowed ball divides by zero with an error
    ball = omega * _sinh_power_integral(int(n) - 1, float(lam * r)) / lam ** n
    return ball, boundary


def segment_constant(n, lam_s):
    """Segment-inequality constant 2^(n-1) cosh^(n-1)(lam s / 2)."""
    if lam_s < 0:
        raise ValueError("lam_s must be nonnegative")
    return 2.0 ** (n - 1) * math.cosh(lam_s / 2.0) ** (n - 1)


def _boundary_to_ball(n, lam_r):
    """r Vol(dB_r)/Vol(B_r) in the model space; depends only on lam*r."""
    ball, boundary = model_volumes(n, 1.0, lam_r)
    return lam_r * boundary / ball


def hessian_bound(n, lam_r, coth_bound):
    """Averaged-squared-Hessian bound F(n, lam r, coth bound).

    Uses the true model volume ratio r Vol(dB_r)/Vol(B_r), a dimensionless
    function of lam*r with flat limit n, whose explicit upper estimate is
    2^(n-1) cosh^(n-1)(lam r / 2).  Nondecreasing in lam_r and in the coth
    bound.
    """
    if lam_r <= 0:
        raise ValueError("lam_r must be positive")
    if coth_bound < 1:
        raise ValueError("coth bound is at least 1")
    base = (n - 1) * lam_r + (n - 1) ** 2 * lam_r * coth_bound ** 2
    return base + _boundary_to_ball(n, lam_r) * (n - 1) * coth_bound


def _holder_terms(n, lam_r, lam_iota):
    """(VolRatio(4r, r), c(n, 3 lam r), F(n, 3 lam r, coth(lam iota/16)), C)
    with C = 6 (12 VolRatio c F)^(1/2); every radius is a multiple of the
    product lam r, so 3 lam r is computed as 3 (lam r)."""
    ball_r, _ = model_volumes(n, 1.0, lam_r)
    ball_4r, _ = model_volumes(n, 1.0, 4.0 * lam_r)
    vol_ratio = ball_4r / ball_r
    c = segment_constant(n, 3.0 * lam_r)
    f = hessian_bound(n, 3.0 * lam_r, 1.0 / math.tanh(lam_iota / 16.0))
    return vol_ratio, c, f, 6.0 * math.sqrt(12.0 * vol_ratio * c * f)


def holder_constant(n, lam_r, lam_iota):
    """Holder constant of distance-gradient inner products.

    C = 6 (12 VolRatio(4r, r) c(n, 3 lam r) F(n, 3 lam r, coth(lam iota/16)))^(1/2).
    """
    return _holder_terms(n, lam_r, lam_iota)[3]


@dataclass(frozen=True)
class CoordinateRadius:
    r: float
    binding: str           # "cap" | "condition"
    threshold: float


def coordinate_radius(n, lam, iota):
    """Largest r below iota/64 with C sqrt(lam r) < 1/(2n), the smallness
    condition under which distance coordinates work.

    Bisected to 1e-12 relative; reports whether the iota/64 cap or the
    Holder condition binds.
    """
    threshold = 1.0 / (2.0 * n)
    cap = iota / 64.0

    def ok(r):
        try:
            return holder_constant(n, lam * r, lam * iota) \
                * math.sqrt(lam * r) < threshold
        except OverflowError:
            # the constant grows like sinh of the radius; overflow means
            # the condition is violated by an astronomical margin
            return False

    r_hi = cap * (1.0 - 1e-15)
    if ok(r_hi):
        return CoordinateRadius(r_hi, "cap", threshold)
    lo, hi = 0.0, r_hi
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return CoordinateRadius(lo, "condition", threshold)


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


def constants_sweep(n, lam, iota, radii):
    """Rows (n, lam, iota, r, volratio, c, F, C, cond_dist, cond_harm).

    The radii are taken as Python floats, so a model ball that underflows
    divides by zero with an error instead of a numpy warning and nan.
    """
    rows = []
    for r in map(float, radii):
        vol_ratio, c, f, big_c = _holder_terms(n, lam * r, lam * iota)
        lhs = big_c * math.sqrt(lam * r)
        rows.append((n, lam, iota, r, vol_ratio, c, f, big_c,
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
    f0, f1, f2 = mesh.faces.T  # per corner: all(axis=1) on (F, 3) is slow
    return np.nonzero(inside[f0] & inside[f1] & inside[f2])[0]


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


def _holder_over_faces(mesh, gram, faces, alpha):
    """Largest Holder quotient of a gram entry over the face centroids,
    with distances taken in the mesh's minimal image."""
    cent = _face_centroids(mesh, faces)
    n = gram.shape[1]
    return max(holder_seminorm(gram[:, i, j], cent, alpha, mesh.wrap)
               for i in range(n) for j in range(i, n))


# The sources of the coordinate fields sit FRAME_FACTOR * iota from the
# base vertex, one along each direction of its tangent frame.
FRAME_FACTOR = 0.25


def distance_coordinates_experiment(mesh, base, r, *, iota):
    """Distance-function coordinates around a base vertex.

    Places one source per tangent-frame direction at distance
    `FRAME_FACTOR * iota`, computes exact distance fields, per-triangle
    gradients, and the gram matrix field over the ball of radius r.
    """
    d_frame = FRAME_FACTOR * iota
    sources = frame_points(mesh, base, d_frame)
    fields = _distance_fields(mesh, sources)
    base_field = mesh.exact_distance_from(base)
    faces = _ball_faces(mesh, base_field, r)
    if faces.size == 0:
        raise ValueError("ball radius below mesh resolution")
    gram = _gram_fields(mesh, fields, faces)
    eigs = np.linalg.eigvalsh(gram)
    f0, f1, f2 = mesh.faces.T
    b = int(base)
    touching = np.nonzero((f0 == b) | (f1 == b) | (f2 == b))[0]
    gram_base = _gram_fields(mesh, fields, touching).mean(axis=0)
    holder = _holder_over_faces(mesh, gram, faces, 0.5) * math.sqrt(r)
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


def harmonic_coordinates_experiment(mesh, base, r, *, iota, fields=None):
    """Harmonic coordinates by a Dirichlet solve with distance boundary data.

    Solves Laplace(b_i) = 0 on the ball interior with b_i = rho_i on the
    boundary ring, then reports the deviation from rho_i, the discrete
    maximum principle, and the gram field of the harmonic gradients.
    The stiffness is assembled from the faces touching the interior only:
    its interior rows are those of the full assembly, bit for bit, so the
    cost scales with the ball and not with the mesh.
    """
    if fields is None:
        sources = frame_points(mesh, base, FRAME_FACTOR * iota)
        fields = _distance_fields(mesh, sources)
    base_field = mesh.exact_distance_from(base)
    inside = base_field < r
    interior = np.nonzero(inside)[0]
    if interior.size == 0:
        raise ValueError("no interior vertices at this radius")
    c0, c1, c2 = (inside[f] for f in mesh.faces.T)
    star = np.nonzero(c0 | c1 | c2)[0]
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
    faces = np.nonzero(c0 & c1 & c2)[0]
    if faces.size == 0:
        faces = _ball_faces(mesh, base_field, r)
    gram = _gram_fields(mesh, harmonics, faces)
    eigs = np.linalg.eigvalsh(gram)
    return HarmonicCoordinateReport(
        sup_dev, max_ok, float(eigs.min()), float(eigs.max()),
        float(_holder_over_faces(mesh, gram, faces, 0.5) * math.sqrt(r)),
        float(_holder_over_faces(mesh, gram, faces, 0.9) * r ** 0.9),
        int(interior.size), float(r)), harmonics
