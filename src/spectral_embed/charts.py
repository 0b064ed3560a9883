"""Variable-coefficient parabolic kernels on Euclidean charts.

Compares finite-difference fundamental solutions of u_t = a^{ij}(x) d_i d_j u
against the Euclidean Gaussian, quantifying the ellipticity-linear closeness.
Grids are restricted to one and two dimensions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import reporting


class StabilityError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

def mollifier(r):
    """Standard bump: exp(1 - 1/(1-r^2)) inside |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


# rows per block of the pair scan in holder_seminorm: the scan holds a few
# (HOLDER_BLOCK, n) arrays at a time instead of the full (n, n) pair matrices
HOLDER_BLOCK = 32


def holder_seminorm(values, points, alpha, wrap=None):
    """Max |f(x)-f(x')| / |x-x'|^alpha over sample pairs.

    `points` has one row per value; `wrap`, when given, maps point
    differences to the displacements measured (`TriMesh.wrap`).  Rows
    i0:i0+HOLDER_BLOCK are paired with columns i0: at a time, which
    covers every pair j > i.  |f_i - f_j| and |x_i - x_j| are exact under
    swapping i and j, so the maximum is the one over all ordered pairs.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    block_max = []
    for i0 in range(0, len(values), HOLDER_BLOCK):
        rows = slice(i0, i0 + HOLDER_BLOCK)
        diff = np.abs(values[rows, None] - values[None, i0:])
        disp = points[rows, None, :] - points[None, i0:, :]
        if wrap is not None:
            disp = wrap(disp)
        if points.shape[1] == 1:
            # norm() of one coordinate is sqrt(fl(d^2)), which is |d| in
            # binary64 unless d^2 under- or overflows (then |d| is exact)
            dist = np.abs(disp[..., 0])
        else:
            dist = np.linalg.norm(disp, axis=-1)
        mask = dist > 0
        if mask.any():
            block_max.append((diff[mask] / dist[mask] ** alpha).max())
    # with no pair at positive distance np.max raises ValueError
    return float(np.max(block_max))


@dataclass(frozen=True)
class ChartSpec:
    """Elliptic coefficient field a^{ij} on a box, with its ellipticity data.

    `coeff(x)` maps (m, n) points to (m, n, n) symmetric matrices with
    Q^-1 I <= a <= Q I; the measured C^alpha seminorm never exceeds Q - 1.
    """

    dim: int
    coeff: object
    ellipticity: float
    alpha: float
    seminorm: float

    def validate_on(self, points):
        a = self.coeff(np.atleast_2d(points))
        eigs = np.linalg.eigvalsh(a)
        lo, hi = eigs.min(), eigs.max()
        if lo < 1.0 / self.ellipticity - 1e-10 or hi > self.ellipticity + 1e-10:
            raise ValueError(
                f"coefficients violate ellipticity: [{lo}, {hi}]")
        if self.seminorm > self.ellipticity - 1.0 + 1e-8:
            raise ValueError("Holder seminorm exceeds Q - 1")
        return lo, hi


def identity_chart(n):
    def coeff(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(np.eye(n), (len(x), n, n)).copy()
    return ChartSpec(n, coeff, 1.0 + 1e-15, 0.5, 0.0)


# Every bump is centred at the origin and normalized in C^BUMP_ALPHA on the
# reference sample linspace(-8, 8, 2001).
BUMP_ALPHA = 0.5


def bump_chart(n, q, width=2.0):
    """Scalar bump coefficients a = (1 + (Q-1) b(x)) I with [b]_alpha <= 1.

    The bump is normalized on a reference sample so that both its height
    and its C^alpha seminorm are at most one; the resulting field then
    satisfies the ChartSpec invariants for the requested Q.
    """
    if q <= 1:
        raise ValueError("Q must exceed 1")
    norm, unit = _bump_profile(width)

    def bump(x):
        x = np.atleast_2d(x)
        r = np.linalg.norm(x, axis=1) / width
        return mollifier(r) / norm

    def coeff(x):
        x = np.atleast_2d(x)
        vals = 1.0 + (q - 1.0) * bump(x)
        return vals[:, None, None] * np.eye(n)

    seminorm = (q - 1.0) * unit
    return ChartSpec(n, coeff, float(q), BUMP_ALPHA, float(seminorm))


@functools.lru_cache(maxsize=16)
def _bump_profile(width):
    """(norm, [ref / norm]_alpha) of the bump on its reference sample.

    The profile does not depend on Q, so a sweep over Q pays for the pair
    scan once per profile, and only once when no rescaling is needed.
    """
    xs = np.linspace(-8.0, 8.0, 2001)
    ref = mollifier(xs / width)
    raw = holder_seminorm(ref, xs[:, None], BUMP_ALPHA)
    norm = max(1.0, raw / 0.999)
    if norm == 1.0:
        # ref / 1.0 is ref, bit for bit
        return norm, raw
    return norm, holder_seminorm(ref / norm, xs[:, None], BUMP_ALPHA)


# ---------------------------------------------------------------------------
# Closed-form kernels
# ---------------------------------------------------------------------------

def euclidean_kernel(x, t, y):
    """The standard heat kernel (4 pi t)^(-n/2) exp(-|x-y|^2 / 4t)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[1]
    d2 = np.sum((x - y) ** 2, axis=1)
    return (4 * math.pi * t) ** (-n / 2.0) * np.exp(-d2 / (4.0 * t))


# ---------------------------------------------------------------------------
# Grid kernels (finite differences)
# ---------------------------------------------------------------------------

@dataclass
class GridKernel:
    """Numeric fundamental solution on a uniform grid with Dirichlet box."""

    axes: tuple
    times: np.ndarray
    values: np.ndarray  # (T, *grid), one axis per dimension
    source: np.ndarray
    spacing: float

    @property
    def dim(self):
        return len(self.axes)

    def points(self):
        return _grid_points(self.axes)

    def field(self, ti):
        return self.values[ti].ravel()


def _laplacian_operator(spec, axes, h):
    """Sparse non-divergence operator -a^{ij} d_i d_j on interior nodes: a
    stencil of index offsets, +-e_k and, for k < l, +-e_k +-e_l, weighted
    by the coefficients at each node."""
    n = spec.dim
    shape = tuple(len(ax) - 2 for ax in axes)
    a = spec.coeff(_grid_points([ax[1:-1] for ax in axes]))

    def step(*moves):
        # the index offset of one step (k, +-1) along each axis k named
        return tuple(dict(moves).get(k, 0) for k in range(n))

    stencil = [(step(), 2.0 * a.trace(axis1=1, axis2=2) / h ** 2)]
    for k in range(n):
        side = -(a[:, k, k] / h ** 2)
        stencil += [(step((k, 1)), side), (step((k, -1)), side)]
        for l in range(k + 1, n):
            cross = 2.0 * a[:, k, l] / (4.0 * h ** 2)
            stencil += [(step((k, s), (l, s * t)), -t * cross)
                        for s in (1, -1) for t in (1, -1)]
    # entry q of the diagonal at flat offset d is A[q - d, q]; offsets that
    # share d (on grids one or two nodes wide) couple disjoint node pairs
    strides = [math.prod(shape[k + 1:]) for k in range(n)]
    diags = {}
    for offset, coef in stencil:
        src = tuple(slice(max(0, -o), m - max(0, o))
                    for o, m in zip(offset, shape))
        dst = tuple(slice(max(0, o), m - max(0, -o))
                    for o, m in zip(offset, shape))
        d = sum(o * stride for o, stride in zip(offset, strides))
        diags.setdefault(d, np.zeros(shape))[dst] = coef.reshape(shape)[src]
    data = np.array(list(diags.values())).reshape(len(diags), -1)
    # the conversion drops the zeros: neighbours off the interior, zero a^kl
    return sparse.dia_matrix((data, list(diags)),
                             shape=(data.shape[1],) * 2).tocsr()


def _grid_points(axes):
    n = len(axes)
    points = np.empty(tuple(map(len, axes)) + (n,))
    for k, ax in enumerate(axes):
        points[..., k] = ax.reshape((-1,) + (1,) * (n - k - 1))
    return points.reshape(-1, n)


def solve_fd_kernel(spec, halfwidth, nodes, source, t_max, steps=1024,
                    store_every=1):
    """Fundamental solution by implicit Euler on a Dirichlet-zero box.

    The initial condition is a discrete delta of mass 1/h^n at the grid
    node nearest the source; the fixed step t_max/steps keeps the study
    design free of CFL coupling.
    """
    n = spec.dim
    if n not in (1, 2):
        raise ValueError("grid solves support one and two dimensions only")
    axes = tuple(np.linspace(-halfwidth, halfwidth, nodes) for _ in range(n))
    h = axes[0][1] - axes[0][0]
    y = np.broadcast_to(np.asarray(source, dtype=float), (n,))
    idx = tuple(int(np.argmin(np.abs(ax - yc))) for ax, yc in zip(axes, y))
    if any(i in (0, nodes - 1) for i in idx):
        raise ValueError(
            f"source {source!r} is not inside the box [{-halfwidth!r}, "
            f"{halfwidth!r}]^{n}: its nearest grid node is on the boundary")
    y_snap = np.array([ax[i] for ax, i in zip(axes, idx)])
    spec.validate_on(_grid_points(axes))

    shape = tuple(len(ax) - 2 for ax in axes)
    u = np.zeros(shape)
    u[tuple(i - 1 for i in idx)] = 1.0 / h ** n

    A = _laplacian_operator(spec, axes, h)
    dt = t_max / steps
    system = sparse.eye(A.shape[0], format="csr") + dt * A
    lu = spla.splu(system.tocsc())

    times = [0.0]
    fields = [u.copy()]
    running_max = np.abs(u).max()
    vec = u.ravel()
    for m in range(1, steps + 1):
        vec = lu.solve(vec)
        peak = np.abs(vec).max()
        if peak > 10.0 * running_max:
            raise StabilityError(
                f"instability at step {m}: |u|={peak:.3e} vs running max "
                f"{running_max:.3e}")
        running_max = max(running_max, peak)
        if m % store_every == 0 or m == steps:
            times.append(m * dt)
            fields.append(vec.reshape(shape).copy())

    stored = np.zeros((len(times),) + tuple(len(ax) for ax in axes))
    stored[(slice(None),) + (slice(1, -1),) * n] = fields
    return GridKernel(axes, np.asarray(times), stored, y_snap, float(h))


# ---------------------------------------------------------------------------
# Closeness reports
# ---------------------------------------------------------------------------

@dataclass
class ClosenessReport:
    sup_value: float
    sup_gradient: float
    points_used: int
    t_window: tuple


def closeness_report(points, times, values_a, values_b, source, *,
                     t_window, x_max, spacing):
    """Sup norms of value and (central-difference) gradient differences.

    The parabolic neighborhood {|x-y| < 0.5, t < 0.25} of the source is
    excluded, matching the regime where closeness holds, and so are points
    beyond |x| = x_max.  `values_*` have shape
    (T, ...grid) on a full grid of the given `spacing`.
    """
    source = np.asarray(source, dtype=float).ravel()
    sup_v = 0.0
    sup_g = 0.0
    used = 0
    near = np.linalg.norm(np.atleast_2d(points) - source, axis=1) < 0.5
    within = np.linalg.norm(np.atleast_2d(points), axis=1) <= x_max
    grid_shape = values_a.shape[1:]
    inner = _interior_mask(grid_shape).ravel()
    for ti, t in enumerate(times):
        if not (t_window[0] <= t <= t_window[1]):
            continue
        mask = within & ~near if t < 0.25 else within
        diff = (values_a[ti] - values_b[ti]).ravel()
        sup_v = max(sup_v, float(np.abs(diff[mask]).max()))
        used += int(mask.sum())
        ga = _grid_gradient(values_a[ti], grid_shape, spacing)
        gb = _grid_gradient(values_b[ti], grid_shape, spacing)
        gdiff = np.linalg.norm(ga - gb, axis=-1).ravel()
        sel = mask & inner
        if sel.any():
            sup_g = max(sup_g, float(gdiff[sel].max()))
    return ClosenessReport(sup_v, sup_g, used, tuple(t_window))


def _grid_gradient(values, shape, h):
    """Central differences along each axis, zero on that axis's ends."""
    v = values.reshape(shape)
    g = np.zeros(shape + (len(shape),))
    for k in range(len(shape)):
        vk = np.moveaxis(v, k, 0)
        np.moveaxis(g[..., k], k, 0)[1:-1] = (vk[2:] - vk[:-2]) / (2 * h)
    return g


def _interior_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[(slice(1, -1),) * len(shape)] = True
    return mask


def evaluate_on_grid(grid_kernel):
    """The Euclidean kernel from the grid's source on its space-time
    lattice; zero at t = 0."""
    pts = grid_kernel.points()
    out = np.zeros_like(grid_kernel.values)
    for ti, t in enumerate(grid_kernel.times):
        if t <= 0:
            continue
        out[ti] = euclidean_kernel(pts, t, grid_kernel.source).reshape(
            grid_kernel.values.shape[1:])
    return out


# ---------------------------------------------------------------------------
# Study drivers
# ---------------------------------------------------------------------------

def convergence_study(node_counts, *, t_max=0.25, steps=1024):
    """Constant-coefficient grid refinement against the Euclidean kernel.

    Each grid is solved on [-6, 6] and compared on |x| <= 4, away from the
    Dirichlet boundary.  Returns (errors, ratios, finest): `finest` is the
    solve of the last node count, stored every steps // 8 steps, to export.
    The final step, the one compared, is stored whatever the cadence.
    """
    spec = identity_chart(1)
    errors = []
    for i, nodes in enumerate(node_counts):
        last = i == len(node_counts) - 1
        gk = solve_fd_kernel(spec, 6.0, nodes, 0.0, t_max, steps=steps,
                             store_every=max(1, steps // 8) if last else steps)
        ti = len(gk.times) - 1
        pts = gk.points()
        exact = euclidean_kernel(pts, gk.times[ti], gk.source)
        mask = np.abs(pts[:, 0]) <= 4.0
        errors.append(float(np.abs(gk.field(ti)[mask] - exact[mask]).max()))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return errors, ratios, gk


def ellipticity_sweep(q_minus_one_values, *, nodes=801, steps=1024,
                      bump_width=2.0):
    """FD kernels for a family of bump amplitudes; sup distance to Gaussian.

    Each kernel is solved on [-8, 8] to t = 0.5, stored every 16th step
    and compared on |x| <= 6 over t in [0.5/8, 0.5].  Returns per-Q sup
    differences (value and gradient, outside the parabolic neighborhood of
    the source) and the log-log slope of the value differences against Q-1.
    """
    sups = []
    grads = []
    for qm1 in q_minus_one_values:
        spec = bump_chart(1, 1.0 + qm1, width=bump_width)
        gk = solve_fd_kernel(spec, 8.0, nodes, 0.0, 0.5, steps=steps,
                             store_every=16)
        rep = closeness_report(gk.points(), gk.times, gk.values,
                               evaluate_on_grid(gk), gk.source,
                               t_window=(0.5 / 8.0, 0.5), x_max=8.0 - 2.0,
                               spacing=gk.spacing)
        sups.append(rep.sup_value)
        grads.append(rep.sup_gradient)
    logs = np.log(np.asarray(q_minus_one_values))
    slope = float(np.polynomial.polynomial.polyfit(logs, np.log(sups), 1)[1])
    return sups, grads, slope


def export_grid_kernel(gk, path):
    """One row (x[, y], t, value) per stored time and grid node."""
    points = gk.points().tolist()
    rows = [(*p, t, v) for t, values in zip(gk.times.tolist(), gk.values)
            for p, v in zip(points, values.ravel().tolist())]
    reporting.write_csv(path, ["x", "y"][:gk.dim] + ["t", "value"], rows)
