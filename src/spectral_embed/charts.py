"""Variable-coefficient parabolic kernels on Euclidean charts.

Compares finite-difference fundamental solutions of u_t = a^{ij}(x) d_i d_j u
against the Euclidean Gaussian, the frozen-coefficient Gaussian, and the
truncated parametrix series, quantifying the ellipticity-linear closeness.
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


class QuadratureBudgetError(RuntimeError):
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


def holder_seminorm(values, points, alpha):
    """Max |f(x)-f(x')| / |x-x'|^alpha over sample pairs.

    Rows i0:i0+HOLDER_BLOCK are paired with columns i0: at a time, which
    covers every pair j > i.  |f_i - f_j| and |x_i - x_j| are exact under
    swapping i and j, so the maximum is the one over all ordered pairs.
    """
    values = np.asarray(values, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] != len(values):
        points = points.T
    block_max = []
    for i0 in range(0, len(values), HOLDER_BLOCK):
        rows = slice(i0, i0 + HOLDER_BLOCK)
        diff = np.abs(values[rows, None] - values[None, i0:])
        dist = np.linalg.norm(points[rows, None, :] - points[None, i0:, :],
                              axis=-1)
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


def constant_chart(matrix, alpha=0.5):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[0]
    eigs = np.linalg.eigvalsh(matrix)
    q = max(eigs.max(), 1.0 / eigs.min())

    def coeff(x):
        x = np.atleast_2d(x)
        return np.broadcast_to(matrix, (len(x), n, n)).copy()
    return ChartSpec(n, coeff, float(q), alpha, 0.0)


def bump_chart(n, q, center=0.0, width=2.0, alpha=0.5, sample_count=2001,
               sample_halfwidth=8.0):
    """Scalar bump coefficients a = (1 + (Q-1) b(x)) I with [b]_alpha <= 1.

    The bump is normalized on a reference sample so that both its height
    and its C^alpha seminorm are at most one; the resulting field then
    satisfies the ChartSpec invariants for the requested Q.
    """
    if q <= 1:
        raise ValueError("Q must exceed 1")
    center = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    norm, unit = _bump_profile(float(center[0]), width, alpha, sample_count,
                               sample_halfwidth)

    def bump(x):
        x = np.atleast_2d(x)
        r = np.linalg.norm(x - center, axis=1) / width
        return mollifier(r) / norm

    def coeff(x):
        x = np.atleast_2d(x)
        vals = 1.0 + (q - 1.0) * bump(x)
        return vals[:, None, None] * np.eye(n)

    seminorm = (q - 1.0) * unit
    return ChartSpec(n, coeff, float(q), alpha, float(seminorm))


@functools.lru_cache(maxsize=16)
def _bump_profile(center, width, alpha, sample_count, sample_halfwidth):
    """(norm, [ref / norm]_alpha) of the bump on its reference sample.

    The profile does not depend on Q, so a sweep over Q pays for the pair
    scan once per profile, and only once when no rescaling is needed.
    """
    xs = np.linspace(-sample_halfwidth, sample_halfwidth, sample_count)
    ref = mollifier((xs - center) / width)
    raw = holder_seminorm(ref, xs[:, None], alpha)
    norm = max(1.0, raw / 0.999)
    if norm == 1.0:
        # ref / 1.0 is ref, bit for bit
        return norm, raw
    return norm, holder_seminorm(ref / norm, xs[:, None], alpha)


# ---------------------------------------------------------------------------
# Closed-form kernels
# ---------------------------------------------------------------------------

def euclidean_kernel(x, t, y, n=None):
    """The standard heat kernel (4 pi t)^(-n/2) exp(-|x-y|^2 / 4t)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if n is None:
        n = x.shape[1]
    d2 = np.sum((x - y) ** 2, axis=1)
    return (4 * math.pi * t) ** (-n / 2.0) * np.exp(-d2 / (4.0 * t))


def euclidean_kernel_gradient(x, t, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    k = euclidean_kernel(x, t, y)
    return -(x - y) / (2.0 * t) * k[:, None]


def frozen_kernel(x, t, y, spec):
    """Gaussian of the operator with coefficients frozen at the source y.

    Uses the matrix inverse of a^{ij}(y) in the quadratic form, the index
    placement required for the kernel to solve the frozen equation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    a_up = spec.coeff(y[None, :])[0]
    a_low = np.linalg.inv(a_up)
    det = np.linalg.det(a_low)
    if not np.isfinite(det) or det <= 0:
        raise ValueError("coefficient matrix at the source is singular")
    d = x - y
    quad = np.einsum("mi,ij,mj->m", d, a_low, d)
    n = spec.dim
    return math.sqrt(det) / ((2 * math.sqrt(math.pi)) ** n * t ** (n / 2.0)) \
        * np.exp(-quad / (4.0 * t))


def frozen_kernel_hessian(x, t, y, spec):
    """Second spatial derivatives of the frozen kernel, (m, n, n)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    a_low = np.linalg.inv(spec.coeff(y[None, :])[0])
    d = x - y
    z = frozen_kernel(x, t, y, spec)
    g = np.einsum("ij,mj->mi", a_low, d)
    outer = g[:, :, None] * g[:, None, :] / (4.0 * t * t)
    return (outer - a_low[None, :, :] / (2.0 * t)) * z[:, None, None]


# ---------------------------------------------------------------------------
# Grid kernels (finite differences)
# ---------------------------------------------------------------------------

@dataclass
class GridKernel:
    """Numeric fundamental solution on a uniform grid with Dirichlet box."""

    axes: tuple
    times: np.ndarray
    values: np.ndarray  # (T, N) for n=1, (T, Nx, Ny) for n=2
    source: np.ndarray
    spacing: float

    @property
    def dim(self):
        return len(self.axes)

    def points(self):
        return _grid_points(self.axes)

    def field(self, ti):
        return self.values[ti].ravel()

    def mass(self, ti):
        return float(self.values[ti].sum() * self.spacing ** self.dim)

    def at_time(self, t):
        ti = int(np.argmin(np.abs(self.times - t)))
        return ti, self.times[ti]

    def boundary_contact(self, ti, tol=1e-8):
        """Largest kernel magnitude on the box boundary at a stored time."""
        v = self.values[ti]
        if self.dim == 1:
            return float(max(abs(v[0]), abs(v[-1])))
        return float(max(np.abs(v[0, :]).max(), np.abs(v[-1, :]).max(),
                         np.abs(v[:, 0]).max(), np.abs(v[:, -1]).max()))


def _laplacian_operator(spec, axes, h):
    """Sparse non-divergence operator -a^{ij} d_i d_j on interior nodes."""
    n = spec.dim
    if n == 1:
        x = axes[0][1:-1]
        m = len(x)
        a = spec.coeff(x[:, None])[:, 0, 0]
        main = 2.0 * a / h ** 2
        off = -a / h ** 2
        A = sparse.diags([off[1:], main, off[:-1]], [-1, 0, 1], format="csr")
        return A
    xs, ys = axes[0][1:-1], axes[1][1:-1]
    mx, my = len(xs), len(ys)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    a = spec.coeff(pts)
    a11, a22, a12 = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]

    def shift_matrix(dx, dy):
        # maps u to u shifted by (dx, dy) grid cells, zero off the interior
        ex = sparse.eye(mx, format="csr")
        ey = sparse.eye(my, format="csr")
        sx = sparse.diags([np.ones(mx - abs(dx))], [dx], shape=(mx, mx))
        sy = sparse.diags([np.ones(my - abs(dy))], [dy], shape=(my, my))
        return sparse.kron(sx if dx else ex, sy if dy else ey, format="csr")

    D = sparse.diags
    A = D(2.0 * (a11 + a22) / h ** 2)
    A = A - D(a11 / h ** 2) @ (shift_matrix(1, 0) + shift_matrix(-1, 0))
    A = A - D(a22 / h ** 2) @ (shift_matrix(0, 1) + shift_matrix(0, -1))
    cross = (shift_matrix(1, 1) + shift_matrix(-1, -1)
             - shift_matrix(1, -1) - shift_matrix(-1, 1))
    A = A - D(2.0 * a12 / (4.0 * h ** 2)) @ cross
    return A.tocsr()


def _grid_points(axes):
    if len(axes) == 1:
        return axes[0][:, None]
    gx, gy = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


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
    y_snap = np.array([ax[i] for ax, i in zip(axes, idx)])
    spec.validate_on(_grid_points(axes))

    shape = tuple(len(ax) - 2 for ax in axes)
    u = np.zeros(shape)
    interior_idx = tuple(i - 1 for i in idx)
    u[interior_idx] = 1.0 / h ** n

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

    full_shape = tuple(len(ax) for ax in axes)
    stored = np.zeros((len(times),) + full_shape)
    inner = tuple(slice(1, -1) for _ in range(n))
    for i, f in enumerate(fields):
        stored[(i,) + inner] = f
    return GridKernel(axes, np.asarray(times), stored, y_snap, float(h))


# ---------------------------------------------------------------------------
# Parametrix
# ---------------------------------------------------------------------------

def _lz(spec, x, t, y):
    """L applied to the frozen kernel: (a^{ij}(y) - a^{ij}(x)) d_i d_j Z."""
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    a_x = spec.coeff(x)
    a_y = spec.coeff(y[None, :])[0]
    hess = frozen_kernel_hessian(x, t, y, spec)
    return np.einsum("mij,mij->m", a_y[None, :, :] - a_x, hess)


def parametrix_kernel(spec, source, t, depth=1, halfwidth=6.0, nodes=241,
                      time_nodes=16, budget=2 * 10 ** 8):
    """Truncated parametrix series on a grid at a single output time.

    Returns (points, values): Z plus `depth` iterated corrections, with
    midpoint rule in time and grid-cell sums in space.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = spec.dim
    axes = tuple(np.linspace(-halfwidth, halfwidth, nodes) for _ in range(n))
    if n == 1:
        pts = axes[0][:, None]
    else:
        gx, gy = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
    h = axes[0][1] - axes[0][0]
    y = np.broadcast_to(np.asarray(source, dtype=float), (n,))

    values = frozen_kernel(pts, t, y, spec)
    if depth == 0:
        return pts, values

    m = len(pts)
    cost = depth * time_nodes * m * m
    if cost > budget:
        raise QuadratureBudgetError(
            f"parametrix quadrature needs ~{cost:.2e} kernel evaluations")

    cell = h ** n
    sigmas = (np.arange(time_nodes) + 0.5) * (t / time_nodes)
    dsig = t / time_nodes

    # iterates of the correction density: phi_1 = -LZ and
    # phi_{i+1}(x,s;y) = -int_0^s int LZ(x,s-s';eta) phi_i(eta,s';y).
    # The sign makes L(Z + int Z phi) vanish for L = d_t - a d^2.
    phi = [-_lz(spec, pts, s, y) for s in sigmas]
    total_phi = [p.copy() for p in phi]
    for _ in range(1, depth):
        nxt = []
        for mi, s in enumerate(sigmas):
            inner_sig = (np.arange(time_nodes) + 0.5) * (s / time_nodes)
            acc = np.zeros(m)
            for sj in inner_sig:
                lz_mat = _lz_matrix(spec, pts, s - sj, pts)
                # previous iterate sampled at the nearest midpoint (the
                # iterates are smooth away from sigma = 0)
                j_near = int(np.argmin(np.abs(sigmas - sj)))
                acc -= lz_mat @ phi[j_near] * cell
            nxt.append(acc * (s / time_nodes))
        phi = nxt
        for mi in range(time_nodes):
            total_phi[mi] += phi[mi]

    correction = np.zeros(m)
    for mi, s in enumerate(sigmas):
        z_mat = _z_matrix(spec, pts, t - s, pts)
        correction += z_mat @ total_phi[mi] * cell
    return pts, values + correction * dsig


def _z_matrix(spec, xs, t, etas):
    a_up = spec.coeff(etas)
    a_low = np.linalg.inv(a_up)
    det = np.linalg.det(a_low)
    d = xs[:, None, :] - etas[None, :, :]
    quad = np.einsum("xei,eij,xej->xe", d, a_low, d)
    n = spec.dim
    return np.sqrt(det)[None, :] / ((2 * math.sqrt(math.pi)) ** n
                                    * t ** (n / 2.0)) * np.exp(-quad / (4 * t))


def _lz_matrix(spec, xs, t, etas):
    out = np.empty((len(xs), len(etas)))
    for j, eta in enumerate(etas):
        out[:, j] = _lz(spec, xs, t, eta)
    return out


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
                     t_window, x_max=None, exclude_radius=0.5,
                     exclude_time=0.25, spacing=None):
    """Sup norms of value and (central-difference) gradient differences.

    The parabolic neighborhood {|x-y| < exclude_radius, t < exclude_time}
    of the source is excluded, matching the regime where closeness holds.
    `values_*` have shape (T, ...grid); gradients need `spacing` and a full
    grid layout.
    """
    source = np.asarray(source, dtype=float).ravel()
    sup_v = 0.0
    sup_g = 0.0
    used = 0
    dist = np.linalg.norm(np.atleast_2d(points) - source, axis=1)
    grid_shape = values_a.shape[1:]
    for ti, t in enumerate(times):
        if not (t_window[0] <= t <= t_window[1]):
            continue
        mask = ~((dist < exclude_radius) & (t < exclude_time))
        if x_max is not None:
            mask &= np.linalg.norm(np.atleast_2d(points), axis=1) <= x_max
        diff = (values_a[ti] - values_b[ti]).ravel()
        sup_v = max(sup_v, float(np.abs(diff[mask]).max()))
        used += int(mask.sum())
        if spacing is not None:
            ga = _grid_gradient(values_a[ti], grid_shape, spacing)
            gb = _grid_gradient(values_b[ti], grid_shape, spacing)
            gdiff = np.linalg.norm(ga - gb, axis=-1).ravel()
            inner = _interior_mask(grid_shape).ravel()
            sel = mask & inner
            if sel.any():
                sup_g = max(sup_g, float(gdiff[sel].max()))
    return ClosenessReport(sup_v, sup_g, used, tuple(t_window))


def _grid_gradient(values, shape, h):
    v = values.reshape(shape)
    if len(shape) == 1:
        g = np.zeros(shape + (1,))
        g[1:-1, 0] = (v[2:] - v[:-2]) / (2 * h)
        return g
    g = np.zeros(shape + (2,))
    g[1:-1, :, 0] = (v[2:, :] - v[:-2, :]) / (2 * h)
    g[:, 1:-1, 1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    return g


def _interior_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    if len(shape) == 1:
        mask[1:-1] = True
    else:
        mask[1:-1, 1:-1] = True
    return mask


def evaluate_on_grid(kernel_fn, grid_kernel, t_indices=None):
    """Sample a closed-form kernel on a GridKernel's space-time lattice."""
    pts = grid_kernel.points()
    tis = range(len(grid_kernel.times)) if t_indices is None else t_indices
    out = np.zeros_like(grid_kernel.values)
    for ti in tis:
        t = grid_kernel.times[ti]
        if t <= 0:
            continue
        out[ti] = kernel_fn(pts, t).reshape(grid_kernel.values.shape[1:])
    return out


# ---------------------------------------------------------------------------
# Study drivers
# ---------------------------------------------------------------------------

def convergence_study(node_counts, *, halfwidth=6.0, t_max=0.25, steps=1024,
                      compare_radius=4.0):
    """Constant-coefficient grid refinement against the Euclidean kernel."""
    spec = identity_chart(1)
    errors = []
    for nodes in node_counts:
        gk = solve_fd_kernel(spec, halfwidth, nodes, 0.0, t_max, steps=steps,
                             store_every=steps)
        ti = len(gk.times) - 1
        pts = gk.points()
        exact = euclidean_kernel(pts, gk.times[ti], gk.source)
        mask = np.abs(pts[:, 0]) <= compare_radius
        errors.append(float(np.abs(gk.field(ti)[mask] - exact[mask]).max()))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return errors, ratios


def ellipticity_sweep(q_minus_one_values, *, halfwidth=8.0, nodes=801,
                      t_max=0.5, steps=1024, bump_width=2.0, t_window=None,
                      store_every=16):
    """FD kernels for a family of bump amplitudes; sup distance to Gaussian.

    Returns per-Q sup differences (value and gradient, outside the
    parabolic neighborhood of the source) and the log-log slope of the
    value differences against Q-1.
    """
    sups = []
    grads = []
    for qm1 in q_minus_one_values:
        spec = bump_chart(1, 1.0 + qm1, width=bump_width)
        gk = solve_fd_kernel(spec, halfwidth, nodes, 0.0, t_max, steps=steps,
                             store_every=store_every)
        window = t_window or (t_max / 8.0, t_max)
        exact = evaluate_on_grid(
            lambda p, t: euclidean_kernel(p, t, gk.source), gk)
        rep = closeness_report(gk.points(), gk.times, gk.values, exact,
                               gk.source, t_window=window,
                               x_max=halfwidth - 2.0, spacing=gk.spacing)
        sups.append(rep.sup_value)
        grads.append(rep.sup_gradient)
    logs = np.log(np.asarray(q_minus_one_values))
    slope = float(np.polynomial.polynomial.polyfit(logs, np.log(sups), 1)[1])
    return sups, grads, slope


def export_grid_kernel(gk, path, stride=1):
    if gk.dim == 1:
        header = ["x", "t", "value"]
        rows = []
        for ti in range(0, len(gk.times), stride):
            for xi, x in enumerate(gk.axes[0]):
                rows.append((x, gk.times[ti], gk.values[ti, xi]))
    else:
        header = ["x", "y", "t", "value"]
        rows = []
        for ti in range(0, len(gk.times), stride):
            for xi, x in enumerate(gk.axes[0]):
                for yi, y in enumerate(gk.axes[1]):
                    rows.append((x, y, gk.times[ti], gk.values[ti, xi, yi]))
    reporting.write_csv(path, header, rows)
