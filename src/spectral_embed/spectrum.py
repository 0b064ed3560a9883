"""Laplace-Beltrami spectra and the quantitative spectral bounds.

Solves the mesh eigenproblem in standard form (shift-invert Lanczos through
a band Cholesky factor) with one basis per eigenspace, enumerates
closed-form eigenpairs on analytic backends, and evaluates the
eigenvalue-growth bound, eigenfunction sup bounds and the heat-kernel
truncation index.
"""

import functools
import io
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse import csgraph

from .manifold import AnalyticManifold, TriMesh, assemble_laplacian
from . import reporting


class EigensolverError(RuntimeError):
    pass


class TruncationError(ValueError):
    """Requested tolerance needs more eigenpairs than are available."""

    def __init__(self, message, partial_tail):
        super().__init__(message)
        self.partial_tail = partial_tail


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def default_faber_krahn(n):
    """Euclidean-style Faber-Krahn constant n * omega_n^(2/n)."""
    return n * unit_ball_volume(n) ** (2.0 / n)


def default_trace_constant(n):
    return 2.0 ** n


@dataclass(frozen=True)
class GeometryBounds:
    """Geometric data entering the quantitative bounds.

    `a` and `C` are the Faber-Krahn and trace constants; no numeric values
    are canonical, so they are configuration knobs with documented
    defaults, and every report states the values used.
    """

    dim: int
    iota: float = 1.0
    volume: float = 1.0
    a: float = None
    C: float = None
    r_h: float = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.iota <= 0 or self.volume <= 0:
            raise ValueError("iota and volume must be positive")
        if self.a is None:
            object.__setattr__(self, "a", default_faber_krahn(self.dim))
        if self.C is None:
            object.__setattr__(self, "C", default_trace_constant(self.dim))
        if self.a <= 0 or self.C <= 0:
            raise ValueError("a(n) and C(n) must be positive")

    def require_harmonic_radius(self):
        if self.r_h is None or self.r_h <= 0:
            raise ValueError("bounds must carry a positive harmonic radius r_h")
        return self.r_h

    def growth_threshold(self):
        """Smallest index at which the eigenvalue lower bound applies."""
        n = self.dim
        r_h = self.require_harmonic_radius()
        return self.C * self.volume * math.exp(n / 2.0) / (
            self.a ** (n / 2.0) * r_h ** n)

    def growth_lower_bound(self, k):
        n = self.dim
        return (n / (2.0 * math.e)) * self.a * (
            np.asarray(k, dtype=float) / (self.C * self.volume)) ** (2.0 / n)


class Spectrum:
    """Ascending eigenvalues with mass-orthonormal eigenfunctions of -Laplace.

    The eigenfunctions are read through `basis`, which answers `values`,
    `gradients`, `sup_norms` and `grad_sup_norms` at manifold points:
    vertex fields on meshes (also kept as `vectors`), closed-form callables
    on analytic manifolds.  Immutable after construction.
    """

    def __init__(self, eigenvalues, manifold, *, basis, operator_pair=None,
                 next_eigenvalue=None):
        lam = self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        if np.any(np.diff(lam) < -1e-9 * max(1.0, abs(lam[-1]))):
            raise ValueError("eigenvalues must be nondecreasing")
        if len(lam) > 1 and abs(lam[0]) > 1e-8 * max(lam[1], 1e-30):
            raise ValueError("lowest eigenvalue must vanish")
        self.manifold = manifold
        self.basis = basis
        self.vectors = getattr(basis, "vectors", None)
        self.operator_pair = operator_pair
        self.dim = manifold.dim
        self.volume = manifold.volume
        if next_eigenvalue is not None:  # shadows the lazy closed form
            self.next_eigenvalue = float(next_eigenvalue)

    @property
    def count(self):
        return len(self.eigenvalues)

    @functools.cached_property
    def next_eigenvalue(self):
        """The eigenvalue after the last one kept, lambda_count."""
        return float(self.manifold.eigenbasis(self.count + 1).eigenvalues[-1])

    @property
    def multiplet_split(self):
        """Whether `count` ends inside a multiplet: the next eigenvalue
        equals the last one kept to the tolerance of `_multiplets`."""
        *_, (start, _) = _multiplets(
            np.append(self.eigenvalues, self.next_eigenvalue))
        return start < self.count

    # -- evaluation -----------------------------------------------------------

    def values(self, points):
        """Eigenfunction values, shape (len(points), K)."""
        return self.basis.values(points)

    def gradients(self, points):
        """Eigenfunction gradients as ambient/coordinate vectors, (m, K, d)."""
        return self.basis.gradients(points)

    def sup_norms(self):
        return self.basis.sup_norms()

    def grad_sup_norms(self):
        return self.basis.grad_sup_norms()


class _VertexBasis:
    """Mesh eigenfunctions as vertex fields; points are vertex indices."""

    def __init__(self, mesh, vectors):
        self.mesh = mesh
        self.vectors = vectors

    def values(self, P):
        return self.vectors[np.asarray(P, dtype=int)]

    def gradients(self, P):
        return self._vertex_gradients[np.asarray(P, dtype=int)]

    def sup_norms(self):
        return np.abs(self.vectors).max(axis=0)

    def grad_sup_norms(self):
        return np.linalg.norm(self._face_gradients, axis=2).max(axis=0)

    @functools.cached_property
    def _face_gradients(self):
        """Per-triangle gradients of all eigenfunctions, (F, K, 3)."""
        return self.mesh.face_gradients(self.vectors)

    @functools.cached_property
    def _vertex_gradients(self):
        """Area-averaged vertex gradients projected to the tangent plane."""
        mesh = self.mesh
        fg = self._face_gradients
        acc = np.zeros((len(mesh.vertices),) + fg.shape[1:])
        wsum = np.zeros(len(mesh.vertices))
        w = mesh.face_areas
        for c in range(3):
            np.add.at(acc, mesh.faces[:, c], fg * w[:, None, None])
            np.add.at(wsum, mesh.faces[:, c], w)
        acc /= wsum[:, None, None]
        frames = mesh.tangent_frames()  # (V, 2, 3)
        coeff = np.einsum("vkd,vtd->vkt", acc, frames)
        return np.einsum("vkt,vtd->vkd", coeff, frames)


def _fix_signs(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        thresh = 1e-8 * np.abs(col).max()
        idx = np.nonzero(np.abs(col) > thresh)[0][0]
        if col[idx] < 0:
            out[:, k] = -col
    return out


def _multiplets(lams, rel_tol=1e-6):
    """(start, stop) of each run of eigenvalues equal to relative rel_tol."""
    k = 0
    while k < len(lams):
        j = k + 1
        scale = max(abs(lams[k]), 1e-12)
        while j < len(lams) and abs(lams[j] - lams[k]) <= rel_tol * scale:
            j += 1
        yield k, j
        k = j


def _pivots(block, tie=1e-8):
    """Rows chosen by greedy column-pivoted QR of block.T (Businger-Golub).

    Each step takes the row of largest residual norm and projects it out.
    Norms within `tie` of the largest count as equal and the lowest row
    wins, so roundoff cannot pick between rows that symmetry makes equal.
    """
    rest = block.copy()
    rows = []
    for _ in range(block.shape[1]):
        norms = np.einsum("ij,ij->i", rest, rest)
        p = int(np.argmax(norms >= (1.0 - tie) * norms.max()))
        q = rest[p] / np.sqrt(norms[p])
        rest -= np.einsum("ij,j->i", rest, q)[:, None] * q
        rows.append(p)
    return rows


def _canonical_basis(lams, vectors, masses):
    """Ascending eigenpairs with one basis per multiplet that depends only
    on its eigenspace, not on the rotation a solver returned it in.

    Inside each multiplet (eigenvalues equal to relative 1e-6) the basis is
    the one that is the identity at pivot rows chosen by greedy pivoted QR,
    then mass-orthonormalized in pivot order (Gram-Schmidt, as a Cholesky
    factor) and given the sign convention of `_fix_signs`.
    """
    order = np.argsort(lams, kind="stable")
    lams, vectors = lams[order], vectors[:, order]
    for k, j in _multiplets(lams):
        block = vectors[:, k:j]
        unit = np.linalg.solve(block[_pivots(block)].T, block.T).T
        gram = unit.T @ (masses[:, None] * unit)
        chol = np.linalg.cholesky(gram)
        vectors[:, k:j] = scipy.linalg.solve_triangular(
            chol, unit.T, lower=True).T
    return lams, _fix_signs(vectors)


def _band_shift_invert(a, sigma):
    """(a - sigma I)^(-1) as an operator, for a symmetric a whose spectrum
    lies above sigma.

    a - sigma I is permuted to reverse Cuthill-McKee order (Cuthill &
    McKee 1969), which keeps its half-bandwidth w small on a mesh, and
    factored once by LAPACK's band Cholesky (dpbtrf) in 8 (w+1) n bytes;
    each application is one band solve (dpbtrs).
    """
    n = a.shape[0]
    shifted = (a - sigma * sparse.identity(n)).tocsr()
    perm = csgraph.reverse_cuthill_mckee(shifted, symmetric_mode=True)
    upper = sparse.triu(shifted[perm][:, perm]).tocoo()
    w = int((upper.col - upper.row).max())
    # Fortran order lets dpbtrf factor the band in place, with no copy
    band = np.zeros((w + 1, n), order="F")
    band[w + upper.row - upper.col, upper.col] = upper.data
    chol, info = lapack.dpbtrf(band, overwrite_ab=True)
    if info != 0:
        raise EigensolverError(
            f"shifted operator is not positive definite (dpbtrf info {info})")
    inverse = np.argsort(perm)

    def solve(x):
        return lapack.dpbtrs(chol, x[perm])[0][inverse]
    return spla.LinearOperator((n, n), matvec=solve, dtype=float)


def _off_span_solve(op, vecs, **kwargs):
    """`eigsh` for the largest eigenvalue of P op P, P the projector off
    the orthonormal columns of `vecs`, from a seeded Gaussian start.

    Lanczos from one start vector sees only the eigenvectors the start
    has a part in, and roundoff brings the others in late, so a solve can
    skip members of a multiplet and return the next eigenvalue instead,
    with every residual small.  The start here is seeded noise: a start
    with the mesh's symmetry would hide the same eigenvectors again.
    """
    n = vecs.shape[0]

    def off_span(x):
        return x - vecs @ (vecs.T @ x)

    deflated = spla.LinearOperator(
        (n, n), matvec=lambda x: off_span(op.matvec(off_span(x))),
        dtype=float)
    v0 = off_span(np.random.default_rng(0).standard_normal(n))
    return spla.eigsh(deflated, k=1, which="LA", v0=v0, **kwargs)


def _lowest_off_span(op, sigma, vecs):
    """Lowest eigenvalue of the operator whose shifted inverse is `op`,
    off the span of the orthonormal columns of `vecs`: sigma + 1/mu, mu
    the largest eigenvalue of P op P (see `_off_span_solve`).

    A Ritz value is at most mu, so a loose tolerance can only put the
    result too high; 1e-10 resolves the 1e-8 gap the caller tests.
    """
    mu = _off_span_solve(op, vecs, tol=1e-10, return_eigenvectors=False)[0]
    return sigma + 1.0 / mu


def _complete(a, op, sigma, lams, vecs, count):
    """The lowest `count` eigenpairs of `a` and the eigenvalue after them,
    from the `count` pairs (orthonormal vectors) of a shift-invert Lanczos
    solve.

    While an eigenvalue off the span of the pairs found lies more than
    1e-8 relative below the count-th smallest of them, that eigenpair is
    solved for on the same deflated operator and added.  When any was
    added, one Rayleigh-Ritz step over the union of the vectors gives the
    pairs kept.
    """
    while True:
        kth = np.sort(lams)[count - 1]
        rest = _lowest_off_span(op, sigma, vecs)
        if rest >= kth - 1e-8 * abs(kth):
            break
        mu, vec = _off_span_solve(op, vecs, tol=0)
        lams = np.append(lams, sigma + 1.0 / mu[0])
        vecs = np.hstack([vecs, vec])
    if len(lams) > count:
        basis = np.linalg.qr(vecs)[0]
        lams, ritz = np.linalg.eigh(basis.T @ (a @ basis))
        rest = min(rest, lams[count])
        lams, vecs = lams[:count], basis @ ritz[:, :count]
    return lams, vecs, rest


def compute_spectrum(target, count):
    """First `count` eigenpairs of -Laplace, ascending, mass-orthonormal.

    `target` is a TriMesh or an analytic manifold.
    """
    if count < 1:
        raise ValueError("count must be >= 1")

    if isinstance(target, AnalyticManifold):
        basis = target.eigenbasis(count)
        return Spectrum(basis.eigenvalues, target, basis=basis)
    if not isinstance(target, TriMesh):
        raise TypeError(f"cannot compute a spectrum for {type(target)!r}")

    mesh = target
    ops = assemble_laplacian(mesh)
    nv = ops.stiffness.shape[0]
    if count >= nv:
        raise ValueError("count must be below the vertex count")

    # standard form D K D y = lambda y with D = M^(-1/2), M diagonal
    masses = ops.mass.diagonal()
    scale = ops.stiffness.diagonal().mean() / masses.mean()
    sigma = -1e-2 * scale
    d = sparse.diags(1.0 / np.sqrt(masses))
    a = d @ ops.stiffness @ d
    v0 = np.ones(nv)
    op = _band_shift_invert(a, sigma)
    try:
        # a Krylov basis of 1.5 count solves faster than eigsh's default
        # 2 count + 1; _complete recovers the multiplet members it skips
        lams, vecs = spla.eigsh(a, k=count, sigma=sigma, which="LM", v0=v0,
                                tol=0, OPinv=op,
                                ncv=min(nv, max(20, math.ceil(3 * count / 2))))
        lams, vecs, lam_next = _complete(a, op, sigma, lams, vecs, count)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(
            f"eigensolver did not converge within the iteration budget: {exc}",
        ) from exc
    vecs = d @ vecs

    lams = np.maximum(lams, 0.0) * (np.abs(lams) > 1e-9 * max(lams.max(), 1e-30))
    residual = ops.stiffness @ vecs - ops.mass @ vecs * lams
    res = np.linalg.norm(residual, axis=0) / (1.0 + lams)
    if np.any(res > 1e-10):
        raise EigensolverError(
            f"eigenpair residual {res.max():.2e} exceeds tolerance")

    lams, vecs = _canonical_basis(lams, vecs, masses)
    const = 1.0 / np.sqrt(mesh.volume)
    if not (np.allclose(vecs[:, 0], const, rtol=1e-6)
            or np.allclose(vecs[:, 0], -const, rtol=1e-6)):
        raise ValueError("constant eigenfunction is not +-1/sqrt(V)")
    return Spectrum(lams, mesh, basis=_VertexBasis(mesh, vecs),
                    operator_pair=ops, next_eigenvalue=lam_next)


# ---------------------------------------------------------------------------
# Quantitative bounds
# ---------------------------------------------------------------------------

@dataclass
class GrowthReport:
    ks: np.ndarray
    eigenvalues: np.ndarray
    bound_values: np.ndarray
    applicable: np.ndarray
    passed: np.ndarray
    threshold: float
    bounds: GeometryBounds

    def all_pass(self):
        return bool(np.all(self.passed[self.applicable]))

    def summary(self):
        return {
            "growth_threshold": self.threshold,
            "growth_applicable": int(self.applicable.sum()),
            "growth_failures": int(np.sum(self.applicable & ~self.passed)),
            "faber_krahn_a": self.bounds.a,
            "trace_const_c": self.bounds.C,
            "harmonic_radius": self.bounds.r_h,
        }


def eigen_growth_check(spectrum, bounds):
    """Check the eigenvalue lower bound above its validity threshold."""
    threshold = bounds.growth_threshold()
    ks = np.arange(spectrum.count)
    bound_values = bounds.growth_lower_bound(np.maximum(ks, 1))
    bound_values[0] = 0.0
    applicable = ks >= threshold
    passed = spectrum.eigenvalues >= bound_values
    return GrowthReport(ks, spectrum.eigenvalues.copy(), bound_values,
                        applicable, passed, threshold, bounds)


@dataclass
class SupBoundReport:
    ks: np.ndarray
    eigenvalues: np.ndarray
    sup_ratios: np.ndarray
    grad_ratios: np.ndarray
    empirical_sup_constant: float
    empirical_grad_constant: float

    @property
    def empirical_constant(self):
        return max(self.empirical_sup_constant, self.empirical_grad_constant)

    def summary(self):
        return {
            "sup_constant": self.empirical_sup_constant,
            "grad_constant": self.empirical_grad_constant,
            "empirical_c": self.empirical_constant,
        }


def eigenfunction_sup_bounds(spectrum):
    """Ratios ||phi||_inf / lambda^(n/4) and ||grad phi||_inf / lambda^((n+2)/4).

    The constant mode is excluded (its eigenvalue vanishes).  The maxima
    over k >= 1 are the empirical constants used by the truncation bound.
    """
    n = spectrum.dim
    lam = spectrum.eigenvalues[1:]
    sup = spectrum.sup_norms()[1:]
    gsup = spectrum.grad_sup_norms()[1:]
    sup_ratios = sup / lam ** (n / 4.0)
    grad_ratios = gsup / lam ** ((n + 2) / 4.0)
    return SupBoundReport(np.arange(1, spectrum.count), lam.copy(),
                          sup_ratios, grad_ratios,
                          float(sup_ratios.max()), float(grad_ratios.max()))


def _clamped_envelope(mu, t, power):
    """sup of e^(-x t) x^power over x >= mu.

    Valid per-term bound when mu only underestimates the true eigenvalue:
    left of the peak power/t the sup is the peak value, right of it the
    function is decreasing.
    """
    x = np.maximum(mu, power / t)
    return np.exp(-x * t) * x ** power


def _upper_gamma(s, y):
    """Gamma(s, y) for s = n or n + 1/2, n >= 0 an integer, s > 0, y >= 0.

    From Gamma(1, y) = e^(-y) or Gamma(1/2, y) = sqrt(pi) erfc(sqrt(y)),
    Gamma(a + 1, y) = a Gamma(a, y) + y^a e^(-y) steps up to s (DLMF 8.4.5,
    8.4.6, 8.8.2).  y^a e^(-y) is formed as one exponential, so neither
    factor leaves the doubles alone; its relative error grows like y eps,
    the conditioning of e^(-y).  y = 0 gives Gamma(s).
    """
    a = 0.5 if s % 1.0 else 1.0
    value = math.exp(-y) if a == 1.0 else \
        math.sqrt(math.pi) * math.erfc(math.sqrt(y))
    # y^a e^(-y) is 0 at y = 0 and at y = inf
    log_y = math.log(y) if 0 < y < math.inf else -math.inf
    while a < s:
        value = a * value + math.exp(a * log_y - y)
        a += 1.0
    return value


def _tail_terms(spectrum, t, bounds, empirical_c):
    """Per-index tail summands and the integral remainder past the window.

    Index k uses the true eigenvalue when computed, otherwise the growth
    lower bound (valid past its threshold) floored at the last computed
    eigenvalue.  Each summand covers both the kernel and gradient tails:
    C^2 (e^(-mu t) mu^((n+1)/2) + e^(-mu t) mu^(n/2)), with the envelope
    clamped at its peak so underestimating mu never shrinks the bound.
    """
    n = spectrum.dim
    k_min = bounds.growth_threshold()
    K = spectrum.count
    k_cap = max(K - 1, int(math.ceil(k_min)) + 1, 512)

    ks = np.arange(1, k_cap + 1)
    lam_last = spectrum.eigenvalues[-1]
    mu = np.where(ks < K, spectrum.eigenvalues[np.minimum(ks, K - 1)], lam_last)
    grown = bounds.growth_lower_bound(ks)
    use_growth = (ks >= k_min) & (ks >= K)
    mu = np.where(use_growth, np.maximum(grown, lam_last), mu)
    terms = empirical_c ** 2 * (
        _clamped_envelope(mu, t, (n + 1) / 2.0)
        + _clamped_envelope(mu, t, n / 2.0))

    c_growth = bounds.growth_lower_bound(1.0)
    y0 = c_growth * t * k_cap ** (2.0 / n)
    remainder = 0.0
    for power in ((n + 1) / 2.0, n / 2.0):
        s = power + n / 2.0
        remainder += (n / 2.0) * c_growth ** (-n / 2.0) * t ** (-n / 2.0 - power) \
            * _upper_gamma(s, y0)
    remainder *= empirical_c ** 2
    return terms, float(remainder)


def truncation_index(spectrum, t, eps, bounds):
    """Smallest N whose certified tail bound is below eps.

    Antitone in both t and eps.  Raises :class:`TruncationError` when the
    required N exceeds the available eigenpair count.
    """
    if t <= 0 or eps <= 0:
        raise ValueError("t and eps must be positive")
    empirical_c = eigenfunction_sup_bounds(spectrum).empirical_constant
    terms, remainder = _tail_terms(spectrum, t, bounds, empirical_c)

    # tail(N) = sum of terms for k > N, plus remainder; terms[i] is index i+1
    suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]]) + remainder
    ok = np.nonzero(suffix < eps)[0]
    if not ok.size:
        raise TruncationError(
            f"tolerance {eps} unreachable within the bound window",
            partial_tail=float(suffix[-1]))
    n0 = int(ok[0])
    K = spectrum.count
    if n0 > K - 1:
        raise TruncationError(
            f"needs N={n0} but only {K} eigenpairs are available",
            partial_tail=float(suffix[min(K, len(suffix) - 1)]))
    return n0


def export_spectrum(spectrum, directory):
    """eigenvalues.csv, and eigenfunctions.npy: the float64, C-order
    (samples, count) array whose row i is sample point i (vertex i on a
    mesh) and column k mode k, exact where CSV text would be bound by repr."""
    reporting.write_csv(os.path.join(directory, "eigenvalues.csv"),
                        ["k", "lambda"],
                        enumerate(spectrum.eigenvalues.tolist()))
    values = spectrum.values(spectrum.manifold.sample_points())
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(values, dtype=np.float64))
    reporting.atomic_write(os.path.join(directory, "eigenfunctions.npy"),
                           buf.getvalue())
