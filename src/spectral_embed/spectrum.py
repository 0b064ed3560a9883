"""Laplace-Beltrami spectra and the quantitative spectral bounds.

Solves the generalized eigenproblem on meshes (shift-invert Lanczos),
enumerates closed-form eigenpairs on analytic backends, and evaluates the
eigenvalue-growth bound, eigenfunction sup bounds and the heat-kernel
truncation index.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
import scipy.special

from .manifold import AnalyticManifold, OperatorPair, TriMesh, assemble_laplacian
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

    def __init__(self, eigenvalues, manifold, *, basis, operator_pair=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.manifold = manifold
        self.basis = basis
        self.vectors = getattr(basis, "vectors", None)
        self.operator_pair = operator_pair
        self.dim = manifold.dim
        self.volume = manifold.volume
        self._validate()

    @property
    def count(self):
        return len(self.eigenvalues)

    def _validate(self):
        lam = self.eigenvalues
        if np.any(np.diff(lam) < -1e-9 * max(1.0, abs(lam[-1]))):
            raise ValueError("eigenvalues must be nondecreasing")
        if len(lam) > 1 and abs(lam[0]) > 1e-8 * max(lam[1], 1e-30):
            raise ValueError("lowest eigenvalue must vanish")
        if self.vectors is not None:
            phi0 = self.vectors[:, 0]
            target = 1.0 / np.sqrt(self.volume)
            if not (np.allclose(phi0, target, rtol=1e-6)
                    or np.allclose(phi0, -target, rtol=1e-6)):
                raise ValueError("constant eigenfunction is not +-1/sqrt(V)")

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


def _order_degenerate(lams, vectors, rel_tol=1e-6):
    """Stable ascending order with lexicographic ties inside multiplets."""
    order = np.argsort(lams, kind="stable")
    lams, vectors = lams[order], vectors[:, order]
    k = 0
    while k < len(lams):
        j = k + 1
        scale = max(abs(lams[k]), 1e-12)
        while j < len(lams) and abs(lams[j] - lams[k]) <= rel_tol * scale:
            j += 1
        if j - k > 1:
            group = sorted(range(k, j),
                           key=lambda i: tuple(np.round(vectors[:, i], 10)))
            lams[k:j] = lams[group]
            vectors[:, k:j] = vectors[:, group]
        k = j
    return lams, vectors


def compute_spectrum(target, count, *, mesh=None, maxiter=None):
    """First `count` eigenpairs of -Laplace, ascending, mass-orthonormal.

    `target` may be a TriMesh, an OperatorPair (with `mesh` supplied for
    gradient evaluation), or an analytic manifold.
    """
    if count < 1:
        raise ValueError("count must be >= 1")

    if isinstance(target, AnalyticManifold):
        basis = target.eigenbasis(count)
        return Spectrum(basis.eigenvalues, target, basis=basis)

    if isinstance(target, TriMesh):
        mesh = target
        ops = assemble_laplacian(mesh)
    elif isinstance(target, OperatorPair):
        if mesh is None:
            raise ValueError("OperatorPair input needs the mesh as well")
        ops = target
    else:
        raise TypeError(f"cannot compute a spectrum for {type(target)!r}")

    nv = ops.stiffness.shape[0]
    if count >= nv:
        raise ValueError("count must be below the vertex count")

    scale = ops.stiffness.diagonal().mean() / ops.mass.diagonal().mean()
    sigma = -1e-2 * scale
    v0 = np.ones(nv)
    try:
        lams, vecs = spla.eigsh(ops.stiffness, k=count, M=ops.mass,
                                sigma=sigma, which="LM", v0=v0, tol=0,
                                maxiter=maxiter)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(
            f"eigensolver did not converge within the iteration budget: {exc}",
        ) from exc

    lams = np.maximum(lams, 0.0) * (np.abs(lams) > 1e-9 * max(lams.max(), 1e-30))
    residual = ops.stiffness @ vecs - ops.mass @ vecs * lams
    res = np.linalg.norm(residual, axis=0) / (1.0 + lams)
    if np.any(res > 1e-10):
        raise EigensolverError(
            f"eigenpair residual {res.max():.2e} exceeds tolerance")

    lams, vecs = _order_degenerate(lams, _fix_signs(vecs))
    vecs = _fix_signs(vecs)
    return Spectrum(lams, mesh, basis=_VertexBasis(mesh, vecs),
                    operator_pair=ops)


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
            * math.gamma(s) * scipy.special.gammaincc(s, y0)
    remainder *= empirical_c ** 2
    return terms, float(remainder)


def truncation_tail_bound(spectrum, t, bounds, empirical_c=None, start=0):
    """Certified upper bound for the tail sup-norms past index `start`."""
    if empirical_c is None:
        empirical_c = eigenfunction_sup_bounds(spectrum).empirical_constant
    terms, remainder = _tail_terms(spectrum, t, bounds, empirical_c)
    return float(terms[start:].sum() + remainder)


def truncation_index(spectrum, t, eps, bounds, empirical_c=None):
    """Smallest N whose certified tail bound is below eps.

    Antitone in both t and eps.  Raises :class:`TruncationError` when the
    required N exceeds the available eigenpair count.
    """
    if t <= 0 or eps <= 0:
        raise ValueError("t and eps must be positive")
    if empirical_c is None:
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
    """CSV export: eigenvalues plus one value-per-vertex file per mode."""
    import os
    os.makedirs(directory, exist_ok=True)
    reporting.write_csv(os.path.join(directory, "eigenvalues.csv"),
                        ["k", "lambda"],
                        enumerate(spectrum.eigenvalues.tolist()))
    values = spectrum.values(spectrum.manifold.sample_points())
    for k in range(spectrum.count):
        reporting.write_csv(
            os.path.join(directory, f"eigenfunction_{k:04d}.csv"),
            ["vertex", "value"], enumerate(values[:, k].tolist()))
