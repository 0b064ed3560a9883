"""Truncated heat kernels: evaluation, decay bounds, Varadhan asymptotics."""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrum, TruncationError, truncation_index
from . import reporting


class HeatEvaluator:
    """A spectrum cut at index N, evaluating K_N and its spatial gradient.

    K_N(p,t;q) = sum_{k<=N} e^(-lambda_k t) phi_k(p) phi_k(q), summed in
    index order.  K_N(p,t;q) and K_N(q,t;p) agree to roundoff, not bit for
    bit: each term is rounded as (w phi(p)) phi(q) in the first and as
    (w phi(q)) phi(p) in the second, so the two can differ by a few units
    of `roundoff_floor`'s scale eps sqrt(K(p,t;p) K(q,t;q)).
    """

    def __init__(self, spectrum: Spectrum, n_trunc: int):
        if n_trunc < 0 or n_trunc >= spectrum.count:
            raise ValueError("truncation index out of range")
        self.spectrum = spectrum
        self.n_trunc = int(n_trunc)
        self.manifold = spectrum.manifold
        # an empty batch: vertex indices on a mesh, coordinate rows otherwise
        self._no_points = self.manifold.sample_points()[:0]

    def _points(self, p):
        """A point or a point batch as a batch."""
        empty = self._no_points
        return np.asarray(p, dtype=empty.dtype).reshape(
            (-1,) + empty.shape[1:])

    def weights(self, t):
        lam = self.spectrum.eigenvalues[: self.n_trunc + 1]
        return np.exp(-lam * np.asarray(t, dtype=float))

    def truncated_values(self, P):
        """phi_0 .. phi_N at a point batch, (len(P), N + 1); t-independent."""
        return self.spectrum.values(self._points(P))[:, : self.n_trunc + 1]

    def kernel(self, p, t, q):
        """K_N(p, t; q) at two single points."""
        return self.pair_at(self.pair_terms(p, q), t)[0]

    def kernel_matrix(self, P, t, Q):
        """K_N on a product grid, (len(P), len(Q))."""
        return self.kernel_from_values(self.truncated_values(P), t,
                                       self.truncated_values(Q))

    def kernel_from_values(self, vp, t, vq):
        """K_N on a product grid from `truncated_values` at both point sets.

        Only the weights e^(-lambda t) depend on t, so a caller that varies
        t evaluates the basis once and reweights here.
        """
        return (vp * self.weights(t)) @ vq.T

    def gradient(self, p, t, q):
        """Gradient of K_N(p, t; q) in p, a tangent vector at p, at two
        single points."""
        return self.pair_at(self.pair_terms(p, q), t)[1]

    def roundoff_floor(self, p, t, q):
        """Numerical resolution of kernel and gradient values at (p, t, q).

        Evaluated sums carry a relative error of order machine epsilon of
        their natural Cauchy-Schwarz scale sqrt(K(p,t;p) K(q,t;q)); values
        below that floor are indistinguishable from zero.  The diagonal
        sums have no cancellation, so they are reliable scales.
        """
        return self.pair_at(self.pair_terms(p, q), t)[2]

    def pair_terms(self, p, q):
        """phi(p) and phi(q), (1, N + 1), and grad phi(p), (1, N + 1, dim),
        at two single points: every t-independent factor of `kernel`,
        `gradient` and `roundoff_floor` there."""
        P, Q = self._points(p), self._points(q)
        return (self.truncated_values(P), self.truncated_values(Q),
                self.spectrum.gradients(P)[:, : self.n_trunc + 1])

    def pair_at(self, terms, t):
        """K_N(p, t; q), its gradient in p and the roundoff floors of both
        from `pair_terms(p, q)`: the one evaluation behind `kernel`,
        `gradient` and `roundoff_floor`."""
        vp, vq, gp = terms
        w = self.weights(t)
        value = float(np.sum(w * vp * vq, axis=1)[0])
        grad = np.einsum("k,pkd,pk->pd", w, gp, vq)[0]
        kpp = float(np.sum(w * vp * vp, axis=1)[0])
        kqq = float(np.sum(w * vq * vq, axis=1)[0])
        gpp = float(np.einsum("k,pkd,pkd->p", w, gp, gp)[0])
        eps = np.finfo(float).eps
        return value, grad, (eps * math.sqrt(max(kpp * kqq, 0.0)),
                             eps * math.sqrt(max(gpp * kqq, 0.0)))


def _pair_distance(manifold, p, q):
    """Geodesic distance between two single points (vertices on a mesh)."""
    return float(manifold.distance_between(np.atleast_1d(p),
                                           np.atleast_1d(q))[0, 0])


# ---------------------------------------------------------------------------
# Decay bounds
# ---------------------------------------------------------------------------

@dataclass
class DecayRow:
    p: object
    q: object
    t: float
    distance: float
    value: float
    bound: float
    value_pass: bool
    grad_value: float
    grad_bound: float
    grad_flag: str  # pass | fail | outside_range


@dataclass
class DecayReport:
    rows: list
    constants: dict

    def all_pass(self):
        ok = all(r.value_pass for r in self.rows)
        ok &= all(r.grad_flag != "fail" for r in self.rows)
        return ok

    def value_csv_rows(self):
        return [(_point_text(r.p), _point_text(r.q), r.t, r.value, r.bound,
                 "pass" if r.value_pass else "fail") for r in self.rows]

    def gradient_csv_rows(self):
        return [(_point_text(r.p), _point_text(r.q), r.t, r.grad_value,
                 r.grad_bound, r.grad_flag) for r in self.rows]


def _point_text(p):
    arr = np.atleast_1d(np.asarray(p))
    if arr.dtype.kind in "iu" and arr.size == 1:
        return str(int(arr[0]))
    return ";".join(repr(float(x)) for x in arr.ravel())


def decay_value_bound(d, t, bounds):
    n = bounds.dim
    r_h = bounds.require_harmonic_radius()
    return bounds.C * (1.0 + d ** 2 / t) ** (n / 2.0) \
        / (bounds.a * min(t, r_h ** 2)) ** (n / 2.0) * np.exp(-d ** 2 / (4 * t))


def decay_gradient_bound(d, t, bounds, grad_const):
    n = bounds.dim
    return grad_const / t ** ((n + 1) / 2.0) * np.exp(-d ** 2 / (8 * t))


def unbounded_decay_time(manifold, bounds, pairs, ts, grad_const):
    """The first t in `ts` at which the kernel or gradient decay bound of a
    pair leaves the doubles (nan, inf or an overflow), or None.  It reads
    only the manifold, so a run can check its times before evaluating."""
    distances = [_pair_distance(manifold, p, q) for p, q in pairs]
    for t in ts:
        for d in distances:
            try:
                with np.errstate(all="ignore"):
                    both = (decay_value_bound(d, t, bounds),
                            decay_gradient_bound(d, t, bounds, grad_const))
            except ArithmeticError:  # a Python float power past the doubles
                return t
            if not all(map(math.isfinite, both)):
                return t
    return None


def decay_check(ev, bounds, pairs, ts, grad_const):
    """Kernel and gradient decay-bound table over pairs x times.

    `grad_const` is the gradient decay constant D(n), which has no
    canonical value (`bounds.d`).  Gradient rows with t > 2 r_h^2 fall
    outside the regime of the bound and are marked instead of judged.  Measured
    values carry a roundoff floor: a bound many orders below the summation
    noise of the spectral series cannot be falsified by it.
    """
    r_h = bounds.require_harmonic_radius()
    rows = []
    for (p, q) in pairs:
        d = _pair_distance(ev.manifold, p, q)
        terms = ev.pair_terms(p, q)  # the basis, once per pair
        for t in ts:
            value, grad, (vfloor, gfloor) = ev.pair_at(terms, t)
            bound = decay_value_bound(d, t, bounds)
            gval = float(np.linalg.norm(grad))
            gbound = decay_gradient_bound(d, t, bounds, grad_const)
            value_pass = bool(abs(value) <= bound + 64.0 * vfloor)
            if t > 2 * r_h ** 2:
                gflag = "outside_range"
            else:
                gflag = "pass" if gval <= gbound + 64.0 * gfloor else "fail"
            rows.append(DecayRow(p, q, float(t), d, float(value), float(bound),
                                 value_pass, gval, float(gbound), gflag))
    return DecayReport(rows, {
        "faber_krahn_a": bounds.a, "trace_const_c": bounds.C,
        "grad_const_d": grad_const, "harmonic_radius": r_h})


# ---------------------------------------------------------------------------
# Varadhan's small-time asymptotic
# ---------------------------------------------------------------------------

@dataclass
class VaradhanRow:
    p: object
    q: object
    distance: float
    extrapolated: float
    rel_error: float
    used_ts: tuple
    dropped: tuple


@dataclass
class VaradhanReport:
    rows: list

    def max_rel_error(self):
        return max(r.rel_error for r in self.rows)

    def csv_rows(self):
        return [(_point_text(r.p), _point_text(r.q), r.distance,
                 r.distance ** 2, r.extrapolated, r.rel_error)
                for r in self.rows]


def varadhan_time_grid(d):
    """Per-pair time grid keeping the kernel representable: t = d^2/(4 L)
    for L = 18, 24, 30, where the Gaussian factor e^(-L) stays above the
    roundoff floor of the spectral sum.

    For coincident pairs there is no Gaussian decay to resolve; a fixed
    small-time grid is returned.
    """
    if d <= 0:
        return (1e-4, 3e-5, 1e-5)
    return tuple(d ** 2 / (4.0 * L) for L in (18.0, 24.0, 30.0))


def varadhan_check(ev, pairs, t_grids, bounds):
    """Fit -4t log K_N against t and extrapolate to t = 0 per pair.

    The truncation index at each pair's smallest time in `t_grids` is
    certified to 1e-12 under `bounds`, so the truncated kernel stands in
    for the full one.  Underflowing times are dropped from the fit with a
    warning.
    """
    rows = []
    for (p, q), ts in zip(pairs, t_grids, strict=True):
        d = _pair_distance(ev.manifold, p, q)
        try:
            needed = truncation_index(ev.spectrum, min(ts), 1e-12, bounds)
        except TruncationError as exc:
            raise TruncationError(
                f"cannot certify the pair at distance {d:.6g} down to "
                f"t={min(ts)!r}: {exc}", exc.partial_tail) from exc
        if ev.n_trunc < needed:
            raise ValueError(
                f"truncation N={ev.n_trunc} too small for t={min(ts)}: "
                f"need N>={needed}")
        terms = ev.pair_terms(p, q)  # the basis, once per pair
        used, ys, dropped = [], [], []
        for t in ts:
            val, _, (floor, _) = ev.pair_at(terms, t)
            if val <= 64.0 * floor or not np.isfinite(np.log(val)):
                dropped.append(t)
                warnings.warn(f"kernel underflow at t={t}; dropped from fit",
                              RuntimeWarning)
                continue
            used.append(t)
            ys.append(-4.0 * t * np.log(val))
        if len(used) < 2:
            raise ValueError("fewer than two usable times in the Varadhan fit")
        coeffs = np.polynomial.polynomial.polyfit(used, ys, 1)
        extrapolated = float(coeffs[0])
        if d > 0:
            rel = abs(extrapolated - d ** 2) / d ** 2
        else:
            rel = abs(extrapolated)
        rows.append(VaradhanRow(p, q, d, extrapolated, rel,
                                tuple(used), tuple(dropped)))
    return VaradhanReport(rows)


def export_decay(report, value_path, gradient_path):
    header = ["p", "q", "t", "value", "bound", "flag"]
    reporting.write_csv(value_path, header, report.value_csv_rows())
    reporting.write_csv(gradient_path, header, report.gradient_csv_rows())


def export_varadhan(report, path):
    reporting.write_csv(path, ["p", "q", "d", "d_squared", "extrapolated",
                               "rel_error"], report.csv_rows())
