"""Nets, Voronoi weights, embedding maps and their near-isometry reports.

Map kinds (named after their construction; the letters are the config
surface of the CLI):

* ``G``          heat kernels from net points, max-norm target
* ``H``          Voronoi-weighted heat kernels, Euclidean target
* ``F``          exponentially weighted eigenfunctions, Euclidean target
* ``kuratowski`` distances to net points, max-norm target (baseline)
"""

import math
from dataclasses import dataclass

import numpy as np

from .manifold import TriMesh
from .heat import HeatEvaluator
from . import reporting


@dataclass(frozen=True)
class Net:
    """Ordered sample points with covering radius delta and cell weights.

    `fields` holds each net point's distance field over the canonical
    sample, (len(points), sample size), when the net was built by
    `build_net`.
    """

    points: np.ndarray
    delta: float
    weights: np.ndarray
    fields: np.ndarray = None

    def __len__(self):
        return len(self.points)


def build_net(manifold, delta, seed_point=None):
    """Farthest-point-sampled delta-net with Voronoi weights.

    Deterministic: seeded at the first canonical sample point (vertex 0 on
    a mesh); each step adds the sample point farthest from the net until
    the covering radius drops to delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if delta < manifold.resolution():
        raise ValueError("net finer than discretization")

    # run until the covering radius is strictly below delta (a point at
    # exactly delta still triggers refinement, so equispaced configurations
    # split once more)
    stop = delta * (1.0 - 1e-12)
    candidates = manifold.sample_points()
    chosen = [candidates[0] if seed_point is None else seed_point]
    fields = [manifold.distance_from(chosen[0])]
    mind = fields[0]
    while mind.max() >= stop:
        chosen.append(candidates[int(np.argmax(mind))])
        fields.append(manifold.distance_from(chosen[-1]))
        mind = np.minimum(mind, fields[-1])
    points = np.array(chosen)

    fields = np.stack(fields)
    weights, covering = _voronoi(manifold, fields)
    if covering > delta * (1 + 1e-9):
        raise ValueError("covering radius exceeds delta after sampling")
    return Net(points, float(delta), weights, fields)


def _voronoi(manifold, fields):
    """Cell weights and covering radius from the net's distance fields.

    `fields` is (net size, canonical sample size); each sample point goes
    to its nearest net point, ties to the lowest index.
    """
    weights = np.zeros(len(fields))
    np.add.at(weights, np.argmin(fields, axis=0),
              manifold.sample_weights(manifold.sample_points()))
    return weights, float(fields.min(axis=0).max())


def voronoi_weights(manifold, net):
    """Cell masses |A_i| of the nearest-point partition induced by the net."""
    fields = manifold.distance_between(net.points, manifold.sample_points())
    return _voronoi(manifold, fields)[0]


def replicate_net(net, lam):
    """Replicated point list with multiplicities ceil(|A_i| / lam)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    counts = np.ceil(net.weights / lam).astype(int)
    if isinstance(net.points, np.ndarray) and net.points.ndim == 2:
        points = np.repeat(net.points, counts, axis=0)
    else:
        points = np.repeat(net.points, counts)
    return points, counts


# ---------------------------------------------------------------------------
# Embedding maps
# ---------------------------------------------------------------------------

MAP_KINDS = ("G", "H", "F", "kuratowski")


@dataclass(frozen=True)
class EmbeddingMap:
    kind: str
    norm: str        # "max" | "euclidean"
    scale: float
    t: float = None
    evaluator: HeatEvaluator = None
    manifold: object = None
    net_points: np.ndarray = None
    net_fields: np.ndarray = None  # kuratowski on a mesh: the net's fields
    component_weights: np.ndarray = None  # sqrt cell masses for H
    eigencount: int = None

    def ambient_dim(self):
        if self.kind == "F":
            return self.eigencount
        return len(self.net_points)


def map_scale(kind, dim, t):
    """The normalization making the target dilatation band [1-eps, 1+eps]."""
    n = dim
    if kind == "G":
        return (2 * t) ** ((n + 1) / 2.0) * (2 * math.pi) ** (n / 2.0) \
            * math.exp(0.5)
    if kind in ("H", "F"):
        # 1/V_e with V_e = 1 / (sqrt(2) (4 pi)^(n/4))
        return (2 * t) ** ((n + 2) / 4.0) * math.sqrt(2.0) \
            * (4 * math.pi) ** (n / 4.0)
    if kind == "kuratowski":
        return 1.0
    raise ValueError(f"unknown map kind {kind!r}")


def make_map(kind, *, evaluator=None, net=None, manifold=None, t=None,
             eigencount=None, weights=None):
    if kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {kind!r}")
    if kind == "kuratowski":
        if manifold is None or net is None:
            raise ValueError("kuratowski map needs a manifold and a net")
        # Mesh points are sample indices, so the net's fields already hold
        # every distance the map reads.  Closed-form backends measure: they
        # run no search, and the sphere's P @ Q.T can round a one-row call
        # differently from the stacked one.
        fields = net.fields if isinstance(manifold, TriMesh) else None
        return EmbeddingMap(kind, "max", 1.0, manifold=manifold,
                            net_points=net.points, net_fields=fields)
    if t is None or t <= 0:
        raise ValueError("heat-kernel maps need t > 0")
    man = evaluator.manifold
    scale = map_scale(kind, evaluator.spectrum.dim, t)
    if kind == "G":
        return EmbeddingMap(kind, "max", scale, t=t, evaluator=evaluator,
                            manifold=man, net_points=net.points)
    if kind == "H":
        w = net.weights if weights is None else np.asarray(weights, dtype=float)
        return EmbeddingMap(kind, "euclidean", scale, t=t, evaluator=evaluator,
                            manifold=man, net_points=net.points,
                            component_weights=np.sqrt(w))
    if eigencount is None or eigencount < 1:
        raise ValueError("F map needs an eigenfunction count >= 1")
    if eigencount >= evaluator.spectrum.count:
        raise ValueError("eigencount exceeds the computed spectrum")
    return EmbeddingMap(kind, "euclidean", scale, t=t, evaluator=evaluator,
                        manifold=man, eigencount=eigencount)


def map_features(emap, points):
    """The part of the map at `points` that does not depend on t.

    Distances to the net points for ``kuratowski`` (columns of the net's
    fields on a mesh); eigenfunction values for the heat-kernel maps
    (phi_1 .. phi_m for ``F``, phi_0 .. phi_N for ``G`` and ``H``, which
    also need them at the net points).
    """
    if emap.kind == "kuratowski":
        if emap.net_fields is not None:
            return emap.net_fields[:, np.asarray(points, dtype=int)].T
        return emap.manifold.distance_between(emap.net_points, points).T
    if emap.kind == "F":
        sp = emap.evaluator.spectrum
        return sp.values(points)[:, 1:emap.eigencount + 1]
    return emap.evaluator.truncated_values(points)


def map_image(emap, features, net_features):
    """Image vectors from `map_features` at the points (and, for ``G`` and
    ``H``, at the net points): the reweighting by e^(-lambda t)."""
    if emap.kind == "kuratowski":
        return features
    if emap.kind == "F":
        lam = emap.evaluator.spectrum.eigenvalues[1:emap.eigencount + 1]
        return emap.scale * np.exp(-lam * emap.t) * features
    kernels = emap.evaluator.kernel_from_values(features, emap.t,
                                                net_features)
    if emap.kind == "H":
        kernels = kernels * emap.component_weights
    return emap.scale * kernels


def _net_features(emap):
    if emap.kind in ("G", "H"):
        return map_features(emap, emap.net_points)
    return None


def evaluate_map(emap, points):
    """Image vectors of the map, one row per input point."""
    return map_image(emap, map_features(emap, points), _net_features(emap))


def image_distance(emap, fx, fy):
    diff = fx - fy
    if emap.norm == "max":
        return np.abs(diff).max(axis=-1)
    return np.linalg.norm(diff, axis=-1)


# ---------------------------------------------------------------------------
# Pair sampling
# ---------------------------------------------------------------------------

def _source_fields(manifold, size, rng, limit=np.inf):
    """Canonical sample, distinct random source rows and their fields,
    which may be inf beyond `limit`.

    A source's own column is zeroed: closed-form distances can leave
    roundoff there (arccos on the sphere), and a point is no pair with
    itself.
    """
    P = manifold.sample_points()
    sources = rng.choice(len(P), size=min(size, len(P)), replace=False)
    fields = manifold.distance_between(P[sources], P, limit=limit)
    fields[np.arange(len(sources)), sources] = 0.0
    return P, sources, fields


def sample_near_pairs(manifold, h_near, count, rng):
    """Pairs of canonical sample points with geodesic separation in
    (0, h_near], drawn around up to 64 random sources."""
    P, sources, fields = _source_fields(manifold, 64, rng, limit=h_near)
    rows, cols = np.nonzero((fields > 0) & (fields <= h_near))
    if not rows.size:
        raise ValueError("no pairs within h_near")
    idx = rng.permutation(rows.size)[:count]
    rows, cols = rows[idx], cols[idx]
    return P[sources[rows]], P[cols], fields[rows, cols]


def sample_far_pairs(manifold, h_far, count, rng):
    """Pairs of canonical sample points with geodesic separation >= h_far:
    up to `count // sources` (at least 4) per source, from up to 32."""
    P, sources, fields = _source_fields(manifold, 32, rng)
    per = max(4, count // len(sources))
    far = [np.nonzero(field >= h_far)[0] for field in fields]
    picks = [rng.choice(f, size=min(per, f.size), replace=False) if f.size
             else f for f in far]
    rows = np.repeat(np.arange(len(picks)), [p.size for p in picks])
    cols = np.concatenate(picks)
    if not rows.size:
        raise ValueError("no pairs beyond h_far")
    idx = rng.permutation(rows.size)[:count]
    rows, cols = rows[idx], cols[idx]
    return P[sources[rows]], P[cols], fields[rows, cols]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingReport:
    kind: str
    ratios: np.ndarray
    distances: np.ndarray
    h_near: float
    t: float
    params: dict

    @property
    def dil_min(self):
        return float(self.ratios.min())

    @property
    def dil_max(self):
        return float(self.ratios.max())

    def quantile(self, q):
        return float(np.quantile(self.ratios, q))

    def within_band(self, lo, hi):
        return float(np.mean((self.ratios >= lo) & (self.ratios <= hi)))

    def summary(self):
        out = {"map": self.kind, "dil_min": self.dil_min,
               "dil_max": self.dil_max, "dil_median": self.quantile(0.5),
               "pairs": len(self.ratios), "h_near": self.h_near}
        if self.t is not None:
            out["t"] = self.t
        out.update(self.params)
        return out


def default_h_near(manifold):
    return 4.0 * manifold.resolution()


def default_h_far(manifold):
    return manifold.diameter() / 8.0


def _near_pairs(manifold, h_near, pairs, count, seed):
    """The given `pairs`, or `count` pairs within h_near drawn with `seed`.

    h_near is checked first, so a bad value fails before any sampling.
    """
    if h_near <= 0:
        raise ValueError("h_near must be positive")
    if isinstance(manifold, TriMesh) and h_near < 3 * manifold.mean_edge_length():
        raise ValueError("h_near below 3 mesh edge lengths: difference "
                         "quotients would be dominated by graph error")
    if pairs is not None:
        return pairs
    return sample_near_pairs(manifold, h_near, count,
                             np.random.default_rng(seed))


def _far_pairs(manifold, h_far, pairs, count, seed):
    """The given `pairs`, or `count` pairs beyond h_far drawn with `seed`."""
    if h_far <= 0:
        raise ValueError("h_far must be positive")
    if pairs is not None:
        return pairs
    return sample_far_pairs(manifold, h_far, count,
                            np.random.default_rng(seed))


def _dilatation(emap, fx, fy, ds, h_near):
    ratios = image_distance(emap, fx, fy) / ds
    return EmbeddingReport(emap.kind, ratios, ds, float(h_near), emap.t,
                           {"norm": emap.norm, "m": emap.ambient_dim()})


def _injectivity(emap, fx, fy, ds, h_far):
    seps = image_distance(emap, fx, fy)
    return {"margin": float(seps.min()), "pairs": len(seps),
            "h_far": float(h_far), "min_distance": float(np.min(ds))}


def dilatation_report(emap, manifold, h_near, *, pairs=None, count=400,
                      seed=0):
    """Difference-quotient dilatation over near pairs.

    The stored scale already carries the normalizing constant, so a
    near-isometry shows ratios inside [1-eps, 1+eps] directly.
    """
    xs, ys, ds = _near_pairs(manifold, h_near, pairs, count, seed)
    return _dilatation(emap, evaluate_map(emap, xs), evaluate_map(emap, ys),
                       ds, h_near)


def injectivity_report(emap, manifold, h_far, *, pairs=None, count=400,
                       seed=0):
    """Minimal image separation over far pairs; positive margin certifies
    injectivity at the sample resolution."""
    xs, ys, ds = _far_pairs(manifold, h_far, pairs, count, seed)
    return _injectivity(emap, evaluate_map(emap, xs), evaluate_map(emap, ys),
                        ds, h_far)


def continuous_dilatation(ev, p, t):
    """Dilatation of the kernel map into L2(M) at p, by quadrature.

    Returns the maximum over an orthonormal tangent frame at p of
    (2t)^((n+2)/4) sqrt(2) (4 pi)^(n/4) ||v . grad K_N(p,t;.)||_L2.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    sp = ev.spectrum
    n = sp.dim
    man = ev.manifold
    frame = man.tangent_frame(p)
    Q = man.sample_points()
    wq = man.sample_weights(Q)
    gradp = sp.gradients(ev._points(p)[0])[0][: ev.n_trunc + 1]
    vq = sp.values(Q)[:, : ev.n_trunc + 1]
    w = ev.weights(t)
    scale = map_scale("H", n, t)
    best = 0.0
    for v in frame:
        coeff = w * (gradp @ v)
        field = vq @ coeff
        quad = float(np.sum(wq * field ** 2))
        best = max(best, scale * math.sqrt(quad))
    return best


def scan_embedding(kind, *, evaluator=None, net=None, manifold=None,
                   eigencount=None, t_max=1.0, levels=8, h_near=None,
                   h_far=None, count=400, seed=0):
    """Evaluate the map over a geometric t-grid and pick the best time.

    A suitable small t is known to exist but not constructively; the scan
    substitutes for the missing constants.  The near and far pairs are
    drawn once with `seed`, and the map's t-independent `map_features` at
    them are computed once; each level only reweights them, so it reports
    what `dilatation_report` and `injectivity_report` give at its t.
    """
    if levels < 1:
        raise ValueError("a scan needs at least one level")
    man = manifold if manifold is not None else evaluator.manifold
    h_near = default_h_near(man) if h_near is None else h_near
    h_far = default_h_far(man) if h_far is None else h_far
    ts = [t_max * 2.0 ** (-j) for j in range(levels)]
    emaps = [make_map(kind, evaluator=evaluator, net=net, manifold=man, t=t,
                      eigencount=eigencount) for t in ts]
    near = _near_pairs(man, h_near, None, count, seed)
    far = _far_pairs(man, h_far, None, count, seed)
    features = [map_features(emaps[0], p)
                for p in (near[0], near[1], far[0], far[1])]
    net_features = _net_features(emaps[0])
    results = []
    for t, emap in zip(ts, emaps):
        nx, ny, fx, fy = (map_image(emap, f, net_features) for f in features)
        results.append({
            "t": t, "report": _dilatation(emap, nx, ny, near[2], h_near),
            "injectivity": _injectivity(emap, fx, fy, far[2], h_far)})
    best = min(results,
               key=lambda r: max(abs(r["report"].dil_max - 1.0),
                                 abs(1.0 - r["report"].dil_min)))
    return results, best


EXPORT_ROWS = 512


def export_embedding(emap, path):
    """The map at an even stride through the canonical sample: at most
    EXPORT_ROWS rows spread over the whole manifold.  The ``point`` column
    is the sample index, which is the vertex id on a mesh."""
    P = emap.manifold.sample_points()
    stride = math.ceil(len(P) / EXPORT_ROWS)
    image = evaluate_map(emap, P[::stride])
    header = ["point"] + [f"coord_{i + 1}" for i in range(image.shape[1])]
    rows = [[i] + row for i, row in zip(range(0, len(P), stride),
                                        image.tolist())]
    reporting.write_csv(path, header, rows)
