"""Batch front-end: config parsing, subcommand dispatch, report generation.

Config files are flat ``key = value`` text with ``#`` comments and dotted
section keys, each listed in ``KEYS``.  Exit codes: 0 all checks pass, 1
assertion failure, 2 usage or config error.
"""

import argparse
import functools
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import reporting
from .manifold import (Circle, FlatTorus, Sphere, TriMesh, load_mesh,
                       make_sphere, make_torus_mesh, MeshError)
from .spectrum import (GeometryBounds, compute_spectrum, eigen_growth_check,
                       truncation_index, export_spectrum, EigensolverError,
                       TruncationError)
from .heat import (HeatEvaluator, decay_check, unbounded_decay_time,
                   varadhan_check, varadhan_time_grid, export_decay,
                   export_varadhan)
from .embed import (MAP_KINDS, build_net, make_map, evaluate_map,
                    image_distance, dilatation_report, injectivity_report,
                    scan_embedding, default_h_near, default_h_far,
                    export_embedding)
from . import charts as charts_mod
from .radius import constants_sweep, model_volumes


# The most float64 values one array can hold.  Above it numpy raises
# ValueError, not MemoryError, so size keys are capped at or below it.
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

# The certified truncation tail sums one term per index up to the growth
# threshold: 2^20 indices take about 0.07 s and 60 MiB per evaluation.
MAX_TAIL_WINDOW = 2 ** 20


class ConfigError(ValueError):
    pass


class CheckFailed(Exception):
    """A run's hard check did not pass; its outputs and report are written,
    and the message names the report and the flag or value that failed."""


class Given(str):
    """A default that is not one fixed value: the text says what it is."""


REQUIRED = Given("required")
PER_SUBCOMMAND = Given("per subcommand")


class Key(NamedTuple):
    """`type` is float, int, floats or ints (comma lists of at least `least`
    entries), choice (one of `valid`, split by " | ") or path.  `valid` is
    "any", "> 0", ">= k" or "[lo, hi]"; `cap` bounds the cost of a run."""
    type: str
    default: object
    valid: str = "any"
    cap: int = None
    least: int = 1


# Every key the CLI reads; main checks a whole config against it first.
# Caps, on a 2-vCPU Xeon: an icosphere-7 builds in 0.3 s (151 MiB), a
# 1024^2 grid torus in 1.4 s (481 MiB), 10^4 constants rows take 0.4 s.
KEYS = {
    "out": Key("path", "out"),
    "seed": Key("int", 0, ">= 0"),
    "manifold.kind": Key("choice", REQUIRED, "mesh | icosphere | grid_torus"
                         " | circle | sphere | torus"),
    "manifold.path": Key("path", REQUIRED),
    "manifold.radius": Key("float", 1.0, "> 0"),
    "manifold.length": Key("float", 2 * math.pi, "> 0"),
    "manifold.periods": Key("floats", REQUIRED, "> 0"),
    "manifold.subdivisions": Key("int", 4, ">= 0", cap=7),
    "manifold.divisions": Key("ints", (64, 64), ">= 3", cap=1024),
    "manifold.samples": Key("int", Given("per backend"), "> 0"),
    "spectrum.count": Key("int", PER_SUBCOMMAND, f"[1, {MAX_FLOATS}]"),
    "bounds.iota": Key("float", 1.0, "> 0"),
    "bounds.volume": Key("float", Given("manifold volume"), "> 0"),
    "bounds.a": Key("float", Given("n * omega_n^(2/n)"), "> 0"),
    "bounds.c": Key("float", Given("2^n"), "> 0"),
    "bounds.d": Key("float", Given("2^n"), "> 0"),
    "bounds.r_h": Key("float", REQUIRED, "> 0"),
    "heat.t_grid": Key("floats", (0.01, 0.05, 0.1, 0.5, 1.0), "> 0"),
    "embed.map": Key("choice", "H", " | ".join(MAP_KINDS)),
    "embed.delta": Key("float", REQUIRED, "> 0"),
    "embed.t": Key("float", PER_SUBCOMMAND, "> 0"),
    "embed.t_max": Key("float", 1.0, "> 0"),
    "embed.levels": Key("int", 8, ">= 1"),
    "embed.pairs": Key("int", PER_SUBCOMMAND, ">= 1", cap=MAX_FLOATS // 2),
    "embed.n": Key("int", Given("spectrum.count - 1"), ">= 0"),
    "embed.eigencount": Key("int", 3, ">= 1"),
    "embed.h_near": Key("float", Given("4 * resolution"), "> 0"),
    "embed.h_far": Key("float", Given("diameter / 8"), "> 0"),
    "embed.band_lo": Key("float", PER_SUBCOMMAND),
    "embed.band_hi": Key("float", PER_SUBCOMMAND),
    "verify.distances": Key("floats", PER_SUBCOMMAND, ">= 0"),
    "verify.tolerance": Key("float", 0.05, ">= 0"),
    "verify.samples": Key("int", 20, ">= 1"),
    "verify.gap": Key("float", 100.0, "> 0"),
    "constants.n": Key("int", 2, ">= 1"),
    "constants.lambda": Key("float", 1.0, "> 0"),
    "constants.iota": Key("float", 1.0, "> 0"),
    "constants.r_min": Key("float", Given("iota / 6400"), "> 0"),
    "constants.r_max": Key("float", Given("iota / 64 * 0.999"), "> 0"),
    "constants.steps": Key("int", 32, ">= 1", cap=10_000),
    "charts.nodes": Key("ints", (41, 81, 161), f"[3, {MAX_FLOATS}]", least=2),
    "charts.t_max": Key("float", 0.25, "> 0"),
    "charts.steps": Key("int", 1024, ">= 1"),
    "charts.q_list": Key("floats", (0.02, 0.04, 0.08), "> 0", least=2),
    "charts.sweep_nodes": Key("int", 401, f"[3, {MAX_FLOATS}]"),
    "charts.sweep_steps": Key("int", 512, ">= 1"),
    "charts.bump_width": Key("float", 2.0, "> 0"),
    "charts.ratio_lo": Key("float", 3.0),
    "charts.ratio_hi": Key("float", 5.0),
    "charts.slope_lo": Key("float", 0.7),
    "charts.slope_hi": Key("float", 1.3),
}


def _violation(value, key):
    """How `value` misses the range or cap of `key`, or None."""
    op, _, bound = key.valid.partition(" ")
    if key.valid == "> 0" and not value > 0:
        return "be positive"
    if op == ">=" and not value >= float(bound):
        return f"be at least {bound}"
    if op[:1] == "[" and not int(op[1:-1]) <= value <= int(bound[:-1]):
        return f"lie in {key.valid}"
    if key.cap is not None and value > key.cap:
        return f"be at most {key.cap}"
    return None


def parse_value(name, raw):
    """The text `raw` of key `name` as the key's type, range-checked."""
    key = KEYS.get(name)
    if key is None:
        raise ConfigError(f"unknown config key {name!r}")
    if key.type == "choice" and raw not in key.valid.split(" | "):
        raise ConfigError(f"unknown {name} {raw!r}; expected one of "
                          f"{key.valid.split(' | ')}")
    if key.type in ("choice", "path"):
        return raw
    number = float if key.type.startswith("float") else int
    listed = key.type.endswith("s")
    try:
        values = [number(x) for x in (
            [x for x in raw.split(",") if x.strip()] if listed else [raw])]
    except ValueError:
        if not listed:
            raise ConfigError(f"bad {key.type} for {name}: {raw!r}") from None
        values = []
    if number is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"non-finite value in {name}: {raw!r}")
    problems = [p for p in (_violation(v, key) for v in values) if p]
    if listed and (problems or len(values) < key.least):
        each = f"; each must {problems[0]}" if problems else ""
        raise ConfigError(f"{name} must list at least {key.least} "
                          f"{'integer' if number is int else 'number'}"
                          f"{'s' * (key.least > 1)}{each}, got {raw!r}")
    if problems:
        raise ConfigError(f"{name} must {problems[0]}, got {raw!r}")
    return values if listed else values[0]


class RunConfig:
    """Flat dotted-key configuration."""

    def __init__(self, entries):
        self.entries = dict(entries)

    @classmethod
    def parse(cls, text, origin="<config>"):
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{origin}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{origin}:{lineno}: empty key")
            entries[key] = value.strip()
        return cls(entries)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                return cls.parse(fh.read(), origin=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.entries == other.entries

    def value(self, name, default=...):
        """The checked value of `name`, else `default`, else the table's."""
        if name in self.entries:
            return parse_value(name, self.entries[name])
        default = KEYS[name].default if default is ... else default
        if isinstance(default, Given):
            raise ConfigError(f"missing config key {name}")
        return list(default) if isinstance(default, tuple) else default

    def report_entries(self):
        return {f"config_{k.replace('.', '_')}": v
                for k, v in sorted(self.entries.items())}


def build_manifold(cfg):
    kind = cfg.value("manifold.kind")
    if kind == "mesh":
        path = cfg.value("manifold.path")
        try:
            return load_mesh(path)
        except FileNotFoundError as exc:
            raise ConfigError(f"missing input file {path}") from exc
        except OSError as exc:  # a directory, or a path under a file
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    if kind == "grid_torus":
        periods = cfg.value("manifold.periods")
        divisions = cfg.value("manifold.divisions")
        if len(periods) != 2 or len(divisions) != 2:
            raise ConfigError(f"a grid_torus needs 2 manifold.periods and 2 "
                              f"manifold.divisions, got {periods} and "
                              f"{divisions}")
        return make_torus_mesh(tuple(periods), tuple(divisions))
    samples = cfg.value("manifold.samples", None)
    sized = {} if samples is None else {"samples": samples}
    try:
        if kind == "icosphere":
            return make_sphere(cfg.value("manifold.radius"),
                               cfg.value("manifold.subdivisions"))
        if kind == "circle":
            man = Circle(cfg.value("manifold.length"), **sized)
        elif kind == "sphere":
            man = Sphere(cfg.value("manifold.radius"), **sized)
        else:
            man = FlatTorus(tuple(cfg.value("manifold.periods")), **sized)
        man.sample_points()
        return man
    except (ConfigError, MeshError):
        raise
    except ValueError as exc:
        # a size at the edge of the double range overflows the sphere's
        # area or the closed-form sample grid
        key = {"circle": "manifold.length",
               "torus": "manifold.periods"}.get(kind, "manifold.radius")
        raise ConfigError(f"{key}: {exc}") from exc


def _check_count(count, manifold):
    """spectrum.count below the sample size: a mesh has no more eigenpairs,
    and on a closed-form sample that many modes are linearly dependent."""
    size = len(manifold.sample_points())
    if count >= size:
        raise ConfigError(f"spectrum.count must lie in [1, {size}) for a "
                          f"sample of {size} points, got {count}")
    return count


def build_spectrum(cfg, manifold, default_count):
    return compute_spectrum(manifold, _check_count(
        cfg.value("spectrum.count", default_count), manifold))


def build_bounds(cfg, manifold):
    return GeometryBounds(
        dim=manifold.dim, iota=cfg.value("bounds.iota"),
        volume=cfg.value("bounds.volume", manifold.volume),
        a=cfg.value("bounds.a", None), C=cfg.value("bounds.c", None),
        r_h=cfg.value("bounds.r_h"))


def _check_growth_threshold(bounds, window=math.inf):
    """The growth threshold must be a finite double, and at most `window`
    where a truncation tail sums every index up to it."""
    try:
        threshold = bounds.growth_threshold()
    except ArithmeticError:  # a^(n/2) or r_h^n past the doubles
        threshold = math.inf
    if threshold == math.inf:  # also when C V overflows
        where = "outside the double range"
    elif threshold > window:
        where = (f"at {threshold!r}, past the {window} indices the "
                 f"truncation tail sums")
    else:
        return
    raise ConfigError(
        f"bounds.c = {bounds.C!r}, bounds.volume = {bounds.volume!r}, "
        f"bounds.a = {bounds.a!r} and bounds.r_h = {bounds.r_h!r} put the "
        f"growth threshold C V e^(n/2) / (a^(n/2) r_h^n) {where}")


def _write_summary(outdir, name, cfg, entries):
    reporting.write_report(os.path.join(outdir, name),
                           {**entries, **cfg.report_entries()})


def _write_checked(outdir, name, cfg, entries, *keys, detail=""):
    """Write the report, then fail the run if one of its flags `keys` is
    false, naming the report and the flags."""
    _write_summary(outdir, name, cfg, entries)
    failed = [f"{key}=0" for key in keys if not entries[key]]
    if failed:
        raise CheckFailed(f"{name} has {' and '.join(failed)}{detail}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg, outdir, seed, scan):
    man = build_manifold(cfg)
    spec = build_spectrum(cfg, man, 16)
    export_spectrum(spec, os.path.join(outdir, "spectrum"))
    _write_summary(outdir, "spectrum_report.txt", cfg, {
        "count": spec.count,
        "lambda_max": float(spec.eigenvalues[-1]),
        "lambda_next": spec.next_eigenvalue,
        "multiplet_split": int(spec.multiplet_split),
        "volume": spec.volume,
    })


def cmd_constants(cfg, outdir, seed, scan):
    iota = cfg.value("constants.iota")
    r_min = cfg.value("constants.r_min", iota / 6400.0)
    r_max = cfg.value("constants.r_max", iota / 64.0 * 0.999)
    if r_min > r_max:
        raise ConfigError(f"constants.r_min = {r_min!r} exceeds "
                          f"constants.r_max = {r_max!r}")
    n, lam = cfg.value("constants.n"), cfg.value("constants.lambda")
    # every row divides by the unit-curvature model ball of radius lam r,
    # the least at lam r_min; below the normal doubles it has lost digits
    if model_volumes(n, 1.0, lam * r_min)[0] < sys.float_info.min:
        raise ConfigError(f"constants.n = {n} puts the model ball of radius "
                          f"constants.r_min = {r_min!r} (constants.lambda = "
                          f"{lam!r}) below the normal double range")
    # and the Holder constant C grows with r: at r_max it must stay finite
    try:
        top = constants_sweep(n, lam, iota, [r_max])[0][7]
    except OverflowError:  # math.sinh or a power past the largest double
        top = math.inf
    if not top < math.inf:
        raise ConfigError(f"constants.lambda = {lam!r} and constants.r_max = "
                          f"{r_max!r} (constants.n = {n}) put the Holder "
                          f"constant past the largest double")
    radii = np.geomspace(r_min, r_max, cfg.value("constants.steps"))
    rows = constants_sweep(n, lam, iota, radii)
    reporting.write_csv(os.path.join(outdir, "constants.csv"),
                        ["n", "Lambda", "iota", "r", "volratio", "c", "F",
                         "C", "cond_dist", "cond_harm"], rows)
    _write_summary(outdir, "constants_report.txt", cfg, {
        "rows": len(rows), "cond_dist_satisfied": sum(r[8] for r in rows),
        "cond_harm_satisfied": sum(r[9] for r in rows)})


def cmd_charts(cfg, outdir, seed, scan):
    nodes = cfg.value("charts.nodes")
    t_max = cfg.value("charts.t_max")
    steps = cfg.value("charts.steps")
    qs = cfg.value("charts.q_list")
    if t_max / steps == 0:
        raise ConfigError(f"charts.t_max = {t_max!r} over charts.steps = "
                          f"{steps} gives a time step of 0")
    # the sweep fits a log-log slope through the Q - 1 values, and each
    # must leave Q = 1 + (Q - 1) above 1
    if len(set(qs)) < 2 or 1.0 + min(qs) <= 1.0:
        raise ConfigError(f"charts.q_list must list at least 2 distinct "
                          f"values Q - 1 with 1 < Q, got {qs}")

    errors, ratios, finest = charts_mod.convergence_study(
        nodes, t_max=t_max, steps=steps)
    charts_mod.export_grid_kernel(finest, os.path.join(outdir, "kernel.csv"))
    sups, grads, slope = charts_mod.ellipticity_sweep(
        qs, nodes=cfg.value("charts.sweep_nodes"),
        steps=cfg.value("charts.sweep_steps"),
        bump_width=cfg.value("charts.bump_width"))

    ratios_ok = all(cfg.value("charts.ratio_lo") <= r
                    <= cfg.value("charts.ratio_hi") for r in ratios)
    slope_ok = (cfg.value("charts.slope_lo") <= slope
                <= cfg.value("charts.slope_hi"))

    entries = {"slope": slope, "ratios_ok": ratios_ok, "slope_ok": slope_ok}
    entries.update((f"conv_error_{i}", e) for i, e in enumerate(errors))
    entries.update((f"conv_ratio_{i}", r) for i, r in enumerate(ratios))
    for q, s, g in zip(qs, sups, grads):
        # 0.02 -> q0p02, 1e-05 -> q1em05, 1e+300 -> q1e300
        label = str(q).replace(".", "p").replace("-", "m").replace("+", "")
        entries[f"sweep_sup_q{label}"] = s
        entries[f"sweep_grad_q{label}"] = g
    _write_checked(outdir, "charts_report.txt", cfg, entries,
                   "ratios_ok", "slope_ok")


def _embedding_setup(cfg):
    kind = cfg.value("embed.map")
    delta = (cfg.value("embed.delta") if kind in ("G", "H", "kuratowski")
             else None)
    levels = cfg.value("embed.levels")
    if cfg.value("embed.t_max") * 2.0 ** (1 - levels) == 0:
        raise ConfigError(f"embed.levels = {levels} halves embed.t_max to 0")
    pairs = cfg.value("embed.pairs", 400)
    count = cfg.value("spectrum.count", 64)
    n_trunc = cfg.value("embed.n", count - 1)
    if n_trunc >= count:
        raise ConfigError(f"embed.n must lie in [0, spectrum.count = {count}),"
                          f" got {n_trunc}")
    eigencount = cfg.value("embed.eigencount") if kind == "F" else None
    if eigencount is not None and eigencount >= count:
        raise ConfigError(f"embed.eigencount must lie below spectrum.count = "
                          f"{count}, got {eigencount}")
    man = build_manifold(cfg)
    if delta is not None and delta < man.resolution():
        raise ConfigError(f"embed.delta = {delta!r} is below the sample "
                          f"resolution {man.resolution()!r}")
    _check_count(count, man)
    # the kuratowski map reads distances only: no spectrum to solve
    ev = (None if kind == "kuratowski"
          else HeatEvaluator(compute_spectrum(man, count), n_trunc))
    # only the kuratowski map reads the net's distance fields
    net = (None if delta is None
           else build_net(man, delta, fields=kind == "kuratowski"))
    return man, ev, net, kind, eigencount, n_trunc, pairs


def cmd_embed(cfg, outdir, seed, scan, band=(None, ...)):
    """Embed, scan or evaluate at one t, and check the dilatation band.

    `band` holds the defaults of embed.band_lo and embed.band_hi (``...``
    for the key table's); the band is checked when band_lo has a value.
    """
    man, ev, net, kind, eigencount, n_trunc, count = _embedding_setup(cfg)
    h_near = cfg.value("embed.h_near", default_h_near(man))
    h_far = cfg.value("embed.h_far", default_h_far(man))
    t = cfg.value("embed.t", None)

    best = None
    if scan or t is None:
        results, best = scan_embedding(
            kind, evaluator=ev, net=net, manifold=man, eigencount=eigencount,
            t_max=cfg.value("embed.t_max"), levels=cfg.value("embed.levels"),
            h_near=h_near, h_far=h_far, count=count, seed=seed)
        rows = [(r["t"], r["report"].dil_min, r["report"].dil_max,
                 r["injectivity"]["margin"]) for r in results]
        reporting.write_csv(os.path.join(outdir, "scan.csv"),
                            ["t", "dil_min", "dil_max", "inj_margin"], rows)
        t = best["t"]
    emap = make_map(kind, evaluator=ev, net=net, manifold=man, t=t,
                    eigencount=eigencount)
    if best is None:
        rep = dilatation_report(emap, man, h_near, count=count, seed=seed)
        inj = injectivity_report(emap, man, h_far, count=count, seed=seed)
    else:
        rep, inj = best["report"], best["injectivity"]
    export_embedding(emap, os.path.join(outdir, "embedding.csv"))
    reporting.write_csv(os.path.join(outdir, "ratios.csv"),
                        ["pair", "ratio"], enumerate(rep.ratios.tolist()))

    entries = dict(rep.summary())
    entries.update({"inj_margin": inj["margin"], "far_pairs": inj["pairs"],
                    "h_far": inj["h_far"], "t_used": t,
                    "delta": net.delta if net else "none",
                    "n_trunc": n_trunc, "n_0": len(net) if net else 0})
    _write_summary(outdir, "embed_report.txt", cfg, entries)
    # every near pair has one image, or images apart by less than the
    # normal doubles resolve: no embedding
    if rep.dil_max < np.finfo(float).tiny:
        raise ValueError(
            f"the map collapsed: dil_max = {rep.dil_max!r} at t = {t!r}")

    lo = cfg.value("embed.band_lo", band[0])
    if lo is None:
        return
    if not rep.dil_min >= lo:
        raise CheckFailed(f"embed_report.txt has dil_min="
                          f"{reporting.fmt(rep.dil_min)} below band_lo={lo!r}")
    hi = cfg.value("embed.band_hi", band[1])
    if not rep.dil_max <= hi:
        raise CheckFailed(f"embed_report.txt has dil_max="
                          f"{reporting.fmt(rep.dil_max)} above band_hi={hi!r}")


# -- verify targets ---------------------------------------------------------

def _pairs_at_distances(man, distances):
    """Point pairs at (approximately) the requested separations."""
    if isinstance(man, TriMesh):
        field = man.graph_distance_from(0)
        return [(0, int(np.argmin(np.abs(field - d)))) for d in distances]
    base = man.sample_points()[0]
    frame = man.tangent_frame(base)
    return [(base, man.exp(base, d * frame[0])[0]) for d in distances]


def verify_varadhan(cfg, outdir, seed):
    man = build_manifold(cfg)
    bounds = build_bounds(cfg, man)
    _check_growth_threshold(bounds, MAX_TAIL_WINDOW)
    spec = build_spectrum(cfg, man, 700)
    ev = HeatEvaluator(spec, spec.count - 1)
    distances = cfg.value("verify.distances", [0.5, 1.0, math.pi])
    pairs = _pairs_at_distances(man, distances)
    grids = [varadhan_time_grid(d) for d in distances]
    rep = varadhan_check(ev, pairs, grids, bounds=bounds)
    export_varadhan(rep, os.path.join(outdir, "varadhan.csv"))
    tol = cfg.value("verify.tolerance")
    ok = rep.max_rel_error() <= tol
    _write_checked(outdir, "varadhan_report.txt", cfg, {
        "max_rel_error": rep.max_rel_error(), "tolerance": tol, "pass": ok},
        "pass")


def verify_isometry(cfg, outdir, seed):
    # near-isometry is a hard check here: default band [0.85, 1.15]
    cmd_embed(cfg, outdir, seed, scan=True, band=(0.85, 1.15))


def verify_injectivity(cfg, outdir, seed):
    man, ev, net, kind, eigencount, _, pairs = _embedding_setup(cfg)
    t = cfg.value("embed.t", 0.05)
    emap = make_map(kind, evaluator=ev, net=net, manifold=man, t=t,
                    eigencount=eigencount)
    h_far = cfg.value("embed.h_far", default_h_far(man))
    inj = injectivity_report(emap, man, h_far, count=pairs, seed=seed)
    ok = inj["margin"] > 0
    _write_checked(outdir, "injectivity_report.txt", cfg, {
        "inj_margin": inj["margin"], "far_pairs": inj["pairs"],
        "h_far": h_far, "t": t, "pass": ok}, "pass")


def brute_truncation_index(values, weights, eps):
    """The least n < count - 1 at which the heat kernel on the points,
    truncated after mode n, is within `eps`, else count - 1.

    `values` holds phi_k(P_i), `weights` e^(-lambda_k t).  The error
    sum_{k>n} w_k phi_k phi_k^T is positive semidefinite, so its largest
    entry is on the diagonal (|A_ij| <= sqrt(A_ii A_jj)): one suffix sum
    of w_k phi_k(P_i)^2, with no cancellation, gives it for every n.
    """
    tails = np.cumsum(values[:, :0:-1] ** 2 * weights[:0:-1], axis=1)
    below = np.flatnonzero(tails.max(axis=0)[::-1] < eps)
    return int(below[0]) if below.size else len(weights) - 1


def verify_truncation(cfg, outdir, seed):
    man = build_manifold(cfg)
    bounds = build_bounds(cfg, man)
    _check_growth_threshold(bounds, MAX_TAIL_WINDOW)
    spec = build_spectrum(cfg, man, 200)
    rng = np.random.default_rng(seed)
    samples = cfg.value("verify.samples")
    P = man.sample_points()[:256]
    basis_vals = spec.values(P)
    rows, uncertified, short = [], 0, 0
    for _ in range(samples):
        t = float(rng.uniform(0.3, 2.0))
        eps = float(10.0 ** rng.uniform(-8, -3))
        brute = brute_truncation_index(
            basis_vals, np.exp(-spec.eigenvalues * t), eps)
        try:
            n0 = truncation_index(spec, t, eps, bounds)
        except TruncationError:
            uncertified += 1
            n0 = "uncertified"
        else:
            short += n0 < brute
        rows.append((t, eps, n0, brute))
    reporting.write_csv(os.path.join(outdir, "truncation.csv"),
                        ["t", "eps", "bound_n", "brute_n"], rows)
    _write_checked(outdir, "truncation_report.txt", cfg, {
        "samples": samples, "pass": not (uncertified or short)}, "pass",
        detail=f": {uncertified} of {samples} samples uncertified, {short} "
               f"with bound_n < brute_n")


def verify_counterexample(cfg, outdir, seed):
    man = build_manifold(cfg)
    if not (isinstance(man, FlatTorus) and man.dim == 2):
        raise ConfigError("counterexample verification needs a 2-D flat torus")
    m = cfg.value("embed.pairs", 32)
    gap = cfg.value("verify.gap")
    spec = build_spectrum(cfg, man, 40)
    ev = HeatEvaluator(spec, spec.count - 1)
    below = int(np.sum(spec.eigenvalues < gap - 1e-9)) - 1
    upto = int(np.sum(spec.eigenvalues <= gap + 1e-9)) - 1
    t = cfg.value("embed.t", 0.01)
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, man.periods[0], m)
    x2 = rng.uniform(0, man.periods[1], m)
    a_pts = np.column_stack([x1, x2])
    b_pts = np.column_stack([x1, (x2 + man.periods[1] / 2) % man.periods[1]])
    margins = []
    for eigencount in (below, upto):
        f = make_map("F", evaluator=ev, eigencount=eigencount, t=t)
        margins.append(float(image_distance(
            f, evaluate_map(f, a_pts), evaluate_map(f, b_pts)).min()))
    m_lo, m_hi = margins
    sep = float(man.distance(a_pts, b_pts).min())
    ok = (m_lo <= 1e-8) and (m_hi > 1e-3) and sep >= man.periods[1] / 2 - 1e-9
    _write_checked(outdir, "counterexample_report.txt", cfg, {
        "margin_below_gap": m_lo, "margin_with_gap": m_hi,
        "modes_below_gap": below, "modes_with_gap": upto,
        "fiber_separation": sep, "pass": ok}, "pass")


def verify_decay(cfg, outdir, seed):
    man = build_manifold(cfg)
    bounds = build_bounds(cfg, man)
    pairs = _pairs_at_distances(
        man, cfg.value("verify.distances", [0.5, math.pi]))
    ts = cfg.value("heat.t_grid")
    grad_const = cfg.value("bounds.d", 2.0 ** man.dim)
    t = unbounded_decay_time(man, bounds, pairs, ts, grad_const)
    if t is not None:
        raise ConfigError(f"heat.t_grid = {t!r} puts the decay bounds "
                          f"outside the double range")
    spec = build_spectrum(cfg, man, 200)
    ev = HeatEvaluator(spec, spec.count - 1)
    rep = decay_check(ev, bounds, pairs, ts, grad_const)
    export_decay(rep, os.path.join(outdir, "decay.csv"),
                 os.path.join(outdir, "decay_gradient.csv"))
    _write_checked(outdir, "decay_report.txt", cfg,
                   dict(rep.constants, pass_flag=rep.all_pass()), "pass_flag")


def verify_growth(cfg, outdir, seed):
    man = build_manifold(cfg)
    bounds = build_bounds(cfg, man)
    _check_growth_threshold(bounds)
    spec = build_spectrum(cfg, man, 64)
    rep = eigen_growth_check(spec, bounds)
    rows = [(int(k), lam, b, "yes" if a else "no",
             "pass" if (p or not a) else "fail")
            for k, lam, b, a, p in zip(rep.ks, rep.eigenvalues,
                                       rep.bound_values, rep.applicable,
                                       rep.passed)]
    reporting.write_csv(os.path.join(outdir, "growth.csv"),
                        ["k", "lambda", "bound", "applicable", "flag"], rows)
    _write_checked(outdir, "growth_report.txt", cfg,
                   dict(rep.summary(), pass_flag=rep.all_pass()), "pass_flag")


VERIFY_TARGETS = {
    "varadhan": verify_varadhan,
    "isometry": verify_isometry,
    "injectivity": verify_injectivity,
    "truncation": verify_truncation,
    "counterexample": verify_counterexample,
    "decay": verify_decay,
    "growth": verify_growth,
}

COMMANDS = {
    "spectrum": cmd_spectrum,
    "embed": cmd_embed,
    "constants": cmd_constants,
    "charts": cmd_charts,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spectral-embed",
        description="heat-kernel embedding toolkit batch runner")
    parser.add_argument("subcommand",
                        help="spectrum | embed | verify | constants | charts")
    parser.add_argument("target", nargs="?",
                        help="verification target for the verify subcommand")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for pair sampling (default: config seed)")
    parser.add_argument("--scan", action="store_true",
                        help="scan a geometric t grid instead of a fixed t")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.load(args.config)
        for name, raw in cfg.entries.items():  # read by the run or not
            parse_value(name, raw)
        seed = cfg.value("seed") if args.seed is None else args.seed
        outdir = args.out or cfg.value("out")
        if args.subcommand == "verify":
            if args.target not in VERIFY_TARGETS:
                raise ConfigError(f"unknown verify target {args.target!r}; "
                                  f"expected one of {sorted(VERIFY_TARGETS)}")
            run = VERIFY_TARGETS[args.target]
        elif args.subcommand in COMMANDS:
            run = functools.partial(COMMANDS[args.subcommand],
                                    scan=args.scan)
        else:
            raise ConfigError(f"unknown subcommand {args.subcommand!r}; "
                              f"expected one of {sorted(COMMANDS)} or verify")
        run(cfg, outdir, seed)  # each writer makes its directory
    except CheckFailed as exc:
        name = ("verify " + args.target if args.subcommand == "verify"
                else args.subcommand)
        print(f"check failed: {name}: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except reporting.WriteError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the config needs more memory than is available: "
              f"{exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, EigensolverError,
            charts_mod.StabilityError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
