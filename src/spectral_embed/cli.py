"""Batch front-end: config parsing, subcommand dispatch, report generation.

Config files are flat ``key = value`` text with ``#`` comments and dotted
section keys.  Exit codes: 0 all checks pass, 1 assertion failure,
2 usage or config error.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import reporting
from .manifold import (Circle, FlatTorus, Sphere, TriMesh, load_mesh,
                       make_sphere, make_torus_mesh, MeshError)
from .spectrum import (GeometryBounds, compute_spectrum, eigen_growth_check,
                       truncation_index, export_spectrum, EigensolverError,
                       TruncationError)
from .heat import (HeatEvaluator, decay_check, varadhan_check,
                   varadhan_time_grid, export_decay, export_varadhan)
from .embed import (MAP_KINDS, build_net, make_map, evaluate_map,
                    image_distance, dilatation_report, injectivity_report,
                    scan_embedding, default_h_near, default_h_far,
                    export_embedding)
from . import charts as charts_mod
from .radius import constants_sweep


# The most float64 values one array can hold.  Above it numpy cannot even
# state the byte size and raises ValueError, not MemoryError, so size keys
# are capped here and anything below reaches the out-of-memory exit.
MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


class ConfigError(ValueError):
    pass


class RunConfig:
    """Flat dotted-key configuration with round-trip serialization."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

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

    def dump(self):
        lines = [f"{k} = {v}" for k, v in sorted(self.entries.items())]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.entries == other.entries

    # typed getters -----------------------------------------------------------

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def get_float(self, key, default=None):
        raw = self.entries.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing config key {key}")
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad float for {key}: {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"non-finite value for {key}: {raw!r}")
        return value

    def get_int(self, key, default=None):
        raw = self.entries.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing config key {key}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad int for {key}: {raw!r}") from exc

    def get_floats(self, key, default=None):
        raw = self.entries.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing config key {key}")
            return list(default)
        try:
            values = [float(x) for x in raw.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad float list for {key}: {raw!r}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"non-finite value in {key}: {raw!r}")
        return values

    def report_entries(self):
        return {f"config_{k.replace('.', '_')}": v
                for k, v in sorted(self.entries.items())}


def build_manifold(cfg):
    kind = cfg.get("manifold.kind")
    if kind is None:
        raise ConfigError("missing config key manifold.kind")
    if kind == "mesh":
        path = cfg.get("manifold.path")
        if path is None:
            raise ConfigError("missing config key manifold.path")
        if not os.path.exists(path):
            raise ConfigError(f"missing input file {path}")
        return load_mesh(path)
    if kind == "icosphere":
        return make_sphere(cfg.get_float("manifold.radius", 1.0),
                           cfg.get_int("manifold.subdivisions", 4))
    if kind == "grid_torus":
        periods = cfg.get_floats("manifold.periods")
        divisions = [int(x) for x in
                     cfg.get_floats("manifold.divisions", [64, 64])]
        return make_torus_mesh(tuple(periods), tuple(divisions))
    if kind not in ("circle", "sphere", "torus"):
        raise ConfigError(f"unknown manifold.kind {kind!r}")
    samples = cfg.get_int("manifold.samples",
                          {"circle": 2048, "sphere": 2000, "torus": 4096}[kind])
    if samples < 1:
        raise ConfigError(f"manifold.samples must be positive, got {samples}")
    if kind == "circle":
        return Circle(cfg.get_float("manifold.length", 2 * math.pi),
                      samples=samples)
    if kind == "sphere":
        return Sphere(cfg.get_float("manifold.radius", 1.0), samples=samples)
    return FlatTorus(tuple(cfg.get_floats("manifold.periods")),
                     samples=samples)


def _check_count(cfg, manifold, default_count):
    """spectrum.count, which must lie below the sample size: a mesh has no
    more eigenpairs, and on a closed-form sample that many modes are
    linearly dependent."""
    count = cfg.get_int("spectrum.count", default_count)
    size = len(manifold.sample_points())
    if not 1 <= count < size:
        raise ConfigError(f"spectrum.count must lie in [1, {size}) for a "
                          f"sample of {size} points, got {count}")
    return count


def build_spectrum(cfg, manifold, default_count):
    """The first spectrum.count eigenpairs."""
    return compute_spectrum(manifold,
                            _check_count(cfg, manifold, default_count))


def build_bounds(cfg, manifold):
    dim = manifold.dim
    vol = manifold.volume
    return GeometryBounds(
        dim=dim,
        iota=cfg.get_float("bounds.iota", 1.0),
        volume=cfg.get_float("bounds.volume", vol),
        a=(cfg.get_float("bounds.a") if "bounds.a" in cfg.entries else None),
        C=(cfg.get_float("bounds.c") if "bounds.c" in cfg.entries else None),
        r_h=(cfg.get_float("bounds.r_h")
             if "bounds.r_h" in cfg.entries else None),
    )


def _write_summary(outdir, name, cfg, entries):
    payload = dict(entries)
    payload.update(cfg.report_entries())
    reporting.write_report(os.path.join(outdir, name), payload)


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
        "volume": spec.volume,
    })
    return True


def cmd_constants(cfg, outdir, seed, scan):
    n = cfg.get_int("constants.n", 2)
    lam = cfg.get_float("constants.lambda", 1.0)
    iota = cfg.get_float("constants.iota", 1.0)
    r_min = cfg.get_float("constants.r_min", iota / 6400.0)
    r_max = cfg.get_float("constants.r_max", iota / 64.0 * 0.999)
    steps = cfg.get_int("constants.steps", 32)
    radii = np.geomspace(r_min, r_max, steps)
    rows = constants_sweep(n, lam, iota, radii)
    reporting.write_csv(os.path.join(outdir, "constants.csv"),
                        ["n", "Lambda", "iota", "r", "volratio", "c", "F",
                         "C", "cond_dist", "cond_harm"], rows)
    _write_summary(outdir, "constants_report.txt", cfg, {
        "rows": len(rows),
        "cond_dist_satisfied": sum(r[8] for r in rows),
        "cond_harm_satisfied": sum(r[9] for r in rows),
    })
    return True


def cmd_charts(cfg, outdir, seed, scan):
    nodes = cfg.get_floats("charts.nodes", [41, 81, 161])
    if len(nodes) < 2 or not all(v == int(v) and 3 <= v <= MAX_FLOATS
                                 for v in nodes):
        raise ConfigError(f"charts.nodes must list at least 2 integers in "
                          f"[3, {MAX_FLOATS}], got {nodes}")
    nodes = [int(v) for v in nodes]
    t_max = cfg.get_float("charts.t_max", 0.25)
    steps = cfg.get_int("charts.steps", 1024)
    qs = cfg.get_floats("charts.q_list", [0.02, 0.04, 0.08])
    sweep_nodes = cfg.get_int("charts.sweep_nodes", 401)
    sweep_steps = cfg.get_int("charts.sweep_steps", 512)
    bump_width = cfg.get_float("charts.bump_width", 2.0)
    if not 3 <= sweep_nodes <= MAX_FLOATS:
        raise ConfigError(f"charts.sweep_nodes must lie in [3, {MAX_FLOATS}]"
                          f", got {sweep_nodes}")
    for key, value in (("charts.steps", steps),
                       ("charts.sweep_steps", sweep_steps)):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    for key, value in (("charts.t_max", t_max),
                       ("charts.bump_width", bump_width)):
        if value <= 0:
            raise ConfigError(f"{key} must be positive, got {value!r}")
    if t_max / steps == 0:
        raise ConfigError(f"charts.t_max = {t_max!r} over charts.steps = "
                          f"{steps} gives a time step of 0")
    # the sweep fits a log-log slope through the Q - 1 values, and each
    # must leave Q = 1 + (Q - 1) above 1
    if len(set(qs)) < 2 or 1.0 + min(qs) <= 1.0:
        raise ConfigError(f"charts.q_list must list at least 2 distinct "
                          f"values Q - 1 with 1 < Q, got {qs}")

    errors, ratios = charts_mod.convergence_study(nodes, t_max=t_max,
                                                  steps=steps)
    reference = charts_mod.solve_fd_kernel(
        charts_mod.identity_chart(1), 6.0, nodes[-1], 0.0, t_max,
        steps=steps, store_every=max(1, steps // 8))
    charts_mod.export_grid_kernel(reference,
                                  os.path.join(outdir, "kernel.csv"))
    sups, grads, slope = charts_mod.ellipticity_sweep(
        qs, nodes=sweep_nodes, steps=sweep_steps, bump_width=bump_width)

    ratio_lo = cfg.get_float("charts.ratio_lo", 3.0)
    ratio_hi = cfg.get_float("charts.ratio_hi", 5.0)
    slope_lo = cfg.get_float("charts.slope_lo", 0.7)
    slope_hi = cfg.get_float("charts.slope_hi", 1.3)
    ratios_ok = all(ratio_lo <= r <= ratio_hi for r in ratios)
    slope_ok = slope_lo <= slope <= slope_hi

    entries = {"slope": slope, "ratios_ok": ratios_ok, "slope_ok": slope_ok}
    for i, e in enumerate(errors):
        entries[f"conv_error_{i}"] = e
    for i, r in enumerate(ratios):
        entries[f"conv_ratio_{i}"] = r
    for q, s, g in zip(qs, sups, grads):
        # 0.02 -> q0p02, 1e-05 -> q1em05, 1e+300 -> q1e300
        label = str(q).replace(".", "p").replace("-", "m").replace("+", "")
        entries[f"sweep_sup_q{label}"] = s
        entries[f"sweep_grad_q{label}"] = g
    _write_summary(outdir, "charts_report.txt", cfg, entries)
    return ratios_ok and slope_ok


def _check_pairs(cfg, default):
    """embed.pairs, which must be at least 1 and small enough that its
    (pairs, 2) float point arrays have a byte size numpy can describe."""
    count = cfg.get_int("embed.pairs", default)
    if count < 1:
        raise ConfigError("embed.pairs must be at least 1")
    if count > MAX_FLOATS // 2:
        raise ConfigError(f"embed.pairs must be at most {MAX_FLOATS // 2}, "
                          f"got {count}")
    return count


def _embedding_setup(cfg, seed):
    kind = cfg.get("embed.map", "H")
    if kind not in MAP_KINDS:
        raise ConfigError(f"unknown embed.map {kind!r}; expected one of "
                          f"{list(MAP_KINDS)}")
    delta = None
    if kind in ("G", "H", "kuratowski"):
        delta = cfg.get_float("embed.delta")
        if delta <= 0:
            raise ConfigError(f"embed.delta must be positive, got {delta!r}")
    levels = cfg.get_int("embed.levels", 8)
    if levels < 1:
        raise ConfigError("embed.levels must be at least 1")
    t_max = cfg.get_float("embed.t_max", 1.0)
    if t_max <= 0:
        raise ConfigError(f"embed.t_max must be positive, got {t_max!r}")
    if t_max * 2.0 ** (1 - levels) == 0:
        raise ConfigError(f"embed.levels = {levels} halves embed.t_max "
                          "to 0")
    _check_pairs(cfg, 400)
    count = cfg.get_int("spectrum.count", 64)
    n_trunc = cfg.get_int("embed.n", count - 1)
    if not 0 <= n_trunc < count:
        raise ConfigError(f"embed.n must lie in [0, spectrum.count = {count}),"
                          f" got {n_trunc}")
    man = build_manifold(cfg)
    if delta is not None and delta < man.resolution():
        raise ConfigError(f"embed.delta = {delta!r} is below the sample "
                          f"resolution {man.resolution()!r}")
    _check_count(cfg, man, 64)
    # the kuratowski map reads distances only: no spectrum to solve
    ev = (None if kind == "kuratowski"
          else HeatEvaluator(compute_spectrum(man, count), n_trunc))
    net = build_net(man, delta) if delta is not None else None
    if net is not None and kind != "kuratowski":
        # only the kuratowski map reads the net's distance fields
        net = dataclasses.replace(net, fields=None)
    eigencount = cfg.get_int("embed.eigencount", 3) if kind == "F" else None
    return man, ev, net, kind, eigencount, n_trunc


def cmd_embed(cfg, outdir, seed, scan):
    man, ev, net, kind, eigencount, n_trunc = _embedding_setup(cfg, seed)
    h_near = cfg.get_float("embed.h_near", default_h_near(man))
    h_far = cfg.get_float("embed.h_far", default_h_far(man))
    count = cfg.get_int("embed.pairs", 400)

    if scan or "embed.t" not in cfg.entries:
        results, best = scan_embedding(
            kind, evaluator=ev, net=net, manifold=man, eigencount=eigencount,
            t_max=cfg.get_float("embed.t_max", 1.0),
            levels=cfg.get_int("embed.levels", 8),
            h_near=h_near, h_far=h_far, count=count, seed=seed)
        rows = [(r["t"], r["report"].dil_min, r["report"].dil_max,
                 r["injectivity"]["margin"]) for r in results]
        reporting.write_csv(os.path.join(outdir, "scan.csv"),
                            ["t", "dil_min", "dil_max", "inj_margin"], rows)
        t = best["t"]
        rep, inj = best["report"], best["injectivity"]
    else:
        t = cfg.get_float("embed.t")
        emap = make_map(kind, evaluator=ev, net=net, manifold=man, t=t,
                        eigencount=eigencount)
        rep = dilatation_report(emap, man, h_near, count=count, seed=seed)
        inj = injectivity_report(emap, man, h_far, count=count, seed=seed)

    emap = make_map(kind, evaluator=ev, net=net, manifold=man, t=t,
                    eigencount=eigencount)
    export_embedding(emap, os.path.join(outdir, "embedding.csv"))
    reporting.write_csv(os.path.join(outdir, "ratios.csv"),
                        ["pair", "ratio"], enumerate(rep.ratios.tolist()))

    entries = dict(rep.summary())
    entries.update({"inj_margin": inj["margin"], "far_pairs": inj["pairs"],
                    "h_far": inj["h_far"],
                    "t_used": t, "delta": net.delta if net else "none",
                    "n_trunc": n_trunc,
                    "n_0": len(net) if net else 0})
    _write_summary(outdir, "embed_report.txt", cfg, entries)

    ok = True
    if "embed.band_lo" in cfg.entries:
        lo = cfg.get_float("embed.band_lo")
        hi = cfg.get_float("embed.band_hi")
        ok = rep.dil_min >= lo and rep.dil_max <= hi
    return ok


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
    spec = build_spectrum(cfg, man, 700)
    ev = HeatEvaluator(spec, spec.count - 1)
    bounds = build_bounds(cfg, man)
    distances = cfg.get_floats("verify.distances", [0.5, 1.0, math.pi])
    pairs = _pairs_at_distances(man, distances)
    grids = [varadhan_time_grid(d) for d in distances]
    rep = varadhan_check(ev, pairs, grids, bounds=bounds)
    export_varadhan(rep, os.path.join(outdir, "varadhan.csv"))
    tol = cfg.get_float("verify.tolerance", 0.05)
    ok = rep.max_rel_error() <= tol
    _write_summary(outdir, "varadhan_report.txt", cfg, {
        "max_rel_error": rep.max_rel_error(), "tolerance": tol, "pass": ok})
    return ok


def verify_isometry(cfg, outdir, seed):
    # near-isometry is a hard check here: default band [0.85, 1.15]
    cfg = RunConfig(dict(cfg.entries))
    cfg.entries.setdefault("embed.band_lo", "0.85")
    cfg.entries.setdefault("embed.band_hi", "1.15")
    return cmd_embed(cfg, outdir, seed, scan=True)


def verify_injectivity(cfg, outdir, seed):
    man, ev, net, kind, eigencount, _ = _embedding_setup(cfg, seed)
    t = cfg.get_float("embed.t", 0.05)
    emap = make_map(kind, evaluator=ev, net=net, manifold=man, t=t,
                    eigencount=eigencount)
    h_far = cfg.get_float("embed.h_far", default_h_far(man))
    inj = injectivity_report(emap, man, h_far,
                             count=cfg.get_int("embed.pairs", 400), seed=seed)
    ok = inj["margin"] > 0
    _write_summary(outdir, "injectivity_report.txt", cfg, {
        "inj_margin": inj["margin"], "far_pairs": inj["pairs"],
        "h_far": h_far, "t": t, "pass": ok})
    return ok


def verify_truncation(cfg, outdir, seed):
    man = build_manifold(cfg)
    spec = build_spectrum(cfg, man, 200)
    bounds = build_bounds(cfg, man)
    rng = np.random.default_rng(seed)
    samples = cfg.get_int("verify.samples", 20)
    P = man.sample_points()[:256]
    basis_vals = spec.values(P)
    ok = True
    rows = []
    for _ in range(samples):
        t = float(rng.uniform(0.3, 2.0))
        eps = float(10.0 ** rng.uniform(-8, -3))
        try:
            n0 = truncation_index(spec, t, eps, bounds)
        except TruncationError:
            ok = False
            continue
        w = np.exp(-spec.eigenvalues * t)
        full = (basis_vals * w) @ basis_vals.T
        brute = spec.count - 1
        for n in range(spec.count - 1):
            part = (basis_vals[:, :n + 1] * w[:n + 1]) @ basis_vals[:, :n + 1].T
            if np.abs(part - full).max() < eps:
                brute = n
                break
        rows.append((t, eps, n0, brute))
        if n0 < brute:
            ok = False
    reporting.write_csv(os.path.join(outdir, "truncation.csv"),
                        ["t", "eps", "bound_n", "brute_n"], rows)
    _write_summary(outdir, "truncation_report.txt", cfg, {
        "samples": len(rows), "pass": ok})
    return ok


def verify_counterexample(cfg, outdir, seed):
    man = build_manifold(cfg)
    if not (isinstance(man, FlatTorus) and man.dim == 2):
        raise ConfigError("counterexample verification needs a 2-D flat torus")
    m = _check_pairs(cfg, 32)
    gap = cfg.get_float("verify.gap", 100.0)
    spec = build_spectrum(cfg, man, 40)
    ev = HeatEvaluator(spec, spec.count - 1)
    below = int(np.sum(spec.eigenvalues < gap - 1e-9)) - 1
    upto = int(np.sum(spec.eigenvalues <= gap + 1e-9)) - 1
    t = cfg.get_float("embed.t", 0.01)
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0, man.periods[0], m)
    x2 = rng.uniform(0, man.periods[1], m)
    a_pts = np.column_stack([x1, x2])
    b_pts = np.column_stack([x1, (x2 + man.periods[1] / 2) % man.periods[1]])
    f_lo = make_map("F", evaluator=ev, eigencount=below, t=t)
    f_hi = make_map("F", evaluator=ev, eigencount=upto, t=t)
    m_lo = float(image_distance(
        f_lo, evaluate_map(f_lo, a_pts), evaluate_map(f_lo, b_pts)).min())
    m_hi = float(image_distance(
        f_hi, evaluate_map(f_hi, a_pts), evaluate_map(f_hi, b_pts)).min())
    sep = float(man.distance(a_pts, b_pts).min())
    ok = (m_lo <= 1e-8) and (m_hi > 1e-3) and sep >= man.periods[1] / 2 - 1e-9
    _write_summary(outdir, "counterexample_report.txt", cfg, {
        "margin_below_gap": m_lo, "margin_with_gap": m_hi,
        "modes_below_gap": below, "modes_with_gap": upto,
        "fiber_separation": sep, "pass": ok})
    return ok


def verify_decay(cfg, outdir, seed):
    man = build_manifold(cfg)
    spec = build_spectrum(cfg, man, 200)
    ev = HeatEvaluator(spec, spec.count - 1)
    bounds = build_bounds(cfg, man)
    pairs = _pairs_at_distances(
        man, cfg.get_floats("verify.distances", [0.5, math.pi]))
    ts = cfg.get_floats("heat.t_grid", [0.01, 0.05, 0.1, 0.5, 1.0])
    rep = decay_check(ev, bounds, pairs, ts,
                      grad_const=(cfg.get_float("bounds.d")
                                  if "bounds.d" in cfg.entries else None))
    export_decay(rep, os.path.join(outdir, "decay.csv"),
                 os.path.join(outdir, "decay_gradient.csv"))
    ok = rep.all_pass()
    _write_summary(outdir, "decay_report.txt", cfg,
                   dict(rep.constants, pass_flag=ok))
    return ok


def verify_growth(cfg, outdir, seed):
    man = build_manifold(cfg)
    spec = build_spectrum(cfg, man, 64)
    bounds = build_bounds(cfg, man)
    rep = eigen_growth_check(spec, bounds)
    rows = [(int(k), lam, b, "yes" if a else "no",
             "pass" if (p or not a) else "fail")
            for k, lam, b, a, p in zip(rep.ks, rep.eigenvalues,
                                       rep.bound_values, rep.applicable,
                                       rep.passed)]
    reporting.write_csv(os.path.join(outdir, "growth.csv"),
                        ["k", "lambda", "bound", "applicable", "flag"], rows)
    ok = rep.all_pass()
    _write_summary(outdir, "growth_report.txt", cfg,
                   dict(rep.summary(), pass_flag=ok))
    return ok


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
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for verification-pair sampling")
    parser.add_argument("--scan", action="store_true",
                        help="scan a geometric t grid instead of a fixed t")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = RunConfig.load(args.config)
        outdir = args.out or cfg.get("out", "out")
        os.makedirs(outdir, exist_ok=True)
        if args.subcommand == "verify":
            if args.target not in VERIFY_TARGETS:
                print(f"unknown verify target {args.target!r}; expected one "
                      f"of {sorted(VERIFY_TARGETS)}", file=sys.stderr)
                return 2
            ok = VERIFY_TARGETS[args.target](cfg, outdir, args.seed)
        elif args.subcommand in COMMANDS:
            ok = COMMANDS[args.subcommand](cfg, outdir, args.seed, args.scan)
        else:
            print(f"unknown subcommand {args.subcommand!r}; expected one of "
                  f"{sorted(COMMANDS) + ['verify']}", file=sys.stderr)
            return 2
    except (ConfigError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the config needs more memory than is available: "
              f"{exc}", file=sys.stderr)
        return 2
    except (ValueError, EigensolverError, charts_mod.StabilityError,
            charts_mod.QuadratureBudgetError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
