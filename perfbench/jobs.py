"""Workload and job definitions for the batch benchmark.

A job is what a user runs: one ``spectral_embed.cli.main`` call on a
generated config, or, where no subcommand exists, a short sequence of
public library calls.  A workload is a fixed list of jobs; one pass over
the list is a batch.

Every job declares which of its report keys and output files depend on the
workload seed (pair sampling, random truncation probes, random fibre
points).  All other keys are pinned to the reference recorded in
``reference.json``; seeded keys are only required to be present and finite.
"""

import math
import os

TWO_PI = repr(2 * math.pi)
PI = repr(math.pi)

# circle-calibrated growth constants of the acceptance suite: a = 2 e pi^2
CIRCLE_BOUNDS = (f"bounds.iota = {PI}\n"
                 f"bounds.volume = {TWO_PI}\n"
                 f"bounds.a = {2 * math.e * math.pi ** 2!r}\n"
                 "bounds.c = 1.0\n"
                 "bounds.r_h = 1.0\n")
CIRCLE = f"manifold.kind = circle\nmanifold.length = {TWO_PI}\n" \
         "manifold.samples = 4096\n"

# Report keys fed by the seeded pair samplers of ``embed``.
EMBED_SEEDED = ("dil_min", "dil_max", "dil_median", "pairs", "inj_margin",
                "t_used", "t")
EMBED_SEEDED_FILES = ("scan.csv", "ratios.csv", "embedding.csv")

# Acceptance criterion 10, scaled: the ball radius keeps its ratio to the
# grid spacing (0.02 at 768 divisions), so the ball still holds 26 faces.
TORUS_DIVISIONS = 384
TORUS_RADIUS = 0.02 * 768 / TORUS_DIVISIONS
TORUS_IOTA = math.pi


def _cli(name, argv, config=None, config_file=None, seeded_keys=(),
         seeded_files=()):
    return {"name": name, "kind": "cli", "argv": list(argv),
            "config": config, "config_file": config_file,
            "seeded_keys": list(seeded_keys),
            "seeded_files": list(seeded_files)}


def _lib(name, func, seeded_keys=()):
    return {"name": name, "kind": "lib", "func": func,
            "seeded_keys": list(seeded_keys), "seeded_files": []}


def _icosphere(map_kind, levels):
    return ("manifold.kind = icosphere\nmanifold.subdivisions = 4\n"
            f"spectrum.count = 64\nembed.map = {map_kind}\n"
            f"embed.delta = 0.3\nembed.levels = {levels}\n")


def _read_config(root, rel):
    with open(os.path.join(root, rel)) as fh:
        return fh.read()


def _mesh_embed(root):
    return [
        _cli("spectrum", ["spectrum"], config=_icosphere("H", 4)),
        _cli("embed_h_scan", ["embed", "--scan"], config=_icosphere("H", 4),
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
        _cli("embed_kuratowski_scan", ["embed", "--scan"],
             config=_icosphere("kuratowski", 2),
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
    ]


def _meshfree_verify(root):
    circle_h = _read_config(root, "configs/circle_h.cfg")
    circle_g = circle_h.replace("embed.map = H", "embed.map = G")
    sphere = "manifold.kind = sphere\nspectrum.count = 225\n"
    return [
        _cli("circle_varadhan", ["verify", "varadhan"],
             config=CIRCLE + "spectrum.count = 700\n" + CIRCLE_BOUNDS),
        _cli("circle_truncation", ["verify", "truncation"],
             config=CIRCLE + "spectrum.count = 200\n" + CIRCLE_BOUNDS,
             seeded_files=("truncation.csv",)),
        _cli("circle_h_scan", ["embed", "--scan"],
             config_file="configs/circle_h.cfg",
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
        _cli("circle_g_scan", ["embed", "--scan"], config=circle_g,
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
        _cli("counterexample", ["verify", "counterexample"],
             config_file="configs/counterexample.cfg",
             seeded_keys=("margin_below_gap", "margin_with_gap",
                          "fiber_separation")),
        _cli("sphere_h_scan", ["embed", "--scan"],
             config=sphere + "embed.map = H\nembed.delta = 0.3\n",
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
        _cli("sphere_decay", ["verify", "decay"],
             config=sphere + "heat.t_grid = 0.1,0.5,1.0\n"
             f"bounds.iota = {PI}\nbounds.r_h = 1.0\n"),
        _cli("torus_h", ["embed"],
             config="manifold.kind = torus\n"
             f"manifold.periods = {TWO_PI},{TWO_PI}\n"
             "embed.map = H\nembed.delta = 0.5\n",
             seeded_keys=EMBED_SEEDED, seeded_files=EMBED_SEEDED_FILES),
        _cli("charts", ["charts"], config_file="configs/charts.cfg"),
        _cli("constants", ["constants"], config="constants.n = 2\n"),
        _lib("sphere_sup_bounds", "sphere_sup_bounds"),
    ]


def _torus_radius(root):
    return [_lib("criterion_10", "criterion_10")]


WORKLOADS = {
    "mesh_embed": {
        "jobs": _mesh_embed,
        "why": "icosphere-4 mesh pipeline: eigensolve, per-mode CSV export, "
               "H and Kuratowski scans driven by Dijkstra distance queries",
        "stresses": ["manifold (distance queries)", "spectrum (eigensolve)",
                     "embed", "reporting"],
        "bypasses": ["analytic bases", "charts", "radius"],
    },
    "meshfree_verify": {
        "jobs": _meshfree_verify,
        "why": "closed-form backends and chart studies: the same spectrum, "
               "heat and embed layers with exact Python distance and pair "
               "loops, no mesh, eigensolve or Dijkstra",
        "stresses": ["spectrum (analytic bases, bounds)", "heat", "embed",
                     "manifold (analytic distance)", "charts", "radius "
                     "(constants)"],
        "bypasses": ["mesh build", "assembly", "eigensolve", "Dijkstra"],
        "excluded": {
            "sphere verify truncation (count 225)":
                "takes 27 s and exits 1: 4 of 20 samples raise "
                "TruncationError under the default a(n) and C(n)",
            "circle verify decay (default constants)":
                "exits 1 on its constants, not on a program fault",
        },
    },
    "torus_radius": {
        "jobs": _torus_radius,
        "why": "acceptance criterion 10: build-heavy manifold layer, one "
               "validation and assembly pass over the whole torus mesh for "
               "a ball of 26 faces",
        "stresses": ["manifold (build, assembly)", "radius (experiments)"],
        "bypasses": ["spectrum", "heat", "embed"],
        "scaled": f"{TORUS_DIVISIONS}^2 grid with r = {TORUS_RADIUS} instead "
                  "of 768^2 with r = 0.02, to fit the run length",
    },
}


def workload_jobs(workload, root):
    return WORKLOADS[workload]["jobs"](root)


# ---------------------------------------------------------------------------
# Library jobs: run in the child after the import, return checked values
# ---------------------------------------------------------------------------

def sphere_sup_bounds(seed):
    """eigenfunction_sup_bounds over 400 analytic sphere harmonics.

    The inputs are fixed; the job draws nothing from the seed.
    """
    from spectral_embed.manifold import Sphere
    from spectral_embed.spectrum import (compute_spectrum,
                                         eigenfunction_sup_bounds)
    rep = eigenfunction_sup_bounds(
        compute_spectrum(Sphere(1.0, samples=2000), 400))
    return dict(rep.summary())


def criterion_10(seed):
    """Distance and harmonic coordinates on the flat-torus mesh.

    The seed picks the base vertex; the grid is translation invariant, so
    every figure is seed independent up to rounding.
    """
    import numpy as np
    from spectral_embed.manifold import make_torus_mesh
    from spectral_embed.radius import (distance_coordinates_experiment,
                                       harmonic_coordinates_experiment)
    mesh = make_torus_mesh((2 * math.pi, 2 * math.pi),
                           (TORUS_DIVISIONS, TORUS_DIVISIONS))
    base = int(np.random.default_rng(seed).integers(len(mesh.vertices)))
    drep, fields = distance_coordinates_experiment(
        mesh, base, TORUS_RADIUS, iota=TORUS_IOTA)
    hrep, _ = harmonic_coordinates_experiment(
        mesh, base, TORUS_RADIUS, iota=TORUS_IOTA, fields=fields)
    gram_ok = 0.95 <= drep.gram_eigen_min <= drep.gram_eigen_max <= 1.05
    return {
        "gram_eigen_min": drep.gram_eigen_min,
        "gram_eigen_max": drep.gram_eigen_max,
        "ball_faces": drep.ball_faces,
        "holder_scaled": drep.holder_scaled,
        "sup_deviation": hrep.sup_deviation,
        "interior_vertices": hrep.interior_vertices,
        "harmonic_gram_eigen_min": hrep.gram_eigen_min,
        "harmonic_gram_eigen_max": hrep.gram_eigen_max,
        "gram_band_ok": gram_ok,
        "max_principle_ok": bool(hrep.max_principle_ok),
        "deviation_ok": hrep.sup_deviation <= 0.05,
    }


LIBRARY_JOBS = {"sphere_sup_bounds": sphere_sup_bounds,
                "criterion_10": criterion_10}
