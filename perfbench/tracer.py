"""Spans around the public functions of each spectral_embed module.

The benchmark installs these wrappers in the job's interpreter after
``import spectral_embed.cli``; nothing under ``src/`` knows about them.
Each span records its name, group, parent span, start, end, whether it
ended in an exception, and integer counters.  Spans stay in memory and
are written once, when the job ends.

A group's self time is the time its spans cover minus the time covered by
their child spans, so the self times of all spans plus the unattributed
self time of the job's root span add up to the job's wall time.
"""

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("manifold", "spectrum", "heat", "embed", "charts", "radius",
          "reporting", "cli")


def _points(points):
    return int(np.shape(points)[0]) if np.ndim(points) else 1


# Counters see the call's arguments by name, defaults applied, and its result.
def _dijkstra_sources(arg, result):
    if arg["indices"] is None:
        return {"sources": int(np.shape(arg["csgraph"])[0])}
    return {"sources": int(np.size(arg["indices"]))}


def _pairs(arg, result):
    return {"requested": int(arg["count"]), "kept": len(result[0])}


def _written(arg, result):
    return {"bytes": os.path.getsize(arg["path"]), "files": 1}


# (module, attribute path, group, counter).  A dotted path names a method;
# the wrapper replaces the attribute on that class.
TARGETS = [
    ("manifold", "make_sphere", "manifold.build", None),
    ("manifold", "make_torus_mesh", "manifold.build", None),
    ("manifold", "load_mesh", "manifold.build", None),
    ("manifold", "TriMesh.__init__", "manifold.build", None),
    ("manifold", "assemble_laplacian", "manifold.assemble", None),
    ("manifold", "TriMesh.graph_distance_from", "manifold.query", None),
    ("manifold", "TriMesh.exact_distance_from", "manifold.query", None),
    ("manifold", "TriMesh.diameter_estimate", "manifold.query", None),
    ("manifold", "AnalyticManifold.distance", "manifold.analytic_distance",
     None),
    ("manifold", "AnalyticManifold.distance_between",
     "manifold.analytic_distance", None),
    ("manifold", "Circle.distance_between", "manifold.analytic_distance",
     None),
    ("manifold", "Sphere.distance_between", "manifold.analytic_distance",
     None),
    ("manifold", "FlatTorus.distance_between", "manifold.analytic_distance",
     None),
    ("spectrum", "compute_spectrum", "spectrum.solve", None),
    ("spectrum", "Spectrum.values", "spectrum.basis_eval", None),
    ("spectrum", "Spectrum.gradients", "spectrum.basis_eval", None),
    ("spectrum", "eigenfunction_sup_bounds", "spectrum.bounds", None),
    ("spectrum", "truncation_index", "spectrum.bounds", None),
    ("spectrum", "eigen_growth_check", "spectrum.bounds", None),
    ("spectrum", "export_spectrum", "spectrum.export", None),
    ("heat", "HeatEvaluator.kernel", "heat.kernel", None),
    ("heat", "HeatEvaluator.kernel_matrix", "heat.kernel", None),
    ("heat", "HeatEvaluator.gradient", "heat.kernel", None),
    ("heat", "HeatEvaluator.roundoff_floor", "heat.kernel", None),
    ("heat", "varadhan_check", "heat.check", None),
    ("heat", "decay_check", "heat.check", None),
    ("heat", "export_varadhan", "heat.export", None),
    ("heat", "export_decay", "heat.export", None),
    ("embed", "build_net", "embed.net",
     lambda arg, result: {"points": len(result)}),
    ("embed", "sample_near_pairs", "embed.pairs", _pairs),
    ("embed", "sample_far_pairs", "embed.pairs", _pairs),
    ("embed", "evaluate_map", "embed.map_eval",
     lambda arg, result: {"points": _points(arg["points"])}),
    ("embed", "scan_embedding", "embed.scan", None),
    ("embed", "dilatation_report", "embed.scan", None),
    ("embed", "injectivity_report", "embed.scan", None),
    ("embed", "make_map", "embed.scan", None),
    ("embed", "default_h_near", "embed.scan", None),
    ("embed", "default_h_far", "embed.scan", None),
    ("embed", "export_embedding", "embed.export", None),
    ("charts", "solve_fd_kernel", "charts.fd_solve",
     lambda arg, result: {"steps": int(arg["steps"])}),
    ("charts", "convergence_study", "charts.fd_solve", None),
    ("charts", "ellipticity_sweep", "charts.fd_solve", None),
    ("charts", "export_grid_kernel", "charts.export", None),
    ("radius", "distance_coordinates_experiment", "radius.experiment", None),
    ("radius", "harmonic_coordinates_experiment", "radius.experiment", None),
    ("radius", "constants_sweep", "radius.constants", None),
    ("reporting", "write_csv", "reporting.write", _written),
    ("reporting", "write_report", "reporting.write", _written),
    ("cli", "main", "cli.self", None),
]


class _ModuleProxy:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # [name, group, parent, start, end, error, counters]
        self.spans = []
        self._stack = [None]
        self.spectra = []

    def begin(self, name, group):
        idx = len(self.spans)
        self.spans.append([name, group, self._stack[-1], time.perf_counter(),
                           None, False, None])
        self._stack.append(idx)
        return idx

    def end(self, idx, error=False):
        self.spans[idx][4] = time.perf_counter()
        self.spans[idx][5] = error
        self._stack.pop()

    def wrap(self, fn, name, group, count=None):
        tracer = self
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, error=True)
                raise
            tracer.end(idx)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][6] = count(bound.arguments, result)
            if group == "spectrum.solve":
                tracer.spectra.append(result)
            return result
        return traced

    def install(self):
        """Wrap every target and every module-level alias bound to it."""
        import scipy.sparse.csgraph as csgraph
        import spectral_embed.cli  # noqa: F401  loads every module
        modules = [m for n, m in sys.modules.items()
                   if n == "spectral_embed" or n.startswith("spectral_embed.")]
        for mod_name, path, group, count in TARGETS:
            mod = sys.modules[f"spectral_embed.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], name, group,
                                             count))
                continue
            fn = getattr(mod, path)
            traced = self.wrap(fn, name, group, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
        manifold = sys.modules["spectral_embed.manifold"]
        manifold.csgraph = _ModuleProxy(csgraph, dijkstra=self.wrap(
            csgraph.dijkstra, "manifold.csgraph.dijkstra", "manifold.dijkstra",
            _dijkstra_sources))

    # -- results ----------------------------------------------------------------

    def _self_times(self):
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, _, _, start, end, _, _ in self.spans]
        for span in self.spans:
            if span[2] is not None:
                own[span[2]] -= span[4] - span[3]
        return own

    def summary(self, root_start, root_end):
        """Per-group self time and counters, plus layer error counts.

        ``covered_s`` is the time the top-level spans cover inside the job's
        root span; the rest of the job's wall time is unattributed.
        """
        groups = {}
        errors = {layer: 0 for layer in LAYERS}
        for span, own in zip(self.spans, self._self_times()):
            name, group, parent, start, end, error, counters = span
            g = groups.setdefault(group, {"self_s": 0.0, "spans": 0})
            g["self_s"] += own
            g["spans"] += 1
            for key, value in (counters or {}).items():
                g[key] = g.get(key, 0) + value
            if error:
                errors[group.split(".")[0]] += 1
        covered = sum(end - start for _, _, parent, start, end, _, _
                      in self.spans if parent is None)
        wall = root_end - root_start
        return {"groups": groups, "errors": errors, "covered_s": covered,
                "wall_s": wall, "unattributed_s": wall - covered,
                "max_residual": self.max_residual()}

    def max_residual(self):
        """max ||K phi - lambda M phi|| / (1 + lambda) over mesh spectra."""
        worst = 0.0
        for spec in self.spectra:
            ops = getattr(spec, "operator_pair", None)
            if ops is None:
                continue
            vecs, lams = spec.vectors, spec.eigenvalues
            res = ops.stiffness @ vecs - (ops.mass @ vecs) * lams
            worst = max(worst, float(
                (np.linalg.norm(res, axis=0) / (1.0 + lams)).max()))
        return worst

    def write_jsonl(self, path, root_start, root_end):
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "root", "name": "job", "parent": None,
                                 "start": root_start, "end": root_end}) + "\n")
            for i, (span, own) in enumerate(zip(self.spans,
                                                self._self_times())):
                name, group, parent, start, end, error, counters = span
                fh.write(json.dumps({
                    "id": i, "name": name, "group": group,
                    "parent": "root" if parent is None else parent,
                    "start": start, "end": end, "self_s": own,
                    "error": error, "counters": counters or {}}) + "\n")
