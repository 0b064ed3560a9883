"""Spectral-geometry toolkit: heat-kernel and eigenfunction embeddings of
closed manifolds, with the quantitative bounds that control them."""

import os

# SPECTRAL_EMBED_THREADS caps the BLAS pools, which are sized when numpy
# loads: set the variables before any submodule imports numpy.  With no
# variable set the pools run one thread, so outputs do not depend on the
# host's core count
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = os.environ.get("SPECTRAL_EMBED_THREADS")
if _threads or not any(os.environ.get(v) for v in _BLAS_VARS):
    for _var in _BLAS_VARS:
        os.environ.setdefault(_var, _threads or "1")

from .manifold import (TriMesh, Circle, Sphere, FlatTorus, OperatorPair,
                       load_mesh, make_sphere, make_torus_mesh,
                       assemble_laplacian, MeshError)
from .spectrum import (Spectrum, GeometryBounds, compute_spectrum,
                       eigen_growth_check, eigenfunction_sup_bounds,
                       truncation_index, TruncationError, EigensolverError)
from .heat import (HeatEvaluator, decay_check, varadhan_check,
                   varadhan_time_grid)
from .embed import (Net, EmbeddingMap, build_net, make_map, evaluate_map,
                    image_distance, dilatation_report, injectivity_report,
                    continuous_dilatation, scan_embedding)

__version__ = "0.1.0"
