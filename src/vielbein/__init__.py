"""Numerical orthonormal-frame gravity in m dimensions.

Coframe fields are evaluated through second-order jet arithmetic, the spin
connection and curvature are assembled from the frame alone, and the same
machinery lifted to a constrained five-dimensional bundle reproduces the
coupled gravity/electromagnetism system, all verified against closed-form
solutions and an independent coordinate-chart oracle.
"""

__version__ = "0.1.0"

from .jets import JetArray, jet_seed
from .tensors import Signature, eta, levi_civita
from .expr import parse, eval_jet
from .frame import (
    CoframeField,
    CoframePoint,
    DegenerateFrameError,
    evaluate_coframe,
    spin_connection,
    torsion_residual,
    curvature,
    einstein_density,
    coordinate_oracle,
)

__all__ = [
    "__version__",
    "JetArray",
    "jet_seed",
    "Signature",
    "eta",
    "levi_civita",
    "parse",
    "eval_jet",
    "CoframeField",
    "CoframePoint",
    "DegenerateFrameError",
    "evaluate_coframe",
    "spin_connection",
    "torsion_residual",
    "curvature",
    "einstein_density",
    "coordinate_oracle",
]
