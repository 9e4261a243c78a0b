"""Curvature tensors on spheres whose equators are all minimal.

The package builds algebraic curvature tensors with positive sectional
curvature, the quadratic-form fields and metrics they induce on the sphere,
and the verification machinery (minimality of equators, metric equation,
group equivariance, Jacobi spectra, great-sphere transforms) around them.
"""

from . import analysis, correspondence, sphere_geom, tensor_core, verification
from .analysis import *
from .correspondence import *
from .sphere_geom import *
from .tensor_core import *
from .verification import *

__version__ = "0.1.0"

# the package surface is the union of its modules' own lists, each name declared once
__all__ = sorted(name for module in (analysis, correspondence, sphere_geom, tensor_core, verification)
                 for name in module.__all__)
