"""Numerical certificates for exponential stability, Riemannian contraction
metrics, and entrainment to periodic inputs.

The library constructs a globally exponentially stable planar system that
fails to entrain to a periodic forcing, certifies the scalar contraction
metric that constant inputs destroy, searches for such inputs
constructively, and exercises the flow-map composition arguments that carry
constant-input contraction rates to arbitrary bounded signals.
"""

from .certificates import *
from .constant_metric import *
from .contraction import *
from .counterexample import *
from .dynamics import *
from .entrainment import *
from .errors import *
from .flowspace import *
from .linalg import *

__version__ = "0.1.0"
