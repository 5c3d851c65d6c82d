"""KAN-based symbolic regression with a hydrology evaluation harness."""

from . import bspline, harness, hydro, kan, metrics, optim, symbolic

__all__ = ["bspline", "harness", "hydro", "kan", "metrics", "optim",
           "symbolic"]
__version__ = "0.1.0"
