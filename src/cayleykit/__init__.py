"""Verification toolkit for the geometry of the Cayley hyperbolic plane.

Submodules:

* ``octonion``  -- Cayley-number arithmetic from the seven cyclic triples
* ``exterior``  -- sparse exterior algebra, Hodge star, Hessian surrogate
* ``curvature`` -- sectional formula on O^2, spin(9) operator, pinching
* ``geodesy``   -- radial comparison geometry and the bottom of the spectrum
* ``forms``     -- parallel-form candidates and linear constraint extraction
* ``kernels``   -- sharp Bochner ratio problems and the Kato-type transform
* ``cli``       -- command line front end producing reports and artifacts
"""

import os

# the BLAS calls here are small or skinny: a second OpenBLAS thread cost 1.7x the CPU for <7 % wall
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

__all__ = [
    "octonion",
    "exterior",
    "curvature",
    "geodesy",
    "forms",
    "kernels",
    "suites",
    "cli",
]
