"""Momentum-fiber analysis of lattice operators periodic under a coarse sublattice.

The package models a fine rectangular torus lattice together with a coarse
sublattice, the block of fine sites inside one coarse cell, and the three
dual lattices.  Operators invariant under coarse translations decompose into
small momentum fibers; the modules here build that decomposition, invert it,
transport it between the finite torus and the infinite lattice, control
exponential kernel decay through complex-momentum bounds, evaluate contour
functions of operators fiber by fiber, and track everything under anisotropic
rescaling.
"""

from . import (
    averaging,
    fourier,
    norms,
    opfunc,
    periodic_op,
    periodization,
    rand,
    scaling,
    verify,
)
from .lattice import (
    DIRECT_TAGS,
    DUAL_TAGS,
    TAGS,
    FieldVector,
    LatticeSpec,
    SpectrumVector,
    build_family,
    distance_matrix,
    inner,
)

__all__ = [
    "averaging",
    "fourier",
    "norms",
    "opfunc",
    "periodic_op",
    "periodization",
    "rand",
    "scaling",
    "verify",
    "TAGS",
    "DIRECT_TAGS",
    "DUAL_TAGS",
    "LatticeSpec",
    "FieldVector",
    "SpectrumVector",
    "build_family",
    "distance_matrix",
    "inner",
]

__version__ = "0.1.0"
