"""Seeded random test objects.

All randomness in the package flows through numpy's PCG64 generator with an
explicit integer seed, so every artifact is reproducible bit for bit from
(config, seed).
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeFamily
from .periodization import (
    ZKernel,
    ZKernelCF,
    ZKernelFC,
    window_shape,
    zkernel,
    zkernel_cf,
    zkernel_fc,
)
from .periodic_op import PeriodicKernel, periodic_kernel

__all__ = [
    "rng_from_seed",
    "random_zkernel",
    "random_zkernel_fc",
    "random_zkernel_cf",
    "random_periodic_kernel",
    "random_field_values",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 with a fixed integer seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _window_values(spec, radii, rng, complex_entries):
    shape = (spec.l_t * spec.l_x**spec.dim,) + window_shape(spec, radii)
    out = rng.uniform(-1.0, 1.0, size=shape)
    if complex_entries:
        out = out + 1j * rng.uniform(-1.0, 1.0, size=shape)
    return out


def random_zkernel(spec, radii, rng, complex_entries: bool = True) -> ZKernel:
    """Coarse-invariant infinite-lattice kernel with uniform window entries."""
    return zkernel(spec, radii, _window_values(spec, radii, rng, complex_entries))


def random_zkernel_fc(spec, radii, rng, complex_entries: bool = True) -> ZKernelFC:
    return zkernel_fc(spec, radii, _window_values(spec, radii, rng, complex_entries))


def random_zkernel_cf(spec, radii, rng, complex_entries: bool = True) -> ZKernelCF:
    return zkernel_cf(spec, radii, _window_values(spec, radii, rng, complex_entries))


def random_periodic_kernel(family: LatticeFamily, rng,
                           complex_entries: bool = True) -> PeriodicKernel:
    """Random coarse-invariant torus kernel: free rows on block representatives,
    extended over the torus by coarse translations."""
    rows = rng.uniform(-1.0, 1.0, size=(family.n_block, family.n_fine))
    if complex_entries:
        rows = rows + 1j * rng.uniform(-1.0, 1.0, size=rows.shape)
    return periodic_kernel(family, rows)


def random_field_values(family: LatticeFamily, tag: str, rng,
                        complex_entries: bool = True) -> np.ndarray:
    n = family.count(tag)
    out = rng.uniform(-1.0, 1.0, size=n)
    if complex_entries:
        out = out + 1j * rng.uniform(-1.0, 1.0, size=n)
    return out
