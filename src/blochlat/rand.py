"""Seeded random test objects.

All randomness in the package flows through numpy's PCG64 generator with an
explicit integer seed, so every artifact is reproducible bit for bit from
(config, seed).
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeSpec
from .periodization import (
    ZKernel,
    ZKernelFC,
    window_shape,
    zkernel,
    zkernel_fc,
)
from .periodic_op import PeriodicKernel, periodic_kernel

__all__ = [
    "rng_from_seed",
    "random_zkernel",
    "random_zkernel_fc",
    "random_periodic_kernel",
    "random_field_values",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 with a fixed integer seed."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _uniform(rng, shape) -> np.ndarray:
    """Complex entries uniform on [-1, 1] in each part, real parts drawn first."""
    out = rng.uniform(-1.0, 1.0, size=shape)
    return out + 1j * rng.uniform(-1.0, 1.0, size=shape)


def _window_values(spec, radii, rng):
    return _uniform(rng, (spec.n_block,) + window_shape(spec, radii))


def random_zkernel(spec, radii, rng) -> ZKernel:
    """Coarse-invariant infinite-lattice kernel with uniform window entries."""
    return zkernel(spec, radii, _window_values(spec, radii, rng))


def random_zkernel_fc(spec, radii, rng) -> ZKernelFC:
    return zkernel_fc(spec, radii, _window_values(spec, radii, rng))


def random_periodic_kernel(family: LatticeSpec, rng) -> PeriodicKernel:
    """Random coarse-invariant torus kernel: free rows on block representatives,
    extended over the torus by coarse translations."""
    return periodic_kernel(family, _uniform(rng, (family.n_block, family.n_fine)))


def random_field_values(family: LatticeSpec, tag: str, rng) -> np.ndarray:
    return _uniform(rng, family.count(tag))
