"""Dilatation of lattices, kernels, and fields.

Scaling by (sigma_t, sigma_x) divides the lattice spacings by the factors
while keeping every integer index fixed, and multiplies kernel entries by
sigma_t * sigma_x**dim so that kernel actions commute with the pullback
of fields: scaling a kernel, then applying it to a scaled field, returns
the scaled image field.

Because the amplitude factor cancels the cell-volume change exactly, the
integer-labeled momentum fibers of the scaled kernel are the original
fibers read at the compressed momentum:

    scaled_fiber(k) = fiber(k / sigma)   componentwise,

and the weighted norm at mass m is bounded by the original norm at mass
m * max(1 / sigma_t, 1 / sigma_x), with equality when the kernel is
supported along an axis realizing the max.  The ``scaled_fiber`` functions
take a stack of momenta (..., n_axes), as ``fiber_hat`` does.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeSpec, Record
from .periodic_op import BlochFiber
from .periodization import (
    ZField,
    ZKernel,
    ZKernelFC,
    _momentum,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    zkernel,
    zkernel_fc,
)

__all__ = [
    "ScaleFactors",
    "scale_spec",
    "amplitude",
    "mass_transfer",
    "scale_kernel",
    "scale_field",
    "scaled_fiber",
    "scaled_fiber_fc",
    "scaled_fiber_cf",
]


class ScaleFactors(Record):
    """Per-axis dilatation factors, one for time and one for all space axes."""

    time: float
    space: float

    def __post_init__(self):
        for name in ("time", "space"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} scale factor must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} scale factor must be finite, got {value}")

    def vector(self, spec: LatticeSpec) -> np.ndarray:
        return np.array([self.time] + [self.space] * spec.dim)


def scale_spec(spec: LatticeSpec, factors: ScaleFactors) -> LatticeSpec:
    """The same integer lattice at spacings divided by the factors."""
    return spec.replace(eps_t=spec.eps_t / factors.time, eps_x=spec.eps_x / factors.space)


def amplitude(spec: LatticeSpec, factors: ScaleFactors) -> float:
    """Entry scale factor sigma_t * sigma_x**dim, the cell-volume ratio."""
    return float(factors.time * factors.space**spec.dim)


def mass_transfer(factors: ScaleFactors) -> float:
    """Mass ratio in the scaled-norm inequality: max over axes of 1/sigma."""
    return max(1.0 / factors.time, 1.0 / factors.space)


_BUILDERS = {ZKernel: zkernel, ZKernelFC: zkernel_fc}


def scale_kernel(kernel, factors: ScaleFactors):
    """Dilate a window kernel; entries are shared up to the amplitude factor."""
    build = _BUILDERS.get(type(kernel))
    if build is None:
        raise TypeError(f"cannot scale a {type(kernel).__name__}")
    spec = kernel.spec
    entries = amplitude(spec, factors) * np.asarray(kernel.entries)
    return build(scale_spec(spec, factors), kernel.radii, entries)


def scale_field(field: ZField, factors: ScaleFactors) -> ZField:
    """Pullback of a finitely supported field: indices fixed, spacing divided."""
    return ZField(
        scale_spec(field.spec, factors), field.kind, field.coords, field.values
    )


def _compressed(spec: LatticeSpec, factors: ScaleFactors, k) -> np.ndarray:
    return _momentum(spec, k) / factors.vector(spec)


def scaled_fiber(a: ZKernel, factors: ScaleFactors, k) -> BlochFiber:
    """Fiber of the scaled kernel evaluated through the original one;
    momenta (..., n_axes) give entries (..., n_block, n_block)."""
    fiber = fiber_hat(a, _compressed(a.spec, factors, k))
    return BlochFiber(np.asarray(k), fiber.entries, fiber.rep)


def scaled_fiber_fc(b: ZKernelFC, factors: ScaleFactors, k) -> np.ndarray:
    return fiber_hat_fc(b, _compressed(b.spec, factors, k))


def scaled_fiber_cf(c: ZKernelFC, factors: ScaleFactors, k) -> np.ndarray:
    return fiber_hat_cf(c, _compressed(c.spec, factors, k))
