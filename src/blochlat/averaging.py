"""Block averaging between the fine and coarse lattices.

The restriction operator sends a fine field to the coarse field

    (R phi)(x) = sum_z q(z) phi(L x + z),

where the weight profile q is a tensor product of per-axis windows summing
to one.  The naive profile averages the block of l sites centred on each
coarse point (l odd); convolving it with itself sharpens the momentum
cutoff, which is the smooth family.  Prolongation is the adjoint of
restriction under the volume-weighted inner products, so

    (P psi)(u) = (vol_c / vol_f) sum_x q(u - L x) psi(x).

Both operators read one coarse-invariant table, q(w - L m) / vol_f, built
by ``averaging_kernel``: restriction reads it coarse-from-fine
(``apply_cf``), prolongation fine-from-coarse (``apply_fc``).  The
composite P R is a coarse-invariant kernel on the fine lattice whose
momentum fibers are rank one:

    fiber(k)[l, l'] = qhat(-(k + l)) qhat(k + l'),

with qhat the momentum response of the profile.  R P acts on the coarse
lattice by a translation-invariant stencil, the identity for the naive
profile.  ``profile_hat`` and ``prolong_restrict_fiber`` take a stack of
momenta (..., n_axes), as ``fiber_hat`` does, and return the stacked
responses and fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import FieldVector, LatticeSpec, _frozen
from .periodic_op import BlochFiber
from .periodization import (
    ZKernel,
    ZKernelFC,
    _momentum,
    apply_cf,
    apply_fc,
    window_offsets,
    zkernel,
    zkernel_fc,
)

__all__ = [
    "Profile",
    "naive_profile",
    "smooth_profile",
    "dirichlet_average",
    "profile_hat",
    "averaging_kernel",
    "restrict_field",
    "prolong_field",
    "restrict_prolong_profile",
    "prolong_restrict_kernel",
    "prolong_restrict_fiber",
]


@dataclass(frozen=True)
class Profile:
    """Tensor-product averaging weights, one symmetric window per axis.

    ``axis_weights[a]`` has length ``2 * radii[a] + 1``, is real, and sums
    to one; the full weight at offset z is the product over axes.
    """

    spec: LatticeSpec
    radii: tuple[int, ...]
    axis_weights: tuple[np.ndarray, ...]

    def window(self) -> np.ndarray:
        """Flattened row-major tensor of weights over the support window."""
        grid = self.axis_weights[0]
        for w in self.axis_weights[1:]:
            grid = np.multiply.outer(grid, w)
        return grid.reshape(-1)


def naive_profile(spec: LatticeSpec) -> Profile:
    """Flat average over the block of l sites centred on each coarse point."""
    weights = []
    radii = []
    for axis, l in enumerate(spec.ratios()):
        l = int(l)
        if l % 2 == 0:
            name = "time" if axis == 0 else f"space {axis - 1}"
            raise ValueError(
                f"centred block average needs an odd block size, got {l} "
                f"along the {name} axis"
            )
        radii.append((l - 1) // 2)
        weights.append(_frozen(np.full(l, 1.0 / l)))
    return Profile(spec, tuple(radii), tuple(weights))


def smooth_profile(spec: LatticeSpec, width: int) -> Profile:
    """The naive profile convolved with itself ``width`` times."""
    if int(width) < 1:
        raise ValueError(f"convolution width must be at least 1, got {width}")
    base = naive_profile(spec)
    weights = []
    radii = []
    for r, w in zip(base.radii, base.axis_weights):
        acc = np.asarray(w)
        for _ in range(int(width) - 1):
            acc = np.convolve(acc, w)
        weights.append(_frozen(acc))
        radii.append(int(width) * r)
    return Profile(spec, tuple(radii), tuple(weights))


def dirichlet_average(points: int, theta) -> np.ndarray:
    """Momentum response of a flat odd-width average: the cosine sum
    (1 + 2 sum_j cos(j theta)) / points."""
    points = int(points)
    if points < 1 or points % 2 == 0:
        raise ValueError(f"window must have odd positive width, got {points}")
    theta = np.asarray(theta, dtype=float)
    half = (points - 1) // 2
    acc = np.ones_like(theta)
    for j in range(1, half + 1):
        acc = acc + 2.0 * np.cos(j * theta)
    return acc / points


def profile_hat(profile: Profile, k):
    """Momentum response sum_z q(z) exp(i k.z) at possibly complex k;
    momenta (..., n_axes) give responses (...)."""
    spec = profile.spec
    k = _momentum(spec, k)
    eps = spec.spacings()
    out = np.ones(k.shape[:-1], dtype=complex)
    for axis, (r, w) in enumerate(zip(profile.radii, profile.axis_weights)):
        z = np.arange(-r, r + 1) * eps[axis]
        out = out * np.sum(w * np.exp(1j * k[..., axis, None] * z), axis=-1)
    return out[()]


def _coarse_radii(profile: Profile) -> tuple[int, ...]:
    ratios = profile.spec.ratios()
    return tuple(
        (r + int(l) - 1) // int(l) for r, l in zip(profile.radii, ratios)
    )


def averaging_kernel(profile: Profile) -> ZKernelFC:
    """Window table q(w - L m) / vol_f over block rows and coarse offsets:
    the kernel of the block average read coarse-from-fine, and of its
    adjoint read fine-from-coarse."""
    spec = profile.spec
    radii_c = _coarse_radii(profile)
    ratios = spec.ratios()
    z = spec.coords("block")[:, None, :] - window_offsets(spec, radii_c) * ratios
    radii = np.asarray(profile.radii)
    val = np.ones(z.shape[:2])
    for axis, weights in enumerate(profile.axis_weights):
        val = val * weights[np.clip(z[..., axis] + radii[axis], 0, 2 * radii[axis])]
    inside = (np.abs(z) <= radii).all(axis=2)
    return zkernel_fc(spec, radii_c, np.where(inside, val / spec.vol_f, 0.0))


def restrict_field(family: LatticeSpec, profile: Profile,
                   phi: FieldVector) -> FieldVector:
    return apply_cf(family, averaging_kernel(profile), phi)


def prolong_field(family: LatticeSpec, profile: Profile,
                  psi: FieldVector) -> FieldVector:
    return apply_fc(family, averaging_kernel(profile), psi)


def _pair_sums(weights: np.ndarray, l: int) -> np.ndarray:
    """Pair sums g[w, d + 2r] = sum over z = w (mod l) of q(z) q(z + d) of one
    axis window q on [-r, r], for w in [0, l) and d in [-2r, 2r]."""
    r = (len(weights) - 1) // 2
    i, j = np.indices((len(weights), len(weights)))
    g = np.zeros((l, 4 * r + 1))
    np.add.at(g, ((i - r) % l, j - i + 2 * r), np.outer(weights, weights))
    return g


def restrict_prolong_profile(profile: Profile) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Stencil of restrict-then-prolong on the coarse lattice.

    Returns per-axis radii and weight arrays; the naive profile gives the
    identity stencil because distinct blocks do not overlap.
    """
    radii_out, weights_out = [], []
    for r, w, l in zip(profile.radii, profile.axis_weights, profile.spec.ratios()):
        l, m = int(l), 2 * r // int(l)
        # the stencil at coarse offset y is l * sum_w g[w, -l y]
        stencil = l * _pair_sums(w, l).sum(axis=0)[2 * r - l * np.arange(-m, m + 1)]
        radii_out.append(m)
        weights_out.append(_frozen(stencil))
    return tuple(radii_out), tuple(weights_out)


def prolong_restrict_kernel(profile: Profile) -> ZKernel:
    """Coarse-invariant fine-lattice kernel of prolong-then-restrict."""
    spec = profile.spec
    ratios = spec.ratios()
    radii = tuple(2 * r for r in profile.radii)
    tables = [_pair_sums(w, int(l)) for w, l in zip(profile.axis_weights, ratios)]
    block = spec.coords("block")
    offsets = window_offsets(spec, radii)
    val = np.full((len(block), len(offsets)), spec.vol_c / spec.vol_f**2)
    for axis in range(spec.n_axes):
        val = val * tables[axis][block[:, None, axis], offsets[:, axis] + radii[axis]]
    return zkernel(spec, radii, val)


def prolong_restrict_fiber(profile: Profile, k) -> BlochFiber:
    """Rank-one momentum fiber of prolong-then-restrict at momentum k;
    momenta (..., n_axes) give entries (..., n_block, n_block)."""
    spec = profile.spec
    k = _momentum(spec, k)
    ells = 2.0 * np.pi * spec.coords("block") / (spec.spacings() * spec.ratios())
    lifted = k[..., None, :] + ells  # k + l over the dual block
    entries = (profile_hat(profile, -lifted)[..., :, None]
               * profile_hat(profile, lifted)[..., None, :])
    return BlochFiber(k, _frozen(entries), None)
