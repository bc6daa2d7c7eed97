"""Exponentially weighted operator norms and decay bounds from fibers.

The norm of a kernel a with mass m is

    |a|_m = max( sup_row  sum_col vol * exp(m dist) |a| ,
                 sup_col  sum_row vol * exp(m dist) |a| ),

with the cell volume of the summed variable and the physical distance
between row and column sites (geodesic on the torus, Euclidean on the
infinite lattices).  It is submultiplicative under operator composition.

A kernel of known support radius can be bounded through its momentum
fibers.  Writing the inversion quadrature along the contour shifted by an
imaginary momentum eta picks up a factor exp(eta . d) on the offset-d
entry; choosing eta of size m against the direction of d therefore bounds
every entry by exp(-m |d|) times a sup of the shifted fiber over the real
quadrature grid.  All offsets along one primitive lattice direction share
that eta, so the bound takes one shifted quadrature per offset direction,
the same ``periodization._inversion_sums`` that ``inverse_fiber`` runs at
eta = 0.  Since the quadrature is exact, the resulting inequality is a
theorem, not a heuristic: summing it against exp(m' |d|) controls |a|_{m'}
by ``decay_constant(m - m') / vol_c`` times that sup.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import LatticeSpec, _coords_cache, _pair_distances
from .periodic_op import PeriodicKernel
from .periodization import (
    FiberFunction,
    ZKernel,
    ZKernelFC,
    _block_coords,
    _block_index,
    _inversion_sums,
    _n_block,
    _probe_quasi_periodicity,
    _quadrature_grid,
    normalize_radii,
    window_offsets,
    zkernel,
)

__all__ = [
    "weighted_norm",
    "decay_constant",
    "fiber_decay_bound",
    "decay_norm_bound",
    "inverse_fiber_shifted",
]


@lru_cache(maxsize=8)
def _block_distances(spec: LatticeSpec) -> np.ndarray:
    """Geodesic torus distances from the block sites (rows) to every fine
    site (columns), read-only."""
    return _pair_distances(spec, "fine", _block_coords(spec),
                           _coords_cache(spec, "fine"))


def _torus_norm(kernel: PeriodicKernel, mass: float) -> float:
    """Row and column sums over the block rows: the row sums of A are those
    of its block rows, and column v collects the block rows' columns in the
    coarse class of v."""
    fam = kernel.family
    rows = np.abs(kernel.rows)
    # weight the support only: exp(m dist) may overflow where the entry is 0
    weight = np.exp(mass * _block_distances(fam.spec), out=np.zeros(rows.shape),
                    where=rows != 0.0) * rows
    classes = _block_index(fam.spec, fam.coords("fine"))
    cols = np.bincount(classes, weights=weight.sum(axis=0), minlength=fam.n_block)
    return float(fam.vol_f * max(weight.sum(axis=1).max(), cols.max()))


def _z_norm(a: ZKernel, mass: float) -> float:
    spec = a.spec
    offsets = window_offsets(spec, a.radii)
    dist = np.linalg.norm(offsets * spec.spacings(), axis=1)
    weight = np.exp(mass * dist)
    rows = (np.abs(a.entries) * weight).sum(axis=1).max()
    block = _block_coords(spec)
    slots = np.arange(len(offsets))
    cols = 0.0
    for v in block:
        src = _block_index(spec, v - offsets)  # row class of the pair (v - d, v)
        cols = max(cols, float((np.abs(a.entries[src, slots]) * weight).sum()))
    return float(spec.vol_f * max(rows, cols))


def _asym_sums(spec, radii, entries, mass: float) -> tuple[float, float]:
    """(coarse-weighted row sup, fine-weighted column sup); both readings
    of a ``ZKernelFC`` share them.

    Fine point w against the coarse point at offset m, in physical units:
    row w sums over the coarse points, and the column of the coarse origin
    collects every row, since u = w - L m carries entry (w, m)."""
    offsets = window_offsets(spec, radii)
    d = (_block_coords(spec)[:, None, :] - offsets * spec.ratios()) * spec.spacings()
    row_sums = (np.abs(entries) * np.exp(mass * np.linalg.norm(d, axis=2))).sum(axis=1)
    return float(spec.vol_c * row_sums.max()), float(sum(spec.vol_f * row_sums))


def weighted_norm(kernel, mass: float) -> float:
    """Exponentially weighted norm, dispatching on the kernel kind."""
    mass = float(mass)
    if isinstance(kernel, PeriodicKernel):
        return _torus_norm(kernel, mass)
    if isinstance(kernel, ZKernel):
        return _z_norm(kernel, mass)
    if isinstance(kernel, ZKernelFC):
        coarse_sum, fine_sum = _asym_sums(
            kernel.spec, kernel.radii, np.asarray(kernel.entries), mass
        )
        return max(coarse_sum, fine_sum)
    raise TypeError(f"no weighted norm defined for {type(kernel).__name__}")


def decay_constant(gap: float, spacings) -> float:
    """vol * sum over the integer lattice of exp(-gap * |physical point|).

    The enumeration cutoff is chosen so the neglected tail is below 1e-15
    of the result.
    """
    gap = float(gap)
    if gap <= 0.0:
        raise ValueError(f"decay gap must be positive, got {gap}")
    eps = np.asarray(spacings, dtype=float).reshape(-1)
    if (eps <= 0).any():
        raise ValueError(f"spacings must be positive, got {spacings!r}")
    n = len(eps)
    step = gap * eps.min()
    # shell at sup-radius R has at most 2n(2R+1)^(n-1) points, each of
    # physical norm at least R * min(eps)
    radius = 1
    while 2 * n * (2 * radius + 1) ** (n - 1) * np.exp(-step * radius) > 1e-16 * (
        1.0 - np.exp(-step)
    ):
        radius += 1
    total = 0.0
    axis = np.arange(-radius, radius + 1)
    rest = np.stack(
        np.meshgrid(*([axis] * (n - 1)), indexing="ij"), axis=-1
    ).reshape(-1, n - 1) if n > 1 else np.zeros((1, 0), dtype=np.int64)
    rest_phys = rest * eps[1:]
    for j in axis:
        pts = np.concatenate(
            [np.full((len(rest), 1), j * eps[0]), rest_phys], axis=1
        )
        total += np.exp(-gap * np.linalg.norm(pts, axis=1)).sum()
    return float(np.prod(eps) * total)


def fiber_decay_bound(f: FiberFunction, radii, mass: float) -> np.ndarray:
    """Entrywise bound exp(-mass |d|) sup |shifted fiber| on the window.

    Every entry of the kernel recovered by ``inverse_fiber`` is bounded in
    absolute value by the returned array.  The offsets d along one primitive
    lattice direction u = d / gcd(d) share the shift eta = -mass u / |u|, so
    one shifted quadrature per direction bounds all of them.
    """
    mass = float(mass)
    spec = f.spec
    radii = normalize_radii(spec, radii)
    _probe_quasi_periodicity(f)
    grid = _quadrature_grid(spec, radii)
    offsets = window_offsets(spec, radii)
    units = offsets // np.maximum(np.gcd.reduce(offsets, axis=1), 1)[:, None]
    directions, which = np.unique(units, axis=0, return_inverse=True)
    which = which.reshape(-1)
    bound = np.zeros((_n_block(spec), len(offsets)))
    for j, u in enumerate(directions * spec.spacings()):
        eta = -mass * u / (np.linalg.norm(u) or 1.0)  # 0 for the zero offset
        _, abs_sum = _inversion_sums(f, radii, eta, grid)
        cols = which == j
        bound[:, cols] = abs_sum[:, cols]
    return bound


def inverse_fiber_shifted(f: FiberFunction, radii, eta) -> ZKernel:
    """Invert the fiber transform along the contour shifted by i * eta.

    Analyticity and quasi-periodicity make the result independent of eta;
    comparing against the real-contour inversion is a quantitative check of
    both.
    """
    spec = f.spec
    radii = normalize_radii(spec, radii)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (spec.n_axes,):
        raise ValueError(
            f"imaginary shift must have {spec.n_axes} components, got {eta.shape}"
        )
    _probe_quasi_periodicity(f)
    value, _ = _inversion_sums(f, radii, eta, _quadrature_grid(spec, radii))
    return zkernel(spec, radii, value)


def decay_norm_bound(f: FiberFunction, radii, mass: float,
                     target_mass: float) -> float:
    """Bound on the weighted norm at ``target_mass`` of the kernel behind f.

    Combines the entrywise fiber bound at ``mass`` with the summed decay
    constant at the mass gap; requires mass > target_mass.
    """
    mass = float(mass)
    target_mass = float(target_mass)
    if mass <= target_mass:
        raise ValueError(
            f"need a positive mass gap, got mass={mass} <= target={target_mass}"
        )
    bound = fiber_decay_bound(f, radii, mass)
    return _decay_norm_from_bound(f.spec, radii, bound, mass, target_mass)


def _decay_norm_from_bound(spec, radii, bound: np.ndarray, mass: float,
                           target_mass: float) -> float:
    """:func:`decay_norm_bound` from a :func:`fiber_decay_bound` at ``mass``.

    The caller guarantees mass > target_mass.
    """
    offsets = window_offsets(spec, radii)
    lengths = np.linalg.norm(offsets * spec.spacings(), axis=1)
    # peel the decay factor back off: envelope = sup of the averaged |fiber|
    envelope = float((bound * np.exp(mass * lengths)).max())
    return decay_constant(mass - target_mass, spec.spacings()) * envelope
