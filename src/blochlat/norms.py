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
by ``decay_constant(m - m') / vol_c`` times that sup.  ``decay_constant``
is itself a certified upper bound on its lattice sum, an exact sum over a
ball plus an analytic majorant of the rest, in bounded memory, so
``decay_norm_bound`` is a theorem at any number of axes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import LatticeFamily, LatticeSpec, _coords_cache, _pair_distances
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
    exact_grid_sizes,
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

DECAY_TAIL_RTOL = 1e-15  # decay_constant's tail majorant, relative to the sum
DECAY_POINT_BUDGET = 1 << 26  # lattice points in the box decay_constant scans
DECAY_CHUNK = 1 << 14  # (slab, point) pairs per pass of decay_constant


@lru_cache(maxsize=8)
def _block_distances(spec: LatticeSpec) -> np.ndarray:
    """Geodesic torus distances from the block sites (rows) to every fine
    site (columns), read-only."""
    return _pair_distances(spec, "fine", _block_coords(spec),
                           _coords_cache(spec, "fine"))


def _torus_norm(fam: LatticeFamily, rows: np.ndarray, mass: float) -> np.ndarray:
    """Torus norms of kernels given as block rows (..., n_block, n_fine): the
    row sums of A are those of its block rows, and column v collects the
    block rows' columns in the coarse class of v."""
    rows = np.abs(rows)
    # weight the support only: exp(m dist) may overflow where the entry is 0
    weight = np.exp(mass * _block_distances(fam.spec), out=np.zeros(rows.shape),
                    where=rows != 0.0) * rows
    cols = np.zeros(rows.shape[:-2] + (fam.n_block,))
    np.add.at(cols, (..., _block_index(fam.spec, fam.coords("fine"))), weight.sum(axis=-2))
    return fam.vol_f * np.maximum(weight.sum(axis=-1).max(axis=-1), cols.max(axis=-1))


def _z_norm(a: ZKernel, mass: float) -> float:
    spec = a.spec
    offsets = window_offsets(spec, a.radii)
    dist = np.linalg.norm(offsets * spec.spacings(), axis=1)
    weight = np.exp(mass * dist)
    rows = (np.abs(a.entries) * weight).sum(axis=1).max()
    src = _block_index(spec, _block_coords(spec)[:, None, :] - offsets)  # class of v - d
    cols = (np.abs(a.entries[src, np.arange(len(offsets))]) * weight).sum(axis=1).max()
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
        return float(_torus_norm(kernel.family, kernel.rows, mass))
    if isinstance(kernel, ZKernel):
        return _z_norm(kernel, mass)
    if isinstance(kernel, ZKernelFC):
        coarse_sum, fine_sum = _asym_sums(
            kernel.spec, kernel.radii, np.asarray(kernel.entries), mass
        )
        return max(coarse_sum, fine_sum)
    raise TypeError(f"no weighted norm defined for {type(kernel).__name__}")


def _log_tail(gap: float, n: int, delta: float, rho: float) -> float:
    """log of e^(gap delta) S_n int_{rho - delta}^inf r^(n-1) e^(-gap r) dr.

    A lattice point x with |x| > rho owns the cell of volume vol centred on
    it, whose points y have |y| > rho - delta and e^(-gap |x|) <= e^(gap delta)
    e^(-gap |y|); so vol times the sum over those x is at most this integral,
    e^(-gap a) sum_k (n-1)!/k! a^k / gap^(n-k) with a = max(rho - delta, 0).
    """
    a = max(rho - delta, 0.0)
    logs = [math.lgamma(n) - math.lgamma(k + 1) + k * math.log(a or 1.0)
            - (n - k) * math.log(gap) for k in range(n if a else 1)]
    top = max(logs)
    return (math.log(2.0) + n / 2 * math.log(math.pi) - math.lgamma(n / 2)
            + gap * (delta - a) + top + math.log(sum(math.exp(c - top) for c in logs)))


def decay_constant(gap: float, spacings) -> float:
    """Certified upper bound on vol * sum over the integer lattice of
    exp(-gap * |physical point|).

    The points of a ball of radius rho are summed exactly, a chunk of slabs
    of the finest axis at a time, and the rest is covered by the majorant of
    ``_log_tail``.  rho grows until that majorant is below ``DECAY_TAIL_RTOL``
    of a lower bound on the sum, or until the ball's box would pass
    ``DECAY_POINT_BUDGET`` points: time and memory stay bounded for every
    gap > 0, and past the budget the bound is looser but still holds.
    """
    gap = float(gap)
    if gap <= 0.0:
        raise ValueError(f"decay gap must be positive, got {gap}")
    eps = np.asarray(spacings, dtype=float).reshape(-1)
    if (eps <= 0).any():
        raise ValueError(f"spacings must be positive, got {spacings!r}")
    eps = np.sort(eps)  # the sum is symmetric in the axes; slab the finest
    n, vol, delta = len(eps), float(np.prod(eps)), 0.5 * float(np.linalg.norm(eps))
    # the sum is at least the origin's term, and the cell argument reversed
    log_target = math.log(DECAY_TAIL_RTOL) + max(
        math.log(vol), _log_tail(gap, n, delta, 0.0) - 2.0 * gap * delta)
    rho = float(eps[0])
    while (_log_tail(gap, n, delta, rho) > log_target
           and np.prod(2 * (1.1 * rho // eps) + 1) <= DECAY_POINT_BUDGET):
        rho *= 1.1
    m = (rho // eps).astype(np.int64)
    cross = np.zeros(1)  # squared norms over the axes after the first
    for mi, e in zip(m[1:], eps[1:]):
        cross = (cross[:, None] + (np.arange(-mi, mi + 1) * e) ** 2).ravel()
        cross = cross[cross <= rho * rho]
    u = float(np.finfo(float).eps)
    slope = gap * (1.0 - (n + 6) * u)  # |x| is computed within (n + 6) / 2 ulps
    sums, step = [], max(1, DECAY_CHUNK // len(cross))
    for start in range(0, m[0] + 1, step):
        j = np.arange(start, min(start + step, m[0] + 1))
        sq = ((j * eps[0]) ** 2)[:, None] + cross
        terms = np.exp(-slope * np.sqrt(sq), where=sq <= rho * rho, out=np.zeros(sq.shape))
        mirror = np.where(j == 0, 1.0, 2.0)[:, None]  # slabs j and -j
        sums.append(float((mirror * terms).sum()))  # pairwise, with no axis
    # exp is within 4 ulps, numpy's pairwise sum of a chunk (at most 2^26
    # terms) rounds at most 40 times, and fsum and the products a few more
    log_tail = _log_tail(gap, n, delta, rho)
    return float(vol * math.fsum(sums) * (1.0 + 80.0 * u)
                 + (math.exp(log_tail) if log_tail < 709.0 else math.inf))


def fiber_decay_bound(f: FiberFunction, radii, mass: float) -> np.ndarray:
    """Entrywise bound exp(-mass |d|) sup |shifted fiber| on the window.

    Every entry of the kernel recovered by ``inverse_fiber`` is bounded in
    absolute value by the returned array.  The offsets d along one primitive
    lattice direction u = d / gcd(d) share the shift eta = -mass u / |u|, so
    one shifted quadrature per direction bounds all of them; at mass 0 one
    unshifted quadrature bounds every offset.
    """
    mass = float(mass)
    spec = f.spec
    radii = normalize_radii(spec, radii)
    _probe_quasi_periodicity(f)
    grid = exact_grid_sizes(spec, radii)
    if mass == 0.0:  # every direction's shift is 0, so one quadrature bounds all
        return _inversion_sums(f, radii, np.zeros(spec.n_axes), grid)[1]
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
    value, _ = _inversion_sums(f, radii, eta, exact_grid_sizes(spec, radii))
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
