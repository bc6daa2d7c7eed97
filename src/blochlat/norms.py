"""Exponentially weighted operator norms and decay bounds from fibers.

The norm of a kernel a with mass m is

    |a|_m = max( sup_row  sum_col vol * exp(m dist) |a| ,
                 sup_col  sum_row vol * exp(m dist) |a| ),

with the cell volume of the summed variable and the physical distance
between row and column sites (geodesic on the torus, Euclidean on the
infinite lattices).  It is submultiplicative under operator composition.
Torus rows, window kernels and fine-coarse tables all read one sum,
``_weighted_sups``, which weighs the support only and refuses a sum that
overflows by naming the mass.

A kernel of known support radius can be bounded through its momentum
fibers.  Along the contour shifted by an imaginary momentum eta, the phase
of the inversion quadrature's offset-d term has modulus exp(eta . d), so
eta of size m against the direction of d bounds every entry by
exp(-m |d|) times the mean modulus of the shifted fiber over the real
quadrature grid.  The offsets along one primitive lattice direction share
that eta, so the bound is one sum of fiber moduli per shift, with no value
quadrature.  The quadrature is exact, so the inequality is a theorem:
summed against exp(m' |d|) it controls |a|_{m'} by
``decay_constant(m - m') / vol_c`` times that mean.  ``decay_constant`` is
itself a certified upper bound on its lattice sum, an exact sum over a ball
plus an analytic majorant of the rest; but the shifted fibers round at about
u exp(m reach), so the computed bound is not certified at moderate masses.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import LatticeSpec, _pair_distances
from .periodic_op import PeriodicKernel
from .periodization import (
    FiberFunction,
    ZKernel,
    ZKernelFC,
    _inversion_sums,
    _modulus_sums,
    _probe_quasi_periodicity,
    _window_tables,
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
    return _pair_distances(spec, "fine", spec.coords("block"), spec.coords("fine"))


def _weighted_sups(table, dist, classes, n_classes: int, mass: float, vols):
    """(sup of the row sums, sup of the column-class sums) of |a| exp(m dist)
    over tables (..., rows, cols), times the cell volumes ``vols`` of the
    summed variables, weighted on the support only: exp(m dist) may overflow
    where the entry is 0.  Entry (r, c) adds into column class
    ``classes[r, c]``, or ``classes[c]`` when one row of classes serves every
    row; a sum that is not finite raises a ValueError naming the mass."""
    table = np.abs(table)
    with np.errstate(over="ignore"):
        weight = np.exp(mass * dist, out=np.zeros(table.shape), where=table != 0.0) * table
        cols = np.zeros(table.shape[:-2] + (n_classes,))
        np.add.at(cols, (..., classes), weight if classes.ndim == 2 else weight.sum(axis=-2))
        sups = vols[0] * weight.sum(axis=-1).max(axis=-1), vols[1] * cols.max(axis=-1)
    if not all(np.isfinite(s).all() for s in sups):
        raise ValueError(f"weighted norm overflows at mass {mass:g}: a weighted row "
                         "or column sum is not finite")
    return sups


def _torus_norm(fam: LatticeSpec, rows: np.ndarray, mass: float) -> np.ndarray:
    """Torus norms of kernels given as block rows (..., n_block, n_fine): the
    row sums of A are those of its block rows, and column v collects the
    block rows' columns in the coarse class of v."""
    classes = fam.indices("block", fam.coords("fine"))
    return np.maximum(*_weighted_sups(rows, _block_distances(fam), classes,
                                      fam.n_block, mass, (fam.vol_f, fam.vol_f)))


def _finite(name: str, value) -> np.ndarray:
    """``value`` as floats; a ValueError naming ``name`` unless all are finite."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return arr


def weighted_norm(kernel, mass: float) -> float:
    """Exponentially weighted norm, dispatching on the kernel kind.

    A window kernel's column v collects the entries (w, d) with w + d in the
    block class of v.  A fine-coarse table, fine point w against the coarse
    point at offset m, sums its rows over the coarse points (vol_c), and the
    column of the coarse origin collects every entry (vol_f)."""
    mass = float(_finite("mass", mass))
    if isinstance(kernel, PeriodicKernel):
        return float(_torus_norm(kernel.family, kernel.rows, mass))
    if not isinstance(kernel, (ZKernel, ZKernelFC)):
        raise TypeError(f"no weighted norm defined for {type(kernel).__name__}")
    spec = kernel.spec
    radii = normalize_radii(spec, kernel.radii)
    if isinstance(kernel, ZKernel):
        disp, _, _, classes = _window_tables(spec, radii)
        sups = _weighted_sups(kernel.entries, np.linalg.norm(disp, axis=1), classes,
                              spec.n_block, mass, (spec.vol_f, spec.vol_f))
    else:
        offsets = window_offsets(spec, radii)
        d = (spec.coords("block")[:, None, :] - offsets * spec.ratios()) * spec.spacings()
        sups = _weighted_sups(kernel.entries, np.linalg.norm(d, axis=2),
                              np.zeros(len(offsets), dtype=np.intp), 1, mass,
                              (spec.vol_c, spec.vol_f))
    return float(max(sups))


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
    # squared norms over one orthant of the axes after the first, each with
    # its 2^(nonzero coordinates) mirror images; a power of two multiplies exactly
    cross, mult = np.zeros(1), np.ones(1)
    for mi, e in zip(m[1:], eps[1:]):
        c = np.arange(mi + 1)
        cross = (cross[:, None] + (c * e) ** 2).ravel()
        mult = (mult[:, None] * np.where(c == 0, 1.0, 2.0)).ravel()
        keep = cross <= rho * rho
        cross, mult = cross[keep], mult[keep]
    u = float(np.finfo(float).eps)
    slope = gap * (1.0 - (n + 6) * u)  # |x| is computed within (n + 6) / 2 ulps
    sums, step = [], max(1, DECAY_CHUNK // len(cross))
    for start in range(0, m[0] + 1, step):
        j = np.arange(start, min(start + step, m[0] + 1))
        sq = ((j * eps[0]) ** 2)[:, None] + cross
        terms = np.exp(-slope * np.sqrt(sq), where=sq <= rho * rho, out=np.zeros(sq.shape))
        mirror = np.where(j == 0, 1.0, 2.0)[:, None] * mult  # slabs j and -j
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
    lattice direction u = d / gcd(d) share the shift eta = -mass u / |u|,
    where the inversion phase has modulus exp(eta.d) = exp(-mass |d|): each
    distinct shift is one sum of fiber moduli, and at mass 0 one sum bounds all.
    """
    mass = float(_finite("mass", mass))
    spec = f.spec
    radii = normalize_radii(spec, radii)
    _probe_quasi_periodicity(f)
    offsets = window_offsets(spec, radii)
    units = offsets // np.maximum(np.gcd.reduce(offsets, axis=1), 1)[:, None] * spec.spacings()
    lengths = np.linalg.norm(units, axis=1, keepdims=True)
    # u / |u| first, so that a huge mass leaves the shift finite; 0 for d = 0
    etas, owner = np.unique(-mass * (units / np.where(lengths > 0, lengths, 1.0)),
                            axis=0, return_inverse=True)
    sums = _modulus_sums(f, radii, etas, exact_grid_sizes(spec, radii), owner.reshape(-1))
    return np.exp(-mass * np.linalg.norm(offsets * spec.spacings(), axis=1)) * sums


def inverse_fiber_shifted(f: FiberFunction, radii, eta) -> ZKernel:
    """Invert the fiber transform along the contour shifted by i * eta.

    Analyticity and quasi-periodicity make the result independent of eta,
    so comparing it with the real-contour inversion checks both.
    """
    spec = f.spec
    radii = normalize_radii(spec, radii)
    eta = _finite("eta", eta)
    if eta.shape != (spec.n_axes,):
        raise ValueError(f"imaginary shift must have {spec.n_axes} components, "
                         f"got {eta.shape}")
    _probe_quasi_periodicity(f)
    return zkernel(spec, radii, _inversion_sums(f, radii, eta, exact_grid_sizes(spec, radii)))


def decay_norm_bound(f: FiberFunction, radii, mass: float,
                     target_mass: float) -> float:
    """Bound on the weighted norm at ``target_mass`` of the kernel behind f.

    Combines the entrywise fiber bound at ``mass`` with the summed decay
    constant at the mass gap; requires mass > target_mass.
    """
    mass, target_mass = float(_finite("mass", mass)), float(_finite("target_mass", target_mass))
    if mass <= target_mass:
        raise ValueError(f"need a positive mass gap, got mass={mass} <= "
                         f"target={target_mass}")
    bound = fiber_decay_bound(f, radii, mass)
    return _decay_norm_from_bound(f.spec, radii, bound, mass, target_mass)


def _decay_norm_from_bound(spec, radii, bound: np.ndarray, mass: float,
                           target_mass: float) -> float:
    """:func:`decay_norm_bound` from a :func:`fiber_decay_bound` at ``mass``;
    the caller guarantees mass > target_mass."""
    offsets = window_offsets(spec, radii)
    lengths = np.linalg.norm(offsets * spec.spacings(), axis=1)
    # peel the decay factor back off: envelope = sup of the averaged |fiber|
    envelope = float((bound * np.exp(mass * lengths)).max())
    return decay_constant(mass - target_mass, spec.spacings()) * envelope
