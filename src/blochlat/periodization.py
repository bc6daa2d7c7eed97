"""Infinite-lattice kernels, their periodizations, and momentum fibers.

Kernels a(u, u') on the infinite fine lattice that are invariant under the
coarse sublattice and supported in a window |u' - u| <= radius are stored as
one finitely supported row per block representative.  Wrapping the second
argument around the torus gives the periodized kernel

    A([u], [u']) = sum_z a(u, u' + z),    z over the torus period lattice,

which is exact (one term per pair) as long as the window fits inside a
single period.  The momentum fiber of such a kernel,

    fiber(k)[l, l'] = vol_f / n_block * sum_{w in block, u' in lattice}
                      exp(-i l.w) a(w, u') exp(i l'.u') exp(-i k.(w - u')),

is an entire function of k (the sums are finite) and quasi-periodic under
the dual-block reciprocal lattice: fiber(k + p) equals fiber(k) with both
dual-block indices shifted by p.  ``inverse_fiber`` undoes the transform by
quadrature over the dual-coarse Brillouin zone; the integrand is a
trigonometric polynomial, so a uniform grid of ``2 * radius + 1`` nodes per
axis is always exact.  Every fiber evaluator, from ``fiber_hat`` on, takes
a stack of momenta (..., n_axes) and returns the stacked fibers (...,
n_block, n_block); a single momentum gives a single fiber.

An asymmetric kernel between the fine and coarse lattices is one
coarse-invariant window table, ``ZKernelFC``, read in two directions: the
``_fc`` functions read it as b(u, x), fine rows and coarse columns, and the
``_cf`` functions as its transpose c(x, u) = b(u, x).  Either reading
carries a single dual-block index in momentum space, so its fibers at
momenta (..., n_axes) are vectors (..., n_block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .lattice import (
    FieldVector,
    LatticeFamily,
    LatticeSpec,
    _coords_cache,
    extents,
    steps,
)
from .periodic_op import BlochFiber, PeriodicKernel, periodic_kernel

__all__ = [
    "ZKernel",
    "ZKernelFC",
    "ZField",
    "FiberFunction",
    "window_offsets",
    "window_shape",
    "zkernel",
    "zkernel_fc",
    "identity_zkernel",
    "shift_zkernel",
    "translation_invariant_zkernel",
    "periodize",
    "compose_z",
    "fiber_hat",
    "fiber_function",
    "fiber_hat_fc",
    "fiber_hat_cf",
    "inverse_fiber",
    "apply_fc",
    "apply_cf",
    "zfield",
    "apply_z",
    "z_inner",
    "exact_grid_sizes",
]

QUASI_PERIOD_RTOL = 1e-10
PROBE_SEED = 5  # seeds the quasi-periodicity probe of every inversion
INVERSION_CHUNK = 32  # quadrature nodes stacked per pass of the inversion

AXIS_NAMES = {0: "time"}


def _axis_name(axis: int) -> str:
    return AXIS_NAMES.get(axis, f"space {axis - 1}")


def normalize_radii(spec: LatticeSpec, radii) -> tuple[int, ...]:
    """Broadcast a scalar support radius to one value per axis."""
    arr = np.asarray(radii, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(spec.n_axes, int(arr), dtype=np.int64)
    if arr.shape != (spec.n_axes,) or (arr < 0).any():
        raise ValueError(
            f"support radii must be {spec.n_axes} nonnegative integers, got {radii!r}"
        )
    return tuple(int(r) for r in arr)


def window_shape(spec: LatticeSpec, radii) -> tuple[int, ...]:
    return tuple(2 * r + 1 for r in normalize_radii(spec, radii))


def window_offsets(spec: LatticeSpec, radii) -> np.ndarray:
    """Integer offsets of the support window, shape (prod(2r+1), 1+dim)."""
    radii = normalize_radii(spec, radii)
    grids = np.indices(window_shape(spec, radii)).reshape(spec.n_axes, -1).T
    return grids.astype(np.int64) - np.asarray(radii, dtype=np.int64)


def _block_coords(spec: LatticeSpec) -> np.ndarray:
    """Block site coords, canonical order; the cached read-only table."""
    return _coords_cache(spec, "block")


def _block_index(spec: LatticeSpec, coords: np.ndarray) -> np.ndarray:
    """Block class of integer coords, shape (..., 1+dim) -> (...)."""
    ratios = spec.ratios()
    arr = np.asarray(coords, dtype=np.int64) % ratios
    return np.ravel_multi_index(tuple(np.moveaxis(arr, -1, 0)), tuple(int(r) for r in ratios))


def _n_block(spec: LatticeSpec) -> int:
    return int(np.prod(spec.ratios()))


@dataclass(frozen=True)
class ZKernel:
    """Coarse-invariant kernel on the infinite fine lattice.

    ``entries[w, d]`` holds a(w, w + offset(d)) with w over block
    representatives in canonical order and offsets over the window, flattened
    row-major; the kernel value anywhere follows by coarse invariance.
    """

    spec: LatticeSpec
    radii: tuple[int, ...]
    entries: np.ndarray  # (n_block, prod(2r+1)) complex


@dataclass(frozen=True)
class ZKernelFC:
    """Coarse-invariant kernel between the fine and coarse lattices.

    ``entries[w, m]`` holds b(w, x) = c(x, w) at the coarse point x with
    coarse-step offset m over the window.  ``fiber_hat_fc``, ``apply_fc``
    and ``scaled_fiber_fc`` read the table as b(u, x), fine rows and coarse
    columns; ``fiber_hat_cf``, ``apply_cf`` and ``scaled_fiber_cf`` read it
    as the transpose c(x, u), coarse rows and fine columns.
    """

    spec: LatticeSpec
    radii: tuple[int, ...]
    entries: np.ndarray


@dataclass(frozen=True)
class FiberFunction:
    """A momentum-fiber evaluator: momenta (..., n_axes) -> dual-block
    matrices (..., n_block, n_block), so a whole stack of momenta is one call.

    Carries the lattice geometry so consumers can probe the quasi-periodicity
    that any legitimate fiber function must satisfy.
    """

    spec: LatticeSpec
    matrix_at: Callable[[np.ndarray], np.ndarray]


def _wrap_entries(spec: LatticeSpec, radii, entries) -> tuple[tuple[int, ...], np.ndarray]:
    radii = normalize_radii(spec, radii)
    n_window = int(np.prod(window_shape(spec, radii)))
    arr = np.array(entries, dtype=complex).reshape(_n_block(spec), n_window)
    arr.flags.writeable = False
    return radii, arr


def zkernel(spec: LatticeSpec, radii, entries) -> ZKernel:
    radii, arr = _wrap_entries(spec, radii, entries)
    return ZKernel(spec, radii, arr)


def zkernel_fc(spec: LatticeSpec, radii, entries) -> ZKernelFC:
    radii, arr = _wrap_entries(spec, radii, entries)
    return ZKernelFC(spec, radii, arr)


def identity_zkernel(spec: LatticeSpec) -> ZKernel:
    """Kernel of the identity operator: (1/vol_f) at zero offset."""
    entries = np.zeros((_n_block(spec), 1), dtype=complex)
    entries[:, 0] = 1.0 / spec.vol_f
    return zkernel(spec, 0, entries)


def shift_zkernel(spec: LatticeSpec, shift) -> ZKernel:
    """Kernel of translation by a fixed fine-lattice vector."""
    shift = np.asarray(shift, dtype=np.int64)
    radii = tuple(int(abs(s)) for s in shift)
    offsets = window_offsets(spec, radii)
    entries = np.zeros((_n_block(spec), len(offsets)), dtype=complex)
    entries[:, int(np.flatnonzero((offsets == shift).all(axis=1))[0])] = 1.0 / spec.vol_f
    return zkernel(spec, radii, entries)


def translation_invariant_zkernel(spec: LatticeSpec, radii, profile) -> ZKernel:
    """Kernel a(u, u') = alpha(u' - u) from a window of profile values."""
    radii = normalize_radii(spec, radii)
    row = np.asarray(profile, dtype=complex).reshape(-1)
    entries = np.tile(row, (_n_block(spec), 1))
    return zkernel(spec, radii, entries)


# ---------------------------------------------------------------------------
# periodization and algebra
# ---------------------------------------------------------------------------


def _check_window_fits(spec: LatticeSpec, radii, torus_extents) -> None:
    for axis, (r, ext) in enumerate(zip(radii, torus_extents)):
        if 2 * r + 1 > ext:
            raise ValueError(
                f"support window wraps onto itself along the {_axis_name(axis)} "
                f"axis: width {2 * r + 1} exceeds torus extent {int(ext)}"
            )


def periodize(a: ZKernel, family: LatticeFamily) -> PeriodicKernel:
    """Wrap an infinite-lattice kernel around the torus.

    Exact because the window fits inside one period, so at most one image of
    each entry lands on any torus pair.  Only the block rows are filled;
    coarse invariance gives the rest.
    """
    spec = a.spec
    if family.spec != spec:
        raise ValueError("kernel and family carry different lattice specs")
    _check_window_fits(spec, a.radii, extents(spec, "fine"))
    cols = family.indices("fine", _block_coords(spec)[:, None, :]
                          + window_offsets(spec, a.radii))
    rows = np.zeros((family.n_block, family.n_fine), dtype=complex)
    rows[np.arange(family.n_block)[:, None], cols] = a.entries
    return periodic_kernel(family, rows)


def compose_z(a: ZKernel, b: ZKernel) -> ZKernel:
    """Operator product vol_f * sum_u'' a(u, u'') b(u'', u')."""
    spec = a.spec
    if b.spec != spec:
        raise ValueError("kernels carry different lattice specs")
    radii = tuple(ra + rb for ra, rb in zip(a.radii, b.radii))
    shape_c = window_shape(spec, radii)
    shape_b = window_shape(spec, b.radii)
    block = _block_coords(spec)
    offs_a = window_offsets(spec, a.radii)
    n_block = _n_block(spec)
    out = np.zeros((n_block,) + shape_c, dtype=complex)
    b_grid = b.entries.reshape((n_block,) + shape_b)
    for w_idx, w in enumerate(block):
        mids = _block_index(spec, w + offs_a)
        for a_val, d_mid, mid_idx in zip(a.entries[w_idx], offs_a, mids):
            if a_val == 0.0:
                continue
            # b row at the block class of w + d_mid, shifted by d_mid
            corner = tuple(
                slice(rc + dm - rb, rc + dm + rb + 1)
                for rc, dm, rb in zip(radii, d_mid, b.radii)
            )
            out[w_idx][corner] += spec.vol_f * a_val * b_grid[mid_idx]
    return zkernel(spec, radii, out.reshape(n_block, -1))


# ---------------------------------------------------------------------------
# momentum fibers
# ---------------------------------------------------------------------------


def _block_phase_matrix(spec: LatticeSpec, direct_coords: np.ndarray) -> np.ndarray:
    """exp(i l.v): dual-block momenta as rows, fine-step coords as columns."""
    ratios = spec.ratios().astype(float)
    bhat = _block_coords(spec)
    t = (bhat / ratios) @ np.asarray(direct_coords, dtype=np.int64).T
    return np.exp(2j * np.pi * t)


def _momentum(spec: LatticeSpec, k) -> np.ndarray:
    """A momentum stack (..., n_axes) as a float or complex array; the one
    shape check of every fiber evaluator."""
    arr = np.asarray(k)
    if arr.shape[-1:] != (spec.n_axes,):
        raise ValueError(
            f"momentum must have {spec.n_axes} components, got shape {arr.shape}"
        )
    return arr.astype(complex) if np.iscomplexobj(arr) else arr.astype(float)


@lru_cache(maxsize=32)
def _window_tables(spec: LatticeSpec, radii: tuple[int, ...]):
    """The k-independent tables of ``fiber_hat`` and the inversion, read-only:
    window displacements offset * eps, exp(i l.d) over the window, exp(i l.w)
    over the block, and the block class of w + d over (w, window)."""
    offsets = window_offsets(spec, radii)
    block = _block_coords(spec)
    tables = (offsets * spec.spacings(), _block_phase_matrix(spec, offsets),
              _block_phase_matrix(spec, block),
              _block_index(spec, block[:, None, :] + offsets))
    for table in tables:
        table.flags.writeable = False
    return tables


def _fiber_stack(a: ZKernel, ks: np.ndarray) -> np.ndarray:
    """Fibers at momenta (..., n_axes), shape (..., n_block, n_block); each
    one is bitwise the single-momentum product, so stacking changes no fiber."""
    spec = a.spec
    disp, eld, ew, _ = _window_tables(spec, normalize_radii(spec, a.radii))
    ekd = np.exp((1j * disp @ ks[..., None])[..., 0])  # exp(i k.d)
    g = a.entries @ np.swapaxes(ekd[..., None, :] * eld, -1, -2)  # (w, l')
    entries = (spec.vol_f / _n_block(spec)) * (np.conj(ew) @ (ew.T * g))
    entries.flags.writeable = False
    return entries


def fiber_hat(a: ZKernel, k) -> BlochFiber:
    """Momentum fiber of an infinite-lattice kernel at (possibly complex) k;
    momenta (..., n_axes) give entries (..., n_block, n_block)."""
    k = _momentum(a.spec, k)
    return BlochFiber(k, _fiber_stack(a, k), None)


def fiber_function(a: ZKernel) -> FiberFunction:
    """Wrap a kernel's fiber transform as an evaluator of momentum stacks."""
    return FiberFunction(a.spec, lambda ks: _fiber_stack(a, _momentum(a.spec, ks)))


@lru_cache(maxsize=32)
def _coarse_window_tables(spec: LatticeSpec, radii: tuple[int, ...]):
    """The k-independent tables of the ``_fc`` and ``_cf`` fibers, read-only:
    offset * l * eps over the coarse window, w * eps and exp(i l.w) over the block."""
    block = _block_coords(spec)
    tables = (window_offsets(spec, radii) * spec.ratios() * spec.spacings(),
              block * spec.spacings(), _block_phase_matrix(spec, block))
    for table in tables:
        table.flags.writeable = False
    return tables


def fiber_hat_fc(b: ZKernelFC, k) -> np.ndarray:
    """Dual-block column vector of a fine-from-coarse kernel at momentum k;
    momenta (..., n_axes) give vectors (..., n_block)."""
    spec = b.spec
    k = _momentum(spec, k)
    disp, wdisp, ew = _coarse_window_tables(spec, normalize_radii(spec, b.radii))
    g = np.exp(1j * k @ disp.T) @ b.entries.T  # sum over x, exp(i k.x)
    ekw = np.exp(-1j * k @ wdisp.T)  # exp(-i k.w)
    return spec.vol_f * ((ekw * g) @ np.conj(ew).T)


def fiber_hat_cf(c: ZKernelFC, k) -> np.ndarray:
    """Dual-block row vector of a coarse-from-fine kernel at momentum k;
    momenta (..., n_axes) give vectors (..., n_block)."""
    spec = c.spec
    k = _momentum(spec, k)
    disp, wdisp, ew = _coarse_window_tables(spec, normalize_radii(spec, c.radii))
    g = np.exp(-1j * k @ disp.T) @ c.entries.T  # sum over x, exp(-i k.x)
    ekw = np.exp(1j * k @ wdisp.T)  # exp(i k.w)
    return spec.vol_f * ((ekw * g) @ ew.T)


def exact_grid_sizes(spec: LatticeSpec, radii) -> tuple[int, ...]:
    """Smallest per-axis quadrature grids that integrate the inversion
    integrand exactly: N * l > 2 * radius along each axis."""
    radii = normalize_radii(spec, radii)
    ratios = spec.ratios()
    return tuple(int(2 * r // l + 1) for r, l in zip(radii, ratios))


def _quadrature_nodes(spec: LatticeSpec, grid: tuple[int, ...]) -> np.ndarray:
    """Uniform tensor grid over the dual-coarse Brillouin zone, (prod N, axes)."""
    circumference = steps(spec, "dual_block")  # 2*pi / (eps * l) per axis
    axes = [circumference[a] * np.arange(n) / n for a, n in enumerate(grid)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _probe_quasi_periodicity(f: FiberFunction) -> None:
    """Reject f unless f(k + t p) is f(k) with both dual-block labels rolled
    by t, for t each unit vector and one seeded nonzero draw, each at a
    seeded k; one momentum per call of f."""
    spec = f.spec
    rng = np.random.Generator(np.random.PCG64(PROBE_SEED))
    recip = steps(spec, "dual_block")
    shape = tuple(int(r) for r in spec.ratios())
    draw = np.zeros(spec.n_axes, dtype=np.int64)
    while not draw.any():
        draw = rng.integers(-2, 3, size=spec.n_axes)
    for t in [*np.eye(spec.n_axes, dtype=np.int64), draw]:
        k = rng.uniform(0.0, 1.0, size=spec.n_axes) * recip
        base = np.asarray(f.matrix_at(k))
        shifted = np.asarray(f.matrix_at(k + t * recip))
        scale = float(np.abs(base).max()) or 1.0
        # index shift of both dual-block labels by t, modulo the block
        grid = base.reshape(shape + shape)
        rolled = np.roll(grid, shift=tuple(-t) + tuple(-t),
                         axis=tuple(range(2 * spec.n_axes)))
        dev = float(np.abs(shifted - rolled.reshape(base.shape)).max())
        if dev > QUASI_PERIOD_RTOL * scale:
            raise ValueError(
                "fiber function violates quasi-periodicity: deviation "
                f"{dev:.3e} at k={k!r}, shift={t!r} exceeds "
                f"{QUASI_PERIOD_RTOL:.0e} * max|fiber| = {QUASI_PERIOD_RTOL * scale:.3e}"
            )


def _quadrature_grid(spec: LatticeSpec, radii: tuple[int, ...],
                     grid_points=None) -> tuple[int, ...]:
    """Nodes per axis: ``2 * radius + 1``, which is always exact, unless
    ``grid_points`` (a count, or one per axis) overrides it."""
    if grid_points is None:
        return tuple(2 * r + 1 for r in radii)
    arr = np.asarray(grid_points, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(spec.n_axes, int(arr))
    grid = tuple(int(n) for n in arr.reshape(-1))
    if len(grid) != spec.n_axes or any(n < 1 for n in grid):
        raise ValueError(
            f"quadrature grid must be {spec.n_axes} positive integers, "
            f"got {grid_points!r}"
        )
    return grid


def _inversion_sums(f: FiberFunction, radii: tuple[int, ...], eta,
                    grid: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Inversion quadrature of f along the contour shifted by i * eta.

    Sums the terms exp(-i kc.d) f(kc)[w, class of w + d] / (vol_c * N) over
    the N nodes kc = k + i * eta of the uniform ``grid``.  Returns that sum,
    which is the kernel entry a(w, w + d) whenever the grid is exact, and the
    sum of the absolute values of its terms, which bounds the entry; both
    are (n_block, n_window).
    """
    spec = f.spec
    d_phys, _, ew, vmap = _window_tables(spec, radii)
    total = np.zeros(vmap.shape, dtype=complex)
    total_abs = np.zeros(vmap.shape)
    nodes = _quadrature_nodes(spec, grid) + 1j * np.asarray(eta, dtype=float)
    for start in range(0, len(nodes), INVERSION_CHUNK):
        chunk = nodes[start:start + INVERSION_CHUNK]
        fibers = np.asarray(f.matrix_at(chunk))
        s = np.take_along_axis(ew.T @ fibers @ np.conj(ew), vmap[None], axis=2)
        terms = np.exp(-1j * chunk @ d_phys.T)[:, None, :] * s
        # the running totals lead each sum, so nodes add in order
        total = np.concatenate([total[None], terms]).sum(axis=0)
        total_abs = np.concatenate([total_abs[None], np.abs(terms)]).sum(axis=0)
    scale = spec.vol_c * len(nodes)
    return total / scale, total_abs / scale


def inverse_fiber(f: FiberFunction, radii, *, grid_points=None) -> ZKernel:
    """Recover the kernel of known support from its fiber function.

    The quadrature takes ``2 * radius + 1`` nodes per axis, which is always
    exact for a kernel supported in the window.  ``grid_points`` (a count,
    or one per axis) replaces that grid verbatim, for oversampling or for
    deliberate undersampling experiments; a grid short of
    ``exact_grid_sizes`` along some axis carries no exactness guarantee.
    """
    spec = f.spec
    radii = normalize_radii(spec, radii)
    _probe_quasi_periodicity(f)
    grid = _quadrature_grid(spec, radii, grid_points)
    value, _ = _inversion_sums(f, radii, 0.0, grid)
    return zkernel(spec, radii, value)


# ---------------------------------------------------------------------------
# torus actions of asymmetric kernels
# ---------------------------------------------------------------------------


def _fine_site_table(family: LatticeFamily) -> np.ndarray:
    """Fine torus index of w + x over block reps (rows) and coarse sites (cols)."""
    spec = family.spec
    block = _block_coords(spec)
    return family.indices("fine", block[:, None, :] + family.coords("coarse") * spec.ratios())


def apply_fc(family: LatticeFamily, b: ZKernelFC, psi: FieldVector) -> FieldVector:
    """Torus action of the periodized kernel: fine field from a coarse one."""
    if psi.tag != "coarse":
        raise ValueError(f"fc kernel acts on coarse fields, got {psi.tag!r}")
    spec = b.spec
    if family.spec != spec:
        raise ValueError("kernel and family carry different lattice specs")
    table = _fine_site_table(family)
    coarse = family.coords("coarse")
    out = np.zeros(family.n_fine, dtype=complex)
    for m_idx, m in enumerate(window_offsets(spec, b.radii)):
        vals = psi.values[family.indices("coarse", coarse + m)]
        out[table] += family.vol_c * np.outer(b.entries[:, m_idx], vals)
    return family.field("fine", out)


def apply_cf(family: LatticeFamily, c: ZKernelFC, phi: FieldVector) -> FieldVector:
    """Torus action of the periodized kernel: coarse field from a fine one."""
    if phi.tag != "fine":
        raise ValueError(f"cf kernel acts on fine fields, got {phi.tag!r}")
    spec = c.spec
    if family.spec != spec:
        raise ValueError("kernel and family carry different lattice specs")
    table = _fine_site_table(family)
    coarse = family.coords("coarse")
    out = np.zeros(family.n_coarse, dtype=complex)
    for m_idx, m in enumerate(window_offsets(spec, c.radii)):
        cols = family.indices("coarse", coarse - m)
        gathered = phi.values[table[:, cols]]  # (n_block, n_coarse)
        out += family.vol_f * c.entries[:, m_idx] @ gathered
    return family.field("coarse", out)


# ---------------------------------------------------------------------------
# finitely supported fields on the infinite lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZField:
    """Finitely supported field on an infinite lattice ('fine' or 'coarse')."""

    spec: LatticeSpec
    kind: str
    coords: np.ndarray  # (n, 1+dim) integer, in the lattice's own steps
    values: np.ndarray  # (n,) complex


def zfield(spec: LatticeSpec, kind: str, coords, values) -> ZField:
    if kind not in ("fine", "coarse"):
        raise ValueError(f"kind must be 'fine' or 'coarse', got {kind!r}")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, spec.n_axes)
    values = np.asarray(values, dtype=complex).reshape(-1)
    if len(coords) != len(values):
        raise ValueError("coords and values disagree in length")
    # merge duplicate support points, in sorted order, so equality tests are
    # canonical; duplicates add in the order given
    keep, which = np.unique(coords, axis=0, return_inverse=True)
    merged = np.zeros(len(keep), dtype=complex)
    np.add.at(merged, which.reshape(-1), values)
    return ZField(spec, kind, keep, merged)


def apply_z(a: ZKernel, phi: ZField) -> ZField:
    """(a phi)(u) = vol_f * sum_u' a(u, u') phi(u'), finite support in, out."""
    spec = a.spec
    if phi.spec != spec or phi.kind != "fine":
        raise ValueError("field must be a fine-lattice field on the same spec")
    offsets = window_offsets(spec, a.radii)
    acc: dict[tuple[int, ...], complex] = {}
    for pt, val in zip(phi.coords, phi.values):
        for col, d in enumerate(offsets):
            u = pt - d
            w_idx = int(_block_index(spec, u[None, :])[0])
            a_val = a.entries[w_idx, col]
            if a_val == 0.0:
                continue
            key = tuple(int(c) for c in u)
            acc[key] = acc.get(key, 0.0) + spec.vol_f * a_val * val
    if not acc:
        return zfield(spec, "fine", np.zeros((1, spec.n_axes), dtype=np.int64), [0.0])
    coords = np.asarray(list(acc.keys()), dtype=np.int64)
    values = np.asarray(list(acc.values()), dtype=complex)
    return zfield(spec, "fine", coords, values)


def z_inner(a: ZField, b: ZField) -> complex:
    """Cell-volume weighted inner product, conjugate-linear in ``a``."""
    if a.spec != b.spec or a.kind != b.kind:
        raise ValueError("fields live on different lattices")
    vol = a.spec.vol_c if a.kind == "coarse" else a.spec.vol_f
    lookup = {tuple(int(c) for c in pt): val for pt, val in zip(b.coords, b.values)}
    total = 0.0 + 0.0j
    for pt, val in zip(a.coords, a.values):
        other = lookup.get(tuple(int(c) for c in pt))
        if other is not None:
            total += np.conj(val) * other
    return complex(vol * total)
