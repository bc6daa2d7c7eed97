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
dual-block indices shifted by p.  Every fiber evaluator, from ``fiber_hat``
on, takes a stack of momenta (..., n_axes) and returns the stacked fibers
(..., n_block, n_block); a single momentum gives a single fiber.

``inverse_fiber`` undoes the transform on a uniform grid of N nodes per axis
over the dual-coarse Brillouin zone.  The fibers at those nodes are the torus
fibers of the kernel periodized onto N * l sites per axis, so the torus
inverse transform of ``periodic_op`` returns a(w, w + d) plus its images at
d + N * l * c: the grid of ``exact_grid_sizes``, N * l > 2 * radius, is
exact, and a coarser grid aliases by periodization.  The inversion runs
along one imaginary shift; ``norms.fiber_decay_bound`` needs only one sum of
fiber moduli per shift, whose passes every shift shares.

An asymmetric kernel between the fine and coarse lattices is one
coarse-invariant window table, ``ZKernelFC``, read in two directions: the
``_fc`` functions read it as b(u, x), fine rows and coarse columns, and the
``_cf`` functions as its transpose c(x, u) = b(u, x).  Either reading
carries a single dual-block index in momentum space, so its fibers at
momenta (..., n_axes) are vectors (..., n_block).

The window operations are table gathers, with no loop over points or offsets;
``apply_z`` and ``compose_z`` add the per-entry sum's terms in its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .lattice import FieldVector, LatticeSpec, _frozen, _shape
from .periodic_op import (BlochFiber, PeriodicKernel, _block_major, _block_phase_matrix,
                          _check_field, _fiber_layout, _fiber_rows, periodic_kernel)

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


def _axis_integers(spec: LatticeSpec, values, least: int, name: str) -> tuple[int, ...]:
    """One int per axis, each in [least, 2**63), broadcast from a scalar; a
    tuple that is already canonical comes back unchanged.  A float, bool or
    string is refused, not truncated, by a ValueError naming ``name``."""
    if type(values) is tuple and len(values) == spec.n_axes and all(
            type(r) is int and least <= r < 2**63 for r in values):
        return values
    arr = np.asarray(values, dtype=object)
    arr = np.full(spec.n_axes, values, dtype=object) if arr.ndim == 0 else arr
    if arr.shape != (spec.n_axes,) or any(isinstance(r, bool) or not isinstance(
            r, (int, np.integer)) or not least <= r < 2**63 for r in arr):
        kind = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be {spec.n_axes} {kind} integers, got {values!r}")
    return tuple(int(r) for r in arr)


def normalize_radii(spec: LatticeSpec, radii) -> tuple[int, ...]:
    """Broadcast a scalar support radius to one value per axis; a tuple of
    ints that is already canonical comes back unchanged."""
    return _axis_integers(spec, radii, 0, "support radii")


@lru_cache(maxsize=64)
def _window(spec: LatticeSpec, radii: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    shape = tuple(2 * r + 1 for r in radii)
    grids = np.indices(shape).reshape(spec.n_axes, -1).T
    return shape, _frozen(grids.astype(np.int64) - np.asarray(radii, dtype=np.int64))


def window_shape(spec: LatticeSpec, radii) -> tuple[int, ...]:
    return _window(spec, normalize_radii(spec, radii))[0]


def window_offsets(spec: LatticeSpec, radii) -> np.ndarray:
    """Integer offsets of the support window, shape (prod(2r+1), 1+dim),
    shared read-only."""
    return _window(spec, normalize_radii(spec, radii))[1]


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
    return radii, _frozen(np.array(entries, dtype=complex).reshape(spec.n_block, n_window))


def zkernel(spec: LatticeSpec, radii, entries) -> ZKernel:
    radii, arr = _wrap_entries(spec, radii, entries)
    return ZKernel(spec, radii, arr)


def zkernel_fc(spec: LatticeSpec, radii, entries) -> ZKernelFC:
    radii, arr = _wrap_entries(spec, radii, entries)
    return ZKernelFC(spec, radii, arr)


def identity_zkernel(spec: LatticeSpec) -> ZKernel:
    """Kernel of the identity operator: (1/vol_f) at zero offset."""
    entries = np.zeros((spec.n_block, 1), dtype=complex)
    entries[:, 0] = 1.0 / spec.vol_f
    return zkernel(spec, 0, entries)


def shift_zkernel(spec: LatticeSpec, shift) -> ZKernel:
    """Kernel of translation by a fixed fine-lattice vector."""
    shift = np.asarray(shift, dtype=np.int64)
    radii = tuple(int(abs(s)) for s in shift)
    offsets = window_offsets(spec, radii)
    entries = np.zeros((spec.n_block, len(offsets)), dtype=complex)
    entries[:, int(np.flatnonzero((offsets == shift).all(axis=1))[0])] = 1.0 / spec.vol_f
    return zkernel(spec, radii, entries)


def translation_invariant_zkernel(spec: LatticeSpec, radii, profile) -> ZKernel:
    """Kernel a(u, u') = alpha(u' - u) from a window of profile values."""
    radii = normalize_radii(spec, radii)
    row = np.asarray(profile, dtype=complex).reshape(-1)
    entries = np.tile(row, (spec.n_block, 1))
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


def periodize(a: ZKernel, family: LatticeSpec) -> PeriodicKernel:
    """Wrap an infinite-lattice kernel around the torus.

    Exact because the window fits inside one period, so at most one image of
    each entry lands on any torus pair.  Only the block rows are filled;
    coarse invariance gives the rest.
    """
    if family != a.spec:
        raise ValueError("kernel and family carry different lattice specs")
    _check_window_fits(family, a.radii, family.extents("fine"))
    cols = family.indices("fine", family.coords("block")[:, None, :]
                          + window_offsets(family, a.radii))
    rows = np.zeros((family.n_block, family.n_fine), dtype=complex)
    rows[np.arange(family.n_block)[:, None], cols] = a.entries
    return periodic_kernel(family, rows)


def compose_z(a: ZKernel, b: ZKernel) -> ZKernel:
    """Operator product vol_f * sum_u'' a(u, u'') b(u'', u')."""
    spec = a.spec
    if b.spec != spec:
        raise ValueError("kernels carry different lattice specs")
    radii = tuple(ra + rb for ra, rb in zip(a.radii, b.radii))
    offs_a = window_offsets(spec, a.radii)
    # vol_f a(w, w + d_a) b(w + d_a, .) at offsets d_a + d_b of row w, for the
    # nonzero a(w, w + d_a) in row-major order, which np.add.at keeps
    w, d_a = np.nonzero(a.entries != 0.0)
    mids = spec.indices("block", spec.coords("block")[w] + offs_a[d_a])
    products = (spec.vol_f * a.entries[w, d_a])[:, None] * b.entries[mids]
    strides = np.cumprod((1,) + window_shape(spec, radii)[::-1])[::-1]  # out[w, d_c]
    rows = np.column_stack([w, offs_a[d_a] + a.radii]) @ strides
    out = np.zeros(spec.n_block * int(strides[0]), dtype=complex)
    cols = (window_offsets(spec, b.radii) + b.radii) @ strides[1:]
    np.add.at(out, rows[:, None] + cols, products)
    return zkernel(spec, radii, out)


# ---------------------------------------------------------------------------
# momentum fibers
# ---------------------------------------------------------------------------


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
    block = spec.coords("block")
    tables = (offsets * spec.spacings(), _block_phase_matrix(spec, block, offsets),
              _block_phase_matrix(spec, block, block),
              spec.indices("block", block[:, None, :] + offsets))
    return tuple(map(_frozen, tables))


def _fiber_stack(a: ZKernel, ks: np.ndarray) -> np.ndarray:
    """Fibers at momenta (..., n_axes), shape (..., n_block, n_block); each
    one is bitwise the single-momentum product, so stacking changes no fiber."""
    spec = a.spec
    disp, eld, ew, _ = _window_tables(spec, normalize_radii(spec, a.radii))
    ekd = np.exp((1j * disp @ ks[..., None])[..., 0])  # exp(i k.d)
    g = a.entries @ np.swapaxes(ekd[..., None, :] * eld, -1, -2)  # (w, l')
    return _frozen((spec.vol_f / spec.n_block) * (np.conj(ew) @ (ew.T * g)))


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
    block = spec.coords("block")
    tables = (window_offsets(spec, radii) * spec.ratios() * spec.spacings(),
              block * spec.spacings(), _block_phase_matrix(spec, block, block))
    return tuple(map(_frozen, tables))


def _fc_product(spec: LatticeSpec, radii, entries: np.ndarray, k: np.ndarray) -> np.ndarray:
    """vol_f * sum_{w, x} exp(i k.x) entries[w, x] exp(-i (k + l).w), over l."""
    disp, wdisp, ew = _coarse_window_tables(spec, normalize_radii(spec, radii))
    g = np.exp(1j * k @ disp.T) @ entries.T  # sum over x, exp(i k.x)
    ekw = np.exp(-1j * k @ wdisp.T)  # exp(-i k.w)
    return spec.vol_f * ((ekw * g) @ np.conj(ew).T)


def fiber_hat_fc(b: ZKernelFC, k) -> np.ndarray:
    """Dual-block column vector of a fine-from-coarse kernel at momentum k;
    momenta (..., n_axes) give vectors (..., n_block)."""
    return _fc_product(b.spec, b.radii, b.entries, _momentum(b.spec, k))


def fiber_hat_cf(c: ZKernelFC, k) -> np.ndarray:
    """Dual-block row vectors (..., n_block) of a coarse-from-fine kernel at
    momenta k (..., n_axes): conj of ``_fc_product`` of the conjugate table at conj(k)."""
    k = np.conj(_momentum(c.spec, k))
    return np.conj(_fc_product(c.spec, c.radii, np.conj(c.entries), k))


def exact_grid_sizes(spec: LatticeSpec, radii) -> tuple[int, ...]:
    """Smallest per-axis quadrature grids that integrate the inversion
    integrand exactly: N * l > 2 * radius along each axis."""
    radii = normalize_radii(spec, radii)
    ratios = spec.ratios()
    return tuple(int(2 * r // l + 1) for r, l in zip(radii, ratios))


def _quadrature_nodes(spec: LatticeSpec, grid: tuple[int, ...]) -> np.ndarray:
    """Uniform tensor grid over the dual-coarse Brillouin zone, (prod N, axes)."""
    circumference = spec.steps("dual_block")  # 2*pi / (eps * l) per axis
    axes = [circumference[a] * np.arange(n) / n for a, n in enumerate(grid)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@lru_cache(maxsize=32)
def _probe_momenta(spec: LatticeSpec) -> tuple[tuple[np.ndarray, ...], ...]:
    """The probe's (t, k, k + t p) triples: t each unit vector and one seeded
    nonzero draw, each at a seeded k."""
    rng = np.random.Generator(np.random.PCG64(PROBE_SEED))
    recip = spec.steps("dual_block")
    draw = np.zeros(spec.n_axes, dtype=np.int64)
    while not draw.any():
        draw = rng.integers(-2, 3, size=spec.n_axes)
    ts = [*np.eye(spec.n_axes, dtype=np.int64), draw]
    ks = [rng.uniform(0.0, 1.0, size=spec.n_axes) * recip for _ in ts]
    return tuple(tuple(_frozen(x) for x in (t, k, k + t * recip)) for t, k in zip(ts, ks))


def _probe_quasi_periodicity(f: FiberFunction) -> None:
    """Reject f unless f(k + t p) is f(k) with both dual-block labels rolled
    by t, at the momenta of ``_probe_momenta``; one momentum per call of f."""
    spec = f.spec
    shape = _shape(spec, "block")
    for t, k, k_shifted in _probe_momenta(spec):
        base = np.asarray(f.matrix_at(k))
        shifted = np.asarray(f.matrix_at(k_shifted))
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


def _finite_sums(sums: np.ndarray, etas) -> np.ndarray:
    """Return ``sums`` (shift, ...); one that is not finite, as any with such a term, raises."""
    bad = ~np.isfinite(sums.reshape(len(etas), -1)).all(axis=1)
    if bad.any():
        eta = ", ".join(f"{x:.6g}" for x in etas[int(np.argmax(bad))])
        raise ValueError(f"inversion quadrature is not finite along the shift "
                         f"eta=({eta}): the shifted fiber or its phase overflows")
    return sums


def _inversion_sums(f: FiberFunction, radii: tuple[int, ...], eta,
                    grid: tuple[int, ...]) -> np.ndarray:
    """Inversion of f along the contour shifted by i * eta on the uniform
    ``grid``, as window entries (n_block, n_window): entry (w, w + d) of the
    ``_fiber_rows`` of f(k + i eta), times exp(eta.d), which is the image sum
    over c of a(w, w + d + N l c) exp(-eta.N l c)."""
    spec = f.spec
    nodes = _quadrature_nodes(spec, grid) + 1j * eta
    fibers = np.empty((len(nodes), spec.n_block, spec.n_block), dtype=complex)
    cols = np.ravel_multi_index(tuple((spec.coords("block")[:, None, :] + window_offsets(
        spec, radii)).T), _fiber_layout(spec, grid)[0], mode="wrap").T
    with np.errstate(all="ignore"):  # a sum that is not finite is named below
        for start in range(0, len(nodes), INVERSION_CHUNK):
            fibers[start:start + INVERSION_CHUNK] = f.matrix_at(
                nodes[start:start + INVERSION_CHUNK])
        rows = _fiber_rows(spec, grid, fibers)
        sums = rows[np.arange(spec.n_block)[:, None], cols] * np.exp(
            _window_tables(spec, radii)[0] @ eta)
    return _finite_sums(sums, eta[None])


def _modulus_sums(f: FiberFunction, radii: tuple[int, ...], etas,
                  grid: tuple[int, ...], owner) -> np.ndarray:
    """Per row eta of ``etas``, the sum of |f(k + i eta)| in block position
    over the N real nodes k of ``grid``, over vol_c * N; window column d
    reads entry [w, class of w + d] of the sum of its shift ``owner[d]``."""
    spec = f.spec
    _, _, ew, vmap = _window_tables(spec, radii)
    base = _quadrature_nodes(spec, grid)
    nodes = (base + 1j * etas[:, None, :]).reshape(-1, spec.n_axes)
    sums = np.zeros((len(etas), len(ew), len(ew)))
    for start in range(0, len(nodes), INVERSION_CHUNK):  # the shifts share passes
        own = np.arange(start, min(start + INVERSION_CHUNK, len(nodes))) // len(base)
        first = np.flatnonzero(np.diff(own, prepend=-1))  # where each shift starts
        with np.errstate(all="ignore"):  # a sum that is not finite is named below
            fibers = np.asarray(f.matrix_at(nodes[start:start + INVERSION_CHUNK]))
            sums[own[first]] += np.add.reduceat(np.abs(ew.T @ fibers @ np.conj(ew)), first)
    sums = _finite_sums(sums, etas)[owner, np.arange(len(ew))[:, None], vmap]
    return sums / (spec.vol_c * len(base))


def inverse_fiber(f: FiberFunction, radii, *, grid_points=None) -> ZKernel:
    """Recover the kernel of known support from its fiber function.

    The quadrature takes ``exact_grid_sizes`` nodes per axis, the fewest
    that are exact for a kernel supported in the window.  ``grid_points`` (a
    count, or one per axis) replaces that grid verbatim, for oversampling or
    for deliberate undersampling experiments; a grid short of
    ``exact_grid_sizes`` along some axis carries no exactness guarantee.
    """
    spec = f.spec
    radii = normalize_radii(spec, radii)
    _probe_quasi_periodicity(f)
    grid = (exact_grid_sizes(spec, radii) if grid_points is None
            else _axis_integers(spec, grid_points, 1, "quadrature grid"))
    return zkernel(spec, radii, _inversion_sums(f, radii, np.zeros(spec.n_axes), grid))


# ---------------------------------------------------------------------------
# torus actions of asymmetric kernels
# ---------------------------------------------------------------------------


def apply_fc(family: LatticeSpec, b: ZKernelFC, psi: FieldVector) -> FieldVector:
    """Torus action of the periodized kernel: fine field from a coarse one."""
    _check_field(family, psi, "coarse")
    if family != b.spec:
        raise ValueError("kernel and family carry different lattice specs")
    # psi at x + m over (window, coarse cell): wrapped images add in the product
    cols = family.indices("coarse", family.coords("coarse")
                          + window_offsets(family, b.radii)[:, None, :])
    out = np.zeros(family.n_fine, dtype=complex)
    out[_block_major(family)] = family.vol_c * (b.entries @ psi.values[cols])  # at w + x
    return family.field("fine", out)


def apply_cf(family: LatticeSpec, c: ZKernelFC, phi: FieldVector) -> FieldVector:
    """Torus action of the periodized kernel: coarse field from a fine one."""
    _check_field(family, phi, "fine")
    if family != c.spec:
        raise ValueError("kernel and family carry different lattice specs")
    cols = family.indices("coarse", family.coords("coarse")
                          - window_offsets(family, c.radii)[:, None, :])
    # phi at w + (x - m) over (block site, window, coarse cell)
    gathered = phi.values[_block_major(family)[:, cols]]
    out = family.vol_f * (c.entries.reshape(-1) @ gathered.reshape(-1, family.n_coarse))
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


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y by the textbook formula, as numpy multiplies complex scalars;
    its vectorised complex product may fuse the multiply-adds."""
    re, im = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


def apply_z(a: ZKernel, phi: ZField) -> ZField:
    """(a phi)(u) = vol_f * sum_u' a(u, u') phi(u'), finite support in, out."""
    spec = a.spec
    if phi.spec != spec or phi.kind != "fine":
        raise ValueError("field must be a fine-lattice field on the same spec")
    offsets = window_offsets(spec, a.radii)
    u = phi.coords[:, None, :] - offsets  # (support point, offset) pairs
    a_vals = a.entries[spec.indices("block", u), np.arange(len(offsets))]
    # the nonzero terms, point-major: zfield adds them in this order
    pt, col = np.nonzero(a_vals != 0.0)
    if not len(pt):
        return zfield(spec, "fine", np.zeros((1, spec.n_axes), dtype=np.int64), [0.0])
    return zfield(spec, "fine", u[pt, col],
                  _cmul(spec.vol_f * a_vals[pt, col], phi.values[pt]))


def z_inner(a: ZField, b: ZField) -> complex:
    """Cell-volume weighted inner product, conjugate-linear in ``a``."""
    if a.spec != b.spec or a.kind != b.kind:
        raise ValueError("fields live on different lattices")
    vol = a.spec.vol_c if a.kind == "coarse" else a.spec.vol_f
    # one structured key per row compares lexicographically, zfield's order
    row = [(f"f{i}", np.int64) for i in range(a.spec.n_axes)]
    keys, mine = b.coords.view(row)[:, 0], a.coords.view(row)[:, 0]
    pos = np.searchsorted(keys, mine)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == mine[hit]
    return complex(vol * np.vdot(a.values[hit], b.values[pos[hit]]))
