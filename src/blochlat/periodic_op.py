"""Torus operators invariant under coarse translations, and their fibers.

A kernel A(u, u') on the fine torus acts by (A phi)(u) = vol_f * sum_u'
A(u, u') phi(u').  Invariance under the coarse sublattice makes its momentum
matrix

    A_hat(p, p') = vol_f / n_fine * sum_{u, u'} exp(-i p.u) A(u, u') exp(i p'.u')

block diagonal over dual-coarse classes: A_hat(p, p') = 0 unless p and p'
project to the same dual-coarse momentum.  The nonzero blocks are the fibers
fiber(k)[l, l'] = A_hat(k + l, k + l') with l, l' running over the dual
block; ``reconstruct`` resums them into the kernel,

    A(u, u') = 1 / (vol_c * n_coarse) * sum_{k, l, l'}
               exp(i l.u) A_hat(k+l, k+l') exp(-i l'.u') exp(i k.(u-u')),

one summand per dual-coarse class.  The fibers of a kernel are one field
over the dual-coarse torus and are stored as one canonical stack: a
``BlochFiber`` whose ``entries`` are (n_coarse, n_block, n_block), with k
running over ``family.coords("dual_coarse")`` in that order.

Both directions run on the block rows A(b, .), b over the block sites,
which fix the kernel by coarse translation (the Bloch-Floquet reduction).
With R_b(p) = sum_v A(b, v) exp(i p.v), one inverse FFT per row,

    fiber(k)[l, l'] = vol_f / n_block * sum_b exp(-i (k+l).b) R_b(k+l'),

and ``reconstruct`` inverts it: G_b(k+l') = sum_l exp(i (k+l).b)
fiber(k)[l, l'] fills the fine dual once over all classes, and

    A(b, v) = 1 / (vol_c * n_coarse) * sum_p G_b(p) exp(-i p.v)

is one forward FFT per row.

A ``PeriodicKernel`` stores exactly those rows, shape (n_block, n_fine),
read-only; its dense ``entries`` are expanded on first use, one
``np.roll`` of the rows per coarse cell, and cached.  ``periodic_kernel``
takes either the dense (n_fine, n_fine) kernel, which it checks for
coarse-translation invariance and keeps as ``entries``, or the block rows,
which define an invariant kernel and need no check.  ``periodize``,
``reconstruct``, ``bloch_fibers`` and the torus weighted norm work on the
rows and never form the dense kernel; ``apply_kernel``, ``compose`` and
``transpose_kernel`` act on ``entries``.  ``momentum_matrix`` and
``kernel_from_momentum`` evaluate the two-sided displays above with dense
n_fine x n_fine phase tables.  No fiber computation goes through them; they
are the independent oracle: the ``lemBOkervar.a``/``.c`` checks run on them,
and ``lemBOkervar.f`` compares fibers against their diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import FieldVector, LatticeFamily

__all__ = [
    "PeriodicKernel",
    "MomentumMatrix",
    "BlochFiber",
    "periodic_kernel",
    "identity_kernel",
    "apply_kernel",
    "compose",
    "momentum_matrix",
    "kernel_from_momentum",
    "bloch_fibers",
    "reconstruct",
    "transpose_kernel",
]

PERIODICITY_RTOL = 1e-10


@dataclass(frozen=True)
class PeriodicKernel:
    """Kernel on the fine torus, coarse-translation invariant.

    Stored as its block rows: ``rows[b]`` is A(b, .) over the fine sites,
    with b running over ``family.coords("block")``; coarse translation
    gives every other row.  ``entries`` is the dense (n_fine, n_fine)
    kernel, expanded from the rows on first use and cached read-only.
    """

    family: LatticeFamily
    rows: np.ndarray  # (n_block, n_fine) complex

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense kernel: A(b + x, v + x) = A(b, v) over coarse steps x."""
        fam = self.family
        shape, axes = _row_grid(fam)
        grid = self.rows.reshape(shape)
        block = fam.coords("block")
        out = np.empty((fam.n_fine, fam.n_fine), dtype=complex)
        for x in fam.coords("coarse") * fam.spec.ratios():
            out[fam.indices("fine", block + x)] = np.roll(
                grid, tuple(int(c) for c in x), axis=axes
            ).reshape(fam.n_block, fam.n_fine)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class MomentumMatrix:
    """Momentum-space matrix over the fine dual, canonical order."""

    family: LatticeFamily
    entries: np.ndarray  # (n_fine, n_fine) complex


@dataclass(frozen=True)
class BlochFiber:
    """Momentum fibers: dual-block matrices at physical momenta ``k``
    (..., n_axes), complex off the real torus.  ``bloch_fibers`` returns a
    torus kernel's canonical stack, with integer ``rep`` =
    ``family.coords("dual_coarse")`` and k = rep * steps; ``rep`` is None
    for infinite-lattice kernels at continuous momenta.  ``len``, indexing
    and iteration run over the leading axis: ``fibers[i]`` is one fiber.
    """

    k: np.ndarray
    entries: np.ndarray  # (..., n_block, n_block) complex
    rep: np.ndarray | None = None  # (..., n_axes) int

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i) -> BlochFiber:
        return BlochFiber(self.k[i], self.entries[i],
                          None if self.rep is None else self.rep[i])


def _coarse_shift_permutation(family: LatticeFamily, axis: int) -> np.ndarray:
    """Fine-site index permutation for translation by one coarse step."""
    shift = np.zeros(family.spec.n_axes, dtype=np.int64)
    shift[axis] = family.spec.ratios()[axis]
    return family.indices("fine", family.coords("fine") + shift)


def _block_sites(family: LatticeFamily) -> np.ndarray:
    """Fine-site indices of the block sites, in block order."""
    return family.indices("fine", family.coords("block"))


def periodic_kernel(family: LatticeFamily, entries,
                    check: bool = True) -> PeriodicKernel:
    """Wrap a coarse-invariant kernel given densely or by its block rows.

    Dense (n_fine, n_fine) entries are kept as the kernel's ``entries``;
    with ``check`` their invariance is verified on the coarse generators
    only (they generate the group) to relative tolerance 1e-10 of the
    largest entry.  Block rows (n_block, n_fine), row b = A(b, .) in
    ``family.coords("block")`` order, define an invariant kernel and are
    not checked.  With a single coarse cell both shapes, and both orders,
    coincide.
    """
    arr = np.array(entries, dtype=complex)
    n = family.n_fine
    if arr.shape == (family.n_block, n) and family.n_coarse > 1:
        arr.flags.writeable = False
        return PeriodicKernel(family, arr)
    if arr.shape != (n, n):
        raise ValueError(
            f"expected entries of shape ({n}, {n}) or block rows of shape "
            f"({family.n_block}, {n}), got {arr.shape}"
        )
    if check:
        scale = float(np.abs(arr).max()) or 1.0
        for axis in range(family.spec.n_axes):
            perm = _coarse_shift_permutation(family, axis)
            dev = float(np.abs(arr[np.ix_(perm, perm)] - arr).max())
            if dev > PERIODICITY_RTOL * scale:
                raise ValueError(
                    "kernel is not invariant under coarse translations: "
                    f"axis {axis} deviation {dev:.3e} exceeds "
                    f"{PERIODICITY_RTOL:.0e} * max|A| = {PERIODICITY_RTOL * scale:.3e}"
                )
    arr.flags.writeable = False
    rows = arr[_block_sites(family)]
    rows.flags.writeable = False
    kernel = PeriodicKernel(family, rows)
    kernel.__dict__["entries"] = arr  # the dense form is at hand: cache it
    return kernel


def identity_kernel(family: LatticeFamily) -> PeriodicKernel:
    """Kernel of the identity operator, (1/vol_f) on the diagonal."""
    rows = np.zeros((family.n_block, family.n_fine), dtype=complex)
    rows[np.arange(family.n_block), _block_sites(family)] = 1.0 / family.vol_f
    return periodic_kernel(family, rows, check=False)


def apply_kernel(kernel: PeriodicKernel, field: FieldVector) -> FieldVector:
    """Position-space action vol_f * sum_u' A(u, u') phi(u')."""
    if field.tag != "fine":
        raise ValueError(f"kernel acts on fine-lattice fields, got {field.tag!r}")
    fam = kernel.family
    return fam.field("fine", fam.vol_f * kernel.entries @ field.values)


def compose(a: PeriodicKernel, b: PeriodicKernel) -> PeriodicKernel:
    """Kernel of the operator product, vol_f * sum_u'' A(u,u'') B(u'',u')."""
    if a.family.spec != b.family.spec:
        raise ValueError("kernels live on different lattice families")
    return periodic_kernel(
        a.family, a.family.vol_f * a.entries @ b.entries, check=False
    )


def transpose_kernel(a: PeriodicKernel) -> PeriodicKernel:
    """Kernel of the transposed operator, A*(u, u') = A(u', u)."""
    return periodic_kernel(a.family, a.entries.T, check=False)


def _site_phases(family: LatticeFamily) -> np.ndarray:
    """exp(i p.u) with momenta as rows, fine sites as columns."""
    return family.pairing_phases(
        "dual_fine", family.coords("dual_fine"), "fine", family.coords("fine")
    )


def momentum_matrix(kernel: PeriodicKernel) -> MomentumMatrix:
    """Two-sided transform of the kernel into momentum space."""
    fam = kernel.family
    ph = _site_phases(fam)
    out = (fam.vol_f / fam.n_fine) * (np.conj(ph) @ kernel.entries @ ph.T)
    out.flags.writeable = False
    return MomentumMatrix(fam, out)


def kernel_from_momentum(m: MomentumMatrix) -> PeriodicKernel:
    """Invert :func:`momentum_matrix` by the double momentum sum."""
    fam = m.family
    ph = _site_phases(fam)
    factor = fam.hvol_f / (2.0 * np.pi) ** (1 + fam.spec.dim)
    entries = factor * (ph.T @ m.entries @ np.conj(ph))
    return periodic_kernel(fam, entries)


@lru_cache(maxsize=8)
def _fiber_layout(family: LatticeFamily) -> tuple[np.ndarray, np.ndarray]:
    """Where each fiber sits on the fine dual, and its block phases, read-only.

    Returns the flat dual-fine indices of p = k + l, shape (n_coarse,
    n_block), for k over ``family.coords("dual_coarse")`` and l over the
    dual block, and exp(i p.b) over block sites b, shape (n_coarse,
    n_block, n_block) indexed [k, l, b].
    """
    lift = family.extents("dual_fine") // family.extents("dual_block")
    p = family.coords("dual_coarse")[:, None, :] + family.coords("dual_block") * lift
    idx = family.indices("dual_fine", p)
    phases = family.pairing_phases(
        "dual_fine", family.coords("dual_fine")[idx.reshape(-1)],
        "block", family.coords("block"),
    ).reshape(idx.shape + (family.n_block,))
    idx.flags.writeable = False
    phases.flags.writeable = False
    return idx, phases


def _row_grid(family: LatticeFamily) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shape of the block rows stacked as (n_block, *fine extents), and the
    axes of that stack that run over the fine torus, counted from the end."""
    shape = (family.n_block, *(int(e) for e in family.extents("fine")))
    return shape, tuple(range(1 - len(shape), 0))


def bloch_fibers(kernel: PeriodicKernel) -> BlochFiber:
    """The kernel's momentum fibers as one canonical, read-only stack.

    ``entries[i]`` is the fiber at the dual-coarse momentum ``rep[i]``, with
    ``rep`` = ``family.coords("dual_coarse")``, one per class.  They come
    from the block rows, one inverse FFT per row.
    """
    fam = kernel.family
    idx, phases = _fiber_layout(fam)
    shape, axes = _row_grid(fam)
    # R_b(p) = sum_v A(b, v) exp(i p.v): the unnormalized inverse transform
    r_b = np.fft.ifftn(kernel.rows.reshape(shape), axes=axes, norm="forward")
    r_b = r_b.reshape(fam.n_block, fam.n_fine)
    # fiber[l, l'] = vol_f / n_block * sum_b exp(-i (k+l).b) R_b(k+l')
    entries = np.conj(phases) @ np.moveaxis(r_b[:, idx], 0, 1)
    entries *= fam.vol_f / fam.n_block
    entries.flags.writeable = False
    reps = fam.coords("dual_coarse")
    return BlochFiber(reps * fam.steps("dual_coarse"), entries, reps)


def reconstruct(family: LatticeFamily, fibers: BlochFiber) -> PeriodicKernel:
    """Resum the canonical fiber stack of ``bloch_fibers`` into the kernel.

    The block rows come from one FFT per row and are the stored kernel.
    """
    if len(fibers) != family.n_coarse:
        raise ValueError(
            f"need exactly one fiber per dual-coarse class ({family.n_coarse}), "
            f"got {len(fibers)} fibers"
        )
    if fibers.rep is None or not np.array_equal(fibers.rep, family.coords("dual_coarse")):
        raise ValueError("reconstruct needs the canonical fiber stack: rep must be "
                         "family.coords('dual_coarse'), in that order")
    return periodic_kernel(family, _fiber_rows(family, fibers.entries))


def _fiber_rows(family: LatticeFamily, blocks: np.ndarray) -> np.ndarray:
    """Block rows (..., n_block, n_fine) of the kernels whose canonical fiber
    stacks are ``blocks`` (..., n_coarse, n_block, n_block); one FFT per
    row, each kernel bitwise as if alone."""
    idx, phases = _fiber_layout(family)
    # G_b(k+l') = sum_l exp(i (k+l).b) F_k[l, l'], scattered onto the fine
    # dual; the classes cover it exactly once
    lead = blocks.shape[:-3]
    spectrum = np.empty(lead + (family.n_block, family.n_fine), dtype=complex)
    spectrum[..., idx] = np.moveaxis(np.swapaxes(phases, 1, 2) @ blocks, -3, -2)
    shape, axes = _row_grid(family)
    rows = np.fft.fftn(spectrum.reshape(lead + shape), axes=axes)
    rows /= family.vol_c * family.n_coarse
    return rows.reshape(lead + (family.n_block, family.n_fine))
