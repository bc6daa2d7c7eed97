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

is one forward FFT per row.  The block phases are stored as their two
factors exp(i k.b) and exp(i l.b).  The inverse runs on the torus of N * l
sites per axis for any grid of N dual-coarse momenta per axis, which is how
``periodization.inverse_fiber`` recovers a window kernel from its samples.

A ``PeriodicKernel`` stores exactly those rows, shape (n_block, n_fine),
read-only; ``periodic_kernel`` takes nothing else.  One cached block-major
table holds the fine index of b + x, b a block site and x a coarse cell;
translation by x maps row b to the row of b + x, so the kernel acts by

    (A phi)(b + x) = vol_f * sum_w A(b, w) phi(w + x),

a gather over n_block coarse cells at a time; the transpose has the rows
A*(b, c + x) = A(c, b - x), c a block site.  The fiber of A B at k is
fiber_A(k) fiber_B(k) (an algebra homomorphism), so ``compose`` multiplies
the two stacks class by class.  The dense ``entries`` view is kept for test
oracles only: it is expanded on each read, and no library path reads it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import FieldVector, LatticeSpec, Record, _frozen, _shape

__all__ = [
    "PeriodicKernel",
    "BlochFiber",
    "periodic_kernel",
    "identity_kernel",
    "apply_kernel",
    "compose",
    "bloch_fibers",
    "reconstruct",
    "transpose_kernel",
]


class PeriodicKernel(Record):
    """Kernel on the fine torus, coarse-translation invariant.

    Stored as its block rows: ``rows[b]`` is A(b, .) over the fine sites,
    b over ``family.coords("block")``; the row of b + x, x a coarse cell, is
    its translate.  ``entries`` is the dense (n_fine, n_fine) view for test
    oracles, read by no library path: it is expanded on each read, one
    coarse cell at a time, and not kept.
    """

    family: LatticeSpec
    rows: np.ndarray  # (n_block, n_fine) complex

    @property
    def entries(self) -> np.ndarray:
        """The dense kernel: A(b + x, v) = A(b, v - x) over coarse steps x."""
        fam = self.family
        out = np.empty((fam.n_fine, fam.n_fine), dtype=complex)
        for plus, shift in zip(_block_major(fam).T, fam.coords("coarse") * fam.ratios()):
            out[plus] = self.rows[:, fam.indices("fine", fam.coords("fine") - shift)]
        return _frozen(out)


class BlochFiber(Record):
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


@lru_cache(maxsize=8)
def _block_major(family: LatticeSpec) -> np.ndarray:
    """Fine-site indices of b + x, read-only: b over ``family.coords("block")``
    (rows), x over the coarse cells (columns); column 0 holds the block sites."""
    steps = family.coords("coarse") * family.ratios()
    return _frozen(family.indices("fine", family.coords("block")[:, None, :] + steps))


@lru_cache(maxsize=8)
def _fine_translates(family: LatticeSpec):
    """``apply_kernel``'s read-only tables: the block index c and the coarse
    index y of each fine site w = c + y, and the coarse index of y + x over y, x."""
    fine, coarse = family.coords("fine"), family.coords("coarse")
    c, y = family.indices("block", fine), family.indices("coarse", fine // family.ratios())
    return tuple(map(_frozen, (c, y, family.indices("coarse", coarse[:, None, :] + coarse))))


def _check_field(family: LatticeSpec, field: FieldVector, tag: str) -> None:
    """Refuse a field that is not one value per site of the ``tag`` lattice."""
    if field.tag != tag:
        raise ValueError(f"kernel acts on {tag}-lattice fields, got {field.tag!r}")
    if field.values.shape != (family.count(tag),):
        raise ValueError(f"kernel acts on fields of {family.count(tag)} {tag} sites, "
                         f"got values of shape {field.values.shape}")


def periodic_kernel(family: LatticeSpec, rows) -> PeriodicKernel:
    """Wrap the block rows of a coarse-invariant kernel.

    ``rows`` has shape (n_block, n_fine), row b = A(b, .) with b in
    ``family.coords("block")`` order; any rows define an invariant kernel.
    With a single coarse cell the rows are the whole kernel.
    """
    arr = np.array(rows, dtype=complex)
    shape = (family.n_block, family.n_fine)
    if arr.shape != shape:
        dense = " (a dense kernel: pass its block rows)" if arr.shape == (
            family.n_fine, family.n_fine) else ""
        raise ValueError(f"expected block rows of shape {shape}, got {arr.shape}{dense}")
    return PeriodicKernel(family, _frozen(arr))


def identity_kernel(family: LatticeSpec) -> PeriodicKernel:
    """Kernel of the identity operator, (1/vol_f) on the diagonal."""
    rows = np.zeros((family.n_block, family.n_fine), dtype=complex)
    rows[np.arange(family.n_block), _block_major(family)[:, 0]] = 1.0 / family.vol_f
    return periodic_kernel(family, rows)


def apply_kernel(kernel: PeriodicKernel, field: FieldVector) -> FieldVector:
    """Position-space action vol_f * sum_u' A(u, u') phi(u'), from the rows:
    (A phi)(b + x) = vol_f * sum_w A(b, w) phi(w + x), over n_block coarse
    cells x at a time; w = c + y, c a block site and y a coarse cell."""
    fam = kernel.family
    _check_field(fam, field, "fine")
    block, (c, y, plus) = _block_major(fam), _fine_translates(fam)
    values, rows = field.values[block], fam.vol_f * kernel.rows  # phi(c + y) at [c, y]
    out = np.empty(fam.n_fine, dtype=complex)
    for start in range(0, fam.n_coarse, fam.n_block):
        chunk = slice(start, start + fam.n_block)
        out[block[:, chunk]] = rows @ values[c[:, None], plus[y, chunk]]
    return fam.field("fine", out)


def compose(a: PeriodicKernel, b: PeriodicKernel) -> PeriodicKernel:
    """Kernel of the operator product, vol_f * sum_u'' A(u,u'') B(u'',u').

    The fiber of A B at each dual-coarse class is the product of the
    fibers of A and B there; ``reconstruct`` resums the products."""
    if a.family != b.family:
        raise ValueError("kernels live on different lattice families")
    fibers = bloch_fibers(a)
    # rebinding frees the input fibers before reconstruct
    fibers = fibers.replace(entries=fibers.entries @ bloch_fibers(b).entries)
    return reconstruct(a.family, fibers)


def transpose_kernel(a: PeriodicKernel) -> PeriodicKernel:
    """Kernel of the transposed operator, A*(u, u') = A(u', u), from the
    rows: A*(b, c + x) = A(c, b - x)."""
    fam = a.family
    block = _block_major(fam)  # c + x, (n_block, n_coarse)
    neg = fam.indices("coarse", -fam.coords("coarse"))
    rows = np.empty_like(a.rows)
    rows[:, block] = np.swapaxes(a.rows[:, block[:, neg]], 0, 1)
    return periodic_kernel(fam, rows)


def _block_phase_matrix(spec: LatticeSpec, dual, direct) -> np.ndarray:
    """exp(i p.v): momenta p in dual-block steps as rows (a fraction of a
    step inside the dual-coarse zone), fine-step coords v as columns."""
    t = (np.asarray(dual) / spec.ratios().astype(float)) @ np.asarray(direct, dtype=np.int64).T
    return np.exp(2j * np.pi * t)


@lru_cache(maxsize=8)
def _fiber_layout(spec: LatticeSpec, grid: tuple[int, ...]):
    """The torus with grid * l sites per axis: its shape, where each fiber
    sits on its fine dual, and the two factors of its block phases, read-only.

    The flat dual-fine indices of p = k + l are (prod grid, n_block), k over
    the grid's dual-coarse momenta in row-major order and l over the dual
    block; exp(i k.b) is (prod grid, n_block) and exp(i l.b) is (n_block,
    n_block) indexed [l, b], over the block sites b.
    """
    n, block = np.asarray(grid), spec.coords("block")
    shape = tuple((n * spec.ratios()).tolist())
    reps = np.indices(grid).reshape(len(n), -1).T
    idx = np.ravel_multi_index(tuple((reps[:, None, :] + block * n).T), shape).T
    tables = idx, _block_phase_matrix(spec, reps / n, block), _block_phase_matrix(spec, block, block)
    return (shape, *map(_frozen, tables))


def bloch_fibers(kernel: PeriodicKernel) -> BlochFiber:
    """The kernel's momentum fibers as one canonical, read-only stack.

    ``entries[i]`` is the fiber at the dual-coarse momentum ``rep[i]``, with
    ``rep`` = ``family.coords("dual_coarse")``, one per class.  They come
    from the block rows, one inverse FFT per row.
    """
    fam = kernel.family
    shape, idx, ek, el = _fiber_layout(fam, _shape(fam, "coarse"))
    # R_b(p) = sum_v A(b, v) exp(i p.v): the unnormalized inverse transform
    r_b = np.fft.ifftn(kernel.rows.reshape((fam.n_block,) + shape), axes=range(1, 1 + len(shape)),
                       norm="forward").reshape(fam.n_block, fam.n_fine)
    # fiber[l, l'] = vol_f / n_block * sum_b exp(-i l.b) exp(-i k.b) R_b(k+l')
    entries = np.conj(el) @ (np.conj(ek)[..., None] * np.moveaxis(r_b[:, idx], 0, 1))
    entries *= fam.vol_f / fam.n_block
    reps = fam.coords("dual_coarse")
    return BlochFiber(reps * fam.steps("dual_coarse"), _frozen(entries), reps)


def reconstruct(family: LatticeSpec, fibers: BlochFiber) -> PeriodicKernel:
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
    return periodic_kernel(family, _fiber_rows(family, _shape(family, "coarse"), fibers.entries))


def _fiber_rows(spec: LatticeSpec, grid: tuple[int, ...], blocks: np.ndarray) -> np.ndarray:
    """Block rows (..., n_block, prod(grid * l)) of the kernels on the torus
    with grid * l sites per axis whose canonical fiber stacks are ``blocks``
    (..., prod grid, n_block, n_block); one FFT per row, each kernel bitwise
    as if alone."""
    shape, idx, ek, el = _fiber_layout(spec, grid)
    # G_b(k+l') = exp(i k.b) sum_l exp(i l.b) F_k[l, l'], scattered onto the
    # fine dual; the classes cover it exactly once
    g = el.T @ blocks
    g *= ek[..., None]
    lead = blocks.shape[:-3]
    spectrum = np.empty(lead + (spec.n_block, math.prod(shape)), dtype=complex)
    spectrum[..., idx] = np.moveaxis(g, -3, -2)
    del g
    rows = np.fft.fftn(spectrum.reshape(lead + (spec.n_block,) + shape),
                       axes=range(-len(shape), 0))
    rows /= spec.vol_c * math.prod(grid)
    return rows.reshape(spectrum.shape)
