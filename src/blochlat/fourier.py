"""Discrete Fourier transforms on the lattice family.

Conventions, for a field phi on a direct lattice with cell volume ``vol``:

    transform:  phi_hat(p) = vol * sum_u phi(u) exp(-i p.u)
    inverse:    phi(u) = hvol / (2*pi)**(1+dim) * sum_p phi_hat(p) exp(i u.p)

where ``hvol`` is the matching dual cell volume.  The block lattice uses the
fine cell volume forward and the dual-block volume backward.  With the
canonical row-major enumeration these sums are plain multidimensional DFTs,
so they are evaluated with numpy's FFT; the defining sums are pinned by
brute-force oracles in the test suite.
"""

from __future__ import annotations

import numpy as np

from .lattice import DUAL_OF, DIRECT_OF, FieldVector, LatticeSpec, SpectrumVector, _shape

__all__ = ["transform", "inverse_transform", "plancherel_pairing"]


def _direct_volume(family: LatticeSpec, direct_tag: str) -> float:
    # the block transform weights sites with the fine cell volume
    return family.vol_c if direct_tag == "coarse" else family.vol_f


def transform(family: LatticeSpec, field: FieldVector) -> SpectrumVector:
    """Forward transform of a field; returns values on the dual lattice."""
    if field.tag not in DUAL_OF:
        raise ValueError(f"transform expects a direct-lattice field, got {field.tag!r}")
    ext = _shape(family, field.tag)
    grid = np.asarray(field.values, dtype=complex).reshape(ext)
    out = _direct_volume(family, field.tag) * np.fft.fftn(grid)
    return family.spectrum(DUAL_OF[field.tag], out.reshape(-1))


def inverse_transform(family: LatticeSpec, spectrum: SpectrumVector) -> FieldVector:
    """Inverse transform of dual-lattice values; returns a field."""
    if spectrum.tag not in DIRECT_OF:
        raise ValueError(
            f"inverse_transform expects a dual-lattice spectrum, got {spectrum.tag!r}"
        )
    direct_tag = DIRECT_OF[spectrum.tag]
    ext = _shape(family, direct_tag)
    grid = np.asarray(spectrum.values, dtype=complex).reshape(ext)
    # hvol/(2*pi)**(1+dim) * count == 1/vol for each of the three pairs
    out = np.fft.ifftn(grid) / _direct_volume(family, direct_tag)
    return family.field(direct_tag, out.reshape(-1))


def plancherel_pairing(family: LatticeSpec, f_hat: SpectrumVector,
                       g_hat: SpectrumVector) -> complex:
    """Bilinear momentum-space pairing hvol/(2*pi)**(1+dim) * sum_p f(-p) g(p).

    Equals ``vol * sum_u f(u) g(u)`` for the fields with these transforms.
    """
    if f_hat.tag != g_hat.tag:
        raise ValueError(
            f"spectra live on different lattices: {f_hat.tag!r} vs {g_hat.tag!r}"
        )
    direct_tag = DIRECT_OF[f_hat.tag]
    ext = _shape(family, direct_tag)
    count = family.count(direct_tag)
    grid = np.asarray(f_hat.values, dtype=complex).reshape(ext)
    # reverse each axis modulo the extent: index p -> -p
    flipped = grid
    for axis in range(len(ext)):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    factor = family.volume(f_hat.tag) / (2.0 * np.pi) ** (1 + family.dim)
    return complex(factor * np.sum(flipped.reshape(-1) * g_hat.values))
