"""Fine/coarse torus lattices, their duals, and index arithmetic.

The geometry is a (1+dim)-dimensional rectangular torus: one time axis with
spacing ``eps_t`` and ``big_l_t`` sites, and ``dim`` space axes with spacing
``eps_x`` and ``big_l_x`` sites each.  The coarse sublattice keeps every
``l_t``-th (``l_x``-th) site along the respective axis; a block is one
fundamental cell of the coarse sublattice.  Dual lattices follow the usual
reciprocal construction, momenta carrying units of 2*pi over a length.

Sites and momenta are stored as integer multi-indices in the canonical range
``[0, extent)``; physical coordinates are derived on demand so that modular
arithmetic never touches floats.  Six lattice tags name the members of the
family:

=============  =====================================  =================
tag            step per axis                          extent per axis
=============  =====================================  =================
fine           eps                                    big_l
coarse         eps * l                                big_l // l
block          eps                                    l
dual_fine      2*pi / (eps * big_l)                   big_l
dual_coarse    2*pi / (eps * big_l)                   big_l // l
dual_block     2*pi / (eps * l)                       l
=============  =====================================  =================

where ``eps``/``l``/``big_l`` stand for the time value on axis 0 and the
space value on the remaining axes.  A ``LatticeSpec`` fixes all six, so the
spec is the family: its methods give each tagged lattice's extents, steps,
volumes, coords, indices, pairing phases and fields.

The geometry accessors (``spacings``, ``ratios``, ``fine_extents``,
``extents``, ``steps``, ``coords``) are built once per spec and tag and
return shared read-only arrays: copy one before writing to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TAGS",
    "DIRECT_TAGS",
    "DUAL_TAGS",
    "DUAL_OF",
    "DIRECT_OF",
    "LatticeSpec",
    "FieldVector",
    "SpectrumVector",
    "build_family",
    "distance_matrix",
    "inner",
]

TAGS = ("fine", "coarse", "block", "dual_fine", "dual_coarse", "dual_block")
DIRECT_TAGS = ("fine", "coarse", "block")
DUAL_TAGS = ("dual_fine", "dual_coarse", "dual_block")
DUAL_OF = {"fine": "dual_fine", "coarse": "dual_coarse", "block": "dual_block"}
DIRECT_OF = {v: k for k, v in DUAL_OF.items()}


def _check_tag(tag: str) -> None:
    if tag not in TAGS:
        raise ValueError(f"unknown lattice tag {tag!r}; expected one of {TAGS}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LatticeSpec:
    """The lattice family, fixed by its spacings, coarsening ratios and
    torus extents.

    ``big_l_t`` must be divisible by ``l_t`` and ``big_l_x`` by ``l_x`` so
    that the coarse sublattice closes on the torus, and every cell and
    dual-cell volume must be finite and positive.  The site counts
    ``n_fine``, ``n_coarse``, ``n_block`` and the dual cell volumes
    ``hvol_f`` = ``hvol_c`` and ``hvol_b`` are computed once, with the
    per-axis arrays; with the cell volumes ``vol_f`` and ``vol_c`` they
    satisfy ``vol_f * hvol_f = (2*pi)**(1+dim) / n_fine`` and
    ``vol_c * hvol_c = (2*pi)**(1+dim) / n_coarse`` exactly.
    """

    eps_t: float
    eps_x: float
    l_t: int
    l_x: int
    big_l_t: int
    big_l_x: int
    dim: int = 1

    def __post_init__(self) -> None:
        for name in ("eps_t", "eps_x"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        for name in ("l_t", "l_x", "big_l_t", "big_l_x", "dim"):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                    or not 0 < value < 2**63):
                raise ValueError(f"{name} must be a positive integer below 2**63, got {value!r}")
        if self.big_l_t % self.l_t != 0:
            raise ValueError(
                f"l_t={self.l_t} does not divide big_l_t={self.big_l_t}"
            )
        if self.big_l_x % self.l_x != 0:
            raise ValueError(
                f"l_x={self.l_x} does not divide big_l_x={self.big_l_x}"
            )
        d, two_pi_pow = self.dim, 2.0 * np.pi
        try:  # a float power that overflows raises, and so does a division by 0
            two_pi_pow **= 1 + d
            volumes = {"vol_f": self.vol_f, "vol_c": self.vol_c, "hvol_f": two_pi_pow / (
                (self.eps_t * self.big_l_t) * (self.eps_x * self.big_l_x) ** d)}
            volumes["hvol_b"] = two_pi_pow / volumes["vol_c"]
        except (OverflowError, ZeroDivisionError):
            volumes = {"a volume": math.inf}
        for name, value in volumes.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"eps_t={self.eps_t!r}, eps_x={self.eps_x!r} and dim={d} give "
                                 f"{name} = {value!r}, not a finite positive (dual) cell volume")
        for name, value in (
                ("hvol_f", volumes["hvol_f"]), ("hvol_b", volumes["hvol_b"]),
                ("n_fine", self.big_l_t * self.big_l_x**d), ("n_block", self.l_t * self.l_x**d),
                ("n_coarse", (self.big_l_t // self.l_t) * (self.big_l_x // self.l_x) ** d),
                ("_spacings", _frozen(np.array([self.eps_t] + [self.eps_x] * d, dtype=float))),
                ("_ratios", _frozen(np.array([self.l_t] + [self.l_x] * d, dtype=np.int64))),
                ("_fine", _frozen(np.array([self.big_l_t] + [self.big_l_x] * d, dtype=np.int64)))):
            object.__setattr__(self, name, value)

    hvol_c = property(lambda self: self.hvol_f)  # the dual-coarse cell is the dual-fine one

    @property
    def n_axes(self) -> int:
        return 1 + self.dim

    @property
    def vol_f(self) -> float:
        """Fine cell volume."""
        return self.eps_t * self.eps_x**self.dim

    @property
    def vol_c(self) -> float:
        """Coarse cell volume, one block of fine cells."""
        return (self.eps_t * self.l_t) * (self.eps_x * self.l_x) ** self.dim

    def spacings(self) -> np.ndarray:
        """Fine lattice step per axis, shape (1+dim,), shared read-only."""
        return self._spacings

    def ratios(self) -> np.ndarray:
        """Coarsening ratio per axis (block extent), shape (1+dim,), shared read-only."""
        return self._ratios

    def fine_extents(self) -> np.ndarray:
        """Fine torus extent in steps per axis, shape (1+dim,), shared read-only."""
        return self._fine

    # -- the six lattices --------------------------------------------------

    def extents(self, tag: str) -> np.ndarray:
        return extents(self, tag)

    def steps(self, tag: str) -> np.ndarray:
        return steps(self, tag)

    def count(self, tag: str) -> int:
        return math.prod(_shape(self, tag))

    def volume(self, tag: str) -> float:
        """Cell volume of the tagged lattice (block cells are fine cells)."""
        _check_tag(tag)
        return {
            "fine": self.vol_f,
            "coarse": self.vol_c,
            "block": self.vol_f,
            "dual_fine": self.hvol_f,
            "dual_coarse": self.hvol_c,
            "dual_block": self.hvol_b,
        }[tag]

    # -- sites ----------------------------------------------------------

    def coords(self, tag: str) -> np.ndarray:
        """Integer coords of every site, shape (count, 1+dim), row-major."""
        return _coords_cache(self, tag)

    def index(self, tag: str, coords) -> int:
        """Flat canonical index of (possibly unreduced) integer coords."""
        return int(self.indices(tag, coords))

    def indices(self, tag: str, coords) -> np.ndarray:
        """Vectorized :meth:`index`: coords of shape (..., 1+dim), each
        wrapped onto the tagged torus, give indices of shape (...)."""
        arr = np.asarray(coords, dtype=np.int64)
        return np.ravel_multi_index(tuple(arr.T), _shape(self, tag), mode="wrap").T

    # -- pairing phases --------------------------------------------------

    def pairing_phases(self, dual_tag: str, dual_coords, direct_tag: str,
                       direct_coords) -> np.ndarray:
        """Matrix exp(i p.u) over dual (rows) and direct (cols) coords.

        Works for every tag combination; the dot product is evaluated from
        integer multi-indices so the result is 2*pi-periodic exactly.
        """
        _check_tag(dual_tag)
        _check_tag(direct_tag)
        if dual_tag not in DUAL_TAGS or direct_tag not in DIRECT_TAGS:
            raise ValueError(
                f"pairing needs a dual and a direct tag, got {dual_tag!r}, "
                f"{direct_tag!r}"
            )
        m = np.atleast_2d(np.asarray(dual_coords, dtype=np.int64))
        n = np.atleast_2d(np.asarray(direct_coords, dtype=np.int64))
        mf = m * _fine_unit_factor(self, dual_tag)
        nf = n * _fine_unit_factor(self, direct_tag)
        t = (mf / self.fine_extents().astype(float)) @ nf.T
        return np.exp(2j * np.pi * t)

    # -- fields ----------------------------------------------------------

    def field(self, tag: str, values) -> FieldVector:
        if tag not in DIRECT_TAGS:
            raise ValueError(f"field values live on a direct lattice, got {tag!r}")
        return FieldVector(self._site_values(tag, values), tag)

    def spectrum(self, tag: str, values) -> SpectrumVector:
        if tag not in DUAL_TAGS:
            raise ValueError(f"spectrum values live on a dual lattice, got {tag!r}")
        return SpectrumVector(self._site_values(tag, values), tag)

    def _site_values(self, tag: str, values) -> np.ndarray:
        """Read-only complex copy of one value per site of the tagged lattice."""
        arr = np.array(values, dtype=complex)
        if arr.shape != (self.count(tag),):
            raise ValueError(
                f"expected {self.count(tag)} values for {tag!r}, got shape {arr.shape}"
            )
        return _frozen(arr)


@lru_cache(maxsize=256)
def extents(spec: LatticeSpec, tag: str) -> np.ndarray:
    """Number of sites along each axis of the tagged lattice, shared read-only."""
    _check_tag(tag)
    if tag in ("fine", "dual_fine"):
        return spec.fine_extents()
    if tag in ("coarse", "dual_coarse"):
        return _frozen(spec.fine_extents() // spec.ratios())
    return spec.ratios()


@lru_cache(maxsize=256)
def _shape(spec: LatticeSpec, tag: str) -> tuple[int, ...]:
    """:func:`extents` as a tuple of ints."""
    return tuple(int(e) for e in extents(spec, tag))


@lru_cache(maxsize=256)
def steps(spec: LatticeSpec, tag: str) -> np.ndarray:
    """Physical step along each axis of the tagged lattice, shared read-only."""
    _check_tag(tag)
    eps = spec.spacings()
    if tag in ("fine", "block"):
        return eps
    if tag == "coarse":
        return _frozen(eps * spec.ratios())
    if tag in ("dual_fine", "dual_coarse"):
        return _frozen(2.0 * np.pi / (eps * spec.fine_extents()))
    return _frozen(2.0 * np.pi / (eps * spec.ratios()))


def _fine_unit_factor(spec: LatticeSpec, tag: str) -> np.ndarray:
    """Multiplier taking tagged integer coords to fine-step units.

    Direct tags convert to fine steps, dual tags to dual-fine steps; with
    these units the pairing phase is exp(2*pi*i * sum(m*n / big_l)) for any
    tag combination.
    """
    if tag in ("fine", "block", "dual_fine", "dual_coarse"):
        return np.ones(spec.n_axes, dtype=np.int64)
    if tag == "coarse":
        return spec.ratios()
    return extents(spec, "coarse")  # dual_block


@lru_cache(maxsize=64)
def _coords_cache(spec: LatticeSpec, tag: str) -> np.ndarray:
    grids = np.indices(_shape(spec, tag)).reshape(spec.n_axes, -1).T
    return _frozen(np.ascontiguousarray(grids.astype(np.int64)))


def _pair_distances(spec: LatticeSpec, tag: str, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Geodesic torus distances between two sets of tagged coords, read-only."""
    ext = extents(spec, tag)
    delta = (rows[:, None, :] - cols[None, :, :]) % ext
    delta = np.minimum(delta, ext - delta).astype(float) * steps(spec, tag)
    return _frozen(np.sqrt((delta**2).sum(axis=-1)))


@lru_cache(maxsize=4)
def distance_matrix(spec: LatticeSpec, tag: str) -> np.ndarray:
    """All pairwise geodesic torus distances on the tagged lattice."""
    pts = _coords_cache(spec, tag)
    return _pair_distances(spec, tag, pts, pts)


@dataclass(frozen=True)
class FieldVector:
    """Values over all sites of a direct lattice, canonical order."""

    values: np.ndarray
    tag: str


@dataclass(frozen=True)
class SpectrumVector:
    """Values over all momenta of a dual lattice, canonical order."""

    values: np.ndarray
    tag: str


def build_family(spec: LatticeSpec) -> LatticeSpec:
    """The six-lattice family of ``spec``, which is ``spec`` itself."""
    return spec


def inner(family: LatticeSpec, f: FieldVector, g: FieldVector) -> complex:
    """Cell-volume weighted inner product, conjugate-linear in ``f``."""
    if f.tag != g.tag:
        raise ValueError(f"fields live on different lattices: {f.tag!r} vs {g.tag!r}")
    return complex(family.volume(f.tag) * np.vdot(f.values, g.values))
