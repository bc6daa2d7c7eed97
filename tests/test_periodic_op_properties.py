"""Property tests for the block-row (FFT) fiber route over drawn lattice specs.

``momentum_matrix`` is the independent oracle: its dual-coarse diagonal
blocks are the fibers, whatever representatives ``bloch_fibers`` is given.
Sizes stay at or below 256 fine sites.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochlat.lattice import LatticeSpec, build_family
from blochlat.periodic_op import bloch_fibers, momentum_matrix, reconstruct
from blochlat.periodization import periodize
from blochlat.rand import random_periodic_kernel, random_zkernel, rng_from_seed

MAX_SITES = 256
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                             database=None)


@st.composite
def specs_and_radii(draw):
    """A spec of at most MAX_SITES fine sites and window radii that fit it."""
    dim = draw(st.integers(1, 3))
    l_x = draw(st.integers(1, 4))
    cap_x = {1: 16, 2: 16, 3: 6}[dim]
    big_l_x = l_x * draw(st.integers(1, max(1, cap_x // l_x)))
    cap_t = MAX_SITES // big_l_x**dim
    l_t = draw(st.integers(1, min(4, cap_t)))
    big_l_t = l_t * draw(st.integers(1, cap_t // l_t))
    eps = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
    spec = LatticeSpec(draw(eps), draw(eps), l_t, l_x, big_l_t, big_l_x, dim)
    # the window must fit the torus: 2 r + 1 <= extent on every axis
    radii = tuple(draw(st.integers(0, (int(e) - 1) // 2))
                  for e in spec.fine_extents())
    return spec, radii


def _kernels(spec, radii, rng):
    fam = build_family(spec)
    window = periodize(random_zkernel(spec, radii, rng), fam)
    return fam, (window, random_periodic_kernel(fam, rng))


def _shifted_reps(fam, rng):
    """Canonical reps moved by dual-coarse extents and dual-block vectors."""
    reps = fam.coords("dual_coarse")
    lift = fam.extents("dual_fine") // fam.extents("dual_block")
    shift_c = rng.integers(-2, 3, size=reps.shape) * fam.extents("dual_coarse")
    shift_l = rng.integers(-2, 3, size=reps.shape) * lift
    return reps + shift_c + shift_l


REF3 = (LatticeSpec(1.0, 0.5, 2, 2, 4, 4, 3), (1, 1, 1, 1))


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_fibers_match_momentum_matrix_blocks(case, seed):
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, kernels = _kernels(spec, radii, rng)
    lift = fam.extents("dual_fine") // fam.extents("dual_block")
    ell = fam.coords("dual_block") * lift
    for a in kernels:
        m = momentum_matrix(a).entries
        scale = np.abs(m).max()
        for reps in (None, _shifted_reps(fam, rng)):
            for fiber in bloch_fibers(a, reps):
                idx = fam.indices("dual_fine", np.asarray(fiber.rep) + ell)
                dev = np.abs(fiber.entries - m[np.ix_(idx, idx)]).max()
                assert dev <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_reconstruct_inverts_fibers(case, seed):
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, kernels = _kernels(spec, radii, rng)
    for a in kernels:
        scale = np.abs(a.entries).max()
        for reps in (None, _shifted_reps(fam, rng)):
            back = reconstruct(fam, bloch_fibers(a, reps))
            assert np.abs(back.entries - a.entries).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_class_cover_errors(case, seed):
    spec, _ = case
    fam = build_family(spec)
    a = random_periodic_kernel(fam, rng_from_seed(seed))
    reps = fam.coords("dual_coarse")
    twice = np.vstack([reps, reps[:1] + fam.extents("dual_coarse")])
    with pytest.raises(ValueError, match="class"):
        bloch_fibers(a, twice)
    fibers = bloch_fibers(a)
    with pytest.raises(ValueError, match="class"):
        reconstruct(fam, fibers[:-1])
    with pytest.raises(ValueError, match="class"):
        reconstruct(fam, fibers + fibers[:1])
