"""Property tests for the block-row kernel storage, the row actions and
the FFT fiber route over drawn lattice specs.

The dense two-sided momentum transform of ``test_periodic_op`` is the
independent reference: its dual-coarse diagonal blocks are both the fibers
of the canonical ``bloch_fibers`` stack and the band of the ``verify``
oracle, and it vanishes off them.  The dense fill loops, the dense kernel
products and the dense norm formula below are the references for the row
storage.  Sizes stay at or below 256 fine sites.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_periodic_op import dense_momentum_matrix

from blochlat.lattice import LatticeSpec, build_family, distance_matrix
from blochlat.norms import weighted_norm
from blochlat.periodic_op import (
    apply_kernel,
    bloch_fibers,
    compose,
    identity_kernel,
    reconstruct,
    transpose_kernel,
)
from blochlat.periodization import periodize, window_offsets
from blochlat.rand import (
    random_field_values,
    random_periodic_kernel,
    random_zkernel,
    rng_from_seed,
)
from blochlat.verify import _band, _band_rows, _lifted_momenta

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


REF3 = (LatticeSpec(1.0, 0.5, 2, 2, 4, 4, 3), (1, 1, 1, 1))
# one coarse cell, and single-site blocks along time
ONE_CELL = (LatticeSpec(1.0, 1.0, 3, 3, 3, 3, 1), (1, 1))
THIN_BLOCK = (LatticeSpec(2.0, 0.5, 1, 3, 5, 6, 1), (2, 1))


def row_cases(test):
    """Drawn specs and seeds, with the edge cases always among them."""
    for case in (REF3, ONE_CELL, THIN_BLOCK):
        test = example(case=case, seed=0)(test)
    return PROPERTY_SETTINGS(given(case=specs_and_radii(),
                                   seed=st.integers(0, 2**32 - 1))(test))


@row_cases
def test_fibers_match_momentum_matrix_blocks(case, seed):
    # the fibers and the verify band are the diagonal blocks of the dense
    # momentum matrix, which vanishes off them
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, kernels = _kernels(spec, radii, rng)
    moms, idx = _lifted_momenta(fam)
    classes = fam.coords("dual_fine") % fam.extents("dual_coarse")
    off_band = ~(classes[:, None, :] == classes[None, :, :]).all(axis=-1)
    for a in kernels:
        m = dense_momentum_matrix(a)
        scale = np.abs(m).max()
        blocks = m[idx[:, :, None], idx[:, None, :]]
        fibers = bloch_fibers(a)
        np.testing.assert_array_equal(fibers.rep, moms[:, 0])
        assert np.abs(fibers.entries - blocks).max() <= 1e-12 * scale
        assert np.abs(_band(fam, a.rows, moms) - blocks).max() <= 1e-12 * scale
        if fam.n_coarse > 1:
            assert np.abs(m[off_band]).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_reconstruct_inverts_fibers(case, seed):
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, kernels = _kernels(spec, radii, rng)
    for a in kernels:
        scale = np.abs(a.entries).max()
        back = reconstruct(fam, bloch_fibers(a))
        assert np.abs(back.entries - a.entries).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_class_cover_errors(case, seed):
    spec, _ = case
    fam = build_family(spec)
    a = random_periodic_kernel(fam, rng_from_seed(seed))
    fibers = bloch_fibers(a)
    cover = "one fiber per dual-coarse class"
    with pytest.raises(ValueError, match=cover):
        reconstruct(fam, fibers[:-1])
    order = np.arange(fam.n_coarse)
    with pytest.raises(ValueError, match=cover):
        reconstruct(fam, fibers[np.append(order, 0)])
    if fam.n_coarse > 1:
        with pytest.raises(ValueError, match="canonical fiber stack"):
            reconstruct(fam, fibers[np.roll(order, 1)])


@row_cases
def test_band_inverse_gives_back_the_rows(case, seed):
    spec, radii = case
    fam, kernels = _kernels(spec, radii, rng_from_seed(seed))
    moms, _ = _lifted_momenta(fam)
    for a in kernels:
        back = _band_rows(fam, _band(fam, a.rows, moms))
        assert np.abs(back - a.rows).max() <= 1e-12 * np.abs(a.rows).max()


@row_cases
def test_row_actions_match_the_dense_kernel(case, seed):
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, kernels = _kernels(spec, radii, rng)
    for a in kernels:
        phi = fam.field("fine", random_field_values(fam, "fine", rng))
        expect = fam.vol_f * a.entries @ phi.values
        got = apply_kernel(a, phi).values
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
        np.testing.assert_array_equal(_bits(transpose_kernel(a).entries),
                                      _bits(a.entries.T))
    a, b = kernels
    expect = fam.vol_f * a.entries @ b.entries
    assert np.abs(compose(a, b).entries - expect).max() <= 1e-12 * np.abs(expect).max()


# -- block-row storage ---------------------------------------------------


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def _dense_periodize(a, fam):
    """Dense periodization, one scatter per fine row."""
    offsets = window_offsets(fam, a.radii)
    entries = np.zeros((fam.n_fine, fam.n_fine), dtype=complex)
    for w_idx, w in enumerate(fam.coords("block")):
        for x in fam.coords("coarse") * fam.ratios():
            cols = fam.indices("fine", w + x + offsets)
            entries[fam.index("fine", w + x), cols] = a.entries[w_idx]
    return entries


def _dense_random_kernel(fam, seed):
    """``random_periodic_kernel``'s draws, filled densely by coarse shifts."""
    rng = rng_from_seed(seed)
    rows = rng.uniform(-1.0, 1.0, size=(fam.n_block, fam.n_fine))
    rows = rows + 1j * rng.uniform(-1.0, 1.0, size=rows.shape)
    entries = np.zeros((fam.n_fine, fam.n_fine), dtype=complex)
    for x in fam.coords("coarse") * fam.ratios():
        row_idx = fam.indices("fine", fam.coords("block") + x)
        col_idx = fam.indices("fine", fam.coords("fine") + x)
        entries[np.ix_(row_idx, col_idx)] = rows
    return entries


def _assert_row_form(fam, k):
    """Rows are the block rows of the expansion, bit for bit, and the
    expansion is exactly invariant under every coarse generator."""
    assert k.rows.shape == (fam.n_block, fam.n_fine)
    assert not k.rows.flags.writeable and not k.entries.flags.writeable
    block = fam.indices("fine", fam.coords("block"))
    np.testing.assert_array_equal(_bits(k.rows), _bits(k.entries[block]))
    for axis in range(fam.n_axes):
        shift = np.zeros(fam.n_axes, dtype=np.int64)
        shift[axis] = fam.ratios()[axis]
        perm = fam.indices("fine", fam.coords("fine") + shift)
        assert np.abs(k.entries[np.ix_(perm, perm)] - k.entries).max() == 0.0


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_row_storage_expands_to_the_dense_kernel(case, seed):
    spec, radii = case
    fam = build_family(spec)
    z = random_zkernel(spec, radii, rng_from_seed(seed))
    window = periodize(z, fam)
    drawn = random_periodic_kernel(fam, rng_from_seed(seed))
    np.testing.assert_array_equal(_bits(window.entries), _bits(_dense_periodize(z, fam)))
    np.testing.assert_array_equal(_bits(drawn.entries),
                                  _bits(_dense_random_kernel(fam, seed)))
    for k in (window, drawn, identity_kernel(fam),
              reconstruct(fam, bloch_fibers(drawn)), compose(window, drawn)):
        _assert_row_form(fam, k)


def _dense_norm(k, mass):
    """The weighted norm from the dense kernel and all pairwise distances."""
    entries = np.abs(k.entries)
    with np.errstate(over="ignore"):
        weight = np.exp(mass * distance_matrix(k.family, "fine"),
                        out=np.zeros(entries.shape), where=entries != 0.0) * entries
    return k.family.vol_f * max(weight.sum(axis=1).max(), weight.sum(axis=0).max())


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
@example(case=(LatticeSpec(1.0, 1.0, 3, 3, 9, 9), (2, 2)), seed=0)
def test_torus_norm_matches_the_dense_formula(case, seed):
    spec, radii = case
    fam = build_family(spec)
    rng = rng_from_seed(seed)
    near = tuple(min(r, 1) for r in radii)
    window = periodize(random_zkernel(spec, near, rng), fam)
    reach = np.linalg.norm(window_offsets(spec, near) * spec.spacings(), axis=1).max()
    for k in (window, random_periodic_kernel(fam, rng)):
        for mass in (0.0, 0.6, 200.0):
            expect = _dense_norm(k, mass)
            if np.isfinite(expect):
                assert weighted_norm(k, mass) == pytest.approx(expect, rel=1e-13)
            else:  # full support at mass 200: refused by name, not inf
                with pytest.raises(ValueError, match="weighted norm overflows at mass 200"):
                    weighted_norm(k, mass)
    # exp(650) times at most 3^4 entries of size sqrt(2) and vol_f <= 4^4
    # stays below the float range
    if 200.0 * reach <= 650.0:
        assert np.isfinite(weighted_norm(window, 200.0))


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
@example(case=ONE_CELL, seed=0)
def test_torus_norm_is_submultiplicative_with_a_unit_identity(case, seed):
    # the premises of the certified function_norm_bound, for m >= 0
    spec, radii = case
    rng = rng_from_seed(seed)
    fam, (window, dense) = _kernels(spec, radii, rng)
    for mass in (0.0, 0.5):
        for a, b in ((window, dense), (dense, window), (dense, dense)):
            product = weighted_norm(compose(a, b), mass)
            assert product <= weighted_norm(a, mass) * weighted_norm(b, mass) * (1 + 1e-12)
        # 1, up to the rounding of vol_f * (1 / vol_f)
        assert weighted_norm(identity_kernel(fam), mass) == pytest.approx(1.0, rel=1e-15)
