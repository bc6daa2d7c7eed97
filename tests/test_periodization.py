"""Infinite-lattice kernels: periodization, fibers, inversion, torus actions."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_periodic_op_properties import PROPERTY_SETTINGS, specs_and_radii

from blochlat.lattice import LatticeSpec, build_family, steps
from blochlat.norms import decay_norm_bound, fiber_decay_bound, inverse_fiber_shifted
from blochlat.periodic_op import bloch_fibers, compose, identity_kernel
from blochlat.periodization import (
    FiberFunction,
    apply_cf,
    apply_fc,
    apply_z,
    compose_z,
    exact_grid_sizes,
    fiber_function,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    identity_zkernel,
    inverse_fiber,
    periodize,
    shift_zkernel,
    translation_invariant_zkernel,
    window_offsets,
    z_inner,
    zfield,
    zkernel,
    zkernel_fc,
)
from blochlat.rand import (
    random_field_values,
    random_zkernel,
    random_zkernel_fc,
    rng_from_seed,
)

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)
# coarse = fine, trivial blocks: exposes quadrature aliasing at its sharpest
TRIV = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=1, l_x=1, big_l_t=5, big_l_x=5, dim=1)


def block_sites(spec):
    ratios = tuple(int(r) for r in spec.ratios())
    grids = np.meshgrid(*[np.arange(r) for r in ratios], indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def dual_block_phys(spec):
    """Physical dual-block momenta, one row per label in canonical order."""
    return 2.0 * np.pi * block_sites(spec) / (spec.spacings() * spec.ratios())


def brute_fiber(a, k):
    """Quadruple loop over the defining sum, physical phases throughout."""
    spec = a.spec
    eps = spec.spacings()
    block = block_sites(spec)
    ells = dual_block_phys(spec)
    offsets = window_offsets(spec, a.radii)
    vol_f = spec.eps_t * spec.eps_x**spec.dim
    k = np.asarray(k, dtype=complex)
    n = len(block)
    out = np.zeros((n, n), dtype=complex)
    for i, l_row in enumerate(ells):
        for j, l_col in enumerate(ells):
            s = 0.0 + 0.0j
            for wi, w in enumerate(block):
                for di, d in enumerate(offsets):
                    s += (
                        a.entries[wi, di]
                        * np.exp(1j * (l_col - l_row) @ (w * eps))
                        * np.exp(1j * (k + l_col) @ (d * eps))
                    )
            out[i, j] = vol_f / n * s
    return out


def test_window_offsets_order_and_shape():
    offs = window_offsets(REF, (1, 1))
    expect = [
        [-1, -1], [-1, 0], [-1, 1],
        [0, -1], [0, 0], [0, 1],
        [1, -1], [1, 0], [1, 1],
    ]
    np.testing.assert_array_equal(offs, expect)
    assert window_offsets(REF, 0).shape == (1, 2)


def test_periodize_matches_wrap_sum_oracle():
    rng = rng_from_seed(20)
    a = random_zkernel(REF, (2, 1), rng)
    torus = periodize(a, FAM)
    offsets = window_offsets(REF, a.radii)
    sites = FAM.coords("fine")
    ext = FAM.extents("fine")
    ratios = REF.ratios()
    expect = np.zeros((FAM.n_fine, FAM.n_fine), dtype=complex)
    for i, u in enumerate(sites):
        w_idx = int(np.ravel_multi_index(tuple(u % ratios), tuple(ratios)))
        for j, up in enumerate(sites):
            for di, d in enumerate(offsets):
                if ((up - u - d) % ext == 0).all():
                    expect[i, j] += a.entries[w_idx, di]
    np.testing.assert_allclose(torus.entries, expect, atol=0)


def test_periodize_identity_kernel():
    torus = periodize(identity_zkernel(REF), FAM)
    np.testing.assert_array_equal(torus.entries, identity_kernel(FAM).entries)


def test_periodize_rejects_wrapping_window():
    a = random_zkernel(REF, (5, 1), rng_from_seed(21))
    with pytest.raises(ValueError, match="time"):
        periodize(a, FAM)
    b = random_zkernel(REF, (1, 5), rng_from_seed(21))
    with pytest.raises(ValueError, match="space 0"):
        periodize(b, FAM)
    # width exactly the extent still fits: every image lands once
    periodize(random_zkernel(REF, (1, 4), rng_from_seed(21)), FAM)


def test_torus_fibers_sample_the_fiber_function():
    # fibers of the periodized kernel = the entire function at grid momenta
    rng = rng_from_seed(22)
    a = random_zkernel(REF, (2, 1), rng)
    fibers = bloch_fibers(periodize(a, FAM))
    step = steps(REF, "dual_coarse")
    scale = np.abs(a.entries).max()
    for fiber in fibers:
        k = np.asarray(fiber.rep) * step
        free = fiber_hat(a, k)
        assert np.abs(fiber.entries - free.entries).max() <= 1e-12 * scale


def test_fiber_hat_matches_brute_force():
    rng = rng_from_seed(23)
    a = random_zkernel(REF, (1, 2), rng)
    for _ in range(3):
        k = rng.normal(size=2) + 1j * rng.normal(scale=0.3, size=2)
        got = fiber_hat(a, k).entries
        want = brute_fiber(a, k)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_fiber_quasi_periodic_at_complex_momentum():
    rng = rng_from_seed(24)
    a = random_zkernel(REF, (2, 2), rng)
    recip = steps(REF, "dual_block")
    k = np.array([0.3 + 0.2j, -1.1 - 0.05j])
    t = np.array([2, -1])
    base = fiber_hat(a, k).entries
    shifted = fiber_hat(a, k + t * recip).entries
    shape = tuple(int(r) for r in REF.ratios()) * 2
    rolled = np.roll(base.reshape(shape), tuple(-t) + tuple(-t), axis=(0, 1, 2, 3))
    np.testing.assert_allclose(shifted, rolled.reshape(base.shape), atol=1e-12)


def test_identity_fiber_is_identity_matrix():
    k = np.array([0.7 - 0.1j, 0.2 + 0.4j])
    got = fiber_hat(identity_zkernel(REF), k).entries
    np.testing.assert_allclose(got, np.eye(9), atol=1e-13)


def test_shift_fiber_is_diagonal_phase():
    shift = np.array([1, -2])
    a = shift_zkernel(REF, shift)
    k = np.array([0.25, 1.3])
    got = fiber_hat(a, k).entries
    ells = dual_block_phys(REF)
    diag = np.exp(1j * (k + ells) @ (shift * REF.spacings()))
    np.testing.assert_allclose(got, np.diag(diag), atol=1e-13)


def test_translation_invariant_kernel_has_diagonal_fibers():
    rng = rng_from_seed(25)
    radii = (2, 1)
    profile = rng.normal(size=15) + 1j * rng.normal(size=15)
    a = translation_invariant_zkernel(REF, radii, profile)
    offsets = window_offsets(REF, radii)
    ells = dual_block_phys(REF)
    vol_f = 1.0
    for k in (np.array([0.4, -0.8]), np.array([0.1 + 0.2j, 0.0])):
        got = fiber_hat(a, k).entries
        diag = vol_f * (np.exp(1j * (k + ells) @ (offsets * REF.spacings()).T) @ profile)
        off = got - np.diag(np.diag(got))
        assert np.abs(off).max() <= 1e-13 * max(1.0, np.abs(diag).max())
        np.testing.assert_allclose(np.diag(got), diag, atol=1e-12)


def test_compose_z_is_periodization_homomorphism():
    rng = rng_from_seed(26)
    a = random_zkernel(REF, (1, 1), rng)
    b = random_zkernel(REF, (2, 1), rng)
    c = compose_z(a, b)
    assert c.radii == (3, 2)
    lhs = periodize(c, FAM).entries
    rhs = compose(periodize(a, FAM), periodize(b, FAM)).entries
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_compose_fibers_multiply_off_grid():
    rng = rng_from_seed(27)
    a = random_zkernel(REF, (1, 1), rng)
    b = random_zkernel(REF, (1, 2), rng)
    c = compose_z(a, b)
    for _ in range(20):
        k = rng.normal(size=2) + 1j * rng.normal(scale=0.2, size=2)
        lhs = fiber_hat(c, k).entries
        rhs = fiber_hat(a, k).entries @ fiber_hat(b, k).entries
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_inverse_fiber_roundtrip_default_grid():
    rng = rng_from_seed(30)
    a = random_zkernel(REF, (2, 1), rng)
    assert exact_grid_sizes(REF, (2, 1)) == (2, 1)
    back = inverse_fiber(fiber_function(a), (2, 1))
    scale = np.abs(a.entries).max()
    assert np.abs(back.entries - a.entries).max() <= 1e-13 * scale
    assert back.radii == (2, 1)


def test_inverse_fiber_exact_at_minimal_grid():
    rng = rng_from_seed(31)
    a = random_zkernel(REF, (2, 2), rng)
    back = inverse_fiber(fiber_function(a), (2, 2), grid_points=exact_grid_sizes(REF, (2, 2)))
    scale = np.abs(a.entries).max()
    assert np.abs(back.entries - a.entries).max() <= 1e-13 * scale


def test_inverse_fiber_min_grid_points_inflates_grid():
    rng = rng_from_seed(32)
    a = random_zkernel(REF, (1, 1), rng)
    back = inverse_fiber(fiber_function(a), (1, 1), grid_points=5)
    scale = np.abs(a.entries).max()
    assert np.abs(back.entries - a.entries).max() <= 1e-13 * scale
    for bad in (0, (5, 5, 5)):
        with pytest.raises(ValueError, match="quadrature grid"):
            inverse_fiber(fiber_function(a), (1, 1), grid_points=bad)


def test_inverse_fiber_undersampling_aliases():
    rng = rng_from_seed(33)
    # trivial blocks: one node per step of support, one short at 4 of 5
    a = random_zkernel(TRIV, (2, 2), rng)
    f = fiber_function(a)
    exact = inverse_fiber(f, (2, 2), grid_points=5)
    scale = np.abs(a.entries).max()
    assert np.abs(exact.entries - a.entries).max() <= 1e-13 * scale
    aliased = inverse_fiber(f, (2, 2), grid_points=4)
    assert np.abs(aliased.entries - a.entries).max() > 1e-6 * scale
    # reference blocks alias only once the grid collapses to a point
    b = random_zkernel(REF, (2, 2), rng)
    g = fiber_function(b)
    one = inverse_fiber(g, (2, 2), grid_points=1)
    bscale = np.abs(b.entries).max()
    assert np.abs(one.entries - b.entries).max() > 1e-6 * bscale
    two = inverse_fiber(g, (2, 2), grid_points=2)
    assert np.abs(two.entries - b.entries).max() <= 1e-13 * bscale


@pytest.mark.parametrize("bad", [2.7, (2, 2.5), "3", np.float64(2.9), True, 10**20, (1, -1)])
def test_inverse_fiber_refuses_a_grid_it_would_truncate(bad):
    f = fiber_function(random_zkernel(REF, (1, 1), rng_from_seed(32)))
    message = f"quadrature grid must be 2 positive integers, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        inverse_fiber(f, (1, 1), grid_points=bad)


def _image_sums(a, radii, period, eta):
    """sum over c of a(w, w + d + period c) exp(-eta.(period c) eps) for d
    over the window of ``radii``, by a loop over the window of a."""
    spec = a.spec
    small = window_offsets(spec, radii)
    out = np.zeros((spec.n_block, len(small)), dtype=complex)
    for j, big in enumerate(window_offsets(spec, a.radii)):
        for i, d in enumerate(small):
            if not ((big - d) % period).any():
                out[:, i] += a.entries[:, j] * np.exp(-(big - d) * spec.spacings() @ eta)
    return out


SPEC2 = LatticeSpec(1.0, 0.5, 2, 3, 4, 6, dim=2)


@pytest.mark.parametrize("spec, kernel_radii, radii, grid", [
    (TRIV, (2, 2), (2, 2), 4),
    (REF, (2, 2), (2, 2), (1, 2)),
    (REF, (4, 3), (1, 2), (2, 1)),
    (SPEC2, (2, 2, 2), (1, 2, 2), (1, 2, 1)),
])
def test_undersampled_inversion_is_the_image_sum(spec, kernel_radii, radii, grid):
    # the N-node grid recovers the periodization onto grid * l sites per axis
    a = random_zkernel(spec, kernel_radii, rng_from_seed(34))
    got = inverse_fiber(fiber_function(a), radii, grid_points=grid).entries
    no_shift = np.zeros(spec.n_axes)
    want = _image_sums(a, radii, np.broadcast_to(grid, spec.n_axes) * spec.ratios(), no_shift)
    plain = _image_sums(a, radii, 10**6, no_shift)  # a itself on the window
    scale = np.abs(want).max()
    assert np.abs(want - plain).max() > 1e-6 * scale  # the grid does alias
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("spec, kernel_radii, radii, eta", [
    (TRIV, (3, 2), (1, 1), (0.3, -0.2)),
    (REF, (4, 3), (1, 1), (0.3, -0.2)),
    (SPEC2, (2, 3, 2), (1, 1, 1), (-0.4, 0.2, 0.1)),
])
def test_shifted_inversion_of_a_wider_kernel_is_the_weighted_image_sum(
        spec, kernel_radii, radii, eta):
    # past the exact grid's period the images add, weighted by exp(-eta.(N l c))
    a = random_zkernel(spec, kernel_radii, rng_from_seed(35))
    eta = np.asarray(eta)
    got = inverse_fiber_shifted(fiber_function(a), radii, eta).entries
    period = np.asarray(exact_grid_sizes(spec, radii)) * spec.ratios()
    want = _image_sums(a, radii, period, eta)
    scale = np.abs(want).max()
    assert np.abs(want - _image_sums(a, radii, 10**6, eta)).max() > 1e-6 * scale
    assert np.abs(got - want).max() <= 1e-12 * scale


EVERY_INVERSION = pytest.mark.parametrize(
    "invert",
    [
        lambda f: inverse_fiber(f, (1, 1)),
        lambda f: inverse_fiber_shifted(f, (1, 1), np.array([0.3, -0.2])),
        lambda f: fiber_decay_bound(f, (1, 1), 0.5),
        lambda f: decay_norm_bound(f, (1, 1), 0.5, 0.25),
    ],
    ids=["inverse_fiber", "inverse_fiber_shifted", "fiber_decay_bound",
         "decay_norm_bound"],
)


@EVERY_INVERSION
def test_inverse_fiber_rejects_non_quasi_periodic_input(invert):
    rng = rng_from_seed(34)
    a = random_zkernel(REF, (1, 1), rng)
    bad = FiberFunction(
        REF, lambda k: fiber_hat(a, k).entries + 0.01 * np.real(k[0]) * np.eye(9)
    )
    with pytest.raises(ValueError, match="quasi-periodic"):
        invert(bad)


@EVERY_INVERSION
def test_inverse_fiber_rejects_a_violation_that_cancels_on_the_diagonal(invert):
    # off by 0.01 * I per dual-block step along either axis, but unchanged
    # by a shift of one step along both; single-momentum evaluator
    a = random_zkernel(REF, (1, 1), rng_from_seed(34))
    p = steps(REF, "dual_block")
    bad = FiberFunction(REF, lambda k: fiber_hat(a, k).entries
                        + 0.01 * (k[0] / p[0] - k[1] / p[1]) * np.eye(9))
    with pytest.raises(ValueError, match="quasi-periodic"):
        invert(bad)


def test_fc_fiber_matches_brute_force():
    rng = rng_from_seed(35)
    b = random_zkernel_fc(REF, (1, 1), rng)
    eps = REF.spacings()
    ratios = REF.ratios()
    ells = dual_block_phys(REF)
    block = block_sites(REF)
    offsets = window_offsets(REF, b.radii)
    for _ in range(3):
        k = rng.normal(size=2) + 1j * rng.normal(scale=0.3, size=2)
        want = np.zeros(len(block), dtype=complex)
        for i, ell in enumerate(ells):
            s = 0.0 + 0.0j
            for wi, w in enumerate(block):
                for mi, m in enumerate(offsets):
                    s += (
                        np.exp(-1j * (k + ell) @ (w * eps))
                        * b.entries[wi, mi]
                        * np.exp(1j * k @ (m * ratios * eps))
                    )
            want[i] = s
        got = fiber_hat_fc(b, k)
        np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_cf_fiber_matches_brute_force():
    rng = rng_from_seed(36)
    c = random_zkernel_fc(REF, (1, 2), rng)
    eps = REF.spacings()
    ratios = REF.ratios()
    ells = dual_block_phys(REF)
    block = block_sites(REF)
    offsets = window_offsets(REF, c.radii)
    k = rng.normal(size=2) + 1j * rng.normal(scale=0.3, size=2)
    want = np.zeros(len(block), dtype=complex)
    for i, ell in enumerate(ells):
        s = 0.0 + 0.0j
        for wi, w in enumerate(block):
            for mi, m in enumerate(offsets):
                s += (
                    np.exp(-1j * k @ (m * ratios * eps))
                    * c.entries[wi, mi]
                    * np.exp(1j * (k + ell) @ (w * eps))
                )
        want[i] = s
    got = fiber_hat_cf(c, k)
    np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_fc_action_on_plane_waves():
    # B maps the coarse wave exp(ik.x) to sum_l fiber(l) exp(i(k+l).u)
    rng = rng_from_seed(37)
    b = random_zkernel_fc(REF, (1, 1), rng)
    fine = FAM.coords("fine")
    for rep in (np.array([0, 0]), np.array([2, 5]), np.array([7, 1])):
        k = rep * steps(REF, "dual_coarse")
        psi = FAM.field(
            "coarse", FAM.pairing_phases("dual_coarse", rep, "coarse", FAM.coords("coarse"))[0]
        )
        got = apply_fc(FAM, b, psi).values
        coeffs = fiber_hat_fc(b, k)
        eku = FAM.pairing_phases("dual_coarse", rep, "fine", fine)[0]
        elu = FAM.pairing_phases("dual_block", block_sites(REF), "fine", fine)
        want = eku * (coeffs @ elu)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_cf_action_on_plane_waves():
    # C maps exp(i(k+l).u) to fiber(l) times the coarse wave exp(ik.x)
    rng = rng_from_seed(38)
    c = random_zkernel_fc(REF, (1, 1), rng)
    block = block_sites(REF)
    for rep, ell_label in (((0, 0), (1, 2)), ((3, 4), (0, 1)), ((8, 2), (2, 2))):
        rep = np.asarray(rep)
        lift = FAM.extents("dual_fine") // FAM.extents("dual_block")
        wave_idx = rep + np.asarray(ell_label) * lift
        phi = FAM.field(
            "fine", FAM.pairing_phases("dual_fine", wave_idx, "fine", FAM.coords("fine"))[0]
        )
        got = apply_cf(FAM, c, phi).values
        k = rep * steps(REF, "dual_coarse")
        coeffs = fiber_hat_cf(c, k)
        label_idx = int(np.ravel_multi_index(ell_label, tuple(int(r) for r in REF.ratios())))
        ekx = FAM.pairing_phases("dual_coarse", rep, "coarse", FAM.coords("coarse"))[0]
        want = coeffs[label_idx] * ekx
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale


def test_sampling_kernel_fiber_and_action():
    # c(x, u) = delta(u - x) / vol_f: unit fiber, action restricts to coarse sites
    entries = np.zeros((9, 1), dtype=complex)
    entries[0, 0] = 1.0 / FAM.vol_f
    c = zkernel_fc(REF, 0, entries)
    for k in (np.array([0.2, -0.7]), np.array([0.1 + 0.4j, 0.9])):
        np.testing.assert_allclose(fiber_hat_cf(c, k), np.ones(9), atol=1e-14)
    rng = rng_from_seed(39)
    phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
    got = apply_cf(FAM, c, phi).values
    coarse_idx = FAM.indices("fine", FAM.coords("coarse") * REF.ratios())
    np.testing.assert_allclose(got, phi.values[coarse_idx], atol=1e-14)


def test_fc_cf_transpose_fiber_relation():
    rng = rng_from_seed(40)
    b = random_zkernel_fc(REF, (1, 1), rng)
    ratios = tuple(int(r) for r in REF.ratios())
    neg = np.ravel_multi_index(tuple((-block_sites(REF) % ratios).T), ratios)
    k = np.array([0.5 + 0.1j, -0.4 + 0.2j])
    lhs = fiber_hat_cf(b, k)
    rhs = fiber_hat_fc(b, -k)[neg]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    c = random_zkernel_fc(REF, (2, 1), rng)
    lhs2 = fiber_hat_fc(c, k)
    rhs2 = fiber_hat_cf(c, -k)[neg]
    np.testing.assert_allclose(lhs2, rhs2, atol=1e-12)


def test_fc_cf_actions_are_transposes_under_pairing():
    rng = rng_from_seed(41)
    b = random_zkernel_fc(REF, (1, 1), rng)
    phi = random_field_values(FAM, "fine", rng)
    psi = random_field_values(FAM, "coarse", rng)
    bpsi = apply_fc(FAM, b, FAM.field("coarse", psi)).values
    btphi = apply_cf(FAM, b, FAM.field("fine", phi)).values
    lhs = FAM.vol_f * np.sum(phi * bpsi)
    rhs = FAM.vol_c * np.sum(btphi * psi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("big_l", [6, 12])
def test_fc_cf_actions_refuse_fields_of_another_family(big_l):
    # REF has 9 coarse cells and 81 fine sites, the 6 x 6 family 4 and 36,
    # the 12 x 12 one 16 and 144: unchecked, a shorter field indexes past
    # its end and a longer one is silently cut to REF's sites
    other = build_family(LatticeSpec(1.0, 1.0, 3, 3, big_l, big_l, dim=1))
    b = random_zkernel_fc(REF, (1, 1), rng_from_seed(42))
    coarse = other.field("coarse", np.ones(other.n_coarse))
    fine = other.field("fine", np.ones(other.n_fine))
    with pytest.raises(ValueError, match=f"fields of {FAM.n_coarse} coarse sites, "
                                         rf"got values of shape \({other.n_coarse},\)"):
        apply_fc(FAM, b, coarse)
    with pytest.raises(ValueError, match=f"fields of {FAM.n_fine} fine sites, "
                                         rf"got values of shape \({other.n_fine},\)"):
        apply_cf(FAM, b, fine)
    with pytest.raises(ValueError, match="coarse-lattice fields, got 'fine'"):
        apply_fc(FAM, b, FAM.field("fine", np.zeros(FAM.n_fine)))
    with pytest.raises(ValueError, match="fine-lattice fields, got 'coarse'"):
        apply_cf(FAM, b, FAM.field("coarse", np.zeros(FAM.n_coarse)))


def test_apply_z_matches_brute_sum():
    rng = rng_from_seed(42)
    a = random_zkernel(REF, (1, 1), rng)
    coords = np.array([[0, 0], [1, 2], [-3, 4], [7, 7]])
    values = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = zfield(REF, "fine", coords, values)
    out = apply_z(a, phi)
    offsets = window_offsets(REF, a.radii)
    ratios = tuple(int(r) for r in REF.ratios())
    expect: dict[tuple[int, int], complex] = {}
    for pt, val in zip(coords, values):
        for di, d in enumerate(offsets):
            u = pt - d
            w_idx = int(np.ravel_multi_index(tuple(u % ratios), ratios))
            key = (int(u[0]), int(u[1]))
            expect[key] = expect.get(key, 0.0) + FAM.vol_f * a.entries[w_idx, di] * val
    got = {tuple(int(c) for c in pt): v for pt, v in zip(out.coords, out.values)}
    assert set(got) == set(expect)
    for key, val in expect.items():
        assert abs(got[key] - val) <= 1e-13


def test_apply_z_composition_consistency():
    rng = rng_from_seed(43)
    a = random_zkernel(REF, (1, 1), rng)
    b = random_zkernel(REF, (1, 2), rng)
    phi = zfield(REF, "fine", [[0, 0], [2, -1]], [1.0 + 0.5j, -0.25j])
    lhs = apply_z(compose_z(a, b), phi)
    rhs = apply_z(a, apply_z(b, phi))
    np.testing.assert_array_equal(lhs.coords, rhs.coords)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_zfield_merges_duplicates_and_z_inner_weights():
    f = zfield(REF, "fine", [[0, 0], [1, 1], [0, 0]], [1.0, 2.0, 3.0])
    assert len(f.values) == 2
    g = zfield(REF, "fine", [[1, 1], [5, 5]], [1.0 - 1.0j, 9.0])
    assert z_inner(f, g) == pytest.approx(FAM.vol_f * 2.0 * (1.0 - 1.0j))
    fc = zfield(REF, "coarse", [[1, 1]], [2.0j])
    gc = zfield(REF, "coarse", [[1, 1]], [1.0 + 1.0j])
    assert z_inner(fc, gc) == pytest.approx(FAM.vol_c * np.conj(2.0j) * (1.0 + 1.0j))
    with pytest.raises(ValueError, match="different lattices"):
        z_inner(f, fc)


# ---------------------------------------------------------------------------
# the window operations against their per-entry loops
# ---------------------------------------------------------------------------


def loop_apply_z(a, phi):
    """One term per (support point, offset), merged in a dict."""
    spec = a.spec
    offsets = window_offsets(spec, a.radii)
    ratios = tuple(int(r) for r in spec.ratios())
    acc = {}
    for pt, val in zip(phi.coords, phi.values):
        for col, d in enumerate(offsets):
            u = pt - d
            a_val = a.entries[int(np.ravel_multi_index(tuple(u % ratios), ratios)), col]
            if a_val == 0.0:
                continue
            key = tuple(int(c) for c in u)
            acc[key] = acc.get(key, 0.0) + spec.vol_f * a_val * val
    if not acc:
        return zfield(spec, "fine", np.zeros((1, spec.n_axes), dtype=np.int64), [0.0])
    return zfield(spec, "fine", list(acc.keys()), list(acc.values()))


def loop_compose_z(a, b):
    """One shifted b row per nonzero entry of a, added into its window."""
    spec = a.spec
    ratios = tuple(int(r) for r in spec.ratios())
    radii = tuple(ra + rb for ra, rb in zip(a.radii, b.radii))
    n_block = int(np.prod(ratios))
    offs_a = window_offsets(spec, a.radii)
    out = np.zeros((n_block,) + tuple(2 * r + 1 for r in radii), dtype=complex)
    b_grid = b.entries.reshape((n_block,) + tuple(2 * r + 1 for r in b.radii))
    for w_idx, w in enumerate(block_sites(spec)):
        for a_val, d_mid in zip(a.entries[w_idx], offs_a):
            if a_val == 0.0:
                continue
            mid = int(np.ravel_multi_index(tuple((w + d_mid) % ratios), ratios))
            corner = tuple(slice(rc + dm - rb, rc + dm + rb + 1)
                           for rc, dm, rb in zip(radii, d_mid, b.radii))
            out[w_idx][corner] += spec.vol_f * a_val * b_grid[mid]
    return zkernel(spec, radii, out.reshape(n_block, -1))


def loop_z_inner(a, b):
    """The inner product through a dict of b's support points."""
    lookup = {tuple(int(c) for c in pt): val for pt, val in zip(b.coords, b.values)}
    total = sum(np.conj(val) * lookup[tuple(int(c) for c in pt)]
                for pt, val in zip(a.coords, a.values)
                if tuple(int(c) for c in pt) in lookup)
    return complex((a.spec.vol_c if a.kind == "coarse" else a.spec.vol_f) * total)


def fine_site_table(fam):
    """Fine torus index of w + x over block sites (rows) and coarse cells."""
    spec = fam
    return fam.indices("fine", block_sites(spec)[:, None, :]
                       + fam.coords("coarse") * spec.ratios())


def loop_apply_fc(fam, b, psi):
    """One outer product per coarse offset m."""
    table, coarse = fine_site_table(fam), fam.coords("coarse")
    out = np.zeros(fam.n_fine, dtype=complex)
    for m_idx, m in enumerate(window_offsets(fam, b.radii)):
        vals = psi.values[fam.indices("coarse", coarse + m)]
        out[table] += fam.vol_c * np.outer(b.entries[:, m_idx], vals)
    return out


def loop_apply_cf(fam, c, phi):
    """One gathered block of phi per coarse offset m."""
    table, coarse = fine_site_table(fam), fam.coords("coarse")
    out = np.zeros(fam.n_coarse, dtype=complex)
    for m_idx, m in enumerate(window_offsets(fam, c.radii)):
        gathered = phi.values[table[:, fam.indices("coarse", coarse - m)]]
        out += fam.vol_f * c.entries[:, m_idx] @ gathered
    return out


def assert_bitwise(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    got = np.ascontiguousarray(got, dtype=complex).view(np.float64)
    want = np.ascontiguousarray(want, dtype=complex).view(np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def assert_close_where_finite(got, want, rtol):
    """Non-finite at the same entries, and within rtol of the largest finite
    entry elsewhere."""
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    if finite.any():
        scale = max(np.abs(want[finite]).max(), 1e-300)
        assert np.abs(got[finite] - want[finite]).max() <= rtol * scale


SPECIALS = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                     np.inf, complex(0.0, -np.inf), np.nan, complex(1.0, np.nan)])


def _with_entries(kernel, kind, rng, make):
    """``kernel`` with a quarter of its entries, at least one, replaced:
    signed zeros for "zeros", and also infinities and NaNs for "non_finite"."""
    entries = np.array(kernel.entries)
    if kind != "random":
        pool = SPECIALS[:4] if kind == "zeros" else SPECIALS
        hit = rng.random(entries.shape) < 0.25
        hit.flat[rng.integers(entries.size)] = True
        entries[hit] = rng.choice(pool, size=int(hit.sum()))
    return make(kernel.spec, kernel.radii, entries)


# a fine-coarse window of 5 x 5 coarse steps on the 3 x 3 coarse torus: every
# coarse cell is hit by several offsets, so wrapped images must add up
WRAPPED = (REF, (2, 2))


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "zeros", "non_finite"]))
@example(case=WRAPPED, seed=0, kind="random")
@example(case=WRAPPED, seed=1, kind="zeros")
@example(case=WRAPPED, seed=2, kind="non_finite")
@np.errstate(all="ignore")  # non-finite entries make non-finite products
def test_window_operations_match_their_loops(case, seed, kind):
    # apply_z and compose_z keep the loops' arithmetic and order, so they
    # match bit for bit; apply_fc and apply_cf sum in another order
    spec, radii = case
    fam = build_family(spec)
    rng = rng_from_seed(seed)
    a = _with_entries(random_zkernel(spec, radii, rng), kind, rng, zkernel)
    b = _with_entries(random_zkernel(spec, tuple(min(r, 1) for r in radii), rng),
                      kind, rng, zkernel)
    phi = zfield(spec, "fine", rng.integers(-4, 5, size=(6, spec.n_axes)),
                 rng.normal(size=6) + 1j * rng.normal(size=6))
    got, want = apply_z(a, phi), loop_apply_z(a, phi)
    np.testing.assert_array_equal(got.coords, want.coords)
    assert_bitwise(got.values, want.values)
    # phi's support meets that of a phi in some points only
    assert_close_where_finite(np.array([z_inner(phi, got)]),
                              np.array([loop_z_inner(phi, want)]), 1e-13)
    got, want = compose_z(a, b), loop_compose_z(a, b)
    assert got.radii == want.radii
    assert_bitwise(got.entries, want.entries)
    # radii in coarse steps: along most drawn axes the window wraps the
    # coarse torus
    fc = _with_entries(random_zkernel_fc(spec, radii, rng), kind, rng, zkernel_fc)
    psi = fam.field("coarse", random_field_values(fam, "coarse", rng))
    fine = fam.field("fine", random_field_values(fam, "fine", rng))
    assert_close_where_finite(apply_fc(fam, fc, psi).values,
                              loop_apply_fc(fam, fc, psi), 1e-13)
    assert_close_where_finite(apply_cf(fam, fc, fine).values,
                              loop_apply_cf(fam, fc, fine), 1e-13)
