"""Dilatation: spec rescaling, kernel/field pushforward, fiber and norm laws."""

import numpy as np
import pytest

from blochlat.averaging import averaging_kernel, naive_profile
from blochlat.lattice import LatticeSpec
from blochlat.norms import weighted_norm
from blochlat.periodization import (
    apply_z,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    shift_zkernel,
    z_inner,
    zfield,
)
from blochlat.rand import (
    random_zkernel,
    random_zkernel_fc,
    rng_from_seed,
)
from blochlat.scaling import (
    ScaleFactors,
    amplitude,
    mass_transfer,
    scale_field,
    scale_kernel,
    scale_spec,
    scaled_fiber,
    scaled_fiber_cf,
    scaled_fiber_fc,
)

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
SIGMA = ScaleFactors(time=4.0, space=2.0)


def test_scale_spec_divides_spacings_and_keeps_integers():
    scaled = scale_spec(REF, SIGMA)
    assert scaled.eps_t == pytest.approx(0.25)
    assert scaled.eps_x == pytest.approx(0.5)
    assert (scaled.l_t, scaled.l_x) == (REF.l_t, REF.l_x)
    assert (scaled.big_l_t, scaled.big_l_x) == (REF.big_l_t, REF.big_l_x)
    assert amplitude(REF, SIGMA) == pytest.approx(8.0)
    assert mass_transfer(SIGMA) == pytest.approx(0.5)
    # composing dilatations multiplies the factors
    twice = scale_spec(scaled, ScaleFactors(2.0, 3.0))
    assert twice == scale_spec(REF, ScaleFactors(8.0, 6.0))


def test_scale_factor_validation():
    with pytest.raises(ValueError, match="time"):
        ScaleFactors(time=0.0, space=1.0)
    with pytest.raises(ValueError, match="space"):
        ScaleFactors(time=1.0, space=-2.0)
    a = random_zkernel(REF, (1, 1), rng_from_seed(3))
    with pytest.raises(ValueError, match="components"):
        scaled_fiber(a, SIGMA, np.zeros(3))
    with pytest.raises(TypeError):
        scale_kernel(np.eye(2), SIGMA)


def test_scaling_conjugates_the_kernel_action():
    rng = rng_from_seed(11)
    a = random_zkernel(REF, (2, 1), rng)
    coords = rng.integers(-6, 7, size=(5, 2))
    phi = zfield(REF, "fine", coords, rng.normal(size=5) + 1j * rng.normal(size=5))
    lhs = apply_z(scale_kernel(a, SIGMA), scale_field(phi, SIGMA))
    rhs = scale_field(apply_z(a, phi), SIGMA)
    assert lhs.spec == rhs.spec == scale_spec(REF, SIGMA)
    assert (lhs.coords == rhs.coords).all()
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-13)


def test_inner_product_scales_by_inverse_amplitude():
    rng = rng_from_seed(12)
    for kind in ("fine", "coarse"):
        coords = rng.integers(-4, 5, size=(6, 2))
        phi = zfield(REF, kind, coords, rng.normal(size=6) + 1j * rng.normal(size=6))
        psi = zfield(REF, kind, coords, rng.normal(size=6) + 1j * rng.normal(size=6))
        scaled = z_inner(scale_field(phi, SIGMA), scale_field(psi, SIGMA))
        assert scaled == pytest.approx(
            z_inner(phi, psi) / amplitude(REF, SIGMA), rel=1e-13
        )


def test_scaled_fiber_reads_original_at_compressed_momentum():
    rng = rng_from_seed(13)
    a = random_zkernel(REF, (2, 2), rng)
    a_s = scale_kernel(a, SIGMA)
    for _ in range(6):
        k = rng.normal(size=2) + 1j * 0.3 * rng.normal(size=2)
        direct = fiber_hat(a_s, k)
        routed = scaled_fiber(a, SIGMA, k)
        np.testing.assert_allclose(routed.entries, direct.entries, atol=1e-12)
        np.testing.assert_allclose(
            direct.entries, fiber_hat(a, k / np.array([4.0, 2.0])).entries, atol=1e-12
        )


def test_scaled_fiber_identity_for_asymmetric_kernels():
    rng = rng_from_seed(14)
    b = random_zkernel_fc(REF, (2, 2), rng)
    c = random_zkernel_fc(REF, (1, 2), rng)
    for _ in range(4):
        k = rng.normal(size=2) + 1j * 0.2 * rng.normal(size=2)
        np.testing.assert_allclose(
            scaled_fiber_fc(b, SIGMA, k), fiber_hat_fc(scale_kernel(b, SIGMA), k),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            scaled_fiber_cf(c, SIGMA, k), fiber_hat_cf(scale_kernel(c, SIGMA), k),
            atol=1e-12,
        )


def test_scaled_norm_bounded_by_transferred_mass():
    rng = rng_from_seed(15)
    for mass in (0.3, 1.0):
        for make, radii in (
            (random_zkernel, (2, 1)),
            (random_zkernel_fc, (1, 2)),
            (random_zkernel_fc, (2, 1)),
        ):
            kernel = make(REF, radii, rng)
            lhs = weighted_norm(scale_kernel(kernel, SIGMA), mass)
            rhs = weighted_norm(kernel, mass * mass_transfer(SIGMA))
            assert lhs <= rhs * (1.0 + 1e-12)


def test_norm_transfer_is_tight_on_the_weakly_contracted_axis():
    # mass_transfer is 1/2, realized by the space axis; a pure space shift
    # saturates the bound while a time shift stays strictly below it
    mass = 0.8
    space = shift_zkernel(REF, (0, 2))
    lhs = weighted_norm(scale_kernel(space, SIGMA), mass)
    rhs = weighted_norm(space, mass * mass_transfer(SIGMA))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(np.exp(mass * 2 * 0.5), rel=1e-12)
    time = shift_zkernel(REF, (3, 0))
    assert weighted_norm(scale_kernel(time, SIGMA), mass) < weighted_norm(
        time, mass * mass_transfer(SIGMA)
    ) * (1.0 - 1e-6)


def test_averaging_kernel_commutes_with_scaling():
    direct = averaging_kernel(naive_profile(scale_spec(REF, SIGMA)))
    routed = scale_kernel(averaging_kernel(naive_profile(REF)), SIGMA)
    assert direct.spec == routed.spec
    assert direct.radii == routed.radii
    np.testing.assert_allclose(direct.entries, routed.entries, rtol=1e-14)
