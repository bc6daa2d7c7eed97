"""Block averaging: profiles, momentum responses, composite operators."""

import numpy as np
import pytest

from blochlat.lattice import LatticeSpec, build_family, inner
from blochlat.averaging import (
    averaging_kernel,
    dirichlet_average,
    naive_profile,
    profile_hat,
    prolong_field,
    prolong_restrict_fiber,
    prolong_restrict_kernel,
    restrict_field,
    restrict_prolong_profile,
    smooth_profile,
)
from blochlat.periodization import (
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    periodize,
    window_offsets,
)
from blochlat.periodic_op import apply_kernel
from blochlat.rand import random_field_values, rng_from_seed

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)


def dual_block_phys(spec):
    ratios = tuple(int(r) for r in spec.ratios())
    grids = np.meshgrid(*[np.arange(r) for r in ratios], indexing="ij")
    bhat = np.stack([g.reshape(-1) for g in grids], axis=-1)
    return 2.0 * np.pi * bhat / (spec.spacings() * spec.ratios())


def full_weights(profile):
    """Dense per-offset weight lookup: maps tuple(z) to the product weight."""
    offsets = window_offsets(profile.spec, profile.radii)
    table = {}
    for z in offsets:
        val = 1.0
        for axis, w in enumerate(profile.axis_weights):
            val *= w[int(z[axis]) + profile.radii[axis]]
        table[tuple(int(c) for c in z)] = val
    return table


def test_naive_profile_weights_and_parity_guard():
    p = naive_profile(REF)
    assert p.radii == (1, 1)
    for w in p.axis_weights:
        np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-16)
    assert p.window().sum() == pytest.approx(1.0, abs=1e-15)
    even = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=2, l_x=3, big_l_t=8, big_l_x=9, dim=1)
    with pytest.raises(ValueError, match="time"):
        naive_profile(even)


def test_smooth_profile_is_iterated_convolution():
    two = smooth_profile(REF, 2)
    assert two.radii == (2, 2)
    base = np.full(3, 1 / 3)
    expect = np.convolve(base, base)
    for w in two.axis_weights:
        np.testing.assert_allclose(w, expect, atol=1e-16)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
    one = smooth_profile(REF, 1)
    for w, v in zip(one.axis_weights, naive_profile(REF).axis_weights):
        np.testing.assert_array_equal(w, v)
    with pytest.raises(ValueError, match="width"):
        smooth_profile(REF, 0)


def test_dirichlet_average_closed_form_values():
    assert abs(dirichlet_average(3, np.pi) - (-1 / 3)) <= 1e-15
    assert dirichlet_average(3, 0.0) == pytest.approx(1.0, abs=1e-15)
    rng = rng_from_seed(50)
    for theta in rng.uniform(0.1, 3.0, size=8):
        want = np.sin(3 * theta / 2) / (3 * np.sin(theta / 2))
        assert dirichlet_average(3, theta) == pytest.approx(want, abs=1e-13)
        want5 = np.sin(5 * theta / 2) / (5 * np.sin(theta / 2))
        assert dirichlet_average(5, theta) == pytest.approx(want5, abs=1e-13)
    with pytest.raises(ValueError, match="odd"):
        dirichlet_average(4, 0.5)


def test_profile_hat_factorizes_into_dirichlet_responses():
    p = naive_profile(REF)
    rng = rng_from_seed(51)
    for _ in range(5):
        k = rng.normal(size=2)
        want = dirichlet_average(3, k[0]) * dirichlet_average(3, k[1])
        assert profile_hat(p, k) == pytest.approx(want, abs=1e-13)
    two = smooth_profile(REF, 2)
    k = np.array([0.7, -0.4])
    want = (dirichlet_average(3, 0.7) ** 2) * (dirichlet_average(3, -0.4) ** 2)
    assert profile_hat(two, k) == pytest.approx(want, abs=1e-13)
    assert profile_hat(two, np.zeros(2)) == pytest.approx(1.0, abs=1e-14)


def test_restrict_field_matches_brute_average():
    rng = rng_from_seed(52)
    p = smooth_profile(REF, 2)
    table = full_weights(p)
    phi = random_field_values(FAM, "fine", rng)
    got = restrict_field(FAM, p, FAM.field("fine", phi)).values
    ratios = REF.ratios()
    expect = np.zeros(FAM.n_coarse, dtype=complex)
    for i, x in enumerate(FAM.coords("coarse")):
        for z, q in table.items():
            u = FAM.index("fine", x * ratios + np.asarray(z))
            expect[i] += q * phi[u]
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_prolong_field_matches_brute_adjoint_sum():
    rng = rng_from_seed(53)
    p = smooth_profile(REF, 2)
    table = full_weights(p)
    psi = random_field_values(FAM, "coarse", rng)
    got = prolong_field(FAM, p, FAM.field("coarse", psi)).values
    ratios = REF.ratios()
    ext = FAM.extents("fine")
    expect = np.zeros(FAM.n_fine, dtype=complex)
    scale = FAM.vol_c / FAM.vol_f
    for i, u in enumerate(FAM.coords("fine")):
        for j, x in enumerate(FAM.coords("coarse")):
            for z, q in table.items():
                if ((u - x * ratios - np.asarray(z)) % ext == 0).all():
                    expect[i] += scale * q * psi[j]
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_prolongation_is_adjoint_of_restriction():
    rng = rng_from_seed(54)
    p = smooth_profile(REF, 2)
    phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
    psi = FAM.field("coarse", random_field_values(FAM, "coarse", rng))
    lhs = inner(FAM, restrict_field(FAM, p, phi), psi)
    rhs = inner(FAM, phi, prolong_field(FAM, p, psi))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_naive_restrict_after_prolong_is_identity():
    rng = rng_from_seed(55)
    p = naive_profile(REF)
    psi = FAM.field("coarse", random_field_values(FAM, "coarse", rng))
    back = restrict_field(FAM, p, prolong_field(FAM, p, psi)).values
    np.testing.assert_allclose(back, psi.values, atol=1e-14)
    radii, weights = restrict_prolong_profile(p)
    assert radii == (0, 0)
    for w in weights:
        np.testing.assert_allclose(w, [1.0], atol=1e-15)


def test_restrict_prolong_stencil_matches_brute_and_action():
    p = smooth_profile(REF, 2)
    radii, weights = restrict_prolong_profile(p)
    assert radii == (1, 1)
    # brute per-axis stencil: l * sum_z q(z) q(z - l y)
    q = p.axis_weights[0]
    z = np.arange(-2, 3)
    for y, got in zip(range(-1, 2), weights[0]):
        want = 0.0
        for zi, qz in zip(z, q):
            if abs(zi - 3 * y) <= 2:
                want += qz * q[zi - 3 * y + 2]
        assert got == pytest.approx(3 * want, abs=1e-15)
    rng = rng_from_seed(56)
    psi = random_field_values(FAM, "coarse", rng)
    got = restrict_field(FAM, p, prolong_field(FAM, p, FAM.field("coarse", psi))).values
    ext_c = FAM.extents("coarse")
    expect = np.zeros(FAM.n_coarse, dtype=complex)
    for i, x in enumerate(FAM.coords("coarse")):
        for yt in range(-1, 2):
            for yx in range(-1, 2):
                j = FAM.index("coarse", (x + [yt, yx]) % ext_c)
                expect[i] += weights[0][yt + 1] * weights[1][yx + 1] * psi[j]
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_prolong_restrict_kernel_matches_brute_pair_sum():
    p = smooth_profile(REF, 2)
    kern = prolong_restrict_kernel(p)
    assert kern.radii == (4, 4)
    table = full_weights(p)
    offsets = window_offsets(REF, kern.radii)
    ratios = REF.ratios()
    block = FAM.coords("block")
    pref = (FAM.vol_c / FAM.vol_f**2)
    for wi in (0, 4, 7):
        w = block[wi]
        for di in (0, 17, 40, 52, 80):
            d = offsets[di]
            want = 0.0
            for xt in range(-3, 4):
                for xx in range(-3, 4):
                    z0 = w - np.array([xt, xx]) * ratios
                    z1 = z0 + d
                    q0 = table.get(tuple(int(c) for c in z0), 0.0)
                    q1 = table.get(tuple(int(c) for c in z1), 0.0)
                    want += q0 * q1
            assert kern.entries[wi, di] == pytest.approx(pref * want, abs=1e-13)


def test_prolong_restrict_action_and_fiber_consistency():
    p = smooth_profile(REF, 2)
    kern = prolong_restrict_kernel(p)
    rng = rng_from_seed(57)
    phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
    via_ops = prolong_field(FAM, p, restrict_field(FAM, p, phi)).values
    via_kernel = apply_kernel(periodize(kern, FAM), phi).values
    np.testing.assert_allclose(via_kernel, via_ops, atol=1e-12)
    for k in (np.array([0.3, -0.9]), np.array([0.2 + 0.1j, 0.5 - 0.3j])):
        lhs = prolong_restrict_fiber(p, k).entries
        rhs = fiber_hat(kern, k).entries
        assert np.abs(lhs - rhs).max() <= 1e-12
        s = np.linalg.svd(lhs, compute_uv=False)
        assert (s[1:] <= 1e-12 * s[0]).all()


def test_asymmetric_kernel_fibers_are_profile_responses():
    p = smooth_profile(REF, 2)
    ells = dual_block_phys(REF)
    for k in (np.array([0.4, 1.1]), np.array([-0.2 + 0.3j, 0.8])):
        got_r = fiber_hat_cf(averaging_kernel(p), k)
        want_r = np.array([profile_hat(p, k + ell) for ell in ells])
        np.testing.assert_allclose(got_r, want_r, atol=1e-12)
        got_p = fiber_hat_fc(averaging_kernel(p), k)
        want_p = np.array([profile_hat(p, -(k + ell)) for ell in ells])
        np.testing.assert_allclose(got_p, want_p, atol=1e-12)


def test_wide_profile_wraps_and_is_rejected():
    # the window is wider than the torus: restriction gathers every wrapped
    # image, while periodize, which stores one image per pair, refuses it
    wide = smooth_profile(REF, 6)
    rng = rng_from_seed(58)
    phi = random_field_values(FAM, "fine", rng)
    psi = FAM.field("coarse", random_field_values(FAM, "coarse", rng))
    got = restrict_field(FAM, wide, FAM.field("fine", phi))
    ratios = REF.ratios()
    expect = [sum(q * phi[FAM.index("fine", x * ratios + np.asarray(z))]
                  for z, q in full_weights(wide).items()) for x in FAM.coords("coarse")]
    np.testing.assert_allclose(got.values, expect, atol=1e-13)
    lhs = inner(FAM, got, psi)
    rhs = inner(FAM, FAM.field("fine", phi), prolong_field(FAM, wide, psi))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    with pytest.raises(ValueError, match="exceeds torus extent"):
        periodize(prolong_restrict_kernel(wide), FAM)
