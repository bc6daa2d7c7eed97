"""Lattice family construction, duals, projection, distances."""

import numpy as np
import pytest

from blochlat.lattice import (
    LatticeSpec,
    _coords_cache,
    build_family,
    distance_matrix,
    extents,
    inner,
    steps,
)
from blochlat.periodization import _block_coords

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)


def test_reference_counts_and_volumes():
    fam = build_family(REF)
    assert fam.vol_f == 1.0
    assert fam.vol_c == 9.0
    assert fam.n_fine == 81
    assert fam.n_coarse == 9
    assert fam.n_block == 9


@pytest.mark.parametrize(
    "spec",
    [
        REF,
        LatticeSpec(eps_t=0.5, eps_x=0.25, l_t=2, l_x=4, big_l_t=8, big_l_x=16, dim=2),
        LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=3),
    ],
)
def test_volume_identities(spec):
    # both cell/dual-cell products reduce to 1/count, relative 1e-14
    fam = build_family(spec)
    two_pi_pow = (2.0 * np.pi) ** (1 + spec.dim)
    lhs_f = fam.vol_f * fam.hvol_f / two_pi_pow
    lhs_c = fam.vol_c * fam.hvol_c / two_pi_pow
    assert abs(lhs_f - 1.0 / fam.n_fine) <= 1e-14 / fam.n_fine
    assert abs(lhs_c - 1.0 / fam.n_coarse) <= 1e-14 / fam.n_coarse
    assert fam.hvol_f == fam.hvol_c
    assert fam.count("dual_fine") == fam.n_fine
    assert fam.count("dual_coarse") == fam.n_coarse
    assert fam.count("block") == fam.n_block == fam.count("dual_block")


def test_divisibility_rejected_with_offending_pair():
    with pytest.raises(ValueError, match="3 does not divide big_l_t=8"):
        LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=8, big_l_x=9)
    with pytest.raises(ValueError, match="l_x=4 does not divide big_l_x=9"):
        LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=4, big_l_t=9, big_l_x=9)


def test_positivity_rejected():
    with pytest.raises(ValueError, match="eps_t"):
        LatticeSpec(eps_t=0.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9)
    with pytest.raises(ValueError, match="dim"):
        LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=0)


def test_extents_and_steps_tables():
    ext_c = extents(REF, "coarse")
    assert tuple(ext_c) == (3, 3)
    assert tuple(extents(REF, "block")) == (3, 3)
    np.testing.assert_allclose(steps(REF, "coarse"), [3.0, 3.0])
    np.testing.assert_allclose(steps(REF, "dual_fine"), [2 * np.pi / 9] * 2)
    np.testing.assert_allclose(steps(REF, "dual_block"), [2 * np.pi / 3] * 2)


def test_site_canonicalization():
    fam = build_family(REF)
    assert fam.index("fine", (10, -1)) == fam.index("fine", (1, 8))
    with pytest.raises(ValueError, match="unknown lattice tag 'nope'"):
        fam.index("nope", (0, 0))


def test_enumeration_row_major_and_index_roundtrip():
    fam = build_family(REF)
    pts = fam.coords("coarse")
    assert pts.shape == (9, 2)
    assert tuple(pts[0]) == (0, 0)
    assert tuple(pts[1]) == (0, 1)
    for idx in range(9):
        assert fam.index("coarse", pts[idx]) == idx


def test_project_dual_phase_identity_full_enumeration():
    # exp(i p.x) == exp(i project(p).x) for every momentum and coarse site
    fam = build_family(REF)
    p_all = fam.coords("dual_fine")
    x_all = fam.coords("coarse")
    lhs = fam.pairing_phases("dual_fine", p_all, "coarse", x_all)
    proj = p_all % fam.extents("dual_coarse")
    rhs = fam.pairing_phases("dual_coarse", proj, "coarse", x_all)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_project_dual_phase_identity_dim3():
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=3)
    fam = build_family(spec)
    p_all = fam.coords("dual_fine")
    x_all = fam.coords("coarse")
    lhs = fam.pairing_phases("dual_fine", p_all, "coarse", x_all)
    proj = p_all % fam.extents("dual_coarse")
    rhs = fam.pairing_phases("dual_coarse", proj, "coarse", x_all)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_torus_distance_wraparound():
    # 1D wraparound on extent 9: representatives {7, -2} -> distance 2
    fam = build_family(REF)
    d = distance_matrix(REF, "fine")
    assert d[fam.index("fine", (1, 0)), fam.index("fine", (8, 0))] == 2.0


def test_torus_distance_metric_properties():
    # the weighted-norm bounds rely on the triangle inequality
    d = distance_matrix(REF, "fine")
    assert (np.diag(d) == 0.0).all()
    np.testing.assert_array_equal(d, d.T)
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12).all()


def test_distance_matrix_matches_sitewise():
    fam = build_family(REF)
    dm = distance_matrix(REF, "coarse")
    pts = fam.coords("coarse")
    for i in range(0, 9, 2):
        for j in range(9):
            delta = [min(abs(int(a) - int(b)), 3 - abs(int(a) - int(b))) * 3.0
                     for a, b in zip(pts[i], pts[j])]
            assert dm[i, j] == pytest.approx(np.hypot(*delta), abs=1e-14)


def test_field_validation_and_inner():
    fam = build_family(REF)
    rng = np.random.default_rng(3)
    f = fam.field("fine", rng.normal(size=81) + 1j * rng.normal(size=81))
    g = fam.field("fine", rng.normal(size=81))
    val = inner(fam, f, g)
    assert val == pytest.approx(fam.vol_f * np.vdot(f.values, g.values))
    with pytest.raises(ValueError, match="expected 81"):
        fam.field("fine", np.zeros(80))
    with pytest.raises(ValueError, match="direct"):
        fam.field("dual_fine", np.zeros(81))
    with pytest.raises(ValueError, match="different"):
        inner(fam, f, fam.field("coarse", np.zeros(9)))


def test_site_caches_are_bounded_and_read_only():
    spec = LatticeSpec(eps_t=0.5, eps_x=0.25, l_t=2, l_x=4, big_l_t=8, big_l_x=16, dim=2)
    for cache in (_coords_cache, distance_matrix):
        assert cache.cache_info().maxsize is not None
    for arr in (_coords_cache(spec, "fine"), distance_matrix(REF, "fine")):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("spec", [
    REF,
    LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=3),
    LatticeSpec(eps_t=0.5, eps_x=0.25, l_t=2, l_x=4, big_l_t=8, big_l_x=16, dim=2),
])
def test_block_coords_are_the_cached_block_table(spec):
    block = _block_coords(spec)
    expect = np.indices(tuple(int(r) for r in spec.ratios()))
    np.testing.assert_array_equal(block, expect.reshape(spec.n_axes, -1).T)
    assert block is build_family(spec).coords("block")
    assert not block.flags.writeable
