"""Lattice family construction, duals, projection, distances."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlat.lattice import (
    TAGS,
    LatticeSpec,
    _coords_cache,
    build_family,
    distance_matrix,
    extents,
    inner,
    steps,
)
from blochlat.periodization import normalize_radii, window_offsets, window_shape

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


@pytest.mark.parametrize("fields, name", [
    ({"eps_t": np.inf}, "eps_t"),
    ({"eps_x": -np.inf}, "eps_x"),
    ({"eps_x": np.nan}, "eps_x"),
    ({"eps_x": 1e-320}, "eps_x"),  # the dual cell volume hvol_f overflows
    ({"eps_t": 1e200, "eps_x": 1e200, "dim": 2}, "eps_x"),  # eps_x ** 2 overflows
    ({"eps_t": 1e-200, "eps_x": 1e-200}, "eps_x"),  # the cell volume underflows to 0
    ({"l_t": True}, "l_t"),
    ({"dim": True}, "dim"),
    ({"big_l_x": np.bool_(True), "l_x": 1}, "big_l_x"),
    ({"big_l_x": 9 * 2**63}, "big_l_x"),
    ({"dim": 400}, "dim"),  # (2 pi) ** 401 overflows
])
def test_non_finite_volumes_and_non_integers_rejected_by_name(fields, name):
    values = dict(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
    with pytest.raises(ValueError, match=name):
        LatticeSpec(**{**values, **fields})


@pytest.mark.parametrize("radii", [2.7, True, np.True_, (2, -0.5), (2, 2.0), (True, 2), "2"])
def test_non_integral_radii_rejected_with_the_value(radii):
    with pytest.raises(ValueError, match=re.escape(f"got {radii!r}")):
        normalize_radii(REF, radii)


@st.composite
def specs(draw):
    """A lattice spec with at most 12 sites per axis and spacings off 1."""
    dim = draw(st.integers(1, 3))
    l_t, l_x = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    eps = st.floats(0.25, 4.0)
    return LatticeSpec(draw(eps), draw(eps), l_t, l_x, l_t * draw(st.integers(1, 3)),
                       l_x * draw(st.integers(1, 3)), dim)


def _read_only(arr):
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0
    return True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=specs(), data=st.data())
def test_cached_geometry_equals_a_fresh_computation_and_is_read_only(spec, data):
    n = spec.n_axes
    ratios = np.array([spec.l_t] + [spec.l_x] * spec.dim)
    fine = np.array([spec.big_l_t] + [spec.big_l_x] * spec.dim)
    eps = np.array([spec.eps_t] + [spec.eps_x] * spec.dim)
    fresh_extents = {"fine": fine, "coarse": fine // ratios, "block": ratios}
    fresh_steps = {"fine": eps, "coarse": eps * ratios, "block": eps,
                   "dual_fine": 2.0 * np.pi / (eps * fine),
                   "dual_coarse": 2.0 * np.pi / (eps * fine),
                   "dual_block": 2.0 * np.pi / (eps * ratios)}
    for arr, want in ((spec.spacings(), eps), (spec.ratios(), ratios),
                      (spec.fine_extents(), fine)):
        np.testing.assert_array_equal(arr, want)
        assert _read_only(arr)
    assert (spec.n_fine, spec.n_coarse, spec.n_block) == (
        fine.prod(), (fine // ratios).prod(), ratios.prod())
    fam = build_family(spec)
    for tag in TAGS:
        ext = fresh_extents[tag.removeprefix("dual_")]
        np.testing.assert_array_equal(extents(spec, tag), ext)
        np.testing.assert_array_equal(steps(spec, tag), fresh_steps[tag])
        assert _read_only(extents(spec, tag)) and _read_only(steps(spec, tag))
        assert fam.count(tag) == ext.prod()
        # negative and out-of-range coords wrap onto the torus
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
        coords = np.reshape(coords, (2, n)) * ext + np.arange(2)[:, None] * 7 - 3
        want = np.ravel_multi_index(tuple(np.moveaxis(coords % ext, -1, 0)), tuple(ext))
        np.testing.assert_array_equal(fam.indices(tag, coords), want)
        assert fam.index(tag, coords[1]) == want[1]
    radii = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
    shape = tuple(2 * r + 1 for r in radii)
    offsets = np.indices(shape).reshape(n, -1).T - np.array(radii)
    for given_radii in (radii, list(radii), np.array(radii)):
        assert window_shape(spec, given_radii) == shape
        np.testing.assert_array_equal(window_offsets(spec, given_radii), offsets)
        assert window_offsets(spec, given_radii) is window_offsets(spec, radii)
    assert _read_only(window_offsets(spec, radii))


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
    block = spec.coords("block")
    expect = np.indices(tuple(int(r) for r in spec.ratios()))
    np.testing.assert_array_equal(block, expect.reshape(spec.n_axes, -1).T)
    assert block is build_family(spec).coords("block")
    assert not block.flags.writeable
