"""Weighted norms, decay constants, and fiber-route decay bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_periodic_op_properties import PROPERTY_SETTINGS, REF3, specs_and_radii

from blochlat.lattice import LatticeSpec, build_family, distance_matrix
from blochlat.norms import (
    decay_constant,
    decay_norm_bound,
    fiber_decay_bound,
    inverse_fiber_shifted,
    weighted_norm,
)
from blochlat.periodization import (
    FiberFunction,
    exact_grid_sizes,
    fiber_function,
    identity_zkernel,
    inverse_fiber,
    compose_z,
    periodize,
    shift_zkernel,
    window_offsets,
)
from blochlat.periodic_op import identity_kernel
from blochlat.rand import (
    random_periodic_kernel,
    random_zkernel,
    random_zkernel_fc,
    rng_from_seed,
)

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)


def test_identity_norm_is_one_for_any_mass():
    for mass in (0.0, 0.7, 2.5):
        assert weighted_norm(identity_zkernel(REF), mass) == pytest.approx(1.0, abs=1e-14)
        assert weighted_norm(identity_kernel(FAM), mass) == pytest.approx(1.0, abs=1e-14)


def test_shift_kernel_norm_is_pure_exponential():
    shift = np.array([1, -2])
    a = shift_zkernel(REF, shift)
    dist = np.hypot(1.0, 2.0)
    for mass in (0.0, 0.5, 1.0):
        assert weighted_norm(a, mass) == pytest.approx(np.exp(mass * dist), rel=1e-13)
    assert weighted_norm(periodize(a, FAM), 0.5) == pytest.approx(
        np.exp(0.5 * dist), rel=1e-13
    )


def test_z_norm_agrees_with_torus_norm_when_window_fits():
    rng = rng_from_seed(60)
    for radii in ((2, 1), (4, 1), (1, 3)):
        a = random_zkernel(REF, radii, rng)
        z = weighted_norm(a, 0.8)
        t = weighted_norm(periodize(a, FAM), 0.8)
        assert z == pytest.approx(t, rel=1e-12)


def test_torus_norm_finite_where_the_weight_overflows():
    # exp(200 * dist) overflows on the torus, but only off the support
    a = random_zkernel(REF, (2, 2), rng_from_seed(0))
    torus = weighted_norm(periodize(a, FAM), 200.0)
    assert np.isfinite(torus)
    assert torus <= weighted_norm(a, 200.0) * (1.0 + 1e-12)


def test_torus_norm_matches_direct_formula():
    rng = rng_from_seed(61)
    a = random_periodic_kernel(FAM, rng)
    mass = 0.6
    weight = np.exp(mass * distance_matrix(REF, "fine")) * np.abs(a.entries)
    expect = FAM.vol_f * max(weight.sum(axis=1).max(), weight.sum(axis=0).max())
    assert weighted_norm(a, mass) == pytest.approx(expect, rel=1e-13)


def test_z_norm_row_and_column_sums_brute():
    rng = rng_from_seed(62)
    a = random_zkernel(REF, (2, 1), rng)
    mass = 0.9
    offsets = window_offsets(REF, a.radii)
    # dense patch of the infinite kernel, rows over one block, generous cols
    rows = {}
    cols = {}
    ratios = REF.ratios()
    for wt in range(9):
        for wx in range(9):
            w = np.array([wt, wx])
            wi = int(np.ravel_multi_index(tuple(w % ratios), tuple(ratios)))
            for di, d in enumerate(offsets):
                val = abs(a.entries[wi, di]) * np.exp(mass * np.linalg.norm(d.astype(float)))
                rows[tuple(w)] = rows.get(tuple(w), 0.0) + val
                up = tuple(w + d)
                cols[up] = cols.get(up, 0.0) + val
    # only columns whose contributing rows all lie inside the patch count
    full_cols = [
        v for (v, _) in cols.items() if 3 <= v[0] < 6 and 3 <= v[1] < 6
    ]
    expect = FAM.vol_f * max(
        max(rows.values()), max(cols[v] for v in full_cols)
    )
    assert weighted_norm(a, mass) == pytest.approx(expect, rel=1e-12)


def test_asymmetric_norm_brute_and_transpose_invariance():
    rng = rng_from_seed(63)
    b = random_zkernel_fc(REF, (1, 1), rng)
    mass = 0.7
    offsets = window_offsets(REF, b.radii)
    ratios = REF.ratios()
    eps = REF.spacings()
    # row sums at each block representative; column sum at the coarse origin
    row_best = 0.0
    col_total = 0.0
    block = [np.array([t, x]) for t in range(3) for x in range(3)]
    for wi, w in enumerate(block):
        row = 0.0
        for mi, m in enumerate(offsets):
            d = np.linalg.norm((w - m * ratios) * eps)
            row += abs(b.entries[wi, mi]) * np.exp(mass * d) * FAM.vol_c
            col_total += abs(b.entries[wi, mi]) * np.exp(mass * d) * FAM.vol_f
        row_best = max(row_best, row)
    expect = max(row_best, col_total)
    assert weighted_norm(b, mass) == pytest.approx(expect, rel=1e-12)


def test_norm_is_submultiplicative_and_mass_monotone():
    rng = rng_from_seed(64)
    for _ in range(5):
        a = random_zkernel(REF, (1, 1), rng)
        b = random_zkernel(REF, (1, 2), rng)
        for mass in (0.0, 0.5):
            lhs = weighted_norm(compose_z(a, b), mass)
            rhs = weighted_norm(a, mass) * weighted_norm(b, mass)
            assert lhs <= rhs * (1.0 + 1e-12)
    a = random_zkernel(REF, (2, 2), rng)
    norms = [weighted_norm(a, m) for m in (0.0, 0.3, 0.8, 1.5)]
    assert norms == sorted(norms)


def test_decay_constant_closed_forms():
    for gap in (20.0, 0.5):
        x = np.exp(-gap)
        want = 1.0 + 2.0 * x / (1.0 - x)
        assert decay_constant(gap, (1.0,)) == pytest.approx(want, rel=1e-13)
    x = np.exp(-0.5 * 3.0)
    want = 0.5 * (1.0 + 2.0 * x / (1.0 - x))
    assert decay_constant(3.0, (0.5,)) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="gap"):
        decay_constant(0.0, (1.0,))
    with pytest.raises(ValueError, match="spacings"):
        decay_constant(1.0, (1.0, -2.0))


def test_decay_constant_matches_brute_enumeration_2d():
    for gap, eps in ((3.0, (1.0, 1.0)), (2.0, (1.0, 2.0))):
        cut = 30
        js = np.arange(-cut, cut + 1)
        jt, jx = np.meshgrid(js, js, indexing="ij")
        pts = np.hypot(jt * eps[0], jx * eps[1])
        want = float(np.prod(eps) * np.exp(-gap * pts).sum())
        assert decay_constant(gap, eps) == pytest.approx(want, rel=1e-12)


def _plain_enumeration(gap, eps, cut):
    """vol * sum of exp(-gap |x|) over the box |x_i| <= cut along every axis,
    one slab of the first axis at a time."""
    axes = [np.arange(-int(cut // e), int(cut // e) + 1) * e for e in eps]
    sq = np.zeros(())
    for axis in axes[1:]:
        sq = np.add.outer(sq, axis**2)
    return float(np.prod(eps) * sum(np.exp(-gap * np.sqrt(t * t + sq)).sum() for t in axes[0]))


def _box_points(eps, cut):
    return math.prod(2 * int(cut // e) + 1 for e in eps)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.floats(0.2, 5.0),
    st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n),
)))
def test_decay_constant_is_a_certified_upper_bound(drawn):
    gap, eps = drawn
    value = decay_constant(gap, eps)
    # a box of physical half-width 40 / gap misses below 1e-13 of the sum
    cut = 40.0 / gap
    if _box_points(eps, cut) <= 10**7:
        plain = _plain_enumeration(gap, eps, cut)
        assert plain <= value <= plain * (1.0 + 1e-9)
    else:
        while _box_points(eps, cut) > 10**6:
            cut /= 2.0
        assert _plain_enumeration(gap, eps, cut) <= value


def test_fiber_decay_bound_dominates_entries():
    rng = rng_from_seed(65)
    a = random_zkernel(REF, (2, 1), rng)
    f = fiber_function(a)
    for mass in (0.0, 0.5, 1.0):
        bound = fiber_decay_bound(f, a.radii, mass)
        assert (np.abs(a.entries) <= bound * (1.0 + 1e-12) + 1e-15).all()


@settings(PROPERTY_SETTINGS, max_examples=30)
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_exact_grid_inverts_and_bounds_every_spec(case, seed):
    spec, radii = case
    a = random_zkernel(spec, radii, rng_from_seed(seed))
    f = fiber_function(a)
    scale = np.abs(a.entries).max()
    assert np.abs(inverse_fiber(f, radii).entries - a.entries).max() <= 1e-12 * scale
    for mass in (0.0, 0.5, 1.0):
        bound = fiber_decay_bound(f, radii, mass)
        assert (np.abs(a.entries) <= bound * (1.0 + 1e-12) + 1e-15).all()


def _counting(f):
    """f, and the list that collects the momenta of each of its calls."""
    calls = []

    def matrix_at(ks):
        calls.append(np.asarray(ks))
        return f.matrix_at(ks)

    return FiberFunction(f.spec, matrix_at), calls


def _quadrature_momenta(calls, n_axes):
    """The momenta of the stacked calls; every other call is one probe momentum."""
    assert all(k.shape == (n_axes,) for k in calls if k.ndim == 1)
    return np.concatenate([k for k in calls if k.ndim > 1])


def test_every_inversion_evaluates_the_exact_grid_only():
    a = random_zkernel(REF, (2, 1), rng_from_seed(68))
    nodes = math.prod(exact_grid_sizes(REF, a.radii))  # 2 x 1, not 5 x 3
    for invert in (lambda f: inverse_fiber(f, a.radii),
                   lambda f: inverse_fiber_shifted(f, a.radii, np.array([0.3, -0.2]))):
        f, calls = _counting(fiber_function(a))
        invert(f)
        assert len(_quadrature_momenta(calls, REF.n_axes)) == nodes
    f, calls = _counting(fiber_function(a))
    fiber_decay_bound(f, a.radii, 0.5)
    # each direction is one imaginary shift: the zero offset's and the 12
    # primitive directions of the 5 x 3 window
    _, counts = np.unique(_quadrature_momenta(calls, REF.n_axes).imag, axis=0,
                          return_counts=True)
    assert counts.tolist() == [nodes] * 13
    # at mass 0 every direction's shift is 0: one quadrature serves them all
    f, calls = _counting(fiber_function(a))
    fiber_decay_bound(f, a.radii, 0.0)
    assert len(_quadrature_momenta(calls, REF.n_axes)) == nodes


def test_fiber_decay_bound_sharp_for_shift_kernel():
    shift = np.array([2, -1])
    a = shift_zkernel(REF, shift)
    bound = fiber_decay_bound(fiber_function(a), a.radii, 1.3)
    assert (np.abs(a.entries) <= bound * (1.0 + 1e-12) + 1e-15).all()
    offsets = window_offsets(REF, a.radii)
    hit = int(np.flatnonzero((offsets == shift).all(axis=1))[0])
    # sharp at the support offset itself
    np.testing.assert_allclose(bound[:, hit], np.abs(a.entries[:, hit]), rtol=1e-12)
    # offsets outside the support's dual-coarse alias class contribute nothing
    aliased = ((offsets - shift) % REF.ratios() == 0).all(axis=1)
    assert np.abs(bound[:, ~aliased]).max() <= 1e-14


def test_decay_norm_bound_controls_weighted_norm():
    rng = rng_from_seed(66)
    a = random_zkernel(REF, (2, 1), rng)
    f = fiber_function(a)
    chain = [
        (1.0, 0.5),
        (0.5, 0.25),
    ]
    for mass, target in chain:
        lhs = weighted_norm(a, target)
        rhs = decay_norm_bound(f, a.radii, mass, target)
        assert lhs <= rhs * (1.0 + 1e-12)
    with pytest.raises(ValueError, match="gap"):
        decay_norm_bound(f, a.radii, 0.25, 0.5)


def test_shifted_inversion_is_contour_independent():
    rng = rng_from_seed(67)
    a = random_zkernel(REF, (2, 1), rng)
    f = fiber_function(a)
    plain = inverse_fiber(f, a.radii)
    scale = np.abs(a.entries).max()
    for eta in (np.array([0.3, -0.2]), np.array([1.0, 0.0])):
        shifted = inverse_fiber_shifted(f, a.radii, eta)
        assert np.abs(shifted.entries - plain.entries).max() <= 1e-10 * scale
    with pytest.raises(ValueError, match="components"):
        inverse_fiber_shifted(f, a.radii, np.array([0.1]))
