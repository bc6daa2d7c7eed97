"""Check-suite contract: coverage, determinism, gating, error paths."""

import numpy as np
import pytest

from blochlat.lattice import LatticeSpec
from blochlat.rand import random_zkernel, rng_from_seed
from blochlat.verify import CheckResult, all_passed, verify_suite

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)

ANCHORS = {
    "eqnBOvolhvol",
    "lemBOkervar.a", "lemBOkervar.b", "lemBOkervar.c",
    "lemBOkervar.d", "lemBOkervar.e", "lemBOkervar.f",
    "remBOperiodization.b", "remBOperiodization.c",
    "lemBOperiodalg.a", "lemBOperiodalg.b",
    "lemBOifkervar.a", "lemBOifkervar.b", "lemBOifkervar.c",
    "lemBOuniqueness", "remBOatwisted",
    "eqnPOftaction", "eqnPOtranspose",
    "exBOnaive", "exBOnaiveCont",
    "lemBOQ.a", "lemBOQ.b",
    "lemBOfourier.a", "lemBOfourier.b", "remBOlessnaive",
    "lemBOlonelinfty.a", "lemBOlonelinfty.b", "lemBOlonelinfty.c",
    "eqnBOfofA", "lemBOfnbnd",
    "lemPoPscaling.a", "lemPoPscaling.b", "lemPoPscaling.c",
    "lemPoPscalingCrs.b", "lemPoPscalingCrs.c",
}

PROFILE_NAMES = {
    "naive_projection_identity", "block_average_spot_values",
    "averaging_adjoint", "composite_average_stencil",
    "averaging_momentum_formula", "projection_fiber_rank_one",
    "smooth_profile_response",
}


# every row of the reference run in order: (name, anchor, tolerance), with
# None for the inequality rows, whose right-hand side is a computed bound
ROWS = [
    ("volume_identity_fine", "eqnBOvolhvol", 1e-14),
    ("volume_identity_coarse", "eqnBOvolhvol", 1e-14),
    ("momentum_round_trip", "lemBOkervar.a", 1e-12),
    ("fiber_reconstruction", "lemBOkervar.b", 1e-12),
    ("momentum_action", "lemBOkervar.c", 1e-12),
    ("position_fiber_reconstruction", "lemBOkervar.d", 1e-12),
    ("fiber_position_definition", "lemBOkervar.e", 1e-12),
    ("transpose_fiber_reflection", "lemBOkervar.f", 1e-12),
    ("periodization_wrap_sum", "remBOperiodization.b", 1e-14),
    ("periodization_homomorphism", "remBOperiodization.c", 1e-12),
    ("identity_fiber_delta", "lemBOperiodalg.a", 1e-13),
    ("fiber_multiplicativity", "lemBOperiodalg.b", 1e-12),
    ("inverse_fiber_round_trip", "lemBOifkervar.a", 1e-12),
    ("translation_invariant_diagonal", "lemBOifkervar.b", 1e-12),
    ("discrete_momentum_consistency", "lemBOifkervar.c", 1e-12),
    ("fiber_uniqueness_round_trip", "lemBOuniqueness", 1e-12),
    ("twisted_index_shift", "remBOatwisted", 1e-12),
    ("fc_momentum_action", "eqnPOftaction", 1e-12),
    ("cf_momentum_action", "eqnPOftaction", 1e-12),
    ("asymmetric_transpose_fiber", "eqnPOtranspose", 1e-12),
    ("naive_projection_identity", "exBOnaive", 1e-12),
    ("block_average_spot_values", "exBOnaiveCont", 1e-14),
    ("averaging_adjoint", "lemBOQ.a", 1e-12),
    ("composite_average_stencil", "lemBOQ.b", 1e-12),
    ("averaging_momentum_formula", "lemBOfourier.a", 1e-12),
    ("projection_fiber_rank_one", "lemBOfourier.b", 1e-12),
    ("smooth_profile_response", "remBOlessnaive", 1e-13),
    ("fiber_sup_bound", "lemBOlonelinfty.a", None),
    ("decay_bound_chain", "lemBOlonelinfty.b", None),
    ("torus_norm_dominated", "lemBOlonelinfty.b", None),
    ("stokes_shift_independence", "lemBOlonelinfty.b", 1e-10),
    ("asymmetric_fiber_bound", "lemBOlonelinfty.c", None),
    ("identity_function_round_trip", "eqnBOfofA", 1e-10),
    ("square_matches_composition", "eqnBOfofA", 1e-8),
    ("inverse_left_inverse", "eqnBOfofA", 1e-8),
    ("function_norm_bound", "lemBOfnbnd", None),
    ("scaling_conjugation", "lemPoPscaling.a", 1e-12),
    ("scaling_fiber_identity", "lemPoPscaling.b", 1e-12),
    ("scaling_inner_product", "lemPoPscaling.b", 1e-12),
    ("scaling_norm_inequality", "lemPoPscaling.c", None),
    ("scaling_asymmetric_fibers", "lemPoPscalingCrs.b", 1e-12),
    ("scaling_asymmetric_norms", "lemPoPscalingCrs.c", None),
]


def reference_kernel():
    return random_zkernel(REF, (2, 2), rng_from_seed(7))


def test_reference_run_passes_and_covers_all_anchors():
    results = verify_suite(REF, reference_kernel(), seed=7)
    assert all_passed(results)
    assert {r.anchor for r in results} == ANCHORS
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    for r in results:
        assert isinstance(r, CheckResult)
        assert np.isfinite(r.lhs) and np.isfinite(r.rhs)


def test_reference_rows_keep_name_anchor_and_tolerance():
    results = verify_suite(REF, reference_kernel(), seed=7)
    assert [(r.name, r.anchor) for r in results] == [row[:2] for row in ROWS]
    for r, (_, _, tol) in zip(results, ROWS):
        if tol is not None:
            assert r.rhs == tol, r.name


def test_runs_are_deterministic_per_seed():
    first = verify_suite(REF, reference_kernel(), seed=3)
    second = verify_suite(REF, reference_kernel(), seed=3)
    assert first == second
    other = verify_suite(REF, reference_kernel(), seed=4)
    assert [r.name for r in other] == [r.name for r in first]
    assert other != first


def test_even_ratio_lattice_omits_profile_rows():
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=2, l_x=2, big_l_t=8, big_l_x=8, dim=1)
    kernel = random_zkernel(spec, (2, 1), rng_from_seed(9))
    results = verify_suite(spec, kernel, seed=9)
    assert all_passed(results)
    assert {r.name for r in results}.isdisjoint(PROFILE_NAMES)


def test_single_point_blocks_keep_profile_rows():
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=1, l_x=1, big_l_t=5, big_l_x=5, dim=1)
    kernel = random_zkernel(spec, (1, 1), rng_from_seed(10))
    results = verify_suite(spec, kernel, seed=10)
    assert all_passed(results)
    assert PROFILE_NAMES <= {r.name for r in results}


def test_dim3_lattice_passes_every_row():
    # 4^4 = 256 fine sites in 16 coarse cells of 2^4 block sites
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=2, l_x=2, big_l_t=4, big_l_x=4, dim=3)
    kernel = random_zkernel(spec, 1, rng_from_seed(12))
    results = verify_suite(spec, kernel, seed=12)
    assert all_passed(results)
    names = {r.name for r in results}
    assert names.isdisjoint(PROFILE_NAMES)  # even ratios
    profile_anchors = {"exBOnaive", "exBOnaiveCont", "lemBOQ.a", "lemBOQ.b",
                       "lemBOfourier.a", "lemBOfourier.b", "remBOlessnaive"}
    assert {r.anchor for r in results} == ANCHORS - profile_anchors


def test_kernel_on_wrong_spec_rejected():
    other = LatticeSpec(eps_t=0.5, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
    kernel = random_zkernel(other, (1, 1), rng_from_seed(11))
    with pytest.raises(ValueError, match="spec"):
        verify_suite(REF, kernel, seed=11)


# valid lattices with large spacings, where fibers carry vol_c far from
# n_block and complex-momentum fibers far from 1 in size, or with a long
# reach r * eps, where a fixed imaginary shift amplifies the window's terms
@pytest.mark.parametrize("name, spec, radii, seed", [
    ("fiber_position_definition",
     LatticeSpec(3.8416947814215336, 3.8416947814215336, 3, 4, 3, 4, 3), (0, 0, 0, 0), 65536),
    ("projection_fiber_rank_one",
     LatticeSpec(1.5997265648929782, 3.6050814018999566, 3, 3, 27, 3, 2), (9, 1, 1), 17509),
    ("stokes_shift_independence",
     LatticeSpec(2.0958109246353502, 3.786572925980937, 1, 4, 1, 12, 2), (0, 5, 4), 11071),
    ("stokes_shift_independence",
     LatticeSpec(3.177519616875811, 0.25, 2, 2, 56, 2, 2), (16, 0, 0), 797),
])
def test_rows_pass_at_large_spacings(name, spec, radii, seed):
    results = verify_suite(spec, random_zkernel(spec, radii, rng_from_seed(seed)), seed)
    row = next(r for r in results if r.name == name)
    assert row.passed, row
