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
