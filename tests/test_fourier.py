"""Fourier conventions: prefactors, round trips, Plancherel."""

import numpy as np
import pytest

from blochlat.lattice import LatticeSpec, build_family, inner
from blochlat.fourier import inverse_transform, plancherel_pairing, transform

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
ANISO = LatticeSpec(eps_t=0.5, eps_x=2.0, l_t=2, l_x=3, big_l_t=6, big_l_x=9, dim=1)


def brute_transform(family, tag, values):
    """The defining sum, evaluated with explicit loops over sites/momenta."""
    dual_tag = {"fine": "dual_fine", "coarse": "dual_coarse", "block": "dual_block"}[tag]
    sites = family.coords(tag)
    momenta = family.coords(dual_tag)
    vol = family.vol_c if tag == "coarse" else family.vol_f
    phases = family.pairing_phases(dual_tag, momenta, tag, sites)
    return vol * (np.conj(phases) @ values)


def test_delta_transforms_to_constant_one():
    fam = build_family(REF)
    values = np.zeros(fam.n_fine)
    values[fam.index("fine", (0, 0))] = 1.0 / fam.vol_f
    out = transform(fam, fam.field("fine", values))
    np.testing.assert_allclose(out.values, np.ones(fam.n_fine), atol=1e-14)


def test_constant_transforms_to_delta():
    fam = build_family(REF)
    out = transform(fam, fam.field("fine", np.ones(fam.n_fine)))
    expect = np.zeros(fam.n_fine, dtype=complex)
    expect[0] = fam.vol_f * fam.n_fine
    np.testing.assert_allclose(out.values, expect, atol=1e-11)


@pytest.mark.parametrize("tag", ["fine", "coarse", "block"])
@pytest.mark.parametrize("spec", [REF, ANISO])
def test_round_trip_all_lattices(spec, tag):
    fam = build_family(spec)
    rng = np.random.default_rng(11)
    n = fam.count(tag)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    back = inverse_transform(fam, transform(fam, fam.field(tag, values)))
    np.testing.assert_allclose(back.values, values, atol=1e-12)
    assert back.tag == tag


@pytest.mark.parametrize("tag", ["fine", "coarse", "block"])
def test_matches_defining_sum(tag):
    # pins the FFT route to the literal prefactor-and-phase convention
    fam = build_family(ANISO)
    rng = np.random.default_rng(23)
    n = fam.count(tag)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = transform(fam, fam.field(tag, values))
    np.testing.assert_allclose(out.values, brute_transform(fam, tag, values),
                               atol=1e-12 * n)


def test_inverse_matches_defining_sum():
    fam = build_family(ANISO)
    rng = np.random.default_rng(29)
    vals = rng.normal(size=fam.n_fine) + 1j * rng.normal(size=fam.n_fine)
    spec_vec = fam.spectrum("dual_fine", vals)
    out = inverse_transform(fam, spec_vec)
    momenta = fam.coords("dual_fine")
    sites = fam.coords("fine")
    phases = fam.pairing_phases("dual_fine", momenta, "fine", sites)
    factor = fam.hvol_f / (2 * np.pi) ** (1 + fam.dim)
    expect = factor * (phases.T @ vals)
    np.testing.assert_allclose(out.values, expect, atol=1e-12 * fam.n_fine)


def test_plancherel_bilinear():
    fam = build_family(REF)
    rng = np.random.default_rng(5)
    f = rng.normal(size=fam.n_fine) + 1j * rng.normal(size=fam.n_fine)
    g = rng.normal(size=fam.n_fine) + 1j * rng.normal(size=fam.n_fine)
    lhs = fam.vol_f * np.sum(f * g)
    rhs = plancherel_pairing(
        fam, transform(fam, fam.field("fine", f)), transform(fam, fam.field("fine", g))
    )
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_plancherel_sesquilinear_via_inner():
    # conjugating the first field turns the pairing into the inner product
    fam = build_family(REF)
    rng = np.random.default_rng(17)
    f = rng.normal(size=fam.n_fine) + 1j * rng.normal(size=fam.n_fine)
    g = rng.normal(size=fam.n_fine) + 1j * rng.normal(size=fam.n_fine)
    lhs = inner(fam, fam.field("fine", f), fam.field("fine", g))
    rhs = plancherel_pairing(
        fam,
        transform(fam, fam.field("fine", np.conj(f))),
        transform(fam, fam.field("fine", g)),
    )
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_round_trip_dim3_is_cheap():
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=3)
    fam = build_family(spec)
    rng = np.random.default_rng(2)
    values = rng.normal(size=fam.n_fine)
    back = inverse_transform(fam, transform(fam, fam.field("fine", values)))
    np.testing.assert_allclose(back.values, values, atol=1e-12)


def test_tag_mismatch_rejected():
    fam = build_family(REF)
    with pytest.raises(ValueError, match="direct-lattice"):
        transform(fam, fam.spectrum("dual_fine", np.zeros(fam.n_fine)))
    with pytest.raises(ValueError, match="dual-lattice"):
        inverse_transform(fam, fam.field("fine", np.zeros(fam.n_fine)))
