"""Torus operators: block rows, fibers, reconstructions, transpose.

``dense_momentum_matrix`` is the two-sided transform of the dense kernel,
the independent reference for block diagonality and for the band oracle
of the ``verify`` suite."""

import math

import numpy as np
import pytest

from blochlat import periodic_op
from blochlat.fourier import transform
from blochlat.lattice import FieldVector, LatticeSpec, build_family
from blochlat.periodic_op import (
    _block_major,
    _fiber_rows,
    apply_kernel,
    bloch_fibers,
    compose,
    identity_kernel,
    periodic_kernel,
    reconstruct,
    transpose_kernel,
)
from blochlat.periodization import fiber_hat
from blochlat.rand import (
    random_field_values,
    random_periodic_kernel,
    random_zkernel,
    rng_from_seed,
)
from blochlat.verify import _band, _band_rows, _lifted_momenta

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)


def dense_momentum_matrix(kernel):
    """A_hat(p, p') = vol_f / n_fine sum_{u, u'} exp(-i p.u) A(u, u')
    exp(i p'.u') over the whole fine dual, from the dense kernel."""
    fam = kernel.family
    ph = fam.pairing_phases(
        "dual_fine", fam.coords("dual_fine"), "fine", fam.coords("fine")
    )
    return (fam.vol_f / fam.n_fine) * (np.conj(ph) @ kernel.entries @ ph.T)


def fiber_by_definition(fam, kernel, rep):
    """A_k(u, u') = vol_c * sum_{u'' ~ u'} exp(-ik.u) A(u, u'') exp(ik.u'').

    Independent of the momentum-matrix route: works entirely in position
    space from the displayed sum.
    """
    sites = fam.coords("fine")
    n = fam.n_fine
    rep = np.asarray(rep, dtype=np.int64)
    phase_u = fam.pairing_phases("dual_coarse", rep, "fine", sites)[0]
    out = np.zeros((n, n), dtype=complex)
    coarse_fine = fam.coords("coarse") * fam.ratios()
    for x in coarse_fine:
        cols = fam.indices("fine", sites + x)
        shifted_phase = fam.pairing_phases(
            "dual_coarse", rep, "fine", (sites + x) % fam.extents("fine")
        )[0]
        out += (
            np.conj(phase_u)[:, None]
            * kernel.entries[:, cols]
            * shifted_phase[None, :]
        )
    return fam.vol_c * out


def test_identity_kernel_momentum_is_identity():
    m = dense_momentum_matrix(identity_kernel(FAM))
    np.testing.assert_allclose(m, np.eye(FAM.n_fine), atol=1e-13)


def test_identity_fibers_are_identity():
    for fiber in bloch_fibers(identity_kernel(FAM)):
        np.testing.assert_allclose(fiber.entries, np.eye(FAM.n_block), atol=1e-13)


def test_apply_identity_and_translation():
    rng = rng_from_seed(1)
    phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
    out = apply_kernel(identity_kernel(FAM), phi)
    np.testing.assert_allclose(out.values, phi.values, atol=1e-14)
    # kernel of translation by one coarse step along the time axis
    shift = np.array([REF.l_t, 0])
    perm = FAM.indices("fine", FAM.coords("fine") + shift)
    rows = np.zeros((FAM.n_block, FAM.n_fine), dtype=complex)
    rows[np.arange(FAM.n_block), perm[_block_major(FAM)[:, 0]]] = 1.0 / FAM.vol_f
    shift_k = periodic_kernel(FAM, rows)
    out = apply_kernel(shift_k, phi)
    np.testing.assert_allclose(out.values, phi.values[perm], atol=1e-14)


def test_non_invariant_kernel_rejected():
    # a dense kernel is rejected by its shape, whether invariant or not
    entries = np.zeros((FAM.n_fine, FAM.n_fine), dtype=complex)
    entries[0, 1] = 1.0
    with pytest.raises(ValueError, match=r"dense kernel: pass its block rows"):
        periodic_kernel(FAM, entries)
    with pytest.raises(ValueError, match=r"dense kernel: pass its block rows"):
        periodic_kernel(FAM, identity_kernel(FAM).entries)


def test_apply_rejects_a_field_of_another_length_or_lattice():
    a = random_periodic_kernel(FAM, rng_from_seed(1))
    short = FieldVector(np.zeros(FAM.n_fine - 1, dtype=complex), "fine")
    with pytest.raises(ValueError, match=f"fields of {FAM.n_fine} fine sites"):
        apply_kernel(a, short)
    with pytest.raises(ValueError, match="fine-lattice fields"):
        apply_kernel(a, FAM.field("coarse", np.zeros(FAM.n_coarse)))


@pytest.mark.parametrize("spec", [
    LatticeSpec(0.5, 1.25, 3, 2, 12, 8, 2),
    LatticeSpec(1.0, 1.0, 2, 2, 20, 16, 1),
    LatticeSpec(1.0, 1.0, 2, 2, 4, 6, 3),
])
def test_apply_kernel_matches_the_direct_gather_bit_for_bit(spec):
    # the reference gathers phi(c + y + x) straight into fine order, w = c + y,
    # through each fine site's block and coarse index, n_block cells x at a
    # time; the cached two-step gather must feed the same products
    fam = build_family(spec)
    rng = rng_from_seed(3)
    kernel = random_periodic_kernel(fam, rng)
    phi = fam.field("fine", random_field_values(fam, "fine", rng))
    fine, coarse, block = fam.coords("fine"), fam.coords("coarse"), _block_major(fam)
    c, y = fam.indices("block", fine), fam.indices("coarse", fine // spec.ratios())
    values, rows = phi.values[block], fam.vol_f * kernel.rows
    expected = np.empty(fam.n_fine, dtype=complex)
    for start in range(0, fam.n_coarse, fam.n_block):
        chunk = slice(start, start + fam.n_block)
        plus = fam.indices("coarse", coarse[:, None, :] + coarse[chunk])
        expected[block[:, chunk]] = rows @ values[c[:, None], plus[y]]
    assert np.array_equal(apply_kernel(kernel, phi).values, expected)


def test_momentum_matrix_block_diagonal():
    rng = rng_from_seed(2)
    m = dense_momentum_matrix(random_periodic_kernel(FAM, rng))
    scale = np.abs(m).max()
    classes = FAM.coords("dual_fine") % FAM.extents("dual_coarse")
    same = (classes[:, None, :] == classes[None, :, :]).all(axis=-1)
    assert np.abs(m[~same]).max() <= 1e-12 * scale


def test_translation_invariant_kernel_has_diagonal_momentum_matrix():
    rng = rng_from_seed(3)
    # A(u, u') = alpha(u - u'), built from a random profile on the torus
    alpha = random_field_values(FAM, "fine", rng)
    sites = FAM.coords("fine")
    diff_idx = np.stack(
        [FAM.indices("fine", sites - sites[j]) for j in range(FAM.n_fine)], axis=1
    )
    kernel = periodic_kernel(FAM, alpha[diff_idx][_block_major(FAM)[:, 0]])
    m = dense_momentum_matrix(kernel)
    alpha_hat = transform(FAM, FAM.field("fine", alpha)).values
    np.testing.assert_allclose(np.diag(m), alpha_hat, atol=1e-11)
    off = m - np.diag(np.diag(m))
    assert np.abs(off).max() <= 1e-12 * max(1.0, np.abs(alpha_hat).max())


def test_momentum_roundtrip_reconstructs_kernel():
    # the band's inverse, the oracle of the momentum_round_trip row
    rng = rng_from_seed(4)
    moms, _ = _lifted_momenta(FAM)
    for _ in range(3):
        a = random_periodic_kernel(FAM, rng)
        back = _band_rows(FAM, _band(FAM, a.rows, moms))
        scale = np.abs(a.rows).max()
        assert np.abs(back - a.rows).max() <= 1e-12 * scale


def test_momentum_action_identity():
    # (A phi)^(p) = sum_p' A_hat(p, p') phi_hat(p'), both routes independent
    rng = rng_from_seed(5)
    a = random_periodic_kernel(FAM, rng)
    m = dense_momentum_matrix(a)
    for _ in range(5):
        phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
        lhs = transform(FAM, apply_kernel(a, phi)).values
        rhs = m @ transform(FAM, phi).values
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_fiber_extraction_matches_position_space_definition():
    rng = rng_from_seed(6)
    a = random_periodic_kernel(FAM, rng)
    fibers = bloch_fibers(a)
    block_ph = FAM.pairing_phases(
        "dual_block", FAM.coords("dual_block"), "fine", FAM.coords("fine")
    )
    scale = np.abs(a.entries).max()
    for fiber in fibers[:4]:
        direct = fiber_by_definition(FAM, a, fiber.rep)
        via_fiber = block_ph.T @ fiber.entries @ np.conj(block_ph)
        assert np.abs(direct - via_fiber).max() <= 1e-12 * scale * FAM.n_block


def test_reconstruct_roundtrip():
    rng = rng_from_seed(7)
    a = random_periodic_kernel(FAM, rng)
    back = reconstruct(FAM, bloch_fibers(a))
    scale = np.abs(a.entries).max()
    assert np.abs(back.entries - a.entries).max() <= 1e-12 * scale


def test_reconstruct_from_definition_fibers():
    # route the fiber definition sum through the k-sum reconstruction display
    rng = rng_from_seed(8)
    a = random_periodic_kernel(FAM, rng)
    sites = FAM.coords("fine")
    acc = np.zeros_like(np.asarray(a.entries))
    for rep in FAM.coords("dual_coarse"):
        ak = fiber_by_definition(FAM, a, rep)
        ph = FAM.pairing_phases("dual_coarse", rep, "fine", sites)[0]
        acc += ph[:, None] * ak * np.conj(ph)[None, :]
    acc /= FAM.vol_c * FAM.n_coarse
    scale = np.abs(a.entries).max()
    assert np.abs(acc - a.entries).max() <= 1e-12 * scale


@pytest.mark.parametrize("spec, grid", [
    (REF, (1, 2)),
    (REF, (4, 1)),
    (LatticeSpec(1.0, 0.5, 2, 3, 4, 6, dim=2), (1, 2, 3)),
])
def test_fiber_rows_on_any_grid_match_the_displayed_sum(spec, grid):
    # A(b, v) = 1 / (vol_c N) sum_{k, l, l'} exp(i (k+l).b) F_k[l, l']
    # exp(-i (k+l').v) on the torus of grid * l sites, from physical momenta
    blocks = rng_from_seed(12).normal(
        size=(math.prod(grid), spec.n_block, spec.n_block, 2)) @ [1.0, 1.0j]
    eps, ratios = spec.spacings(), spec.ratios()

    def points(shape):
        return np.indices(shape).reshape(spec.n_axes, -1).T

    k = points(grid) * 2 * np.pi / (eps * np.multiply(grid, ratios))
    p = k[:, None, :] + points(ratios) * 2 * np.pi / (eps * ratios)  # (k, l)
    left = np.exp(1j * p @ (points(ratios) * eps).T)  # (k, l, b)
    right = np.exp(-1j * p @ (points(np.multiply(grid, ratios)) * eps).T)  # (k, l', v)
    want = np.einsum("klb,klm,kmv->bv", left, blocks, right) / (spec.vol_c * len(k))
    got = _fiber_rows(spec, grid, blocks)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fibers_are_one_read_only_stack():
    a = random_periodic_kernel(FAM, rng_from_seed(9))
    fibers = bloch_fibers(a)
    assert fibers.entries.shape == (FAM.n_coarse, FAM.n_block, FAM.n_block)
    assert not fibers.entries.flags.writeable
    np.testing.assert_array_equal(fibers.rep, FAM.coords("dual_coarse"))
    np.testing.assert_array_equal(fibers.k, fibers.rep * FAM.steps("dual_coarse"))
    assert len(fibers) == FAM.n_coarse
    for i, fiber in enumerate(fibers):
        np.testing.assert_array_equal(fiber.rep, fibers.rep[i])
        assert fibers[i].entries.tobytes() == fibers.entries[i].tobytes()
        assert fiber.entries.tobytes() == fibers.entries[i].tobytes()


def test_reconstruct_requires_full_class_cover():
    rng = rng_from_seed(11)
    a = random_periodic_kernel(FAM, rng)
    fibers = bloch_fibers(a)
    with pytest.raises(ValueError, match="one fiber per dual-coarse class"):
        reconstruct(FAM, fibers[:-1])
    # fiber_hat at the same momenta: the stack carries no reps
    window = fiber_hat(random_zkernel(REF, (2, 2), rng_from_seed(11)), fibers.k)
    assert window.rep is None and len(window) == FAM.n_coarse
    with pytest.raises(ValueError, match="canonical fiber stack"):
        reconstruct(FAM, window)


def test_compose_fibers_multiply():
    rng = rng_from_seed(12)
    a = random_periodic_kernel(FAM, rng)
    b = random_periodic_kernel(FAM, rng)
    fa = bloch_fibers(a)
    fb = bloch_fibers(b)
    fc = bloch_fibers(compose(a, b))
    for fiber_a, fiber_b, fiber_c in zip(fa, fb, fc):
        prod = fiber_a.entries @ fiber_b.entries
        scale = max(1.0, np.abs(prod).max())
        assert np.abs(fiber_c.entries - prod).max() <= 1e-12 * scale


def test_transpose_fiber_relation():
    # fiber of A* at k, entry (l, l'), equals A_hat(-k-l', -k-l)
    rng = rng_from_seed(13)
    a = random_periodic_kernel(FAM, rng)
    m = dense_momentum_matrix(a)
    at = transpose_kernel(a)
    lift = FAM.extents("dual_fine") // FAM.extents("dual_block")
    bhat = FAM.coords("dual_block")
    scale = np.abs(m).max()
    fibers_t = bloch_fibers(at)
    for rep in [np.array([0, 0]), np.array([1, 2]), np.array([2, 1])]:
        fiber_t = fibers_t[FAM.index("dual_coarse", rep)]
        expect = np.empty_like(np.asarray(fiber_t.entries))
        for i, l_row in enumerate(bhat):
            for j, l_col in enumerate(bhat):
                p_row = FAM.index("dual_fine", -rep - l_col * lift)
                p_col = FAM.index("dual_fine", -rep - l_row * lift)
                expect[i, j] = m[p_row, p_col]
        assert np.abs(fiber_t.entries - expect).max() <= 1e-12 * scale
    # involution and symmetry fixed point
    np.testing.assert_array_equal(transpose_kernel(at).entries, a.entries)


def test_compose_matches_brute_force():
    rng = rng_from_seed(14)
    a = random_periodic_kernel(FAM, rng)
    b = random_periodic_kernel(FAM, rng)
    c = compose(a, b)
    expect = FAM.vol_f * a.entries @ b.entries
    assert np.abs(c.entries - expect).max() <= 1e-13 * np.abs(expect).max()
    phi = FAM.field("fine", random_field_values(FAM, "fine", rng))
    lhs = apply_kernel(c, phi).values
    rhs = apply_kernel(a, apply_kernel(b, phi)).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("spec", [REF, LatticeSpec(0.5, 1.25, 2, 3, 6, 9, dim=2)],
                         ids=["ref", "dim2"])
def test_compose_is_the_fiber_product_without_row_gathers(monkeypatch, spec):
    # the product multiplies fibers class by class; no row of it comes from
    # a gather over coarse cells
    def gather(*args):
        raise AssertionError("compose gathered rows")

    fam = build_family(spec)
    rng = rng_from_seed(15)
    a, b = random_periodic_kernel(fam, rng), random_periodic_kernel(fam, rng)
    monkeypatch.setattr(periodic_op, "apply_kernel", gather)
    monkeypatch.setattr(periodic_op, "transpose_kernel", gather)
    got = compose(a, b).entries
    expect = fam.vol_f * a.entries @ b.entries
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
