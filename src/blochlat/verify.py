"""Self-check suite behind the CLI ``verify`` task.

Every structural identity the library promises is evaluated on a configured
lattice and kernel and reported as one row per check.  Rows carry a stable
``anchor`` identifier so downstream tooling can track individual checks
across releases.  Equality-style checks report the relative deviation
against its tolerance; inequality-style checks report both sides verbatim.
Results are deterministic given (spec, kernel, seed).

The torus and window oracles work on block rows: a coarse-invariant kernel
is fixed by its rows at the block sites.  The momentum matrix is taken on
its band only, the entries A_hat(p, p') with p and p' in one dual-coarse
class (``lemBOkervar.a``/``.c``/``.f``), by a direct phase-matrix DFT per
fine axis; the position-space fiber (``lemBOkervar.d``/``.e``) and the
periodization wrap sum (``remBOperiodization.b``) are built by indexing.
Each oracle stays independent of the FFT fiber route it checks.  The product
rows compare block rows as well: no check reads a dense kernel.
"""

from __future__ import annotations

import numpy as np

from .averaging import (
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
from .fourier import transform
from .lattice import LatticeSpec, Record, inner
from .norms import decay_norm_bound, inverse_fiber_shifted, weighted_norm
from .opfunc import FUNCTIONS, Circle, function_norm_bound, function_of_operator
from .periodic_op import (
    _block_major,
    apply_kernel,
    bloch_fibers,
    compose,
    identity_kernel,
    reconstruct,
    transpose_kernel,
)
from .periodization import (
    ZKernel,
    apply_cf,
    apply_fc,
    apply_z,
    compose_z,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    fiber_function,
    identity_zkernel,
    inverse_fiber,
    periodize,
    translation_invariant_zkernel,
    window_offsets,
    window_shape,
    z_inner,
    zfield,
    zkernel,
)
from .rand import (
    random_field_values,
    random_periodic_kernel,
    random_zkernel,
    random_zkernel_fc,
    rng_from_seed,
)
from .scaling import (
    ScaleFactors,
    amplitude,
    mass_transfer,
    scale_field,
    scale_kernel,
    scaled_fiber,
    scaled_fiber_fc,
)

__all__ = ["CheckResult", "verify_suite", "all_passed"]

# norm checks run at this mass ladder: m > m' > m'' > 0
MASS, MASS_MID, MASS_LOW = 1.0, 0.5, 0.25
SCALE_FACTORS = ScaleFactors(time=4.0, space=2.0)
INEQ_SLACK = 1e-12


class CheckResult(Record):
    """One check row, ``name`` testing the paper statement ``anchor``.

    ``passed`` says whether ``lhs`` meets ``rhs``: a deviation within its
    tolerance, or a bound that holds.  ``witness``, when set, names the
    momentum or parameters the row was decided at.
    """

    name: str
    anchor: str
    lhs: float
    rhs: float
    passed: bool
    witness: str | None = None


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def _eq(name, anchor, deviation, tol, witness=None) -> CheckResult:
    dev = float(deviation)
    return CheckResult(name, anchor, dev, float(tol), dev <= tol, witness)


def _le(name, anchor, lhs, rhs, witness=None) -> CheckResult:
    lhs, rhs = float(lhs), float(rhs)
    return CheckResult(name, anchor, lhs, rhs, lhs <= rhs * (1.0 + INEQ_SLACK), witness)


def _fmt_vec(v) -> str:
    parts = (complex(z) for z in np.asarray(v).reshape(-1))
    return "(" + ", ".join(f"{z.real:.6g}" if z.imag == 0 else f"{z.real:.6g}{z.imag:+.6g}j"
                           for z in parts) + ")"


def _rel(dev, scale) -> float:
    return float(dev) / max(float(scale), 1e-300)


def _rel_peaks(delta, reference) -> list[float]:
    """Per member of two stacks (the leading axis): max |delta| over
    max(1, max |reference|)."""
    axes = tuple(range(1, np.ndim(reference)))
    return [_rel(d, max(1.0, e)) for d, e in zip(np.abs(delta).max(axis=axes),
                                                 np.abs(reference).max(axis=axes))]


def _lifted_momenta(spec: LatticeSpec):
    """The momenta rep + l * lift, rep (rows) over the dual-coarse torus and
    l (columns) over the dual block, and their fine-dual indices."""
    lift = spec.extents("dual_fine") // spec.extents("dual_block")
    moms = spec.coords("dual_coarse")[:, None, :] + spec.coords("dual_block") * lift
    return moms, spec.indices("dual_fine", moms)


def _complex_momenta(spec, rng, count, im_radius):
    """Sample momenta with real parts in the zone and |Im k| < im_radius."""
    width = 2.0 * np.pi / (spec.spacings() * spec.ratios())
    out = []
    for _ in range(count):
        re = rng.uniform(0.0, 1.0, size=spec.n_axes) * width
        im = rng.normal(size=spec.n_axes)
        im *= rng.uniform(0.0, 0.99) * im_radius / max(np.linalg.norm(im), 1e-12)
        out.append(re + 1j * im)
    return np.array(out)


# ---------------------------------------------------------------------------
# lattice volumes
# ---------------------------------------------------------------------------


def _volume_checks(spec: LatticeSpec):
    two_pi = (2.0 * np.pi) ** spec.n_axes
    fine = spec.volume("fine") * spec.volume("dual_fine") / two_pi
    coarse = spec.volume("coarse") * spec.volume("dual_coarse") / two_pi
    return [
        _eq("volume_identity_fine", "eqnBOvolhvol",
            _rel(abs(fine - 1.0 / spec.n_fine), 1.0 / spec.n_fine), 1e-14),
        _eq("volume_identity_coarse", "eqnBOvolhvol",
            _rel(abs(coarse - 1.0 / spec.n_coarse), 1.0 / spec.n_coarse), 1e-14),
    ]


# ---------------------------------------------------------------------------
# torus operators
# ---------------------------------------------------------------------------


def _definition_fiber(spec: LatticeSpec, kernel, rep):
    """Block rows vol_c sum_x exp(-i k.b) A(b, v + x) exp(i k.(v + x)) of the
    position-space fiber, x over the coarse cells, fully independent of the
    band and FFT routes.  v + x runs over the coarse class of v,
    so the sum over x is one sum over the coarse axes of the weighted rows."""
    phase = spec.pairing_phases("dual_coarse", rep, "fine", spec.coords("fine"))[0]
    split = tuple(int(e) for pair in zip(spec.extents("coarse"), spec.ratios())
                  for e in pair)  # each fine axis as (coarse cell, block site)
    per_class = (kernel.rows * phase).reshape((spec.n_block,) + split).sum(
        axis=tuple(range(1, 2 * spec.n_axes, 2))
    ).reshape(spec.n_block, spec.n_block)
    classes = spec.indices("block", spec.coords("fine"))
    return spec.vol_c * np.conj(phase[_block_major(spec)[:, 0]])[:, None] * per_class[:, classes]


def _direct_dft(spec: LatticeSpec, rows, sign: int) -> np.ndarray:
    """sum_v rows[:, v] exp(sign i p.v) at every fine-dual p, v over the
    fine sites: one phase matrix per fine axis, no FFT."""
    ext = tuple(int(e) for e in spec.extents("fine"))
    out = rows.reshape((-1,) + ext)
    for axis, n in enumerate(ext, start=1):
        phase = np.exp(sign * 2j * np.pi * (np.outer(range(n), range(n)) % n) / n)
        out = np.moveaxis(np.tensordot(out, phase, axes=(axis, 0)), -1, axis)
    return out.reshape(rows.shape)


def _band(spec: LatticeSpec, rows, moms) -> np.ndarray:
    """The momentum matrix on its band, [k, l, l'] = A_hat(moms[k, l],
    moms[k, l']) for momenta (n_coarse, n_block, n_axes), one dual-coarse
    class per k: A_hat(p, p') = vol_f / n_block sum_b exp(-i p.b) R_b(p')
    with R_b(p) = sum_v A(b, v) exp(i p.v)."""
    p = spec.indices("dual_fine", moms)
    ph = spec.pairing_phases("dual_fine", spec.coords("dual_fine"), "block", spec.coords("block"))
    out = np.conj(ph[p]) @ np.moveaxis(_direct_dft(spec, rows, 1)[:, p], 0, 1)
    return spec.vol_f / spec.n_block * out


def _band_rows(spec: LatticeSpec, band) -> np.ndarray:
    """Invert :func:`_band` over ``_lifted_momenta``: G_b(k+l') = sum_l
    exp(i (k+l).b) band[k, l, l'] covers the fine dual once, and A(b, v) =
    1 / (vol_c n_coarse) sum_p G_b(p) exp(-i p.v)."""
    _, p = _lifted_momenta(spec)
    ph = spec.pairing_phases("dual_fine", spec.coords("dual_fine"), "block", spec.coords("block"))
    g_b = np.empty((spec.n_block, spec.n_fine), dtype=complex)
    g_b[:, p] = np.moveaxis(np.swapaxes(ph[p], 1, 2) @ band, 1, 0)
    return _direct_dft(spec, g_b, -1) / (spec.vol_c * spec.n_coarse)


def _torus_checks(spec: LatticeSpec, rng):
    out = []
    a = random_periodic_kernel(spec, rng)
    scale = np.abs(a.rows).max()

    moms, p = _lifted_momenta(spec)
    band = _band(spec, a.rows, moms)
    out.append(_eq("momentum_round_trip", "lemBOkervar.a",
                   _rel(np.abs(_band_rows(spec, band) - a.rows).max(), scale), 1e-12))

    fibers = bloch_fibers(a)
    back = reconstruct(spec, fibers)
    out.append(_eq("fiber_reconstruction", "lemBOkervar.b",
                   _rel(np.abs(back.rows - a.rows).max(), scale), 1e-12))

    worst = 0.0
    for _ in range(5):
        phi = spec.field("fine", random_field_values(spec, "fine", rng))
        lhs = transform(spec, apply_kernel(a, phi)).values
        rhs = np.empty(spec.n_fine, dtype=complex)
        rhs[p] = (band @ transform(spec, phi).values[p][:, :, None])[:, :, 0]
        worst = max(worst, _rel(np.abs(lhs - rhs).max(), max(1.0, np.abs(lhs).max())))
    out.append(_eq("momentum_action", "lemBOkervar.c", worst, 1e-12))

    sites = spec.coords("fine")
    block_sites = _block_major(spec)[:, 0]
    acc = np.zeros_like(np.asarray(a.rows))
    for rep in spec.coords("dual_coarse"):
        ak = _definition_fiber(spec, a, rep)
        ph = spec.pairing_phases("dual_coarse", rep, "fine", sites)[0]
        acc += ph[block_sites, None] * ak * np.conj(ph)[None, :]
    acc /= spec.vol_c * spec.n_coarse
    out.append(_eq("position_fiber_reconstruction", "lemBOkervar.d",
                   _rel(np.abs(acc - a.rows).max(), scale), 1e-12))

    block_ph = spec.pairing_phases(
        "dual_block", spec.coords("dual_block"), "fine", sites
    )
    worst = 0.0
    for fiber in fibers[:4]:
        direct = _definition_fiber(spec, a, fiber.rep)
        via = block_ph.T[block_sites] @ fiber.entries @ np.conj(block_ph)
        worst = max(worst, _rel(np.abs(direct - via).max(), scale * spec.vol_c))
    out.append(_eq("fiber_position_definition", "lemBOkervar.e", worst, 1e-12))

    # the fiber of the transpose at k is the band at -k - l, transposed
    expect = np.swapaxes(_band(spec, a.rows, -moms), 1, 2)
    got = bloch_fibers(transpose_kernel(a)).entries
    out.append(_eq("transpose_fiber_reflection", "lemBOkervar.f",
                   _rel(np.abs(got - expect).max(), np.abs(band).max()), 1e-12))
    return out


# ---------------------------------------------------------------------------
# window kernels and their fibers
# ---------------------------------------------------------------------------


def _companion_radii(spec: LatticeSpec, radii) -> tuple[int, ...]:
    """Largest radii <= 1 whose sum with ``radii`` still fits the fine torus."""
    return tuple(max(0, min(1, (int(e) - 1) // 2 - int(r)))
                 for r, e in zip(radii, spec.extents("fine")))


def _coarse_kernel(spec: LatticeSpec, rng):
    """Random fine-coarse kernel of radius <= 1 that fits the coarse torus."""
    radii = tuple(min(1, (int(e) - 1) // 2) for e in spec.extents("coarse"))
    return random_zkernel_fc(spec, radii, rng)


def _window_checks(spec: LatticeSpec, a: ZKernel, rng):
    out = []
    scale = max(np.abs(a.entries).max(), 1e-300)

    torus = periodize(a, spec)
    # a gather, apart from periodize's scatter: reduce v - b to its minimal
    # image d, then read a(b, d) inside the window and 0 outside
    ext = spec.extents("fine")
    ratios = spec.ratios()
    radii = np.asarray(a.radii)
    d = (spec.coords("fine")[None, :, :] - spec.coords("block")[:, None, :]) % ext
    d = np.where(2 * d > ext, d - ext, d)
    inside = (np.abs(d) <= radii).all(axis=2)
    slot = np.ravel_multi_index(
        tuple(np.moveaxis(np.clip(d + radii, 0, 2 * radii), 2, 0)), window_shape(spec, a.radii)
    )
    expect = np.where(inside, np.take_along_axis(a.entries, slot, axis=1), 0.0)
    out.append(_eq("periodization_wrap_sum", "remBOperiodization.b",
                   _rel(np.abs(torus.rows - expect).max(), scale), 1e-14))

    b = random_zkernel(spec, _companion_radii(spec, a.radii), rng)
    ab = compose_z(a, b)
    lhs = periodize(ab, spec)
    rhs = compose(torus, periodize(b, spec))
    cscale = max(np.abs(rhs.rows).max(), 1e-300)
    out.append(_eq("periodization_homomorphism", "remBOperiodization.c",
                   _rel(np.abs(lhs.rows - rhs.rows).max(), cscale), 1e-12))

    eye = fiber_function(identity_zkernel(spec)).matrix_at(
        _complex_momenta(spec, rng, 3, MASS))
    out.append(_eq("identity_fiber_delta", "lemBOperiodalg.a",
                   np.abs(eye - np.eye(spec.n_block)).max(), 1e-13))

    f = fiber_function(a)
    ks = np.concatenate([_complex_momenta(spec, rng, 5, MASS),
                         _complex_momenta(spec, rng, 5, MASS).real])
    product = f.matrix_at(ks) @ fiber_function(b).matrix_at(ks)
    devs = _rel_peaks(fiber_function(ab).matrix_at(ks) - product, product)
    j = int(np.argmax(devs))
    out.append(_eq("fiber_multiplicativity", "lemBOperiodalg.b", devs[j], 1e-12,
                   witness=f"worst k={_fmt_vec(ks[j])}"))

    back = inverse_fiber(f, a.radii)
    out.append(_eq("inverse_fiber_round_trip", "lemBOifkervar.a",
                   _rel(np.abs(back.entries - a.entries).max(), scale), 1e-12))

    prof_radii = tuple(min(1, int(r)) for r in a.radii)
    profile = rng.normal(size=len(window_offsets(spec, prof_radii)))
    ti = translation_invariant_zkernel(spec, prof_radii, profile)
    ti_offsets = window_offsets(spec, prof_radii)
    eps = spec.spacings()
    ells = 2.0 * np.pi * spec.coords("dual_block") / (eps * ratios)
    ks = _complex_momenta(spec, rng, 3, MASS)
    alpha_hat = spec.vol_f * (np.exp(1j * (ks[:, None, :] + ells) @ (ti_offsets * eps).T)
                             @ profile)
    expect = alpha_hat[:, :, None] * np.eye(spec.n_block)
    worst = max(_rel_peaks(fiber_hat(ti, ks).entries - expect, expect))
    out.append(_eq("translation_invariant_diagonal", "lemBOifkervar.b", worst, 1e-12))

    # the fibers carry vol_f, like fiber_position_definition's carry vol_c
    fibers = bloch_fibers(torus)
    worst = _rel(np.abs(f.matrix_at(fibers.k) - fibers.entries).max(), scale * spec.vol_f)
    out.append(_eq("discrete_momentum_consistency", "lemBOifkervar.c", worst, 1e-12))

    ks = _complex_momenta(spec, rng, 3, MASS)
    expect = f.matrix_at(ks)
    worst = max(_rel_peaks(fiber_function(back).matrix_at(ks) - expect, expect))
    out.append(_eq("fiber_uniqueness_round_trip", "lemBOuniqueness", worst, 1e-12))

    shape = tuple(int(r) for r in ratios)
    k0 = _complex_momenta(spec, rng, 1, MASS)[0]
    units = np.eye(spec.n_axes, dtype=np.int64)
    base, *shifted = f.matrix_at(np.vstack([k0, k0 + units * 2.0 * np.pi / (eps * ratios)]))
    # rolling permutes the entries, so max |rolled| is max |base|
    rolled = np.array([np.roll(base.reshape(shape + shape), shift=tuple(-t) + tuple(-t),
                               axis=tuple(range(2 * spec.n_axes))).reshape(base.shape)
                       for t in units])
    out.append(_eq("twisted_index_shift", "remBOatwisted",
                   max(_rel_peaks(np.array(shifted) - rolled, rolled)), 1e-12))
    return out


def _asymmetric_checks(spec: LatticeSpec, rng):
    out = []
    b = _coarse_kernel(spec, rng)
    step_c = spec.steps("dual_coarse")

    reps = spec.coords("dual_coarse")
    _, p = _lifted_momenta(spec)

    psi = spec.field("coarse", random_field_values(spec, "coarse", rng))
    got = transform(spec, apply_fc(spec, b, psi)).values
    psi_hat = transform(spec, psi).values
    coeffs = fiber_hat_fc(b, reps * step_c)
    expect = np.zeros(spec.n_fine, dtype=complex)
    expect[p] = coeffs * psi_hat[:, None]
    dev_fc = _rel(np.abs(got - expect).max(), max(1.0, np.abs(expect).max()))
    out.append(_eq("fc_momentum_action", "eqnPOftaction", dev_fc, 1e-12))

    phi = spec.field("fine", random_field_values(spec, "fine", rng))
    got = transform(spec, apply_cf(spec, b, phi)).values
    phi_hat = transform(spec, phi).values
    coeffs = fiber_hat_cf(b, reps * step_c)
    expect = (coeffs * phi_hat[p]).sum(axis=1)
    dev_cf = _rel(np.abs(got - expect).max(), max(1.0, np.abs(expect).max()))
    out.append(_eq("cf_momentum_action", "eqnPOftaction", dev_cf, 1e-12))

    shape = tuple(int(r) for r in spec.ratios())
    grid = np.indices(shape).reshape(spec.n_axes, -1).T
    neg = np.ravel_multi_index(tuple((-grid % shape).T), shape)
    ks = _complex_momenta(spec, rng, 3, MASS)
    direct = fiber_hat_cf(b, ks)
    worst = max(_rel_peaks(direct - fiber_hat_fc(b, -ks)[:, neg], direct))
    out.append(_eq("asymmetric_transpose_fiber", "eqnPOtranspose", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------
# averaging profiles
# ---------------------------------------------------------------------------


def _profile_checks(spec: LatticeSpec, rng):
    out = []
    naive = naive_profile(spec)
    smooth = smooth_profile(spec, 2)
    step_f = spec.steps("dual_fine")

    worst = 0.0
    for _ in range(3):
        psi = spec.field("coarse", random_field_values(spec, "coarse", rng))
        back = restrict_field(spec, naive, prolong_field(spec, naive, psi)).values
        worst = max(worst, np.abs(back - psi.values).max())
    out.append(_eq("naive_projection_identity", "exBOnaive", worst, 1e-12))

    worst = 0.0
    for points in {int(spec.l_t), int(spec.l_x)}:
        worst = max(worst, abs(dirichlet_average(points, 0.0) - 1.0))
        closed = np.sin(points * np.pi / 2.0) / points
        worst = max(worst, abs(dirichlet_average(points, np.pi) - closed))
    out.append(_eq("block_average_spot_values", "exBOnaiveCont", worst, 1e-14))

    phi = spec.field("fine", random_field_values(spec, "fine", rng))
    psi = spec.field("coarse", random_field_values(spec, "coarse", rng))
    lhs = inner(spec, restrict_field(spec, smooth, phi), psi)
    rhs = inner(spec, phi, prolong_field(spec, smooth, psi))
    out.append(_eq("averaging_adjoint", "lemBOQ.a",
                   _rel(abs(lhs - rhs), max(1.0, abs(lhs))), 1e-12))

    st_radii, st_weights = restrict_prolong_profile(smooth)
    psi = random_field_values(spec, "coarse", rng)
    via_ops = restrict_field(
        spec, smooth, prolong_field(spec, smooth, spec.field("coarse", psi))
    ).values
    offs = window_offsets(spec, st_radii)
    weights = np.prod([w[offs[:, axis] + r] for axis, (r, w)
                       in enumerate(zip(st_radii, st_weights))], axis=0)
    expect = psi[spec.indices("coarse", spec.coords("coarse")[:, None, :] + offs)] @ weights
    out.append(_eq("composite_average_stencil", "lemBOQ.b",
                   _rel(np.abs(via_ops - expect).max(),
                        max(1.0, np.abs(expect).max())), 1e-12))

    phi = spec.field("fine", random_field_values(spec, "fine", rng))
    phi_hat = transform(spec, phi).values
    got_q = transform(spec, restrict_field(spec, smooth, phi)).values
    psi = spec.field("coarse", random_field_values(spec, "coarse", rng))
    got_qs = transform(spec, prolong_field(spec, smooth, psi)).values
    psi_hat = transform(spec, psi).values
    moms, p = _lifted_momenta(spec)
    q_hat = profile_hat(smooth, moms * step_f)
    dev = max(np.abs(got_qs[p] - np.conj(q_hat) * psi_hat[:, None]).max(),
              np.abs(got_q - (q_hat * phi_hat[p]).sum(axis=1)).max())
    out.append(_eq("averaging_momentum_formula", "lemBOfourier.a",
                   _rel(dev, max(1.0, np.abs(phi_hat).max(), np.abs(psi_hat).max())),
                   1e-12))

    kern = prolong_restrict_kernel(smooth)
    ks = _complex_momenta(spec, rng, 2, MASS)
    direct = prolong_restrict_fiber(smooth, ks).entries
    worst = max(_rel_peaks(direct - fiber_hat(kern, ks).entries, direct))
    k_real = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_axes) / (
        spec.spacings() * spec.ratios()
    )
    ells = 2.0 * np.pi * spec.coords("dual_block") / (spec.spacings() * spec.ratios())
    q_lifted = profile_hat(smooth, k_real + ells)
    rank_one = np.conj(q_lifted)[:, None] * q_lifted[None, :]
    worst = max(worst, np.abs(fiber_hat(kern, k_real).entries - rank_one).max())
    out.append(_eq("projection_fiber_rank_one", "lemBOfourier.b", worst, 1e-12))

    dev = 0.0
    for w, n in zip(smooth.axis_weights, (spec.l_t,) + (spec.l_x,) * spec.dim):
        base = np.full(int(n), 1.0 / int(n))
        dev = max(dev, np.abs(w - np.convolve(base, base)).max())
    ks = rng.normal(size=(3, spec.n_axes))
    closed = np.prod(
        [dirichlet_average(int(n), ks[:, axis] * eps) ** 2
         for axis, (n, eps) in enumerate(
             zip((spec.l_t,) + (spec.l_x,) * spec.dim, spec.spacings()))], axis=0
    )
    dev = max(dev, np.abs(profile_hat(smooth, ks) - closed).max())
    out.append(_eq("smooth_profile_response", "remBOlessnaive", dev, 1e-13))
    return out


# ---------------------------------------------------------------------------
# weighted norms and decay
# ---------------------------------------------------------------------------


def _norm_checks(spec: LatticeSpec, a: ZKernel, rng):
    out = []

    norm_m = weighted_norm(a, MASS)
    f = fiber_function(a)
    ks = _complex_momenta(spec, rng, 40, MASS)
    peaks = np.abs(f.matrix_at(ks)).max(axis=(1, 2))
    j = int(np.argmax(peaks))
    out.append(_le("fiber_sup_bound", "lemBOlonelinfty.a", peaks[j], norm_m,
                   witness=f"sup at k={_fmt_vec(ks[j])}"))

    bound = decay_norm_bound(f, a.radii, MASS_MID, MASS_LOW)
    out.append(_le("decay_bound_chain", "lemBOlonelinfty.b",
                   weighted_norm(a, MASS_LOW), bound))

    out.append(_le("torus_norm_dominated", "lemBOlonelinfty.b",
                   weighted_norm(periodize(a, spec), MASS_LOW),
                   weighted_norm(a, MASS_LOW)))

    eta = np.full(spec.n_axes, 0.3)
    eta[-1] = -0.2
    # the shift amplifies each term by up to e^(eta . d) over the window, so
    # its reach max_a |eta_a| r_a eps_a is capped at 0.6, the reference's
    eta *= 0.6 / max(0.6, float((np.abs(eta) * a.radii * spec.spacings()).max()))
    shifted = inverse_fiber_shifted(f, a.radii, eta)
    dev = _rel(np.abs(shifted.entries - a.entries).max(),
               max(np.abs(a.entries).max(), 1e-300))
    out.append(_eq("stokes_shift_independence", "lemBOlonelinfty.b", dev, 1e-10,
                   witness=f"eta={_fmt_vec(eta)}"))

    b = _coarse_kernel(spec, rng)
    norm_b = weighted_norm(b, MASS)
    sup = np.abs(fiber_hat_fc(b, _complex_momenta(spec, rng, 20, MASS))).max()
    out.append(_le("asymmetric_fiber_bound", "lemBOlonelinfty.c", sup, norm_b))
    return out


# ---------------------------------------------------------------------------
# functions of operators
# ---------------------------------------------------------------------------


def _recentered(a: ZKernel, shift: float = 10.0, width: float = 0.3) -> ZKernel:
    """Shrink ``a`` into a disc of radius ``width`` around ``shift`` so the
    default contour is guaranteed to clear the spectrum."""
    spec = a.spec
    scale = weighted_norm(a, 0.0)
    entries = np.asarray(a.entries) * (width / scale if scale > 0 else 0.0)
    offsets = window_offsets(spec, a.radii)
    center = int(np.flatnonzero((offsets == 0).all(axis=1))[0])
    entries = entries.copy()
    entries[:, center] += shift / spec.vol_f
    return zkernel(spec, a.radii, entries)


def _opfunc_checks(spec: LatticeSpec, a: ZKernel):
    out = []
    t = periodize(_recentered(a), spec)
    contour = Circle(10.0, 5.0)
    scale = np.abs(t.rows).max()

    same = function_of_operator(t, FUNCTIONS["identity"], contour)
    out.append(_eq("identity_function_round_trip", "eqnBOfofA",
                   _rel(np.abs(same.rows - t.rows).max(), scale), 1e-10))

    sq = function_of_operator(t, FUNCTIONS["square"], contour)
    direct = compose(t, t)
    out.append(_eq("square_matches_composition", "eqnBOfofA",
                   _rel(np.abs(sq.rows - direct.rows).max(),
                        np.abs(direct.rows).max()), 1e-8))

    inv = function_of_operator(t, FUNCTIONS["inverse"], contour)
    unit = compose(t, inv)
    eye = identity_kernel(spec)
    out.append(_eq("inverse_left_inverse", "eqnBOfofA",
                   _rel(np.abs(unit.rows - eye.rows).max(),
                        np.abs(eye.rows).max()), 1e-8))

    exp_t = function_of_operator(t, FUNCTIONS["exp"], contour)
    direct_norm = weighted_norm(exp_t, MASS_LOW)
    bound = function_norm_bound(t, FUNCTIONS["exp"], contour, MASS_LOW)
    out.append(_le("function_norm_bound", "lemBOfnbnd", direct_norm, bound,
                   witness=f"function=exp; arcs={bound.arcs}"))
    return out


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------


def _scaling_checks(spec: LatticeSpec, a: ZKernel, rng):
    s = SCALE_FACTORS
    out = []
    a_s = scale_kernel(a, s)

    coords = rng.integers(-5, 6, size=(5, spec.n_axes))
    vals = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = zfield(spec, "fine", coords, vals)
    lhs = apply_z(a_s, scale_field(phi, s))
    rhs = scale_field(apply_z(a, phi), s)
    dev = _rel(np.abs(lhs.values - rhs.values).max(),
               max(1.0, np.abs(rhs.values).max()))
    out.append(_eq("scaling_conjugation", "lemPoPscaling.a", dev, 1e-12))

    ks = _complex_momenta(spec, rng, 20, MASS)
    k_s = ks * s.vector(spec)
    worst = max(_rel_peaks(scaled_fiber(a, s, k_s).entries - fiber_hat(a_s, k_s).entries,
                           fiber_hat(a, ks).entries))
    out.append(_eq("scaling_fiber_identity", "lemPoPscaling.b", worst, 1e-12))

    psi = zfield(spec, "fine", coords, rng.normal(size=5) + 1j * rng.normal(size=5))
    lhs_ip = z_inner(phi, psi)
    rhs_ip = amplitude(spec, s) * z_inner(scale_field(phi, s), scale_field(psi, s))
    out.append(_eq("scaling_inner_product", "lemPoPscaling.b",
                   _rel(abs(lhs_ip - rhs_ip), max(1.0, abs(lhs_ip))), 1e-12))

    out.append(_le("scaling_norm_inequality", "lemPoPscaling.c",
                   weighted_norm(a_s, MASS),
                   weighted_norm(a, MASS * mass_transfer(s))))

    b = _coarse_kernel(spec, rng)
    b_s = scale_kernel(b, s)
    ks = _complex_momenta(spec, rng, 5, MASS)
    k_s = ks * s.vector(spec)
    worst = max(_rel_peaks(scaled_fiber_fc(b, s, k_s) - fiber_hat_fc(b_s, k_s),
                           fiber_hat_fc(b, ks)))
    out.append(_eq("scaling_asymmetric_fibers", "lemPoPscalingCrs.b", worst, 1e-12))

    out.append(_le("scaling_asymmetric_norms", "lemPoPscalingCrs.c",
                   weighted_norm(b_s, MASS),
                   weighted_norm(b, MASS * mass_transfer(s))))
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def verify_suite(spec: LatticeSpec, kernel: ZKernel, seed: int = 0):
    """Run every check against the given kernel; deterministic per seed.

    Averaging checks need the block profile machinery, which only exists
    for odd coarsening ratios; those rows are omitted otherwise.
    """
    if kernel.spec != spec:
        raise ValueError("kernel was built on a different lattice spec")
    rng = rng_from_seed(seed)
    results = []
    results += _volume_checks(spec)
    results += _torus_checks(spec, rng)
    results += _window_checks(spec, kernel, rng)
    results += _asymmetric_checks(spec, rng)
    if spec.l_t % 2 == 1 and spec.l_x % 2 == 1:
        results += _profile_checks(spec, rng)
    results += _norm_checks(spec, kernel, rng)
    results += _opfunc_checks(spec, kernel)
    results += _scaling_checks(spec, kernel, rng)
    return results
