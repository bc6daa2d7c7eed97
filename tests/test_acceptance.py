"""Acceptance gate for the package.

One test per shipped acceptance criterion, in order.  Every test prints a
single ``[acceptance N] ...: PASS`` line (run ``pytest -s`` to see them all)
and pins the tolerances and runtime budgets the package commits to on the
reference configuration: unit spacings, 3x3 blocks, 81-site fine torus,
one space dimension.  A final spot check repeats the cheap identities in
three space dimensions.
"""

import json
import time

import numpy as np
from test_periodic_op import dense_momentum_matrix

from blochlat.averaging import (
    dirichlet_average,
    naive_profile,
    profile_hat,
    prolong_field,
    prolong_restrict_fiber,
    prolong_restrict_kernel,
    restrict_field,
    smooth_profile,
)
from blochlat.cli import main as cli_main
from blochlat.fourier import transform
from blochlat.lattice import LatticeSpec, build_family, steps
from blochlat.norms import (
    decay_norm_bound,
    fiber_decay_bound,
    inverse_fiber_shifted,
    weighted_norm,
)
from blochlat.opfunc import (
    FUNCTIONS,
    Circle,
    _circle_rule,
    contour_nodes,
    function_norm_bound,
    function_of_operator,
)
from blochlat.periodic_op import (
    apply_kernel,
    bloch_fibers,
    compose,
    identity_kernel,
    periodic_kernel,
    reconstruct,
    transpose_kernel,
)
from blochlat.periodization import (
    apply_z,
    compose_z,
    fiber_function,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    identity_zkernel,
    inverse_fiber,
    periodize,
    translation_invariant_zkernel,
    window_offsets,
    z_inner,
    zfield,
    zkernel,
)
from blochlat.rand import (
    random_field_values,
    random_periodic_kernel,
    random_zkernel,
    random_zkernel_fc,
    rng_from_seed,
)
from blochlat.scaling import (
    ScaleFactors,
    amplitude,
    mass_transfer,
    scale_kernel,
    scale_field,
    scaled_fiber,
    scaled_fiber_cf,
    scaled_fiber_fc,
)
from blochlat.verify import _band, _band_rows, _lifted_momenta, verify_suite

REF = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, dim=1)


def _report(tag, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {tag}] {label}: PASS{suffix}")


def _sample_momenta(spec, rng, count, im_norm=0.0):
    """Random momenta across a few dual-coarse zones; imaginary parts drawn
    with Euclidean norm up to im_norm."""
    width = 2.0 * np.pi / (spec.spacings() * spec.ratios())
    out = []
    for _ in range(count):
        re = rng.uniform(-2.0, 2.0, size=spec.n_axes) * width
        if im_norm > 0.0:
            im = rng.normal(size=spec.n_axes)
            im *= rng.uniform(0.0, im_norm) / max(np.linalg.norm(im), 1e-12)
            out.append(re + 1j * im)
        else:
            out.append(re + 0.0j)
    return out


def _definition_fiber(fam, kernel, rep):
    """Brute-force fiber: weighted sum of the kernel over coarse translates,
    independent of the momentum-matrix route."""
    sites = fam.coords("fine")
    rep = np.asarray(rep, dtype=np.int64)
    phase = fam.pairing_phases("dual_coarse", rep, "fine", sites)[0]
    out = np.zeros((fam.n_fine, fam.n_fine), dtype=complex)
    for x in fam.coords("coarse") * fam.ratios():
        cols = fam.indices("fine", sites + x)
        shifted = fam.pairing_phases(
            "dual_coarse", rep, "fine", (sites + x) % fam.extents("fine")
        )[0]
        out += np.conj(phase)[:, None] * kernel.entries[:, cols] * shifted[None, :]
    return fam.vol_c * out


def test_criterion_1_volume_identities():
    fam = build_family(REF)
    two_pi = (2.0 * np.pi) ** REF.n_axes

    def deviations():
        dev_f = abs(fam.volume("fine") * fam.volume("dual_fine") / two_pi
                    - 1.0 / fam.n_fine) * fam.n_fine
        dev_c = abs(fam.volume("coarse") * fam.volume("dual_coarse") / two_pi
                    - 1.0 / fam.n_coarse) * fam.n_coarse
        return dev_f, dev_c

    deviations()  # warm up before timing
    started = time.perf_counter()
    dev_f, dev_c = deviations()
    elapsed = time.perf_counter() - started
    assert dev_f <= 1e-14
    assert dev_c <= 1e-14
    assert elapsed < 1e-3
    _report(1, "volume identities",
            f"rel dev {max(dev_f, dev_c):.2e}, {elapsed * 1e6:.0f} us")


def test_criterion_2_torus_fiber_decomposition():
    fam = build_family(REF)
    rng = rng_from_seed(201)
    started = time.perf_counter()
    worst = 0.0
    moms, _ = _lifted_momenta(fam)
    for _ in range(10):
        a = random_periodic_kernel(fam, rng)
        tol = 1e-12 * np.abs(a.entries).max()

        back = _band_rows(fam, _band(fam, a.rows, moms))
        dev_a = np.abs(back - a.rows).max()
        assert dev_a <= tol

        back = reconstruct(fam, bloch_fibers(a))
        dev_b = np.abs(back.entries - a.entries).max()
        assert dev_b <= tol

        m = dense_momentum_matrix(a)
        dev_c = 0.0
        for _ in range(5):
            phi = fam.field("fine", random_field_values(fam, "fine", rng))
            lhs = transform(fam, apply_kernel(a, phi)).values
            rhs = m @ transform(fam, phi).values
            dev_c = max(dev_c, np.abs(lhs - rhs).max())
        assert dev_c <= tol

        sites = fam.coords("fine")
        fibers = {tuple(f.rep): f for f in bloch_fibers(a)}
        acc = np.zeros_like(np.asarray(a.entries))
        dev_e = 0.0
        block_ph = fam.pairing_phases(
            "dual_block", fam.coords("dual_block"), "fine", sites
        )
        for rep in fam.coords("dual_coarse"):
            direct = _definition_fiber(fam, a, rep)
            ph = fam.pairing_phases("dual_coarse", rep, "fine", sites)[0]
            acc += ph[:, None] * direct * np.conj(ph)[None, :]
            via = block_ph.T @ fibers[tuple(rep)].entries @ np.conj(block_ph)
            dev_e = max(dev_e, np.abs(direct - via).max() / fam.n_block)
        acc /= fam.vol_c * fam.n_coarse
        dev_d = np.abs(acc - a.entries).max()
        assert dev_d <= tol
        assert dev_e <= tol

        at = transpose_kernel(a)
        lift = fam.extents("dual_fine") // fam.extents("dual_block")
        bhat = fam.coords("dual_block")
        dev_f = 0.0
        for fiber_t, rep in zip(bloch_fibers(at), fam.coords("dual_coarse")):
            expect = np.empty_like(np.asarray(fiber_t.entries))
            for i, l_row in enumerate(bhat):
                for j, l_col in enumerate(bhat):
                    p_row = fam.index("dual_fine", -rep - l_col * lift)
                    p_col = fam.index("dual_fine", -rep - l_row * lift)
                    expect[i, j] = m[p_row, p_col]
            dev_f = max(dev_f, np.abs(fiber_t.entries - expect).max())
        assert dev_f <= tol
        worst = max(worst, dev_a, dev_b, dev_c, dev_d, dev_e, dev_f)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "torus fiber decomposition, 10 kernels x 6 identities",
            f"worst dev {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_periodization_algebra():
    fam = build_family(REF)
    rng = rng_from_seed(301)
    a = random_zkernel(REF, (2, 2), rng)
    b = random_zkernel(REF, (1, 1), rng)
    ab = compose_z(a, b)

    lhs = periodize(ab, fam)
    rhs = compose(periodize(a, fam), periodize(b, fam))
    scale = max(np.abs(lhs.entries).max(), 1e-300)
    dev_hom = np.abs(lhs.entries - rhs.entries).max() / scale
    assert dev_hom <= 1e-12

    momenta = _sample_momenta(REF, rng, 20) + _sample_momenta(REF, rng, 20, 1.0)
    dev_mult = 0.0
    for k in momenta:
        product = fiber_hat(a, k).entries @ fiber_hat(b, k).entries
        direct = fiber_hat(ab, k).entries
        scale = max(np.abs(direct).max(), np.abs(product).max(), 1e-300)
        dev_mult = max(dev_mult, np.abs(direct - product).max() / scale)
    assert dev_mult <= 1e-12

    window = len(window_offsets(REF, (2, 2)))
    profile = rng.normal(size=window) + 1j * rng.normal(size=window)
    alpha = translation_invariant_zkernel(REF, (2, 2), profile)
    dev_diag = 0.0
    for k in _sample_momenta(REF, rng, 5, 0.5):
        entries = fiber_hat(alpha, k).entries
        off = entries - np.diag(np.diag(entries))
        dev_diag = max(dev_diag, np.abs(off).max() / np.abs(entries).max())
    assert dev_diag <= 1e-14

    step = steps(REF, "dual_coarse")
    dev_disc = 0.0
    for fiber, rep in zip(bloch_fibers(periodize(a, fam)), fam.coords("dual_coarse")):
        window = fiber_hat(a, rep * step).entries
        scale = max(np.abs(window).max(), 1e-300)
        dev_disc = max(dev_disc, np.abs(window - fiber.entries).max() / scale)
    assert dev_disc <= 1e-12
    _report(3, "periodization algebra",
            f"homomorphism {dev_hom:.2e}, multiplicativity {dev_mult:.2e}, "
            f"off-diag {dev_diag:.2e}, discrete k {dev_disc:.2e}")


def test_criterion_4_inverse_fiber_round_trip():
    rng = rng_from_seed(401)
    a = random_zkernel(REF, (2, 2), rng)
    f = fiber_function(a)
    back = inverse_fiber(f, (2, 2))  # exact_grid_sizes: 2 quadrature nodes per axis
    dev = np.abs(back.entries - a.entries).max() / np.abs(a.entries).max()
    assert dev <= 1e-12

    # quadrature is exact iff nodes x block-width exceeds twice the radius;
    # with 3-point blocks that threshold is 2 nodes, so 1 node aliases
    under = inverse_fiber(f, (2, 2), grid_points=1)
    residual = np.abs(under.entries - a.entries).max()
    assert residual > 1e-6

    # single-point blocks make the threshold sharp at 5 = 2 * radius + 1:
    # recovery with 5 nodes is exact and 4 nodes (wrong by one) alias
    point = LatticeSpec(1.0, 1.0, 1, 1, 5, 5, dim=1)
    ap = random_zkernel(point, (2, 2), rng)
    fp = fiber_function(ap)
    back_p = inverse_fiber(fp, (2, 2))
    dev_p = np.abs(back_p.entries - ap.entries).max() / np.abs(ap.entries).max()
    assert dev_p <= 1e-12
    under_p = inverse_fiber(fp, (2, 2), grid_points=4)
    residual_p = np.abs(under_p.entries - ap.entries).max()
    assert residual_p > 1e-6
    _report(4, "inverse fiber round trip",
            f"dev {max(dev, dev_p):.2e}, undersampled residuals "
            f"{residual:.2e} / {residual_p:.2e}")


def test_criterion_5_block_averaging():
    fam = build_family(REF)
    rng = rng_from_seed(501)
    naive = naive_profile(REF)
    smooth = smooth_profile(REF, 2)

    dev_proj = 0.0
    for _ in range(10):
        psi = fam.field("coarse", random_field_values(fam, "coarse", rng))
        back = restrict_field(fam, naive, prolong_field(fam, naive, psi)).values
        dev_proj = max(dev_proj, np.abs(back - psi.values).max())
    assert dev_proj <= 1e-12

    assert abs(dirichlet_average(3, 0.0) - 1.0) <= 1e-15
    assert abs(dirichlet_average(3, np.pi) + 1.0 / 3.0) <= 1e-15

    lift = fam.extents("dual_fine") // fam.extents("dual_block")
    step_f = steps(REF, "dual_fine")
    phi = fam.field("fine", random_field_values(fam, "fine", rng))
    phi_hat = transform(fam, phi).values
    got_q = transform(fam, restrict_field(fam, smooth, phi)).values
    psi = fam.field("coarse", random_field_values(fam, "coarse", rng))
    got_qs = transform(fam, prolong_field(fam, smooth, psi)).values
    psi_hat = transform(fam, psi).values
    dev_mom = 0.0
    for i, rep in enumerate(fam.coords("dual_coarse")):
        total = 0.0 + 0.0j
        for ell in fam.coords("dual_block"):
            p = rep + ell * lift
            q_hat = profile_hat(smooth, p * step_f)
            total += q_hat * phi_hat[fam.index("dual_fine", p)]
            dev_mom = max(dev_mom, abs(
                got_qs[fam.index("dual_fine", p)] - np.conj(q_hat) * psi_hat[i]
            ))
        dev_mom = max(dev_mom, abs(got_q[i] - total))
    assert dev_mom <= 1e-12

    kern = prolong_restrict_kernel(smooth)
    dev_rank = 0.0
    for k in _sample_momenta(REF, rng, 2, 0.5):
        dev_rank = max(dev_rank, np.abs(
            prolong_restrict_fiber(smooth, k).entries - fiber_hat(kern, k).entries
        ).max())
    k_real = _sample_momenta(REF, rng, 1)[0].real
    ells = 2.0 * np.pi * fam.coords("dual_block") / (REF.spacings() * REF.ratios())
    rank_one = np.array(
        [[np.conj(profile_hat(smooth, k_real + er)) * profile_hat(smooth, k_real + ec)
          for ec in ells] for er in ells]
    )
    dev_rank = max(dev_rank, np.abs(fiber_hat(kern, k_real).entries - rank_one).max())
    assert dev_rank <= 1e-12

    dev_conv = 0.0
    base = np.full(3, 1.0 / 3.0)
    for w in smooth.axis_weights:
        dev_conv = max(dev_conv, np.abs(w - np.convolve(base, base)).max())
    assert dev_conv <= 1e-12
    _report(5, "block averaging",
            f"projection {dev_proj:.2e}, momentum {dev_mom:.2e}, "
            f"rank-one {dev_rank:.2e}, smooth=naive*naive {dev_conv:.2e}")


def test_criterion_6_norm_bounds():
    fam = build_family(REF)
    rng = rng_from_seed(601)

    mass = 1.0
    worst_ratio = 0.0
    for _ in range(10):
        a = random_zkernel(REF, (2, 2), rng)
        bound = weighted_norm(a, mass)
        for k in _sample_momenta(REF, rng, 100, mass):
            sup = np.abs(fiber_hat(a, k).entries).max()
            worst_ratio = max(worst_ratio, sup / bound)
    assert worst_ratio <= 1.0 + 1e-12

    dev_chain = 0.0
    dev_stokes = 0.0
    for _ in range(3):
        a = random_zkernel(REF, (2, 2), rng)
        f = fiber_function(a)
        entries = np.abs(np.asarray(a.entries))

        bound = fiber_decay_bound(f, a.radii, 1.0)
        assert (entries <= bound + 1e-12 * entries.max()).all()

        torus_norm = weighted_norm(periodize(a, fam), 0.25)
        window_norm = weighted_norm(a, 0.25)
        c_bound = decay_norm_bound(f, a.radii, 0.5, 0.25)
        assert torus_norm <= window_norm * (1.0 + 1e-12)
        assert window_norm <= c_bound * (1.0 + 1e-12)
        dev_chain = max(dev_chain, torus_norm / window_norm, window_norm / c_bound)

        for eta in ((0.3, -0.2), (0.05, 0.4)):
            shifted = inverse_fiber_shifted(f, a.radii, np.array(eta))
            dev_stokes = max(dev_stokes, np.abs(
                shifted.entries - a.entries
            ).max() / entries.max())
    assert dev_stokes <= 1e-10
    _report(6, "norm bounds",
            f"fiber/norm ratio {worst_ratio:.12f}, chain slack {dev_chain:.6f}, "
            f"contour-shift dev {dev_stokes:.2e}")


def _spread_spectrum_kernel(fam, rng, shift=10.0, width=2.0):
    """Random torus kernel with spectrum pinned inside |z - shift| <= width."""
    a = random_zkernel(fam, (2, 2), rng)
    scaled = np.asarray(a.entries) * (width / weighted_norm(a, 0.0))
    torus = periodize(zkernel(fam, a.radii, scaled), fam)
    return periodic_kernel(fam, torus.rows + shift * identity_kernel(fam).rows)


def test_criterion_7_operator_functions():
    fam = build_family(REF)
    rng = rng_from_seed(701)
    started = time.perf_counter()
    a = _spread_spectrum_kernel(fam, rng)
    contour = Circle(10.0, 4.0)
    scale = np.abs(a.entries).max()

    back = function_of_operator(a, FUNCTIONS["identity"], contour)
    dev_id = np.abs(back.entries - a.entries).max() / scale
    assert dev_id <= 1e-10

    squared = function_of_operator(a, FUNCTIONS["square"], contour)
    dense = compose(a, a)
    dev_sq = np.abs(squared.entries - dense.entries).max() / np.abs(dense.entries).max()
    assert dev_sq <= 1e-8

    inv = function_of_operator(a, FUNCTIONS["inverse"], contour)
    unit = compose(a, inv)
    eye = identity_kernel(fam)
    dev_inv = np.abs(unit.entries - eye.entries).max() / np.abs(eye.entries).max()
    assert dev_inv <= 1e-8

    for name, fn in FUNCTIONS.items():
        direct = weighted_norm(function_of_operator(a, fn, contour), 0.25)
        bound = function_norm_bound(a, fn, contour, 0.25)
        assert direct <= bound * (1.0 + 1e-12), name

    fibers = bloch_fibers(a)

    def fixed_rule(n):
        values = np.exp(contour_nodes(contour, n)[0])
        rule = _circle_rule(fibers.entries, contour, values)
        return reconstruct(fam, fibers.replace(entries=rule)).entries

    reference = fixed_rule(4096)
    floor = 1e-12 * np.abs(reference).max()
    errors = [np.abs(fixed_rule(n) - reference).max() for n in (8, 16, 32, 64, 128)]
    checked = 0
    for coarse_err, fine_err in zip(errors, errors[1:]):
        if coarse_err <= floor:
            break
        assert fine_err <= max(0.1 * coarse_err, floor)
        checked += 1
    assert checked >= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(7, "operator functions",
            f"id {dev_id:.2e}, square {dev_sq:.2e}, inverse {dev_inv:.2e}, "
            f"{checked} doubling ratios, {elapsed:.2f} s")


def test_criterion_8_scaling_laws():
    rng = rng_from_seed(801)
    sigma = ScaleFactors(4.0, 2.0)
    amp = amplitude(REF, sigma)

    a = random_zkernel(REF, (2, 1), rng)
    coords = rng.integers(-6, 7, size=(8, 2))
    values = rng.normal(size=8) + 1j * rng.normal(size=8)
    phi = zfield(REF, "fine", coords, values)
    lhs = apply_z(scale_kernel(a, sigma), scale_field(phi, sigma))
    rhs = scale_field(apply_z(a, phi), sigma)
    dev_conj = np.abs(lhs.values - rhs.values).max() / np.abs(rhs.values).max()
    assert (lhs.coords == rhs.coords).all()
    assert dev_conj <= 1e-12

    scaled = scale_kernel(a, sigma)
    dev_fiber = 0.0
    for k in _sample_momenta(REF, rng, 10) + _sample_momenta(REF, rng, 10, 0.5):
        k_s = k * sigma.vector(REF)
        direct = fiber_hat(scaled, k_s).entries
        via = scaled_fiber(a, sigma, k_s).entries
        scale = max(np.abs(direct).max(), 1e-300)
        dev_fiber = max(dev_fiber, np.abs(direct - via).max() / scale)
    assert dev_fiber <= 1e-12

    mass = 1.0
    threshold = mass * mass_transfer(sigma)
    assert weighted_norm(scaled, threshold) <= weighted_norm(a, mass) * (1.0 + 1e-12)

    b = random_zkernel_fc(REF, (2, 2), rng)
    c = random_zkernel_fc(REF, (1, 2), rng)
    dev_asym = 0.0
    for k in _sample_momenta(REF, rng, 5, 0.5):
        k_s = k * sigma.vector(REF)
        dev_asym = max(dev_asym, np.abs(
            fiber_hat_fc(scale_kernel(b, sigma), k_s) - scaled_fiber_fc(b, sigma, k_s)
        ).max())
        dev_asym = max(dev_asym, np.abs(
            fiber_hat_cf(scale_kernel(c, sigma), k_s) - scaled_fiber_cf(c, sigma, k_s)
        ).max())
    assert dev_asym <= 1e-12 * max(weighted_norm(b, 0.5), weighted_norm(c, 0.5))
    assert weighted_norm(scale_kernel(b, sigma), threshold) \
        <= weighted_norm(b, mass) * (1.0 + 1e-12)
    assert weighted_norm(scale_kernel(c, sigma), threshold) \
        <= weighted_norm(c, mass) * (1.0 + 1e-12)

    psi = zfield(REF, "fine", coords, rng.normal(size=8) + 1j * rng.normal(size=8))
    plain = z_inner(phi, psi)
    contracted = z_inner(scale_field(phi, sigma), scale_field(psi, sigma))
    dev_inner = abs(contracted - plain / amp) / abs(plain / amp)
    assert dev_inner <= 1e-12
    _report(8, "scaling laws, sigma=(4,2)",
            f"conjugation {dev_conj:.2e}, fiber {dev_fiber:.2e}, "
            f"mixed {dev_asym:.2e}, inner {dev_inner:.2e}")


def test_criterion_9_cli_contract(tmp_path):
    config = tmp_path / "job.ini"
    config.write_text("""
[lattice]
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 9

[kernel]
type = random
support_radius = 2
seed = 7

[task]
name = verify
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["--config", str(config), "--seed", "3"]
    assert cli_main(argv + ["--output", str(out_a)]) == 0
    assert cli_main(argv + ["--output", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    report = json.loads((out_a / "report.json").read_text())
    reported = {row["anchor"] for row in report["checks"]}
    kernel = random_zkernel(REF, (2, 2), rng_from_seed(7))
    expected = {row.anchor for row in verify_suite(REF, kernel, 3)}
    assert reported == expected
    assert all(row["pass"] for row in report["checks"])

    bad = tmp_path / "bad.ini"
    bad.write_text("""
[lattice]
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 9

[kernel]
type = naive_qstarq

[task]
name = funcalc

[params]
function = exp
contour_center = 0.5
contour_radius = 0.5
""")
    # projection spectrum is {0, 1}; this contour passes through both
    code = cli_main(["--config", str(bad), "--output", str(tmp_path / "c")])
    assert code == 1
    _report(9, "command-line contract",
            f"{len(report['checks'])} checks reported, "
            f"byte-identical reports, bad contour exit {code}")


def test_high_dimension_spot_check():
    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, dim=3)
    fam = build_family(spec)
    rng = rng_from_seed(999)
    two_pi = (2.0 * np.pi) ** spec.n_axes

    dev_vol = abs(fam.volume("fine") * fam.volume("dual_fine") / two_pi
                  - 1.0 / fam.n_fine) * fam.n_fine
    assert dev_vol <= 1e-14

    k = rng.normal(size=spec.n_axes) + 0.2j * rng.normal(size=spec.n_axes)
    delta = fiber_hat(identity_zkernel(spec), k).entries
    assert np.abs(delta - np.eye(fam.n_block)).max() <= 1e-13

    a = random_zkernel(spec, 1, rng)
    b = random_zkernel(spec, 1, rng)
    ab = compose_z(a, b)
    dev_mult = 0.0
    for k in _sample_momenta(spec, rng, 3, 0.5):
        product = fiber_hat(a, k).entries @ fiber_hat(b, k).entries
        direct = fiber_hat(ab, k).entries
        dev_mult = max(dev_mult, np.abs(direct - product).max()
                       / max(np.abs(direct).max(), 1e-300))
    assert dev_mult <= 1e-12

    back = inverse_fiber(fiber_function(a), 1)
    dev_rt = np.abs(back.entries - a.entries).max() / np.abs(a.entries).max()
    assert dev_rt <= 1e-12
    _report("spot-check", "three space dimensions, cheap identities",
            f"volume {dev_vol:.2e}, multiplicativity {dev_mult:.2e}, "
            f"round trip {dev_rt:.2e}")
