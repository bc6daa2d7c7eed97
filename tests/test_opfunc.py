"""Contour calculus: resolvents, operator functions, convergence, bounds."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochlat import opfunc, periodic_op
from blochlat.lattice import LatticeSpec, build_family
from blochlat.norms import weighted_norm
from blochlat.opfunc import (
    FUNCTIONS,
    RESOLVENT_COND_LIMIT,
    CertifiedFunction,
    Circle,
    contour_nodes,
    encloses,
    function_fiber,
    function_norm_bound,
    function_of_operator,
    make_polynomial,
    resolvent_fiber,
)
from blochlat.periodic_op import (
    bloch_fibers,
    compose,
    identity_kernel,
    periodic_kernel,
    reconstruct,
    transpose_kernel,
)
from blochlat.periodization import FiberFunction, periodize
from blochlat.rand import random_periodic_kernel, random_zkernel, rng_from_seed
from blochlat.verify import _opfunc_checks, _recentered

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)


def shifted_test_kernel(seed, scale=0.3, shift=10.0):
    """Random kernel scaled down and recentred so its spectrum avoids 0."""
    a = random_periodic_kernel(FAM, rng_from_seed(seed))
    return periodic_kernel(FAM, scale * a.rows + shift * identity_kernel(FAM).rows)


def operator_matrix(kernel):
    return FAM.vol_f * np.asarray(kernel.entries)


def spectrum_circle(kernel, margin=1.4):
    eigs = np.linalg.eigvals(operator_matrix(kernel))
    center = complex(eigs.mean())
    radius = margin * float(np.abs(eigs - center).max())
    return Circle(center, radius), eigs


def dense_oracle(kernel, fn):
    """Eigendecomposition route, independent of any contour machinery."""
    op = operator_matrix(kernel)
    vals, vecs = np.linalg.eig(op)
    f_op = vecs @ np.diag([fn(v) for v in vals]) @ np.linalg.inv(vecs)
    return f_op / FAM.vol_f


def test_identity_function_returns_the_operator():
    a = shifted_test_kernel(70)
    contour, _ = spectrum_circle(a)
    out = function_of_operator(a, FUNCTIONS["identity"], contour)
    scale = np.abs(a.entries).max()
    assert np.abs(out.entries - a.entries).max() <= 1e-10 * scale


def test_square_function_matches_composition():
    a = shifted_test_kernel(71)
    contour, _ = spectrum_circle(a)
    out = function_of_operator(a, FUNCTIONS["square"], contour)
    want = compose(a, a).entries
    scale = np.abs(want).max()
    assert np.abs(out.entries - want).max() <= 1e-8 * scale


def test_inverse_function_inverts_the_operator():
    a = shifted_test_kernel(72)
    contour, eigs = spectrum_circle(a, margin=1.3)
    assert not encloses(contour, 0.0)
    inv = function_of_operator(a, FUNCTIONS["inverse"], contour)
    prod = compose(a, inv).entries
    assert np.abs(prod - identity_kernel(FAM).entries).max() <= 1e-8


def test_exp_matches_dense_eigendecomposition():
    a = shifted_test_kernel(73)
    contour, _ = spectrum_circle(a)
    out = function_of_operator(a, FUNCTIONS["exp"], contour)
    want = dense_oracle(a, np.exp)
    scale = np.abs(want).max()
    assert np.abs(out.entries - want).max() <= 1e-9 * scale


def test_trapezoid_doubling_converges_geometrically():
    a = shifted_test_kernel(74)
    contour, _ = spectrum_circle(a, margin=2.0)
    reference = dense_oracle(a, np.exp)
    scale = np.abs(reference).max()
    fibers = bloch_fibers(a)
    devs = []
    for nodes in (8, 16, 32, 64, 128, 256):
        values = np.exp(contour_nodes(contour, nodes)[0])
        rule = opfunc._circle_rule(fibers.entries, contour, values)
        got = reconstruct(FAM, replace(fibers, entries=rule)).entries
        devs.append(np.abs(got - reference).max())
    for small, big in zip(devs[1:], devs[:-1]):
        if big <= 1e-12 * scale:
            break
        assert small <= 0.1 * big


def test_result_is_contour_independent():
    a = shifted_test_kernel(75)
    results = []
    for margin in (1.3, 2.0, 3.1):
        contour, _ = spectrum_circle(a, margin=margin)
        results.append(function_of_operator(a, FUNCTIONS["exp"], contour).entries)
    scale = np.abs(results[0]).max()
    assert np.abs(results[1] - results[0]).max() <= 1e-9 * scale
    assert np.abs(results[2] - results[0]).max() <= 1e-9 * scale


def test_contour_through_or_beside_spectrum_is_rejected():
    a = shifted_test_kernel(76)
    _, eigs = spectrum_circle(a)
    center = complex(eigs.mean())
    lam = complex(eigs[np.argmax(np.abs(eigs - center))])
    # encloses everything except the extreme eigenvalue, which it touches
    through = Circle(center, abs(lam - center))
    with pytest.raises(ValueError, match="through the spectrum"):
        function_of_operator(a, FUNCTIONS["exp"], through)
    # a tight circle around one eigenvalue leaves the rest outside
    rest = eigs[np.abs(eigs - lam) > 1e-8]
    tiny = Circle(lam, 0.4 * float(np.abs(rest - lam).min()))
    with pytest.raises(ValueError, match="enclose"):
        function_of_operator(a, FUNCTIONS["exp"], tiny)


def test_function_fiber_matches_torus_route():
    rng = rng_from_seed(78)
    z = random_zkernel(REF, (1, 1), rng)
    entries = 0.3 * np.asarray(z.entries)
    entries[:, 4] += 10.0 / FAM.vol_f  # centre offset: slot of d = 0
    from blochlat.periodization import zkernel

    z = zkernel(REF, (1, 1), entries)
    contour = Circle(10.0, 7.0)
    f = function_fiber(z, FUNCTIONS["exp"], contour)
    torus = function_of_operator(periodize(z, FAM), FUNCTIONS["exp"], contour)
    fibers = bloch_fibers(torus)
    from blochlat.lattice import steps

    step = steps(REF, "dual_coarse")
    for fiber in fibers[:3]:
        got = f.matrix_at(np.asarray(fiber.rep) * step)
        assert np.abs(got - fiber.entries).max() <= 1e-9


def test_norm_bound_dominates_direct_norm():
    a = shifted_test_kernel(79)
    contour, _ = spectrum_circle(a, margin=2.0)
    out = function_of_operator(a, FUNCTIONS["exp"], contour)
    for mass in (0.0, 0.5):
        direct = weighted_norm(out, mass)
        bound = function_norm_bound(a, FUNCTIONS["exp"], contour, mass)
        assert direct <= bound * (1.0 + 1e-12)


def test_polynomial_factory_and_registry():
    poly = make_polynomial([2.0, 0.0, 1.0])
    assert poly(3.0) == pytest.approx(11.0)
    a = shifted_test_kernel(80)
    contour, _ = spectrum_circle(a)
    out = function_of_operator(a, poly, contour)
    want = 2.0 * identity_kernel(FAM).entries + compose(a, a).entries
    scale = np.abs(want).max()
    assert np.abs(out.entries - want).max() <= 1e-8 * scale
    assert set(FUNCTIONS) >= {"identity", "square", "inverse", "exp"}
    with pytest.raises(ValueError, match="coefficient"):
        make_polynomial([])
    nodes, weights = contour_nodes(Circle(0.0, 1.0), 4)
    assert len(nodes) == 4 and len(weights) == 4


def random_matrix(kind, n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "normal":
        q, _ = np.linalg.qr(g)
        return (q * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ q.conj().T
    return g if kind == "non-normal" else np.triu(g)


@pytest.mark.parametrize("kind", ["normal", "non-normal", "triangular"])
def test_resolvent_rejects_exactly_the_shifts_beyond_the_limit(kind):
    rng = rng_from_seed(81)
    m = random_matrix(kind, 6, rng)
    lam = np.linalg.eigvals(m)[0]
    gaps = 10.0 ** np.linspace(-16.0, -11.0, 41) * np.exp(0.7j)
    decisions = []
    for zeta in lam + gaps:
        exact = np.linalg.cond(zeta * np.eye(6) - m)
        try:
            resolvent_fiber(m, zeta)
            decisions.append((exact > RESOLVENT_COND_LIMIT, False))
        except ValueError as exc:
            assert "ill-conditioned" in str(exc)
            decisions.append((exact > RESOLVENT_COND_LIMIT, True))
    assert all(want == got for want, got in decisions)
    assert {got for _, got in decisions} == {False, True}


def test_singular_shift_is_ill_conditioned_not_a_linalg_error():
    m = np.diag([1.0, 2.0 + 1j, -3.0])
    with pytest.raises(ValueError, match="ill-conditioned"):
        resolvent_fiber(m, 2.0 + 1j)
    with pytest.raises(ValueError, match="ill-conditioned"):
        resolvent_fiber(m, np.array([5.0, 2.0 + 1j, 4j]))


def test_stacked_resolvents_match_one_shift_at_a_time():
    a = shifted_test_kernel(82)
    contour, _ = spectrum_circle(a)
    zs, _ = contour_nodes(contour, 24)
    matrix = np.asarray(bloch_fibers(a)[1].entries)
    stack = resolvent_fiber(matrix, zs)
    assert stack.shape == (24,) + matrix.shape
    for zeta, got in zip(zs, stack):
        want = resolvent_fiber(matrix, zeta)
        assert want.shape == matrix.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_rule_evaluates_f_once_per_certified_node():
    a = shifted_test_kernel(83)
    contour, _ = spectrum_circle(a, margin=8.0)
    calls = []

    def counting_square(z):
        calls.append(z)
        return z * z

    square = CertifiedFunction(counting_square, FUNCTIONS["square"].disc_sup)
    out = function_of_operator(a, square, contour)
    # f at the centre for the scale, then once per node for every fiber at
    # once: 5 certified nodes for the interpolant, where doubling evaluated 32
    assert len(calls) == 1 + 5
    want = compose(a, a).entries
    assert np.abs(out.entries - want).max() <= 1e-8 * np.abs(want).max()


def test_norm_bound_takes_the_fibers_once(monkeypatch):
    a = shifted_test_kernel(84)
    contour, _ = spectrum_circle(a, margin=2.0)
    calls = []

    def counting_fibers(kernel):
        calls.append(kernel)
        return bloch_fibers(kernel)

    monkeypatch.setattr(opfunc, "bloch_fibers", counting_fibers)
    function_norm_bound(a, FUNCTIONS["exp"], contour, 0.5)
    assert len(calls) == 1


def test_norm_bound_takes_one_disc_per_fiber_and_one_pass_on_ref(monkeypatch):
    a = periodize(_recentered(random_zkernel(REF, (2, 2), rng_from_seed(0))), FAM)
    calls = {name: 0 for name in ("_spectral_disc", "_fiber_rows", "_torus_norm")}
    for name in calls:
        def counted(*args, _fn=getattr(opfunc, name), _name=name):
            # a disc pass takes a stack: count the fibers that get a disc
            calls[_name] += args[0][..., 0, 0].size if _name == "_spectral_disc" else 1
            return _fn(*args)
        monkeypatch.setattr(opfunc, name, counted)
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: shapes.append(m.shape) or inv(m))
    monkeypatch.setattr(opfunc, "resolvent_fiber", lambda *args: shapes.append("resolvent"))
    bound = function_norm_bound(a, FUNCTIONS["exp"], Circle(10.0, 5.0), 0.25)
    assert bound.arcs == opfunc.NORM_BOUND_ARCS == 16
    assert calls == {"_spectral_disc": FAM.n_coarse, "_fiber_rows": 1, "_torus_norm": 1}
    assert shapes == [(16, FAM.n_coarse, FAM.n_block, FAM.n_block)]


def test_norm_bound_refuses_what_it_cannot_certify():
    a = shifted_test_kernel(88)
    contour, _ = spectrum_circle(a, margin=2.0)
    for plain, name in ((lambda z: z, "<lambda>"), (np.exp, "exp")):
        with pytest.raises(TypeError, match=f"CertifiedFunction.*got {name}"):
            function_norm_bound(a, plain, contour, 0.5)
    with pytest.raises(ValueError, match=r"mass >= 0.*got -0.5"):
        function_norm_bound(a, FUNCTIONS["exp"], contour, -0.5)
    # the circle runs through the pole of 1/z at 0 and encloses the spectrum
    through = Circle(10.0, 10.0)
    with pytest.raises(ValueError, match=re.escape(f"the contour {through}: a pole")):
        function_norm_bound(a, FUNCTIONS["inverse"], through, 0.5)


@pytest.mark.parametrize("name", ["identity", "square", "inverse", "exp", "polynomial"])
def test_disc_sups_dominate_the_function_on_the_disc(name):
    f = FUNCTIONS.get(name) or make_polynomial([1.0, -0.5j, 0.25, 2.0])
    rng = rng_from_seed(90)
    centers = 3.0 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    for h in (0.1, 1.0, 2.5):
        sups = f.disc_sup(centers, h)
        for c, sup in zip(centers, sups):
            if not np.isfinite(sup):  # only a disc that reaches the pole of 1/z
                assert name == "inverse" and abs(c) <= h
                continue
            # the maximum principle puts the sup on the boundary circle
            zs = c + h * np.exp(2j * np.pi * np.arange(256) / 256)
            assert max(abs(f(z)) for z in zs) <= sup * (1.0 + 1e-12)
    # a bound that overflows is an infinite sup, with no RuntimeWarning
    c, h = {"inverse": (1e-308, 0.9999e-308), "exp": (10.0, 1000.0)}.get(name, (1e308, 1e308))
    assert np.isinf(f.disc_sup(np.array([c + 0j]), h)).all()


@pytest.mark.parametrize("caller", [function_of_operator, function_fiber])
def test_plain_callables_are_refused_by_name(caller):
    a = shifted_test_kernel(88)
    contour, _ = spectrum_circle(a, margin=2.0)
    for plain, name in ((lambda z: z, "<lambda>"), (np.exp, "exp")):
        message = f"{caller.__name__} needs a CertifiedFunction.*got {name}"
        with pytest.raises(TypeError, match=message):
            caller(a, plain, contour)  # refused before the source is looked at


def normal_or_not(kind, rng):
    """A random torus kernel of unit norm, made self-adjoint for ``normal``."""
    a = random_periodic_kernel(FAM, rng)
    if kind == "normal":
        a = periodic_kernel(FAM, 0.5 * (a.rows + np.conj(transpose_kernel(a).rows)))
    return periodic_kernel(FAM, a.rows / weighted_norm(a, 0.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["normal", "non-normal"]), seed=st.integers(0, 2**32 - 1),
       fn=st.sampled_from(["exp", "polynomial", "inverse"]),
       mass=st.sampled_from([0.0, 0.25, 0.5]), scale=st.floats(0.05, 1.0),
       margin=st.floats(1.5, 3.0))
def test_norm_bound_dominates_the_weighted_norm(kind, seed, fn, mass, scale, margin):
    a = normal_or_not(kind, rng_from_seed(seed))
    contour, _ = spectrum_circle(periodic_kernel(FAM, scale * a.rows), margin)
    # for 1/z, shifted so that the closed disc of the contour keeps clear of 0
    shift = 2.0 * (abs(contour.center) + contour.radius) + 1.0 if fn == "inverse" else 0.0
    kernel = periodic_kernel(FAM, scale * a.rows + shift * identity_kernel(FAM).rows)
    contour = Circle(contour.center + shift, contour.radius)
    f = FUNCTIONS[fn] if fn != "polynomial" else make_polynomial([1.0, -0.5j, 0.25, 2.0])
    bound = function_norm_bound(kernel, f, contour, mass)
    assert weighted_norm(function_of_operator(kernel, f, contour), mass) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("fn", ["exp", "polynomial", "inverse"])
@pytest.mark.parametrize("kind", ["normal", "non-normal"])
def test_two_norm_route_dominates_the_weighted_norm(monkeypatch, kind, fn):
    # with MAX_NODES at the 16 starting arcs, an arc that the norm route
    # does not certify there is out of its reach, and the 2-norm route
    # carries it
    a = normal_or_not(kind, rng_from_seed(89))
    contour, _ = spectrum_circle(periodic_kernel(FAM, 0.5 * a.rows), 3.0)
    kernel = periodic_kernel(FAM, 0.5 * a.rows + 20.0 * identity_kernel(FAM).rows)
    contour = Circle(contour.center + 20.0, contour.radius)
    f = FUNCTIONS[fn] if fn != "polynomial" else make_polynomial([1.0, -0.5j, 0.25, 2.0])
    result = function_of_operator(kernel, f, contour)
    monkeypatch.setattr(opfunc, "MAX_NODES", 16)
    for mass in (0.0, 0.25, 0.5):
        bound = function_norm_bound(kernel, f, contour, mass)
        assert bound.arcs == 16
        assert weighted_norm(result, mass) <= bound


def test_norm_bound_carries_arcs_beyond_reach_by_the_two_norm():
    # spacing 3.18 along a 56-site time axis and a reach of 16 sites: the
    # weights reach e^22, ||R(z_j)||_m is near 3e4, and h ||R(z_j)||_m <= 1/2
    # would take about a million arcs
    spec = LatticeSpec(3.177519616875811, 0.25, 2, 2, 56, 2, 2)
    fam = build_family(spec)
    kernel = periodize(_recentered(random_zkernel(spec, (16, 0, 0), rng_from_seed(797))), fam)
    contour = Circle(10.0, 5.0)
    bound = function_norm_bound(kernel, FUNCTIONS["exp"], contour, 0.25)
    assert bound.arcs == 16
    z = contour_nodes(contour, 16)[0][0]
    fibers = bloch_fibers(kernel)
    resolvent = reconstruct(fam, replace(fibers, entries=np.stack(
        [resolvent_fiber(m, z) for m in fibers.entries])))
    h = 2.0 * contour.radius * np.sin(np.pi / 32)
    assert h * weighted_norm(resolvent, 0.25) > 1e4
    direct = weighted_norm(function_of_operator(kernel, FUNCTIONS["exp"], contour), 0.25)
    assert np.isfinite(bound) and direct <= bound


def test_function_of_operator_computes_the_fiber_phases_once(monkeypatch):
    # the 972-site dim=2 torus; bloch_fibers and reconstruct share one
    # layout, whose two block phase factors are built once
    spec = LatticeSpec(1.0, 1.0, 3, 3, 12, 9, 2)
    torus = periodize(random_zkernel(spec, (2, 2, 2), rng_from_seed(0)), build_family(spec))
    original = periodic_op._block_phase_matrix
    calls = []

    def counting_phases(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(periodic_op, "_block_phase_matrix", counting_phases)
    periodic_op._fiber_layout.cache_clear()
    function_of_operator(torus, make_polynomial([1.0, 0.5, 0.25]), Circle(0.0, 200.0))
    assert len(calls) == 2


def eigenvalue_check(contour, matrix):
    """The spectrum check on the computed eigenvalues alone: the verdict the
    disc certificate must reproduce, message included."""
    eigenvalues = np.linalg.eigvals(matrix)
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    for lam in eigenvalues:
        lam = complex(lam)
        if opfunc.contour_clearance(contour, lam) <= opfunc.CLEARANCE_RTOL * scale:
            return (f"contour passes through the spectrum: eigenvalue {lam:.6g} "
                    f"clears it by less than {opfunc.CLEARANCE_RTOL:.0e} * {scale:.3g}")
        if not encloses(contour, lam):
            return (f"contour does not enclose the whole spectrum: eigenvalue "
                    f"{lam:.6g} lies outside")
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["normal", "non-normal", "triangular"]),
       n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       target=st.sampled_from(["disc", "eigenvalue", "elsewhere"]),
       log_gap=st.floats(-12.0, 0.0), sign=st.sampled_from([-1.0, 1.0]))
def test_spectrum_check_gives_the_eigenvalue_verdict(kind, n, seed, target, log_gap, sign):
    rng = rng_from_seed(seed)
    m = random_matrix(kind, n, rng) * 10.0 ** rng.uniform(-3, 3) \
        + 5.0 * complex(rng.standard_normal(), rng.standard_normal()) * np.eye(n)
    c, rho = opfunc._spectral_disc(m)
    center = c + 1e-3 * rho * complex(rng.standard_normal(), rng.standard_normal())
    if target == "disc":  # the disc just clears, or just misses, the certificate margin
        margin = 2.0 * opfunc.CLEARANCE_RTOL * max(1.0, abs(c) + rho)
        half = rho + margin * (1.0 + sign * 10.0**log_gap)
    elif target == "eigenvalue":  # the contour runs just inside or outside an eigenvalue
        half = float(np.abs(np.linalg.eigvals(m) - center).max()) * (1.0 + sign * 10.0**log_gap)
    else:  # a contour that need not enclose c
        center = c + 3.0 * (rho + 1.0) * np.exp(2j * np.pi * rng.uniform())
        half = (rho + 1.0) * 10.0 ** (-log_gap / 6.0)
    if not half > 0.0:
        return
    contour = Circle(center, half)
    want = eigenvalue_check(contour, m)
    if want is None:
        opfunc._validate_spectrum(contour, m)
    else:
        with pytest.raises(ValueError) as info:
            opfunc._validate_spectrum(contour, m)
        assert str(info.value) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["normal", "non-normal", "triangular"]),
       n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       near=st.sampled_from(["disc", "eigenvalue"]), log_gap=st.floats(-16.0, 1.0))
def test_disc_bound_dominates_the_condition_number(kind, n, seed, near, log_gap):
    rng = rng_from_seed(seed)
    m = random_matrix(kind, n, rng) + 3.0 * complex(rng.standard_normal(),
                                                    rng.standard_normal()) * np.eye(n)
    c, rho = opfunc._spectral_disc(m)
    turn = np.exp(2j * np.pi * rng.uniform())
    if near == "disc":
        zeta = c + rho * (1.0 + 10.0**log_gap) * turn
    else:
        zeta = np.linalg.eigvals(m)[rng.integers(n)] + 10.0**log_gap * turn
    cond = np.linalg.cond(zeta * np.eye(n) - m)
    try:
        resolvent_fiber(m, zeta)
        assert not cond > RESOLVENT_COND_LIMIT
    except ValueError as exc:
        assert "ill-conditioned" in str(exc) and cond > RESOLVENT_COND_LIMIT
    d = abs(zeta - c)
    if d > rho:
        # as for the norm bound: the computed cond carries a relative error of
        # order n * eps * cond, and the shifted matrix its own rounding
        slack = 1e-12 + 4 * n * np.finfo(float).eps * cond
        assert cond * (1.0 - slack) <= (d + rho) / (d - rho)


def test_cleared_contours_need_no_eigensolve_and_no_condition_bound(monkeypatch):
    calls = []
    eigvals, cond = np.linalg.eigvals, np.linalg.cond
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append("eigvals") or eigvals(m))
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append("svd") or cond(m))
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=12, big_l_x=9, dim=2)
    torus = periodize(random_zkernel(spec, (2, 2, 2), rng_from_seed(85)), build_family(spec))
    function_of_operator(torus, make_polynomial([1.0, 0.5, 0.25]), Circle(0.0, 200.0))
    rows = _opfunc_checks(FAM, random_zkernel(REF, (2, 2), rng_from_seed(86)))
    assert all(row.passed for row in rows)
    assert calls == []


def test_function_of_operator_inverts_no_shift(monkeypatch):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append("inv") or inv(m))
    monkeypatch.setattr(opfunc, "resolvent_fiber", lambda *args: calls.append("resolvent"))
    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=12, big_l_x=9, dim=2)
    torus = periodize(random_zkernel(spec, (2, 2, 2), rng_from_seed(85)), build_family(spec))
    function_of_operator(torus, make_polynomial([1.0, 0.5, 0.25]), Circle(0.0, 200.0))
    assert calls == []


POLYNOMIAL = [1.0, -0.5, 0.25, 2.0]
SWEEP_FUNCTIONS = {"exp": FUNCTIONS["exp"], "polynomial": make_polynomial(POLYNOMIAL),
                   "inverse": FUNCTIONS["inverse"]}


def drawn_fiber(kind, n, seed, fn, around, gap):
    """(M, contour): a random fiber with disc radius about 1 and a circle that
    clears its disc (``around="disc"``, so beta < 1) or only its eigenvalues,
    by the relative ``gap``; for 1/z the pole at 0 stays well outside."""
    rng = rng_from_seed(seed)
    m = random_matrix(kind, n, rng)
    m -= np.trace(m) / n * np.eye(n)
    m /= max(opfunc._spectral_disc(m)[1], 1e-300)  # disc radius about 1
    c, rho = opfunc._spectral_disc(m)
    reach = rho if around == "disc" else float(np.abs(np.linalg.eigvals(m) - c).max())
    offset = 0.1 * reach * complex(rng.standard_normal(), rng.standard_normal())
    radius = (reach + abs(offset)) * (1.0 + gap)
    if fn == "inverse":
        m += 3.0 * radius * np.exp(2j * np.pi * rng.uniform()) * np.eye(n)
    return m, Circle(np.trace(m) / n + offset, radius)


def node_sweep(test):
    """Draw the rule's node count in [1, 200], with examples at the node
    counts where the rule's block size or its power B^n changes shape."""
    kinds = ["normal", "non-normal", "triangular"]
    for i, nodes in enumerate((1, 2, 3, 9, 27, 28, 65, 128)):
        test = example(kind=kinds[i % 3], n=2 + i % 7, seed=i, fn=list(SWEEP_FUNCTIONS)[i % 3],
                       around=("disc", "spectrum")[i % 2], gap=0.1, nodes=nodes)(test)
    return given(kind=st.sampled_from(kinds), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
                 fn=st.sampled_from(list(SWEEP_FUNCTIONS)),
                 around=st.sampled_from(["disc", "spectrum"]), gap=st.floats(0.02, 2.0),
                 nodes=st.integers(1, 200))(test)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@node_sweep
def test_closed_form_rule_matches_the_per_node_resolvent_sum(kind, n, seed, fn, around, gap,
                                                              nodes):
    m, contour = drawn_fiber(kind, n, seed, fn, around, gap)
    f = SWEEP_FUNCTIONS[fn]
    zs, ws = contour_nodes(contour, nodes)
    values = np.array([f(z) for z in zs])
    got = opfunc._circle_rule(m[None], contour, values)[0]
    # the interpolant P(B) is the rule sum_j w_j f(z_j) (z_j - M)^(-1) times (I - B^n)
    b = (m - contour.center * np.eye(n)) / contour.radius
    want = np.tensordot(ws * values, resolvent_fiber(m, zs), 1) @ (
        np.eye(n) - np.linalg.matrix_power(b, nodes))
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def function_of_fiber(kind, m, fn, contour):
    """f(M) without a contour: by the eigendecomposition, or for a triangular
    fiber, whose eigenvectors may be nearly parallel, by the Taylor sum about
    the contour's centre (which for a polynomial is finite)."""
    if kind != "triangular":
        vals, vecs = np.linalg.eig(m)
        return vecs @ np.diag([SWEEP_FUNCTIONS[fn](v) for v in vals]) @ np.linalg.inv(vecs)
    eye = np.eye(len(m))
    total = np.zeros_like(m)
    if fn == "polynomial":
        for a in reversed(POLYNOMIAL):
            total = total @ m + a * eye
        return total
    z0 = contour.center
    shift = m - z0 * eye
    # term j is c_j (M - z0)^j, c_j = e^z0 / j! or (-1)^j / z0^(j+1)
    term = np.exp(z0) * eye if fn == "exp" else eye / z0
    for j in range(1, 2000):
        total += term
        if np.abs(term).max() <= 1e-20 * np.abs(total).max():
            break
        term = term @ shift / (j if fn == "exp" else -z0)
    return total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@node_sweep
def test_certified_error_dominates_the_rule_error(kind, n, seed, fn, around, gap, nodes):
    m, contour = drawn_fiber(kind, n, seed, fn, around, gap)
    f = SWEEP_FUNCTIONS[fn]
    want = function_of_fiber(kind, m, fn, contour)
    try:
        got = opfunc._fiber_quadrature(m[None], f, contour)[0]
    except ValueError as exc:
        assert "at fiber 0" in str(exc)
        return
    assert np.abs(got - want).max() <= opfunc.QUADRATURE_RTOL * max(1.0, np.abs(want).max())
    centers, rhos, _ = opfunc._contour_setup(m[None], f, contour)
    major = opfunc._majorants(m[None], centers, rhos, contour)
    values = np.array([f(z) for z in contour_nodes(contour, nodes)[0]])
    rule = opfunc._circle_rule(m[None], contour, values)[0]
    error = sum(opfunc._rule_errors(major, [nodes], f, contour, np.abs(values).max(), n))
    assert np.abs(rule - want).max() <= error[0, 0]


def test_a_fiber_below_the_centre_scale_takes_one_more_rule():
    # exp(M) is about e^5.5 here, so the first rule, certified for the scale
    # e^8 of the centre, misses the fiber's own target
    m = np.diag([5.0, 5.5 + 0.2j]) + np.triu(np.full((2, 2), 0.1), 1)
    contour = Circle(8.0, 4.5)
    calls = []
    f = CertifiedFunction(lambda z: calls.append(z) or np.exp(z), FUNCTIONS["exp"].disc_sup)
    got = opfunc._fiber_quadrature(m[None], f, contour)[0]
    assert calls.count(contour.center + contour.radius) == 2  # node 0 of each rule
    want = function_of_fiber("non-normal", m, "exp", contour)
    assert np.abs(got - want).max() <= opfunc.QUADRATURE_RTOL * np.abs(want).max()


def constant_fibers(matrix):
    """A fiber function whose fiber is ``matrix`` at every momentum."""
    return FiberFunction(REF, lambda ks: np.broadcast_to(matrix, ks.shape[:-1] + matrix.shape))


NON_FINITE = [np.diag([np.inf] + [1.0] * 8), np.full((9, 9), np.nan)]


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "nan"])
def test_non_finite_fiber_is_named_before_any_solve(matrix):
    with pytest.raises(ValueError, match=r"fiber matrix is not finite: entry \(0, 0\)"):
        function_fiber(constant_fibers(matrix), FUNCTIONS["exp"],
                       Circle(0.0, 1.0)).matrix_at(np.zeros(2))


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "nan"])
def test_resolvent_of_a_non_finite_fiber_is_named(matrix):
    with pytest.raises(ValueError, match=r"fiber matrix is not finite: entry \(0, 0\)"):
        resolvent_fiber(matrix, [5.0])


@pytest.mark.parametrize("first", ["unenclosed", "non-finite"])
def test_first_failing_fiber_of_a_stack_is_named(first):
    # CHUNK + 3 fibers whose discs clear the circle, but for an unenclosed
    # one and a non-finite one in different disc passes: the earlier one stops
    stack = np.tile(np.diag([0.5, 0.25j, -0.5]), (opfunc.CHUNK + 3, 1, 1))
    unenclosed = np.diag([0.5, 0.25j, 7.5]), r"eigenvalue 7\.5\+0j lies outside"
    non_finite = np.diag([np.nan, 0.25j, -0.5]), r"fiber matrix is not finite: entry \(0, 0\)"
    pair = (unenclosed, non_finite) if first == "unenclosed" else (non_finite, unenclosed)
    (early, message), (late, _) = pair
    stack[2], stack[opfunc.CHUNK + 1] = early, late
    f = function_fiber(FiberFunction(REF, lambda ks: stack), FUNCTIONS["exp"], Circle(0.0, 1.0))
    with pytest.raises(ValueError, match=message):
        f.matrix_at(np.zeros((len(stack), 2)))


def test_overflowing_norm_bound_falls_through_to_the_svd():
    # both norm bounds of the shifted matrices overflow; the SVD clears them
    m = np.diag([1e300, -1e300, 1.0]) + 1e299
    zetas = np.array([1.0, 3.0], dtype=complex)
    expect = np.linalg.inv(zetas[:, None, None] * np.eye(3) - m)
    np.testing.assert_array_equal(resolvent_fiber(m, zetas), expect)


def test_non_finite_function_value_is_named():
    a = shifted_test_kernel(87)
    contour = Circle(0.0, 800.0)  # exp overflows at zeta = 800
    message = r"function value at zeta=800\+0j is not finite"
    with pytest.raises(ValueError, match=message):
        function_of_operator(a, FUNCTIONS["exp"], contour)
    with pytest.raises(ValueError, match=message):
        function_norm_bound(a, FUNCTIONS["exp"], contour, 0.5)


def test_contour_hugging_an_eigenvalue_is_still_named():
    # 1/z with its pole just outside the circle: f is bounded on no wider
    # disc, so the bound has no s < 1 to converge at and no rule within
    # MAX_NODES certifies, though the spectrum clears the circle by far
    contour = Circle(1.0, 1.0 - 2.0 * opfunc.CLEARANCE_RTOL)
    fibers = constant_fibers(np.diag([1.0, 1.25, 1.0 + 0.25j]))
    hug = "did not converge .* a singularity of f or the spectrum lies near the contour"
    with pytest.raises(ValueError, match=hug) as info:
        function_fiber(fibers, FUNCTIONS["inverse"], contour).matrix_at(np.zeros(2))
    assert "at fiber 0" in str(info.value)


def test_contour_hugging_an_eigenvalue_is_certified_by_the_interpolant():
    # the eigenvalue 1 clears the circle by 2e-8 only: gamma is about 1 - 2e-8,
    # but the interpolant's bound needs s * gamma < 1 only, for some s < 1
    m = np.diag([0.0, 1.0, 0.5j])
    contour = Circle(0.0, 1.0 + 2.0 * opfunc.CLEARANCE_RTOL)
    fibers = constant_fibers(m)
    got = function_fiber(fibers, FUNCTIONS["exp"], contour).matrix_at(np.zeros(2))
    want = function_of_fiber("normal", m, "exp", contour)
    assert np.abs(got - want).max() <= opfunc.QUADRATURE_RTOL * max(1.0, np.abs(want).max())


def test_pole_just_outside_the_circle_is_certified_by_a_near_rung():
    # the pole of 1/z sits 1.053 radii from the centre: only a ladder rung
    # between 1 and 2^(1/8) radii bounds f, and with it the rule certifies
    m = np.diag([1.0, 1.25, 1.0 + 0.25j])
    fibers = constant_fibers(m)
    got = function_fiber(fibers, FUNCTIONS["inverse"], Circle(1.0, 0.95)).matrix_at(np.zeros(2))
    want = np.linalg.inv(m)
    assert np.abs(got - want).max() <= opfunc.QUADRATURE_RTOL * max(1.0, np.abs(want).max())
