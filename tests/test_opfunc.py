"""Contour calculus: resolvents, operator functions, convergence, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlat import opfunc
from blochlat.lattice import LatticeSpec, build_family
from blochlat.norms import weighted_norm
from blochlat.opfunc import (
    FUNCTIONS,
    RESOLVENT_COND_LIMIT,
    Circle,
    contour_length,
    contour_nodes,
    encloses,
    function_fiber,
    function_norm_bound,
    function_of_operator,
    function_of_operator_nodes,
    make_polynomial,
    resolvent_fiber,
)
from blochlat.periodic_op import (
    bloch_fibers,
    compose,
    identity_kernel,
    periodic_kernel,
)
from blochlat.periodization import FiberFunction, periodize
from blochlat.rand import random_periodic_kernel, random_zkernel, rng_from_seed
from blochlat.verify import _opfunc_checks

REF = LatticeSpec(eps_t=1.0, eps_x=1.0, l_t=3, l_x=3, big_l_t=9, big_l_x=9, dim=1)
FAM = build_family(REF)


def shifted_test_kernel(seed, scale=0.3, shift=10.0):
    """Random kernel scaled down and recentred so its spectrum avoids 0."""
    a = random_periodic_kernel(FAM, rng_from_seed(seed))
    entries = scale * np.asarray(a.entries) + shift * np.eye(FAM.n_fine) / FAM.vol_f
    return periodic_kernel(FAM, entries)


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
    out = function_of_operator(a, np.exp, contour)
    want = dense_oracle(a, np.exp)
    scale = np.abs(want).max()
    assert np.abs(out.entries - want).max() <= 1e-9 * scale


def test_trapezoid_doubling_converges_geometrically():
    a = shifted_test_kernel(74)
    contour, _ = spectrum_circle(a, margin=2.0)
    reference = dense_oracle(a, np.exp)
    scale = np.abs(reference).max()
    devs = []
    for nodes in (8, 16, 32, 64, 128, 256):
        got = function_of_operator_nodes(a, np.exp, contour, nodes).entries
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
        results.append(function_of_operator(a, np.exp, contour).entries)
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
        function_of_operator(a, np.exp, through)
    # a tight circle around one eigenvalue leaves the rest outside
    rest = eigs[np.abs(eigs - lam) > 1e-8]
    tiny = Circle(lam, 0.4 * float(np.abs(rest - lam).min()))
    with pytest.raises(ValueError, match="enclose"):
        function_of_operator(a, np.exp, tiny)


def test_function_fiber_matches_torus_route():
    rng = rng_from_seed(78)
    z = random_zkernel(REF, (1, 1), rng)
    entries = 0.3 * np.asarray(z.entries)
    entries[:, 4] += 10.0 / FAM.vol_f  # centre offset: slot of d = 0
    from blochlat.periodization import zkernel

    z = zkernel(REF, (1, 1), entries)
    contour = Circle(10.0, 7.0)
    f = function_fiber(z, np.exp, contour)
    torus = function_of_operator(periodize(z, FAM), np.exp, contour)
    fibers = bloch_fibers(torus)
    from blochlat.lattice import steps

    step = steps(REF, "dual_coarse")
    for fiber in fibers[:3]:
        got = f.matrix_at(np.asarray(fiber.rep) * step)
        assert np.abs(got - fiber.entries).max() <= 1e-9


def test_norm_bound_dominates_direct_norm():
    a = shifted_test_kernel(79)
    contour, _ = spectrum_circle(a, margin=2.0)
    out = function_of_operator(a, np.exp, contour)
    for mass in (0.0, 0.5):
        direct = weighted_norm(out, mass)
        bound = function_norm_bound(a, np.exp, contour, mass)
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
    assert contour_length(Circle(0.0, 2.0)) == pytest.approx(4.0 * np.pi)


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


def test_circle_doubling_reuses_the_previous_nodes():
    a = shifted_test_kernel(83)
    contour, _ = spectrum_circle(a, margin=8.0)  # converges at 32 nodes
    calls = []

    def counting_square(z):
        calls.append(z)
        return z * z

    out = function_of_operator(a, counting_square, contour)
    assert len(calls) == 32  # once per node, for every fiber at once
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
    function_norm_bound(a, np.exp, contour, 0.5)
    assert len(calls) == 1


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


def per_node_quadrature(matrix, fn, contour):
    """The contour rule as its per-node resolvent sum, doubling like the
    library; None where it does not converge within MAX_NODES."""
    def node_sum(zs, ws):
        return np.tensordot(ws * np.array([fn(z) for z in zs]), resolvent_fiber(matrix, zs), 1)

    n = 16
    acc = node_sum(*contour_nodes(contour, n))
    while 2 * n <= opfunc.MAX_NODES:
        n *= 2
        zs, ws = contour_nodes(contour, n)
        new = 0.5 * acc + node_sum(zs[1::2], ws[1::2])
        if np.abs(new - acc).max() <= opfunc.DOUBLING_RTOL * max(1.0, np.abs(new).max()):
            return new
        acc = new
    return None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["normal", "non-normal", "triangular"]),
       n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       fn=st.sampled_from(["exp", "polynomial", "inverse"]),
       around=st.sampled_from(["disc", "spectrum"]), gap=st.floats(0.02, 2.0))
def test_closed_form_rule_matches_the_per_node_resolvent_sum(kind, n, seed, fn, around, gap):
    rng = rng_from_seed(seed)
    m = random_matrix(kind, n, rng)
    m -= np.trace(m) / n * np.eye(n)
    m /= max(opfunc._spectral_disc(m)[1], 1e-300)  # disc radius about 1
    c, rho = opfunc._spectral_disc(m)
    reach = rho if around == "disc" else float(np.abs(np.linalg.eigvals(m) - c).max())
    offset = 0.1 * reach * complex(rng.standard_normal(), rng.standard_normal())
    radius = (reach + abs(offset)) * (1.0 + gap)
    if fn == "inverse":  # the pole at 0 stays well outside the circle
        m += 3.0 * radius * np.exp(2j * np.pi * rng.uniform()) * np.eye(n)
    contour = Circle(np.trace(m) / n + offset, radius)
    f = {"exp": np.exp, "polynomial": make_polynomial([1.0, -0.5, 0.25, 2.0]),
         "inverse": FUNCTIONS["inverse"]}[fn]
    try:
        got = opfunc._fiber_quadrature(m[None], f, contour)[0]
    except ValueError as exc:
        assert "contour quadrature" in str(exc)
        got = None
    want = per_node_quadrature(m, f, contour)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def constant_fibers(matrix):
    """A fiber function whose fiber is ``matrix`` at every momentum."""
    return FiberFunction(REF, lambda ks: np.broadcast_to(matrix, ks.shape[:-1] + matrix.shape))


NON_FINITE = [np.diag([np.inf] + [1.0] * 8), np.full((9, 9), np.nan)]


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "nan"])
def test_non_finite_fiber_is_named_before_any_solve(matrix):
    with pytest.raises(ValueError, match=r"fiber matrix is not finite: entry \(0, 0\)"):
        function_fiber(constant_fibers(matrix), np.exp, Circle(0.0, 1.0)).matrix_at(np.zeros(2))


@pytest.mark.parametrize("matrix", NON_FINITE, ids=["inf", "nan"])
def test_resolvent_of_a_non_finite_fiber_is_named(matrix):
    with pytest.raises(ValueError, match=r"fiber matrix is not finite: entry \(0, 0\)"):
        resolvent_fiber(matrix, [5.0])


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
        function_of_operator(a, np.exp, contour)
    with pytest.raises(ValueError, match=message):
        function_norm_bound(a, np.exp, contour, 0.5)


def test_contour_hugging_an_eigenvalue_is_still_named():
    # just clear of the eigenvalue 1 for the spectrum check, so close that the
    # trapezoid sums never settle, far above their rounding floor
    contour = Circle(0.0, 1.0 + 2.0 * opfunc.CLEARANCE_RTOL)
    fibers = constant_fibers(np.diag([0.0, 1.0, 0.5j]))
    with pytest.raises(ValueError, match="did not converge .* the spectrum may hug the contour"):
        function_fiber(fibers, np.exp, contour).matrix_at(np.zeros(2))
