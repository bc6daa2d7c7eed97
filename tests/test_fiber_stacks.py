"""Stacked fiber evaluation: a stack of momenta, of contour nodes or of
fiber sets is one call, and every member comes out as it would alone.

The per-momentum calls of each evaluator, single ``reconstruct`` calls and
a per-node loop over the arcs of ``function_norm_bound`` are the
references.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_periodic_op_properties import PROPERTY_SETTINGS, REF3, _dense_norm, specs_and_radii

from blochlat import opfunc
from blochlat.averaging import Profile, profile_hat, prolong_restrict_fiber
from blochlat.lattice import LatticeSpec, build_family, steps
from blochlat.opfunc import (
    FUNCTIONS,
    Circle,
    contour_nodes,
    function_fiber,
    function_norm_bound,
    make_polynomial,
    resolvent_fiber,
)
from blochlat.periodic_op import BlochFiber, _fiber_rows, bloch_fibers, reconstruct
from blochlat.periodization import (
    INVERSION_CHUNK,
    FiberFunction,
    _inversion_sums,
    fiber_function,
    fiber_hat,
    fiber_hat_cf,
    fiber_hat_fc,
    periodize,
)
from blochlat.rand import random_zkernel, random_zkernel_fc, rng_from_seed
from blochlat.scaling import ScaleFactors, scaled_fiber, scaled_fiber_cf, scaled_fiber_fc
from blochlat.verify import _recentered, verify_suite

REF = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, 1)


def _momenta(spec, rng, shape, complex_k):
    """Momenta of the given leading shape over a few Brillouin zones."""
    ks = rng.uniform(-2.0, 2.0, size=shape + (spec.n_axes,)) * steps(spec, "dual_block")
    if complex_k:
        ks = ks + 1j * rng.uniform(-1.0, 1.0, size=ks.shape)
    return ks


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1), complex_k=st.booleans())
@example(case=REF3, seed=0, complex_k=True)
def test_matrix_at_stacks_match_single_fibers(case, seed, complex_k):
    spec, radii = case
    rng = rng_from_seed(seed)
    a = random_zkernel(spec, radii, rng)
    f = fiber_function(a)
    for shape in ((), (5,), (2, 3)):
        ks = _momenta(spec, rng, shape, complex_k)
        got = f.matrix_at(ks)
        assert got.shape == shape + (len(a.entries),) * 2
        flat = ks.reshape(-1, spec.n_axes)
        expect = np.stack([fiber_hat(a, k).entries for k in flat]).reshape(got.shape)
        assert np.abs(got - expect).max() <= 1e-13 * max(np.abs(expect).max(), 1e-300)


def _stacked_evaluators(spec, radii, rng):
    """Every evaluator that takes a momentum stack, as k -> array."""
    a = random_zkernel(spec, radii, rng)
    b = random_zkernel_fc(spec, tuple(min(1, r) for r in radii), rng)
    weights = (rng.uniform(0.1, 1.0, size=2 * r + 1) for r in radii)
    profile = Profile(spec, radii, tuple(w / w.sum() for w in weights))
    s = ScaleFactors(time=4.0, space=2.0)
    return {
        "fiber_hat": lambda k: fiber_hat(a, k).entries,
        "fiber_hat_fc": lambda k: fiber_hat_fc(b, k),
        "fiber_hat_cf": lambda k: fiber_hat_cf(b, k),
        "profile_hat": lambda k: profile_hat(profile, k),
        "prolong_restrict_fiber": lambda k: prolong_restrict_fiber(profile, k).entries,
        "scaled_fiber": lambda k: scaled_fiber(a, s, k).entries,
        "scaled_fiber_fc": lambda k: scaled_fiber_fc(b, s, k),
        "scaled_fiber_cf": lambda k: scaled_fiber_cf(b, s, k),
    }


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1), complex_k=st.booleans())
@example(case=REF3, seed=0, complex_k=True)
def test_every_evaluator_stack_matches_single_momenta(case, seed, complex_k):
    spec, radii = case
    rng = rng_from_seed(seed)
    for name, evaluate in _stacked_evaluators(spec, radii, rng).items():
        for shape in ((), (5,), (2, 3)):
            ks = _momenta(spec, rng, shape, complex_k)
            got = np.asarray(evaluate(ks))
            flat = ks.reshape(-1, spec.n_axes)
            single = [np.asarray(evaluate(k)) for k in flat]
            assert got.shape == shape + single[0].shape, name
            expect = np.stack(single).reshape(got.shape)
            assert np.abs(got - expect).max() <= 1e-13 * max(np.abs(expect).max(), 1e-300), name
        for bad in (np.zeros(spec.n_axes + 1), np.zeros((2, spec.n_axes - 1))):
            with pytest.raises(ValueError, match=f"momentum must have {spec.n_axes} components"):
                evaluate(bad)


def _count_calls(monkeypatch, functions):
    """Count calls of each function, wherever a blochlat module binds it."""
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    wrapped = {}
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        wrapped[id(fn)] = counted
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "blochlat":
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[id(obj)])
    return counts


def test_verify_evaluates_fibers_in_stacks(monkeypatch):
    counts = _count_calls(monkeypatch, [profile_hat, fiber_hat, fiber_hat_fc, fiber_hat_cf,
                                        scaled_fiber, scaled_fiber_fc, scaled_fiber_cf])
    verify_suite(REF, random_zkernel(REF, (2, 2), rng_from_seed(7)), seed=7)
    assert counts["profile_hat"] <= 8
    assert counts["fiber_hat"] <= 6
    assert counts["fiber_hat_fc"] + counts["fiber_hat_cf"] <= 8
    assert sum(counts[name] for name in counts if name.startswith("scaled_fiber")) <= 2


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_function_fiber_stack_equals_single_calls(case, seed):
    spec, radii = case
    rng = rng_from_seed(seed)
    f = function_fiber(_recentered(random_zkernel(spec, radii, rng)), FUNCTIONS["exp"],
                       Circle(10.0, 5.0))
    ks = _momenta(spec, rng, (2,), complex_k=False)
    got = f.matrix_at(ks)
    for k, matrix in zip(ks, got):
        np.testing.assert_array_equal(matrix, f.matrix_at(k))


@pytest.mark.parametrize("nodes", [1, 9, 27, 65, 200])
def test_circle_rule_and_discs_of_a_stack_equal_single_calls(nodes):
    # CHUNK + 3 fibers: one full chunk and a short one
    rng = rng_from_seed(nodes)
    stack = (rng.normal(size=(opfunc.CHUNK + 3, 27, 27, 2)) @ [1.0, 1.0j]) / 12.0
    contour = Circle(0.1 + 0.2j, 2.0)
    values = np.exp(contour_nodes(contour, nodes)[0])
    got = opfunc._circle_rule(stack, contour, values)
    centers, rhos = opfunc._spectral_disc(stack)
    for i, matrix in enumerate(stack):
        alone = opfunc._circle_rule(matrix[None], contour, values)[0]
        np.testing.assert_array_equal(got[i], alone)
        assert opfunc._spectral_disc(matrix) == (centers[i], rhos[i])


@PROPERTY_SETTINGS
@given(case=specs_and_radii(), seed=st.integers(0, 2**32 - 1))
@example(case=REF3, seed=0)
def test_fiber_rows_of_a_stack_equal_single_reconstructs(case, seed):
    spec, _ = case
    rng = rng_from_seed(seed)
    fam = build_family(spec)
    n = fam.n_block
    blocks = rng.normal(size=(3, fam.n_coarse, n, n, 2)) @ [1.0, 1.0j]
    rows = _fiber_rows(spec, tuple(int(e) for e in fam.extents("coarse")), blocks)
    for stack, got in zip(blocks, rows):
        fibers = BlochFiber(None, stack, fam.coords("dual_coarse"))
        np.testing.assert_array_equal(got, reconstruct(fam, fibers).rows)
    # a grid that is no family's: 1, 2, 3, ... nodes along the axes
    grid = tuple(range(1, spec.n_axes + 1))
    blocks = rng.normal(size=(3, math.prod(grid), n, n, 2)) @ [1.0, 1.0j]
    rows = _fiber_rows(spec, grid, blocks)
    assert rows.shape == (3, n, math.prod(grid) * n)
    for stack, got in zip(blocks, rows):
        np.testing.assert_array_equal(got, _fiber_rows(spec, grid, stack))


def _per_arc_norm_bound(kernel, fn, contour, mass):
    """The certified sum over arcs, node by node: per node one resolvent per
    fiber, one reconstruct and the dense norm; the arcs double from 16
    until each has h ||R(z_j)|| <= 1/2."""
    fibers = bloch_fibers(kernel)

    def resolvent_norm(z):
        stack = np.stack([resolvent_fiber(matrix, z) for matrix in fibers.entries])
        return _dense_norm(reconstruct(kernel.family, replace(fibers, entries=stack)), mass)

    n = 16
    while True:
        h = 2.0 * contour.radius * math.sin(math.pi / (2 * n))
        zs, _ = contour_nodes(contour, n)
        norms = [resolvent_norm(z) for z in zs]
        if max(norms) * h <= 0.5:
            break
        n *= 2
    total = sum(fn.disc_sup(z, h) * r / (1.0 - h * r) for z, r in zip(zs, norms))
    return contour.radius / n * total, n


@pytest.mark.parametrize("spec, radii", [
    (REF, (2, 2)),
    (LatticeSpec(1.0, 1.0, 3, 3, 6, 6, 2), (1, 1, 1)),
    (LatticeSpec(0.5, 1.5, 2, 3, 8, 9, 1), (2, 1)),
], ids=["ref", "dim2", "anisotropic"])
def test_norm_bound_equals_the_per_arc_loop(spec, radii):
    kernel = periodize(_recentered(random_zkernel(spec, radii, rng_from_seed(11))),
                       build_family(spec))
    # the tight circle needs one doubling, which reuses the first 16 nodes
    for fn, mass, contour in ((FUNCTIONS["exp"], 0.25, Circle(10.0, 5.0)),
                              (make_polynomial([1.0, 0.5]), 0.5, Circle(10.0, 5.0)),
                              (FUNCTIONS["inverse"], 0.5, Circle(10.0, 0.35))):
        got = function_norm_bound(kernel, fn, contour, mass)
        want, arcs = _per_arc_norm_bound(kernel, fn, contour, mass)
        assert got.arcs == arcs == (32 if contour.radius < 1.0 else 16)
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("grid", [(1, 1), (5, 5), (4, 8), (5, 7), (11, 6)])
def test_inversion_makes_one_call_per_chunk(grid):
    a = random_zkernel(REF, (2, 2), rng_from_seed(12))
    shapes = []

    def matrix_at(ks):
        shapes.append(np.shape(ks))
        return fiber_function(a).matrix_at(ks)

    _inversion_sums(FiberFunction(REF, matrix_at), (2, 2), np.zeros(2), grid)
    n = math.prod(grid)
    assert len(shapes) == math.ceil(n / INVERSION_CHUNK)
    assert [s[0] for s in shapes[:-1]] == [INVERSION_CHUNK] * (len(shapes) - 1)
    assert sum(s[0] for s in shapes) == n
