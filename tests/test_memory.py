"""Memory guards: coarse-invariant kernels stay at their block rows on the
periodize -> function -> fibers path, in the fiber round trip, in
``compose`` and in the torus, window and function rows of ``verify``, so
no n_fine x n_fine array forms,
``apply_kernel`` gathers n_block coarse cells at a time through the one
(n_block, n_coarse) block-major index table, never all of them at once,
the circle rule holds at most ``MAX_POWERS`` powers of B per chunk,
``function_norm_bound`` holds one pass of resolvents and
``fiber_decay_bound`` one pass of shifted fibers at a time, and the CLI
streams its CSVs one fiber at a time.

Peaks are ``tracemalloc`` readings of this process.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from blochlat.cli import _fiber_chunks, _fiber_header, _write_csv
from blochlat.lattice import LatticeSpec, build_family
from blochlat.norms import decay_constant, fiber_decay_bound
from blochlat.opfunc import (
    CHUNK,
    Circle,
    _circle_rule,
    contour_nodes,
    function_norm_bound,
    function_of_operator,
    make_polynomial,
)
from blochlat.periodic_op import (
    _block_major,
    _fiber_layout,
    _fine_translates,
    apply_kernel,
    bloch_fibers,
    compose,
    reconstruct,
)
from blochlat.periodization import (
    INVERSION_CHUNK,
    exact_grid_sizes,
    fiber_function,
    periodize,
    window_offsets,
)
from blochlat.rand import random_field_values, random_zkernel, rng_from_seed
from blochlat.verify import _opfunc_checks, _torus_checks, _window_checks


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_funcalc_path_stays_below_one_dense_kernel():
    # 12 x 9 x 9 = 972 sites; one dense complex kernel is 15.1 MB
    spec = LatticeSpec(1.0, 1.0, 3, 3, 12, 9, dim=2)
    fam = build_family(spec)
    z = random_zkernel(spec, (2, 2, 2), rng_from_seed(41))
    poly = make_polynomial([1.0, 0.5, 0.25])

    def run():
        result = function_of_operator(periodize(z, fam), poly, Circle(0.0, 200.0))
        return bloch_fibers(result)

    fibers, peak = _traced_peak_mb(run)
    assert len(fibers) == fam.n_coarse
    assert peak < 8.0


def test_circle_rule_holds_a_bounded_set_of_powers():
    # 4096 nodes on one chunk of 27 x 27 fibers, 93 KB a stack: the rule
    # holds at most MAX_POWERS = 16 powers of B and a few working stacks
    # (two sums and the result), where the block size of the fewest
    # products, 64, would hold 64 powers
    rng = rng_from_seed(41)
    stack = (rng.normal(size=(CHUNK, 27, 27, 2)) @ [1.0, 1.0j]) / 12.0
    contour = Circle(0.0, 2.0)
    values = np.exp(contour_nodes(contour, 4096)[0])
    out, peak = _traced_peak_mb(lambda: _circle_rule(stack, contour, values))
    assert np.isfinite(out).all()
    assert peak < 24 * stack.nbytes / 1e6


def test_function_norm_bound_holds_one_pass_of_resolvents():
    # 972 sites, 36 fibers of 27 x 27: holding every fiber's resolvents at
    # 64 nodes takes 26.9 MB; a pass of 4 nodes per fiber takes 1.7 MB
    spec = LatticeSpec(1.0, 1.0, 3, 3, 12, 9, dim=2)
    fam = build_family(spec)
    kernel = periodize(random_zkernel(spec, (2, 2, 2), rng_from_seed(41)), fam)
    poly = make_polynomial([1.0, 0.5, 0.25])
    bound, peak = _traced_peak_mb(
        lambda: function_norm_bound(kernel, poly, Circle(0.0, 200.0), 0.25))
    assert np.isfinite(bound) and bound > 0.0
    assert peak < fam.n_coarse * 64 * fam.n_block**2 * 16 / 1e6


def test_fiber_decay_bound_holds_one_pass_of_shifted_fibers():
    # 9 x 9 x 9 sites, radius 2: 99 directions of 8 nodes, 792 shifted
    # fibers of 27 x 27, 9.2 MB at once.  A pass holds INVERSION_CHUNK of
    # them, 0.37 MB, a few times over (the evaluator's own (pass, 27, 125)
    # product is 1.7 MB), and the 99 per-shift sums of moduli take 0.58 MB;
    # each window-sized (pass, 27, 125) array of terms would add 1.7 MB
    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, dim=2)
    radii = (2, 2, 2)
    f = fiber_function(random_zkernel(spec, radii, rng_from_seed(41)))
    offsets = window_offsets(spec, radii)
    units = offsets // np.maximum(np.gcd.reduce(offsets, axis=1), 1)[:, None]
    shifts = len(np.unique(units, axis=0))
    assert shifts * math.prod(exact_grid_sizes(spec, radii)) >= 20 * INVERSION_CHUNK
    bound, peak = _traced_peak_mb(lambda: fiber_decay_bound(f, radii, 0.5))
    assert np.isfinite(bound).all()
    n_block = int(np.prod(spec.ratios()))
    one_pass = INVERSION_CHUNK * n_block**2 * 16 / 1e6
    sums = shifts * n_block**2 * 8 / 1e6
    assert peak < 8 * one_pass + 2 * sums


def test_funcalc_csv_is_written_one_fiber_at_a_time(tmp_path):
    # the 972-site funcalc.csv holds 52,488 floats, 1.3 MB of text; a writer
    # that builds the whole file at once peaks near 4 MB
    spec = LatticeSpec(1.0, 1.0, 3, 3, 12, 9, dim=2)
    fam = build_family(spec)
    z = random_zkernel(spec, (2, 2, 2), rng_from_seed(41))
    matrices = [(f.rep, f.entries) for f in bloch_fibers(periodize(z, fam))]
    path = tmp_path / "funcalc.csv"

    def run():
        _write_csv(str(path), _fiber_header(spec), _fiber_chunks(spec, matrices))

    _, peak = _traced_peak_mb(run)
    assert path.stat().st_size > 1_000_000
    assert peak < 1.0


def test_dim3_round_trip_fits_without_the_dense_kernel():
    # 9^4 = 6561 sites; one dense complex kernel is 689 MB
    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, dim=3)
    fam = build_family(spec)
    z = random_zkernel(spec, (1, 1, 1, 1), rng_from_seed(0))

    def run():
        kernel = periodize(z, fam)
        return kernel, reconstruct(fam, bloch_fibers(kernel))

    (kernel, back), peak = _traced_peak_mb(run)
    scale = np.abs(kernel.rows).max()
    assert np.abs(back.rows - kernel.rows).max() <= 1e-12 * scale
    assert peak < 128.0


def test_dim3_round_trip_stays_near_its_block_rows():
    # 12^4 = 20736 sites, radius 2: the block rows are 26.9 MB.  The fibers,
    # the spectrum and the transform take a few times that; the block phases
    # are two small factors, where the (n_coarse, n_block, n_block) table of
    # exp(i (k+l).b) would cost one more copy of the rows
    spec = LatticeSpec(1.0, 1.0, 3, 3, 12, 12, dim=3)
    fam = build_family(spec)
    kernel = periodize(random_zkernel(spec, (2, 2, 2, 2), rng_from_seed(0)), fam)
    _fiber_layout.cache_clear()
    back, peak = _traced_peak_mb(lambda: reconstruct(fam, bloch_fibers(kernel)))
    assert np.abs(back.rows - kernel.rows).max() <= 1e-12 * np.abs(kernel.rows).max()
    assert peak < 4.5 * kernel.rows.nbytes / 1e6


def test_compose_stays_near_its_block_rows():
    # 15^3 = 3375 sites, 27 block sites: the block rows are 1.5 MB.  The
    # fiber product peaks near 4 times the rows; a product over the rows
    # gathers an (n_fine, n_coarse) field per block row and reaches about
    # 10 times the rows
    spec = LatticeSpec(1.0, 1.0, 3, 3, 15, 15, dim=2)
    fam = build_family(spec)
    rng = rng_from_seed(0)
    a = periodize(random_zkernel(spec, (2, 2, 2), rng), fam)
    b = periodize(random_zkernel(spec, (1, 1, 1), rng), fam)
    _fiber_layout.cache_clear()
    _block_major.cache_clear()
    product, peak = _traced_peak_mb(lambda: compose(a, b))
    assert product.rows.shape == a.rows.shape
    assert peak < 7 * a.rows.nbytes / 1e6


def test_apply_kernel_gathers_near_its_block_rows():
    # 15^3 = 3375 sites in 125 coarse cells of 27 block sites: the block
    # rows are 1.5 MB.  A gather over 27 coarse cells at a time, with its
    # own index, is the size of the rows; one gather over every coarse cell
    # through an (n_fine, n_coarse) index table reaches about 9 times them
    spec = LatticeSpec(1.0, 1.0, 3, 3, 15, 15, dim=2)
    fam = build_family(spec)
    rng = rng_from_seed(0)
    kernel = periodize(random_zkernel(spec, (2, 2, 2), rng), fam)
    phi = fam.field("fine", random_field_values(fam, "fine", rng))
    _block_major.cache_clear()
    _fine_translates.cache_clear()
    out, peak = _traced_peak_mb(lambda: apply_kernel(kernel, phi))
    assert out.values.shape == (fam.n_fine,)
    assert peak < 4 * kernel.rows.nbytes / 1e6


def test_verify_torus_rows_stay_at_the_block_rows():
    # 15^3 = 3375 sites in 125 coarse cells; one dense complex kernel is
    # 182 MB, and the dense momentum matrix needs several of that size
    spec = LatticeSpec(1.0, 1.0, 3, 3, 15, 15, dim=2)
    fam = build_family(spec)
    rows, peak = _traced_peak_mb(lambda: _torus_checks(fam, rng_from_seed(0)))
    assert len(rows) == 6 and all(row.passed for row in rows)
    assert peak < 60.0


@pytest.mark.parametrize("section", [_window_checks, _opfunc_checks])
def test_verify_product_rows_stay_at_the_block_rows(section):
    # 3375 sites: one dense complex kernel is 182 MB, and the dense products
    # behind the product rows need several of that size
    spec = LatticeSpec(1.0, 1.0, 3, 3, 15, 15, dim=2)
    fam = build_family(spec)
    z = random_zkernel(spec, (2, 2, 2), rng_from_seed(0))
    args = (fam, z, rng_from_seed(0)) if section is _window_checks else (fam, z)
    rows, peak = _traced_peak_mb(lambda: section(*args))
    assert rows and all(row.passed for row in rows)
    assert peak < 60.0


@pytest.mark.parametrize("gap, spacings", [(0.005, (1.0,) * 3), (0.25, (1.0,) * 4)])
def test_decay_constant_is_bounded_in_time_and_memory(gap, spacings):
    # a 1e-15 tail needs about 1e13 (gap 0.005, 3 axes) and 4e9 (gap 0.25,
    # 4 axes) lattice points; the box of a sum over all of them would not fit
    start = time.perf_counter()
    value, peak = _traced_peak_mb(lambda: decay_constant(gap, spacings))
    assert time.perf_counter() - start < 30.0
    assert peak < 256.0
    # the cell argument brackets the sum by e^(-+gap delta) times the
    # integral of exp(-gap |y|); the certified value may add at most one
    # more integral over the shell where the ball ends
    n, delta = len(spacings), 0.5 * math.sqrt(len(spacings))
    integral = 2 * math.pi ** (n / 2) * math.gamma(n) / (math.gamma(n / 2) * gap**n)
    assert math.exp(-gap * delta) * integral <= value <= 2 * math.exp(gap * delta) * integral
