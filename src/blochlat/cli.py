"""Batch front end.

Reads an INI-style job configuration, runs one task against the configured
lattice and kernel, and writes machine-readable reports:

* ``report.json``   deterministic given (config, seed); byte-identical
                    across repeated runs
* ``summary.json``  the same rows plus ``elapsed_ms`` and ``stage_ms``
* ``<task>.csv``    bulk numeric output where the task produces matrices;
                    ``_write_csv`` formats each chunk (a fiber, a block site)
                    as ``%.17g`` cells in numpy, so floats read back bit-exact,
                    and writes it before the next, so memory holds one chunk

Config sections are ``[lattice]``, ``[kernel]``, ``[task]``, ``[params]``;
unknown sections or keys are rejected by name so typos cannot silently
change a run.

Exit codes: 0 all checks passed; 1 a numerical check failed or a numerical
precondition was violated while running; 2 malformed configuration;
3 output could not be written.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import gc
import json
import math
import os
import sys
import time
from functools import lru_cache

import numpy as np

from .averaging import naive_profile, prolong_restrict_kernel, smooth_profile
from .lattice import LatticeSpec
from .norms import _decay_norm_from_bound, fiber_decay_bound, weighted_norm
from .opfunc import (
    FUNCTIONS,
    Circle,
    function_norm_bound,
    function_of_operator,
    make_polynomial,
)
from .periodic_op import bloch_fibers
from .periodization import (
    _check_window_fits,
    fiber_function,
    normalize_radii,
    periodize,
    window_offsets,
    zkernel,
)
from .rand import random_zkernel, rng_from_seed
from .verify import _complex_momenta, _le, all_passed, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

TASKS = ("fibers", "norms", "decay", "funcalc", "verify")
KERNEL_TYPES = ("naive_qstarq", "smooth_qstarq", "explicit", "random")

_LATTICE_KEYS = {"eps_t", "eps_x", "l_t", "l_x", "big_l_t", "big_l_x", "dim"}
_KERNEL_KEYS_BY_TYPE = {
    "naive_qstarq": set(),
    "smooth_qstarq": {"width"},
    "explicit": {"entries"},
    "random": {"seed", "support_radius"},
}
_PARAM_KEYS_BY_TASK = {
    "fibers": set(),
    "norms": {"masses"},
    "decay": {"mass", "target_mass"},
    "funcalc": {"function", "coefficients", "contour_center", "contour_radius", "mass"},
    "verify": set(),
}


class ConfigError(Exception):
    """Configuration rejected; the message names the offending field."""


def _parse_float(section, key, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(
            f"{section.name}.{key} must be a finite number, got {text.strip()!r}"
        )
    return value


def _get_float(section, key, default=None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {section.name}.{key}")
        return default
    return _parse_float(section, key, raw)


def _get_int(section, key, default=None) -> int:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {section.name}.{key}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section.name}.{key} must be an integer, got {raw!r}")


def _float_list(section, key, default) -> list[float]:
    raw = section.get(key)
    if raw is None:
        return list(default)
    return [_parse_float(section, key, part) for part in raw.split(",") if part.strip()]


def _load_config(path: str) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: a "%" in a value is text for its parser to refuse by name
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")
    return parser


def _validate_keys(parser: configparser.ConfigParser, task: str, kind: str) -> None:
    known_sections = {"lattice", "kernel", "task", "params"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section '{section}'")
    for key in parser["lattice"]:
        if key not in _LATTICE_KEYS:
            raise ConfigError(f"unknown key lattice.{key}")
    allowed = {"type"} | _KERNEL_KEYS_BY_TYPE[kind]
    for key in parser["kernel"]:
        if key not in allowed:
            raise ConfigError(
                f"unknown key kernel.{key} for kernel type '{kind}'"
            )
    for key in parser["task"]:
        if key != "name":
            raise ConfigError(f"unknown key task.{key}")
    for key in parser["params"]:
        if key not in _PARAM_KEYS_BY_TASK[task]:
            raise ConfigError(f"unknown key params.{key} for task '{task}'")


def _build_spec(section) -> LatticeSpec:
    try:
        return LatticeSpec(
            eps_t=_get_float(section, "eps_t", 1.0),
            eps_x=_get_float(section, "eps_x", 1.0),
            l_t=_get_int(section, "l_t"),
            l_x=_get_int(section, "l_x"),
            big_l_t=_get_int(section, "big_l_t"),
            big_l_x=_get_int(section, "big_l_x"),
            dim=_get_int(section, "dim", 1),
        )
    except ValueError as exc:  # each LatticeSpec message opens with its key
        raise ConfigError(f"lattice.{exc}")


def _read_explicit_entries(spec: LatticeSpec, path: str, fit: bool):
    if not os.path.isfile(path):
        raise ConfigError(f"kernel.entries file not found: {path}")
    n = spec.n_axes
    rows = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p.strip() for p in text.split(",")]
            if lineno == 1 and any(not _is_number(p) for p in parts):
                continue  # optional header row
            if len(parts) != 2 * n + 2:
                raise ConfigError(
                    f"kernel.entries line {lineno}: expected {2 * n + 2} "
                    f"columns, got {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ConfigError(f"kernel.entries line {lineno}: non-numeric field")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"kernel.entries line {lineno}: non-finite field")
            rows.append((lineno, values))
    if not rows:
        raise ConfigError(f"kernel.entries file {path} holds no entries")
    ratios = spec.ratios()
    radii = [0] * n
    for lineno, values in rows:
        w = values[:n]
        d = values[n:2 * n]
        if any(c != int(c) or abs(c) >= 2 ** 63 for c in w + d):
            raise ConfigError(f"kernel.entries line {lineno}: coordinates must be int64")
        if any(not (0 <= int(c) < r) for c, r in zip(w, ratios)):
            raise ConfigError(
                f"kernel.entries line {lineno}: block site outside the block"
            )
        if fit:
            try:
                _check_window_fits(spec, [abs(int(c)) for c in d], spec.fine_extents())
            except ValueError as exc:
                raise ConfigError(f"kernel.entries line {lineno}: {exc}")
        radii = [max(r, abs(int(c))) for r, c in zip(radii, d)]
    radii = tuple(radii)
    try:
        offsets = window_offsets(spec, radii)
        entries = np.zeros((spec.n_block, len(offsets)), dtype=complex)
    except MemoryError:
        widest = max(rows, key=lambda row: max(map(abs, row[1][n:2 * n])))[0]
        raise ConfigError(f"kernel.entries line {widest}: {_unstorable(radii)}")
    strides = {tuple(int(c) for c in off): idx for idx, off in enumerate(offsets)}
    seen = set()
    for lineno, values in rows:
        w = tuple(int(c) for c in values[:n])
        d = tuple(int(c) for c in values[n:2 * n])
        w_idx = int(np.ravel_multi_index(w, tuple(int(r) for r in ratios)))
        key = (w_idx, strides[d])
        if key in seen:
            raise ConfigError(f"kernel.entries line {lineno}: duplicate entry for {w}, {d}")
        seen.add(key)
        entries[w_idx, strides[d]] = values[-2] + 1j * values[-1]
    return zkernel(spec, radii, entries)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _unstorable(radii) -> str:
    return (f"a window of {math.prod(2 * r + 1 for r in radii)} offsets per "
            "block site cannot be stored")


def _build_kernel(spec: LatticeSpec, section, kind: str, seed: int, fit: bool):
    """The kernel; with ``fit`` a window wider than the torus is rejected first."""
    try:
        if kind == "naive_qstarq":
            return prolong_restrict_kernel(naive_profile(spec))
        if kind == "smooth_qstarq":
            width = _get_int(section, "width")
            if width < 1:
                raise ConfigError(f"kernel.width must be at least 1, got {width}")
            return prolong_restrict_kernel(smooth_profile(spec, width))
        if kind == "explicit":
            path = section.get("entries")
            if path is None:
                raise ConfigError("missing required key kernel.entries")
            return _read_explicit_entries(spec, path, fit)
        radius = section.get("support_radius", "2")
        try:
            radii = normalize_radii(
                spec, tuple(int(p) for p in radius.split(",")) if "," in radius
                else int(radius)
            )
        except ValueError:
            raise ConfigError(f"kernel.support_radius invalid: {radius!r}")
        kernel_seed = _get_int(section, "seed", seed)
        if kernel_seed < 0:
            raise ConfigError(f"kernel.seed must be a non-negative integer, got {kernel_seed}")
        rng = rng_from_seed(kernel_seed)
        try:
            if fit:
                _check_window_fits(spec, radii, spec.fine_extents())
            return random_zkernel(spec, radii, rng)
        except ValueError as exc:
            raise ConfigError(f"kernel.support_radius {radius!r}: {exc}")
        except MemoryError:
            raise ConfigError(f"kernel.support_radius {radius!r}: {_unstorable(radii)}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}")


class Job:
    """A validated run: lattice, kernel, task, parameters."""

    def __init__(self, parser: configparser.ConfigParser, seed: int):
        if seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
        for name in ("lattice", "kernel", "task"):
            if not parser.has_section(name):
                raise ConfigError(f"missing section [{name}]")
        task = parser["task"].get("name")
        if task not in TASKS:
            raise ConfigError(
                f"task.name must be one of {', '.join(TASKS)}, got {task!r}"
            )
        kind = parser["kernel"].get("type")
        if kind not in KERNEL_TYPES:
            raise ConfigError(
                f"kernel.type must be one of {', '.join(KERNEL_TYPES)}, got {kind!r}"
            )
        if not parser.has_section("params"):
            parser.add_section("params")
        _validate_keys(parser, task, kind)
        self.task = task
        self.seed = seed
        self.spec = _build_spec(parser["lattice"])
        periodizes = task in ("norms", "funcalc", "verify")
        self.kernel = _build_kernel(self.spec, parser["kernel"], kind, seed, periodizes)
        self.params = parser["params"]
        if periodizes:
            try:
                self.torus = periodize(self.kernel, self.spec)
            except ValueError as exc:
                raise ConfigError(f"kernel does not fit the torus: {exc}")
        if task == "decay":
            self.mass = self._mass("mass", 0.5)
            self.target_mass = self._mass("target_mass")
            if self.target_mass is not None and self.target_mass >= self.mass:
                raise ConfigError("params.target_mass must be smaller than params.mass")
        if task == "funcalc":
            self.mass = self._mass("mass")
            self.contour = self._build_contour()
            self.fn_name, self.fn = self._build_function()
            gap = abs(self.contour.center) - self.contour.radius
            if self.fn_name == "inverse" and gap <= 0:
                # inside, its residue would cancel A^-1 exactly; on the contour,
                # the quadrature would never settle
                raise ConfigError(
                    f"params.function = inverse has its pole at 0 "
                    f"{'inside' if gap < 0 else 'on'} the contour {self.contour}; "
                    f"the disc must exclude 0")

    def _mass(self, key: str, default: float | None = None) -> float | None:
        # the weighted norm is submultiplicative for m >= 0 only
        mass = _get_float(self.params, key) if key in self.params else default
        if mass is not None and mass < 0:
            raise ConfigError(f"params.{key} must be non-negative, got {mass:g}")
        return mass

    def _build_contour(self) -> Circle:
        center_raw = self.params.get("contour_center", "10")
        try:
            center = complex(center_raw.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"params.contour_center invalid: {center_raw!r}")
        if not cmath.isfinite(center):
            raise ConfigError(f"params.contour_center must be finite, got {center_raw!r}")
        radius = _get_float(self.params, "contour_radius", 5.0)
        try:
            return Circle(center, radius)
        except ValueError as exc:
            raise ConfigError(f"params.contour_radius: {exc}")

    def _build_function(self):
        name = self.params.get("function", "identity")
        if name == "polynomial":
            if "coefficients" not in self.params:
                raise ConfigError("params.coefficients required for polynomial")
            try:
                return name, make_polynomial(_float_list(self.params, "coefficients", ()))
            except ValueError as exc:
                raise ConfigError(f"params.coefficients: {exc}")
        if name not in FUNCTIONS:
            choices = ", ".join(sorted(FUNCTIONS) + ["polynomial"])
            raise ConfigError(f"params.function must be one of {choices}, got {name!r}")
        return name, FUNCTIONS[name]


def _fiber_chunks(spec, matrices):
    """``_write_csv`` chunks per fiber: labels "k indices,row,col,", values re, im."""
    n = spec.n_block
    suffixes = np.array([b"%d,%d," % (i, j) for i in range(n) for j in range(n)])
    for rep, matrix in matrices:
        base = "".join(f"{int(c)}," for c in rep).encode()
        labels = np.empty(n * n, [("k", f"S{len(base)}"), ("ell", suffixes.dtype)])
        labels["k"], labels["ell"] = base, suffixes
        yield (labels.view(f"S{labels.itemsize}"),
               np.ascontiguousarray(matrix, dtype=complex).view(float).reshape(-1, 2))


def _fiber_header(spec) -> list[str]:
    return [f"k_index_{a}" for a in range(spec.n_axes)] + [
        "ell_row", "ell_col", "re", "im",
    ]


def _run_fibers(job: Job, outdir: str):
    spec = job.spec
    reps = spec.coords("dual_coarse")
    fibers = fiber_function(job.kernel).matrix_at(reps * spec.steps("dual_coarse"))
    _write_csv(os.path.join(outdir, "fibers.csv"), _fiber_header(spec),
               _fiber_chunks(spec, zip(reps, fibers)))
    return []


def _run_norms(job: Job, outdir: str):
    masses = _float_list(job.params, "masses", (1.0, 0.5, 0.25))
    if not masses or any(m < 0 for m in masses):
        raise ConfigError("params.masses must be non-negative numbers")
    rng = rng_from_seed(job.seed)
    checks, values = [], np.empty((len(masses), 3))
    for row, mass in zip(values, masses):
        z_norm = weighted_norm(job.kernel, mass)
        t_norm = weighted_norm(job.torus, mass)
        row[:] = mass, z_norm, t_norm
        checks.append(_le(f"torus_norm_dominated[m={mass:g}]",
                          "lemBOlonelinfty.b", t_norm, z_norm))
        ks = _complex_momenta(job.spec, rng, 40, mass)
        sup = np.abs(fiber_function(job.kernel).matrix_at(ks)).max()
        checks.append(_le(f"fiber_sup_bound[m={mass:g}]",
                          "lemBOlonelinfty.a", sup, z_norm))
    _write_csv(os.path.join(outdir, "norms.csv"),
               ["mass", "window_norm", "torus_norm"], [([""] * len(masses), values)])
    return checks


def _run_decay(job: Job, outdir: str):
    mass, target = job.mass, job.target_mass
    f = fiber_function(job.kernel)
    bound = fiber_decay_bound(f, job.kernel.radii, mass)
    entries = np.abs(np.asarray(job.kernel.entries))
    offsets = window_offsets(job.spec, job.kernel.radii)
    d_labels = [",".join(map(str, d)) + "," for d in offsets.tolist()]
    chunks = (
        ([",".join(map(str, w)) + "," + d for d in d_labels], np.column_stack((e, b)))
        for w, e, b in zip(np.ndindex(*job.spec.ratios()), entries, bound)
    )
    header = [f"w_index_{a}" for a in range(job.spec.n_axes)] + [
        f"d_index_{a}" for a in range(job.spec.n_axes)] + ["abs_entry", "bound"]
    _write_csv(os.path.join(outdir, "decay.csv"), header, chunks)
    scale = max(entries.max(), 1e-300)
    checks = [_le(f"entrywise_decay_bound[m={mass:g}]", "lemBOlonelinfty.b",
                  float((entries - bound).max()), 1e-12 * scale)]
    if target is not None:
        checks.append(_le(
            f"decay_norm_bound[m={mass:g},m''={target:g}]", "lemBOlonelinfty.b",
            weighted_norm(job.kernel, target),
            _decay_norm_from_bound(job.spec, job.kernel.radii, bound, mass, target)))
    return checks


def _run_funcalc(job: Job, outdir: str):
    result = function_of_operator(job.torus, job.fn, job.contour)
    checks = []
    mass = job.mass
    if mass is not None:  # before the CSV, so a run that stops here writes none
        direct = weighted_norm(result, mass)
        bound = function_norm_bound(job.torus, job.fn, job.contour, mass)
        checks.append(_le(f"function_norm_bound[m={mass:g}]", "lemBOfnbnd", direct, bound,
                          witness=f"function={job.fn_name}; arcs={bound.arcs}"))
    fibers = bloch_fibers(result)
    _write_csv(os.path.join(outdir, "funcalc.csv"), _fiber_header(job.spec),
               _fiber_chunks(job.spec, zip(fibers.rep, fibers.entries)))
    return checks


def _run_verify(job: Job, outdir: str):
    return verify_suite(job.spec, job.kernel, job.seed)


_RUNNERS = {
    "fibers": _run_fibers,
    "norms": _run_norms,
    "decay": _run_decay,
    "funcalc": _run_funcalc,
    "verify": _run_verify,
}


_CELL = 29  # bytes: sign, "0.000" head, 17 digits and a dot, "e+XX" tail, separator
_TIE = 2.0 ** -36  # fast-path margin, far above the < 1e-14 error of N


def _split(a):
    """Dekker's split of doubles into halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


@lru_cache(maxsize=1)
def _cell_tables():
    """Fast-path tables over the exponents e = -30..30: 10^(16 - e) as hi, hi's
    halves and lo (hi + lo within 2^-106 of it), the %g head and tail and the
    digits before the dot; and the 10^4 four-digit groups, one per column."""
    scale, frame, whole = [], [], []
    for e in range(-30, 31):
        top, bottom = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = top / bottom  # int division rounds correctly, as does lo's
        num, den = hi.as_integer_ratio()
        scale.append((hi, (top * den - num * bottom) / (bottom * den)))
        fixed = -4 <= e < 17
        head = b"0." + b"0" * (-e - 1) if fixed and e < 0 else b""
        frame.append(head.ljust(5, b"\0") + (b"" if fixed else b"e%+03d" % e).ljust(4, b"\0"))
        whole.append(max(e + 1, 0) if fixed else 1)
    hi, lo = np.array(scale).T
    groups = np.arange(10 ** 4, dtype=np.uint16) // np.array([[1000], [100], [10], [1]], np.uint16)
    return (np.stack((hi, *_split(hi), lo)),
            np.frombuffer(b"".join(frame), np.uint8).reshape(61, 9).T.copy(),
            np.array(whole, np.uint8), (groups % 10 + 48).astype(np.uint8))


def _format_cells(x, out) -> None:
    """Write the %.17g bytes of each x into ``out``, zeroed uint8 of shape
    (_CELL,) + x.shape; its last row, the separator, is left as it is.

    With E = floor(log10 |x|), the 17 digits are N = |x| 10^(16 - E) rounded
    half-to-even; N is a double-double, Dekker's exact product of |x| and the
    table's hi plus |x| lo.  Cells it cannot decide go to the exact formatter:
    N's fraction within _TIE of 0, 1/2 or 1, N outside [10^16, 10^17), zeros,
    subnormals, non-finite values and |x| outside (1e-30, 1e30)."""
    scale, frame, whole, groups = _cell_tables()
    a = np.abs(x)
    fast = (a > 1e-30) & (a < 1e30)
    a[~fast] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) + 30
    hi, hh, hl, lo = np.take(scale, row, axis=1)
    p = a * hi
    ah, al = _split(a)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo  # N - p
    floor = np.floor(t)
    t -= floor
    n = p.astype(np.int64) + floor.astype(np.int64)
    fast &= n >= 10 ** 16
    n += t > 0.5
    t = np.abs(t - 0.5)
    fast &= (t >= _TIE) & (t <= 0.5 - _TIE) & (n < 10 ** 17)
    n[~fast] = 10 ** 16
    digits = np.empty((17,) + x.shape, np.uint8)
    top, low = np.divmod(n, 10 ** 8)
    digits[0] = top // 10 ** 8 + 48
    quads = np.stack((top // 10 ** 4 % 10 ** 4, top % 10 ** 4, low // 10 ** 4, low % 10 ** 4))
    digits[1:].reshape((4, 4) + x.shape)[...] = np.take(groups, quads, axis=1).swapaxes(0, 1)
    # %g drops trailing zeros after the dot, and the dot when none is left
    count = np.arange(1, 18, dtype=np.uint8).reshape((17,) + (1,) * x.ndim)
    w = whole[row]
    kept = np.maximum(np.max((digits != 48) * count, axis=0), w)
    digits *= count <= kept
    before = digits * (count <= w)
    ends = np.take(frame, row, axis=1)
    out[0], out[1:6], out[24:28] = (x < 0) * np.uint8(45), ends[:5], ends[5:]
    out[6:23] = before
    out[7:24] += digits - before + (count == w) * ((kept > w) * np.uint8(46))  # the dot
    for i in zip(*np.nonzero(~fast)):
        cell = ("%.17g" % x[i]).encode().ljust(_CELL - 1, b"\0")
        out[(slice(None, -1),) + i] = np.frombuffer(cell, np.uint8)


def _write_csv(path: str, header, chunks) -> None:
    """Write ``header``, then each ``(labels, values)`` chunk: row r is ``labels[r]``
    ("" or integer fields each ending in ",", as ``np.asarray(labels, dtype="S")``
    takes them) and then ``values[r]`` as %.17g cells, formatted in numpy by
    ``_format_cells``; a chunk is written before the next is read."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for labels, values in chunks:
            labels = np.asarray(labels, dtype="S")
            n_rows, n_cols = values.shape
            width = labels.itemsize
            text = np.zeros((width + n_cols * _CELL, n_rows), np.uint8)
            text[:width] = labels.view(np.uint8).reshape(n_rows, width).T
            cells = text[width:].reshape(n_cols, _CELL, n_rows).swapaxes(0, 1)
            _format_cells(np.ascontiguousarray(values.T, dtype=float), cells)
            cells[-1] = ord(",")
            cells[-1, -1] = ord("\n")
            fh.write(text.T.tobytes().translate(None, b"\0"))


def _check_payload(results) -> list[dict]:
    payload = []
    for r in results:
        row = {"name": r.name, "anchor": r.anchor, "lhs": float(r.lhs),
               "rhs": float(r.rhs), "pass": bool(r.passed)}
        if r.witness is not None:
            row["witness"] = r.witness
        payload.append(row)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochlat",
        description="Fiber decompositions, norm bounds, operator functions, "
                    "and the library self-check suite, driven by a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the INI job config")
    parser.add_argument("--output", default=".", help="directory for reports")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument("--verbose", action="store_true", help="print one line per check")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        job = Job(_load_config(args.config), args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    built = time.perf_counter()

    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        results = _RUNNERS[job.task](job, args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    payload = _check_payload(results)
    elapsed_ms, job_ms = (round((t - started) * 1e3) for t in (time.perf_counter(), built))
    report = {"task": job.task, "checks": payload}
    summary = {"checks": payload, "elapsed_ms": elapsed_ms,
               "stage_ms": {"job": job_ms, "task": elapsed_ms - job_ms}}
    try:
        with open(os.path.join(args.output, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(args.output, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.verbose:
        for row in results:
            mark = "pass" if row.passed else "FAIL"
            extra = f"  [{row.witness}]" if row.witness else ""
            print(f"{mark}  {row.name}  {row.anchor}  "
                  f"lhs={row.lhs:.6g} rhs={row.rhs:.6g}{extra}")
    n_pass = sum(1 for r in results if r.passed)
    print(f"{job.task}: {n_pass}/{len(results)} checks passed; "
          f"reports in {args.output}")
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


def run() -> None:
    """Process entry of the ``blochlat`` command: exit with :func:`main`'s code.

    The collector is frozen before ``main`` and again once it has returned
    and closed the reports. The first freeze moves the objects that importing
    numpy and the package created into the permanent generation, so the
    job's own collections do not traverse them; the second does the same for
    the interpreter's shutdown collections, and the process's exit reclaims
    them anyway. Atexit handlers, the flush of the standard streams and
    module teardown still run. ``main`` leaves the collector alone for
    in-process callers.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
