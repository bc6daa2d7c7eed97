"""End-to-end tests for the batch front end: config validation, task
execution, report determinism, and the exit-code contract."""

import ast
import configparser
import csv
import gc
import importlib
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochlat import cli
from blochlat.cli import (_KERNEL_KEYS_BY_TYPE, _LATTICE_KEYS, _PARAM_KEYS_BY_TASK, KERNEL_TYPES,
                          TASKS, _write_csv, main)
from blochlat.lattice import LatticeSpec, steps
from blochlat.periodic_op import PeriodicKernel
from blochlat.periodization import fiber_hat, window_offsets, zkernel

REF_LINES = """
[lattice]
eps_t = 1.0
eps_x = 1.0
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 9
dim = 1

[kernel]
type = random
support_radius = 2
seed = 7

[task]
name = {task}
"""


def write_config(tmp_path, text, name="job.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(config, outdir, *extra):
    return main(["--config", config, "--output", str(outdir), *extra])


def read_report(outdir):
    with open(os.path.join(str(outdir), "report.json")) as fh:
        return json.load(fh)


def test_verify_task_passes_and_reports_anchors(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="verify"))
    out = tmp_path / "out"
    assert run(config, out, "--seed", "3") == 0
    report = read_report(out)
    assert report["task"] == "verify"
    rows = report["checks"]
    assert len(rows) >= 40
    assert all(row["pass"] for row in rows)
    anchors = {row["anchor"] for row in rows}
    # spot-check identifiers from every check family
    for label in ("eqnBOvolhvol", "lemBOkervar.c", "lemBOifkervar.b",
                  "eqnPOftaction", "lemBOfourier.a", "lemBOlonelinfty.a",
                  "eqnBOfofA", "lemPoPscaling.b", "lemPoPscalingCrs.c"):
        assert label in anchors
    summary_path = os.path.join(str(out), "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    assert summary["checks"] == rows
    assert isinstance(summary["elapsed_ms"], int)


def test_summary_stage_times_add_up_to_elapsed(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="fibers"))
    out = tmp_path / "out"
    assert run(config, out) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    stages = summary["stage_ms"]
    assert set(stages) == {"job", "task"}
    assert all(isinstance(v, int) and v >= 0 for v in stages.values())
    assert abs(stages["job"] + stages["task"] - summary["elapsed_ms"]) <= 2
    assert "stage_ms" not in read_report(out)


def test_reports_byte_identical_for_same_seed(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="verify"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(config, out_a, "--seed", "11") == 0
    assert run(config, out_b, "--seed", "11") == 0
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b

    fib = write_config(tmp_path, REF_LINES.format(task="fibers"), "fib.ini")
    out_c, out_d = tmp_path / "c", tmp_path / "d"
    assert run(fib, out_c, "--seed", "11") == 0
    assert run(fib, out_d, "--seed", "11") == 0
    assert (out_c / "fibers.csv").read_bytes() == (out_d / "fibers.csv").read_bytes()


def test_fibers_csv_schema_and_values(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="fibers"))
    out = tmp_path / "out"
    assert run(config, out) == 0
    with open(out / "fibers.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k_index_0", "k_index_1", "ell_row", "ell_col", "re", "im"]
    # 9 coarse momenta, 9x9 fiber matrices
    assert len(rows) - 1 == 9 * 81
    labels = {(r[0], r[1]) for r in rows[1:]}
    assert len(labels) == 9


def test_explicit_kernel_round_trip(tmp_path):
    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, dim=1)
    entries_path = tmp_path / "entries.csv"
    entries_path.write_text(
        "w_0,w_1,d_0,d_1,re,im\n"
        "0,0,0,0,1.5,0.0\n"
        "1,2,1,-1,0.25,-0.5\n"
        "2,1,-2,0,0.0,0.75\n"
    )
    config = write_config(tmp_path, f"""
[lattice]
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 9

[kernel]
type = explicit
entries = {entries_path}

[task]
name = fibers
""")
    out = tmp_path / "out"
    assert run(config, out) == 0

    radii = (2, 1)
    offsets = window_offsets(spec, radii)
    index = {tuple(int(c) for c in off): i for i, off in enumerate(offsets)}
    reference = np.zeros((9, len(offsets)), dtype=complex)
    reference[0, index[(0, 0)]] = 1.5
    reference[5, index[(1, -1)]] = 0.25 - 0.5j
    reference[7, index[(-2, 0)]] = 0.75j
    kernel = zkernel(spec, radii, reference)

    step = steps(spec, "dual_coarse")
    with open(out / "fibers.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    fibers = {}
    for row in rows:
        rep = (int(row[0]), int(row[1]))
        if rep not in fibers:
            fibers[rep] = fiber_hat(kernel, np.array(rep) * step).entries
        got = float(row[4]) + 1j * float(row[5])
        assert got == fibers[rep][int(row[2]), int(row[3])]


def test_norms_and_decay_tasks(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="norms") + """
[params]
masses = 1.0, 0.25
""")
    out = tmp_path / "norms"
    assert run(config, out, "--seed", "5") == 0
    report = read_report(out)
    names = [row["name"] for row in report["checks"]]
    assert "torus_norm_dominated[m=1]" in names
    assert "fiber_sup_bound[m=0.25]" in names
    with open(out / "norms.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mass", "window_norm", "torus_norm"]
    assert len(rows) == 3

    decay = write_config(tmp_path, REF_LINES.format(task="decay") + """
[params]
mass = 0.5
target_mass = 0.25
""", "decay.ini")
    out2 = tmp_path / "decay"
    assert run(decay, out2) == 0
    report = read_report(out2)
    assert all(row["pass"] for row in report["checks"])
    assert any("decay_norm_bound" in row["name"] for row in report["checks"])
    with open(out2 / "decay.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["w_index_0", "w_index_1", "d_index_0", "d_index_1"]
    # 9 block sites, 5x5 window
    assert len(rows) - 1 == 9 * 25


TASK_PARAMS = {
    "verify": "",
    "fibers": "",
    "norms": "",
    "decay": "\n[params]\nmass = 0.5\ntarget_mass = 0.25\n",
    "funcalc": "\n[params]\nfunction = polynomial\ncoefficients = 1,0.5,0.25\n"
               "contour_center = 0\ncontour_radius = 200\nmass = 0.25\n",
}


@pytest.mark.parametrize("task", TASK_PARAMS)
def test_no_task_reads_the_dense_kernel(tmp_path, monkeypatch, task):
    # the dense view of a torus kernel is for test oracles only
    def dense(self):
        raise AssertionError("a library path read PeriodicKernel.entries")

    monkeypatch.setattr(PeriodicKernel, "entries", property(dense))
    config = write_config(tmp_path, REF_LINES.format(task=task) + TASK_PARAMS[task])
    assert run(config, tmp_path / "out") == 0


@pytest.mark.parametrize("task", ["fibers", "norms", "decay", "funcalc"])
def test_every_csv_cell_is_its_own_17g_and_a_rerun_writes_the_same_bytes(tmp_path, task):
    # the %.17g contract at the CLI: each float cell is the %.17g text of the
    # double it reads back as, and a rerun writes the same file
    config = write_config(tmp_path, REF_LINES.format(task=task) + TASK_PARAMS[task])
    assert run(config, tmp_path / "a") == 0
    assert run(config, tmp_path / "b") == 0
    path = tmp_path / "a" / f"{task}.csv"
    assert path.read_bytes() == (tmp_path / "b" / f"{task}.csv").read_bytes()
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    cells = [i for i, name in enumerate(header) if not re.search(r"_index_|^ell_", name)]
    assert rows and cells
    for row in rows:
        assert [format(float(row[i]), ".17g") for i in cells] == [row[i] for i in cells]


def test_funcalc_projection_spectrum(tmp_path):
    config = write_config(tmp_path, """
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
contour_radius = 2.0
mass = 0.25
""")
    out = tmp_path / "out"
    assert run(config, out) == 0
    report = read_report(out)
    assert report["checks"][0]["name"] == "function_norm_bound[m=0.25]"
    assert report["checks"][0]["pass"]


def test_funcalc_contour_through_spectrum_exits_one(tmp_path, capsys):
    # the composite averaging operator is a projection, spectrum {0, 1};
    # this circle passes through both eigenvalues
    config = write_config(tmp_path, """
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
    assert run(config, tmp_path / "out") == 1
    assert "numerical error" in capsys.readouterr().err


def test_funcalc_inverse_with_its_pole_inside_the_contour_exits_two(tmp_path, capsys):
    # the residue of 1/z at 0 cancels A^-1: without the check the run exits
    # 0 with every entry near 1e-19
    config = write_config(tmp_path, REF_LINES.format(task="funcalc") + """
[params]
function = inverse
contour_center = 0
contour_radius = 200
""")
    assert run(config, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "pole at 0 inside the contour Circle(center=0j, radius=200.0)" in err
    assert not (tmp_path / "out" / "funcalc.csv").exists()


def test_funcalc_inverse_with_its_pole_on_the_contour_exits_two(tmp_path, capsys):
    # the trapezoid sums would double to MAX_NODES and then blame the spectrum
    config = write_config(tmp_path, REF_LINES.format(task="funcalc") + """
[params]
function = inverse
contour_center = 10
contour_radius = 10
""")
    assert run(config, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "pole at 0 on the contour Circle(center=(10+0j), radius=10.0)" in err
    assert not (tmp_path / "out" / "funcalc.csv").exists()


def test_funcalc_negative_mass_exits_two(tmp_path, capsys):
    # the weighted norm is submultiplicative only for mass >= 0, so the
    # function_norm_bound row would claim what its argument does not give
    config = write_config(tmp_path, REF_LINES.format(task="funcalc")
                          + FUNCALC_PARAMS.format(center="10", mass="-0.5"))
    assert run(config, tmp_path / "out") == 2
    assert "config error: params.mass must be non-negative, got -0.5" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_funcalc_bound_names_its_arcs(tmp_path):
    # the averaging projection, spectrum {0, 1}, well inside |z - 0.5| = 2
    config = write_config(tmp_path, REF_LINES.format(task="funcalc").replace(
        "type = random\nsupport_radius = 2\nseed = 7", "type = naive_qstarq") + """
[params]
function = identity
contour_center = 0.5
contour_radius = 2.0
mass = 0.25
""")
    assert run(config, tmp_path / "out") == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    (row,) = read_report(tmp_path / "out")["checks"]
    assert row["name"] == "function_norm_bound[m=0.25]"
    assert row["witness"] == "function=identity; arcs=16"
    assert run(config, tmp_path / "again") == 0
    assert (tmp_path / "again" / "report.json").read_bytes() == first


@pytest.mark.parametrize("task", ["verify", "norms", "fibers", "decay"])
def test_negative_seeds_are_config_errors(tmp_path, capsys, task):
    config = write_config(tmp_path, REF_LINES.format(task=task))
    assert run(config, tmp_path / "out", "--seed", "-1") == 2
    assert "config error: --seed must be a non-negative integer, got -1" in (
        capsys.readouterr().err)
    config = write_config(tmp_path, REF_LINES.format(task=task).replace(
        "seed = 7", "seed = -3"))
    assert run(config, tmp_path / "out") == 2
    assert "config error: kernel.seed must be a non-negative integer, got -3" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "report.json").exists()


def test_funcalc_non_finite_function_value_exits_one(tmp_path, capsys):
    # exp overflows at the contour node zeta = 800
    config = write_config(tmp_path, REF_LINES.format(task="funcalc") + """
[params]
function = exp
contour_center = 0
contour_radius = 800
""")
    assert run(config, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "numerical error: function value at zeta=800+0j is not finite" in err


@pytest.mark.parametrize("mass", ["300", "400", "1e308"])
def test_decay_overflowing_shift_exits_one(tmp_path, capsys, mass):
    # the shifted fibers of this 9^3 kernel overflow at these masses; the
    # task names the shift, warns of nothing and writes no NaN
    config = write_config(tmp_path, f"""
[lattice]
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 9
dim = 2

[kernel]
type = random
support_radius = 2,2,1

[task]
name = decay

[params]
mass = {mass}
target_mass = 0.25
""")
    out = tmp_path / "out"
    assert run(config, out, "--seed", "1") == 1
    err = capsys.readouterr().err
    assert "numerical error: inversion quadrature is not finite along the shift eta=(" in err
    assert not (out / "decay.csv").exists()
    assert not (out / "report.json").exists()


def test_norms_overflowing_weight_exits_one(tmp_path, capsys):
    # exp(700 sqrt 2) overflows on the support of the radius-1 window
    config = write_config(tmp_path, REF_LINES.format(task="norms").replace(
        "support_radius = 2", "support_radius = 1") + "\n[params]\nmasses = 700\n")
    out = tmp_path / "out"
    assert run(config, out) == 1
    err = capsys.readouterr().err
    assert "numerical error: weighted norm overflows at mass 700: " in err
    assert "RuntimeWarning" not in err
    assert not (out / "norms.csv").exists()
    assert not (out / "report.json").exists()


def test_funcalc_overflowing_weight_exits_one(tmp_path, capsys):
    # the weighted norm of f(A) = A overflows at mass 710; no Infinity row passes
    config = write_config(tmp_path, REF_LINES.format(task="funcalc")
                          + FUNCALC_PARAMS.format(center="0", mass="710").replace(
                              "contour_radius = 5.0", "contour_radius = 50"))
    out = tmp_path / "out"
    assert run(config, out) == 1
    err = capsys.readouterr().err
    assert "numerical error: weighted norm overflows at mass 710: " in err
    assert "RuntimeWarning" not in err
    assert not (out / "funcalc.csv").exists()
    assert not (out / "report.json").exists()


def test_funcalc_rounding_floor_exits_one(tmp_path, capsys):
    # exp reaches e^20 on this circle, which clears every eigenvalue by 14.5:
    # the quadrature stalls at its rounding floor, and says so
    config = write_config(tmp_path, REF_LINES.format(task="funcalc") + """
[params]
function = exp
contour_center = 0
contour_radius = 20
""")
    assert run(config, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "numerical error: contour quadrature stalled at its rounding floor" in err
    assert "max |f| = 4.85e+08 on the contour" in err


def test_verify_passes_on_a_coarse_torus_narrower_than_the_profile(tmp_path):
    # one coarse site along space: the averaging windows wrap onto themselves
    config = write_config(tmp_path, """
[lattice]
l_t = 3
l_x = 3
big_l_t = 9
big_l_x = 3

[kernel]
type = random
support_radius = 1,0
seed = 7

[task]
name = verify
""")
    out = tmp_path / "out"
    assert run(config, out) == 0
    rows = read_report(out)["checks"]
    assert len(rows) == 42 and all(row["pass"] for row in rows)


def test_unknown_keys_are_rejected(tmp_path, capsys):
    base = REF_LINES.format(task="verify")
    cases = [
        (base.replace("[lattice]", "[lattice]\nblocks = 2"), "lattice.blocks"),
        (base.replace("type = random", "type = random\nwidth = 2"), "kernel.width"),
        (base + "\n[params]\nmass = 1.0\n", "params.mass"),
        (base.replace("[task]", "[extra]\nx = 1\n\n[task]"), "section 'extra'"),
    ]
    for text, needle in cases:
        config = write_config(tmp_path, text)
        assert run(config, tmp_path / "out") == 2
        assert needle in capsys.readouterr().err


def test_invalid_values_are_rejected(tmp_path, capsys):
    base = REF_LINES.format(task="verify")
    cases = [
        (base.replace("name = verify", "name = spectra"), "task.name"),
        (base.replace("type = random", "type = magic"), "kernel.type"),
        (base.replace("l_t = 3", "l_t = 4"), "does not divide"),
        (REF_LINES.format(task="decay")
         + "\n[params]\nmass = 0.25\ntarget_mass = 0.5\n", "target_mass"),
        (base.replace("type = random\nsupport_radius = 2\nseed = 7",
                      "type = explicit\nentries = /nonexistent/entries.csv"),
         "not found"),
    ]
    for text, needle in cases:
        config = write_config(tmp_path, text)
        assert run(config, tmp_path / "out") == 2, text
        assert needle in capsys.readouterr().err


FUNCALC_PARAMS = """
[params]
function = identity
contour_center = {center}
contour_radius = 5.0
mass = {mass}
"""


@pytest.mark.parametrize("text, key", [
    (REF_LINES.format(task="decay") + "\n[params]\ntarget_mass = abc\n",
     "params.target_mass"),
    (REF_LINES.format(task="verify").replace("eps_t = 1.0", "eps_t = inf"),
     "lattice.eps_t"),
    (REF_LINES.format(task="decay") + "\n[params]\nmass = nan\n", "params.mass"),
    (REF_LINES.format(task="decay") + "\n[params]\nmass = -0.5\ntarget_mass = -1\n",
     "params.mass"),
    (REF_LINES.format(task="decay") + "\n[params]\ntarget_mass = -1e308\n",
     "params.target_mass"),
    (REF_LINES.format(task="funcalc") + FUNCALC_PARAMS.format(center="10", mass="nan"),
     "params.mass"),
    (REF_LINES.format(task="norms") + "\n[params]\nmasses = 1,nan\n", "params.masses"),
    (REF_LINES.format(task="funcalc") + FUNCALC_PARAMS.format(center="nan", mass="0.25"),
     "params.contour_center"),
], ids=["target_mass_abc", "eps_t_inf", "decay_mass_nan", "decay_mass_negative",
        "target_mass_negative", "funcalc_mass_nan", "masses_nan", "contour_center_nan"])
def test_malformed_and_non_finite_numbers_exit_two(tmp_path, capsys, text, key):
    config = write_config(tmp_path, text)
    assert run(config, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


FUZZ_PARAMS = {
    "verify": {},
    "norms": {"masses": "1,0.5"},
    "decay": {"mass": "0.5", "target_mass": "0.25"},
    "funcalc": {"function": "identity", "contour_center": "10", "contour_radius": "5",
                "mass": "0.25"},
}
FUZZ_REQUIRED = [("lattice", key) for key in ("l_t", "l_x", "big_l_t", "big_l_x")] + [
    ("kernel", "type"), ("task", "name")]
FUZZ_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
# no text here parses as a finite number, an integer or a complex
FUZZ_JUNK = st.sampled_from(["", "nan", "inf", "-inf", "abc", "1%", "%(x)s"]) | st.text(
    alphabet="0123456789.+-abdfinxz%$_", min_size=1, max_size=6).filter(
        lambda text: any(c in "abdfinxz%$_" for c in text))

FUZZ_SIZE = st.integers(max_value=0).map(str)
FUZZ_NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(repr)
FUZZ_NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
# each numeric field with the values below its range: sizes and spacings
# that are not positive, a width below 1, a contour radius <= 0, negative masses
FUZZ_OUT_OF_RANGE = {
    **{("lattice", key): FUZZ_SIZE for key in ("l_t", "l_x", "big_l_t", "big_l_x", "dim")},
    ("lattice", "eps_t"): FUZZ_NON_POSITIVE, ("lattice", "eps_x"): FUZZ_NON_POSITIVE,
    ("kernel", "width"): FUZZ_SIZE, ("params", "contour_radius"): FUZZ_NON_POSITIVE,
    ("params", "mass"): FUZZ_NEGATIVE, ("params", "target_mass"): FUZZ_NEGATIVE,
    ("params", "masses"): FUZZ_NEGATIVE.map(lambda text: "0.5," + text),
}


@st.composite
def broken_configs(draw):
    """The REF config of a drawn task with one field broken, as INI text, and
    the field that the config error must name."""
    task = draw(st.sampled_from(sorted(FUZZ_PARAMS)))
    config = _ref_config(task)
    allowed = {"lattice": _LATTICE_KEYS, "kernel": {"type", *_KERNEL_KEYS_BY_TYPE["random"]},
               "task": {"name"}, "params": _PARAM_KEYS_BY_TASK[task]}
    change = draw(st.sampled_from(["drop", "unknown_key", "unknown_section", "junk",
                                   "radius_length", "unknown_name", "out_of_range"]))
    if change == "drop":
        section, key = draw(st.sampled_from(FUZZ_REQUIRED))
        del config[section][key]
    elif change == "unknown_key":
        section = draw(st.sampled_from(sorted(config)))
        key = draw(FUZZ_NAMES.filter(lambda name: name not in allowed[section]))
        config[section][key] = "1"
    elif change == "unknown_section":
        section = draw(FUZZ_NAMES.filter(lambda name: name not in allowed))
        config[section] = {"x": "1"}
        return _ini(config), f"unknown section '{section}'"
    elif change == "junk":
        numeric = [("lattice", key) for key in config["lattice"]] + [
            ("kernel", "support_radius"), ("kernel", "seed")] + [
            ("params", key) for key in FUZZ_PARAMS[task] if key != "function"]
        section, key = draw(st.sampled_from(numeric))
        config[section][key] = draw(FUZZ_JUNK)
    elif change == "out_of_range":
        section, key = draw(st.sampled_from([
            field for field in FUZZ_OUT_OF_RANGE
            if field[0] != "params" or field[1] in config["params"]]))
        return _out_of_range(task, section, key, draw(FUZZ_OUT_OF_RANGE[section, key]))
    elif change == "radius_length":  # dim = 1 has two axes
        section, key = "kernel", "support_radius"
        config[section][key] = ",".join(["1"] * draw(st.integers(3, 5)))
    else:
        section, key = draw(st.sampled_from([("task", "name"), ("kernel", "type")]))
        config[section][key] = draw(FUZZ_NAMES.filter(
            lambda name: name not in TASKS + KERNEL_TYPES))
    return _ini(config), f"{section}.{key}"


def _ref_config(task):
    parser = configparser.ConfigParser()
    parser.read_string(REF_LINES.format(task=task))
    config = {name: dict(parser[name]) for name in parser.sections()}
    config["params"] = dict(FUZZ_PARAMS[task])
    return config


def _out_of_range(task, section, key, value):
    """The REF config of ``task`` with ``section.key`` set to ``value``; a
    width is read by the smoothed kernel."""
    config = _ref_config(task)
    if key == "width":
        config["kernel"] = {"type": "smooth_qstarq"}
    config[section][key] = value
    return _ini(config), f"{section}.{key}"


def _ini(config) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   + "\n" for section, keys in config.items())


@settings(derandomize=True, database=None, max_examples=140, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=broken_configs())
@example(drawn=_out_of_range("funcalc", "params", "contour_radius", "0"))
@example(drawn=_out_of_range("verify", "kernel", "width", "0"))
@example(drawn=_out_of_range("verify", "lattice", "l_t", "0"))
@example(drawn=_out_of_range("norms", "params", "masses", "1,-0.5"))
def test_one_broken_field_is_a_config_error_naming_it(tmp_path, capsys, drawn):
    text, field = drawn
    out = tmp_path / "out"
    assert run(write_config(tmp_path, text), out) == 2, text
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err, (text, err)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line", [
    "0,0,0,0,nan,0",
    "0,0,0,0,inf,0",
    "0,0,inf,0,1.0,0",
    "0,0,1e30,0,1.0,0",
], ids=["value_nan", "value_inf", "offset_inf", "offset_beyond_int64"])
def test_bad_explicit_entries_exit_two(tmp_path, capsys, line):
    entries_path = tmp_path / "entries.csv"
    entries_path.write_text("w_0,w_1,d_0,d_1,re,im\n" + line + "\n")
    config = write_config(tmp_path, REF_LINES.format(task="norms").replace(
        "type = random\nsupport_radius = 2\nseed = 7",
        f"type = explicit\nentries = {entries_path}"))
    assert run(config, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "kernel.entries line 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   os.pardir, "src"))
MEMORY_CAP = 2 << 30  # address space of a CLI child that may over-allocate


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("task, kernel, needle", [
    ("norms", "type = explicit\nentries = {entries}", "kernel.entries line 2: support window"),
    ("fibers", "type = explicit\nentries = {entries}", "kernel.entries line 2: a window"),
    ("norms", "type = random\nsupport_radius = 100000",
     "kernel.support_radius '100000': support window"),
    ("fibers", "type = random\nsupport_radius = 100000",
     "kernel.support_radius '100000': a window"),
], ids=["offset_1e9_norms", "offset_1e9_fibers", "radius_1e5_norms", "radius_1e5_fibers"])
def test_unstorable_window_is_a_config_error(tmp_path, task, kernel, needle):
    # at full size these windows ask for 29.8 GiB (the offset) and 2.6 TiB
    # (the radius); the child runs under an address-space cap, so a
    # regression fails here instead of exhausting the host. Tasks that
    # periodize reject the window by the fit rule before allocating; the
    # others report the allocation failure with the window size.
    entries = tmp_path / "entries.csv"
    entries.write_text("w_0,w_1,d_0,d_1,re,im\n0,0,1e9,0,1.0,0\n")
    config = write_config(tmp_path, REF_LINES.format(task=task).replace(
        "type = random\nsupport_radius = 2\nseed = 7", kernel.format(entries=entries)))
    out = subprocess.run(
        [sys.executable, "-m", "blochlat.cli", "--config", config,
         "--output", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory,
    )
    assert out.returncode == 2, out.stderr
    assert needle in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out" / "report.json").exists()


@st.composite
def _csv_chunks(draw):
    n_cols = draw(st.integers(1, 4))
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        n_rows = draw(st.integers(0, 5))
        labels = draw(st.lists(st.lists(st.integers(-20, 20), max_size=3),
                               min_size=n_rows, max_size=n_rows))
        values = draw(arrays(np.float64, (n_rows, n_cols),
                             elements=st.floats(width=64, allow_subnormal=True)))
        chunks.append((labels, values))
    return n_cols, chunks


@settings(derandomize=True, database=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_chunks())
@example((3, [
    ([[0, -1], [], [7]], np.array([[np.nan, np.inf, -np.inf],
                                   [0.0, -0.0, 5e-324],
                                   [-2.2250738585072009e-308, 1.7976931348623157e308, 0.1]])),
    ([], np.empty((0, 3))),
]))
def test_write_csv_matches_csv_writer(tmp_path, drawn):
    # the numpy writer must reproduce csv.writer fed format(x, ".17g")
    # cells byte for byte, special values included
    n_cols, chunks = drawn
    header = [f"c{i}" for i in range(n_cols)]
    path = tmp_path / "got.csv"
    _write_csv(str(path), header, [
        (["".join(f"{c}," for c in label) for label in labels], values)
        for labels, values in chunks
    ])
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for labels, values in chunks:
            writer.writerows([str(c) for c in label]
                             + [format(float(x), ".17g") for x in row]
                             for label, row in zip(labels, values))
    assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _one_ulp_around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


@settings(derandomize=True, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.builds(lambda sign, m, k: sign * m * 2.0 ** k, st.sampled_from([1.0, -1.0]),
                          st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-152, 46)),
                min_size=1, max_size=40))
@example([m * 2.0 ** -17 for m in (2 ** 17 + 1, 2 ** 17 + 3, 1000001, 1048579, 1310719)])
@example([v for k in range(-30, 31) for v in _one_ulp_around(float(f"1e{k}"))])
@example([float(v) for n in (10 ** 16, 10 ** 17) for v in range(n - 64, n + 65, 8)])
@example([v for x in (1e-5, 1e-4, 1e16, 1e17) for v in _one_ulp_around(x)]
         + [9.99995e-5, 9.9999999999999991e-5, 9.9999999999999984e15, 9.9999999999999984e16])
def test_write_csv_fast_path_is_exact(tmp_path, cells):
    # doubles m * 2^k over the decades of the numpy fast path, 1e-30 to
    # 1e30; the examples are exact decimal ties (m * 2^-17 has 18 digits,
    # the last a 5), 10^k and its neighbours, integers near 10^16 and 10^17,
    # and the points where %g switches between fixed and exponent notation
    path = tmp_path / "cells.csv"
    _write_csv(str(path), ["x"], [([""] * len(cells), np.array(cells)[:, None])])
    assert path.read_text().split("\n")[1:-1] == [format(x, ".17g") for x in cells]


def test_missing_config_exits_two(tmp_path, capsys):
    assert run(str(tmp_path / "absent.ini"), tmp_path / "out") == 2
    assert "not found" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path):
    config = write_config(tmp_path, REF_LINES.format(task="verify"))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    # output path exists and is a file, so the report directory cannot be made
    assert run(config, blocker) == 3


def test_verbose_prints_rows(tmp_path, capsys):
    config = write_config(tmp_path, REF_LINES.format(task="verify"))
    assert run(config, tmp_path / "out", "--verbose") == 0
    captured = capsys.readouterr().out
    assert "volume_identity_fine" in captured
    assert "eqnBOvolhvol" in captured


def modules_after_cli_import():
    """The names in ``sys.modules`` after ``import blochlat.cli`` in a fresh
    interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", "import blochlat.cli, sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("package", [
    # a heavy dependency on the import path dominates the start-up of every job
    "scipy",
    # the contour rule is the trapezoid rule, which needs no quadrature tables
    "numpy.polynomial",
    # the records share one base, so no class compiles generated methods
    "dataclasses",
])
def test_cli_import_does_not_load(package):
    assert not [m for m in modules_after_cli_import()
                if m == package or m.startswith(package + ".")]


# Runs the command as ``python -m blochlat.cli`` does, in a child whose atexit
# hook reports how many objects the collector had frozen by then.
RUN_AS_COMMAND = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"freeze_count={gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("blochlat.cli", run_name="__main__", alter_sys=True)
"""


def report_bytes(outdir):
    path = outdir / "report.json"
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("task, params, code, needle", [
    ("verify", "", 0, "verify: 42/42 checks passed"),
    ("funcalc", "\n[params]\nfunction = exp\ncontour_center = 0\ncontour_radius = 0.5\n", 1,
     "contour does not enclose the whole spectrum"),
], ids=["verify_exit0", "funcalc_exit1"])
def test_command_exits_with_the_collector_frozen(tmp_path, task, params, code, needle):
    # the process entry freezes the collector once main has returned, so the
    # shutdown collections skip the import-time objects; the atexit hook
    # still runs, and the child writes what an in-process main writes
    config = write_config(tmp_path, REF_LINES.format(task=task) + params)
    child, inproc = tmp_path / "child", tmp_path / "inproc"
    out = subprocess.run(
        [sys.executable, "-c", RUN_AS_COMMAND, "--config", config,
         "--output", str(child), "--seed", "5"],
        env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == code, out.stderr
    assert int(re.search(r"freeze_count=(\d+)", out.stderr).group(1)) > 0
    assert needle in (out.stdout if code == 0 else out.stderr)
    assert run(config, inproc, "--seed", "5") == code
    assert report_bytes(child) == report_bytes(inproc)
    assert (report_bytes(child) is None) == (code != 0)


def test_main_leaves_the_collector_alone(tmp_path):
    # the tests, the acceptance suite and the benchmark's tracer call main
    # in-process; only the process entry freezes
    config = write_config(tmp_path, REF_LINES.format(task="verify"))
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(config, tmp_path / "out") == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_command_freezes_the_collector_before_main(monkeypatch):
    # the job's collections skip the import-time objects, which the process
    # entry has frozen by the time main starts
    counts = []
    monkeypatch.setattr(cli, "main", lambda: counts.append(gc.get_freeze_count()) or 0)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
    finally:
        gc.unfreeze()
    assert exit_info.value.code == 0
    assert len(counts) == 1 and counts[0] > 0


def test_installed_command_and_module_share_one_entry():
    # ``blochlat`` and ``python -m blochlat.cli`` must exit the same way
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(SRC, os.pardir, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["blochlat"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    [main_block] = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in main_block.body] == ["run()"]
