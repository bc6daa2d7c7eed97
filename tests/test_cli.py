"""End-to-end tests for the batch front end: config validation, task
execution, report determinism, and the exit-code contract."""

import csv
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochlat.cli import _write_csv, main
from blochlat.lattice import LatticeSpec, steps
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
function = inverse
contour_center = 0.5
contour_radius = 0.5
""")
    assert run(config, tmp_path / "out") == 1
    assert "numerical error" in capsys.readouterr().err


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
    (REF_LINES.format(task="funcalc") + FUNCALC_PARAMS.format(center="10", mass="nan"),
     "params.mass"),
    (REF_LINES.format(task="norms") + "\n[params]\nmasses = 1,nan\n", "params.masses"),
    (REF_LINES.format(task="funcalc") + FUNCALC_PARAMS.format(center="nan", mass="0.25"),
     "params.contour_center"),
], ids=["target_mass_abc", "eps_t_inf", "decay_mass_nan", "funcalc_mass_nan",
        "masses_nan", "contour_center_nan"])
def test_malformed_and_non_finite_numbers_exit_two(tmp_path, capsys, text, key):
    config = write_config(tmp_path, text)
    assert run(config, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


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
    # the %-template writer must reproduce csv.writer fed format(x, ".17g")
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


def test_cli_import_does_not_load_scipy():
    # a heavy dependency on the import path dominates the start-up of every job
    assert "scipy" not in modules_after_cli_import()


def test_cli_import_does_not_load_numpy_polynomial():
    # the contour rule is the trapezoid rule, which needs no quadrature tables
    assert not [m for m in modules_after_cli_import() if m.startswith("numpy.polynomial")]
