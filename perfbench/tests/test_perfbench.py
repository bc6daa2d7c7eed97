"""Self-tests of the benchmark: tracer transparency, span nesting, failure
accounting. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

# 81-site funcalc job: the oracle path of torus_funcalc at a size that runs
# in about a second.
TINY = {
    "lattice": {"l_t": 3, "l_x": 3, "big_l_t": 9, "big_l_x": 9, "dim": 1},
    "support_radius": (2, 2),
    "task": "funcalc",
    "params": {"function": "polynomial", "coefficients": "1,0.5,0.25",
               "contour_center": "0", "contour_radius": "200"},
    "pace": ("interp",),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "tiny_funcalc", TINY)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


def _record(tmp_path, workload, trace):
    with open(tmp_path / "results" / f"{workload}-seed1-trace{trace}.json") as fh:
        return json.load(fh)


def _benchmark_names(section):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_tracer_is_transparent_and_nests_spans():
    from blochlat import periodic_op
    from blochlat.lattice import LatticeSpec, build_family
    from blochlat.periodization import periodize
    from blochlat.rand import random_zkernel, rng_from_seed

    spec = LatticeSpec(1.0, 1.0, 3, 3, 9, 9, 1)
    family = build_family(spec)
    torus = periodize(random_zkernel(spec, (2, 2), rng_from_seed(5)), family)
    original = periodic_op.reconstruct
    plain_fibers = periodic_op.bloch_fibers(torus)
    plain = periodic_op.reconstruct(family, plain_fibers)

    tracer = Tracer()
    tracer.install()
    try:
        assert periodic_op.reconstruct is not original
        fibers = periodic_op.bloch_fibers(torus)
        rebuilt = periodic_op.reconstruct(family, fibers)
        with pytest.raises(ValueError, match="one fiber per dual-coarse class"):
            periodic_op.reconstruct(family, fibers[:1])
    finally:
        tracer.uninstall()
    assert periodic_op.reconstruct is original

    np.testing.assert_array_equal(rebuilt.entries, plain.entries)
    for a, b in zip(fibers, plain_fibers):
        np.testing.assert_array_equal(a.entries, b.entries)
    names = [span[0] for span in tracer.spans]
    assert names.count("periodic_op.bloch_fibers") == 1
    assert names.count("periodic_op.reconstruct") == 2
    parent = names.index("periodic_op.reconstruct")
    children = [s for s in tracer.spans if s[3] == parent]
    assert [s[0] for s in children].count("periodic_op.periodic_kernel") == 1
    own = self_times(tracer.spans)
    assert own[parent] == pytest.approx(
        (tracer.spans[parent][2] - tracer.spans[parent][1])
        - sum(s[2] - s[1] for s in children))
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(own) == pytest.approx(roots)


def test_funcalc_oracle_accepts_cli_output_and_rejects_one_flipped_value(tiny, monkeypatch):
    real_run_job = run.run_job

    def run_job(spawner, workdir, config, seed, label, traced=False):
        job = real_run_job(spawner, workdir, config, seed, label, traced)
        if label == "job2":
            path = os.path.join(job.outdir, "funcalc.csv")
            with open(path) as fh:
                lines = fh.read().splitlines()
            cells = lines[1].split(",")  # fiber 0, entry (0, 0): about 1
            cells[-2] = repr(-float(cells[-2]))
            lines[1] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        return job

    monkeypatch.setattr(run, "run_job", run_job)
    result = run.run_workload("tiny_funcalc", 1, 0, trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    jobs = _record(tiny, "tiny_funcalc", 0)["jobs"]
    assert [j["failure"] is None for j in jobs] == [True, True, False]
    assert "deviates from the oracle" in jobs[2]["failure"]


def test_job_exiting_1_counts_as_failure(tiny, monkeypatch):
    bad = dict(TINY, params=dict(TINY["params"], contour_radius="0.001"))
    monkeypatch.setitem(run.WORKLOADS, "tiny_bad", bad)
    bad_config = str(tiny / "bad.ini")
    run.write_config("tiny_bad", bad_config)
    real_run_job = run.run_job

    def run_job(spawner, workdir, config, seed, label, traced=False):
        return real_run_job(spawner, workdir, bad_config if label == "job0" else config,
                            seed, label, traced)

    monkeypatch.setattr(run, "run_job", run_job)
    result = run.run_workload("tiny_funcalc", 1, 0, trace=False)
    assert (result["attempted"], result["failed"]) == (3, 1)
    jobs = _record(tiny, "tiny_funcalc", 0)["jobs"]
    assert jobs[0]["exit"] == 1 and jobs[0]["failure"] == "exit code 1"


def test_traced_run_emits_every_layer_metric(tiny, monkeypatch):
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    result = run.run_workload("tiny_funcalc", 1, 0, trace=True)
    assert (result["attempted"], result["failed"]) == (2, 0)
    metrics = result["metrics"]
    assert set(metrics) == _benchmark_names("per_layer")
    # function_of_operator takes the fibers, then the CLI writes the result's
    assert metrics["periodic_op.bloch_fibers.calls"]["value"] == 2
    assert metrics["norms.decay_constant.calls"]["value"] == 0
    assert metrics["cli.main.calls"]["value"] == 1
