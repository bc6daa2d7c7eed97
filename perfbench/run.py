"""Closed-loop benchmark of the ``blochlat`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_ref --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each job is one child process, ``python -m blochlat.cli --config ...
--output ... --seed s``, started through ``spawner.py`` only after the
previous one has exited (one job in flight). Job seeds are drawn from the workload seed. The package
is loaded from ``src/`` of the checkout through ``PYTHONPATH``, and BLAS runs
one thread per job (``THREAD_ENV``); nothing else in the children's
environment is changed.

``--trace 0`` reports the end-to-end metrics, medians over the run's jobs:
the job wall time, the CLI's own ``elapsed_ms``, the job's peak RSS, and the
wall time of a child that only imports ``blochlat.cli``. Job and compute
times are scaled to a reference host speed, measured by a fixed probe around
each job (``Pacer``). ``--trace 1`` runs every job twice, untraced and then
under ``trace_job.py``, and reports the per-layer self times and call counts
of the traced jobs.

A job fails on a nonzero exit, a check row that does not pass, an output the
workload's oracle rejects, or a ``report.json`` that differs from a rerun of
the same job. Oracles run after the timed loop. The last line of standard
output is one JSON object; run metadata, per-job samples and, for traced
runs, the spans go under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK_DIR = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")

# Each workload is one CLI config; the kernel seed is the job's --seed.
# ``support_radius`` gives the window radius per axis (time axis first).
# ``pace`` names the parts of ``pace_probe`` that set the workload's pace:
# with the memory-streaming part, verify_ref's median compute time spread
# 13 percent over ten runs against 9 without it; torus_funcalc's, 9 against
# 15 (one host, different hours).
WORKLOADS = {
    "verify_ref": {
        "lattice": {"l_t": 3, "l_x": 3, "big_l_t": 9, "big_l_x": 9, "dim": 1},
        "support_radius": (2, 2),
        "task": "verify",
        "params": {},
        "pace": ("interp", "small_linalg", "dense_blas"),
    },
    "torus_funcalc": {
        "lattice": {"l_t": 3, "l_x": 3, "big_l_t": 12, "big_l_x": 9, "dim": 2},
        "support_radius": (2, 2, 2),
        "task": "funcalc",
        "params": {"function": "polynomial", "coefficients": "1,0.5,0.25",
                   "contour_center": "0", "contour_radius": "200"},
        "pace": ("interp", "small_linalg", "dense_blas", "stream"),
    },
    "decay_window": {
        "lattice": {"l_t": 3, "l_x": 3, "big_l_t": 9, "big_l_x": 9, "dim": 2},
        "support_radius": (2, 2, 1),
        "task": "decay",
        "params": {"mass": "0.5", "target_mass": "0.25"},
        "pace": ("interp", "small_linalg", "dense_blas"),
    },
}

MIN_JOBS = 3            # untraced jobs per run even when --seconds is shorter
MIN_PAIRS = 2           # untraced+traced job pairs per traced run
SETUP_PROBES = 5        # import-only children per untraced run
JOB_TIMEOUT_S = 120     # a job still running after this is killed and fails
FUNCALC_RTOL = 1e-8
# Seconds each part of ``pace_probe`` takes on an idle core of the reference
# host, a 2-vCPU x86 Xeon VM; job times are reported at this pace.
PACE_REF_S = {"interp": 0.031, "small_linalg": 0.038, "dense_blas": 0.014,
              "stream": 0.011}
# One BLAS thread per job. With a thread per core, a job stalls at every BLAS
# barrier whenever the host takes a core away, and the run measures the host.
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

MODULES = ("lattice", "fourier", "periodic_op", "periodization", "averaging",
           "norms", "opfunc", "scaling", "verify", "rand", "cli")
TRACED_FUNCTIONS = (
    "lattice.build_family", "lattice.distance_matrix",
    "periodization.periodize", "periodization.fiber_hat",
    "periodization.inverse_fiber", "periodization.compose_z",
    "periodization.transpose_z", "periodization.apply_fc",
    "periodization.apply_cf",
    "periodic_op.periodic_kernel", "periodic_op.bloch_fibers",
    "periodic_op.reconstruct", "periodic_op.momentum_matrix",
    "periodic_op.kernel_from_momentum", "periodic_op.compose",
    "periodic_op.apply_kernel", "periodic_op.transpose_kernel",
    "norms.weighted_norm", "norms.decay_constant", "norms.fiber_decay_bound",
    "norms.decay_norm_bound", "norms.inverse_fiber_shifted",
    "opfunc.function_of_operator", "opfunc.function_norm_bound",
    "opfunc.resolvent_kernel", "opfunc.resolvent_fiber",
    "averaging.prolong_restrict_kernel", "averaging.prolong_restrict_fiber",
    "averaging.restrict_field", "averaging.prolong_field",
    "fourier.transform", "scaling.scale_kernel", "scaling.scaled_fiber",
    "rand.random_zkernel", "rand.random_periodic_kernel",
    "verify.verify_suite", "cli.main",
)


@dataclass
class Job:
    """One finished CLI child: its seed, output directory and measurements."""

    seed: int
    outdir: str
    returncode: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    compute_s: float | None = None
    pace_scale: float = 1.0
    failure: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(THREAD_ENV)
    return env


class Spawner:
    """Runs children one at a time through ``spawner.py``, a small process
    of its own, so that each child's peak RSS is its own (see there)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, cwd) -> tuple[int, float, float, float]:
        """Run ``cmd`` to completion.

        Returns the exit code, wall seconds, peak RSS in MB and CPU seconds
        (user plus system) of the child.
        """
        request = {"cmd": cmd, "cwd": cwd, "env": child_env(),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner.py exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["rss_mb"], reply["cpu_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_config(workload: str, path: str) -> None:
    spec = WORKLOADS[workload]
    sections = {
        "lattice": spec["lattice"],
        "kernel": {"type": "random",
                   "support_radius": ",".join(map(str, spec["support_radius"]))},
        "task": {"name": spec["task"]},
        "params": spec["params"],
    }
    with open(path, "w") as fh:
        for name, values in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")


def run_job(spawner, workdir, config, seed, label, traced=False) -> Job:
    outdir = os.path.join(workdir, label)
    args = ["--config", config, "--output", outdir, "--seed", str(seed)]
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "trace_job.py"),
               os.path.join(workdir, f"{label}.spans.json"), "--", *args]
    else:
        cmd = [sys.executable, "-m", "blochlat.cli", *args]
    return Job(seed, outdir, *spawner.run(cmd, workdir))


def pace_probe(parts) -> float:
    """Seconds this process takes for a fixed amount of each kind of work in
    ``parts``: the host's current speed, measured outside the program.

    The parts are an interpreter loop, SVDs of a 9x9 matrix, products of
    200x200 matrices and passes over a 16 MB array.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small, dense = rng.standard_normal((9, 9)), rng.standard_normal((200, 200))
    stream, out = np.full(2_000_000, 1.5), np.empty(2_000_000)

    def interp():
        total = 0
        for i in range(400_000):
            total += i * i

    work = {
        "interp": interp,
        "small_linalg": lambda: [np.linalg.svd(small) for _ in range(2000)],
        "dense_blas": lambda: [dense @ dense for _ in range(32)],
        "stream": lambda: [np.multiply(stream, 1.0, out=out) for _ in range(8)],
    }
    started = time.perf_counter()
    for part in parts:
        work[part]()
    return time.perf_counter() - started


def setup_probe(spawner, workdir) -> float:
    code, wall, _, _ = spawner.run([sys.executable, "-c", "import blochlat.cli"],
                                   workdir)
    if code != 0:
        raise RuntimeError(f"importing blochlat.cli exited with {code}")
    return wall


def _spec(workload):
    from blochlat.lattice import LatticeSpec
    from blochlat.periodization import normalize_radii

    spec = LatticeSpec(eps_t=1.0, eps_x=1.0, **WORKLOADS[workload]["lattice"])
    return spec, normalize_radii(spec, WORKLOADS[workload]["support_radius"])


def funcalc_oracle(workload: str, seed: int, csv_path: str) -> str | None:
    """Check every fiber of ``funcalc.csv`` against p(F) on the window route.

    The kernel is regenerated from the seed and each fiber F is taken from
    ``fiber_hat`` at the dual-coarse momentum, independently of the dense
    ``bloch_fibers`` route the CLI uses. Returns a failure reason or None.
    """
    import numpy as np
    from blochlat.lattice import extents, steps
    from blochlat.periodization import fiber_hat
    from blochlat.rand import random_zkernel, rng_from_seed

    spec, radii = _spec(workload)
    coeffs = [float(c) for c in WORKLOADS[workload]["params"]["coefficients"].split(",")]
    kernel = random_zkernel(spec, radii, rng_from_seed(seed))
    shape = tuple(int(e) for e in extents(spec, "dual_coarse"))
    n_block = int(np.prod(spec.ratios()))
    n_axes = spec.n_axes
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return f"funcalc.csv unreadable: {exc}"
    if data.shape[1] != n_axes + 4:
        return f"funcalc.csv has {data.shape[1]} columns, expected {n_axes + 4}"
    index = data[:, :n_axes + 2].astype(np.int64)
    if np.any(index[:, :n_axes] < 0) or np.any(index[:, :n_axes] >= shape) \
            or np.any(index[:, n_axes:] < 0) or np.any(index[:, n_axes:] >= n_block):
        return "funcalc.csv has an index out of range"
    rep = np.ravel_multi_index(tuple(index[:, :n_axes].T), shape)
    got = np.zeros((int(np.prod(shape)), n_block, n_block), dtype=complex)
    seen = np.zeros(got.shape, dtype=np.int64)
    cell = (rep, index[:, n_axes], index[:, n_axes + 1])
    got[cell] = data[:, -2] + 1j * data[:, -1]
    np.add.at(seen, cell, 1)
    if not np.all(seen == 1):
        return "funcalc.csv does not hold every fiber entry exactly once"
    step = steps(spec, "dual_coarse")
    eye = np.eye(n_block)
    for flat, coords in enumerate(np.ndindex(*shape)):
        f = np.asarray(fiber_hat(kernel, np.array(coords) * step).entries)
        expect = eye * coeffs[0]
        power = eye
        for c in coeffs[1:]:
            power = power @ f
            expect = expect + c * power
        dev = float(np.abs(got[flat] - expect).max())
        if dev > FUNCALC_RTOL * float(np.abs(expect).max()):
            return f"fiber {coords} deviates from the oracle by {dev:.3e}"
    return None


def judge(workload: str, job: Job) -> str | None:
    """Why ``job`` failed, or None when its outputs are correct."""
    if job.returncode != 0:
        return f"exit code {job.returncode}"
    try:
        with open(os.path.join(job.outdir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(job.outdir, "summary.json")) as fh:
            job.compute_s = json.load(fh)["elapsed_ms"] / 1000.0
    except (OSError, ValueError, KeyError) as exc:
        return f"reports unreadable: {exc}"
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    if failed:
        return f"check rows failed: {', '.join(failed)}"
    task = WORKLOADS[workload]["task"]
    if task in ("verify", "decay") and not report["checks"]:
        return "no check rows"
    if task == "funcalc":
        return funcalc_oracle(workload, job.seed,
                              os.path.join(job.outdir, "funcalc.csv"))
    return None


def same_report(a: Job, b: Job) -> bool:
    try:
        with open(os.path.join(a.outdir, "report.json"), "rb") as fa, \
                open(os.path.join(b.outdir, "report.json"), "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def job_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _median(values):
    return statistics.median(values) if values else None


class Pacer:
    """Host speed around each timed child of a run, from pace probes.

    Neighbours on a shared host slow a core by up to 1.8x, in phases that
    last from seconds to over a minute; CPU time drifts with wall time, as
    little of it is stolen. A pace probe runs before the first child and
    after each one, and a child's time is scaled by the probe's reference
    time (``PACE_REF_S``) over the mean of the two probes around it, which
    cancels the phase it ran in.
    """

    def __init__(self, parts):
        self.parts = parts
        self.reference = sum(PACE_REF_S[part] for part in parts)
        self.samples = [pace_probe(parts)]

    def scale(self) -> float:
        """Call right after a timed child: its factor to reference pace."""
        self.samples.append(pace_probe(self.parts))
        return self.reference / ((self.samples[-2] + self.samples[-1]) / 2.0)


def untraced_run(spawner, workload, seed, seconds, workdir, config):
    """Closed loop until the jobs' wall time sums to ``seconds``.

    ``job_s`` and ``compute_s`` are medians of times scaled to reference
    pace (``Pacer``); the record also keeps their raw medians. ``setup_s``
    and ``peak_rss_mb`` are plain medians: an import reads files more than
    it computes, and scaling it by the probe made it noisier. The second job reruns the first job's seed.
    A set-up probe follows each of the first ``SETUP_PROBES`` jobs, so probes
    and jobs see the same machine state; a run with fewer jobs tops the
    probes up after the loop.
    """
    seeds = job_seeds(workload, seed)
    first = next(seeds)
    jobs, probes = [], []
    pacer = Pacer(WORKLOADS[workload]["pace"])
    while len(jobs) < MIN_JOBS or sum(j.wall_s for j in jobs) < seconds:
        job_seed = first if len(jobs) < 2 else next(seeds)
        jobs.append(run_job(spawner, workdir, config, job_seed, f"job{len(jobs)}"))
        jobs[-1].pace_scale = pacer.scale()
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(spawner, workdir))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(spawner, workdir))
    for job in jobs:
        job.failure = judge(workload, job)
    if jobs[0].failure is None and jobs[1].failure is None \
            and not same_report(jobs[0], jobs[1]):
        jobs[1].failure = "report.json differs from a rerun of the same seed"
    ok = [j for j in jobs if j.failure is None]
    metrics = {
        "job_s": (_median([j.wall_s * j.pace_scale for j in ok]), "s"),
        "compute_s": (_median([j.compute_s * j.pace_scale for j in ok]), "s"),
        "setup_s": (_median(probes), "s"),
        "peak_rss_mb": (_median([j.rss_mb for j in ok]), "MB"),
    }
    raw = {"job_s": _median([j.wall_s for j in ok]),
           "compute_s": _median([j.compute_s for j in ok])}
    return jobs, metrics, {"setup_probes_s": probes, "pace_s": pacer.samples,
                           "raw_medians": raw}


def layer_profile(spans) -> dict:
    """Per-module self time and per-function self time and calls of one job."""
    out = {f"{m}.self_ms": 0.0 for m in MODULES}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.self_ms"] = 0.0
        out[f"{name}.calls"] = 0
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        module = name.split(".", 1)[0]
        if f"{module}.self_ms" in out:
            out[f"{module}.self_ms"] += own * 1000.0
        if f"{name}.calls" in out:
            out[f"{name}.self_ms"] += own * 1000.0
            out[f"{name}.calls"] += 1
    return out


def traced_run(spawner, workload, seed, seconds, workdir, config):
    """Pairs of jobs on one seed: untraced, then traced.

    The traced job's report.json must equal the untraced one byte for byte,
    which also checks that the tracer changes no result.
    """
    seeds = job_seeds(workload, seed)
    plain, traced, profiles, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
        job_seed = next(seeds)
        n = len(traced)
        plain.append(run_job(spawner, workdir, config, job_seed, f"plain{n}"))
        traced.append(run_job(spawner, workdir, config, job_seed, f"traced{n}",
                              traced=True))
    for n, (a, b) in enumerate(zip(plain, traced)):
        a.failure = judge(workload, a)
        b.failure = judge(workload, b)
        if a.failure is None and b.failure is None and not same_report(a, b):
            b.failure = "traced report.json differs from the untraced one"
        try:
            with open(os.path.join(workdir, f"traced{n}.spans.json")) as fh:
                job_spans = json.load(fh)
        except (OSError, ValueError) as exc:
            b.failure = b.failure or f"spans unreadable: {exc}"
            continue
        spans.append({"job": n, "seed": b.seed, "spans": job_spans})
        if b.failure is None:
            profiles.append(layer_profile(job_spans))
            profiles[-1]["cli_main_s"] = next(
                end - start for name, start, end, _ in job_spans if name == "cli.main")
    jobs = plain + traced
    metrics = {}
    if profiles:
        for key in profiles[0]:
            if key == "cli_main_s":
                continue
            unit = "count" if key.endswith(".calls") else "ms"
            metrics[key] = (_median([p[key] for p in profiles]), unit)
        untraced = _median([j.compute_s for j in plain if j.failure is None])
        share = None
        if untraced:
            share = _median([p["cli_main_s"] for p in profiles]) / untraced - 1.0
        metrics["trace.overhead_share"] = (share, "ratio")
    return jobs, metrics, {"spans": spans}


def geometry(workload) -> dict:
    import numpy as np
    from blochlat.periodization import exact_grid_sizes

    spec, radii = _spec(workload)
    n_fine = int(np.prod(spec.fine_extents()))
    n_block = int(np.prod(spec.ratios()))
    return {"dim": spec.dim, "n_fine": n_fine, "n_block": n_block,
            "n_coarse": n_fine // n_block, "window_radii": list(radii),
            "quadrature_grid": list(exact_grid_sizes(spec, radii)),
            "task": WORKLOADS[workload]["task"],
            "params": WORKLOADS[workload]["params"]}


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(child_env().items())
                       if k.endswith("_NUM_THREADS")},
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        config = os.path.join(workdir, "job.ini")
        write_config(workload, config)
        body = traced_run if trace else untraced_run
        started = time.perf_counter()
        with Spawner() as spawner:
            jobs, metrics, extra = body(spawner, workload, seed, seconds,
                                        workdir, config)
        run_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for j in jobs if j.failure is not None)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if not metrics or missing:
        raise RuntimeError(f"{workload}: no successful job to measure; failures: "
                           + "; ".join(j.failure for j in jobs if j.failure))
    spans = extra.pop("spans", None)
    samples = [{"seed": j.seed, "exit": j.returncode, "wall_s": j.wall_s,
                "compute_s": j.compute_s, "cpu_s": j.cpu_s,
                "pace_scale": j.pace_scale, "rss_mb": j.rss_mb,
                "failure": j.failure}
               for j in jobs]
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "run_s": run_s,
        "machine": machine(), "geometry": geometry(workload),
        "pythonpath": SRC, "job_seeds": [j.seed for j in jobs],
        "samples_per_median": len(jobs) - failed, "jobs": samples,
        **extra, "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with gzip.open(stem + ".spans.json.gz", "wt") as fh:
            json.dump(spans, fh, separators=(",", ":"))
    return result


def print_result(workload: str, result: dict) -> None:
    n = result["attempted"] - result["failed"]
    share = result["failed"] / result["attempted"]
    print(f"{workload}: fail_share {share:g} ({result['failed']}/"
          f"{result['attempted']} jobs); {n} samples per metric")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blochlat", "cli.py")):
        print(f"blochlat sources not found under {SRC}; run from the root "
              "of a blochlat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(THREAD_ENV)
    import blochlat

    if not os.path.abspath(blochlat.__file__).startswith(SRC + os.sep):
        print(f"blochlat imported from {blochlat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except RuntimeError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        print_result(name, results[name])
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
