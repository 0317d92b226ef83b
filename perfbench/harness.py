"""Workloads and the phases of one benchmark run.

A round builds the scene and models, generates a dataset from the workload
seed, saves and reloads it as NDJSON, fits the student with
``training.fit`` and exports an allocation landscape through
``cli.main(["landscape", ...])``. Rounds repeat until the time budget is
spent. A throughput is one call's work over the fastest call of the run, and
``setup_s`` is the median over rounds. Each round repeats the same inputs, so
its fitted parameters must repeat bit for bit. The package is driven only
through public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import respalloc
from respalloc import cli, data, models, training
from respalloc.filter_qp import FilterError, FilterProblem, differentiate_filter, solve_filter

from checks import FD_RTOL, KKT_TOL, Checks, directional_fd_error, kkt_certificate
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_CONTEXTS = 64     # contexts compared against the truth for gamma_err
KKT_SAMPLES = 32        # filter problems certified per allocation
FD_BATCH = 16           # samples in the finite-difference batch
LANDSCAPE_SPOTS = 4     # landscape cells recomputed from the checkpoint
REPEATS = 5             # back-to-back calls per timed phase and round
BIND_TOL = 1e-9
CLIP_TOL = 1e-9

WEAVE_LANDSCAPE = ["--axes", "r_lon,vr_lon", "--range1", "-15", "15",
                   "--range2", "-4", "4", "--fixed", "r_lat=3.7,vr_lat=0"]


@dataclass
class Job:
    """Everything one round needs, built from the workload seed."""

    scene: object
    scenario: str
    generate: Callable[[], list]
    units: Callable[[list], int]          # samples, or rollout steps for weaving
    truth: Callable[[np.ndarray], np.ndarray]   # filter states -> (P, N)
    student: object
    config: training.TrainConfig
    landscape_model: object
    landscape_args: list


def line2_const(seed, n=128, epochs=2, res=12):
    scene = data.two_agent_line_scene()
    g1 = np.random.default_rng(seed).uniform(0.15, 0.35)
    gamma = np.array([g1, 1.0 - g1])
    cfg = data.default_two_agent_config(n_samples=n, noise_variance=0.1, seed=seed)
    student = models.init_model("constant", seed=seed, n_agents=2)
    return Job(
        scene=scene, scenario="synthetic-2agent",
        generate=lambda: data.generate_synthetic(cfg, scene, gamma),
        units=len, truth=lambda ctx: np.tile(gamma, (len(ctx), 1)),
        student=student,
        config=training.TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.005,
                                    optimizer="sgd", seed=seed),
        landscape_model=student, landscape_args=["--res", str(res)])


def planar6_sym(seed, n=32, epochs=1, res=12):
    scene = data.planar_group_scene(6)
    teacher = models.init_model("symmetric", seed=seed, n_agents=6, agent_dim=4)
    cfg = data.default_planar_group_config(6, n_samples=n, noise_variance=0.1, seed=seed)
    student = models.init_model("symmetric", seed=seed + 1, n_agents=6, agent_dim=4)
    # The landscape command takes two-agent relative-state models only, so
    # this workload exports the landscape of an untrained relative model.
    relative = models.init_model("relative", seed=seed, context_dim=4)
    return Job(
        scene=scene, scenario="synthetic-6agent",
        generate=lambda: data.generate_synthetic(cfg, scene, teacher),
        units=len, truth=teacher.gamma_batch, student=student,
        config=training.TrainConfig(epochs=epochs, batch_size=16, learning_rate=1e-2,
                                    optimizer="adam", seed=seed),
        landscape_model=relative,
        landscape_args=WEAVE_LANDSCAPE + ["--res", str(res)])


def weave_rel(seed, count=2, steps=100, epochs=1, res=12):
    scene = data.weaving_scene()
    truth = data.speed_advantage_gamma()
    wcfg = data.WeavingConfig(steps=steps, noise_variance=0.05)

    def generate():
        rollouts = data.generate_weaving_trajectories(
            "mixed", count, seed=seed, gamma_truth=truth, scene=scene, config=wcfg)
        return data.augment(rollouts, "mirror_lateral")

    student = models.init_model("relative", seed=seed, context_dim=4)
    return Job(
        scene=scene, scenario="weaving-mixed", generate=generate,
        units=lambda samples: count * steps,
        truth=lambda ctx: np.array([truth(0, r) for r in ctx]),
        student=student,
        config=training.TrainConfig(epochs=epochs, batch_size=256, learning_rate=1e-2,
                                    optimizer="adam", seed=seed),
        landscape_model=student,
        landscape_args=WEAVE_LANDSCAPE + ["--res", str(res)])


WORKLOADS = {
    "line2-const": line2_const,
    "planar6-sym": planar6_sym,
    "weave-rel": weave_rel,
}


# -- machine facts ---------------------------------------------------------------


def machine_facts(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def import_seconds():
    """Time ``import respalloc`` in a fresh interpreter (numpy included)."""
    code = ("import time; t = time.perf_counter(); import respalloc; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- one round ---------------------------------------------------------------------


def _same_samples(a, b):
    def same(x, y):
        return (x is None and y is None) or (
            x is not None and y is not None and np.array_equal(x, y))
    return len(a) == len(b) and all(
        same(s.x, t.x) and same(s.u, t.u) and same(s.u_des, t.u_des)
        and s.t == t.t and s.trajectory_id == t.trajectory_id for s, t in zip(a, b))


def probe_states(job, samples):
    step = max(1, len(samples) // PROBE_CONTEXTS)
    return np.array([job.scene.filter_state(s.x) for s in samples[::step]])


def gamma_err(job, model, samples):
    states = probe_states(job, samples)
    ctx = states if model.context_dim else np.zeros((len(states), 0))
    return float(np.max(np.abs(model.gamma_batch(ctx) - job.truth(states))))


def best_of(trace, name, fn):
    """Fastest of ``REPEATS`` back-to-back calls, and the last call's result.

    Load from neighbours on a shared host stretches identical calls by up to
    a factor of 1.9; the fastest call of a run varies least (see README).
    """
    best, out = float("inf"), None
    for _ in range(REPEATS):
        with trace(name):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
    return best, out


def run_round(build, seed, workdir, checks, tracer=None):
    """One pass through every phase; returns timings, the fitted job and data."""
    timings = {"import_s": import_seconds()}
    t0 = time.perf_counter()
    job = build(seed)
    timings["build_s"] = time.perf_counter() - t0

    trace = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    timings["generate_s"], samples = best_of(trace, "phase.generate", job.generate)
    timings["units"] = job.units(samples)

    path = os.path.join(workdir, "data.ndjson")
    t0 = time.perf_counter()
    data.save_trajectories(samples, path, scenario=job.scenario)
    loaded = data.load_trajectories(path)
    timings["io_s"] = time.perf_counter() - t0
    checks.record(_same_samples(samples, loaded), "NDJSON round trip changed the samples")

    init = job.student.params.copy()

    def fit():
        job.student.params = init
        return training.fit(loaded, job.student, job.scene, job.config)

    timings["fit_s"], report = best_of(trace, "training.fit", fit)
    timings["sample_epochs"] = len(loaded) * report.epochs_run
    checks.record(not report.diverged and np.all(np.isfinite(report.losses))
                  and np.all(np.isfinite(job.student.params)),
                  "fit produced a non-finite loss or parameter")
    timings["gamma_err"] = gamma_err(job, job.student, loaded)

    ckpt = os.path.join(workdir, "model.json")
    csv = os.path.join(workdir, "landscape.csv")
    models.save_model(job.landscape_model, ckpt)
    argv = ["landscape", "--checkpoint", ckpt, "--out", csv] + job.landscape_args
    with contextlib.redirect_stdout(io.StringIO()):
        timings["landscape_s"], code = best_of(trace, "cli.landscape", lambda: cli.main(argv))
    checks.record(code == 0, f"landscape exited with {code}")
    timings["cells"] = check_landscape(job, csv, checks)
    return timings, job, loaded, report


def check_landscape(job, csv, checks):
    """Shape, range and spot values of the exported grid; returns its cell count."""
    args = dict(zip(job.landscape_args[::2], job.landscape_args[1::2]))
    res = int(args["--res"])
    axes = args.get("--axes", "r_lon,r_lat").split(",")
    fixed = dict(kv.split("=") for kv in args.get("--fixed", "").split(",") if kv)
    with open(csv) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    vals = np.array(rows, dtype=float) if rows else np.zeros((0, 4))
    ok = (vals.shape == (res * res, 4) and np.all(np.isfinite(vals))
          and np.all((vals[:, 2] >= 0) & (vals[:, 2] <= 1))
          and set(np.unique(vals[:, 3])) <= {0.0, 1.0})
    checks.record(bool(ok), "landscape grid has the wrong shape or values")
    if not ok:
        return len(rows)
    model = job.landscape_model
    for k in np.linspace(0, res * res - 1, LANDSCAPE_SPOTS).astype(int):
        r = np.zeros(4)
        r[cli.RELATIVE_AXES[axes[0]]], r[cli.RELATIVE_AXES[axes[1]]] = vals[k, :2]
        for name, v in fixed.items():
            r[cli.RELATIVE_AXES[name]] = float(v)
        g1 = model.gamma(r if model.context_dim else None)[0]
        checks.record(abs(g1 - vals[k, 2]) <= 1e-9,
                      f"landscape cell {k} disagrees with the checkpoint")
    return res * res


# -- checks on the fitted model and its filter problems ------------------------------


def filter_properties(job, samples, checks):
    """Workload-property counts at the fitted allocation, plus KKT certificates.

    Every count is deterministic for a given seed; the traced run reports the
    same numbers as per-layer metrics.
    """
    model = job.student
    prep = training.prepare_batch(samples, job.scene, model.context_dim)
    gammas = model.gamma_batch(prep.contexts)
    n, m = prep.u_des.shape
    pivots = binding = clipped = degenerate = 0
    kkt_every = max(1, n // KKT_SAMPLES)
    states = np.array([job.scene.filter_state(s.x) for s in samples[::kkt_every]])
    true_gammas = job.truth(states)
    for i in range(n):
        problem = FilterProblem(prep.constraints[i], prep.u_des[i], gammas[i],
                                prep.beta1, prep.beta2, prep.lb, prep.ub)
        sol = solve_filter(problem)
        jac = differentiate_filter(problem, sol)
        pivots += sol.n_pivots
        binding += sol.lam_cbf > BIND_TOL
        clipped += int(np.sum((sol.u - prep.lb <= CLIP_TOL) | (prep.ub - sol.u <= CLIP_TOL)))
        degenerate += jac.degenerate
        if i % kkt_every == 0:
            checks.record(kkt_certificate(problem, sol) <= KKT_TOL,
                          f"KKT certificate fails at sample {i} (fitted allocation)")
            truth_problem = FilterProblem(prep.constraints[i], prep.u_des[i],
                                          true_gammas[i // kkt_every], prep.beta1,
                                          prep.beta2, prep.lb, prep.ub)
            checks.record(kkt_certificate(truth_problem, solve_filter(truth_problem))
                          <= KKT_TOL, f"KKT certificate fails at sample {i} (true allocation)")

    net_rows = 0.0
    if hasattr(model, "net"):
        counter = Tracer()
        with counter.patched(respalloc):
            model.gamma_batch(prep.contexts)
        net_rows = counter.counts["models.net_rows"] / n
    return prep, {
        "filter_qp.pivots_per_solve": pivots / n,
        "filter_qp.binding_share": binding / n,
        "filter_qp.clipped_share": clipped / (n * m),
        "filter_qp.degenerate": degenerate,
        "models.net_rows_per_context": net_rows,
    }


def check_gradient(job, prep, seed, checks):
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(prep))[:FD_BATCH]
    direction = rng.standard_normal(job.student.params.size)
    direction /= np.linalg.norm(direction)
    err = directional_fd_error(prep.subset(idx), job.student, job.config, direction)
    checks.record(err <= FD_RTOL, f"loss gradient off by {err:.2e} (rel) from central differences")


# -- the run -------------------------------------------------------------------------


def layer_metrics(summary, counts, rounds):
    """Per-layer numbers from traced rounds (see README for the definitions)."""
    def row(name):
        return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def per(seconds, units, scale=1e6):
        return scale * seconds / units if units else 0.0

    fit = row("training.fit")
    forward_ctx = counts["models.forward_contexts"]
    cells = counts["cells"]
    return {
        "barriers.assemble_us": per(row("barriers.assemble")["incl_s"],
                                    row("barriers.assemble")["calls"]),
        "barriers.rows": row("barriers.assemble")["calls"] / rounds,
        "models.forward_us": per(row("models.forward")["incl_s"], forward_ctx),
        "models.vjp_us": per(row("models.vjp")["incl_s"], counts["models.vjp_contexts"]),
        "filter_qp.solve_us": per(row("filter_qp.solve")["incl_s"],
                                  row("filter_qp.solve")["calls"]),
        "filter_qp.vjp_us": per(row("filter_qp.vjp")["incl_s"], row("filter_qp.vjp")["calls"]),
        "training.optimizer_us": per(row("training.optimizer")["incl_s"],
                                     row("training.optimizer")["calls"]),
        "training.glue_share": per(row("training.loss_grad")["self_s"], fit["incl_s"], 1.0),
        "training.prepare_ms": per(row("training.prepare")["incl_s"], fit["calls"], 1e3),
        "data.rollout_self_us": per(row("data.generate")["self_s"], counts["units"]),
        "data.save_ms": per(row("data.save")["incl_s"], row("data.save")["calls"], 1e3),
        "data.load_ms": per(row("data.load")["incl_s"], row("data.load")["calls"], 1e3),
        "cli.landscape_self_us": per(row("cli.landscape")["self_s"], cells),
        "trace.coverage": 1.0 - per(fit["self_s"], fit["incl_s"], 1.0),
    }


def run(workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result, details) ready to print as JSON."""
    build_one = WORKLOADS[workload]

    def build(s):
        return build_one(s, **(sizes or {}))

    checks = Checks()
    times = {k: [] for k in ("setup_s", "generate", "fit", "landscape",
                             "traced_fit", "untraced_fit")}
    digests = []
    tracer = Tracer() if trace else None
    totals, counts, traced_rounds = {}, {"units": 0, "cells": 0}, 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        start = time.perf_counter()
        rounds = 0
        # At least two rounds, so the determinism check always has a pair.
        while rounds < 2 or time.perf_counter() - start < seconds:
            traced_now = trace and rounds % 2 == 1
            try:
                if traced_now:
                    with tracer.patched(respalloc):
                        t, job, samples, report = run_round(build, seed, workdir, checks, tracer)
                else:
                    t, job, samples, report = run_round(build, seed, workdir, checks)
            except (FilterError, FloatingPointError) as exc:
                checks.record(False, f"round {rounds} raised {type(exc).__name__}: {exc}")
                break
            rounds += 1
            times["setup_s"].append(t["import_s"] + t["build_s"] + t["io_s"])
            times["generate"].append(t["units"] / t["generate_s"])
            times["fit"].append(t["sample_epochs"] / t["fit_s"])
            times["landscape"].append(t["cells"] / t["landscape_s"])
            times["traced_fit" if traced_now else "untraced_fit"].append(t["fit_s"])
            digests.append((t["gamma_err"], hashlib.sha256(job.student.params.tobytes()).hexdigest()))
            if traced_now:
                traced_rounds += 1
                for name, row in tracer.summary().items():
                    acc = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                    for k in acc:
                        acc[k] += row[k]
                for k, v in tracer.counts.items():
                    counts[k] = counts.get(k, 0) + v
                counts["units"] += REPEATS * t["units"]
                counts["cells"] += REPEATS * t["cells"]
                tracer.clear()

        for d in digests[1:]:
            checks.record(d == digests[0], "a repeated round fitted different parameters")
        properties = {}
        if digests:
            try:
                prep, properties = filter_properties(job, samples, checks)
                check_gradient(job, prep, seed, checks)
            except (FilterError, FloatingPointError) as exc:
                checks.record(False, f"checks raised {type(exc).__name__}: {exc}")

    if trace:
        for k in ("models.forward_contexts", "models.vjp_contexts"):
            counts.setdefault(k, 0)
        metrics = layer_metrics(totals, counts, max(1, traced_rounds))
        metrics.update(properties)
        metrics["trace.overhead"] = (min(times["traced_fit"], default=np.nan)
                                     / min(times["untraced_fit"], default=np.nan) - 1.0)
        metrics["training.gamma_err"] = digests[0][0] if digests else float("nan")
        metrics["fail_share"] = checks.fail_share
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(times["setup_s"]) if times["setup_s"] else np.nan,
            "generate_samples_per_s": max(times["generate"], default=np.nan),
            "fit_sample_epochs_per_s": max(times["fit"], default=np.nan),
            "landscape_cells_per_s": max(times["landscape"], default=np.nan),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    details = {"workload": workload, "rounds": rounds, "per_round": times,
               "machine": machine_facts(seed),
               "properties": properties, "gamma_err": digests[0][0] if digests else None,
               "failures": checks.notes}
    return result, details


END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_samples_per_s": "1/s",
    "fit_sample_epochs_per_s": "1/s",
    "landscape_cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "barriers.assemble_us": "us",
    "barriers.rows": "count",
    "models.forward_us": "us",
    "models.vjp_us": "us",
    "models.net_rows_per_context": "count",
    "filter_qp.solve_us": "us",
    "filter_qp.vjp_us": "us",
    "filter_qp.pivots_per_solve": "count",
    "filter_qp.binding_share": "1",
    "filter_qp.clipped_share": "1",
    "filter_qp.degenerate": "count",
    "training.optimizer_us": "us",
    "training.glue_share": "1",
    "training.prepare_ms": "ms",
    "data.rollout_self_us": "us",
    "data.save_ms": "ms",
    "data.load_ms": "ms",
    "cli.landscape_self_us": "us",
    "trace.coverage": "1",
    "trace.overhead": "1",
    "training.gamma_err": "1",
    "fail_share": "1",
}
