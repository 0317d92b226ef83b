"""Command-line pipeline: generate, train, landscape, trace, bench.

Configuration precedence is CLI flag > JSON config file (--config) > built-in
default, and the effective configuration is echoed into every artifact (as a
header field in data files, a ``cli_config`` field in reports, and a leading
``#`` comment in CSVs). Exit codes: 0 success, 2 usage or validation error,
3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import data as data_mod
from .data import (WeavingConfig, default_planar_group_config,
                   default_two_agent_config, desired_controls_weaving,
                   generate_synthetic, generate_weaving_trajectories,
                   load_trajectories, planar_group_scene, read_header,
                   save_trajectories, two_agent_line_scene, weaving_scene)
from .filter_qp import FilterError, solve_filter
from .models import init_model, load_model, save_model
from .training import (TrainConfig, batch_loss_and_grad, fit, prepare_batch)


class UsageError(Exception):
    """Bad flags, files, or configuration; maps to exit code 2."""


SYNTHETIC_SCENARIOS = ("synthetic-2agent", "synthetic-6agent")
WEAVING_SCENARIOS = ("weaving-single", "weaving-side-by-side",
                     "weaving-rear-overtake", "weaving-mixed")

RELATIVE_AXES = {"r_lon": 0, "r_lat": 1, "vr_lon": 2, "vr_lat": 3}

# Parameters of the weaving truth used when neither --gamma nor --gamma-model
# is given; the dataset header records them.
WEAVING_TRUTH = {"sharpness": 0.5, "span": 0.35}


def _scene_for(scenario, beta1, beta2):
    if scenario == "synthetic-2agent":
        return two_agent_line_scene(beta1=beta1, beta2=beta2)
    if scenario == "synthetic-6agent":
        return planar_group_scene(6, beta1=beta1, beta2=beta2)
    if scenario in WEAVING_SCENARIOS or scenario == "weaving":
        return weaving_scene(beta1=beta1, beta2=beta2)
    raise UsageError(f"unknown scenario {scenario!r}")


DEFAULTS = {
    "generate": {
        "scenario": "synthetic-2agent", "n": 128, "count": 8, "gamma": None,
        "gamma_model": None, "noise": 0.1, "seed": 0, "beta1": 0.1,
        "beta2": 600.0, "steps": 150, "out": None,
    },
    "train": {
        "dataset": None, "model": "constant", "scene": None, "epochs": 200,
        "batch": 16, "lr": 1e-3, "optimizer": "adam", "loss": "huber",
        "huber_delta": 1.0, "beta1": 0.1, "beta2": 600.0, "seed": 0,
        "checkpoint_out": None, "report_out": None, "trace_csv": None,
        "hidden": 16, "n_hidden": 3,
    },
    "landscape": {
        "checkpoint": None, "out": None, "axes": "r_lon,r_lat",
        "range1": (-15.0, 15.0), "range2": (-6.0, 6.0), "res": 25,
        "fixed": "", "beta1": 0.1, "beta2": 600.0,
        "ref_lon": 0.0, "ref_lat": -1.85, "ref_speed": 10.0,
    },
    "trace": {
        "checkpoint": None, "dataset": None, "traj_id": 0, "out": None,
        "beta1": 0.1, "beta2": 600.0,
    },
    "bench": {
        "sizes": "8,16,32,64,128,256,512", "repeats": 5, "seed": 0,
        "out": None, "beta1": 0.1, "beta2": 600.0,
    },
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="respalloc",
        description="Learn per-agent responsibility allocations from "
                    "interaction data via a differentiable safety-filter QP.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, flag, **kw):
        p.add_argument(flag, default=None, **kw)

    g = sub.add_parser("generate", help="write a synthetic dataset file")
    add(g, "--scenario", choices=SYNTHETIC_SCENARIOS + WEAVING_SCENARIOS)
    add(g, "--n", type=int, help="sample count (synthetic scenarios)")
    add(g, "--count", type=int, help="trajectory count (weaving scenarios)")
    add(g, "--gamma", help="constant truth allocation, e.g. '0.3' or '0.1,0.9'; a "
                           "scalar only for two agents (default: 0.3 for two "
                           "synthetic agents, uniform for more; weaving: the "
                           "faster car yields less)")
    add(g, "--gamma-model", dest="gamma_model", help="checkpoint used as truth")
    add(g, "--noise", type=float, help="control noise variance")
    add(g, "--seed", type=int)
    add(g, "--beta1", type=float)
    add(g, "--beta2", type=float)
    add(g, "--steps", type=int, help="steps per weaving trajectory")
    add(g, "--out", help="output dataset path (.ndjson)")
    g.add_argument("--config", default=None)

    t = sub.add_parser("train", help="fit an allocation model to a dataset")
    add(t, "--dataset")
    add(t, "--model", choices=("constant", "mlp", "symmetric", "relative"))
    add(t, "--scene", help="override the scene implied by the dataset header")
    add(t, "--epochs", type=int)
    add(t, "--batch", type=int)
    add(t, "--lr", type=float)
    add(t, "--optimizer", choices=("adam", "sgd"))
    add(t, "--loss", choices=("huber", "l2", "l1"))
    add(t, "--huber-delta", dest="huber_delta", type=float)
    add(t, "--beta1", type=float)
    add(t, "--beta2", type=float)
    add(t, "--seed", type=int)
    add(t, "--hidden", type=int)
    add(t, "--n-hidden", dest="n_hidden", type=int)
    add(t, "--checkpoint-out", dest="checkpoint_out")
    add(t, "--report-out", dest="report_out")
    add(t, "--trace-csv", dest="trace_csv")
    t.add_argument("--config", default=None)

    l = sub.add_parser("landscape", help="export an allocation grid to CSV")
    add(l, "--checkpoint")
    add(l, "--out")
    add(l, "--axes", help="two of r_lon,r_lat,vr_lon,vr_lat (comma separated)")
    l.add_argument("--range1", nargs=2, type=float, default=None)
    l.add_argument("--range2", nargs=2, type=float, default=None)
    add(l, "--res", type=int)
    add(l, "--fixed", help="values for the other axes, e.g. 'vr_lon=2,vr_lat=0'")
    add(l, "--beta1", type=float)
    add(l, "--beta2", type=float)
    add(l, "--ref-lon", dest="ref_lon", type=float)
    add(l, "--ref-lat", dest="ref_lat", type=float)
    add(l, "--ref-speed", dest="ref_speed", type=float)
    l.add_argument("--config", default=None)

    r = sub.add_parser("trace", help="export per-timestep allocations to CSV")
    add(r, "--checkpoint")
    add(r, "--dataset")
    add(r, "--traj-id", dest="traj_id", type=int)
    add(r, "--out")
    add(r, "--beta1", type=float)
    add(r, "--beta2", type=float)
    r.add_argument("--config", default=None)

    b = sub.add_parser("bench", help="time loss+gradient over batch sizes")
    add(b, "--sizes")
    add(b, "--repeats", type=int)
    add(b, "--seed", type=int)
    add(b, "--out")
    add(b, "--beta1", type=float)
    add(b, "--beta2", type=float)
    b.add_argument("--config", default=None)

    return parser


def effective_config(args):
    """Merge defaults, the optional JSON config file, and explicit flags."""
    cfg = dict(DEFAULTS[args.command])
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise UsageError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg, key, what):
    if cfg.get(key) in (None, ""):
        raise UsageError(f"--{key.replace('_', '-')} is required ({what})")
    return cfg[key]


def _parse_gamma(text, n_agents):
    try:
        parts = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --gamma value {text!r}") from exc
    if len(parts) == 1 and n_agents == 2:
        parts = [parts[0], 1.0 - parts[0]]
    if len(parts) != n_agents:
        raise UsageError(f"--gamma needs {n_agents} entries, got {len(parts)}")
    g = np.asarray(parts, dtype=float)
    if abs(g.sum() - 1.0) > 1e-6 or np.any(g < 0):
        raise UsageError("--gamma must be a nonnegative vector summing to 1")
    return g


def cmd_generate(cfg):
    out = _require(cfg, "out", "output path")
    scenario = cfg["scenario"]
    scene = _scene_for(scenario, cfg["beta1"], cfg["beta2"])

    if cfg["gamma"] is not None and cfg["gamma_model"]:
        raise UsageError("give --gamma or --gamma-model, not both")
    if cfg["gamma_model"]:
        truth = load_model(cfg["gamma_model"])
        truth_doc = {"kind": "model", "checkpoint": str(cfg["gamma_model"])}
    elif cfg["gamma"] is not None or scenario in SYNTHETIC_SCENARIOS:
        n = scene.system.n_agents
        if cfg["gamma"] is not None:
            truth = _parse_gamma(cfg["gamma"], n)
        else:
            truth = _parse_gamma("0.3", n) if n == 2 else np.full(n, 1.0 / n)
        truth_doc = {"kind": "constant", "gamma": truth.tolist()}
    else:
        truth = data_mod.speed_advantage_gamma(**WEAVING_TRUTH)
        truth_doc = {"kind": "speed_advantage_gamma", **WEAVING_TRUTH}

    if scenario in SYNTHETIC_SCENARIOS:
        if scenario == "synthetic-2agent":
            sc = default_two_agent_config(cfg["n"], cfg["noise"], cfg["seed"])
        else:
            sc = default_planar_group_config(6, cfg["n"], cfg["noise"], cfg["seed"])
        samples = generate_synthetic(sc, scene, truth)
    else:
        kind = scenario.replace("weaving-", "").replace("-", "_")
        wcfg = WeavingConfig(steps=cfg["steps"], noise_variance=cfg["noise"])
        samples = generate_weaving_trajectories(
            kind, cfg["count"], seed=cfg["seed"], gamma_truth=truth,
            scene=scene, config=wcfg)

    save_trajectories(samples, out, scenario=scenario,
                      extra_header={"config": _jsonable(cfg), "truth": truth_doc})
    frac = data_mod.active_fraction(samples[:min(len(samples), 200)], scene, truth)
    print(f"wrote {len(samples)} samples to {out} "
          f"(safety row active on {frac:.0%} of the first "
          f"{min(len(samples), 200)})")
    return 0


def _scene_from_header(cfg, header):
    scenario = cfg.get("scene") or header["scenario"]
    return scenario, _scene_for(scenario, cfg["beta1"], cfg["beta2"])


def cmd_train(cfg):
    path = _require(cfg, "dataset", "input dataset")
    if not os.path.exists(path):
        raise UsageError(f"dataset not found: {path}")
    header = read_header(path)
    samples = load_trajectories(path)
    if not samples:
        raise UsageError(f"dataset {path} has no samples")
    scenario, scene = _scene_from_header(cfg, header)

    kind = cfg["model"]
    n_agents = scene.system.n_agents
    context_dim = scene.filter_state(samples[0].x).size
    kwargs = {"n_agents": n_agents, "context_dim": context_dim,
              "hidden": cfg["hidden"], "n_hidden": cfg["n_hidden"]}
    if kind == "symmetric":
        if scene.system.agent_state_dim is None:
            raise UsageError("symmetric model needs a per-agent state layout; "
                             "use the relative model for weaving scenes")
        kwargs["agent_dim"] = scene.system.agent_state_dim
    if kind == "relative" and n_agents != 2:
        raise UsageError("relative model is two-agent only")
    model = init_model(kind, seed=cfg["seed"], **kwargs)

    tc = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch"],
                     learning_rate=cfg["lr"], optimizer=cfg["optimizer"],
                     loss_metric=cfg["loss"], huber_delta=cfg["huber_delta"],
                     seed=cfg["seed"])
    report = fit(samples, model, scene, tc)
    report.config["cli_config"] = _jsonable(cfg)
    report.config["scenario"] = scenario

    if cfg["checkpoint_out"]:
        save_model(model, cfg["checkpoint_out"])
    if cfg["report_out"]:
        report.save_json(cfg["report_out"])
    if cfg["trace_csv"]:
        report.save_trace_csv(cfg["trace_csv"])
    summary = f"final loss {report.losses[-1]:.6g} after {report.epochs_run} epochs"
    if report.gamma_trace is not None:
        summary += f"; gamma = {np.round(report.final_gamma(), 4).tolist()}"
    print(summary)
    return 0 if not report.diverged else 3


def _parse_fixed(text):
    fixed = {}
    if not text:
        return fixed
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad --fixed entry {part!r}; expected name=value")
        name, val = part.split("=", 1)
        if name.strip() not in RELATIVE_AXES:
            raise UsageError(f"unknown axis {name.strip()!r} in --fixed")
        fixed[name.strip()] = float(val)
    return fixed


def cmd_landscape(cfg):
    ckpt = _require(cfg, "checkpoint", "model checkpoint")
    out = _require(cfg, "out", "output CSV")
    if not os.path.exists(ckpt):
        raise UsageError(f"checkpoint not found: {ckpt}")
    model = load_model(ckpt)
    if model.context_dim not in (0, 4):
        raise UsageError("landscape export needs a relative-state model "
                         f"(context dim 4); checkpoint has {model.context_dim}")

    axes = [a.strip() for a in str(cfg["axes"]).split(",")]
    if len(axes) != 2 or any(a not in RELATIVE_AXES for a in axes):
        raise UsageError(f"--axes must name two of {sorted(RELATIVE_AXES)}")
    fixed = _parse_fixed(cfg["fixed"])
    res = int(cfg["res"])
    if res < 2:
        raise UsageError("--res must be at least 2")

    scene = weaving_scene(beta1=cfg["beta1"], beta2=cfg["beta2"])
    grid1 = np.linspace(cfg["range1"][0], cfg["range1"][1], res)
    grid2 = np.linspace(cfg["range2"][0], cfg["range2"][1], res)
    ref = np.array([cfg["ref_lon"], cfg["ref_lat"], cfg["ref_speed"], 0.0])
    lat_targets = (-ref[1], ref[1])    # each car aims at the other's lane
    policy = data_mod.DesiredPolicyParams(lat_targets=lat_targets)

    # One cell per (v1, v2) with v2 varying fastest; fixed axes win.
    v1s, v2s = np.repeat(grid1, res), np.tile(grid2, res)
    cells = np.zeros((res * res, 4))
    cells[:, RELATIVE_AXES[axes[0]]] = v1s
    cells[:, RELATIVE_AXES[axes[1]]] = v2s
    for name, val in fixed.items():
        cells[:, RELATIVE_AXES[name]] = val
    x_joint = np.hstack([np.tile(ref, (len(cells), 1)), ref + cells])
    gammas = model.gamma_batch(cells if model.context_dim else np.zeros((len(cells), 0)))
    u_des = np.array([desired_controls_weaving(x, policy) for x in x_joint])
    problem = scene.problem(scene.assemble(scene.filter_state(x_joint)), u_des, gammas)
    sol = solve_filter(problem)
    inactive = (sol.eps <= 1e-9) & np.all(
        np.abs(sol.u - problem.shrunk_desired()) <= 1e-7, axis=1)

    lines = ["# config: " + json.dumps(_jsonable(cfg)),
             f"{axes[0]},{axes[1]},gamma1,filter_inactive"]
    lines += [f"{float(v1)!r},{float(v2)!r},{float(g1)!r},{int(flag)}"
              for v1, v2, g1, flag in zip(v1s, v2s, gammas[:, 0], inactive)]
    data_mod.atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {res * res} grid cells to {out}")
    return 0


def cmd_trace(cfg):
    ckpt = _require(cfg, "checkpoint", "model checkpoint")
    path = _require(cfg, "dataset", "trajectory file")
    out = _require(cfg, "out", "output CSV")
    for p in (ckpt, path):
        if not os.path.exists(p):
            raise UsageError(f"file not found: {p}")
    model = load_model(ckpt)
    header = read_header(path)
    samples = [s for s in load_trajectories(path)
               if s.trajectory_id == int(cfg["traj_id"])]
    if not samples:
        raise UsageError(f"trajectory id {cfg['traj_id']} not present in {path}")
    if header["n_agents"] != 2 or header["state_dim"] != 8:
        raise UsageError("trace export expects two-agent weaving trajectories")
    scene = weaving_scene(beta1=cfg["beta1"], beta2=cfg["beta2"])
    if model.context_dim not in (0, 4):
        raise UsageError(f"model context dim {model.context_dim} does not "
                         "match the relative state (4)")

    lines = ["# config: " + json.dumps(_jsonable(cfg)),
             "t,gamma1,u1_des_lon,u1_des_lat,u2_des_lon,u2_des_lat,"
             "u1_lon,u1_lat,u2_lon,u2_lat,b"]
    for s in samples:
        r = scene.filter_state(s.x)
        gamma = model.gamma(r if model.context_dim else None)
        b = scene.barrier.value(r)
        if s.u_des is None:
            raise UsageError("trajectory lacks desired controls")
        vals = [s.t, gamma[0], *s.u_des.ravel(), *s.u.ravel(), b]
        lines.append(",".join(repr(float(v)) for v in vals))
    data_mod.atomic_write(out, "\n".join(lines) + "\n")
    print(f"wrote {len(samples)} timesteps to {out}")
    return 0


def cmd_bench(cfg):
    from .models import ConstantGamma

    try:
        sizes = [int(v) for v in str(cfg["sizes"]).split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes {cfg['sizes']!r}") from exc
    if not sizes or min(sizes) < 1:
        raise UsageError("--sizes must be positive integers")
    repeats = int(cfg["repeats"])

    scene = two_agent_line_scene(beta1=cfg["beta1"], beta2=cfg["beta2"])
    sc = default_two_agent_config(max(sizes), noise_variance=0.1,
                                  seed=cfg["seed"])
    samples = generate_synthetic(sc, scene, np.array([0.4, 0.6]))
    prep = prepare_batch(samples, scene, 0)
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=1, batch_size=8)

    rows = []
    for size in sizes:
        sub = prep.subset(np.arange(size))
        batch_loss_and_grad(sub, model, tc)      # warm-up
        best = min(_time_once(sub, model, tc) for _ in range(repeats))
        rows.append((size, best * 1e3))
    slope = float(np.polyfit(np.log([r[0] for r in rows]),
                             np.log([r[1] for r in rows]), 1)[0])

    if cfg["out"]:
        lines = ["# config: " + json.dumps(_jsonable(cfg)),
                 "batch_size,loss_grad_ms"]
        lines += [f"{s},{ms!r}" for s, ms in rows]
        data_mod.atomic_write(cfg["out"], "\n".join(lines) + "\n")
    for s, ms in rows:
        print(f"batch {s:5d}: {ms:8.2f} ms")
    print(f"fitted scaling exponent: {slope:.3f}")
    return 0


def _time_once(prep, model, tc):
    t0 = time.perf_counter()
    batch_loss_and_grad(prep, model, tc)
    return time.perf_counter() - t0


def _jsonable(cfg):
    out = {}
    for k, v in cfg.items():
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        elif isinstance(v, tuple):
            v = list(v)
        out[k] = v
    return out


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "landscape": cmd_landscape,
    "trace": cmd_trace,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (data_mod.TrajectoryFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FilterError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
