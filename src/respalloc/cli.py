"""Command-line pipeline: generate, train, landscape, trace, bench.

Configuration precedence is CLI flag > JSON config file (--config) > the
parser's default, and the effective configuration is echoed into every
artifact (as a header field in data files, a ``cli_config`` field in reports,
and a leading ``#`` comment in CSVs). Exit codes: 0 success, 2 usage or
validation error, 3 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import data as data_mod
from .data import (SCENE_BUILDERS, WeavingConfig, default_planar_group_config,
                   default_two_agent_config, desired_controls_weaving,
                   generate_synthetic, generate_weaving_trajectories,
                   load_trajectories, read_header, save_trajectories,
                   two_agent_line_scene, weaving_scene)
from .filter_qp import FilterError, solve_filter
from .models import ConstantGamma, init_model, load_model, save_model
from .training import TrainConfig, fit, prepare_batch, time_loss_and_grad


class UsageError(Exception):
    """Bad flags, files, or configuration; maps to exit code 2."""


SYNTHETIC_SCENARIOS = ("synthetic-2agent", "synthetic-6agent")
WEAVING_SCENARIOS = ("weaving-single", "weaving-side-by-side",
                     "weaving-rear-overtake", "weaving-mixed")

NETWORK_MODELS = ("mlp", "symmetric", "relative")

RELATIVE_AXES = {"r_lon": 0, "r_lat": 1, "vr_lon": 2, "vr_lat": 3}

# Per command, the option that picks a family and the flags that belong to
# some of its values, with their defaults. They parse to None when not
# given; ``_resolve_family_flags`` fills them in.
FAMILY_FLAGS = {
    "generate": ("scenario", {SYNTHETIC_SCENARIOS: {"n": 128},
                              WEAVING_SCENARIOS: {"count": 8, "steps": 150}}),
    "train": ("model", {NETWORK_MODELS: {"hidden": 16, "n_hidden": 3}}),
}

# Parameters of the weaving truth used when neither --gamma nor --gamma-model
# is given; the dataset header records them.
WEAVING_TRUTH = {"sharpness": 0.5, "span": 0.35}


def _scene_for(scenario, beta1, beta2):
    build = SCENE_BUILDERS.get("weaving" if scenario in WEAVING_SCENARIOS else scenario)
    if build is None:
        raise UsageError(f"unknown scenario {scenario!r}")
    return build(beta1=beta1, beta2=beta2)


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a UsageError instead of printing and exiting 2.

    A negative number written with an exponent ("-1e-3") is a value, not a
    flag, as in Python 3.13's argparse; no option string looks like one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The one declaration of every option: flag, type, choices and default.
    Built once per process; defaults are immutable, so parses share nothing."""
    parser = _Parser(
        prog="respalloc", allow_abbrev=False,
        description="Learn per-agent responsibility allocations from "
                    "interaction data via a differentiable safety-filter QP.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON file of option values, read as "
                                        "flags that the command line overrides")
        return p

    def scene_gains(p):
        p.add_argument("--beta1", type=float, default=0.1)
        p.add_argument("--beta2", type=float, default=600.0)

    g = command("generate", "write a synthetic dataset file")
    g.add_argument("--scenario", default="synthetic-2agent",
                   choices=SYNTHETIC_SCENARIOS + WEAVING_SCENARIOS)
    g.add_argument("--n", type=int, help="sample count (synthetic scenarios; default 128)")
    g.add_argument("--count", type=int,
                   help="trajectory count (weaving scenarios; default 8)")
    g.add_argument("--gamma", help="constant truth allocation, e.g. '0.3' or '0.1,0.9'; a "
                                   "scalar only for two agents (default: 0.3 for two "
                                   "synthetic agents, uniform for more; weaving: the "
                                   "faster car yields less)")
    g.add_argument("--gamma-model", help="checkpoint used as truth")
    g.add_argument("--noise", type=float, default=0.1, help="control noise variance")
    g.add_argument("--seed", type=int, default=0)
    scene_gains(g)
    g.add_argument("--steps", type=int,
                   help="steps per weaving trajectory (weaving scenarios; default 150)")
    g.add_argument("--out", help="output dataset path (.ndjson)")

    t = command("train", "fit an allocation model to a dataset")
    t.add_argument("--dataset")
    t.add_argument("--model", default="constant", choices=("constant",) + NETWORK_MODELS)
    t.add_argument("--scene", help="override the scene implied by the dataset header")
    t.add_argument("--epochs", type=int, default=200)
    t.add_argument("--batch", type=int, default=16)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--optimizer", default="adam", choices=("adam", "sgd"))
    t.add_argument("--loss", default="huber", choices=("huber", "l2", "l1"))
    t.add_argument("--huber-delta", type=float, default=1.0)
    scene_gains(t)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--checkpoint-out")
    t.add_argument("--report-out")
    t.add_argument("--trace-csv")
    t.add_argument("--hidden", type=int, help="hidden units per layer (network models; default 16)")
    t.add_argument("--n-hidden", type=int, help="hidden layers (network models; default 3)")

    l = command("landscape", "export an allocation grid to CSV")
    l.add_argument("--checkpoint")
    l.add_argument("--out")
    l.add_argument("--axes", default="r_lon,r_lat",
                   help="two of r_lon,r_lat,vr_lon,vr_lat (comma separated)")
    l.add_argument("--range1", nargs=2, type=float, default=(-15.0, 15.0))
    l.add_argument("--range2", nargs=2, type=float, default=(-6.0, 6.0))
    l.add_argument("--res", type=int, default=25)
    l.add_argument("--fixed", default="",
                   help="values for the other axes, e.g. 'vr_lon=2,vr_lat=0'")
    scene_gains(l)
    l.add_argument("--ref-lon", type=float, default=0.0)
    l.add_argument("--ref-lat", type=float, default=-1.85)
    l.add_argument("--ref-speed", type=float, default=10.0)

    r = command("trace", "export per-timestep allocations to CSV")
    r.add_argument("--checkpoint")
    r.add_argument("--dataset")
    r.add_argument("--traj-id", type=int, default=0)
    r.add_argument("--out")

    b = command("bench", "time loss+gradient over batch sizes")
    b.add_argument("--sizes", default="8,16,32,64,128,256,512")
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")
    scene_gains(b)

    return parser


def _config_flags(args):
    """The flags that ``args.config`` stands for.

    Key ``k`` becomes ``--k`` (``_`` as ``-``), a two-value option takes a
    two-item list, and ``null`` means "not given". The accepted keys are the
    option names of ``args.command`` as they appear in the echoed config.
    """
    path = args.config
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    options = vars(args)
    unknown = set(doc) - (set(options) - {"command", "config"})
    if unknown:
        raise UsageError(f"unknown config keys in {path}: {sorted(unknown)}")
    flags = []
    for key, value in doc.items():
        if value is None:
            continue
        # The two-value options are the ones whose value is a pair.
        arity = len(options[key]) if isinstance(options[key], (tuple, list)) else 1
        values = value if isinstance(value, list) else [value]
        if len(values) != arity or any(isinstance(v, (list, dict)) for v in values):
            want = f"a list of {arity} values" if arity > 1 else "one value"
            raise UsageError(f"config file {path}: {key!r} takes {want}, "
                             f"got {json.dumps(value)}")
        flag = "--" + key.replace("_", "-")
        text = [v if isinstance(v, str) else json.dumps(v) for v in values]
        # "--k=v" keeps a value that starts with "-" from reading as a flag.
        flags += [f"{flag}={text[0]}"] if arity == 1 else [flag, *text]
    return flags


def parse_command(argv):
    """Parse argv into (command, config): flag > --config file > default.

    The file's flags go right after the subcommand, ahead of the user's own,
    so argparse's last-occurrence-wins gives the precedence and the file's
    values meet the same types and choices as flags.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        flags = _config_flags(args)
        try:
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        except UsageError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from None
    cfg = vars(args)
    command = cfg.pop("command")
    cfg = {k: v for k, v in cfg.items() if k != "config"}
    if command in FAMILY_FLAGS:
        _resolve_family_flags(cfg, *FAMILY_FLAGS[command])
    return command, cfg


def _resolve_family_flags(cfg, choice, families):
    """Give the chosen family's own flags their defaults where not given; a
    flag of a family that ``cfg[choice]`` is not in is a UsageError."""
    for members, defaults in families.items():
        for key, default in defaults.items():
            if cfg[choice] in members:
                cfg[key] = default if cfg[key] is None else cfg[key]
            elif cfg[key] is not None:
                raise UsageError(f"--{key.replace('_', '-')} does not apply to {choice} "
                                 f"{cfg[choice]!r}; it sets {' or '.join(members)} only")


def _require(cfg, key, what):
    if cfg.get(key) in (None, ""):
        raise UsageError(f"--{key.replace('_', '-')} is required ({what})")
    return cfg[key]


def _require_file(cfg, key, what):
    """The path given by flag ``key``; exit 2 unless it is given and exists."""
    path = _require(cfg, key, what)
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _relative_model(cfg):
    """The ``--checkpoint`` model; exit 2 unless it allocates over two agents
    from the weaving relative state (context dim 4) or from no context."""
    model = load_model(_require_file(cfg, "checkpoint", "model checkpoint"))
    if model.n_agents != 2 or model.context_dim not in (0, 4):
        raise UsageError(f"checkpoint {cfg['checkpoint']} allocates over {model.n_agents} "
                         f"agents from context dim {model.context_dim}; this export needs "
                         "2 agents and the relative state's (4) or no (0) context")
    return model


def _write_csv(path, cfg, columns, rows):
    """``write_csv`` with the ``# config:`` echo line."""
    data_mod.write_csv(path, columns, rows, comment="config: " + json.dumps(cfg))


def _parse_gamma(text, n_agents):
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --gamma value {text!r}") from exc
    if len(parts) == 1 and n_agents == 2:
        parts = [parts[0], 1.0 - parts[0]]
    if len(parts) != n_agents:
        raise UsageError(f"--gamma needs {n_agents} entries, got {len(parts)}")
    g = np.asarray(parts, dtype=float)
    # Written so that a NaN entry fails it too.
    if not (np.all(g >= 0) and abs(g.sum() - 1.0) <= 1e-6):
        raise UsageError(f"--gamma must be a finite nonnegative vector summing to 1, "
                         f"got {text!r}")
    return g


def _load_truth_model(path, scenario, scene):
    """The checkpoint at ``path``; exit 2 unless it allocates over the scene's
    agents from the scene's filter state (or from no context)."""
    model = load_model(path)
    n, state_dim = scene.system.n_agents, scene.system.state_dim
    if model.n_agents != n or model.context_dim not in (0, state_dim):
        raise UsageError(
            f"checkpoint {path} holds a {model.kind} model with dims "
            f"{model.checkpoint_dims()} ({model.n_agents} agents, context size "
            f"{model.context_dim}); scenario {scenario!r} needs {n} agents and "
            f"context size {state_dim}, or 0")
    return model


def cmd_generate(cfg):
    out = _require(cfg, "out", "output path")
    scenario = cfg["scenario"]
    scene = _scene_for(scenario, cfg["beta1"], cfg["beta2"])

    if cfg["gamma"] is not None and cfg["gamma_model"]:
        raise UsageError("give --gamma or --gamma-model, not both")
    if cfg["gamma_model"]:
        truth = _load_truth_model(_require_file(cfg, "gamma_model", "truth checkpoint"),
                                  scenario, scene)
        truth_doc = {"kind": "model", "checkpoint": cfg["gamma_model"]}
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
                      extra_header={"config": cfg, "truth": truth_doc})
    frac = data_mod.active_fraction(samples[:min(len(samples), 200)], scene, truth)
    print(f"wrote {len(samples)} samples to {out} "
          f"(safety row active on {frac:.0%} of the first "
          f"{min(len(samples), 200)})")
    return 0


def _scene_from_header(cfg, header):
    scenario = cfg.get("scene") or header["scenario"]
    return scenario, _scene_for(scenario, cfg["beta1"], cfg["beta2"])


def _check_dims(path, header, scenario, scene):
    """Exit 2 unless the dataset's states and controls fit the scene."""
    system = scene.system
    have_x, have_u = (header["state_dim"],), (header["n_agents"], header["control_dim"])
    want_x, want_u = (system.state_dim,), (system.n_agents, system.control_dims[0])
    try:
        mapped = scene.filter_state(np.zeros(have_x)).shape
    except ValueError:
        mapped = None
    if mapped != want_x or have_u != want_u:
        raise UsageError(
            f"dataset {path} holds states of shape {have_x} and controls of shape "
            f"{have_u}; scene {scenario!r} needs states of shape {want_x} (after its "
            f"state map) and controls of shape {want_u}")


def cmd_train(cfg):
    path = _require_file(cfg, "dataset", "input dataset")
    header = read_header(path)
    samples = load_trajectories(path)
    if not samples:
        raise UsageError(f"dataset {path} has no samples")
    scenario, scene = _scene_from_header(cfg, header)
    _check_dims(path, header, scenario, scene)

    kind = cfg["model"]
    n_agents = scene.system.n_agents
    context_dim = scene.filter_state(samples.x[0]).size
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
    report.config["cli_config"] = cfg
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
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad --fixed entry {part!r}; expected name=value")
        name, val = part.split("=", 1)
        name = name.strip()
        if name not in RELATIVE_AXES:
            raise UsageError(f"unknown axis {name!r} in --fixed")
        if name in fixed:
            raise UsageError(f"--fixed sets {name!r} twice")
        try:
            fixed[name] = float(val)
        except ValueError as exc:
            raise UsageError(f"bad --fixed value {part!r}") from exc
        if not math.isfinite(fixed[name]):
            raise UsageError(f"bad --fixed value {part!r}; it must be finite")
    return fixed


def cmd_landscape(cfg):
    model = _relative_model(cfg)
    out = _require(cfg, "out", "output CSV")

    axes = [a.strip() for a in cfg["axes"].split(",")]
    if len(axes) != 2 or axes[0] == axes[1] or any(a not in RELATIVE_AXES for a in axes):
        raise UsageError(f"--axes must name two different axes of {sorted(RELATIVE_AXES)}, "
                         f"got {cfg['axes']!r}")
    fixed = _parse_fixed(cfg["fixed"])
    plotted = [a for a in axes if a in fixed]
    if plotted:
        raise UsageError(f"--fixed sets {plotted[0]!r}, an axis that --axes plots")
    res = cfg["res"]
    if res < 2:
        raise UsageError("--res must be at least 2")
    for key in ("range1", "range2", "ref_lon", "ref_lat", "ref_speed"):
        if not all(map(math.isfinite, cfg[key] if key.startswith("range") else [cfg[key]])):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {cfg[key]}")

    scene = weaving_scene(beta1=cfg["beta1"], beta2=cfg["beta2"])
    grid1 = np.linspace(cfg["range1"][0], cfg["range1"][1], res)
    grid2 = np.linspace(cfg["range2"][0], cfg["range2"][1], res)
    ref = np.array([cfg["ref_lon"], cfg["ref_lat"], cfg["ref_speed"], 0.0])
    lat_targets = (-ref[1], ref[1])    # each car aims at the other's lane
    policy = data_mod.DesiredPolicyParams(lat_targets=lat_targets)

    # One cell per (v1, v2) with v2 varying fastest.
    v1s, v2s = np.repeat(grid1, res), np.tile(grid2, res)
    cells = np.zeros((res * res, 4))
    cells[:, RELATIVE_AXES[axes[0]]] = v1s
    cells[:, RELATIVE_AXES[axes[1]]] = v2s
    for name, val in fixed.items():
        cells[:, RELATIVE_AXES[name]] = val
    x_joint = np.hstack([np.tile(ref, (len(cells), 1)), ref + cells])
    gammas = model.gamma_batch(cells if model.context_dim else np.zeros((len(cells), 0)))
    u_des = desired_controls_weaving(x_joint, policy)
    problem = scene.problem(scene.assemble(scene.filter_state(x_joint)), u_des, gammas)
    sol = solve_filter(problem)
    inactive = (sol.eps <= 1e-9) & np.all(
        np.abs(sol.u - problem.shrunk_desired()) <= 1e-7, axis=1)

    _write_csv(out, cfg, [*axes, "gamma1", "filter_inactive"],
               zip(v1s.tolist(), v2s.tolist(), gammas[:, 0].tolist(),
                   inactive.astype(int).tolist()))
    print(f"wrote {res * res} grid cells to {out}")
    return 0


def cmd_trace(cfg):
    model = _relative_model(cfg)
    path = _require_file(cfg, "dataset", "trajectory file")
    out = _require(cfg, "out", "output CSV")
    scene = weaving_scene()
    _check_dims(path, read_header(path), "weaving", scene)
    samples = load_trajectories(path)
    samples = samples[samples.trajectory_id == cfg["traj_id"]]
    if not len(samples):
        raise UsageError(f"trajectory id {cfg['traj_id']} not present in {path}")
    if not samples.has_u_des.all():
        raise UsageError("trajectory lacks desired controls")

    R = scene.filter_state(samples.x)
    gammas = model.gamma_batch(R if model.context_dim else np.zeros((len(R), 0)))
    columns = np.column_stack([samples.t, gammas[:, 0], samples.u_des.reshape(-1, 4),
                               samples.u.reshape(-1, 4), scene.barrier.value(R)])
    _write_csv(out, cfg, ["t", "gamma1", "u1_des_lon", "u1_des_lat", "u2_des_lon",
                          "u2_des_lat", "u1_lon", "u1_lat", "u2_lon", "u2_lat", "b"],
               columns.tolist())
    print(f"wrote {len(samples)} timesteps to {out}")
    return 0


def cmd_bench(cfg):
    try:
        sizes = [int(v) for v in cfg["sizes"].split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes {cfg['sizes']!r}") from exc
    if not sizes or min(sizes) < 1:
        raise UsageError("--sizes must be positive integers")
    if len(set(sizes)) < 2:
        raise UsageError("--sizes needs at least two distinct batch sizes to fit an exponent")
    if cfg["repeats"] < 1:
        raise UsageError("--repeats must be at least 1")

    scene = two_agent_line_scene(beta1=cfg["beta1"], beta2=cfg["beta2"])
    sc = default_two_agent_config(max(sizes), noise_variance=0.1,
                                  seed=cfg["seed"])
    samples = generate_synthetic(sc, scene, np.array([0.4, 0.6]))
    prep = prepare_batch(samples, scene, 0)
    model = ConstantGamma(2)
    tc = TrainConfig(epochs=1, batch_size=8)

    times, slope = time_loss_and_grad(prep, model, tc, sizes, cfg["repeats"])
    rows = [(s, t * 1e3) for s, t in zip(sizes, times)]

    if cfg["out"]:
        _write_csv(cfg["out"], cfg, ["batch_size", "loss_grad_ms"], rows)
    for s, ms in rows:
        print(f"batch {s:5d}: {ms:8.2f} ms")
    print(f"fitted scaling exponent: {slope:.3f}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "landscape": cmd_landscape,
    "trace": cmd_trace,
    "bench": cmd_bench,
}


def main(argv=None):
    try:
        command, cfg = parse_command(sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[command](cfg)
    except (UsageError, ValueError) as exc:     # TrajectoryFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FilterError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
